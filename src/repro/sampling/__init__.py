"""Sieve-style sampling front-end: price elephants, ECMP the mice.

Flowtune's central NUM loop scales with the number of flows it
prices.  This package bounds that number: an
:class:`ElephantDetector` watches the §6.2 usage stream, an
:class:`EcmpScheduler` gives unpriced mice hash-assigned paths and a
fair-share rate model, and :class:`SampledAllocator` composes the two
around the existing :class:`~repro.core.allocator.FlowtuneAllocator`.

All three rate-assignment schemes — full Flowtune, sampled Flowtune,
pure ECMP — implement the :class:`RateScheduler` protocol, and every
driver (fluid simulator, ns-style allocator node, allocator service)
constructs them through one door::

    from repro import make_scheduler

    scheduler = make_scheduler(topology.link_set(), mode="sampled")
"""

from __future__ import annotations

from typing import Any

from ..core.allocator import FlowtuneAllocator
from ..core.network import LinkSet
from ..core.normalization import Normalizer
from ..core.utility import Utility
from .detector import ElephantDetector
from .ecmp import EcmpScheduler
from .sampled import SampledAllocator, replay_priced_journal
from .scheduler import RateScheduler

__all__ = ["RateScheduler", "SampledAllocator", "EcmpScheduler",
           "ElephantDetector", "make_scheduler",
           "replay_priced_journal", "SCHEDULER_MODES"]

#: The mode strings :func:`make_scheduler` accepts.
SCHEDULER_MODES = ("flowtune", "sampled", "ecmp")


def make_scheduler(links: LinkSet, mode: str = "flowtune",
                   *, utility: Utility | None = None,
                   optimizer_cls: type | None = None,
                   normalizer: Normalizer | None = None,
                   update_threshold: float = 0.01, gamma: float = 1.0,
                   max_route_len: int = 8,
                   optimizer_kwargs: dict[str, Any] | None = None,
                   promote_bytes: float = float(1 << 20),
                   idle_epochs: int = 100, mice_refresh: int = 4,
                   **kwargs: Any) -> RateScheduler:
    """The one construction point for every rate-assignment scheme.

    ``mode`` selects the scheme:

    * ``"flowtune"`` — the paper's allocator: every flow priced by the
      NUM optimizer (default NED) and normalized (default F-NORM).
    * ``"sampled"`` — sieve sampling: only detector-promoted elephants
      priced; mice on ECMP fair share.  ``promote_bytes``,
      ``idle_epochs`` and ``mice_refresh`` configure the front-end.
    * ``"ecmp"`` — no pricing at all; the fair-share baseline.  The
      optimizer/normalizer/detector knobs do not apply.

    The NUM knobs (``utility`` … ``optimizer_kwargs``) pass through to
    the priced allocator in the first two modes; extra keyword
    arguments pass to the selected class (e.g. ``record_priced=`` for
    ``"sampled"``).
    """
    if mode not in SCHEDULER_MODES:
        raise ValueError(
            f"unknown scheduler mode {mode!r}; pick one of "
            f"{', '.join(SCHEDULER_MODES)}")
    if mode == "ecmp":
        for name, value in (("utility", utility),
                            ("optimizer_cls", optimizer_cls),
                            ("normalizer", normalizer),
                            ("optimizer_kwargs", optimizer_kwargs)):
            if value is not None:
                raise ValueError(
                    f"{name}= does not apply to mode='ecmp' (nothing "
                    "is priced); drop it or pick a priced mode")
        return EcmpScheduler(links, update_threshold=update_threshold,
                             max_route_len=max_route_len, **kwargs)
    num_kwargs: dict[str, Any] = dict(
        utility=utility, normalizer=normalizer,
        update_threshold=update_threshold, gamma=gamma,
        max_route_len=max_route_len, optimizer_kwargs=optimizer_kwargs)
    if optimizer_cls is not None:
        num_kwargs["optimizer_cls"] = optimizer_cls
    if mode == "flowtune":
        return FlowtuneAllocator(links, **num_kwargs, **kwargs)
    return SampledAllocator(links, promote_bytes=promote_bytes,
                            idle_epochs=idle_epochs,
                            mice_refresh=mice_refresh,
                            **num_kwargs, **kwargs)
