"""Sieve-style sampling front-end: price elephants, ECMP the mice.

Flowtune's central NUM loop scales with the number of flows it
prices.  This package bounds that number: an
:class:`ElephantDetector` watches the §6.2 usage stream, an
:class:`EcmpScheduler` gives unpriced mice hash-assigned paths and a
fair share (F-NORM of their weights, on the allocator's own table
plumbing), and :class:`SampledAllocator` composes the two around the
existing :class:`~repro.core.allocator.FlowtuneAllocator`.

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
                   **options: Any) -> RateScheduler:
    """The one construction point for every rate-assignment scheme.

    ``mode`` picks the class; ``options`` pass straight to it, so each
    keeps its own defaults and rejects what it does not take with
    ``TypeError``:

    * ``"flowtune"`` — the paper's allocator,
      :class:`~repro.core.allocator.FlowtuneAllocator`: every flow
      priced by the NUM optimizer (``optimizer_cls``, default NED, at
      step size ``gamma``) and normalized (``normalizer``, default
      F-NORM); ``utility``, ``update_threshold``, ``max_route_len``.
    * ``"sampled"`` — sieve sampling, :class:`SampledAllocator`: only
      detector-promoted elephants priced, mice on ECMP fair share.  It
      takes the ``"flowtune"`` options for its priced half, plus
      ``promote_bytes``, ``idle_epochs``, ``mice_refresh``,
      ``detector`` and ``record_priced``.
    * ``"ecmp"`` — no pricing at all, :class:`EcmpScheduler`: the
      fair-share baseline (``update_threshold``, ``max_route_len``,
      ``refresh_every``).  A pricing option (``utility``,
      ``optimizer_cls``, ``normalizer``, ``gamma``) raises
      ``ValueError``: it does not apply.
    """
    if mode not in SCHEDULER_MODES:
        raise ValueError(
            f"unknown scheduler mode {mode!r}; pick one of "
            f"{', '.join(SCHEDULER_MODES)}")
    if mode == "ecmp":
        for name in ("utility", "optimizer_cls", "normalizer", "gamma"):
            if options.pop(name, None) is not None:
                raise ValueError(
                    f"{name}= does not apply to mode='ecmp' (nothing "
                    "is priced); drop it or pick a priced mode")
        return EcmpScheduler(links, **options)
    if mode == "flowtune":
        return FlowtuneAllocator(links, **options)
    return SampledAllocator(links, **options)
