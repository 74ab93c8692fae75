"""The ``RateScheduler`` protocol — one API over three schemes.

Every driver (the fluid simulator, the ns-style
:class:`~repro.control.allocator_node.AllocatorNode`, the allocator
service) programs against this protocol and constructs full Flowtune,
pure ECMP fair-share or sampled Flowtune (elephants priced, mice on
ECMP) via :func:`repro.sampling.make_scheduler`.

The surface is exactly what the drivers were already using, made
explicit: flowlet churn in, :class:`~repro.core.allocator.
AllocationResult` out, plus the small introspection surface
(``links``/``full_links``/``max_route_len``/``link_load``) the fluid
sampler and the service handshake need, and the §6.2 usage stream
(``report_usage``) that feeds the elephant detector.  ``wants_usage``
tells a driver whether the scheduler consumes that stream at all, so
the full allocator does not pay for reports it ignores.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import Any, Protocol, runtime_checkable

import numpy as np
import numpy.typing as npt

from ..core.allocator import AllocationResult
from ..core.network import LinkSet

__all__ = ["RateScheduler"]


@runtime_checkable
class RateScheduler(Protocol):
    """What a rate-assignment scheme owes its drivers.

    Implementations: :class:`~repro.core.allocator.FlowtuneAllocator`
    (every flow priced) and :class:`~repro.sampling.EcmpScheduler` (no
    flow priced), which get this surface from their shared base
    :class:`~repro.core.allocator.TableScheduler`, and
    :class:`~repro.sampling.SampledAllocator` (detected elephants
    priced, mice on ECMP), which composes one of each.

    All three share one churn error contract.  ``apply_churn`` removes
    ``ends`` first: an unknown or repeated id raises
    ``KeyError("flow … is not active")`` with nothing applied.  Then
    ``starts``: an id that is repeated or still active raises
    ``KeyError("flow … is already active")``, a bad route or weight
    ``ValueError``, with the ends applied and no start applied.  Either
    message names the first offender in batch order, and an id listed
    in both halves is restarted.
    """

    #: Whether the scheme consumes :meth:`report_usage`.
    wants_usage: bool

    # -- flowlet churn -------------------------------------------------
    def flowlet_start(self, flow_id: Hashable, route: npt.ArrayLike,
                      weight: float = 1.0) -> None: ...

    def flowlet_end(self, flow_id: Hashable) -> None: ...

    def apply_churn(self, starts: Iterable[tuple[Any, ...]] = (),
                    ends: Iterable[Hashable] = ()) -> None: ...

    # -- allocation ----------------------------------------------------
    def iterate(self, n: int = 1) -> AllocationResult: ...

    def current_rates(self) -> dict[Any, float]: ...

    # -- the §6.2 usage stream ----------------------------------------
    def report_usage(self, flow_id: Hashable, nbytes: float) -> None: ...

    # -- introspection -------------------------------------------------
    @property
    def n_flows(self) -> int: ...

    def __contains__(self, flow_id: Hashable) -> bool: ...

    @property
    def links(self) -> LinkSet: ...

    @property
    def full_links(self) -> LinkSet: ...

    @property
    def max_route_len(self) -> int: ...

    def link_load(self, rates: npt.ArrayLike) -> npt.NDArray[np.float64]: ...
