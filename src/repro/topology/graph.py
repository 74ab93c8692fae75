"""Generic topology description shared by the allocator and simulators.

A topology is a set of *directed* links with capacities and
propagation delays, plus a routing function that maps (source host,
destination host, flow id) to a sequence of link indices.  Directed
links are the unit the NUM formulation prices, and they map one-to-one
onto the output queues of the packet simulator.

Capacities are expressed in Gbit/s throughout the experiments: it
keeps NUM prices and Hessians O(1) in float64 and makes the float32
real-time variants viable, exactly the scaling concern a C
implementation would have.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np
import numpy.typing as npt

from ..core.network import LinkSet

__all__ = ["LinkKind", "LinkSpec", "Topology"]


class LinkKind(Enum):
    """Direction of a link in the Clos fabric (drives LinkBlocks, §5)."""

    HOST_UP = "host_up"        # server -> ToR
    FABRIC_UP = "fabric_up"    # ToR -> spine
    FABRIC_DOWN = "fabric_down"  # spine -> ToR
    HOST_DOWN = "host_down"    # ToR -> server
    CONTROL = "control"        # spine <-> allocator attachment


@dataclass(frozen=True)
class LinkSpec:
    """One directed link: endpoints are opaque node names."""

    index: int
    src: str
    dst: str
    capacity: float          # Gbit/s
    delay: float             # seconds (propagation)
    kind: LinkKind

    @property
    def is_upward(self):
        """Reach: invariant — tests check the partition's up-link blocks."""
        return self.kind in (LinkKind.HOST_UP, LinkKind.FABRIC_UP)


class Topology:
    """Base class: a list of :class:`LinkSpec` plus host bookkeeping.

    Subclasses populate ``links`` and implement :meth:`route`.
    """

    def __init__(self):
        self.links: list[LinkSpec] = []
        self.n_hosts = 0

    def add_link(self, src: str, dst: str, capacity: float, delay: float,
                 kind: LinkKind) -> int:
        spec = LinkSpec(len(self.links), src, dst, float(capacity),
                        float(delay), kind)
        self.links.append(spec)
        return spec.index

    @property
    def n_links(self) -> int:
        return len(self.links)

    def link_set(self) -> LinkSet:
        """The :class:`~repro.core.network.LinkSet` view for NUM."""
        return LinkSet(np.array([link.capacity for link in self.links]))

    def route(self, src_host: int, dst_host: int,
              flow_id: object = 0) -> npt.NDArray[np.int64]:
        """Return the link-index array for a flow (ECMP-stable)."""
        raise NotImplementedError

    def bisection_capacity(self) -> float:
        """Sum of host access-link capacity — the paper's "network
        capacity" denominator for control-overhead fractions."""
        return float(sum(link.capacity for link in self.links
                         if link.kind is LinkKind.HOST_UP))

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(n_hosts={self.n_hosts}, "
                f"n_links={self.n_links})")
