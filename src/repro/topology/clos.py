"""Two-tier (leaf-spine) Clos topologies, §6.2 of the paper.

The evaluation topology is "a two-tier full-bisection topology with 4
spine switches connected to 9 racks of 16 servers each, where servers
are connected with a 10 Gbit/s link" — the pFabric topology.  Full
bisection with 16 x 10G hosts per rack and 4 spines means each
ToR-spine link carries 40 Gbit/s.

Link delays follow §6.2: links contribute 1.5 µs, servers 2 µs of
processing each; the resulting RTTs (~14 µs for 2-hop, ~22 µs for
4-hop) are matched by the packet simulator's delay accounting.

Routing is ECMP by a deterministic flow-id hash: all packets of one
flow use one spine (no reordering), different flows spread across
spines — the paper's assumption that Flowtune is *given* each flow's
path (§7).
"""

from __future__ import annotations

import zlib

import numpy as np
import numpy.typing as npt

from .graph import LinkKind, Topology

__all__ = ["TwoTierClos", "paper_topology"]

# §6.2 constants.
LINK_DELAY_S = 1.5e-6
HOST_DELAY_S = 2.0e-6


class TwoTierClos(Topology):
    """A leaf-spine fabric with deterministic ECMP routing.

    Hosts are numbered ``0 .. n_racks*hosts_per_rack - 1``; host ``i``
    lives in rack ``i // hosts_per_rack``.

    Parameters
    ----------
    n_racks, hosts_per_rack, n_spines:
        Fabric shape.  Full bisection requires ``fabric_capacity *
        n_spines >= host_capacity * hosts_per_rack``.
    host_capacity, fabric_capacity:
        Gbit/s of server access links and ToR-spine links.  When
        ``fabric_capacity`` is None it is sized for exact full
        bisection.
    link_delay:
        One-way propagation per link (seconds).
    oversubscription:
        Convenience divisor applied to the computed fabric capacity
        (2.0 means a 2:1 oversubscribed fabric); only used when
        ``fabric_capacity`` is None.
    """

    def __init__(self, n_racks: int = 9, hosts_per_rack: int = 16,
                 n_spines: int = 4, host_capacity: float = 10.0,
                 fabric_capacity: float | None = None,
                 link_delay: float = LINK_DELAY_S,
                 host_delay: float = HOST_DELAY_S,
                 oversubscription: float = 1.0) -> None:
        super().__init__()
        if n_racks < 1 or hosts_per_rack < 1 or n_spines < 1:
            raise ValueError("topology dimensions must be positive")
        if oversubscription <= 0:
            raise ValueError("oversubscription must be positive")
        self.n_racks = int(n_racks)
        self.hosts_per_rack = int(hosts_per_rack)
        self.n_spines = int(n_spines)
        self.n_hosts = self.n_racks * self.hosts_per_rack
        self.host_capacity = float(host_capacity)
        if fabric_capacity is None:
            fabric_capacity = (host_capacity * hosts_per_rack
                               / n_spines / oversubscription)
        self.fabric_capacity = float(fabric_capacity)
        self.link_delay = float(link_delay)
        self.host_delay = float(host_delay)

        # Link layout (contiguous ranges make index arithmetic cheap):
        #   [0, H)                      host -> ToR      (HOST_UP)
        #   [H, 2H)                     ToR  -> host     (HOST_DOWN)
        #   [2H, 2H + R*S)              ToR  -> spine    (FABRIC_UP)
        #   [2H + R*S, 2H + 2*R*S)      spine -> ToR     (FABRIC_DOWN)
        for host in range(self.n_hosts):
            rack = host // self.hosts_per_rack
            self.add_link(f"h{host}", f"tor{rack}", self.host_capacity,
                          self.link_delay, LinkKind.HOST_UP)
        for host in range(self.n_hosts):
            rack = host // self.hosts_per_rack
            self.add_link(f"tor{rack}", f"h{host}", self.host_capacity,
                          self.link_delay, LinkKind.HOST_DOWN)
        for rack in range(self.n_racks):
            for spine in range(self.n_spines):
                self.add_link(f"tor{rack}", f"spine{spine}",
                              self.fabric_capacity, self.link_delay,
                              LinkKind.FABRIC_UP)
        for rack in range(self.n_racks):
            for spine in range(self.n_spines):
                self.add_link(f"spine{spine}", f"tor{rack}",
                              self.fabric_capacity, self.link_delay,
                              LinkKind.FABRIC_DOWN)

    # ------------------------------------------------------------------
    # link-index arithmetic
    # ------------------------------------------------------------------
    def rack_of(self, host: int) -> int:
        return host // self.hosts_per_rack

    def host_up_link(self, host: int) -> int:
        return host

    def host_down_link(self, host: int) -> int:
        return self.n_hosts + host

    def fabric_up_link(self, rack: int, spine: int) -> int:
        return 2 * self.n_hosts + rack * self.n_spines + spine

    def fabric_down_link(self, rack: int, spine: int) -> int:
        return (2 * self.n_hosts + self.n_racks * self.n_spines
                + rack * self.n_spines + spine)

    def spine_for(self, src_host: int, dst_host: int,
                  flow_id: object = 0) -> int:
        """Deterministic ECMP hash — stable per flow, spread across flows.

        Uses an explicit integer mix rather than Python's ``hash`` so
        routes are reproducible across interpreter runs regardless of
        ``PYTHONHASHSEED``.
        """
        if isinstance(flow_id, int):
            fid = flow_id
        else:
            fid = zlib.crc32(str(flow_id).encode())
        key = (int(src_host) * 2654435761 + int(dst_host) * 40503
               + fid * 2246822519) & 0xFFFFFFFF
        key ^= key >> 13
        return key % self.n_spines

    def route(self, src_host: int, dst_host: int,
              flow_id: object = 0) -> npt.NDArray[np.int64]:
        if src_host == dst_host:
            raise ValueError("source and destination host must differ")
        src_rack = self.rack_of(src_host)
        dst_rack = self.rack_of(dst_host)
        if src_rack == dst_rack:
            return np.array([self.host_up_link(src_host),
                             self.host_down_link(dst_host)], dtype=np.int64)
        spine = self.spine_for(src_host, dst_host, flow_id)
        return np.array([
            self.host_up_link(src_host),
            self.fabric_up_link(src_rack, spine),
            self.fabric_down_link(dst_rack, spine),
            self.host_down_link(dst_host),
        ], dtype=np.int64)

    def candidate_routes(self, src_host: int, dst_host: int,
                         ) -> list[npt.NDArray[np.int64]]:
        """All equal-cost paths ECMP may hash a flow onto.

        Intra-rack pairs have exactly one path; cross-rack pairs one
        per spine.  :meth:`route` always returns an element of this
        list (the one :meth:`spine_for` picks for the flow id), which
        is what lets an unpriced mouse keep its hash-assigned path
        when the sampling front-end later promotes it.

        Reach: invariant — the premise of the hop-major bitwise claim: tests
        check every candidate route's link columns with it.
        """
        if src_host == dst_host:
            raise ValueError("source and destination host must differ")
        src_rack = self.rack_of(src_host)
        dst_rack = self.rack_of(dst_host)
        if src_rack == dst_rack:
            return [np.array([self.host_up_link(src_host),
                              self.host_down_link(dst_host)],
                             dtype=np.int64)]
        return [np.array([self.host_up_link(src_host),
                          self.fabric_up_link(src_rack, spine),
                          self.fabric_down_link(dst_rack, spine),
                          self.host_down_link(dst_host)], dtype=np.int64)
                for spine in range(self.n_spines)]

    # ------------------------------------------------------------------
    # block partitioning hooks (§5)
    # ------------------------------------------------------------------
    def rack_blocks(self, n_blocks: int) -> list[npt.NDArray[np.int64]]:
        """Split racks into ``n_blocks`` contiguous groups (§5 fig. 2).

        Returns a list of rack-index arrays.  Requires ``n_racks %
        n_blocks == 0`` so LinkBlocks stay equal-sized (the paper's
        "each LinkBlock contains exactly the same number of links").
        """
        if self.n_racks % n_blocks:
            raise ValueError(
                f"{n_blocks} blocks do not evenly divide {self.n_racks} racks")
        per = self.n_racks // n_blocks
        return [np.arange(b * per, (b + 1) * per) for b in range(n_blocks)]

    def upward_link_block(self, racks: npt.ArrayLike,
                          ) -> npt.NDArray[np.int64]:
        """All upward links owned by the racks of one block."""
        racks = np.asarray(racks)
        host_ids = np.concatenate([
            np.arange(r * self.hosts_per_rack, (r + 1) * self.hosts_per_rack)
            for r in racks])
        fabric = np.concatenate([
            [self.fabric_up_link(r, s) for s in range(self.n_spines)]
            for r in racks]).astype(np.int64)
        return np.concatenate([host_ids.astype(np.int64), fabric])

    def downward_link_block(self, racks: npt.ArrayLike,
                            ) -> npt.NDArray[np.int64]:
        """All downward links owned by the racks of one block."""
        racks = np.asarray(racks)
        host_ids = np.concatenate([
            self.n_hosts
            + np.arange(r * self.hosts_per_rack, (r + 1) * self.hosts_per_rack)
            for r in racks])
        fabric = np.concatenate([
            [self.fabric_down_link(r, s) for s in range(self.n_spines)]
            for r in racks]).astype(np.int64)
        return np.concatenate([host_ids.astype(np.int64), fabric])

    def two_hop_rtt(self) -> float:
        """Intra-rack RTT: 2 links + both hosts, each way (§6.2 ~14 µs)."""
        return 2 * (2 * self.link_delay + 2 * self.host_delay)

    def four_hop_rtt(self) -> float:
        """Cross-rack RTT: 4 links + both hosts, each way (§6.2 ~22 µs)."""
        return 2 * (4 * self.link_delay + 2 * self.host_delay)


def paper_topology() -> TwoTierClos:
    """The exact §6.2 evaluation fabric: 9 racks x 16 hosts, 4 spines."""
    return TwoTierClos(n_racks=9, hosts_per_rack=16, n_spines=4,
                       host_capacity=10.0)
