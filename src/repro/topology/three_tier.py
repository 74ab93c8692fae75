"""Three-tier Clos fabrics — the §7 "Scaling to larger networks" case.

The paper's allocator targets two-tier pods; §7 asks whether the
FlowBlock/LinkBlock abstraction generalizes "beyond a few thousand
endpoints [where] some networks add a third tier of spine switches
that connects two-tier pods".  This module provides that fabric so the
NUM core (which is topology-agnostic — it only sees link indices) can
be exercised on it, and so the open question can be studied
quantitatively: :meth:`ThreeTierClos.pod_block_coupling` measures how
many cross-pod links a pod-level block partitioning would share, the
quantity that §7 says makes the two-tier partitioning break down.

Topology: ``n_pods`` pods, each a two-tier leaf-spine (racks x hosts,
pod spines), joined by a core layer.  Every pod spine connects to
``n_core // n_spines``... — concretely we use the folded-Clos wiring
where core switch ``c`` connects to pod spine ``c % n_spines`` of
every pod, the Jupiter/fat-tree arrangement.
"""

from __future__ import annotations

import zlib

import numpy as np
import numpy.typing as npt

from .graph import LinkKind, Topology

__all__ = ["ThreeTierClos"]


class ThreeTierClos(Topology):
    """A fat-tree-style three-tier fabric with deterministic ECMP.

    Hosts are numbered globally; host ``i`` is in pod
    ``i // (racks_per_pod * hosts_per_rack)``.  Intra-pod routes are
    the familiar 2-hop / 4-hop Clos paths; cross-pod routes take 6
    hops: host -> ToR -> pod spine -> core -> pod spine -> ToR -> host.

    Link layout extends the two-tier ranges with core up/down links;
    core links are classified FABRIC_UP/FABRIC_DOWN by direction so
    LinkBlock-style groupings remain expressible.
    """

    def __init__(self, n_pods: int = 2, racks_per_pod: int = 2,
                 hosts_per_rack: int = 4, n_spines: int = 2,
                 n_core: int | None = None, host_capacity: float = 10.0,
                 fabric_capacity: float | None = None,
                 core_capacity: float | None = None,
                 link_delay: float = 1.5e-6,
                 host_delay: float = 2.0e-6) -> None:
        super().__init__()
        if n_pods < 2:
            raise ValueError("a three-tier fabric needs at least 2 pods")
        self.n_pods = int(n_pods)
        self.racks_per_pod = int(racks_per_pod)
        self.hosts_per_rack = int(hosts_per_rack)
        self.n_spines = int(n_spines)
        self.n_core = int(n_core) if n_core is not None else self.n_spines
        if self.n_core % self.n_spines:
            raise ValueError("n_core must be a multiple of n_spines")
        self.host_capacity = float(host_capacity)
        if fabric_capacity is None:
            fabric_capacity = host_capacity * hosts_per_rack / n_spines
        self.fabric_capacity = float(fabric_capacity)
        if core_capacity is None:
            core_capacity = (self.fabric_capacity * racks_per_pod
                             / (self.n_core // self.n_spines))
        self.core_capacity = float(core_capacity)
        self.link_delay = float(link_delay)
        self.host_delay = float(host_delay)
        self.n_racks = self.n_pods * self.racks_per_pod
        self.n_hosts = self.n_racks * self.hosts_per_rack
        self.hosts_per_pod = self.racks_per_pod * self.hosts_per_rack

        # Ranges mirror TwoTierClos, then core links:
        #   [0, H)               host -> ToR
        #   [H, 2H)              ToR -> host
        #   [2H, 2H+R*S)         ToR -> pod spine
        #   [.., +R*S)           pod spine -> ToR
        #   [.., +P*S*K)         pod spine -> core   (K = n_core/n_spines)
        #   [.., +P*S*K)         core -> pod spine
        for host in range(self.n_hosts):
            rack = host // self.hosts_per_rack
            self.add_link(f"h{host}", f"tor{rack}", self.host_capacity,
                          self.link_delay, LinkKind.HOST_UP)
        for host in range(self.n_hosts):
            rack = host // self.hosts_per_rack
            self.add_link(f"tor{rack}", f"h{host}", self.host_capacity,
                          self.link_delay, LinkKind.HOST_DOWN)
        for rack in range(self.n_racks):
            pod = rack // self.racks_per_pod
            for spine in range(self.n_spines):
                self.add_link(f"tor{rack}", f"pspine{pod}.{spine}",
                              self.fabric_capacity, self.link_delay,
                              LinkKind.FABRIC_UP)
        for rack in range(self.n_racks):
            pod = rack // self.racks_per_pod
            for spine in range(self.n_spines):
                self.add_link(f"pspine{pod}.{spine}", f"tor{rack}",
                              self.fabric_capacity, self.link_delay,
                              LinkKind.FABRIC_DOWN)
        per_spine_core = self.n_core // self.n_spines
        for pod in range(self.n_pods):
            for spine in range(self.n_spines):
                for k in range(per_spine_core):
                    core = spine * per_spine_core + k
                    self.add_link(f"pspine{pod}.{spine}", f"core{core}",
                                  self.core_capacity, self.link_delay,
                                  LinkKind.FABRIC_UP)
        for pod in range(self.n_pods):
            for spine in range(self.n_spines):
                for k in range(per_spine_core):
                    core = spine * per_spine_core + k
                    self.add_link(f"core{core}", f"pspine{pod}.{spine}",
                                  self.core_capacity, self.link_delay,
                                  LinkKind.FABRIC_DOWN)

    # ------------------------------------------------------------------
    # index arithmetic
    # ------------------------------------------------------------------
    def pod_of(self, host: int) -> int:
        return host // self.hosts_per_pod

    def rack_of(self, host: int) -> int:
        return host // self.hosts_per_rack

    def host_up_link(self, host: int) -> int:
        return host

    def host_down_link(self, host: int) -> int:
        return self.n_hosts + host

    def tor_spine_link(self, rack: int, spine: int) -> int:
        return 2 * self.n_hosts + rack * self.n_spines + spine

    def spine_tor_link(self, rack: int, spine: int) -> int:
        return (2 * self.n_hosts + self.n_racks * self.n_spines
                + rack * self.n_spines + spine)

    def _core_base(self):
        return 2 * self.n_hosts + 2 * self.n_racks * self.n_spines

    def spine_core_link(self, pod: int, spine: int, k: int) -> int:
        per_spine = self.n_core // self.n_spines
        return (self._core_base()
                + (pod * self.n_spines + spine) * per_spine + k)

    def core_spine_link(self, pod: int, spine: int, k: int) -> int:
        per_spine = self.n_core // self.n_spines
        total = self.n_pods * self.n_spines * per_spine
        return (self._core_base() + total
                + (pod * self.n_spines + spine) * per_spine + k)

    @staticmethod
    def _mix(*values):
        key = 0
        for value in values:
            if not isinstance(value, int):
                value = zlib.crc32(str(value).encode())
            key = (key * 2654435761 + value + 0x9E3779B9) & 0xFFFFFFFF
        key ^= key >> 13
        return key

    def route(self, src_host: int, dst_host: int,
              flow_id: object = 0) -> npt.NDArray[np.int64]:
        if src_host == dst_host:
            raise ValueError("source and destination host must differ")
        src_rack, dst_rack = self.rack_of(src_host), self.rack_of(dst_host)
        if src_rack == dst_rack:
            return np.array([self.host_up_link(src_host),
                             self.host_down_link(dst_host)], dtype=np.int64)
        src_pod, dst_pod = self.pod_of(src_host), self.pod_of(dst_host)
        spine = self._mix(src_host, dst_host, flow_id) % self.n_spines
        if src_pod == dst_pod:
            return np.array([
                self.host_up_link(src_host),
                self.tor_spine_link(src_rack, spine),
                self.spine_tor_link(dst_rack, spine),
                self.host_down_link(dst_host),
            ], dtype=np.int64)
        per_spine = self.n_core // self.n_spines
        k = self._mix(flow_id, src_pod, dst_pod) % per_spine
        return np.array([
            self.host_up_link(src_host),
            self.tor_spine_link(src_rack, spine),
            self.spine_core_link(src_pod, spine, k),
            self.core_spine_link(dst_pod, spine, k),
            self.spine_tor_link(dst_rack, spine),
            self.host_down_link(dst_host),
        ], dtype=np.int64)

    def candidate_routes(self, src_host: int, dst_host: int,
                         ) -> list[npt.NDArray[np.int64]]:
        """All equal-cost paths ECMP may hash a flow onto.

        One path intra-rack, one per pod spine intra-pod, and one per
        (spine, core-uplink) pair cross-pod.  :meth:`route` always
        returns an element of this list.

        Reach: invariant — the premise of the hop-major bitwise claim: tests
        check every candidate route's link columns with it.
        """
        if src_host == dst_host:
            raise ValueError("source and destination host must differ")
        src_rack, dst_rack = self.rack_of(src_host), self.rack_of(dst_host)
        if src_rack == dst_rack:
            return [np.array([self.host_up_link(src_host),
                              self.host_down_link(dst_host)],
                             dtype=np.int64)]
        src_pod, dst_pod = self.pod_of(src_host), self.pod_of(dst_host)
        if src_pod == dst_pod:
            return [np.array([self.host_up_link(src_host),
                              self.tor_spine_link(src_rack, spine),
                              self.spine_tor_link(dst_rack, spine),
                              self.host_down_link(dst_host)],
                             dtype=np.int64)
                    for spine in range(self.n_spines)]
        per_spine = self.n_core // self.n_spines
        return [np.array([self.host_up_link(src_host),
                          self.tor_spine_link(src_rack, spine),
                          self.spine_core_link(src_pod, spine, k),
                          self.core_spine_link(dst_pod, spine, k),
                          self.spine_tor_link(dst_rack, spine),
                          self.host_down_link(dst_host)], dtype=np.int64)
                for spine in range(self.n_spines)
                for k in range(per_spine)]

    # ------------------------------------------------------------------
    # the §7 open question, quantified
    # ------------------------------------------------------------------
    def pod_block_coupling(self) -> float:
        """Fraction of a pod-block's links shared with other pods.

        §7: "the links going into and out of a pod are used by all
        servers in a pod, so splitting a pod into multiple blocks
        creates expensive updates".  This returns (core links used by a
        pod) / (all upward links a pod-block would own) — the share of
        LinkBlock state that cross-pod FlowBlocks would contend on.
        """
        per_spine = self.n_core // self.n_spines
        core_links = self.n_spines * per_spine
        pod_up_links = (self.hosts_per_pod
                        + self.racks_per_pod * self.n_spines + core_links)
        return core_links / pod_up_links
