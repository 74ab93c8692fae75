"""Three-tier Clos (§7 "Scaling to larger networks")."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FlowTable, NedOptimizer, solve_to_optimal
from repro.topology import LinkKind, ThreeTierClos


def small_fabric():
    return ThreeTierClos(n_pods=2, racks_per_pod=2, hosts_per_rack=4,
                         n_spines=2, n_core=2)


class TestConstruction:
    def test_dimensions(self):
        topo = small_fabric()
        assert topo.n_hosts == 16
        assert topo.n_pods == 2
        # hosts up/down + tor-spine up/down + spine-core up/down
        expected = 2 * 16 + 2 * 4 * 2 + 2 * 2 * 2 * 1
        assert topo.n_links == expected

    def test_needs_two_pods(self):
        with pytest.raises(ValueError):
            ThreeTierClos(n_pods=1)

    def test_core_multiple_of_spines(self):
        with pytest.raises(ValueError):
            ThreeTierClos(n_pods=2, n_spines=2, n_core=3)

    def test_capacity_sizing(self):
        topo = ThreeTierClos(n_pods=2, racks_per_pod=2, hosts_per_rack=4,
                             n_spines=2, n_core=2, host_capacity=10.0)
        assert topo.fabric_capacity == pytest.approx(20.0)
        # 2 racks x 20G into each pod spine over 1 core link
        assert topo.core_capacity == pytest.approx(40.0)


class TestRouting:
    def test_intra_rack_two_hops(self):
        topo = small_fabric()
        assert len(topo.route(0, 1)) == 2

    def test_intra_pod_four_hops(self):
        topo = small_fabric()
        route = topo.route(0, 5)  # racks 0 and 1, same pod
        assert len(route) == 4

    def test_cross_pod_six_hops(self):
        topo = small_fabric()
        route = topo.route(0, 12)  # pod 0 -> pod 1
        kinds = [topo.links[i].kind for i in route]
        assert len(route) == 6
        assert kinds[0] is LinkKind.HOST_UP
        assert kinds[-1] is LinkKind.HOST_DOWN
        assert kinds[2] is LinkKind.FABRIC_UP    # pod spine -> core
        assert kinds[3] is LinkKind.FABRIC_DOWN  # core -> pod spine

    def test_route_connectivity(self):
        topo = small_fabric()
        rng = np.random.default_rng(0)
        for _ in range(60):
            src = int(rng.integers(topo.n_hosts))
            dst = int(rng.integers(topo.n_hosts - 1))
            if dst >= src:
                dst += 1
            specs = [topo.links[i] for i in topo.route(src, dst, 3)]
            assert specs[0].src == f"h{src}"
            assert specs[-1].dst == f"h{dst}"
            for a, b in zip(specs, specs[1:]):
                assert a.dst == b.src

    @settings(max_examples=30, deadline=None)
    @given(fid=st.integers(0, 10_000))
    def test_ecmp_deterministic(self, fid):
        topo = small_fabric()
        assert list(topo.route(0, 12, fid)) == list(topo.route(0, 12, fid))


class TestNumOnThreeTier:
    def test_ned_solves_cross_pod_contention(self):
        """The NUM core is topology-agnostic: NED must allocate a
        shared core link fairly across pods."""
        topo = ThreeTierClos(n_pods=2, racks_per_pod=1, hosts_per_rack=4,
                             n_spines=1, n_core=1, core_capacity=10.0)
        table = FlowTable(topo.link_set())
        # Two cross-pod flows sharing the single core link.
        table.add_flow("a", topo.route(0, 4, 1))
        table.add_flow("b", topo.route(1, 5, 1))
        rates = NedOptimizer(table).iterate(400)
        assert rates.sum() == pytest.approx(10.0, rel=1e-3)
        assert rates[0] == pytest.approx(rates[1], rel=1e-3)

    def test_solve_to_optimal_feasible(self):
        topo = small_fabric()
        table = FlowTable(topo.link_set())
        rng = np.random.default_rng(1)
        for i in range(30):
            src = int(rng.integers(topo.n_hosts))
            dst = int(rng.integers(topo.n_hosts - 1))
            if dst >= src:
                dst += 1
            table.add_flow(i, topo.route(src, dst, i))
        rates, _ = solve_to_optimal(table, tol=1e-6)
        load = table.link_totals(rates)
        assert np.all(load <= table.links.capacity * (1 + 1e-5))


class TestPodCoupling:
    def test_coupling_fraction_in_unit_interval(self):
        coupling = small_fabric().pod_block_coupling()
        assert 0 < coupling < 1

    def test_more_core_links_increase_coupling(self):
        low = ThreeTierClos(n_pods=2, racks_per_pod=4, hosts_per_rack=8,
                            n_spines=2, n_core=2).pod_block_coupling()
        high = ThreeTierClos(n_pods=2, racks_per_pod=4, hosts_per_rack=8,
                             n_spines=2, n_core=8).pod_block_coupling()
        assert high > low
