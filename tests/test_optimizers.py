"""NED and the baseline optimizers: convergence to known optima."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (FgmOptimizer, FlowTable, GradientOptimizer, LinkSet,
                        NedOptimizer, NewtonLikeOptimizer, solve_to_optimal)
from repro.core.utility import AlphaFairUtility


def n_flows_one_link(n, capacity=10.0):
    table = FlowTable(LinkSet([capacity]))
    for i in range(n):
        table.add_flow(i, [0])
    return table


class TestNedKnownOptima:
    @pytest.mark.parametrize("n", [1, 2, 5, 17])
    def test_equal_split_single_link(self, n):
        table = n_flows_one_link(n)
        rates = NedOptimizer(table).iterate(300)
        assert np.allclose(rates, 10.0 / n, rtol=1e-6)

    def test_weighted_split_single_link(self):
        table = FlowTable(LinkSet([12.0]))
        table.add_flow("light", [0], weight=1.0)
        table.add_flow("heavy", [0], weight=2.0)
        rates = NedOptimizer(table).iterate(300)
        # Proportional fairness: rates split in weight ratio.
        assert rates[table.index_of("heavy")] == pytest.approx(
            2 * rates[table.index_of("light")], rel=1e-6)
        assert rates.sum() == pytest.approx(12.0, rel=1e-6)

    def test_classic_triangle(self):
        # One long flow over both links, one short per link; the
        # proportional-fair optimum for equal capacities c: short flows
        # get 2c/3, the long flow c/3.
        table = FlowTable(LinkSet([9.0, 9.0]))
        table.add_flow("long", [0, 1])
        table.add_flow("s0", [0])
        table.add_flow("s1", [1])
        rates = NedOptimizer(table).iterate(500)
        assert rates[table.index_of("long")] == pytest.approx(3.0, rel=1e-4)
        assert rates[table.index_of("s0")] == pytest.approx(6.0, rel=1e-4)

    def test_bottleneck_only_constrains(self):
        # A flow crossing a 10G and a 4G link is capped by the 4G one.
        table = FlowTable(LinkSet([10.0, 4.0]))
        table.add_flow("a", [0, 1])
        rates = NedOptimizer(table).iterate(200)
        assert rates[0] == pytest.approx(4.0, rel=1e-6)

    def test_kkt_at_convergence(self):
        table = n_flows_one_link(4)
        opt = NedOptimizer(table)
        rates = opt.iterate(300)
        over = opt.over_allocation(rates)
        assert np.all(over <= 1e-6)                      # feasibility
        assert np.all(opt.prices * np.abs(over) < 1e-6)  # compl. slackness

    @pytest.mark.parametrize("gamma", [0.2, 0.4, 1.0, 1.5])
    def test_gamma_range_of_paper_converges(self, gamma):
        # §6.2: performance similar for gamma in [0.2, 1.5].
        table = n_flows_one_link(5)
        rates = NedOptimizer(table, gamma=gamma).iterate(800)
        assert np.allclose(rates, 2.0, rtol=1e-3)

    def test_alpha_fair_utility_supported(self):
        table = FlowTable(LinkSet([8.0]))
        table.add_flow("a", [0])
        table.add_flow("b", [0])
        rates = NedOptimizer(table, utility=AlphaFairUtility(2.0)).iterate(500)
        assert np.allclose(rates, 4.0, rtol=1e-4)

    def test_warm_start_reconverges_after_churn(self):
        table = n_flows_one_link(4)
        opt = NedOptimizer(table)
        opt.iterate(200)
        table.remove_flow(0)
        rates = opt.iterate(200)
        assert np.allclose(rates, 10.0 / 3, rtol=1e-5)

    def test_churn_convergence_is_fast_from_warm_start(self):
        # The headline property: after one flow leaves, NED is near the
        # new optimum within a handful of iterations.
        table = n_flows_one_link(5)
        opt = NedOptimizer(table)
        opt.iterate(300)
        table.remove_flow(0)
        rates = opt.iterate(10)
        assert np.allclose(rates, 2.5, rtol=0.05)

    def test_rejects_bad_gamma(self):
        with pytest.raises(ValueError):
            NedOptimizer(n_flows_one_link(1), gamma=0.0)

    def test_idle_link_price_parks_at_capacity_price(self):
        table = n_flows_one_link(2)
        links2 = LinkSet([10.0, 40.0])
        table2 = FlowTable(links2)
        table2.add_flow("a", [0])
        opt = NedOptimizer(table2)
        opt.iterate(50)
        # Link 1 has no flows: price should be U'(c) = 1/40.
        assert opt.prices[1] == pytest.approx(1.0 / 40.0)

    def test_rate_caps_bound_transients(self):
        table = FlowTable(LinkSet([10.0, 10.0]))
        table.add_flow("a", [0, 1])
        opt = NedOptimizer(table)
        opt.prices[:] = 0.0  # pathological state
        rates = opt.rate_update()
        assert rates[0] <= 10.0 + 1e-9


class TestSolveToOptimal:
    def test_matches_direct_iteration(self):
        table = n_flows_one_link(3)
        rates, prices = solve_to_optimal(table)
        assert np.allclose(rates, 10.0 / 3, rtol=1e-6)
        assert prices[0] == pytest.approx(3.0 / 10.0, rel=1e-4)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_random_networks_feasible_and_slack(self, seed):
        rng = np.random.default_rng(seed)
        n_links = int(rng.integers(2, 6))
        table = FlowTable(LinkSet(rng.uniform(5, 40, n_links)))
        for i in range(int(rng.integers(1, 12))):
            length = int(rng.integers(1, min(3, n_links) + 1))
            route = rng.choice(n_links, size=length, replace=False)
            table.add_flow(i, route)
        rates, prices = solve_to_optimal(table, tol=1e-7)
        load = table.link_totals(rates)
        assert np.all(load <= table.links.capacity * (1 + 1e-5))
        over = load - table.links.capacity
        # Complementary slackness applies to carried links; links with
        # no flows are parked at the idle price by design.
        carried = table.link_totals(np.ones(table.n_flows)) > 0
        assert np.all((prices * np.abs(over))[carried] < 1e-3)


class TestGradient:
    def test_converges_slowly_but_surely(self):
        table = n_flows_one_link(4)
        opt = GradientOptimizer(table, gamma=0.01)
        rates = opt.iterate(5000)
        assert np.allclose(rates, 2.5, rtol=1e-2)

    def test_needs_more_iterations_than_ned(self):
        def iterations_to(optimizer, target, tol=0.01, cap=5000):
            for i in range(cap):
                rates = optimizer.iterate(1)
                if np.allclose(rates, target, rtol=tol):
                    return i + 1
            return cap

        table_a = n_flows_one_link(6)
        table_b = n_flows_one_link(6)
        ned_iters = iterations_to(NedOptimizer(table_a), 10 / 6)
        grad_iters = iterations_to(
            GradientOptimizer(table_b, gamma=0.005), 10 / 6)
        assert ned_iters < grad_iters

    def test_large_gamma_oscillates(self):
        table = n_flows_one_link(4)
        opt = GradientOptimizer(table, gamma=5.0)
        trajectory = [opt.iterate(1).sum() for _ in range(60)]
        tail = np.array(trajectory[-20:])
        # With an absurd step the total rate keeps swinging.
        assert tail.std() > 0.05 * tail.mean()


class TestNewtonLike:
    def test_converges_on_static_problem(self):
        table = n_flows_one_link(4)
        opt = NewtonLikeOptimizer(table, gamma=0.5)
        rates = opt.iterate(2000)
        assert np.allclose(rates, 2.5, rtol=0.05)

    def test_estimates_negative_diagonal(self):
        table = n_flows_one_link(3)
        opt = NewtonLikeOptimizer(table)
        opt.iterate(50)
        assert np.all(opt._diag_estimate < 0)


class TestFgm:
    def test_converges_on_static_problem(self):
        table = n_flows_one_link(4)
        opt = FgmOptimizer(table)
        rates = opt.iterate(3000)
        assert np.allclose(rates, 2.5, rtol=0.05)

    def test_lipschitz_weights_positive(self):
        table = n_flows_one_link(3)
        opt = FgmOptimizer(table)
        assert np.all(opt._lipschitz_weights() > 0)


class TestIncrementalCapPrices:
    """The per-flow cap price ``U'(bottleneck)`` is evaluated only for
    rows new since the last read; after any churn program it must be
    exactly what a whole-table recompute gives."""

    @staticmethod
    def check(opt):
        table = opt.table
        # With all-zero prices the clamped price sums *are* the caps.
        got = opt.effective_price_sums(np.zeros(table.links.n_links))
        want = np.asarray(opt.utility.inverse_rate(
            table.bottleneck_capacity(), table.weights))
        np.testing.assert_array_equal(got, want)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_equals_full_recompute_after_every_step(self, data):
        n_links = data.draw(st.integers(2, 8), label="n_links")
        seed = data.draw(st.integers(0, 2**31), label="seed")
        utility = data.draw(st.sampled_from(
            [None, AlphaFairUtility(2.0)]), label="utility")
        rng = np.random.default_rng(seed)
        table = FlowTable(LinkSet(rng.random(n_links) * 10 + 0.1),
                          max_route_len=4)
        opt = NedOptimizer(table, utility=utility)

        def start(flow_id):
            return (flow_id, rng.integers(0, n_links, int(rng.integers(1, 5))),
                    float(rng.random() * 3 + 0.1))

        next_id = 0
        ops = data.draw(st.lists(st.sampled_from(
            ["batch", "restart", "remove_last", "remove", "refresh",
             "table_refresh", "iterate", "grow"]), min_size=1, max_size=14),
            label="ops")
        for op in ["batch"] + ops:
            alive = table.flow_ids()
            if op == "batch":
                k = int(rng.integers(1, 12))
                ends = [fid for fid in alive if rng.random() < 0.3]
                table.apply_churn(
                    starts=[start(next_id + j) for j in range(k)], ends=ends)
                next_id += k
            elif op == "restart" and alive:
                # a live id ended and started in one batch: new route,
                # new weight, fresh column state
                victim = alive[int(rng.integers(len(alive)))]
                table.apply_churn(starts=[start(victim)], ends=[victim])
            elif op == "remove_last" and alive:
                table.remove_flow(alive[-1])   # no row moves into the hole
            elif op == "remove" and alive:
                table.remove_flow(alive[int(rng.integers(len(alive)))])
            elif op == "refresh":
                table.links.capacity[:] = rng.random(n_links) * 10 + 0.1
                opt.refresh_capacity()
            elif op == "table_refresh":
                table.links.capacity[:] = rng.random(n_links) * 10 + 0.1
                table.refresh_capacity()
            elif op == "iterate":
                opt.iterate(2)
            elif op == "grow":
                table.reserve(len(table._weights) + 1)
            # Not after every step: several churn events must also be
            # able to pile up between two reads.
            if rng.random() < 0.7:
                self.check(opt)
        self.check(opt)

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_watermark_scan_equals_full_rescan(self, data):
        """The cap prices scan only from their column's watermark up.
        Through batched churn (its removals tangled or not), single adds
        and removes, batched removes, regrowth and capacity changes,
        with several steps piling up between reads: no row below the
        watermark ever holds the NaN default, and every read equals a
        rescan of the whole column by bytes."""
        n_links = data.draw(st.integers(2, 8), label="n_links")
        seed = data.draw(st.integers(0, 2**31), label="seed")
        rng = np.random.default_rng(seed)
        table = FlowTable(LinkSet(rng.random(n_links) * 10 + 0.1),
                          max_route_len=4)
        opt = NedOptimizer(table)
        column = opt._price_at_cap

        def start(flow_id):
            return (flow_id, rng.integers(0, n_links, int(rng.integers(1, 5))),
                    float(rng.random() * 3 + 0.1))

        next_id = 0
        ops = data.draw(st.lists(st.sampled_from(
            ["batch", "tail_batch", "add", "remove", "remove_many",
             "capacity", "grow", "read"]), min_size=1, max_size=20),
            label="ops")
        for op in ["batch", "read"] + ops:
            alive = table.flow_ids()
            if op in ("batch", "tail_batch"):
                k = int(rng.integers(1, 12))
                ends = (alive[len(alive) - min(k, len(alive)):]
                        if op == "tail_batch"
                        else [fid for fid in alive if rng.random() < 0.3])
                table.apply_churn(
                    starts=[start(next_id + j) for j in range(k)], ends=ends)
                next_id += k
            elif op == "add":
                _, route, weight = start(next_id)
                table.add_flow(next_id, route, weight)
                next_id += 1
            elif op == "remove" and alive:
                table.remove_flow(alive[int(rng.integers(len(alive)))])
            elif op == "remove_many" and alive:
                table.remove_flows([fid for fid in alive
                                    if rng.random() < 0.4])
            elif op == "capacity":
                table.links.capacity[:] = rng.random(n_links) * 10 + 0.1
                opt.refresh_capacity()
            elif op == "grow":
                table.reserve(len(table._weights) + 1)
            elif op == "read":
                got = opt._cap_prices()
                want = np.asarray(opt.utility.inverse_rate(
                    table.bottleneck_capacity(), table.weights))
                assert got.tobytes() == want.tobytes()
            below = column.data[:column.stale_from]
            assert not np.isnan(below).any(), op
        assert opt._cap_prices().tobytes() == np.asarray(
            opt.utility.inverse_rate(table.bottleneck_capacity(),
                                     table.weights)).tobytes()

    def test_solving_a_clone_leaves_the_live_table_alone(self):
        table = n_flows_one_link(3)
        columns = len(table._columns)
        solve_to_optimal(table.clone(), tol=1e-6)
        assert len(table._columns) == columns

