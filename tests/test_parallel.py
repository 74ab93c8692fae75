"""§5 multicore machinery: partitioning, schedule, engine, §6.1 table."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import kernels
from repro.core.utility import AlphaFairUtility, LogUtility
from repro.parallel import (PAPER_TABLE, BlockPartition, MulticoreNedEngine,
                            aggregation_schedule, cpu_of,
                            distribution_schedule, final_down_holder,
                            final_up_holder, step_breakdown)
from repro.topology import TwoTierClos
from test_kernel_threads import threads


def clos_for_blocks(n_blocks, racks_per_block=2, hosts_per_rack=4):
    return TwoTierClos(n_racks=n_blocks * racks_per_block,
                       hosts_per_rack=hosts_per_rack, n_spines=2)


def random_starts(topology, rng, flow_ids):
    starts = []
    for flow_id in flow_ids:
        src = int(rng.integers(topology.n_hosts))
        dst = int(rng.integers(topology.n_hosts - 1))
        if dst >= src:
            dst += 1
        starts.append((flow_id, src, dst))
    return starts


class TestPartition:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            BlockPartition(clos_for_blocks(3), 3)

    def test_equal_link_block_sizes(self):
        partition = BlockPartition(clos_for_blocks(4), 4)
        assert partition.links_per_block == 2 * (4 + 2)  # hosts + fabric

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_flow_locality_invariant(self, seed):
        """Every flow's route lies in its FlowBlock's two LinkBlocks —
        the property §5's coherence-free design rests on."""
        topo = clos_for_blocks(4)
        partition = BlockPartition(topo, 4)
        rng = np.random.default_rng(seed)
        src = int(rng.integers(topo.n_hosts))
        dst = int(rng.integers(topo.n_hosts - 1))
        if dst >= src:
            dst += 1
        route = topo.route(src, dst, seed)
        assert partition.verify_locality(src, dst, route)


class TestSchedule:
    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_step_count_is_log2(self, n):
        assert len(aggregation_schedule(n)) == int(np.log2(n))

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_final_holders_accumulate_complete_sums(self, n):
        """Symbolically aggregate singleton sets and check coverage."""
        holders = {(r, c): {"up": {(r, c)}, "down": {(r, c)}}
                   for r in range(n) for c in range(n)}
        for step in aggregation_schedule(n):
            staged = []
            for t in step:
                key = "up" if t.upward else "down"
                staged.append((t, key, set(holders[t.src][key])))
            for t, key, contribution in staged:
                holders[t.dst][key] |= contribution
        for block in range(n):
            up = holders[final_up_holder(n, block)]["up"]
            assert up == {(block, c) for c in range(n)}, \
                f"up block {block} incomplete"
            down = holders[final_down_holder(n, block)]["down"]
            assert down == {(r, block) for r in range(n)}, \
                f"down block {block} incomplete"

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_messages_per_step(self, n):
        # Step m has 2 * n^2 / 2^m transfers (uniform per group).
        for m, step in enumerate(aggregation_schedule(n), start=1):
            assert len(step) == 2 * n * n // (2 ** m)

    def test_distribution_mirrors_aggregation(self):
        agg = aggregation_schedule(4)
        dist = distribution_schedule(4)
        assert len(dist) == len(agg)
        first_reversed = {(t.dst, t.src, t.block, t.upward)
                          for t in agg[-1]}
        assert {(t.src, t.dst, t.block, t.upward)
                for t in dist[0]} == first_reversed

    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            aggregation_schedule(3)


class TestEngine:
    @pytest.mark.parametrize("n_blocks", [2, 4])
    def test_equivalent_to_single_core(self, n_blocks):
        topo = clos_for_blocks(n_blocks)
        engine = MulticoreNedEngine(topo, n_blocks)
        rng = np.random.default_rng(0)
        for i in range(80):
            src = int(rng.integers(topo.n_hosts))
            dst = int(rng.integers(topo.n_hosts - 1))
            if dst >= src:
                dst += 1
            engine.add_flow(i, src, dst)
        reference = engine.reference_optimizer()
        engine.iterate(20)
        reference.iterate(20)
        expected = dict(zip(reference.table.flow_ids(),
                            reference.rate_update()))
        # Not bitwise: the engine sums each link's load and Hessian
        # partials in fig. 3 tree order, single-core NED in one
        # bincount pass, so iterated prices drift by a few ulps
        # (<= 1.3e-14 relative after 20 iterations, over 20 seeds).
        for flow_id, rate in engine.rates().items():
            assert rate == pytest.approx(expected[flow_id], rel=1e-12)

    def test_equivalent_under_churn(self):
        topo = clos_for_blocks(2)
        engine = MulticoreNedEngine(topo, 2)
        rng = np.random.default_rng(1)
        for i in range(40):
            src = int(rng.integers(topo.n_hosts))
            dst = int(rng.integers(topo.n_hosts - 1))
            if dst >= src:
                dst += 1
            engine.add_flow(i, src, dst)
        engine.iterate(5)
        engine.apply_churn(ends=range(0, 40, 3))
        engine.iterate(5)
        reference = engine.reference_optimizer()
        reference.prices = engine.global_prices().copy()
        expected = dict(zip(reference.table.flow_ids(),
                            reference.rate_update()))
        assert engine.rates() == expected

    def test_stats_structure(self):
        topo = clos_for_blocks(4)
        engine = MulticoreNedEngine(topo, 4)
        engine.add_flow(0, 0, topo.n_hosts - 1)
        stats = engine.iterate(1)
        assert stats.aggregation_steps == 2          # log2(4)
        # aggregate + distribute move the same number of LinkBlocks.
        per_phase = 16 + 8                            # fig. 3 for n=4
        assert stats.messages == 2 * per_phase
        assert stats.max_flows_per_processor == 1

    def test_inter_cpu_message_accounting(self):
        # 2x2 grid: one CPU, so no inter-CPU transfers; 4x4 grid: two
        # CPUs, the final step's transfers cross between them.
        engine_small = MulticoreNedEngine(clos_for_blocks(2), 2)
        engine_small.add_flow(0, 0, engine_small.partition.topology.n_hosts - 1)
        assert engine_small.iterate(1).inter_cpu_messages == 0
        topo = clos_for_blocks(4)
        engine = MulticoreNedEngine(topo, 4)
        engine.add_flow(0, 0, topo.n_hosts - 1)
        stats = engine.iterate(1)
        assert 0 < stats.inter_cpu_messages < stats.messages

    def test_stats_accumulate_over_iterations(self):
        topo = clos_for_blocks(4)
        engine = MulticoreNedEngine(topo, 4)
        engine.add_flow(0, 0, topo.n_hosts - 1)
        one = engine.iterate(1)
        two = engine.iterate(2)
        for field in ("messages", "inter_cpu_messages",
                      "link_entries_moved", "aggregation_steps"):
            assert getattr(two, field) == 2 * getattr(one, field), field
        assert two.max_flows_per_processor == 1
        assert two.total_flows == 1

    def test_reserve_per_block_applies_to_every_cell(self):
        engine = MulticoreNedEngine(clos_for_blocks(2), 2,
                                    reserve_per_block=512)
        assert all(len(p.table._weights) >= 512
                   for p in engine.processors.values())


def churn_schedule(topology, seed, rounds, burst, n_initial):
    """Deterministic (starts, ends) batches: a first batch, then rounds
    of random ends and new starts."""
    rng = np.random.default_rng(seed)
    alive = list(range(n_initial))
    next_id = n_initial
    batches = [(random_starts(topology, rng, alive), [])]
    for _ in range(rounds):
        n_ends = min(len(alive), int(rng.integers(0, burst)))
        ends = [alive.pop(int(rng.integers(len(alive))))
                for _ in range(n_ends)]
        new_ids = list(range(next_id, next_id + int(rng.integers(1, burst))))
        next_id = new_ids[-1] + 1
        alive.extend(new_ids)
        batches.append((random_starts(topology, rng, new_ids), ends))
    return batches


def single_core_rates(engine):
    """Rates a single-core NED with the engine's prices would emit."""
    reference = engine.reference_optimizer()
    reference.prices = engine.global_prices().copy()
    return dict(zip(reference.table.flow_ids(),
                    (float(r) for r in reference.rate_update())))


class TestEngineEquivalence:
    """The engine's rates are single-core NED's at the engine's prices,
    and its bits do not depend on how many threads the compiled passes
    walk a cell's chunks on: across grid sizes, before and after
    mid-run churn, with weights, through regrowth, widening and emptied
    cells.  ``BLOCK_ROWS`` is cut so that every cell spans chunks."""

    BLOCK = 8

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(kernels, "BLOCK_ROWS", self.BLOCK)

    @staticmethod
    def run(topology, n_blocks, batches, iters, t, **kwargs):
        """(rates, price bytes, single-core rates) after each batch."""
        engine = MulticoreNedEngine(topology, n_blocks, **kwargs)
        out = []
        with threads(t):
            for starts, ends in batches:
                engine.apply_churn(starts=starts, ends=ends)
                engine.iterate(iters)
                out.append((engine.rates(), engine.global_prices().tobytes(),
                            single_core_rates(engine)))
        return engine, out

    def assert_equivalent(self, topology, n_blocks, batches, iters, t,
                          **kwargs):
        engine, got = self.run(topology, n_blocks, batches, iters, t,
                               **kwargs)
        _, want = self.run(topology, n_blocks, batches, iters, 1, **kwargs)
        assert got == want
        for rates, _, expected in got:
            assert rates == expected
        return engine

    @pytest.mark.parametrize("t", [2, 3, 7])
    @pytest.mark.parametrize("n_blocks", [1, 2, 4])
    def test_static_flows_match_single_core(self, n_blocks, t):
        topology = clos_for_blocks(n_blocks)
        batches = [(random_starts(topology, np.random.default_rng(0),
                                  range(40 * n_blocks * n_blocks)), [])]
        engine = self.assert_equivalent(topology, n_blocks, batches, 15, t)
        assert all(p.table.n_flows > self.BLOCK
                   for p in engine.processors.values())

    @pytest.mark.parametrize("n_blocks,t,seed", [
        (2, 2, 3), (2, 3, 1), (2, 4, 2), (2, 7, 4), (4, 3, 5)])
    def test_mid_run_churn_batches_match(self, n_blocks, t, seed):
        topology = clos_for_blocks(n_blocks)
        batches = churn_schedule(topology, seed, rounds=5, burst=25,
                                 n_initial=40)
        self.assert_equivalent(topology, n_blocks, batches, 4, t)

    def test_regrow_matches_single_core(self):
        """Bursts past a cell's first capacity re-allocate its arrays."""
        topology = clos_for_blocks(2)
        rng = np.random.default_rng(9)
        batches = [(random_starts(topology, rng, range(30)), []),
                   (random_starts(topology, rng, range(1000, 1400)),
                    list(range(0, 30, 2)))]
        engine = MulticoreNedEngine(topology, 2)
        initial = max(len(p.table._weights)
                      for p in engine.processors.values())
        engine = self.assert_equivalent(topology, 2, batches, 3, 3)
        assert max(len(p.table._weights)
                   for p in engine.processors.values()) > initial

    def test_wider_routes_match_single_core(self):
        """Same-rack (2-hop) flows, then cross-rack (4-hop) flows that
        widen every cell's table, with capacity reserved so widening is
        the only re-allocation."""
        topology = clos_for_blocks(2)
        per_rack = topology.hosts_per_rack
        near = [(i, i, i ^ 1) for i in range(topology.n_hosts)]
        far = [(100 + i, i, (i + per_rack) % topology.n_hosts)
               for i in range(topology.n_hosts)]
        engine = self.assert_equivalent(topology, 2, [(near, []), (far, [])],
                                        5, 2, reserve_per_block=256)
        assert max(p.table.width for p in engine.processors.values()) == 4
        assert all(len(p.table._weights) == 256
                   for p in engine.processors.values())

    def test_weighted_flows_match_single_core(self):
        topology = clos_for_blocks(2)
        rng = np.random.default_rng(12)
        starts = [(flow_id, src, dst, float(rng.choice([0.5, 1.0, 4.0])))
                  for flow_id, src, dst
                  in random_starts(topology, rng, range(60))]
        self.assert_equivalent(topology, 2, [(starts, [])], 10, 2)

    def test_emptied_cells_then_refilled_match_single_core(self):
        """Every cell drains to zero flows and then refills."""
        topology = clos_for_blocks(2)
        rng = np.random.default_rng(13)
        first = random_starts(topology, rng, range(40))
        batches = [(first, []),
                   ([], [flow_id for flow_id, _, _ in first]),
                   (random_starts(topology, rng, range(40, 90)), [])]
        engine = self.assert_equivalent(topology, 2, batches, 4, 3)
        assert engine.n_flows == 50

    @pytest.mark.parametrize("t", [2, 5, 16])
    def test_larger_grid_under_churn(self, t):
        """A 16-cell grid, T below, at and past the chunks per cell."""
        topology = clos_for_blocks(4)
        batches = churn_schedule(topology, seed=3, rounds=4, burst=60,
                                 n_initial=200)
        self.assert_equivalent(topology, 4, batches, 3, t)


class TestEngineGolden:
    """sha256 of the 16-cell engine's ``global_prices()`` and sorted
    ``rates()`` after every op of a fixed weighted churn program, with
    each cell in one chunk and spanning chunks.  Recorded on the engine
    that still spelled Equation 3 and 4 out in numpy; they pass unedited
    on the one that runs :class:`NedOptimizer`'s pass and price step,
    and fail on a change to either that moves a float.  A change that
    moves floats on purpose updates them and says why."""

    OPS, N_INITIAL, CHURN = 12, 600, 40
    GOLDEN = {
        ("log", None):
            "ef8bd7a90f4e4caf3aa5f88b01eca28a6b688b73f1a59a94ac9235990a1999a9",
        ("log", 8):
            "a9b1d65bfb969822e799e574d7e490a63b37f17547755c1cb8bf88cbd9ddc690",
        ("alpha2", None):
            "0505e5bc37f99f927d5d2120812907a9c9c485d8b7954a802ce69d4142363094",
        ("alpha2", 8):
            "1b46a85ef1fbf465c19bf60bcb18175d7ff26811f70d177d8c12b31ae8c42ccd",
    }
    UTILITIES = {"log": LogUtility, "alpha2": lambda: AlphaFairUtility(2.0)}

    @classmethod
    def program(cls, topology):
        """(starts, ends) per op: weights 0.5-3, 40 ends + 40 starts."""
        rng = np.random.default_rng(44)
        alive, next_id, ops = [], 0, []
        for op in range(cls.OPS):
            n_new = cls.N_INITIAL if op == 0 else cls.CHURN
            ends = [alive.pop(int(rng.integers(len(alive))))
                    for _ in range(cls.CHURN if op else 0)]
            new_ids = range(next_id, next_id + n_new)
            next_id += n_new
            alive.extend(new_ids)
            starts = [(flow_id, src, dst, float(rng.uniform(0.5, 3.0)))
                      for flow_id, src, dst
                      in random_starts(topology, rng, new_ids)]
            ops.append((starts, ends))
        return ops

    @pytest.mark.parametrize("utility,block", list(GOLDEN))
    def test_churn_program_digest(self, utility, block, monkeypatch):
        if block is not None:
            monkeypatch.setattr(kernels, "BLOCK_ROWS", block)
        topology = clos_for_blocks(4)
        engine = MulticoreNedEngine(topology, 4,
                                    utility=self.UTILITIES[utility](),
                                    gamma=0.7)
        h = hashlib.sha256()
        for starts, ends in self.program(topology):
            engine.apply_churn(starts=starts, ends=ends)
            engine.iterate(3)
            rates = engine.rates()
            h.update(engine.global_prices().tobytes())
            h.update(np.array([rates[flow_id] for flow_id in sorted(rates)],
                              dtype=np.float64).tobytes())
        assert engine.n_flows == self.N_INITIAL
        assert h.hexdigest() == self.GOLDEN[utility, block]


class TestEngineApplyChurn:
    """engine.apply_churn (batched) == one event at a time."""

    def test_matches_per_event_churn(self):
        topology = clos_for_blocks(2)
        rng = np.random.default_rng(5)
        starts = random_starts(topology, rng, range(50))
        batched = MulticoreNedEngine(topology, 2)
        sequential = MulticoreNedEngine(topology, 2)
        batched.apply_churn(starts=starts)
        for flow_id, src, dst in starts:
            sequential.add_flow(flow_id, src, dst)
        batched.iterate(5)
        sequential.iterate(5)
        ends = [flow_id for flow_id, _, _ in starts[::3]]
        batched.apply_churn(ends=ends)
        for flow_id in ends:
            sequential.apply_churn(ends=[flow_id])
        batched.iterate(5)
        sequential.iterate(5)
        r_batched, r_sequential = batched.rates(), sequential.rates()
        assert r_batched == r_sequential

    def test_restart_id_in_both_lists(self):
        topology = clos_for_blocks(2)
        engine = MulticoreNedEngine(topology, 2)
        engine.add_flow("a", 0, topology.n_hosts - 1)
        engine.apply_churn(starts=[("a", 1, 2)], ends=["a"])
        assert engine.n_flows == 1
        cell = engine._flow_home["a"]
        assert "a" in engine.processors[cell].table

    def test_add_flow_rejects_an_id_live_in_another_cell(self):
        """add_flow checks the engine's ids, not only one cell's."""
        topology = TwoTierClos(n_racks=4, hosts_per_rack=8, n_spines=4)
        engine = MulticoreNedEngine(topology, 2)
        engine.add_flow(0, 0, 1)
        with pytest.raises(KeyError):
            engine.add_flow(0, 31, 30)  # would land in another cell
        assert sum(p.table.n_flows for p in engine.processors.values()) == 1
        engine.apply_churn(ends=[0])
        assert engine.n_flows == 0 and engine.rates() == {}

    def test_bad_end_id_leaves_engine_unchanged(self):
        topology = clos_for_blocks(2)
        engine = MulticoreNedEngine(topology, 2)
        engine.apply_churn(starts=[(0, 0, 5), (1, 1, 6)])
        with pytest.raises(KeyError):
            engine.apply_churn(ends=[0, "ghost"])
        assert engine.n_flows == 2
        assert 0 in engine._flow_home
        engine.apply_churn(ends=[0, 1])  # still removable: no orphan
        assert engine.n_flows == 0

    def test_duplicate_start_leaves_engine_unchanged(self):
        topology = clos_for_blocks(2)
        engine = MulticoreNedEngine(topology, 2)
        engine.apply_churn(starts=[(0, 0, 5)])
        for bad in ([(1, 1, 6), (1, 2, 7)],   # dup within batch
                    [(0, 1, 6)]):             # dup of active flow
            with pytest.raises(KeyError):
                engine.apply_churn(starts=bad)
            assert engine.n_flows == 1
            assert sum(p.table.n_flows
                       for p in engine.processors.values()) == 1

    def test_bad_weight_leaves_engine_unchanged(self):
        topology = clos_for_blocks(2)
        engine = MulticoreNedEngine(topology, 2)
        with pytest.raises(ValueError):
            engine.apply_churn(starts=[(0, 0, 5), (1, 1, 6, -1.0)])
        assert engine.n_flows == 0
        assert all(p.table.n_flows == 0
                   for p in engine.processors.values())
        # A bad start next to valid ends leaves the ends undone too.
        engine.apply_churn(starts=[(0, 0, 5)])
        home = dict(engine._flow_home)
        with pytest.raises(ValueError):
            engine.apply_churn(starts=[(2, 1, 6, -1.0)], ends=[0])
        assert engine._flow_home == home and engine.n_flows == 1

    def test_weighted_starts(self):
        topology = clos_for_blocks(2)
        engine = MulticoreNedEngine(topology, 2)
        engine.apply_churn(starts=[("w", 0, topology.n_hosts - 1, 3.0)])
        cell = engine._flow_home["w"]
        table = engine.processors[cell].table
        assert table.weights[table.index_of("w")] == 3.0


class TestPaperTable:
    def test_rows_fit_the_paper_partitioning(self):
        # Every row is a square processor grid whose blocks split the
        # racks evenly, so the structure columns are exact.
        for row in PAPER_TABLE:
            assert row.grid_side ** 2 == row.cores
            assert row.nodes % (48 * row.grid_side) == 0
        assert [row.links_per_block for row in PAPER_TABLE] == \
            [208, 208, 208, 208, 208, 416, 624]

    def test_step_breakdown_matches_paper_narrative(self):
        # 4 cores on one CPU: no inter-CPU steps.
        assert step_breakdown(2) == (1, 0)
        # 64 cores on 8 CPUs: communication dominated by inter-CPU.
        intra, inter = step_breakdown(8)
        assert intra + inter == 3 and inter >= 1

    def test_cpu_mapping_two_groups_per_cpu(self):
        # 4x4 grid -> 2 CPUs, each with two adjacent 2x2 groups.
        cpus = {cpu_of((r, c), 4) for r in range(4) for c in range(4)}
        assert cpus == {0, 1}


class TestScipyIsOptional:
    """scipy is no dependency: ``import repro`` (every service child
    pays it) must work without it."""

    @staticmethod
    def _run_without_scipy(code):
        env = dict(os.environ)
        src = str(Path(__file__).resolve().parent.parent / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        return subprocess.run(
            [sys.executable, "-c",
             "import sys\nsys.modules['scipy'] = None\n" + code],
            capture_output=True, text=True, env=env, timeout=60)

    def test_import_repro_without_scipy(self):
        result = self._run_without_scipy("import repro, repro.parallel")
        assert result.returncode == 0, result.stderr
