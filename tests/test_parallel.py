"""§5 multicore machinery: partitioning, schedule, engine, §6.1 table."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.parallel import (PAPER_TABLE, BlockPartition, MulticoreNedEngine,
                            aggregation_schedule, cpu_of,
                            distribution_schedule, final_down_holder,
                            final_up_holder, step_breakdown)
from repro.topology import TwoTierClos


def clos_for_blocks(n_blocks, racks_per_block=2, hosts_per_rack=4):
    return TwoTierClos(n_racks=n_blocks * racks_per_block,
                       hosts_per_rack=hosts_per_rack, n_spines=2)


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
