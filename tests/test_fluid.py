"""Fluid flowlet-level simulator: conservation and metric plumbing."""

from functools import partial

import pytest

from repro.core import NullNormalizer
from repro.core.gradient import GradientOptimizer
from repro.fluid import (build_fluid_setup, measure_update_traffic,
                         normalization_throughput,
                         over_allocation_by_algorithm, threshold_reduction)

SCALE = dict(n_racks=2, hosts_per_rack=4, n_spines=2)


class TestSimulator:
    def test_flows_complete_and_conserve_bytes(self):
        _, _, _, simulator = build_fluid_setup(load=0.4, seed=0, **SCALE)
        metrics = simulator.run(2e-3)
        assert metrics.completed, "no flowlet completed"
        for record in metrics.completed:
            assert record.remaining_bytes <= 1e-6
            assert record.fct >= 0

    def test_message_accounting(self):
        _, _, _, simulator = build_fluid_setup(load=0.4, seed=0, **SCALE)
        metrics = simulator.run(2e-3)
        assert metrics.n_start_messages >= metrics.n_end_messages
        assert metrics.bytes_to_allocator > 0
        assert metrics.bytes_from_allocator > 0
        # Every flowlet triggers at least one rate update (its first).
        assert metrics.n_rate_updates >= metrics.n_end_messages

    def test_warmup_excluded_from_metrics(self):
        _, _, _, sim_a = build_fluid_setup(load=0.4, seed=0, **SCALE)
        full = sim_a.run(2e-3, warmup=0.0)
        _, _, _, sim_b = build_fluid_setup(load=0.4, seed=0, **SCALE)
        trimmed = sim_b.run(2e-3, warmup=1e-3)
        assert trimmed.n_start_messages < full.n_start_messages
        assert trimmed.duration == pytest.approx(1e-3)

    def test_active_flow_count_tracks_population(self):
        _, allocator, _, simulator = build_fluid_setup(load=0.4, seed=0,
                                                       **SCALE)
        simulator.run(2e-3)
        assert simulator.n_active == allocator.n_flows

    def test_over_allocation_nonnegative(self):
        _, _, _, simulator = build_fluid_setup(
            load=0.6, seed=1, normalizer=NullNormalizer(), threshold=0.0,
            **SCALE)
        metrics = simulator.run(1e-3)
        assert all(v >= 0 for v in metrics.over_allocation)

    def test_f_norm_eliminates_over_allocation_in_effective_caps(self):
        _, _, _, simulator = build_fluid_setup(load=0.6, seed=1, **SCALE)
        metrics = simulator.run(1e-3)
        assert metrics.peak_over_allocation() <= 1e-6


class TestExperiments:
    def test_update_traffic_fraction_small(self):
        point = measure_update_traffic(load=0.6, duration=1.5e-3,
                                       warmup=0.5e-3, **SCALE)
        assert 0 < point["from_allocator"] < 0.1
        assert 0 < point["to_allocator"] < 0.1

    def test_workload_overhead_ordering(self):
        # §6.4 (C): web needs the most update traffic, hadoop the least.
        fractions = {}
        for workload in ("web", "hadoop"):
            point = measure_update_traffic(workload=workload, load=0.6,
                                           duration=1.5e-3, warmup=0.5e-3,
                                           **SCALE)
            fractions[workload] = point["from_allocator"]
        assert fractions["hadoop"] < fractions["web"]

    def test_threshold_reduces_traffic(self):
        reductions = threshold_reduction(load=0.6, thresholds=(0.01, 0.05),
                                         duration=1.5e-3, warmup=0.5e-3,
                                         **SCALE)
        assert reductions[0.01] == pytest.approx(0.0)
        assert reductions[0.05] > 0.0

    def test_over_allocation_by_algorithm_keys(self):
        results = over_allocation_by_algorithm(
            load=0.4, duration=0.8e-3, warmup=0.2e-3,
            algorithms={"NED": partial(type(
                build_fluid_setup(**SCALE)[1].optimizer), gamma=1.0),
                "Gradient": partial(GradientOptimizer, gamma=0.02)},
            **SCALE)
        assert set(results) == {"NED", "Gradient"}
        assert all(v >= 0 for v in results.values())

    @pytest.mark.slow
    def test_f_norm_beats_u_norm(self):
        results = normalization_throughput(load=0.5, duration=1.5e-3,
                                           warmup=0.5e-3, optimal_every=30,
                                           **SCALE)
        assert results[("NED", "F-NORM")] > results[("NED", "U-NORM")]
