"""Analysis metrics: FCT bins, fairness scores, convergence detection."""

import numpy as np
import pytest

from repro.analysis import (SIZE_BINS, bin_of, convergence_time,
                            format_table, ideal_fct, p99_by_bin,
                            relative_fairness, speedup_by_bin)


class TestBins:
    def test_bin_boundaries(self):
        assert bin_of(1) == "1 packet"
        assert bin_of(2) == "1-10 packets"
        assert bin_of(10) == "1-10 packets"
        assert bin_of(11) == "10-100 packets"
        assert bin_of(1000) == "100-1000 packets"
        assert bin_of(10_000) == "large"

    def test_bins_cover_all_positive_counts(self):
        for n in (1, 5, 50, 500, 5000, 10 ** 7):
            assert bin_of(n) in {label for label, _, _ in SIZE_BINS}

    def test_unbinnable_rejected(self):
        with pytest.raises(ValueError):
            bin_of(0)


class TestIdealFct:
    def test_dominated_by_delay_for_tiny_flows(self):
        fct = ideal_fct(100, one_way_delay=7e-6, bottleneck_gbps=10)
        assert fct == pytest.approx(7e-6 + (100 + 58) * 8 / 10e9)

    def test_dominated_by_serialization_for_big_flows(self):
        fct = ideal_fct(15_000_000, 7e-6, 10)
        assert fct > 0.011  # ~12 ms of wire time


class TestPercentiles:
    def test_p99_by_bin_requires_min_population(self):
        normalized = {i: ("1 packet", 1.0) for i in range(4)}
        assert p99_by_bin(normalized) == {}
        normalized[4] = ("1 packet", 1.0)
        assert p99_by_bin(normalized)["1 packet"] == pytest.approx(1.0)

    def test_speedup_uses_common_flows_only(self):
        scheme = {i: ("1 packet", 10.0) for i in range(10)}
        flowtune = {i: ("1 packet", 2.0) for i in range(5, 15)}
        speedups = speedup_by_bin(scheme, flowtune)
        assert speedups["1 packet"] == pytest.approx(5.0)

    def test_speedup_empty_when_disjoint(self):
        assert speedup_by_bin({1: ("1 packet", 1.0)},
                              {2: ("1 packet", 1.0)}) == {}


class TestFairness:
    def test_relative_fairness_sign(self):
        flowtune = {"a": 4.0, "b": 4.0}
        starved = {"a": 8.0, "b": 1.0}  # unfair: one flow starved
        gap = relative_fairness(starved, flowtune)
        assert gap == pytest.approx((np.log2(8) - np.log2(4)
                                     + np.log2(1) - np.log2(4)) / 2)
        assert gap < 0


class TestConvergence:
    def test_detects_step_response(self):
        times = np.arange(0, 1e-3, 10e-6)
        series = np.where(times < 300e-6, 0.0, 5.0)
        t = convergence_time(times, series, event_time=0.0, target=5.0,
                             tolerance=0.1)
        assert t == pytest.approx(300e-6, abs=11e-6)

    def test_never_converges(self):
        times = np.arange(0, 1e-3, 10e-6)
        series = np.zeros_like(times)
        assert convergence_time(times, series, 0.0, 5.0) == float("inf")

    def test_requires_hold(self):
        times = np.arange(0, 1e-3, 10e-6)
        series = np.where((times > 100e-6) & (times < 150e-6), 5.0, 0.0)
        t = convergence_time(times, series, 0.0, 5.0, hold=500e-6)
        assert t == float("inf")


class TestFormatting:
    def test_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.0], ["bb", 22.5]],
                            title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5
