"""Workload distributions and the Poisson flowlet generator."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads import (WORKLOADS, EmpiricalSizeDistribution,
                             PoissonFlowletGenerator, cache_workload,
                             hadoop_workload, web_workload)


class TestDistributions:
    def test_mean_ordering_matches_paper(self):
        # §6.2/§6.4: web has the smallest mean (most churn), hadoop the
        # largest (least update traffic).
        web = web_workload().mean_bytes
        cache = cache_workload().mean_bytes
        hadoop = hadoop_workload().mean_bytes
        assert web < cache < hadoop

    def test_sample_mean_matches_analytic(self):
        rng = np.random.default_rng(0)
        for factory in WORKLOADS.values():
            dist = factory()
            samples = dist.sample(rng, 100_000)
            assert np.mean(samples) == pytest.approx(dist.mean_bytes,
                                                     rel=0.05)

    def test_samples_within_support(self):
        rng = np.random.default_rng(1)
        dist = web_workload()
        samples = dist.sample(rng, 10_000)
        assert samples.min() >= dist.min_bytes * (1 - 1e-9)
        assert samples.max() <= dist.max_bytes * (1 + 1e-9)

    def test_scalar_sample(self):
        value = web_workload().sample(np.random.default_rng(2))
        assert isinstance(value, float)

    def test_invalid_cdf_rejected(self):
        with pytest.raises(ValueError):
            EmpiricalSizeDistribution("bad", [(100, 0.0), (50, 1.0)])
        with pytest.raises(ValueError):
            EmpiricalSizeDistribution("bad", [(10, 0.2), (20, 1.0)])

    @settings(max_examples=25, deadline=None)
    @given(q=st.floats(min_value=0.0, max_value=1.0))
    def test_quantile_monotone(self, q):
        dist = hadoop_workload()
        assert dist.quantile(q) <= dist.quantile(min(1.0, q + 0.05)) + 1e-9


class TestGenerator:
    def test_rate_targets_load(self):
        gen = PoissonFlowletGenerator(web_workload(), n_hosts=16, load=0.5,
                                      host_capacity_gbps=10.0, seed=0)
        expected = 0.5 * 10e9 / (web_workload().mean_bytes * 8)
        assert gen.per_host_rate == pytest.approx(expected)

    def test_empirical_arrival_rate(self):
        gen = PoissonFlowletGenerator(web_workload(), n_hosts=16, load=0.5,
                                      seed=42)
        arrivals = gen.arrivals_until(5e-3)
        expected = gen.aggregate_rate * 5e-3
        assert len(arrivals) == pytest.approx(expected, rel=0.2)

    def test_offered_load_near_target(self):
        gen = PoissonFlowletGenerator(web_workload(), 16, 0.6, seed=4)
        arrivals = gen.arrivals_until(20e-3)
        bits = 8.0 * sum(a.size_bytes for a in arrivals)
        duration = arrivals[-1].time - arrivals[0].time
        assert bits / (duration * 16 * 10e9) == pytest.approx(0.6, rel=0.3)

    def test_deterministic_for_seed(self):
        a = PoissonFlowletGenerator(web_workload(), 8, 0.4, seed=7)
        b = PoissonFlowletGenerator(web_workload(), 8, 0.4, seed=7)
        for _ in range(50):
            x, y = next(a), next(b)
            assert (x.time, x.src, x.dst, x.size_bytes) == \
                (y.time, y.src, y.dst, y.size_bytes)

    def test_src_differs_from_dst(self):
        gen = PoissonFlowletGenerator(web_workload(), 4, 0.5, seed=1)
        for _ in range(200):
            arrival = next(gen)
            assert arrival.src != arrival.dst
            assert 0 <= arrival.src < 4
            assert 0 <= arrival.dst < 4

    def test_flow_ids_increase(self):
        gen = PoissonFlowletGenerator(web_workload(), 4, 0.5, seed=1,
                                      first_flow_id=100)
        ids = [next(gen).flow_id for _ in range(10)]
        assert ids == list(range(100, 110))

    def test_peek_take_consistency(self):
        gen = PoissonFlowletGenerator(web_workload(), 4, 0.5, seed=2)
        peeked = gen.peek()
        assert gen.take() is peeked

    def test_arrivals_until_ordered(self):
        gen = PoissonFlowletGenerator(web_workload(), 8, 0.8, seed=3)
        arrivals = gen.arrivals_until(2e-3)
        times = [a.time for a in arrivals]
        assert times == sorted(times)
        assert all(t <= 2e-3 for t in times)

    def test_invalid_load_rejected(self):
        with pytest.raises(ValueError):
            PoissonFlowletGenerator(web_workload(), 8, 0.0)

    def test_needs_two_hosts(self):
        with pytest.raises(ValueError):
            PoissonFlowletGenerator(web_workload(), 1, 0.5)
