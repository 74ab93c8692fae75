"""Sampling-mode invariants: detector, ECMP store, sampled wrapper.

The load-bearing property is the bitwise priced-subset identity: the
sampled wrapper's priced half, journaled and replayed into a fresh
:class:`FlowtuneAllocator`, must reproduce the priced rates bit for
bit over arbitrary interleavings of churn, usage reports, promotions,
demotions and capacity refreshes.  Around it sit the promotion edge
cases, detector boundedness, the scheduler-protocol conformance of
all three modes and the batched-ends atomicity of the ECMP store.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FlowtuneAllocator, LinkSet
from repro.sampling import (SCHEDULER_MODES, EcmpAssigner, EcmpScheduler,
                            ElephantDetector, SampledAllocator,
                            make_scheduler, replay_priced_journal)
from repro.topology import ThreeTierClos, TwoTierClos

N_LINKS = 6


def make_links():
    return LinkSet(np.full(N_LINKS, 10.0))


def run_churn_program(alloc, seed, steps, promote_bytes):
    """Drive ``alloc`` through a randomized churn/usage/iterate mix.

    Returns the merged result of a final iterate (so every program
    ends with fresh rates on both halves).
    """
    rng = np.random.default_rng(seed)
    active = []
    ended = []
    next_id = 0
    for _ in range(steps):
        op = rng.integers(4)
        if op == 0 or not active:  # start a batch of flows
            starts = []
            for _ in range(int(rng.integers(1, 4))):
                route = rng.choice(N_LINKS, size=int(rng.integers(1, 4)),
                                   replace=False)
                starts.append((next_id, route))
                active.append(next_id)
                next_id += 1
            alloc.apply_churn(starts=starts)
        elif op == 1:  # end some flows
            k = int(rng.integers(1, min(3, len(active)) + 1))
            idx = rng.choice(len(active), size=k, replace=False)
            ends = [active[i] for i in idx]
            for flow_id in ends:
                active.remove(flow_id)
            ended.extend(ends)
            alloc.apply_churn(ends=ends)
        elif op == 2:  # usage reports, sometimes enough to promote
            flow_id = active[int(rng.integers(len(active)))]
            nbytes = float(rng.uniform(0, 3 * promote_bytes))
            alloc.report_usage(flow_id, nbytes)
            if ended and rng.integers(2):  # late report for a dead flow
                alloc.report_usage(ended[-1], nbytes)
        else:
            alloc.iterate(1)
    return alloc.iterate(1)


class TestPricedSubsetIdentity:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), steps=st.integers(5, 40))
    def test_journal_replay_is_bitwise(self, seed, steps):
        """Replaying the priced journal into a fresh FlowtuneAllocator
        reproduces the sampled wrapper's priced rates bit for bit."""
        promote = 1000.0
        alloc = SampledAllocator(
            make_links(), promote_bytes=promote, idle_epochs=3,
            detector=ElephantDetector(promote_bytes=promote,
                                      idle_epochs=3, check_every=1),
            mice_refresh=2, record_priced=True)
        merged = run_churn_program(alloc, seed, steps, promote)
        replayed = replay_priced_journal(
            alloc.priced_journal,
            FlowtuneAllocator(make_links()))
        priced = merged._priced
        assert replayed is not None
        assert np.array_equal(replayed._ids, priced._ids)
        assert np.array_equal(np.asarray(replayed.rate_vector),
                              np.asarray(priced.rate_vector))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), steps=st.integers(5, 30))
    def test_membership_partition(self, seed, steps):
        """A live flow sits in exactly one store; detector state never
        outlives the live population."""
        promote = 1000.0
        alloc = SampledAllocator(make_links(), promote_bytes=promote,
                                 idle_epochs=3, mice_refresh=2)
        run_churn_program(alloc, seed, steps, promote)
        mice = set(alloc.mice.flow_index)
        priced = {fid for fid in alloc.priced.table._index_of
                  if fid not in alloc._pending_set}
        assert not mice & priced
        assert alloc.n_flows == len(mice) + len(priced)
        assert len(alloc.detector) <= alloc.n_flows


class TestPromotionEdges:
    def _one_flow(self, **kwargs):
        alloc = SampledAllocator(make_links(), mice_refresh=1, **kwargs)
        alloc.apply_churn(starts=[("f", np.array([0, 1]))])
        return alloc

    def test_exact_threshold_promotes(self):
        alloc = self._one_flow(promote_bytes=1000.0)
        alloc.report_usage("f", 999.0)
        alloc.iterate(1)
        assert alloc.n_priced == 0
        alloc.report_usage("f", 1000.0)  # accumulator hits exactly 1000
        alloc.iterate(1)
        assert alloc.n_priced == 1

    def test_demote_then_repromote_needs_fresh_bytes(self):
        alloc = self._one_flow(
            detector=ElephantDetector(promote_bytes=1000.0, idle_epochs=2,
                                      check_every=1))
        alloc.report_usage("f", 1500.0)
        alloc.iterate(1)
        assert alloc.n_priced == 1
        for _ in range(4):  # idle long enough for the scan to demote
            alloc.iterate(1)
        assert alloc.n_priced == 0 and alloc.n_flows == 1
        # Pre-demotion bytes are spent: 999 new bytes do not re-promote.
        alloc.report_usage("f", 2499.0)
        alloc.iterate(1)
        assert alloc.n_priced == 0
        alloc.report_usage("f", 2500.0)  # fresh accumulation reaches 1000
        alloc.iterate(1)
        assert alloc.n_priced == 1

    def test_usage_for_ended_flow_creates_no_state(self):
        alloc = self._one_flow(promote_bytes=1000.0)
        alloc.apply_churn(ends=["f"])
        alloc.report_usage("f", 5000.0)
        alloc.report_usage("ghost", 5000.0)
        assert len(alloc.detector) == 0
        alloc.iterate(1)
        assert alloc.n_priced == 0 and alloc.n_flows == 0

    def test_ended_elephant_restarts_as_mouse(self):
        alloc = self._one_flow(promote_bytes=1000.0)
        alloc.report_usage("f", 2000.0)
        alloc.iterate(1)
        assert alloc.n_priced == 1
        # End the elephant (deferred), restart the id in the same tick.
        alloc.apply_churn(ends=["f"], starts=[("f", np.array([2]))])
        assert "f" in alloc and alloc.n_priced == 0
        alloc.iterate(1)
        assert alloc.n_priced == 0 and alloc.mice.n_flows == 1
        # link_load flushes the deferred end before measuring.
        alloc.apply_churn(starts=[("g", np.array([3]))])
        result = alloc.iterate(1)
        load = alloc.link_load(result.rate_vector)
        assert load.shape == (N_LINKS,)


class TestSchedulerProtocol:
    @pytest.mark.parametrize("mode", SCHEDULER_MODES)
    def test_conformance(self, mode):
        alloc = make_scheduler(make_links(), mode=mode)
        alloc.apply_churn(starts=[(0, np.array([0, 1])),
                                  (1, np.array([1, 2]))])
        result = alloc.iterate(1)
        rates = np.asarray(result.rate_vector)
        assert len(rates) == alloc.n_flows == 2
        assert np.all(rates >= 0)
        load = alloc.link_load(rates)
        assert load.shape == (N_LINKS,)
        assert 0 in alloc and 2 not in alloc
        assert set(alloc.current_rates()) <= {0, 1}
        alloc.report_usage(0, 123.0)  # protocol no-op outside sampled
        alloc.apply_churn(ends=[0, 1])
        assert alloc.n_flows == 0
        assert alloc.wants_usage == (mode == "sampled")

    @pytest.mark.parametrize("mode", SCHEDULER_MODES)
    def test_churn_error_contract(self, mode):
        """One error type, message and applied-state per bad batch,
        whichever scheme is behind the facade (in sampled mode flow 0
        is priced, the rest are mice)."""
        alloc = make_scheduler(make_links(), mode=mode)
        alloc.apply_churn(starts=[(i, np.array([i, i + 1]))
                                  for i in range(4)])
        if mode == "sampled":
            alloc.report_usage(0, 4.0 * (1 << 20))
            alloc.iterate(1)
            assert alloc.n_priced == 1

        def live():
            return [i for i in range(10) if i in alloc]

        # Bad ends: the first offender in batch order, nothing applied.
        for ends, offender in (([0, 9, 1], 9), ([1, 0, 1, 9], 1),
                               ([9, 0, 0], 9)):
            with pytest.raises(KeyError) as err:
                alloc.apply_churn(starts=[(5, np.array([0]))], ends=ends)
            assert err.value.args == (f"flow {offender!r} is not active",)
            assert live() == [0, 1, 2, 3] and alloc.n_flows == 4
        # Bad starts: ends applied, no start applied.
        for starts, ends, offender, left in (
                ([(5, [0]), (2, [1])], [0], 2, [1, 2, 3]),
                ([(5, [0]), (5, [1])], [1], 5, [2, 3]),
                ([(3, [0]), (2, [0])], [2], 3, [3])):
            with pytest.raises(KeyError) as err:
                alloc.apply_churn(starts=starts, ends=ends)
            assert err.value.args == (
                f"flow {offender!r} is already active",)
            assert live() == left and alloc.n_flows == len(left)
        with pytest.raises(ValueError, match="unknown link"):
            alloc.apply_churn(starts=[(6, [0]), (7, [N_LINKS])], ends=[3])
        assert live() == [] and alloc.n_flows == 0
        # An id in both halves is restarted.
        alloc.apply_churn(starts=[(0, [0]), (1, [1])])
        alloc.apply_churn(starts=[(0, [2, 3]), (8, [4])], ends=[0])
        assert live() == [0, 1, 8]
        assert len(alloc.iterate(1).rate_vector) == 3

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown scheduler mode"):
            make_scheduler(make_links(), mode="pfabric")

    def test_ecmp_rejects_num_knobs(self):
        from repro.core import NedOptimizer
        with pytest.raises(ValueError, match="does not apply"):
            make_scheduler(make_links(), mode="ecmp",
                           optimizer_cls=NedOptimizer)


def _slot_is_set(result, name):
    """Whether a lazy result slot has materialized (hasattr would
    trigger the materialization it is asking about)."""
    try:
        object.__getattribute__(result, name)
    except AttributeError:
        return False
    return True


def _churned(mode, tuple_ids=False):
    """A scheduler of ``mode`` a few steps into a small churn program
    (mixed priced/mice population in sampled mode)."""
    name = (lambda i: ("c", i)) if tuple_ids else (lambda i: i)
    kwargs = ({"promote_bytes": 100.0, "mice_refresh": 2}
              if mode == "sampled" else {})
    alloc = make_scheduler(make_links(), mode=mode, **kwargs)
    alloc.apply_churn(starts=[(name(i), np.array([i % N_LINKS,
                                                  (i + 1) % N_LINKS]))
                              for i in range(12)])
    alloc.report_usage(name(3), 1e6)
    alloc.iterate(1)
    alloc.apply_churn(ends=[name(0), name(7)],
                      starts=[(name(20), np.array([2])),
                              (name(21), np.array([4, 5]))])
    return alloc


class TestResultArrays:
    """``update_arrays`` and the split lazy slots of the three result
    classes."""

    @pytest.mark.parametrize("mode", ["ecmp", "sampled"])
    def test_rate_reads_do_not_build_the_id_column(self, mode):
        result = _churned(mode).iterate(1)
        twin = _churned(mode).iterate(1)
        rates = result.rate_vector
        picked = rates[result.update_indices]
        assert not _slot_is_set(result, "_ids")
        # The id-side views still render what they always did, whatever
        # was read first (the twin reads them in the opposite order).
        assert result.flow_ids == twin.flow_ids
        assert result.updates == twin.updates
        assert result.rates == twin.rates
        np.testing.assert_array_equal(twin.rate_vector, rates)
        np.testing.assert_array_equal(twin.update_indices,
                                      result.update_indices)
        assert result.rates == dict(zip(result.flow_ids, rates.tolist()))
        assert result.updates == [
            (result.flow_ids[i], rate) for i, rate in
            zip(result.update_indices.tolist(), picked.tolist())]

    @pytest.mark.parametrize("mode", ["ecmp", "sampled"])
    def test_each_slot_materializes_once(self, mode):
        result = _churned(mode).iterate(1)
        for name in ("update_indices", "rate_vector", "_ids"):
            assert not _slot_is_set(result, name)
            first = getattr(result, name)
            assert getattr(result, name) is first

    @pytest.mark.parametrize("mode", SCHEDULER_MODES)
    @pytest.mark.parametrize("tuple_ids", [False, True])
    def test_update_arrays_equal_updates(self, mode, tuple_ids):
        alloc = _churned(mode, tuple_ids)
        for _ in range(6):  # refresh and paced iterates, then quiet ones
            result = alloc.iterate(1)
            ids, rates = result.update_arrays()
            assert ids.dtype == object and ids.ndim == 1
            assert rates.dtype == np.float64
            assert list(zip(ids.tolist(), rates.tolist())) == \
                [(u.flow_id, u.rate) for u in result.updates]
            assert len(ids) == len(result.update_indices)
            np.testing.assert_array_equal(
                rates, np.asarray(result.rate_vector)[result.update_indices])

    @pytest.mark.parametrize("mode", SCHEDULER_MODES)
    def test_update_arrays_with_no_updates(self, mode):
        alloc = _churned(mode)
        for _ in range(200):
            result = alloc.iterate(1)
            if not len(result.update_indices):
                break
        ids, rates = result.update_arrays()
        assert ids.shape == rates.shape == (0,)
        assert result.updates == []
        empty = make_scheduler(make_links(), mode=mode).iterate(1)
        assert [len(part) for part in empty.update_arrays()] == [0, 0]

    def test_update_arrays_over_list_backed_ids(self):
        from repro.core.allocator import AllocationResult
        result = AllocationResult(
            flow_ids=[("a", 1), ("b", 2), ("c", 3)],
            rate_vector=np.array([1.0, 2.0, 3.0]),
            update_indices=np.array([2, 0]))
        ids, rates = result.update_arrays()
        assert ids.tolist() == [("c", 3), ("a", 1)]
        assert rates.tolist() == [3.0, 1.0]
        assert result.updates == [(("c", 3), 3.0), (("a", 1), 1.0)]
        assert result.flow_ids == [("a", 1), ("b", 2), ("c", 3)]
        assert result.rates == {("a", 1): 1.0, ("b", 2): 2.0,
                                ("c", 3): 3.0}


class TestEcmpAssigner:
    @pytest.mark.parametrize("topology", [
        TwoTierClos(n_racks=3, hosts_per_rack=4, n_spines=2),
        ThreeTierClos(n_pods=2, racks_per_pod=2, hosts_per_rack=2,
                      n_spines=2),
    ])
    def test_assignment_is_a_candidate_and_deterministic(self, topology):
        assigner = EcmpAssigner(topology)
        twin = EcmpAssigner(topology)
        for flow_id in (0, 7, "client-3:42", (1, 2)):
            route = assigner.assign(0, topology.n_hosts - 1, flow_id)
            candidates = assigner.candidates(0, topology.n_hosts - 1)
            assert any(np.array_equal(route, c) for c in candidates)
            assert np.array_equal(
                route, twin.assign(0, topology.n_hosts - 1, flow_id))

    def test_requires_candidate_enumeration(self):
        with pytest.raises(TypeError, match="candidate_routes"):
            EcmpAssigner(object())


class TestEcmpEndsAtomicity:
    def _store(self):
        store = EcmpScheduler(make_links())
        store.apply_churn(starts=[(i, np.array([i % N_LINKS]))
                                  for i in range(4)])
        return store

    def test_unknown_id_applies_nothing(self):
        store = self._store()
        with pytest.raises(KeyError, match="not active"):
            store.apply_churn(ends=[0, 1, 99])
        assert store.n_flows == 4
        assert all(i in store for i in range(4))

    def test_duplicate_id_applies_nothing(self):
        store = self._store()
        with pytest.raises(KeyError):
            store.apply_churn(ends=[0, 1, 0])
        assert store.n_flows == 4
        assert all(i in store for i in range(4))

    def test_notified_link_load_matches_active_scatter(self):
        store = self._store()
        result = store.iterate(1)
        expected = store.link_load(np.asarray(result.rate_vector))
        assert np.allclose(store.notified_link_load(), expected)
        store.apply_churn(ends=[1, 2])
        # Freed rows contribute nothing after their flows end.
        survivors = store.notified_link_load()
        assert survivors.sum() < expected.sum()


class TestCapacityCoupling:
    def test_elephants_yield_to_mice(self):
        """Promoted elephants must not keep the full link capacity once
        mice share their links."""
        alloc = SampledAllocator(make_links(), promote_bytes=100.0,
                                 mice_refresh=1)
        alloc.apply_churn(starts=[("e", np.array([0, 1]))])
        alloc.report_usage("e", 1e6)
        alloc.iterate(1)
        assert alloc.n_priced == 1
        # 30 mice pile onto link 0; within a few refreshes the priced
        # capacity shrinks below the physical one.
        alloc.apply_churn(starts=[(i, np.array([0])) for i in range(30)])
        for _ in range(10):
            alloc.iterate(1)
        assert alloc.priced.links.capacity[0] < alloc._priced_base[0]
        # The floor holds: elephants are squeezed, never zeroed.
        assert np.all(alloc.priced.links.capacity
                      >= 0.01 * alloc._priced_base - 1e-12)

    def test_legacy_two_arg_normalizer_rejected_at_construction(self):
        def legacy_norm(rates, table):  # pragma: no cover - never called
            return rates

        with pytest.raises(TypeError, match="link_load"):
            make_scheduler(make_links(), mode="sampled",
                           normalizer=legacy_norm)
