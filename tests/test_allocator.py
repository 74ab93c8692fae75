"""FlowtuneAllocator: notification thresholds, headroom, churn."""

from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (FgmOptimizer, FlowTable, FlowtuneAllocator,
                        GradientOptimizer, GradientRtOptimizer, LinkSet,
                        NewtonLikeOptimizer, NullNormalizer, UNormalizer,
                        threshold_update_mask)
from repro.core.allocator import group_by_owner


def make_allocator(**kwargs):
    return FlowtuneAllocator(LinkSet([10.0, 10.0]), **kwargs)


class ScriptedOptimizer:
    """Test double returning a controllable rate per flow id, so
    notification logic can be exercised with exact rate sequences."""

    def __init__(self, table, utility=None):
        self.table = table
        self.rates = {}
        self.default = 1.0

    def iterate(self, n=1):
        return np.array([float(self.rates.get(fid, self.default))
                         for fid in self.table.flow_ids()])

    rate_update = iterate


def make_scripted(threshold=0.5):
    allocator = FlowtuneAllocator(LinkSet([10.0, 10.0]),
                                  optimizer_cls=ScriptedOptimizer,
                                  normalizer=NullNormalizer(),
                                  update_threshold=threshold)
    return allocator, allocator.optimizer


class TestLifecycle:
    def test_new_flow_always_notified(self):
        allocator = make_allocator()
        allocator.flowlet_start("a", [0])
        result = allocator.iterate(5)
        assert any(u.flow_id == "a" for u in result.updates)

    def test_flowlet_end_removes_state(self):
        allocator = make_allocator()
        allocator.flowlet_start("a", [0])
        allocator.iterate(2)
        allocator.flowlet_end("a")
        assert "a" not in allocator
        assert allocator.current_rates() == {}

    def test_duplicate_start_raises(self):
        allocator = make_allocator()
        allocator.flowlet_start("a", [0])
        with pytest.raises(KeyError):
            allocator.flowlet_start("a", [1])

    def test_result_vector_aligned_with_ids(self):
        allocator = make_allocator()
        allocator.flowlet_start("a", [0])
        allocator.flowlet_start("b", [1])
        result = allocator.iterate(3)
        for flow_id, rate in zip(result.flow_ids, result.rate_vector):
            assert result.rates[flow_id] == float(rate)


class TestThreshold:
    def test_headroom_reduces_effective_capacity(self):
        allocator = make_allocator(update_threshold=0.05)
        assert np.allclose(allocator.table.links.capacity, 9.5)

    def test_steady_state_sends_no_updates(self):
        allocator = make_allocator(update_threshold=0.01)
        allocator.flowlet_start("a", [0])
        allocator.flowlet_start("b", [0])
        allocator.iterate(100)
        result = allocator.iterate(1)
        assert result.updates == []

    def test_churn_triggers_updates_for_affected_flows(self):
        allocator = make_allocator(update_threshold=0.01)
        allocator.flowlet_start("a", [0])
        allocator.flowlet_start("b", [0])
        allocator.iterate(100)
        allocator.flowlet_start("c", [0])
        result = allocator.iterate(20)
        notified = {u.flow_id for u in result.updates}
        assert "c" in notified          # the new flow
        assert {"a", "b"} & notified    # rates moved by ~1/3

    def test_higher_threshold_sends_fewer_updates(self):
        def count_updates(threshold):
            allocator = make_allocator(update_threshold=threshold)
            total = 0
            for i in range(12):
                allocator.flowlet_start(i, [0])
                total += len(allocator.iterate(3).updates)
            return total

        assert count_updates(0.2) <= count_updates(0.01)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            make_allocator(update_threshold=1.0)

    def test_zero_threshold_notifies_every_change(self):
        allocator = make_allocator(update_threshold=0.0)
        allocator.flowlet_start("a", [0])
        allocator.iterate(1)
        allocator.flowlet_start("b", [0])
        result = allocator.iterate(1)
        assert {u.flow_id for u in result.updates} == {"a", "b"}


def reference_update_mask(rate_vec, last, pending, threshold):
    """The §6.4 filter spelled term by term (the form the vectorized
    mask replaced); same in-place effects on ``last`` / ``pending``."""
    is_new = np.isnan(last) | pending
    went_positive = (last <= 0.0) & (rate_vec > 0.0)
    moved = np.abs(rate_vec - last) > threshold * last
    changed = is_new | went_positive | ((last > 0.0) & moved)
    np.copyto(last, rate_vec, where=changed)
    pending[changed] = False
    return changed


class TestThresholdMaskReference:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("threshold", [0.0, 0.01, 0.5])
    @pytest.mark.parametrize("block", [16384, 7])
    def test_mask_and_side_effects_equal_the_reference(
            self, seed, threshold, block, monkeypatch):
        # The mask walks the kernels' row-chunk grid; 7 makes 400 rows
        # span many chunks with a ragged tail.
        monkeypatch.setattr("repro.core.kernels.BLOCK_ROWS", block)
        rng = np.random.default_rng(seed)
        n = 400
        # The mask's domain: rates (and so ``last``) are >= 0 or NaN.
        special = np.array([np.nan, 0.0, -0.0, 1e-300, 5e-324, np.inf])
        last = np.where(rng.random(n) < 0.3, rng.choice(special, n),
                        rng.random(n) * 10)
        nudge = 1 + threshold * rng.choice([0.0, 0.5, 1.0, 1.5, -1.5], n)
        rates = np.where(rng.random(n) < 0.2,
                         rng.choice([0.0, np.nan, 3.0], n),
                         np.nan_to_num(last, posinf=1.0) * nudge)
        pending = rng.random(n) < 0.1
        want_last, want_pending = last.copy(), pending.copy()
        with np.errstate(invalid="ignore"):  # inf - inf, 0 * inf
            want = reference_update_mask(rates, want_last, want_pending,
                                         threshold)
            got = threshold_update_mask(rates, last, pending, threshold)
        np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(last, want_last)
        np.testing.assert_array_equal(pending, want_pending)

    def test_negative_last_is_outside_the_domain(self):
        """No scheduler emits a negative rate; if ``last`` were
        negative, every call would select the flow (``t*last < 0``),
        where the term-by-term filter asks ``r > 0``."""
        last = np.array([-1.0, -1.0])
        pending = np.zeros(2, dtype=bool)
        changed = threshold_update_mask(np.array([0.0, -1.0]), last,
                                        pending, 0.01)
        assert changed.tolist() == [True, True]

    def test_quiet_call_leaves_columns_untouched(self):
        last = np.array([1.0, 2.0, 0.0])
        pending = np.zeros(3, dtype=bool)
        changed = threshold_update_mask(np.array([1.005, 1.99, 0.0]),
                                        last, pending, 0.01)
        assert not changed.any()
        assert last.tolist() == [1.0, 2.0, 0.0]


def thirteen_step_mask(rate_vec, last, pending, threshold):
    """The vectorized filter before it was cut to ``(|r - s| > t*s) |
    isnan(s) | pending``: thirteen steps, spelled as they ran."""
    changed = np.isnan(last)
    changed |= pending
    drift = rate_vec - last
    np.abs(drift, out=drift)
    moved = drift > threshold * last
    positive = last > 0.0
    moved &= positive
    changed |= moved
    np.logical_not(positive, out=positive)
    positive &= rate_vec > 0.0
    changed |= positive
    if changed.any():
        np.copyto(last, rate_vec, where=changed)
        pending &= ~changed
    return changed


#: ``last`` draws: the hostile values plus ordinary positive rates.
LAST_VALUES = st.one_of(
    st.sampled_from([np.nan, 0.0, -0.0, 5e-324, 1e-310, 1e300, np.inf]),
    st.floats(0.0, 1e6, allow_nan=False))
#: Rates are >= 0 or NaN (the mask's documented domain).
RATE_VALUES = st.one_of(st.just(np.nan),
                        st.floats(0.0, allow_nan=False, allow_infinity=True),
                        st.sampled_from([0.0, -0.0, 5e-324]))


class TestThresholdMaskProperty:
    @settings(max_examples=150, deadline=None)
    @given(threshold=st.one_of(
               st.sampled_from([0.0, 0.01, 0.05, 0.5, 0.999]),
               st.floats(0.0, 1.0, exclude_max=True)),
           rows=st.lists(st.tuples(
               LAST_VALUES, RATE_VALUES, st.booleans(),
               st.sampled_from([1.0, 0.0, -1.0, 2.0, -0.5]),
               st.booleans()), min_size=1, max_size=64))
    def test_mask_equals_the_thirteen_step_form(self, threshold, rows):
        last, free, near, band, pending = (np.array(c) for c in zip(*rows))
        last, free = last.astype(np.float64), free.astype(np.float64)
        # ``near`` rows sit on, inside or just outside the band around
        # their last rate; the rest take the freely drawn rate.
        with np.errstate(invalid="ignore", over="ignore"):
            rates = np.where(near & (last >= 0),
                             last * (1.0 + band * threshold), free)
        want_last, want_pending = last.copy(), pending.copy()
        with np.errstate(invalid="ignore"):  # inf - inf, 0 * inf
            want = thirteen_step_mask(rates, want_last, want_pending,
                                      threshold)
            got = threshold_update_mask(rates, last, pending, threshold)
        assert got.tobytes() == want.tobytes()
        assert last.tobytes() == want_last.tobytes()
        assert pending.tobytes() == want_pending.tobytes()


class TestNotificationEdgeCases:
    """The §6.4 threshold filter under churn, driven by exact rates."""

    def test_readded_flow_with_same_rate_is_renotified(self):
        allocator, opt = make_scripted(threshold=0.5)
        opt.rates["a"] = 1.0
        allocator.flowlet_start("a", [0])
        allocator.iterate(1)
        assert allocator.iterate(1).updates == []   # steady state
        allocator.flowlet_end("a")
        allocator.flowlet_start("a", [0])           # same id, same rate
        result = allocator.iterate(1)
        assert [u.flow_id for u in result.updates] == ["a"]

    def test_zero_to_positive_transition_notified(self):
        allocator, opt = make_scripted(threshold=0.5)
        opt.rates["a"] = 0.0
        allocator.flowlet_start("a", [0])
        result = allocator.iterate(1)
        assert [u.rate for u in result.updates] == [0.0]
        assert allocator.iterate(1).updates == []
        # A relative threshold can never fire from last=0; the
        # explicit zero->positive rule must.
        opt.rates["a"] = 1e-6
        result = allocator.iterate(1)
        assert [u.flow_id for u in result.updates] == ["a"]
        assert allocator.current_rates()["a"] == 1e-6

    def test_within_threshold_move_suppressed(self):
        allocator, opt = make_scripted(threshold=0.5)
        opt.rates["a"] = 1.0
        allocator.flowlet_start("a", [0])
        allocator.iterate(1)
        opt.rates["a"] = 1.4                        # +40% < 50%
        assert allocator.iterate(1).updates == []
        opt.rates["a"] = 2.2                        # beyond 50% of 1.0
        assert [u.rate for u in allocator.iterate(1).updates] == [2.2]

    def test_zero_threshold_unchanged_rate_not_renotified(self):
        allocator, opt = make_scripted(threshold=0.0)
        opt.rates["a"] = 2.0
        allocator.flowlet_start("a", [0])
        allocator.iterate(1)
        assert allocator.iterate(1).updates == []   # identical rate
        opt.rates["a"] = 2.0 + 1e-12                # any move notifies
        assert len(allocator.iterate(1).updates) == 1

    def test_last_sent_alignment_survives_swap_remove(self):
        allocator, opt = make_scripted(threshold=0.5)
        for fid, rate in zip("abcd", (1.0, 2.0, 3.0, 4.0)):
            opt.rates[fid] = rate
            allocator.flowlet_start(fid, [0])
        allocator.iterate(1)
        # Removing "b" swap-moves "d" into its slot; every survivor's
        # last_sent must move with it, so unchanged rates stay silent.
        allocator.flowlet_end("b")
        assert allocator.iterate(1).updates == []
        assert allocator.current_rates() == {"a": 1.0, "c": 3.0, "d": 4.0}
        opt.rates["d"] = 40.0
        result = allocator.iterate(1)
        assert [u.flow_id for u in result.updates] == ["d"]

    def test_update_indices_align_with_flow_ids(self):
        allocator, opt = make_scripted(threshold=0.5)
        for fid in "abc":
            allocator.flowlet_start(fid, [0])
        result = allocator.iterate(1)
        assert [result.flow_ids[i] for i in result.update_indices] == \
            [u.flow_id for u in result.updates]

    def test_apply_churn_restarts_id_in_both_lists(self):
        allocator, opt = make_scripted(threshold=0.5)
        opt.rates["a"] = 1.0
        allocator.apply_churn(starts=[("a", [0])])
        allocator.iterate(1)
        assert allocator.iterate(1).updates == []
        allocator.apply_churn(starts=[("a", [1])], ends=["a"])
        result = allocator.iterate(1)
        assert [u.flow_id for u in result.updates] == ["a"]
        assert list(allocator.table.route_of("a")) == [1]

    def test_apply_churn_batch_matches_sequential(self):
        """Batched churn must land in the same positional order (and
        therefore the same rates) as the per-event calls it replaces."""
        batched = make_allocator()
        sequential = make_allocator()
        for i in range(8):
            batched.flowlet_start(i, [i % 2])
            sequential.flowlet_start(i, [i % 2])
        batched.iterate(3)
        sequential.iterate(3)
        sequential.flowlet_end(2)
        sequential.flowlet_end(5)
        for i in (8, 9):
            sequential.flowlet_start(i, [i % 2])
        batched.apply_churn(starts=[(8, [0]), (9, [1])], ends=[2, 5])
        r_batched = batched.iterate(2)
        r_sequential = sequential.iterate(2)
        assert r_batched.flow_ids == r_sequential.flow_ids
        assert np.array_equal(np.asarray(r_batched.rate_vector),
                              np.asarray(r_sequential.rate_vector))


class TestConfigurability:
    def test_custom_optimizer(self):
        allocator = make_allocator(
            optimizer_cls=partial(GradientOptimizer, gamma=0.01))
        allocator.flowlet_start("a", [0])
        rates = [allocator.iterate(200).rates["a"] for _ in range(3)]
        assert rates[-1] == pytest.approx(9.9, rel=0.05)

    @pytest.mark.parametrize("optimizer_cls", [
        GradientOptimizer, GradientRtOptimizer, NewtonLikeOptimizer])
    def test_optimizer_keeps_its_own_gamma(self, optimizer_cls):
        """With no ``gamma=``, the allocator sets none: each algorithm
        runs at its own default step size, not NED's."""
        allocator = make_allocator(optimizer_cls=optimizer_cls)
        own = optimizer_cls(FlowTable(LinkSet([1.0])))
        assert allocator.optimizer.gamma == own.gamma
        assert make_allocator(optimizer_cls=optimizer_cls,
                              gamma=0.25).optimizer.gamma == 0.25

    def test_gamma_for_an_optimizer_without_one_raises(self):
        with pytest.raises(TypeError, match="gamma"):
            make_allocator(optimizer_cls=FgmOptimizer, gamma=0.4)

    def test_custom_normalizer(self):
        allocator = make_allocator(normalizer=NullNormalizer())
        assert allocator.normalizer.name == "none"

    def test_u_norm_keeps_relative_rates(self):
        allocator = FlowtuneAllocator(LinkSet([10.0]),
                                      normalizer=UNormalizer(),
                                      update_threshold=0.0)
        allocator.flowlet_start("light", [0], weight=1.0)
        allocator.flowlet_start("heavy", [0], weight=3.0)
        result = allocator.iterate(200)
        assert result.rates["heavy"] == pytest.approx(
            3 * result.rates["light"], rel=1e-3)

    def test_feasible_after_normalization(self):
        allocator = make_allocator(update_threshold=0.01)
        for i in range(9):
            allocator.flowlet_start(i, [i % 2])
        result = allocator.iterate(5)
        load = allocator.table.link_totals(np.asarray(result.rate_vector))
        assert np.all(load <= allocator.full_links.capacity + 1e-9)


class TestAllocationResultLaziness:
    """iterate() must not rebuild the id list; the result renders ids
    lazily from the table's positionally-cached column."""

    def make_allocator(self, n=30):
        links = LinkSet(np.full(8, 10.0))
        allocator = FlowtuneAllocator(links, update_threshold=0.01)
        allocator.apply_churn(starts=[(("f", i), [i % 8])
                                      for i in range(n)])
        return allocator

    def test_flow_ids_materializes_as_a_stable_list(self):
        allocator = self.make_allocator()
        result = allocator.iterate()
        ids = result.flow_ids
        assert isinstance(ids, list)
        assert ids == [("f", i) for i in range(30)]
        assert result.flow_ids is ids  # cached, not rebuilt

    def test_updates_and_rates_follow_positional_order_under_churn(self):
        allocator = self.make_allocator()
        allocator.iterate()
        # Swap-removes scramble positions; the rendered ids must track.
        allocator.apply_churn(ends=[("f", 0), ("f", 13)],
                              starts=[(("f", 50), [2], 2.0)])
        result = allocator.iterate()
        assert set(result.rates) == \
            {("f", i) for i in range(1, 30) if i != 13} | {("f", 50)}
        for update in result.updates:
            assert result.rates[update.flow_id] == \
                pytest.approx(update.rate)
        # the new flow is always notified
        assert ("f", 50) in {u.flow_id for u in result.updates}

    def test_result_consumed_within_the_tick_is_consistent(self):
        """The documented contract: materialize what you need before
        the next churn batch (as every driver in-repo does)."""
        allocator = self.make_allocator(n=5)
        result = allocator.iterate()
        updates = result.updates     # materialized now
        ids = result.flow_ids
        allocator.apply_churn(ends=[("f", 0)])
        assert ids == [("f", i) for i in range(5)]
        assert len(updates) == 5


class TestGroupByOwner:
    def test_groups_in_first_appearance_order_keeping_entry_order(self):
        owners = [7, 2, 7, 9, 2, 7]
        ids = np.array(["a", "b", "c", "d", "e", "f"], dtype=object)
        rates = np.arange(6.0)
        groups = [(int(owner), batch.tolist(), sent.tolist())
                  for owner, batch, sent in group_by_owner(owners, ids,
                                                           rates)]
        assert groups == [(7, ["a", "c", "f"], [0.0, 2.0, 5.0]),
                          (2, ["b", "e"], [1.0, 4.0]),
                          (9, ["d"], [3.0])]

    def test_no_updates_no_groups(self):
        assert list(group_by_owner([], np.zeros(0))) == []
