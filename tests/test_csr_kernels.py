"""Hop-major route kernels vs a padded reference, bitwise.

The NUM kernels (``price_sums`` / ``link_totals`` / ``link_totals2`` /
``max_link_value``) run on the flow table's hop-major route storage,
which is only as wide as the longest route the table has held, each
route middle-aligned.  These tests pin the contract that makes that
layout safe:

* every kernel matches a naive reference over the routes re-laid
  middle-aligned in ``max_route_len`` columns **bitwise**: per-flow
  folds left to right over the columns, scatters in the canonical
  chunk → column → flow order, spelled as scalar loops (pads
  contribute +0.0 / the dropped pad bin / ``-inf``, all bitwise
  no-ops), so the result cannot depend on the storage width;
* above one chunk, the kernels in :mod:`repro.core.kernels` match
  that reference **bitwise** on random routes whose links span
  columns (``BLOCK_ROWS`` is monkeypatched small so a few hundred
  flows span many chunks), on the calling thread and nowhere else,
  and the process backend's workers stay bitwise-aligned with the
  simulated engine there;
* on the shipped fabrics every link occupies one storage column, the
  premise under which the canonical order equals the flow-major one;
* that holds under arbitrary churn — batched adds/removes,
  swap-remove holes, hop-count mixing, storage regrowth, widening
  mid-churn, capacity refresh — and every public mutator bumps
  ``version``, which the optimizers' per-flow caches are keyed on.
"""

import os
import sys
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (AlphaFairUtility, FlowTable, FlowtuneAllocator,
                        LinkSet, NedOptimizer, NedRtOptimizer,
                        NullNormalizer, UNormalizer,
                        threshold_update_mask)
from repro.core import kernels
from repro.core.normalization import FNormalizer, f_norm
from repro.core.utility import MIN_PRICE_SUM
from repro.topology import ThreeTierClos, TwoTierClos, paper_topology


# ----------------------------------------------------------------------
# padded reference kernels (scalar loops in the canonical order)
# ----------------------------------------------------------------------
def ref_fold_rows(fold, gathered):
    """Left-to-right column fold of a gathered ``(width, n)`` block."""
    out = gathered[0].copy()
    for hop in range(1, len(gathered)):
        fold(out, gathered[hop], out=out)
    return out


def padded_routes(table):
    """The table's routes re-laid hop-major in ``max_route_len``
    columns, middle-aligned, from each flow's unpadded route."""
    width = table.max_route_len
    out = np.full((width, table.n_flows), table.pad_link)
    for flow, (_, route, _) in enumerate(
            table.starts_of(table.flow_ids())):
        left = -(-len(route) // 2)
        out[:left, flow] = route[:left]
        out[width - (len(route) - left):, flow] = route[left:]
    return out


def ref_price_sums(table, prices):
    if table.n_flows == 0:
        return np.zeros(0)
    return ref_fold_rows(np.add, table.pad(prices)[padded_routes(table)])


def c_add(acc, v):
    """``acc + v`` as the C loops compute it: IEEE addition, and the
    running sum's NaN when both operands are NaN (what x86-64 answers
    for ``acc + v`` in source order).  Python's and numpy's ``+`` leave
    that case to their own compiled operand order, which the
    interpreter's specialized and profiled paths do not share, so the
    reference never adds two NaNs."""
    return acc if acc != acc else acc + v


def ref_chunked_totals(values, routes, n, minlength, block):
    """The canonical reduction, spelled as scalar loops: per
    ``block``-flow chunk, one running sum per link through the hop
    columns in order, flows in order within a column; chunk partials
    added in chunk order."""
    total = [0.0] * minlength
    for r0 in range(0, n, block):
        chunk = [0.0] * minlength
        for column in routes:
            for row in range(r0, min(n, r0 + block)):
                link = column[row]
                chunk[link] = c_add(chunk[link], float(values[row]))
        total = [c_add(a, b) for a, b in zip(total, chunk)]
    return np.array(total)


def plant_nan_pair(values, routes, n, block, n_links):
    """Set ``+nan`` then ``-nan`` on two flows of one chunk whose routes
    first meet link ``l`` in the same hop column, so the running sum of
    ``l`` meets the ``+nan`` first; returns ``l``."""
    for r0 in range(0, n, block):
        rows = range(r0, min(n, r0 + block))
        for c, column in enumerate(routes):
            first = {}
            for row in rows:
                link = int(column[row])
                if link == n_links or link in routes[:c, row]:
                    continue
                if link in first:
                    values[first[link]], values[row] = np.nan, -np.nan
                    return link
                first[link] = row
    raise AssertionError("no two flows meet on one link")


def hostile_values(kind, rng, n):
    """Per-flow scatter weights: ``uniform`` in [0, 1); ``wide`` mixes
    signed zeros, subnormals and magnitudes from 1e-300 to 1e300 of both
    signs, so sums round (and overflow) differently in another order;
    ``special`` is uniform with a few infinities and NaNs, whose sign
    and payload a reordered or mixed-up sum would change."""
    values = rng.random(n)
    if kind == "wide":
        values *= 10.0 ** rng.integers(-300, 301, n)
        values[rng.random(n) < 0.5] *= -1.0
        odd = rng.random(n) < 0.2
        values[odd] = rng.choice(
            [0.0, -0.0, 5e-324, -5e-324, 2.5e-308, -1e-310, 1e300,
             -1e300, 1e-300], odd.sum())
    elif kind == "special":
        odd = rng.random(n) < 0.01
        values[odd] = rng.choice([np.inf, -np.inf, np.nan, -np.nan],
                                 odd.sum())
    return values


def ref_link_totals(table, per_flow):
    n_links = table.links.n_links
    if table.n_flows == 0:
        return np.zeros(n_links)
    return ref_chunked_totals(
        np.asarray(per_flow, dtype=np.float64), padded_routes(table),
        table.n_flows, n_links + 1, kernels.BLOCK_ROWS)[:-1]


def ref_max_link_value(table, per_link):
    if table.n_flows == 0:
        return np.zeros(0)
    return ref_fold_rows(
        np.maximum,
        table.pad(per_link, pad_value=-np.inf)[padded_routes(table)])


def assert_kernels_match(table, rng):
    """All four kernels bitwise-equal their padded references."""
    prices = rng.random(table.links.n_links)
    per_flow = rng.random(table.n_flows)
    per_link = rng.random(table.links.n_links)
    want_prices = ref_price_sums(table, prices)
    want_totals = ref_link_totals(table, per_flow)
    want_totals_b = ref_link_totals(table, 2.0 * per_flow)
    want_max = ref_max_link_value(table, per_link)
    np.testing.assert_array_equal(table.price_sums(prices), want_prices)
    np.testing.assert_array_equal(table.link_totals(per_flow),
                                  want_totals)
    np.testing.assert_array_equal(table.max_link_value(per_link),
                                  want_max)
    totals_a, totals_b = table.link_totals2(per_flow, 2.0 * per_flow)
    np.testing.assert_array_equal(totals_a, want_totals)
    np.testing.assert_array_equal(totals_b, want_totals_b)


# ----------------------------------------------------------------------
# property: arbitrary churn programs keep kernels == padded, bitwise
# ----------------------------------------------------------------------
class TestCsrPaddedEquivalence:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_churn_programs(self, data):
        n_links = data.draw(st.integers(2, 10), label="n_links")
        max_len = data.draw(st.integers(1, 8), label="max_route_len")
        seed = data.draw(st.integers(0, 2**31), label="seed")
        rng = np.random.default_rng(seed)
        table = FlowTable(LinkSet(rng.random(n_links) * 10 + 0.1),
                          max_route_len=max_len)
        alive = []
        next_id = 0
        n_steps = data.draw(st.integers(1, 10), label="n_steps")
        for _ in range(n_steps):
            op = data.draw(st.sampled_from(
                ["batch", "add", "remove", "remove_many", "refresh",
                 "grow"]))
            if op == "batch":
                k = int(rng.integers(1, 30))
                starts = []
                for _ in range(k):
                    # Bias toward max-length routes so the widest slot
                    # (and W == max_route_len) is routinely exercised.
                    length = max_len if rng.random() < 0.4 else \
                        int(rng.integers(1, max_len + 1))
                    starts.append((next_id,
                                   rng.integers(0, n_links, length),
                                   float(rng.random() + 0.1)))
                    alive.append(next_id)
                    next_id += 1
                ends = []
                while alive[:-k] and rng.random() < 0.4:
                    ends.append(alive.pop(0))
                table.apply_churn(starts=starts, ends=ends)
            elif op == "add":
                length = int(rng.integers(1, max_len + 1))
                table.add_flow(next_id, rng.integers(0, n_links, length))
                alive.append(next_id)
                next_id += 1
            elif op == "remove" and alive:
                table.remove_flow(
                    alive.pop(int(rng.integers(len(alive)))))
            elif op == "remove_many" and alive:
                k = int(rng.integers(1, len(alive) + 1))
                victims = [alive.pop(int(rng.integers(len(alive))))
                           for _ in range(k)]
                table.remove_flows(victims)
            elif op == "refresh":
                table.links.capacity[:] = rng.random(n_links) * 10 + 0.1
                table.refresh_capacity()
            elif op == "grow":
                # Force at least one storage regrowth (full rebuild).
                table.reserve(len(table._weights) + 1)
            # Read between most mutations so every intermediate state
            # (not just the final one) is what gets verified.
            if rng.random() < 0.8:
                assert_kernels_match(table, rng)
        assert_kernels_match(table, rng)

    def test_max_length_routes_only(self):
        rng = np.random.default_rng(7)
        table = FlowTable(LinkSet(np.full(12, 10.0)), max_route_len=8)
        table.apply_churn(starts=[
            (i, rng.integers(0, 12, 8)) for i in range(50)])
        assert_kernels_match(table, rng)
        table.remove_flows(list(range(0, 50, 3)))
        assert_kernels_match(table, rng)

    def test_mixed_hop_counts_under_swap_remove(self):
        """Swap-remove drags different-length tail rows into holes —
        the exact pattern that forces slot rewrites."""
        rng = np.random.default_rng(11)
        table = FlowTable(LinkSet(np.full(20, 10.0)), max_route_len=8)
        next_id = 0
        table.apply_churn(starts=[
            (next_id + i, rng.integers(0, 20, 2 if i % 2 else 4))
            for i in range(200)])
        next_id += 200
        assert_kernels_match(table, rng)
        for round_no in range(5):
            ends = [next_id - 200 + j for j in range(20)]
            starts = [(next_id + j,
                       rng.integers(0, 20, 4 if j % 3 else 2))
                      for j in range(20)]
            table.apply_churn(starts=starts, ends=ends)
            next_id += 20
            assert_kernels_match(table, rng)

    def test_empty_table_kernels_shapes(self):
        table = FlowTable(LinkSet(np.full(5, 1.0)))
        assert table.price_sums(np.zeros(5)).shape == (0,)
        assert table.max_link_value(np.zeros(5)).shape == (0,)
        totals_a, totals_b = table.link_totals2(np.array([]),
                                                np.array([]))
        assert totals_a.shape == (5,) and totals_b.shape == (5,)


# ----------------------------------------------------------------------
# the canonical chunk grid
# ----------------------------------------------------------------------
class TestChunkSpans:
    def test_covers_every_row_once(self, monkeypatch):
        monkeypatch.setattr(kernels, "BLOCK_ROWS", 7)
        spans = kernels.chunk_spans(40)
        assert spans[0][0] == 0 and spans[-1][1] == 40
        for (a0, a1), (b0, b1) in zip(spans, spans[1:]):
            assert a1 == b0 and a0 < a1
        assert all(r0 % 7 == 0 for r0, _ in spans)

    def test_small_n_is_one_span(self):
        assert kernels.chunk_spans(100) == [(0, 100)]

    def test_empty(self):
        assert kernels.chunk_spans(0) == []


# ----------------------------------------------------------------------
# multi-chunk: kernels == naive chunked reference, bitwise
# ----------------------------------------------------------------------
class TestMultiChunkBitwise:
    """With BLOCK_ROWS shrunk, a few hundred rows span many chunks —
    the regime where the partial-fold order decides the last bit."""

    BLOCK = 7

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(kernels, "BLOCK_ROWS", self.BLOCK)

    def case(self, seed=3, n=500, width=3, n_links=64):
        """Random hop-major routes: every link shows up in every
        column, the case where the column order decides the bits."""
        rng = np.random.default_rng(seed)
        # Spare capacity past n, like the table's storage.
        routes = rng.integers(0, n_links + 1, size=(width, n + 5))
        padded = np.append(rng.random(n_links), 0.0)
        values_a = rng.random(n)
        values_b = rng.random(n)
        return routes, padded, values_a, values_b, n, width, n_links

    def test_all_kernels_match_chunked_reference(self):
        routes, padded, va, vb, n, _, n_links = self.case()
        gathered = padded[routes[:, :n]]
        np.testing.assert_array_equal(
            kernels.price_sums(padded, routes, n),
            ref_fold_rows(np.add, gathered))
        np.testing.assert_array_equal(
            kernels.max_link_value(padded, routes, n, np.empty(n)),
            ref_fold_rows(np.maximum, gathered))
        np.testing.assert_array_equal(
            kernels.min_link_value(padded, routes, n, np.empty(n)),
            ref_fold_rows(np.minimum, gathered))
        want_a = ref_chunked_totals(va, routes, n, n_links + 1, self.BLOCK)
        want_b = ref_chunked_totals(vb, routes, n, n_links + 1, self.BLOCK)
        np.testing.assert_array_equal(
            kernels.link_totals(va, routes, n, n_links + 1), want_a)
        got_a, got_b = kernels.link_totals2(va, vb, routes, n, n_links + 1)
        assert got_a.tobytes() == want_a.tobytes()
        assert got_b.tobytes() == want_b.tobytes()
        # The chunk grid is load-bearing: a single whole-table pass
        # rounds differently somewhere on this input...
        one_pass = ref_chunked_totals(va, routes, n, n_links + 1, n)
        assert np.any(want_a != one_pass)
        # ...and so is the column order once links span columns: one
        # flow-major pass (flow -> hop) rounds differently again.
        assert np.any(one_pass != np.bincount(
            routes[:, :n].T.reshape(-1), weights=np.repeat(va, len(routes)),
            minlength=n_links + 1))

    @pytest.mark.parametrize("kind",
                             ["uniform", "wide", "special", "nan_pair"])
    @pytest.mark.parametrize("block", [BLOCK, 10**6])
    def test_scatter_paths_agree(self, monkeypatch, block, kind):
        """The single scatter, the pair scatter and the scalar
        reference keep the same running sums, over many chunks and in
        one, down to the sign of a zero and the payload of a NaN —
        also where a ``+nan`` and a ``-nan`` meet on one link."""
        monkeypatch.setattr(kernels, "BLOCK_ROWS", block)
        routes, _, _, _, n, _, n_links = self.case(width=5)
        rng = np.random.default_rng(block % 97)
        if kind == "nan_pair":
            va, vb = rng.random(n), rng.random(n)
            link = plant_nan_pair(va, routes, n, block, n_links)
            want_a = ref_chunked_totals(va, routes, n, n_links + 1, block)
            assert np.isnan(want_a[link]) and not np.signbit(want_a[link])
            # The reference reads the same under a profile hook, the
            # path benchmarks/results/reach.py runs tier-1 on.
            previous = sys.getprofile()
            sys.setprofile(lambda *args: None)
            try:
                profiled = ref_chunked_totals(va, routes, n, n_links + 1,
                                              block)
            finally:
                sys.setprofile(previous)
            assert profiled.tobytes() == want_a.tobytes()
        else:
            va = hostile_values(kind, rng, n)
            vb = hostile_values(kind, rng, n)
        want_a = ref_chunked_totals(va, routes, n, n_links + 1, block)
        want_b = ref_chunked_totals(vb, routes, n, n_links + 1, block)
        one_a = kernels.link_totals(va, routes, n, n_links + 1)
        one_b = kernels.link_totals(vb, routes, n, n_links + 1)
        got_a, got_b = kernels.link_totals2(va, vb, routes, n, n_links + 1)
        for got, one, want in ((got_a, one_a, want_a),
                               (got_b, one_b, want_b)):
            assert got.dtype == np.float64 and got.flags.c_contiguous
            assert got.tobytes() == one.tobytes() == want.tobytes()

    #: ``(pass, variant)``: NED with and without caps; F-NORM with and
    #: without scale-up, with no mask or the mask at threshold 0 / 0.01;
    #: the mask alone (what ``threshold_update_mask`` runs).
    PASS_CASES = [("ned", True), ("ned", False),
                  ("f_norm", (True, None)), ("f_norm", (False, None)),
                  ("f_norm", (True, 0.0)), ("f_norm", (False, 0.0)),
                  ("f_norm", (True, 0.01)), ("f_norm", (False, 0.01)),
                  ("mask", 0.0), ("mask", 0.01)]
    HOSTILE = [0.0, -0.0, 5e-324, -5e-324, 2.5e-308, np.inf, -np.inf,
               np.nan, -np.nan, 1e-300, 1e300]

    def hostile(self, rng, size, share=0.3):
        """Uniform values with a ``share`` drawn from :data:`HOSTILE`."""
        values = rng.random(size) * 10.0
        odd = rng.random(size) < share
        values[odd] = rng.choice(self.HOSTILE, odd.sum())
        return values

    @pytest.mark.parametrize("block", [BLOCK, 10**6])
    @pytest.mark.parametrize("which,variant", PASS_CASES)
    def test_passes_match_their_numpy_spelling(self, monkeypatch, block,
                                               which, variant):
        """Each compiled pass, element for element, equals the numpy
        ufuncs it replaced, by ``tobytes()``: signed zeros, subnormals,
        infinities and NaNs in the price sums, caps, ratios, rates and
        ``last``, with ``last`` also 0 or equal to the new rate, and
        ``pending`` rows, over many chunks and in one."""
        monkeypatch.setattr(kernels, "BLOCK_ROWS", block)
        routes, _, _, _, n, _, n_links = self.case(width=4)
        rng = np.random.default_rng(block % 89 + len(str(variant)))
        with np.errstate(all="ignore"):
            if which == "ned":
                padded = np.append(self.hostile(rng, n_links), 0.0)
                caps = self.hostile(rng, n) if variant else None
                weights = self.hostile(rng, n, share=0.1)
                # The folds and scatters are pinned above; here they
                # feed and take the numpy spelling.  (Neither np.add nor
                # Python's float add fixes which sign a sum of two
                # unequal NaNs takes: np.add's SIMD body and tail loop
                # differ, and so do the interpreter's specialized and
                # traced paths.)
                rho = kernels.price_sums(padded, routes, n)
                if caps is not None:
                    np.maximum(rho, caps, out=rho)
                np.maximum(rho, MIN_PRICE_SUM, out=rho)
                want = np.divide(weights, rho)
                deriv = np.negative(np.divide(weights, rho * rho))
                want_load, want_hessian = kernels.link_totals2(
                    want, deriv, routes, n, n_links + 1)
                got = np.empty(n)
                load, hessian = kernels.log_rate_pass(
                    padded, routes, n, caps, weights, got)
                assert load.tobytes() == want_load.tobytes()
                assert hessian.tobytes() == want_hessian.tobytes()
                assert got.tobytes() == want.tobytes()
                return
            if which == "f_norm":
                scale_up, threshold = variant
                padded = np.append(self.hostile(rng, n_links), -np.inf)
                rates = self.hostile(rng, n)
                worst = kernels.max_link_value(padded, routes, n,
                                               np.empty(n))
                np.maximum(worst, 1e-12, out=worst)
                if not scale_up:
                    np.maximum(worst, 1.0, out=worst)
                want = np.divide(rates, worst)
            else:
                scale_up, threshold = True, variant
                want = self.hostile(rng, n)
            # last: hostile, 0, equal to the new rate, or near it.
            last = self.hostile(rng, n)
            pick = rng.integers(0, 4, n)
            last[pick == 1] = 0.0
            last[pick == 2] = want[pick == 2]
            last[pick == 3] = want[pick == 3] * (1.0 + 0.005)
            pending = rng.random(n) < 0.2
            changed = np.empty(n, dtype=bool)
            mask = (last.copy(), pending.copy(), threshold, changed)
            if which == "mask":
                got = want
                kernels.threshold_mask(want, *mask)
            else:
                got = kernels.f_norm_pass(
                    padded, routes, n, rates, 1e-12, scale_up,
                    mask if threshold is not None else None)
            assert got.tobytes() == want.tobytes()
            if threshold is None:
                return
            # The numpy mask, spelled as it ran per chunk.
            flag = np.greater(np.abs(np.subtract(want, last)),
                              threshold * last)
            flag |= np.isnan(last)
            flag |= pending
            np.copyto(last, want, where=flag)
            assert changed.tobytes() == flag.tobytes()
            assert mask[0].tobytes() == last.tobytes()
            assert not mask[1].any()

    def test_min_link_value_matches_reference(self):
        rng = np.random.default_rng(9)
        n, width, n_links = 200, 4, 32
        routes = rng.integers(0, n_links + 1, size=(width, n))
        padded = np.append(rng.random(n_links), np.inf)
        got = kernels.min_link_value(padded, routes, n, np.empty(n))
        np.testing.assert_array_equal(
            got, ref_fold_rows(np.minimum, padded[routes]))

    @pytest.mark.parametrize("bad", [65, 70, 10**6, -1, -66])
    @pytest.mark.parametrize("block", [BLOCK, 10**6])
    def test_gathers_reject_an_out_of_range_slot(self, monkeypatch, bad,
                                                 block):
        """Every kernel bounds-checks every slot, over many chunks and
        in one: a slot index past the pad entry / the last bin, or
        negative, raises ``IndexError``, never reads or grows the
        output."""
        monkeypatch.setattr(kernels, "BLOCK_ROWS", block)
        routes, padded, va, vb, n, width, n_links = self.case()
        assert len(padded) == n_links + 1 == 65
        routes[width - 1, n - 2] = bad   # last column, last chunk
        mask = (np.full(n, np.nan), np.zeros(n, dtype=bool), 0.01,
                np.empty(n, dtype=bool))
        calls = {
            "price_sums": lambda: kernels.price_sums(padded, routes, n),
            "max_link_value": lambda: kernels.max_link_value(
                padded, routes, n, np.empty(n)),
            "min_link_value": lambda: kernels.min_link_value(
                padded, routes, n, np.empty(n)),
            "link_totals": lambda: kernels.link_totals(
                va, routes, n, n_links + 1),
            "link_totals2": lambda: kernels.link_totals2(
                va, vb, routes, n, n_links + 1),
            "log_rate_pass": lambda: kernels.log_rate_pass(
                padded, routes, n, vb, va, np.empty(n)),
            "f_norm_pass": lambda: kernels.f_norm_pass(
                padded, routes, n, va, 1e-12, True, mask),
        }
        for name, call in calls.items():
            with pytest.raises(IndexError):
                call()
                pytest.fail(name)

    @pytest.mark.parametrize("block", [BLOCK, 10**6])
    def test_passes_reject_a_short_vector(self, monkeypatch, block):
        """Each per-flow vector a pass reads or writes is checked to
        hold the table's n flows: a short one raises, never reads or
        writes past its end."""
        monkeypatch.setattr(kernels, "BLOCK_ROWS", block)
        routes, padded, va, vb, n, _, _ = self.case()

        def mask(last_len=n, pending_len=n, changed_len=n):
            return (np.full(last_len, np.nan),
                    np.zeros(pending_len, dtype=bool), 0.01,
                    np.empty(changed_len, dtype=bool))

        calls = {
            "short weights": lambda: kernels.log_rate_pass(
                padded, routes, n, vb, va[:-1], np.empty(n)),
            "short caps": lambda: kernels.log_rate_pass(
                padded, routes, n, vb[:-1], va, np.empty(n)),
            "short rates out": lambda: kernels.log_rate_pass(
                padded, routes, n, None, va, np.empty(n - 1)),
            "short rates": lambda: kernels.f_norm_pass(
                padded, routes, n, va[:-1], 1e-12, True),
            "short last": lambda: kernels.f_norm_pass(
                padded, routes, n, va, 1e-12, True, mask(last_len=n - 1)),
            "short pending": lambda: kernels.f_norm_pass(
                padded, routes, n, va, 1e-12, False,
                mask(pending_len=n - 1)),
            "short changed": lambda: kernels.f_norm_pass(
                padded, routes, n, va, 1e-12, True,
                mask(changed_len=n - 1)),
            "n past the storage": lambda: kernels.f_norm_pass(
                padded, routes, routes.shape[1] + 1,
                np.empty(routes.shape[1] + 1), 1e-12, True),
            "short mask last": lambda: kernels.threshold_mask(
                va, *mask(last_len=n - 1)[:2], 0.01, np.empty(n, bool)),
        }
        for name, call in calls.items():
            with pytest.raises(ValueError):
                call()
                pytest.fail(name)

    def test_one_slot_per_row(self):
        """Width 1 (a fresh table, single-hop routes): the fold
        has no second column to start from."""
        routes, padded, va, _, n, _, n_links = self.case(width=1)
        np.testing.assert_array_equal(
            kernels.price_sums(padded, routes, n), padded[routes[0, :n]])
        np.testing.assert_array_equal(
            kernels.max_link_value(padded, routes, n, np.empty(n)),
            padded[routes[0, :n]])
        np.testing.assert_array_equal(
            kernels.link_totals(va, routes, n, n_links + 1),
            ref_chunked_totals(va, routes, n, n_links + 1, self.BLOCK))

    def test_kernels_leave_no_thread(self):
        """A multi-chunk table runs every kernel without leaving a
        thread behind: the compiled walks join theirs before they
        return."""
        rng = np.random.default_rng(4)
        table = FlowTable(LinkSet(np.full(12, 10.0)), max_route_len=4)
        before = threading.active_count(), len(os.listdir("/proc/self/task"))
        table.apply_churn(starts=[
            (i, rng.integers(0, 12, int(rng.integers(1, 5))))
            for i in range(10 * self.BLOCK)])
        assert len(kernels.chunk_spans(table.n_flows)) > 1
        assert_kernels_match(table, rng)
        table.refresh_capacity()
        table.bottleneck_capacity()
        assert (threading.active_count(),
                len(os.listdir("/proc/self/task"))) == before

    def test_describe_is_c(self):
        assert kernels.describe() == "c"


# ----------------------------------------------------------------------
# the passes' lanes: two rows per SSE2 register, bit for bit
# ----------------------------------------------------------------------
#: Values that could tell a packed lane from the scalar spelling: NaNs
#: of both signs, signed zeros, each clamp constant itself (a tie),
#: infinities, the smallest subnormal, and values either side of 1.0.
LANE_SPECIAL = [np.nan, -np.nan, 0.0, -0.0, MIN_PRICE_SUM, 1e-12, 1.0,
                -1.0, np.inf, -np.inf, 5e-324, 0.5, 2.0]


def lane_pick(k):
    """The k-th of a walk through :data:`LANE_SPECIAL` that does not
    repeat in step with the 13 x 13 pairings it rides along."""
    return LANE_SPECIAL[(k + k // len(LANE_SPECIAL)) % len(LANE_SPECIAL)]


def in_both_lanes(rows, filler):
    """``rows`` (tuples of one value per input) each placed at an even
    and at an odd index, i.e. in lane 0 and in lane 1 of a chunk that
    starts even, with ``filler`` rows between, plus one last row so
    ``n`` is odd.  Returns one array per input."""
    out = []
    for row in rows:
        out += [row, filler, filler, row]
    out.append(rows[-1])
    return [np.array(column) for column in zip(*out)]


class TestLanes:
    """NED's and F-NORM's per-flow arithmetic, the section 6.4 mask and
    the max fold run two rows at a time, an odd last row on two-row
    copies.  Each hostile value sits in lane 0 and in lane 1, each
    pairing of NaN and non-NaN meets in the cap select and the max fold,
    -0.0 meets each clamp constant, over one odd chunk, even chunks with
    an odd tail and odd chunks (a tail in each), at forced T = 1, 2, 3:
    the bytes equal the numpy spelling's."""

    BLOCKS = (10**6, 8, 7)
    THREADS = (1, 2, 3)

    @staticmethod
    def run_at(t, call):
        kernels._lib._force_threads(t)
        try:
            return call()
        finally:
            kernels._lib._force_threads(0)

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("capped", [True, False])
    def test_ned_lanes(self, monkeypatch, block, capped):
        monkeypatch.setattr(kernels, "BLOCK_ROWS", block)
        rows = [(r, c, lane_pick(k)) for k, (r, c) in enumerate(
            (r, c) for r in LANE_SPECIAL for c in LANE_SPECIAL)]
        rho_in, caps, weights = in_both_lanes(rows, (3.0, 0.25, 1.5))
        n = len(rho_in)
        assert n % 2 and n % block
        # Width-1 routes, one link per flow: the price sum is the price.
        routes = np.arange(n, dtype=np.int64)[None, :]
        padded = np.append(rho_in, 0.0)
        caps = caps if capped else None
        with np.errstate(all="ignore"):
            rho = kernels.price_sums(padded, routes, n)
            assert rho.tobytes() == rho_in.tobytes()
            if caps is not None:
                np.maximum(rho, caps, out=rho)
            np.maximum(rho, MIN_PRICE_SUM, out=rho)
            want = np.divide(weights, rho)
            deriv = np.negative(np.divide(weights, rho * rho))
            want_sums = kernels.link_totals2(want, deriv, routes, n, n + 1)
            for t in self.THREADS:
                got = np.empty(n)
                sums = self.run_at(t, lambda: kernels.log_rate_pass(
                    padded, routes, n, caps, weights, got))
                assert got.tobytes() == want.tobytes(), t
                assert [s.tobytes() for s in sums] == [
                    s.tobytes() for s in want_sums], t

    @pytest.mark.parametrize("block", BLOCKS)
    @pytest.mark.parametrize("scale_up", [True, False])
    def test_f_norm_and_mask_lanes(self, monkeypatch, block, scale_up):
        monkeypatch.setattr(kernels, "BLOCK_ROWS", block)
        rng = np.random.default_rng(block)
        # Two hop columns: the worst ratio is the max fold of a pair.
        rows = [(a, v, lane_pick(k), lane_pick(3 * k + 1))
                for k, (a, v) in enumerate(
                    (a, v) for a in LANE_SPECIAL for v in LANE_SPECIAL)]
        first, second, rates, last = in_both_lanes(rows, (0.5, 2.0, 1.0, 0.9))
        n = len(first)
        assert n % 2 and n % block
        routes = np.stack([np.arange(n), n + np.arange(n)])
        padded = np.concatenate([first, second, [-np.inf]])
        with np.errstate(all="ignore"):
            worst = ref_fold_rows(np.maximum, [first, second])
            assert kernels.max_link_value(padded, routes, n, np.empty(n)
                                          ).tobytes() == worst.tobytes()
            np.maximum(worst, 1e-12, out=worst)
            if not scale_up:
                np.maximum(worst, 1.0, out=worst)
            want = np.divide(rates, worst)
            # last: the hostile values, or equal to the new rate.
            same = rng.random(n) < 0.2
            last[same] = want[same]
            pending = rng.random(n) < 0.3
            for threshold in (0.0, 0.01):
                flag = np.greater(np.abs(np.subtract(want, last)),
                                  threshold * last)
                flag |= np.isnan(last) | pending
                want_last = last.copy()
                np.copyto(want_last, want, where=flag)
                for t in self.THREADS:
                    mask = (last.copy(), pending.copy(), threshold,
                            np.empty(n, dtype=bool))
                    got = self.run_at(t, lambda: kernels.f_norm_pass(
                        padded, routes, n, rates, 1e-12, scale_up, mask))
                    assert got.tobytes() == want.tobytes(), t
                    assert mask[3].tobytes() == flag.tobytes(), t
                    assert mask[0].tobytes() == want_last.tobytes(), t
                    assert not mask[1].any(), t
                    # The mask alone, over the whole odd-length vector.
                    alone = (last.copy(), pending.copy(), threshold,
                             np.empty(n, dtype=bool))
                    kernels.threshold_mask(want, *alone)
                    assert alone[3].tobytes() == flag.tobytes()
                    assert alone[0].tobytes() == want_last.tobytes()

    @pytest.mark.parametrize("bad", [0.0, -0.0, np.nan, -1e-12])
    def test_clamp_constants_must_be_positive(self, bad):
        """A clamp constant is one maxpd only when it is neither NaN
        nor zero, so the passes refuse anything but a positive one."""
        routes, padded = np.zeros((1, 3), dtype=np.int64), np.ones(2)
        rates = np.ones(3)
        with pytest.raises(ValueError, match="min_price_sum"):
            kernels._lib.ned_log_pass(padded, routes, 3, 8, None, rates,
                                      bad, np.empty(3), np.empty(2),
                                      np.empty(2))
        with pytest.raises(ValueError, match="epsilon"):
            kernels._lib.f_norm_pass(padded, routes, 3, 8, rates, bad,
                                     True, np.empty(3), None, None, 0.0,
                                     None)


# ----------------------------------------------------------------------
# staleness: mutation without a version bump must be impossible
# ----------------------------------------------------------------------
class TestCsrStaleness:
    def mutators(self, table, next_id):
        """(label, thunk) for every public route-mutating entry point."""
        return [
            ("add_flow", lambda: table.add_flow(next_id, [0, 1])),
            ("remove_flow", lambda: table.remove_flow(next_id)),
            ("apply_churn", lambda: table.apply_churn(
                starts=[(next_id + 1, [2]), (next_id + 2, [1, 0])])),
            ("remove_flows", lambda: table.remove_flows(
                [next_id + 1, next_id + 2])),
            ("refresh_capacity", lambda: table.refresh_capacity()),
        ]

    def test_every_public_mutator_bumps_version(self):
        rng = np.random.default_rng(3)
        table = FlowTable(LinkSet(np.full(4, 10.0)))
        table.apply_churn(starts=[(i, [i % 4]) for i in range(10)])
        for label, mutate in self.mutators(table, next_id=100):
            before = table.version
            mutate()
            assert table.version > before, label
            # ...and the kernels see the fresh state.
            assert_kernels_match(table, rng)


# ----------------------------------------------------------------------
# widening: the storage grows to the longest route, never narrows
# ----------------------------------------------------------------------
class TestWidening:
    def test_one_hop_table_widens_mid_churn(self):
        """2-hop and then 4-hop starts arrive while 1-hop flows end; at
        every step the kernels equal the max_route_len-padded reference."""
        rng = np.random.default_rng(5)
        table = FlowTable(LinkSet(rng.random(12) * 10 + 0.5),
                          max_route_len=8)
        table.apply_churn(starts=[(i, [i % 12]) for i in range(40)])
        assert table.width == 1
        assert_kernels_match(table, rng)
        steps = ((2, range(100, 110), range(0, 10)),
                 (4, range(200, 210), range(10, 20)))
        for hops, new_ids, ends in steps:
            table.apply_churn(
                starts=[(i, rng.integers(0, 12, hops)) for i in new_ids],
                ends=ends)
            assert table.width == hops
            assert_kernels_match(table, rng)
        # A wider single add widens too; removing every long route
        # leaves the width where it was.
        table.add_flow(300, rng.integers(0, 12, 6))
        assert table.width == 6
        table.remove_flows([300, *range(100, 110), *range(200, 210)])
        assert table.width == 6 and table.hop_counts().max() == 1
        assert_kernels_match(table, rng)

    def test_widening_with_growth_in_one_batch(self):
        """A batch that both overflows capacity and brings a longer
        route: the flows already stored keep their hops, the second
        one moved to the new right edge."""
        rng = np.random.default_rng(6)
        table = FlowTable(LinkSet(np.full(10, 5.0)), max_route_len=4)
        table.apply_churn(starts=[(i, rng.integers(0, 10, 2))
                                  for i in range(60)])
        before = table.routes.copy()
        table.apply_churn(starts=[(100 + i, rng.integers(0, 10, 3))
                                  for i in range(200)])
        assert table.width == 3 and len(table._weights) >= 260
        np.testing.assert_array_equal(table.routes[::2, :60], before)
        assert (table.routes[1, :60] == table.pad_link).all()
        assert_kernels_match(table, rng)

    def test_rejected_route_does_not_widen(self):
        table = FlowTable(LinkSet(np.full(4, 1.0)), max_route_len=3)
        table.add_flow(0, [0])
        with pytest.raises(ValueError, match="4 hops"):
            table.apply_churn(starts=[(1, [0, 1]), (2, [0, 1, 2, 3])])
        with pytest.raises(ValueError, match="unknown link"):
            table.add_flow(3, [0, 1, 9])
        assert table.width == 1 and table.n_flows == 1


# ----------------------------------------------------------------------
# the premise of the bitwise claim: one storage column per link
# ----------------------------------------------------------------------
def assert_one_column_per_link(table):
    """No real link appears in two of the table's hop columns."""
    routes = table.routes
    per_column = [np.unique(col[col != table.pad_link]) for col in routes]
    links = np.concatenate(per_column)
    assert len(links) == len(np.unique(links))
    return per_column


def every_candidate_route(topology):
    return [route
            for src in range(topology.n_hosts)
            for dst in range(topology.n_hosts) if src != dst
            for route in topology.candidate_routes(src, dst)]


class TestOneColumnPerLink:
    """Middle alignment puts every link of the shipped up/down fabrics
    in one storage column, so the kernels' chunk -> column -> flow
    order is the flow order a flow-major layout reduced in.  A
    left-packed layout fails here: a 2-hop route's downlink would share
    column 1 with the 4-hop routes' ToR -> spine links."""

    @pytest.mark.parametrize("make", [paper_topology, ThreeTierClos],
                             ids=["paper", "three_tier"])
    def test_every_candidate_route(self, make):
        topology = make()
        routes = every_candidate_route(topology)
        table = FlowTable(topology.link_set())
        table.apply_churn(starts=list(enumerate(routes)))
        assert table.width == max(map(len, routes))
        per_column = assert_one_column_per_link(table)
        assert sum(map(len, per_column)) == table.links.n_links
        # Host uplinks in the first column, downlinks in the last.
        n_hosts = topology.n_hosts
        np.testing.assert_array_equal(per_column[0], np.arange(n_hosts))
        np.testing.assert_array_equal(per_column[-1],
                                      n_hosts + np.arange(n_hosts))

    def test_three_tier_widening_equals_table_built_wide(self, monkeypatch):
        """2-hop, then 4-hop, then 6-hop starts widen a table mid-churn
        (2 -> 4 -> 6 columns); at every step it equals, with ``==``, a
        table that was 6 columns wide from the start and took the same
        churn: the same kernel bits on every step, the same storage at
        the end, and one column per link throughout.  Multi-chunk."""
        monkeypatch.setattr(kernels, "BLOCK_ROWS", 7)
        topology = ThreeTierClos()
        rng = np.random.default_rng(8)
        by_hops = {2: [], 4: [], 6: []}
        for route in every_candidate_route(topology):
            by_hops[len(route)].append(route)
        widened = FlowTable(topology.link_set())
        wide = FlowTable(topology.link_set())
        wide.add_flow("widest", by_hops[6][0])
        wide.remove_flow("widest")
        assert wide.width == 6
        alive, next_id = [], 0
        for hops in (2, 4, 6):
            pool = [r for h in by_hops if h <= hops for r in by_hops[h]]
            starts = [(next_id + j, pool[int(rng.integers(len(pool)))])
                      for j in range(40)]
            next_id += len(starts)
            ends = [alive.pop(int(rng.integers(len(alive))))
                    for _ in range(len(alive) // 3)]
            alive += [flow_id for flow_id, _ in starts]
            for table in (widened, wide):
                table.apply_churn(starts=starts, ends=ends)
                assert_one_column_per_link(table)
            assert widened.width == hops
            assert widened.flow_ids() == wide.flow_ids()
            prices = rng.random(wide.links.n_links)
            per_flow = rng.random(len(alive))
            for name, args in (("price_sums", (prices,)),
                               ("link_totals", (per_flow,)),
                               ("link_totals2", (per_flow, prices[0]
                                                 * per_flow)),
                               ("max_link_value", (prices,))):
                got = getattr(widened, name)(*args)
                want = getattr(wide, name)(*args)
                assert np.array_equal(np.asarray(got), np.asarray(want)), \
                    name
        assert np.array_equal(widened.routes, wide.routes)


# ----------------------------------------------------------------------
# clone: one batched apply_churn, positionally identical
# ----------------------------------------------------------------------
class TestVectorizedClone:
    def populated(self, n=300, seed=9):
        rng = np.random.default_rng(seed)
        table = FlowTable(LinkSet(rng.random(10) * 10 + 0.5))
        table.apply_churn(starts=[
            (("flow", i), rng.integers(0, 10, int(rng.integers(1, 9))),
             float(rng.random() + 0.1)) for i in range(n)])
        # swap-remove churn so positional order differs from id order
        table.remove_flows([("flow", i) for i in range(0, n, 7)])
        return table

    def test_clone_matches_positionally(self):
        table = self.populated()
        copy = table.clone()
        assert copy.flow_ids() == table.flow_ids()
        np.testing.assert_array_equal(copy.routes, table.routes)
        np.testing.assert_array_equal(copy.weights, table.weights)
        np.testing.assert_array_equal(copy.bottleneck_capacity(),
                                      table.bottleneck_capacity())
        for flow_id in table.flow_ids():
            assert copy.index_of(flow_id) == table.index_of(flow_id)

    def test_clone_is_one_batch(self):
        table = self.populated(n=50)
        copy = table.clone()
        # a batched insert costs exactly one version bump
        assert copy.version == 1

    def test_clone_is_independent_and_empty_clone_works(self):
        table = self.populated(n=20)
        survivors = table.n_flows
        copy = table.clone()
        table.remove_flows(table.flow_ids())
        assert copy.n_flows == survivors and table.n_flows == 0
        assert FlowTable(LinkSet([1.0])).clone().n_flows == 0


# ----------------------------------------------------------------------
# link-load threading: optimizer -> allocator -> normalizer
# ----------------------------------------------------------------------
class TestLinkLoadThreading:
    def allocator(self, n_flows=200, seed=2):
        topology = TwoTierClos(n_racks=3, hosts_per_rack=8, n_spines=2)
        allocator = FlowtuneAllocator(topology.link_set())
        rng = np.random.default_rng(seed)
        starts = []
        for i in range(n_flows):
            src = int(rng.integers(topology.n_hosts))
            dst = int(rng.integers(topology.n_hosts - 1))
            dst += dst >= src
            starts.append((i, topology.route(src, dst, i)))
        allocator.apply_churn(starts=starts)
        return allocator

    def test_f_norm_with_precomputed_load_is_bitwise_equal(self):
        allocator = self.allocator()
        raw = allocator.optimizer.iterate(3)
        load = allocator.table.link_totals(raw)
        np.testing.assert_array_equal(
            f_norm(allocator.table, raw, link_load=load),
            f_norm(allocator.table, raw))

    def test_optimizer_memoizes_the_iterate_load(self):
        allocator = self.allocator()
        raw = allocator.optimizer.iterate(2)
        load = allocator.optimizer.link_load_for(raw)
        assert load is not None
        np.testing.assert_array_equal(load,
                                      allocator.table.link_totals(raw))
        # a different vector, or churn, invalidates the memo
        assert allocator.optimizer.link_load_for(raw.copy()) is None
        allocator.apply_churn(starts=[(10_000, [0, 1])])
        assert allocator.optimizer.link_load_for(raw) is None

    def test_allocator_iterate_unchanged_by_threading(self):
        """iterate() through the load-threading path must equal a
        manual optimize-then-normalize with no threading."""
        fast = self.allocator()
        slow = self.allocator()
        res = fast.iterate(2)
        raw = slow.optimizer.iterate(2)
        expected = f_norm(slow.table, raw)
        np.testing.assert_array_equal(
            np.asarray(res.rate_vector, dtype=np.float64), expected)

    def test_legacy_two_argument_normalizer_raises_type_error(self):
        """The 2-arg signature is gone: construction fails fast with a
        migration hint, for classes and plain functions alike."""
        class Legacy:
            name = "legacy"

            def __call__(self, table, rates):
                return np.asarray(rates, dtype=np.float64) * 0.5

        def legacy_fn(table, rates):
            return np.asarray(rates, dtype=np.float64) * 0.5

        topology = TwoTierClos(n_racks=2, hosts_per_rack=4, n_spines=2)
        for normalizer in (Legacy(), legacy_fn):
            with pytest.raises(TypeError, match="link_load"):
                FlowtuneAllocator(topology.link_set(),
                                  normalizer=normalizer)

    def test_link_load_normalizer_constructs_cleanly(self):
        topology = TwoTierClos(n_racks=2, hosts_per_rack=4, n_spines=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            allocator = FlowtuneAllocator(topology.link_set())
        allocator.flowlet_start(0, topology.route(0, 5, 0))
        assert len(allocator.iterate(1).rates) == 1

    def test_kwargs_normalizer_receives_the_load(self):
        received = {}

        class Spy(FNormalizer):
            def __call__(self, table, rates, **kwargs):
                received.update(kwargs)
                return super().__call__(table, rates, **kwargs)

        topology = TwoTierClos(n_racks=2, hosts_per_rack=4, n_spines=2)
        allocator = FlowtuneAllocator(topology.link_set(),
                                      normalizer=Spy())
        allocator.flowlet_start(0, topology.route(0, 5, 0))
        allocator.iterate(1)
        assert received.get("link_load") is not None


# ----------------------------------------------------------------------
# NED equivalence: fused pair scatter == the separate public kernels
# ----------------------------------------------------------------------
class TestFusedNedEquivalence:
    def test_update_prices_matches_separate_kernels(self):
        rng = np.random.default_rng(4)
        links = LinkSet(rng.random(12) * 10 + 1.0)
        starts = [(i, rng.integers(0, 12, int(1 + i % 4)))
                  for i in range(60)]
        table_a, table_b = FlowTable(links), FlowTable(links)
        for table in (table_a, table_b):
            table.apply_churn(starts=starts)
        ned = NedOptimizer(table_a)
        reference = NedOptimizer(table_b)
        for _ in range(5):
            rates = ned.iterate()
            # reference path: the pre-fusion formulation
            ref_rates = reference.rate_update()
            over = reference.over_allocation(ref_rates)
            hessian = reference.hessian_diagonal()
            carrying = hessian < 0.0
            step = np.divide(over, hessian,
                             out=np.zeros_like(reference.prices),
                             where=carrying)
            new_prices = np.where(
                carrying, reference.prices - reference.gamma * step,
                reference._idle_price)
            np.maximum(new_prices, 0.0, out=new_prices)
            reference.prices = new_prices
            np.testing.assert_array_equal(rates, ref_rates)
            np.testing.assert_array_equal(ned.prices, reference.prices)

    # The chunk passes against their full-vector spelling, bitwise.
    # BLOCK_ROWS 64 gives each table full chunks and a tail (or not).
    BLOCK = 64

    def chunked(self, monkeypatch, n_flows, seed=5, **ned_kwargs):
        monkeypatch.setattr(kernels, "BLOCK_ROWS", self.BLOCK)
        rng = np.random.default_rng(seed)
        links = LinkSet(rng.random(12) * 10 + 1.0)
        starts = [(i, rng.choice(12, int(1 + i % 4), replace=False))
                  for i in range(n_flows)]
        pair = []
        for _ in range(2):
            table = FlowTable(links)
            table.apply_churn(starts=starts)
            pair.append(NedOptimizer(table, **ned_kwargs))
        return pair

    @staticmethod
    def full_vector_step(opt):
        """rate_update + link_totals2 + the price step."""
        table = opt.table
        rates = opt.rate_update()
        derivative = opt.utility.rate_derivative(
            opt.effective_price_sums(), table.weights)
        load, hessian = table.link_totals2(rates, derivative)
        over = load - table.links.capacity
        carrying = hessian < 0.0
        step = np.divide(over, hessian, out=np.zeros_like(opt.prices),
                         where=carrying)
        new_prices = np.where(carrying, opt.prices - opt.gamma * step,
                              opt._idle_price)
        np.maximum(new_prices, 0.0, out=new_prices)
        opt.prices = new_prices
        return rates, load

    @pytest.mark.parametrize("n_flows", [0, 1, 16, 64 * 3 + 10,
                                         64 * 2 + 40])
    @pytest.mark.parametrize("ned_kwargs", [
        {}, {"cap_rates": False}, {"utility": AlphaFairUtility(2.0)}],
        ids=["log", "uncapped", "alpha2"])
    def test_ned_pass_matches_full_vector_step(self, monkeypatch, n_flows,
                                               ned_kwargs):
        ned, reference = self.chunked(monkeypatch, n_flows, **ned_kwargs)
        for _ in range(4):
            rates = ned.iterate()
            ref_rates, ref_load = self.full_vector_step(reference)
            assert rates.tobytes() == ref_rates.tobytes()
            assert ned.prices.tobytes() == reference.prices.tobytes()
            assert ned.link_load_for(rates).tobytes() == ref_load.tobytes()

    def test_iterate_n_matches_n_full_vector_steps(self, monkeypatch):
        ned, reference = self.chunked(monkeypatch, 64 * 3 + 10)
        for n in (0, 1, 3):
            rates = ned.iterate(n)
            ref_rates = np.zeros(reference.table.n_flows)
            for _ in range(n):
                ref_rates = self.full_vector_step(reference)[0]
            assert rates.tobytes() == ref_rates.tobytes()
            assert ned.prices.tobytes() == reference.prices.tobytes()

    def test_ned_rt_keeps_its_two_step_iteration(self, monkeypatch):
        monkeypatch.setattr(kernels, "BLOCK_ROWS", self.BLOCK)
        rng = np.random.default_rng(6)
        links = LinkSet(rng.random(12) * 10 + 1.0)
        starts = [(i, rng.choice(12, int(1 + i % 4), replace=False))
                  for i in range(150)]
        opts = []
        for _ in range(2):
            table = FlowTable(links)
            table.apply_churn(starts=starts)
            opts.append(NedRtOptimizer(table))
        rt, reference = opts
        for _ in range(4):
            rates = rt.iterate()
            ref_rates = reference.rate_update()
            reference._update_prices(ref_rates)
            assert rates.dtype == np.float32
            assert rates.tobytes() == ref_rates.tobytes()
            assert rt.prices.tobytes() == reference.prices.tobytes()

    @pytest.mark.parametrize("normalizer", [
        None, FNormalizer(allow_scale_up=False), UNormalizer(),
        NullNormalizer(), "callable"])
    @pytest.mark.parametrize("n_flows", [0, 1, 64 * 3 + 10, 64 * 2 + 40])
    def test_allocator_iterate_matches_normalize_then_mask(
            self, monkeypatch, normalizer, n_flows):
        monkeypatch.setattr(kernels, "BLOCK_ROWS", self.BLOCK)
        if normalizer == "callable":
            class Halved(FNormalizer):  # its own __call__: no fused pass
                def __call__(self, table, rates, link_load=None):
                    return f_norm(table, rates, link_load=link_load) * 0.5

            normalizer = Halved()
        topology = TwoTierClos(n_racks=3, hosts_per_rack=8, n_spines=2)
        rng = np.random.default_rng(7)

        def starts(first, count):
            out = []
            for i in range(first, first + count):
                src = int(rng.integers(topology.n_hosts))
                dst = int(rng.integers(topology.n_hosts - 1))
                out.append((i, topology.route(src, dst + (dst >= src), i)))
            return out

        fast, slow = (FlowtuneAllocator(topology.link_set(),
                                        normalizer=normalizer)
                      for _ in range(2))
        first = starts(0, n_flows)
        for allocator in (fast, slow):
            allocator.apply_churn(starts=first)
        next_id = n_flows
        for n, churn in ((1, 0), (3, 7), (0, 3), (1, 40)):
            ends = fast.table.flow_ids()[:churn]
            new = starts(next_id, churn)
            next_id += churn
            for allocator in (fast, slow):
                allocator.apply_churn(starts=new, ends=ends)
            result = fast.iterate(n)
            raw = slow.optimizer.iterate(n)
            normalized = slow.normalizer(
                slow.table, raw,
                link_load=slow.optimizer.link_load_for(raw))
            indices = np.flatnonzero(threshold_update_mask(
                np.asarray(normalized, dtype=np.float64),
                slow._last_sent.data, slow._pending_new.data,
                slow.update_threshold))
            assert result.rate_vector.tobytes() == normalized.tobytes()
            assert result.update_indices.tobytes() == indices.tobytes()
            assert (fast._last_sent.data.tobytes()
                    == slow._last_sent.data.tobytes())
            assert not fast._pending_new.data.any()
