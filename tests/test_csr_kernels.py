"""CSR route-index kernels vs the padded-matrix reference, bitwise.

The NUM kernels (``price_sums`` / ``link_totals`` / ``link_totals2`` /
``max_link_value``) run on a derived, version-cached CSR view of the
padded route matrix.  These tests pin the contract that made that
rewrite safe:

* every kernel matches a straight padded-matrix reference **bitwise**
  (the reference reduces each row left-to-right, the order the CSR
  kernels guarantee; pads contribute +0.0 / the dropped pad bin /
  ``-inf``, all bitwise no-ops);
* above one chunk, the kernels in :mod:`repro.core.kernels` match a
  naive reference of the canonical chunked reduction **bitwise**
  (``BLOCK_ROWS`` is monkeypatched small so a few hundred rows span
  many chunks), on the calling thread and nowhere else, and the
  process backend's workers stay bitwise-aligned with the simulated
  engine there;
* the index is maintained incrementally under arbitrary churn —
  batched adds/removes, swap-remove holes, hop-count mixing, storage
  regrowth, capacity refresh — and can never be observed stale,
  because every public mutator bumps ``version`` and the index is
  keyed on it.
"""

import multiprocessing
import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (FlowTable, FlowtuneAllocator, LinkSet,
                        NedOptimizer)
from repro.core import kernels
from repro.core.normalization import FNormalizer, f_norm
from repro.topology import TwoTierClos


# ----------------------------------------------------------------------
# padded-matrix reference kernels (left-to-right per-row reduction)
# ----------------------------------------------------------------------
def ref_fold_rows(fold, gathered):
    """Left-to-right column fold of a gathered ``(n, width)`` block."""
    out = gathered[:, 0].copy()
    for hop in range(1, gathered.shape[1]):
        fold(out, gathered[:, hop], out=out)
    return out


def ref_price_sums(table, prices):
    if table.n_flows == 0:
        return np.zeros(0)
    return ref_fold_rows(np.add, table.pad(prices)[table.routes])


def ref_chunked_totals(values, indices, n, width, minlength, block):
    """One ``bincount`` per ``block``-row chunk, partials summed in
    ascending chunk order — the canonical reduction, spelled naively."""
    total = None
    for r0 in range(0, n, block):
        r1 = min(n, r0 + block)
        part = np.bincount(indices[r0 * width: r1 * width],
                           weights=np.repeat(values[r0:r1], width),
                           minlength=minlength)
        total = part if total is None else total + part
    return total


def ref_link_totals(table, per_flow):
    n_links = table.links.n_links
    if table.n_flows == 0:
        return np.zeros(n_links)
    return ref_chunked_totals(
        np.asarray(per_flow, dtype=np.float64), table.routes.reshape(-1),
        table.n_flows, table.max_route_len, n_links + 1,
        kernels.BLOCK_ROWS)[:-1]


def ref_max_link_value(table, per_link):
    if table.n_flows == 0:
        return np.zeros(0)
    return ref_fold_rows(
        np.maximum, table.pad(per_link, pad_value=-np.inf)[table.routes])


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
# property: arbitrary churn programs keep CSR == padded, bitwise
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
            # Read between most mutations so the incremental sync path
            # (not just the final state) is what gets verified.
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
        rng = np.random.default_rng(seed)
        indices = rng.integers(0, n_links + 1,
                               size=n * width).astype(np.int64)
        padded = np.append(rng.random(n_links), 0.0)
        values_a = rng.random(n)
        values_b = rng.random(n)
        return indices, padded, values_a, values_b, n, width, n_links

    def test_all_kernels_match_chunked_reference(self):
        indices, padded, va, vb, n, width, n_links = self.case()
        gathered = padded[indices.reshape(n, width)]
        np.testing.assert_array_equal(
            kernels.price_sums(padded, indices, n, width),
            ref_fold_rows(np.add, gathered))
        np.testing.assert_array_equal(
            kernels.max_link_value(padded, indices, n, width,
                                   np.empty(n)),
            ref_fold_rows(np.maximum, gathered))
        want_a = ref_chunked_totals(va, indices, n, width, n_links + 1,
                                    self.BLOCK)
        want_b = ref_chunked_totals(vb, indices, n, width, n_links + 1,
                                    self.BLOCK)
        np.testing.assert_array_equal(
            kernels.link_totals(va, indices, n, width, n_links + 1),
            want_a)
        got_a, got_b = kernels.link_totals2(va, vb, indices, n, width,
                                            n_links + 1)
        np.testing.assert_array_equal(got_a, want_a)
        np.testing.assert_array_equal(got_b, want_b)
        # The chunk grid is load-bearing: a single whole-table bincount
        # rounds differently somewhere on this input.
        assert np.any(want_a != ref_chunked_totals(
            va, indices, n, width, n_links + 1, n))

    def test_min_link_value_matches_reference(self):
        rng = np.random.default_rng(9)
        n, width, n_links = 200, 4, 32
        rows = rng.integers(0, n_links + 1, size=(n, width))
        padded = np.append(rng.random(n_links), np.inf)
        got = kernels.min_link_value(padded, rows, np.empty(n))
        np.testing.assert_array_equal(
            got, ref_fold_rows(np.minimum, padded[rows]))

    @pytest.mark.parametrize("bad", [65, 10**6, -66])
    def test_gathers_reject_an_out_of_range_slot(self, bad):
        """Every chunk's gather is bounds-checked: a slot index past
        the pad entry (or below ``-len``) raises, never reads."""
        indices, padded, _, _, n, width, n_links = self.case()
        assert len(padded) == n_links + 1 == 65
        indices[n * width - 2] = bad   # in the last chunk
        with pytest.raises(IndexError):
            kernels.price_sums(padded, indices, n, width)
        with pytest.raises(IndexError):
            kernels.max_link_value(padded, indices, n, width, np.empty(n))
        with pytest.raises(IndexError):
            kernels.min_link_value(padded, indices.reshape(n, width),
                                   np.empty(n))

    def test_one_slot_per_row(self):
        """Width 1 (a fresh ECMP store, single-hop tables): the fold
        has no second column to start from."""
        indices, padded, va, _, n, _, n_links = self.case(width=1)
        np.testing.assert_array_equal(
            kernels.price_sums(padded, indices, n, 1), padded[indices])
        np.testing.assert_array_equal(
            kernels.max_link_value(padded, indices, n, 1, np.empty(n)),
            padded[indices])
        np.testing.assert_array_equal(
            kernels.link_totals(va, indices, n, 1, n_links + 1),
            ref_chunked_totals(va, indices, n, 1, n_links + 1, self.BLOCK))

    def test_kernels_start_no_thread(self):
        """One path, on the calling thread: a multi-chunk table runs
        every kernel without spawning helpers."""
        rng = np.random.default_rng(4)
        table = FlowTable(LinkSet(np.full(12, 10.0)), max_route_len=4)
        before = threading.active_count()
        table.apply_churn(starts=[
            (i, rng.integers(0, 12, int(rng.integers(1, 5))))
            for i in range(10 * self.BLOCK)])
        assert len(kernels.chunk_spans(table.n_flows)) > 1
        assert_kernels_match(table, rng)
        table.refresh_capacity()
        table.bottleneck_capacity()
        assert threading.active_count() == before

    def test_describe_is_numpy(self):
        assert kernels.describe() == "numpy"

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="process backend needs the fork start method")
    def test_process_backend_matches_simulated_multi_chunk(self):
        """Forked workers run the same chunk grid as the parent, so
        every cell's multi-chunk scatter lands on the same bits."""
        from repro.parallel import MulticoreNedEngine

        topology = TwoTierClos(n_racks=4, hosts_per_rack=4, n_spines=2)
        rng = np.random.default_rng(0)
        starts = []
        for i in range(120):
            src = int(rng.integers(topology.n_hosts))
            dst = int(rng.integers(topology.n_hosts - 1))
            dst += dst >= src
            starts.append((i, src, dst))

        simulated = MulticoreNedEngine(topology, 2)
        simulated.apply_churn(starts=starts)
        assert all(cell.table.n_flows > self.BLOCK
                   for cell in simulated.processors.values())
        simulated.iterate(10)
        with MulticoreNedEngine(topology, 2, backend="process",
                                n_workers=2) as engine:
            engine.apply_churn(starts=starts)
            engine.iterate(10)
            rates = engine.rates()
        assert rates == simulated.rates()


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
            table.price_sums(np.zeros(4))  # cache the index
            before = table.version
            mutate()
            assert table.version > before, label
            # ...and the bumped version makes the fresh state visible.
            assert_kernels_match(table, rng)

    def test_index_is_cached_between_reads(self):
        """Same version -> no resync; bumped version -> resync."""
        table = FlowTable(LinkSet(np.full(4, 10.0)))
        table.apply_churn(starts=[(i, [i % 4, (i + 1) % 4])
                                  for i in range(8)])
        table.price_sums(np.zeros(4))
        assert table._csr_version == table.version
        synced_at = table._csr_version
        table.link_totals(np.ones(8))
        table.max_link_value(np.zeros(4))
        assert table._csr_version == synced_at  # untouched, no churn
        table.remove_flow(3)
        assert table._csr_version != table.version  # now stale...
        rng = np.random.default_rng(0)
        assert_kernels_match(table, rng)  # ...until the next read
        assert table._csr_version == table.version


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
