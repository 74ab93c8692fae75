"""FlowTable: churn bookkeeping and the vectorized NUM kernels."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FlowTable, LinkSet, kernels
from repro.core.network import _BAD_ROUTE, _pack_starts


def make_table(n_links=6, max_route_len=4):
    return FlowTable(LinkSet(np.full(n_links, 10.0)),
                     max_route_len=max_route_len)


def middle_aligned(lengths, width):
    """``(width, n)`` mask of the storage columns routes of these hop
    counts occupy: the first ``ceil(k/2)`` hops left, the rest
    right-aligned."""
    cols = np.arange(width)[:, None]
    return (cols < -(-lengths // 2)) | (cols >= width - lengths // 2)


class TestChurn:
    def test_add_assigns_dense_indices(self):
        table = make_table()
        assert table.add_flow("a", [0, 1]) == 0
        assert table.add_flow("b", [2]) == 1
        assert table.n_flows == 2

    def test_duplicate_id_rejected(self):
        table = make_table()
        table.add_flow("a", [0])
        with pytest.raises(KeyError):
            table.add_flow("a", [1])

    def test_empty_route_rejected(self):
        table = make_table()
        with pytest.raises(ValueError):
            table.add_flow("a", [])

    def test_unknown_link_rejected(self):
        table = make_table(n_links=3)
        with pytest.raises(ValueError):
            table.add_flow("a", [7])

    def test_route_longer_than_max_rejected(self):
        table = make_table(max_route_len=2)
        with pytest.raises(ValueError):
            table.add_flow("a", [0, 1, 2])

    def test_nonpositive_weight_rejected(self):
        table = make_table()
        with pytest.raises(ValueError):
            table.add_flow("a", [0], weight=0.0)

    def test_swap_remove_keeps_remaining_flows_intact(self):
        table = make_table()
        table.add_flow("a", [0, 1])
        table.add_flow("b", [2, 3])
        table.add_flow("c", [4])
        table.remove_flow("a")
        assert set(table.flow_ids()) == {"b", "c"}
        assert list(table.route_of("b")) == [2, 3]
        assert list(table.route_of("c")) == [4]

    def test_remove_unknown_raises(self):
        table = make_table()
        with pytest.raises(KeyError):
            table.remove_flow("ghost")

    def test_version_increments_on_churn(self):
        table = make_table()
        v0 = table.version
        table.add_flow("a", [0])
        table.remove_flow("a")
        assert table.version == v0 + 2

    def test_growth_beyond_initial_capacity(self):
        table = make_table(n_links=4)
        for i in range(300):
            table.add_flow(i, [i % 4])
        assert table.n_flows == 300
        assert list(table.route_of(250)) == [250 % 4]

    def test_clone_is_independent(self):
        table = make_table()
        table.add_flow("a", [0, 1], weight=2.0)
        copy = table.clone()
        table.remove_flow("a")
        assert "a" in copy
        assert list(copy.route_of("a")) == [0, 1]
        assert copy.weights[copy.index_of("a")] == 2.0

    def test_starts_of_recreates_flows(self):
        table = make_table()
        table.apply_churn(starts=[("a", [0, 1], 2.0), ("b", [2]),
                                  ("c", [3, 4, 5], 0.5)])
        table.remove_flow("a")
        assert [(flow_id, route.tolist(), weight) for flow_id, route, weight
                in table.starts_of(["c", "b"])] == [("c", [3, 4, 5], 0.5),
                                                    ("b", [2], 1.0)]
        assert table.starts_of([]) == []
        assert table.starts_of(iter(())) == []
        with pytest.raises(KeyError):
            table.starts_of(["b", "a"])
        copy = make_table()
        copy.apply_churn(starts=table.starts_of(table.flow_ids()))
        assert copy.flow_ids() == table.flow_ids()
        assert np.array_equal(copy.routes, table.routes)
        assert np.array_equal(copy.weights, table.weights)


class TestBatchChurn:
    def test_apply_churn_adds_and_removes(self):
        table = make_table()
        table.add_flow("a", [0])
        table.add_flow("b", [1])
        table.apply_churn(starts=[("c", [2]), ("d", [3], 2.0)],
                          ends=["a"])
        assert set(table.flow_ids()) == {"b", "c", "d"}
        assert table.weights[table.index_of("d")] == 2.0
        assert list(table.route_of("c")) == [2]

    def test_apply_churn_one_version_bump_per_add_batch(self):
        table = make_table()
        v0 = table.version
        table.apply_churn(starts=[(i, [0]) for i in range(10)])
        assert table.version == v0 + 1

    def test_apply_churn_duplicate_in_batch_rejected(self):
        table = make_table()
        with pytest.raises(KeyError):
            table.apply_churn(starts=[("a", [0]), ("a", [1])])
        table.audit()

    def test_apply_churn_duplicate_of_active_rejected(self):
        table = make_table()
        table.add_flow("a", [0])
        with pytest.raises(KeyError):
            table.apply_churn(starts=[("a", [1])])

    def test_apply_churn_validates_before_inserting(self):
        table = make_table(n_links=3)
        table.add_flow("old", [0])
        with pytest.raises(ValueError):
            table.apply_churn(starts=[("x", [1]), ("y", [7])],
                              ends=["old"])
        # ends applied, no start applied — the batch was rejected whole.
        assert table.flow_ids() == []

    def test_apply_churn_rejects_bad_routes_and_weights(self):
        table = make_table(max_route_len=2)
        with pytest.raises(ValueError):
            table.apply_churn(starts=[("a", [])])
        with pytest.raises(ValueError):
            table.apply_churn(starts=[("a", [0, 1, 2])])
        with pytest.raises(ValueError):
            table.apply_churn(starts=[("a", [0], -1.0)])
        assert table.n_flows == 0

    def test_apply_churn_grows_past_capacity(self):
        table = make_table(n_links=4)
        table.apply_churn(starts=[(i, [i % 4]) for i in range(300)])
        assert table.n_flows == 300
        assert list(table.route_of(250)) == [250 % 4]
        assert np.allclose(table.bottleneck_capacity(), 10.0)

    def test_batch_bottleneck_matches_incremental(self):
        links = LinkSet([10.0, 4.0, 40.0])
        batched = FlowTable(links)
        single = FlowTable(links)
        routes = [[0, 1], [2], [0, 2], [1, 2]]
        batched.apply_churn(starts=[(i, r) for i, r in enumerate(routes)])
        for i, r in enumerate(routes):
            single.add_flow(i, r)
        assert np.array_equal(batched.bottleneck_capacity(),
                              single.bottleneck_capacity())


class TestBatchRemove:
    """remove_flows: the vectorized mirror of the batched add."""

    def populated_pair(self, n, seed):
        """Two identically-populated tables with a tracking column."""
        rng = np.random.default_rng(seed)
        routes = [list(rng.integers(0, 6, size=rng.integers(1, 5)))
                  for _ in range(n)]
        tables, columns = [], []
        for _ in range(2):
            table = make_table()
            column = table.add_column(default=-1.0)
            for i, route in enumerate(routes):
                table.add_flow(i, route, weight=1.0 + i)
                column.data[table.index_of(i)] = float(i)
            tables.append(table)
            columns.append(column)
        return tables, columns

    def test_batch_matches_sequential_positionally(self):
        """The batched path must land in exactly the layout sequential
        swap-removes produce — flow ids, routes, weights and columns."""
        rng = np.random.default_rng(42)
        for seed in range(30):
            (batched, sequential), (col_b, col_s) = \
                self.populated_pair(int(rng.integers(1, 50)), seed)
            ids = [int(i) for i in rng.choice(
                batched.n_flows, size=int(rng.integers(0, batched.n_flows + 1)),
                replace=False)]
            batched.remove_flows(ids)
            for flow_id in ids:
                reference_remove_flow(sequential, flow_id)
            assert batched.flow_ids() == sequential.flow_ids()
            assert np.array_equal(batched.routes, sequential.routes)
            assert np.array_equal(batched.weights, sequential.weights)
            assert np.array_equal(col_b.data, col_s.data)
            assert np.array_equal(batched.bottleneck_capacity(),
                                  sequential.bottleneck_capacity())

    def test_one_version_bump_per_batch(self):
        table = make_table()
        table.apply_churn(starts=[(i, [0]) for i in range(10)])
        v0 = table.version
        table.remove_flows(range(6))
        assert table.version == v0 + 1
        assert table.n_flows == 4

    def test_empty_batch_is_noop(self):
        table = make_table()
        table.add_flow("a", [0])
        v0 = table.version
        table.remove_flows([])
        assert table.version == v0 and table.n_flows == 1

    def test_unknown_id_rejected_atomically(self):
        table = make_table()
        table.apply_churn(starts=[(i, [0]) for i in range(5)])
        v0, index_before = table.version, dict(table._index_of)
        with pytest.raises(KeyError, match="'ghost'"):
            table.remove_flows([0, 1, "ghost", "phantom"])
        assert table.n_flows == 5 and table.version == v0
        assert 0 in table and 1 in table
        assert table._index_of == index_before
        table.audit()

    def test_duplicate_id_rejected_atomically(self):
        table = make_table()
        table.apply_churn(starts=[(i, [0]) for i in range(5)])
        v0, index_before = table.version, dict(table._index_of)
        with pytest.raises(KeyError, match="flow 2 "):
            table.remove_flows([4, 2, 3, 2, "ghost"])
        assert table.n_flows == 5 and table.version == v0
        assert table._index_of == index_before
        with pytest.raises(TypeError):  # unhashable: nothing popped either
            table.remove_flows([1, [2]])
        assert table._index_of == index_before
        table.audit()

    def test_remove_everything(self):
        table = make_table()
        column = table.add_column(default=3.0)
        table.apply_churn(starts=[(i, [i % 6]) for i in range(20)])
        table.remove_flows(range(20))
        assert table.n_flows == 0
        assert table.flow_ids() == []
        table.add_flow("new", [0])
        assert column.data[0] == 3.0

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_property_batch_equals_sequential(self, seed):
        rng = np.random.default_rng(seed)
        (batched, sequential), (col_b, col_s) = \
            self.populated_pair(int(rng.integers(1, 40)), seed)
        ids = [int(i) for i in rng.permutation(batched.n_flows)[
            : int(rng.integers(0, batched.n_flows + 1))]]
        batched.remove_flows(ids)
        for flow_id in ids:
            reference_remove_flow(sequential, flow_id)
        assert batched.flow_ids() == sequential.flow_ids()
        assert np.array_equal(col_b.data, col_s.data)


class TestFlowColumns:
    def test_column_tracks_default_and_swap_remove(self):
        table = make_table()
        column = table.add_column(default=-1.0)
        table.add_flow("a", [0])
        table.add_flow("b", [1])
        table.add_flow("c", [2])
        column.data[:] = [10.0, 20.0, 30.0]
        table.remove_flow("a")        # "c" swaps into slot 0
        assert column.data[table.index_of("c")] == 30.0
        assert column.data[table.index_of("b")] == 20.0
        table.add_flow("d", [3])
        assert column.data[table.index_of("d")] == -1.0

    def test_column_survives_growth(self):
        table = make_table(n_links=4)
        column = table.add_column(default=0.0)
        for i in range(10):
            table.add_flow(i, [i % 4])
        column.data[:] = np.arange(10.0)
        for i in range(10, 200):      # force several _grow() cycles
            table.add_flow(i, [i % 4])
        assert np.array_equal(column.data[:10], np.arange(10.0))
        assert np.all(column.data[10:] == 0.0)

    def test_column_reset_by_batch_add(self):
        table = make_table()
        column = table.add_column(default=7.0, dtype=np.float64)
        table.apply_churn(starts=[("a", [0]), ("b", [1])])
        assert np.all(column.data == 7.0)

    def test_bottleneck_refresh_after_capacity_change(self):
        links = LinkSet([10.0, 4.0])
        table = FlowTable(links)
        table.add_flow("a", [0, 1])
        assert table.bottleneck_capacity()[0] == 4.0
        links.capacity[1] = 20.0
        v0 = table.version
        table.refresh_capacity()
        assert table.version == v0 + 1
        assert table.bottleneck_capacity()[0] == 10.0


class TestKernels:
    def test_price_sums_sum_along_routes(self):
        table = make_table()
        table.add_flow("a", [0, 2])
        table.add_flow("b", [2])
        prices = np.array([1.0, 10.0, 5.0, 0.0, 0.0, 0.0])
        assert np.allclose(table.price_sums(prices), [6.0, 5.0])

    def test_link_totals_scatter(self):
        table = make_table()
        table.add_flow("a", [0, 2])
        table.add_flow("b", [2])
        totals = table.link_totals(np.array([3.0, 4.0]))
        assert np.allclose(totals, [3.0, 0.0, 7.0, 0.0, 0.0, 0.0])

    def test_max_link_value_ignores_padding(self):
        table = make_table()
        table.add_flow("a", [1])
        per_link = np.array([9.0, -5.0, 0.0, 0.0, 0.0, 0.0])
        assert table.max_link_value(per_link)[0] == -5.0

    def test_bottleneck_capacity_is_min_along_route(self):
        table = FlowTable(LinkSet([10.0, 4.0, 40.0]))
        table.add_flow("a", [0, 1, 2])
        table.add_flow("b", [2])
        assert np.allclose(table.bottleneck_capacity(), [4.0, 40.0])

    def test_empty_table_kernels(self):
        table = make_table()
        assert table.link_totals(np.array([])).shape == (6,)
        assert len(table.price_sums(np.zeros(6))) == 0

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_link_totals_matches_bruteforce(self, data):
        n_links = data.draw(st.integers(2, 8))
        table = FlowTable(LinkSet(np.full(n_links, 10.0)), max_route_len=4)
        n_flows = data.draw(st.integers(0, 20))
        routes = []
        for i in range(n_flows):
            length = data.draw(st.integers(1, min(4, n_links)))
            route = data.draw(st.lists(
                st.integers(0, n_links - 1), min_size=length,
                max_size=length, unique=True))
            table.add_flow(i, route)
            routes.append(route)
        values = np.arange(1.0, n_flows + 1.0)
        expected = np.zeros(n_links)
        for route, value in zip(routes, values):
            for link in route:
                expected[link] += value
        assert np.allclose(table.link_totals(values), expected)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 1000), removals=st.integers(0, 10))
    def test_ids_consistent_under_random_churn(self, seed, removals):
        rng = np.random.default_rng(seed)
        table = make_table()
        alive = set()
        for i in range(20):
            table.add_flow(i, [int(rng.integers(6))])
            alive.add(i)
        for _ in range(removals):
            victim = int(rng.choice(sorted(alive)))
            table.remove_flow(victim)
            alive.discard(victim)
        assert set(table.flow_ids()) == alive
        for flow_id in alive:
            idx = table.index_of(flow_id)
            assert table.flow_ids()[idx] == flow_id


class TestFlowIdArray:
    """The positionally-cached id column behind ``flow_id_array``."""

    def test_view_is_aligned_and_read_only(self):
        table = make_table()
        for name in ("a", "b", "c"):
            table.add_flow(name, [0])
        ids = table.flow_id_array()
        assert ids.tolist() == ["a", "b", "c"]
        with pytest.raises(ValueError):
            ids[0] = "x"

    def test_view_is_o1_not_a_copy(self):
        table = make_table()
        table.add_flow("a", [0])
        assert table.flow_id_array().base is table._ids

    def test_swap_remove_keeps_array_and_list_in_lockstep(self):
        rng = np.random.default_rng(3)
        table = make_table()
        alive = []
        for i in range(40):
            table.add_flow(i, [int(rng.integers(6))])
            alive.append(i)
        for _ in range(25):
            victim = alive.pop(int(rng.integers(len(alive))))
            table.remove_flow(victim)
            assert table.flow_id_array().tolist() == table.flow_ids()
            for pos, flow_id in enumerate(table.flow_id_array()):
                assert table.index_of(flow_id) == pos

    def test_batched_churn_with_tuple_ids(self):
        """Tuple ids are the broadcast trap: numpy must store them as
        objects, not try to treat the batch as a 2-D assignment."""
        table = make_table()
        starts = [(("f", i), [i % 6]) for i in range(10)]
        table.apply_churn(starts=starts)
        assert table.flow_id_array().tolist() == [("f", i)
                                                 for i in range(10)]
        table.apply_churn(ends=[("f", 0), ("f", 5)],
                          starts=[(("f", 99), [1])])
        assert set(table.flow_id_array().tolist()) == \
            {("f", i) for i in (1, 2, 3, 4, 6, 7, 8, 9, 99)}
        assert table.flow_id_array().tolist() == table.flow_ids()

    def test_batched_remove_matches_sequential(self):
        batched, sequential = make_table(), make_table()
        for t in (batched, sequential):
            for i in range(20):
                t.add_flow(i, [i % 6])
        victims = [0, 7, 19, 3, 11]
        batched.remove_flows(victims)
        for victim in victims:
            reference_remove_flow(sequential, victim)
        assert batched.flow_id_array().tolist() == \
            sequential.flow_id_array().tolist()

    def test_grow_preserves_the_id_column(self):
        table = make_table()
        for i in range(200):  # far past _INITIAL_CAPACITY
            table.add_flow(i, [i % 6])
        assert table.flow_id_array().tolist() == list(range(200))


# ----------------------------------------------------------------------
# batched churn == sequential churn, swap chain included
# ----------------------------------------------------------------------
ID_KINDS = {
    "int": lambda i: i,
    "tuple": lambda i: (i % 3, i),          # (client, fid)
    "u64": lambda i: 2**64 - 1 - i,
}


def victim_positions(order, n, k, rng):
    """``k`` row positions of an ``n``-row table, in an order that
    exercises one shape of the swap chain."""
    k = min(k, n)
    if order == "all":                      # k == n
        return rng.permutation(n).tolist()
    if order == "tail_asc":                 # every victim in the tail
        return list(range(n - k, n))
    if order == "tail_desc":
        return list(range(n - 1, n - k - 1, -1))
    if order == "head_then_tail":
        # Row 0's tail slot n-1 is the next victim, whose tail slot is
        # the one after: one hole refilled k-1 times, a chain.
        return [0] + list(range(n - 1, n - k, -1))
    if order == "interleaved":              # low rows and tail rows
        low, high = list(range(k)), list(range(n - 1, n - 1 - k, -1))
        mixed = [p for pair in zip(low, high) for p in pair]
        return list(dict.fromkeys(mixed))[:k]
    return rng.choice(n, size=k, replace=False).tolist()


class ChurnTwins:
    """A batched table and a twin driven one flow at a time (the
    scalar swap-remove oracle, ``add_flow``)."""

    def __init__(self, id_kind, max_route_len=4):
        self.make_id = ID_KINDS[id_kind]
        self.tables = [make_table(max_route_len=max_route_len)
                       for _ in range(2)]
        self.columns = [(t.add_column(default=-1.0),
                         t.add_column(default=True, dtype=bool))
                        for t in self.tables]
        self.counter = 0

    def new_starts(self, count, shape, rng):
        starts = []
        for j in range(count):
            route = rng.integers(0, 6, size=int(rng.integers(1, 5)))
            route = (route, route.tolist(), tuple(route.tolist()))[j % 3]
            weight = float(rng.integers(1, 9)) / 2
            with_weight = shape == "3" or (shape == "mixed" and j % 2)
            starts.append((self.make_id(self.counter), route)
                          + ((weight,) if with_weight else ()))
            self.counter += 1
        return starts

    def step(self, starts, ends, as_generator=False):
        batched, twin = self.tables
        if as_generator:
            batched.apply_churn(starts=(s for s in starts),
                                ends=(e for e in ends))
        elif starts:
            batched.apply_churn(starts=starts, ends=ends)
        else:
            batched.remove_flows(ends)
        for flow_id in ends:
            reference_remove_flow(twin, flow_id)
        for start in starts:
            twin.add_flow(*start)
        # give the new flows distinguishable column state
        for table, (floats, flags) in zip(self.tables, self.columns):
            for j, start in enumerate(starts):
                row = table.index_of(start[0])
                floats.data[row] = float(self.counter * 100 + j)
                flags.data[row] = bool(j % 2)

    def check(self):
        batched, twin = self.tables
        for table in self.tables:
            table.audit()
        assert batched.flow_ids() == twin.flow_ids()
        assert batched.flow_id_array().tolist() == twin.flow_ids()
        assert np.array_equal(batched.routes, twin.routes)
        assert np.array_equal(batched.weights, twin.weights)
        for mine, theirs in zip(batched._columns, twin._columns):
            assert np.array_equal(mine.data, theirs.data)
        assert batched._index_of == twin._index_of
        assert [batched.index_of(i) for i in batched.flow_ids()] == \
            list(range(batched.n_flows))
        assert batched._ids[batched.n_flows:].tolist() == \
            [None] * (len(batched._ids) - batched.n_flows)
        n = batched.n_flows
        for table in self.tables:
            # The kernels' layout is the storage itself: hop-major,
            # padded past every live flow, as wide as the longest route
            # seen, every route middle-aligned.
            width = table.width
            assert table._routes.shape[0] == width
            assert np.array_equal(table._routes[:, :n], table.routes)
            assert (table._routes[:, n:] == table.pad_link).all()
            assert width >= max(table.hop_counts(), default=1)
            assert np.array_equal(table.routes != table.pad_link,
                                  middle_aligned(table.hop_counts(), width))
        assert batched.width == twin.width
        prices = np.arange(1.0, 7.0)
        assert np.array_equal(batched.price_sums(prices),
                              twin.price_sums(prices))


ORDERS = ("random", "all", "tail_asc", "tail_desc", "head_then_tail",
          "interleaved")


class TestBatchedEqualsSequential:
    @pytest.mark.parametrize("id_kind", sorted(ID_KINDS))
    @pytest.mark.parametrize("order", ORDERS)
    @pytest.mark.parametrize("k", [1, 2, 3, 5, 12])
    def test_named_victim_orders(self, order, k, id_kind):
        twins = ChurnTwins(id_kind)
        rng = np.random.default_rng(k)
        twins.step(twins.new_starts(12, "mixed", rng), [])
        twins.check()
        ids = twins.tables[0].flow_ids()
        ends = [ids[p] for p in victim_positions(order, 12, k, rng)]
        twins.step([], ends)
        twins.check()

    def test_range_and_generator_inputs(self):
        twins = ChurnTwins("int")
        rng = np.random.default_rng(0)
        twins.step(twins.new_starts(30, "2", rng), [])
        twins.step([], range(20, 30))              # the whole tail
        twins.step(twins.new_starts(5, "3", rng), range(0, 8),
                   as_generator=True)
        twins.check()
        twins.tables[0].apply_churn(ends=iter(()), starts=iter(()))
        twins.check()

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_churn_program(self, data):
        """Random programs of batches: victim order, batch sizes, start
        shapes and restarts are all drawn."""
        seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
        rng = np.random.default_rng(seed)
        twins = ChurnTwins(data.draw(st.sampled_from(sorted(ID_KINDS))))
        twins.step(twins.new_starts(data.draw(st.integers(1, 40)),
                                    "mixed", rng), [])
        for _ in range(data.draw(st.integers(1, 8), label="steps")):
            ids = twins.tables[0].flow_ids()
            n = len(ids)
            order = data.draw(st.sampled_from(ORDERS))
            k = data.draw(st.integers(0, n))
            ends = ([ids[p] for p in victim_positions(order, n, k, rng)]
                    if k else [])
            starts = twins.new_starts(
                data.draw(st.integers(0, 70 if n > 30 else 12)),
                data.draw(st.sampled_from(["2", "3", "mixed"])), rng)
            if ends and data.draw(st.booleans(), label="restart"):
                starts.append((ends[len(ends) // 2], [1, 2]))
            twins.step(starts, ends,
                       as_generator=data.draw(st.booleans()))
            twins.check()

    def test_errors_name_the_first_offender_and_apply_nothing(self):
        twins = ChurnTwins("tuple")
        rng = np.random.default_rng(1)
        twins.step(twins.new_starts(20, "mixed", rng), [])
        twins.check()
        batched = twins.tables[0]
        ids = batched.flow_ids()
        ghost = (9, 99)
        version = batched.version
        for ends, offender in (([ids[0], ghost, ids[0]], ghost),
                               ([ids[3], ids[4], ids[3], ghost], ids[3]),
                               ([ghost], ghost), ([ids[9], ids[9]], ids[9])):
            for call in (batched.remove_flows,
                         lambda e: batched.apply_churn(
                             starts=[((7, 7), [0])], ends=e)):
                with pytest.raises(KeyError) as err:
                    call(ends)
                assert err.value.args == (
                    f"flow {offender!r} is not active",)
                assert batched.version == version
                twins.check()
        # A bad start: the ends are done, no start is.
        fresh = [((5, 50), [0]), ((5, 51), [1, 2], 2.0)]
        live = ids[0]                   # the victims come off the tail
        for bad, error, text in (
                ([((5, 52), [3]), (live, [0])], KeyError,
                 f"flow {live!r} is already active"),
                ([((5, 53), [3]), ((5, 53), [4])], KeyError,
                 "flow (5, 53) is already active"),
                ([((5, 54), [])], ValueError, "non-empty 1-D"),
                ([((5, 54), 7)], ValueError, "non-empty 1-D"),
                ([((5, 54), [[0, 1]])], ValueError, ""),  # numpy's text
                ([((5, 54), [0, 1, 2, 3, 4])], ValueError, "5 hops"),
                ([((5, 54), [6])], ValueError, "unknown link"),
                ([((5, 54), [-1])], ValueError, "unknown link"),
                ([((5, 54), [0], 0.0)], ValueError, "weight must be"),
                ([((5, 54), [0], 1.0, 2.0)], ValueError, "unpack"),
                ([((5, 54),)], ValueError, "unpack")):
            victim = batched.flow_ids()[-1]
            with pytest.raises(error) as err:
                batched.apply_churn(starts=fresh + bad, ends=[victim])
            assert text in str(err.value.args[0])
            reference_remove_flow(twins.tables[1], victim)
            twins.check()


class TestAudit:
    def test_audit_passes_through_churn_and_growth(self):
        table = make_table()
        table.audit()
        table.apply_churn(starts=[(i, [i % 6, (i + 1) % 6])
                                  for i in range(100)])
        table.audit()
        table.apply_churn(starts=[("x", [0])], ends=range(0, 100, 3))
        table.remove_flow(50)
        table.add_flow("y", [1, 2, 3])
        table.audit()
        assert table.route_of("y").tolist() == [1, 2, 3]

    def test_repeat_rejected_after_growth_writes_nothing(self):
        table = make_table()
        table.apply_churn(starts=[(i, [0]) for i in range(10)])
        batch = [(i, [1]) for i in range(100, 200)] + [(150, [2])]
        with pytest.raises(KeyError, match="flow 150 is already active"):
            table.apply_churn(starts=batch, ends=[3])
        assert table.n_flows == 9 and 3 not in table
        assert not any(i in table for i in range(100, 200))
        table.audit()
        table.apply_churn(starts=batch[:-1])
        table.audit()

    def test_handles_are_reused_last_freed_first(self):
        table = make_table()
        table.apply_churn(starts=[(i, [0]) for i in range(4)])
        table.remove_flows([1, 3])
        table.apply_churn(starts=[("a", [1])])
        assert table._index_of["a"] == 3
        table.audit()

    @pytest.mark.parametrize("corrupt, broken", [
        (lambda t: t._row_of.__setitem__(t._handle_at[0], 1),
         "_row_of inverts"),
        (lambda t: t._handle_at.__setitem__(t.n_flows, t._handle_at[0]),
         "exactly once"),
        (lambda t: t._index_of.__setitem__(t.flow_ids()[1],
                                           int(t._handle_at[0])),
         "the index maps"),
        (lambda t: t._ids.__setitem__(t.n_flows, "ghost"), "no id past"),
        (lambda t: t._routes.__setitem__((0, t.n_flows), 0), "pad links"),
    ])
    def test_audit_names_a_broken_invariant(self, corrupt, broken):
        table = make_table()
        table.apply_churn(starts=[(i, [i % 6]) for i in range(10)])
        table.remove_flows([2, 7])
        corrupt(table)
        with pytest.raises(AssertionError, match=broken):
            table.audit()


# ----------------------------------------------------------------------
# _pack_starts against the concatenate-only packer it replaced
# ----------------------------------------------------------------------
def reference_pack(starts, index_of, max_route_len, n_links):
    """The starts parser as it was before the bytes-join path, minus
    the in-batch repeat check (now the insert's): the reference every
    route form must pack or fail exactly like."""
    k = len(starts)
    weights = None
    try:
        if len(starts[0]) == 2:
            ids = [flow_id for flow_id, _ in starts]
            routes = [route for _, route in starts]
        else:
            ids = [flow_id for flow_id, _, _ in starts]
            routes = [route for _, route, _ in starts]
            weights = np.fromiter((weight for _, _, weight in starts),
                                  dtype=np.float64, count=k)
    except ValueError:
        ids, routes, weights = [], [], np.ones(k)
        for j, start in enumerate(starts):
            if len(start) == 3:
                flow_id, route, weights[j] = start
            else:
                flow_id, route = start
            ids.append(flow_id)
            routes.append(route)
    for flow_id in ids:
        if flow_id in index_of:
            raise KeyError(f"flow {flow_id!r} is already active")
    try:
        lengths = np.fromiter(map(len, routes), dtype=np.int64, count=k)
    except TypeError:
        raise ValueError(_BAD_ROUTE) from None
    if lengths.min() < 1:
        raise ValueError(_BAD_ROUTE)
    widest = int(lengths.max())
    if widest > max_route_len:
        raise ValueError(
            f"route has {widest} hops; table supports {max_route_len}")
    flat = np.concatenate(routes)
    if flat.ndim != 1 or len(flat) != int(lengths.sum()):
        raise ValueError(_BAD_ROUTE)
    flat = flat.astype(np.int64, copy=False)
    if flat.min() < 0 or flat.max() >= n_links:
        raise ValueError("route contains an unknown link index")
    if weights is not None and not np.all(weights > 0):
        raise ValueError("flow weight must be positive")
    return ids, lengths, flat, weights


class RouteArray(np.ndarray):
    """An ndarray subclass: a Python class could change what it reads as."""


ROUTE_FORMS = {
    "int64": lambda: np.array([0, 3, 5]),
    "int64_one_hop": lambda: np.array([4]),
    "int64_read_only": lambda: np.frombuffer(np.array([1, 2]).tobytes(),
                                             np.int64),
    "int64_big_endian": lambda: np.array([2, 1], dtype=">i8"),
    "int64_out_of_range": lambda: np.array([0, 6]),
    "int64_negative": lambda: np.array([-1, 0]),
    "int64_too_long": lambda: np.arange(5) % 6,
    "list": lambda: [1, 2],
    "tuple": lambda: (5, 0, 1),
    "uint32": lambda: np.array([3, 4], dtype=np.uint32),
    "uint32_little_endian": lambda: np.array([5, 0, 2], dtype="<u4"),
    "uint32_big_endian": lambda: np.array([3, 4], dtype=">u4"),
    "uint32_big_endian_out_of_range": lambda: np.array([1, 2**32 - 1],
                                                       dtype=">u4"),
    "uint32_out_of_range": lambda: np.array([6], dtype=np.uint32),
    "memoryview": lambda: memoryview(np.array([0, 5])),
    "subclass": lambda: np.array([1, 2]).view(RouteArray),
    "int32": lambda: np.array([2, 5, 0], dtype=np.int32),
    "bool": lambda: np.array([True, False, True]),
    "float64_integral": lambda: np.array([1.0, 2.0, 5.0]),
    "float64_fraction": lambda: np.array([1.5, 3.99]),
    "float64_neg_zero": lambda: np.array([-0.0, 1.0]),
    "float64_subnormal": lambda: np.array([5e-324, 2.0]),
    "strided": lambda: np.arange(8)[::3],
    "reversed": lambda: np.arange(4)[::-1],
    "column_2d": lambda: np.array([[0], [1]]),
    "row_2d": lambda: np.array([[0, 1]]),
    "square_2d": lambda: np.array([[0, 1], [2, 3]]),
    "empty_2d": lambda: np.zeros((2, 0), dtype=np.int64),
    "scalar_0d": lambda: np.array(3),
    "empty_int64": lambda: np.zeros(0, dtype=np.int64),
    "empty_list": lambda: [],
}


def pack_outcome(packer, starts):
    try:
        ids, lengths, flat, weights = packer(starts, {"active": 0}, 4, 6)
    except Exception as exc:  # the outcome under test
        return type(exc), str(exc)
    return (ids, lengths.dtype, lengths.tolist(), flat.dtype,
            flat.tobytes(), None if weights is None else weights.tolist())


#: The route forms the compiled pass packs itself: exact ndarrays, read
#: from numpy's array struct (a memoryview goes to the Python packer).
COMPILED_FORMS = {"int64", "int64_one_hop", "int64_read_only", "uint32",
                  "uint32_little_endian", "uint32_big_endian"}
PACK_WEIGHTS = (2, True, np.float64(2.0), float("nan"), 0.0, -0.0,
                float("inf"), -1.0, "2", None, 1e-300)
HOSTILE_CAPACITIES = (float("nan"), -float("nan"), 0.0, -0.0, float("inf"),
                      -float("inf"), 5e-324, 1.0, 2.0, 2.0)


class HashRaises:
    def __hash__(self):
        raise RuntimeError("no hash for this id")


class Collider:
    """Hashes like ``"active"``, so the index compares it with that
    key; its == then drops ``"active"`` or inserts itself."""

    def __init__(self, index, insert):
        self.index, self.insert, self.inserted = index, insert, False

    def __hash__(self):
        return hash("active")

    def __eq__(self, other):
        if not self.insert:
            self.index.pop("active", None)
        elif not self.inserted:
            self.inserted = True
            self.index[self] = 9
        return False

    def __repr__(self):
        return f"Collider(insert={self.insert})"


HOSTILE_STARTS = {
    "unhashable_id": lambda index: [(0, np.array([1])),
                                    (["a"], np.array([2]))],
    "tuple_ids": lambda index: [(("c", j), np.array([j, 4]))
                                for j in range(3)],
    "hash_raises": lambda index: [(0, np.array([1])),
                                  (HashRaises(), np.array([2]))],
    "eq_drops_a_key": lambda index: [(0, np.array([1])),
                                     (Collider(index, False), np.array([2]))],
    "eq_inserts_the_id": lambda index: [
        (0, np.array([1])), (Collider(index, True), np.array([2]))],
    "lists": lambda index: [[j, np.array([j])] for j in range(3)],
    "one_tuple": lambda index: [(0,)],
    "four_tuple": lambda index: [(0, np.array([1]), 1.0, "extra")],
    "active_id_last": lambda index: [(j, np.array([j])) for j in (0, 1, 7)],
}


class TestRoutePacking:
    """Both packing paths of ``_pack_starts`` accept and reject exactly
    what the concatenate-only packer did, with the same columns."""

    @pytest.mark.parametrize("form", sorted(ROUTE_FORMS))
    def test_uniform_batch(self, form):
        for k in (1, 3):
            starts = [(j, ROUTE_FORMS[form]()) for j in range(k)]
            assert (pack_outcome(_pack_starts, starts)
                    == pack_outcome(reference_pack, starts))

    @settings(max_examples=300, deadline=None)
    @given(forms=st.lists(st.sampled_from(sorted(ROUTE_FORMS)),
                          min_size=1, max_size=6),
           weighted=st.sampled_from(["2", "3", "mixed"]))
    def test_mixed_batch(self, forms, weighted):
        starts = [(j, ROUTE_FORMS[form]())
                  + ((0.5 + j,) if weighted == "3"
                     or (weighted == "mixed" and j % 2) else ())
                  for j, form in enumerate(forms)]
        assert (pack_outcome(_pack_starts, starts)
                == pack_outcome(reference_pack, starts))

    def test_active_id_named_before_routes_are_read(self):
        starts = [("new", [0]), ("active", np.array([9.5]))]
        assert pack_outcome(_pack_starts, starts) == (
            KeyError, "\"flow 'active' is already active\"")

    @pytest.mark.parametrize("form", sorted(ROUTE_FORMS))
    def test_the_compiled_pass_takes_exactly_the_common_forms(self, form):
        """It packs a valid batch of exact int64 or uint32 ndarrays, as
        the reference does, and hands anything else back."""
        starts = [(j, ROUTE_FORMS[form]()) for j in range(3)]
        packed = kernels.pack_starts(starts, {"active": 0}, 4, 6)
        assert (packed is not None) == (form in COMPILED_FORMS)
        if packed is not None:
            assert (pack_outcome(kernels.pack_starts, starts)
                    == pack_outcome(reference_pack, starts))

    @pytest.mark.parametrize("weight", PACK_WEIGHTS,
                             ids=[repr(w) for w in PACK_WEIGHTS])
    def test_every_weight(self, weight):
        for odd in range(3):  # first, in the middle, last
            starts = [(j, np.array([j, 5]), weight if j == odd else 0.5 + j)
                      for j in range(3)]
            assert (pack_outcome(_pack_starts, starts)
                    == pack_outcome(reference_pack, starts))

    @pytest.mark.parametrize("case", sorted(HOSTILE_STARTS))
    def test_hostile_ids_and_start_shapes(self, case):
        """Ids whose hash or == runs code, and starts that are not
        2-/3-tuples: the same outcome, and the same index after it."""
        outcomes = []
        for packer in (_pack_starts, reference_pack):
            index = {"active": 0, 7: 1}
            try:
                ids, lengths, flat, weights = packer(
                    HOSTILE_STARTS[case](index), index, 4, 6)
                outcome = (list(map(repr, ids)), lengths.tobytes(),
                           flat.tobytes(), weights is None)
            except Exception as exc:  # the outcome under test
                outcome = (type(exc), str(exc))
            outcomes.append((outcome, [(repr(key), value)
                                       for key, value in index.items()]))
        assert outcomes[0] == outcomes[1]

    def test_a_generator_of_starts(self):
        starts = [(j, np.array([j % 6, 5]), 1.5) for j in range(5)]
        tables = make_table(), make_table()
        tables[0].apply_churn(starts=(start for start in starts))
        tables[1].apply_churn(starts=starts)
        assert tables[0].flow_ids() == tables[1].flow_ids()
        assert tables[0].routes.tobytes() == tables[1].routes.tobytes()
        assert tables[0].weights.tobytes() == tables[1].weights.tobytes()

    def test_no_reference_is_leaked_or_lost(self):
        """1000 packed and 1000 handed-back batches of each kind leave
        every route's and id's reference count as it was."""
        routes = [np.array([j % 6, 5]) for j in range(6)]
        routes.append(np.array([2, 3], dtype=">u4"))
        ids = [f"flow-{j}" for j in range(len(routes))]
        index = {ids[3]: 0}
        fresh = [(ids[j], routes[j]) for j in range(len(routes)) if j != 3]
        weighted = [start + (1.5,) for start in fresh]
        batches = [
            (fresh, True), (weighted, True),
            (fresh + [(ids[3], routes[3])], False),        # an active id
            (fresh[:-1] + [(ids[6], [2, 3])], False),      # a list route
            (weighted[:2] + [(ids[2], routes[2], 0.0)], False),
            (fresh[:2] + [weighted[2]], False),            # mixed arity
            (fresh[:2] + [(ids[2], np.arange(6)[::2])], False),  # strided
            ([(["unhashable"], routes[0])], False),
        ]
        counts = [sys.getrefcount(x) for x in routes + ids]
        for starts, packs in batches:
            for _ in range(1000):
                packed = kernels.pack_starts(starts, index, 4, 6)
                assert (packed is not None) == packs
            del packed
        assert [sys.getrefcount(x) for x in routes + ids] == counts

    def test_insert_routes_equals_the_masked_write_and_min_fold(self):
        """Every hop column straight from the flat routes, middle-aligned,
        and the bottleneck of min_link_value's fold, NaNs and signed
        zeros included, whatever the pad entry holds."""
        rng = np.random.default_rng(4)
        for width in range(1, 6):
            for trial in range(20):
                k, n0, pad = int(rng.integers(1, 40)), 3, 6
                lengths = rng.integers(1, width + 1, size=k)
                flat = rng.integers(0, 7, size=int(lengths.sum()))
                padded = rng.choice(HOSTILE_CAPACITIES, size=7)
                routes = np.full((width, k + 9), pad)
                before = routes.copy()
                bottleneck = np.empty(k)
                kernels.insert_routes(flat, lengths, routes, n0, pad,
                                      padded, bottleneck)
                rows = np.full((k, width), pad)
                rows[middle_aligned(lengths, width).T] = flat
                before[:, n0:n0 + k] = rows.T
                assert routes.tobytes() == before.tobytes()
                want = kernels.min_link_value(padded, routes[:, n0:n0 + k],
                                              k, np.empty(k))
                assert bottleneck.tobytes() == want.tobytes(), (width, trial)



# ----------------------------------------------------------------------
# add_flow against the scalar insert it was before it packed one start
# ----------------------------------------------------------------------
def reference_add_flow(table, flow_id, route, weight=1.0):
    """``FlowTable.add_flow`` as a scalar insert: its own checks, one
    masked column write, ``min`` over the padded capacities.  The
    oracle every route form and weight must add or fail exactly like."""
    if flow_id in table._index_of:
        raise KeyError(f"flow {flow_id!r} is already active")
    route = np.asarray(route, dtype=np.int64)
    if route.ndim != 1 or len(route) == 0:
        raise ValueError(_BAD_ROUTE)
    if len(route) > table.max_route_len:
        raise ValueError(
            f"route has {len(route)} hops; table supports "
            f"{table.max_route_len}")
    if np.any(route < 0) or np.any(route >= table.links.n_links):
        raise ValueError("route contains an unknown link index")
    if not weight > 0:
        raise ValueError("flow weight must be positive")
    if table._n == len(table._weights):
        table._grow()
    if len(route) > table.width:
        table._widen(len(route))
    idx = table._n
    slots = middle_aligned(np.array([len(route)]), table.width)[:, 0]
    table._routes[slots, idx] = route
    table._weights[idx] = weight
    table._ids[idx] = flow_id
    handle = int(table._handle_at[idx])
    table._row_of[handle] = idx
    table._index_of[flow_id] = handle
    for column in table._columns:
        column._data[idx] = column.default
        column.stale_from = min(column.stale_from, idx)
    table._bottleneck._data[idx] = table._capacity_padded()[route].min()
    table._n += 1
    table.version += 1
    return idx


ADD_WEIGHTS = (1.0, 2, True, np.float64(0.5), np.float32(0.1), float("nan"),
               0.0, -0.0, float("inf"), -1.0, "2", None)
ADD_IDS = ("new", "active", ("tuple", 1), ["unhashable"])


def add_outcome(add, flow_id, route, weight):
    """What one add does to a 63-flow table (one add from a growth):
    the exception, or the returned index and every array's bytes."""
    table = FlowTable(LinkSet([10.0, 4.0, 40.0, 7.0, 5.0, 2.5]),
                      max_route_len=4)
    column = table.add_column(default=-2.0)
    table.apply_churn(starts=[("active", [0, 1])]
                      + [(j, [j % 6]) for j in range(62)])
    column.stale_from = table.n_flows
    try:
        result = add(table, flow_id, route, weight)
    except Exception as exc:  # the outcome under test
        result = (type(exc), str(exc))
    table.audit()
    return (result, table._routes.tobytes(), table._weights.tobytes(),
            table._ids.tolist(), table.bottleneck_capacity().tobytes(),
            dict(table._index_of), table._handle_at.tobytes(),
            table._row_of.tobytes(), column._data.tobytes(),
            column.stale_from, table.version, table.n_flows)


class TestAddFlowOutcome:
    """``add_flow`` keeps the scalar insert's outcome for every route
    form, weight and kind of id: the same exception and message, or
    the same index and table bytes."""

    @pytest.mark.parametrize("form", sorted(ROUTE_FORMS))
    def test_every_weight_and_id(self, form):
        for flow_id in ADD_IDS:
            for weight in ADD_WEIGHTS:
                route = ROUTE_FORMS[form]
                assert (add_outcome(FlowTable.add_flow, flow_id, route(),
                                    weight)
                        == add_outcome(reference_add_flow, flow_id, route(),
                                       weight)), (flow_id, weight)


# ----------------------------------------------------------------------
# remove_flow against the scalar swap-remove it was before it became a
# batch of one
# ----------------------------------------------------------------------
def reference_remove_flow(table, flow_id):
    """``FlowTable.remove_flow`` as a scalar swap-remove: the last row
    moves into the hole, one array at a time.  The sequential oracle
    the batched removal must land on exactly, row for row."""
    handle = table._index_of.pop(flow_id)
    idx = int(table._row_of[handle])
    last = table._n - 1
    if idx != last:
        table._routes[:, idx] = table._routes[:, last]
        table._weights[idx] = table._weights[last]
        table._ids[idx] = table._ids[last]
        moved = table._handle_at[last]
        table._handle_at[idx] = moved
        table._row_of[moved] = idx
        for column in table._columns:
            column._data[idx] = column._data[last]
            if last >= column.stale_from:
                column.stale_from = min(column.stale_from, idx)
    table._handle_at[last] = handle
    table._ids[last] = None
    table._routes[:, last] = table.pad_link
    table._n = last
    table.version += 1
    return idx


REMOVE_IDS = ("first", "middle", ("tuple", 3), "last", "ghost",
              ["unhashable"])


def remove_outcome(remove, flow_id, stale_from):
    """What one removal does to a 64-flow table with a float and a bool
    column whose watermark is ``stale_from``: the exception type, or
    the returned row, and every array's bytes."""
    table = FlowTable(LinkSet([10.0, 4.0, 40.0, 7.0, 5.0, 2.5]),
                      max_route_len=4)
    floats = table.add_column(default=-2.0)
    flags = table.add_column(default=False, dtype=bool)
    ids = ["first"] + [j for j in range(30)] + ["middle"] + [
        ("tuple", j) for j in range(31)] + ["last"]
    table.apply_churn(starts=[(flow_id_, [j % 6, (j + 2) % 6][:1 + j % 2],
                               1.0 + j) for j, flow_id_ in enumerate(ids)])
    floats.data[:] = np.arange(table.n_flows) * 0.5
    flags.data[:] = np.arange(table.n_flows) % 3 == 0
    floats.stale_from = flags.stale_from = stale_from
    try:
        result = remove(table, flow_id)
    except Exception as exc:  # the outcome under test
        result = type(exc)
    table.audit()
    return (result, table._routes.tobytes(), table._weights.tobytes(),
            table._ids.tolist(), table.bottleneck_capacity().tobytes(),
            dict(table._index_of), table._handle_at.tobytes(),
            table._row_of.tobytes(), floats._data.tobytes(),
            flags._data.tobytes(), floats.stale_from, flags.stale_from,
            table.version, table.n_flows)


class TestRemoveFlowOutcome:
    """``remove_flow`` keeps the scalar swap-remove's outcome for every
    row the id sits in and every watermark: the same exception type,
    or the same returned row and table bytes."""

    @pytest.mark.parametrize("stale_from", [0, 1, 5, 31, 63, 64])
    def test_every_row_and_watermark(self, stale_from):
        for flow_id in REMOVE_IDS:
            assert (remove_outcome(FlowTable.remove_flow, flow_id,
                                   stale_from)
                    == remove_outcome(reference_remove_flow, flow_id,
                                      stale_from)), flow_id

    def test_an_unknown_id_names_itself(self):
        """The batch's message: ``dict.pop``'s bare repr of the key
        became "flow ... is not active" when the scalar path went."""
        table = make_table()
        table.add_flow("a", [0])
        with pytest.raises(KeyError) as err:
            table.remove_flow("ghost")
        assert err.value.args == ("flow 'ghost' is not active",)
        assert table.flow_ids() == ["a"]
        table.audit()


# ----------------------------------------------------------------------
# the compiled swap-remove against the scalar oracle
# ----------------------------------------------------------------------
COLUMN_DTYPES = (np.float64, np.bool_, np.float32, np.int32, np.int64,
                 np.uint8)
SWAP_ORDERS = ("fifo", "random", "tangled")


def swap_twins(width):
    """A table removed from in batches and its twin removed from by
    ``reference_remove_flow``, each with a column of every dtype."""
    tables = []
    for _ in range(2):
        table = FlowTable(LinkSet(np.arange(1.0, 8.0)), max_route_len=width)
        for dtype in COLUMN_DTYPES:
            table.add_column(default=np.array(7).astype(dtype), dtype=dtype)
        tables.append(table)
    return tables


def table_bytes(table):
    """A table's arrays as bytes: the routes, ids and handle stack over
    the whole capacity, the weights, columns and ``_row_of`` entries of
    the live flows (past them a batch and a sequence of swap-removes
    leave different stale values, which nothing reads)."""
    n = table.n_flows
    return (table._routes.tobytes(), table._ids.tolist(),
            table._handle_at.tobytes(), dict(table._index_of), n,
            table._weights[:n].tobytes(),
            table._row_of[table._handle_at[:n]].tobytes(),
            [column._data[:n].tobytes() for column in table._columns])


class TestSwapRemove:
    """``remove_flows``' compiled pass lands on the scalar oracle's
    bytes, whatever the batch's shape, the storage width and the
    columns' dtypes, and keeps every id's reference count."""

    @pytest.mark.parametrize("order", SWAP_ORDERS)
    @pytest.mark.parametrize("width", [1, 2, 3, 4, 5])
    def test_batches_equal_the_scalar_swap_remove(self, width, order):
        rng = np.random.default_rng(width * 10 + len(order))
        tables = swap_twins(width)
        alive, next_id = [], 0
        for step in range(12):
            starts = []
            for _ in range(int(rng.integers(1, 30))):
                route = rng.integers(0, 7, size=int(rng.integers(1, width + 1)))
                starts.append((("f", next_id) if next_id % 3 else next_id,
                               route, float(rng.integers(1, 9))))
                alive.append(starts[-1][0])
                next_id += 1
            n = tables[0].n_flows
            k = int(rng.integers(1, min(n, 12) + 1)) if n else 0
            ids = tables[0].flow_ids()
            if not k:
                ends = []
            elif order == "fifo":
                ends = alive[:k]
            elif order == "random":
                ends = [ids[p] for p in rng.choice(n, size=k, replace=False)]
            else:
                ends = [ids[p] for p in victim_positions(
                    ("head_then_tail", "tail_desc", "interleaved",
                     "all")[step % 4], n, k, rng)]
            watermark = int(rng.choice([0, n // 2, n]))
            for table in tables:
                for column in table._columns[1:]:
                    column.stale_from = watermark
            was_at = {flow_id: row for row, flow_id in enumerate(ids)}
            tables[0].apply_churn(starts=starts, ends=ends)
            for flow_id in ends:
                reference_remove_flow(tables[1], flow_id)
            tables[1].apply_churn(starts=starts)
            alive = [i for i in alive if i not in set(ends)]
            values = rng.integers(0, 200, size=len(starts))
            for table in tables:
                # The watermark's contract: every row below it holds a
                # flow that sat below it before, none a fresh default.
                # (A tangled chain may lower it further than the batch.)
                for column in table._columns[1:]:
                    assert all(was_at[flow_id] < watermark for flow_id
                               in table.flow_ids()[:column.stale_from])
                    column.data[table.n_flows - len(starts):] = values
                table.audit()
            assert table_bytes(tables[0]) == table_bytes(tables[1]), step

    def test_no_id_reference_is_leaked_or_lost(self):
        """1000 batches (random ones, mostly untangled, and tangled
        ones; half of them with a watermark below n, which takes the
        replayed moves) leave every id's reference count as it was."""
        ids = [f"flow-{j}" for j in range(40)] + [("t", j) for j in range(20)]
        table = make_table()
        column = table.add_column(default=1.0)
        route = np.array([0, 1])
        table.apply_churn(starts=[(flow_id, route) for flow_id in ids])
        counts = [sys.getrefcount(flow_id) for flow_id in ids]
        rng = np.random.default_rng(8)
        for b in range(1000):
            order = ("random", "tail_desc", "head_then_tail")[b % 3]
            rows = victim_positions(order, table.n_flows, 1 + b % 9, rng)
            live = table.flow_ids()
            batch = [live[p] for p in rows]
            del live
            column.stale_from = table.n_flows // 2 if b % 2 else table.n_flows
            table.remove_flows(batch)
            table.apply_churn(starts=[(flow_id, route) for flow_id in batch])
        del batch
        table.audit()
        assert [sys.getrefcount(flow_id) for flow_id in ids] == counts
