"""FlowTable: churn bookkeeping and the vectorized NUM kernels."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import FlowTable, LinkSet


def make_table(n_links=6, max_route_len=4):
    return FlowTable(LinkSet(np.full(n_links, 10.0)),
                     max_route_len=max_route_len)


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
                sequential.remove_flow(flow_id)
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
        v0 = table.version
        with pytest.raises(KeyError):
            table.remove_flows([0, 1, "ghost"])
        assert table.n_flows == 5 and table.version == v0
        assert 0 in table and 1 in table

    def test_duplicate_id_rejected_atomically(self):
        table = make_table()
        table.apply_churn(starts=[(i, [0]) for i in range(5)])
        v0 = table.version
        with pytest.raises(KeyError):
            table.remove_flows([2, 2])
        assert table.n_flows == 5 and table.version == v0

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
            sequential.remove_flow(flow_id)
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
            sequential.remove_flow(victim)
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
    """A batched table and a twin driven one flow at a time."""

    def __init__(self, id_kind, max_route_len=4):
        self.make_id = ID_KINDS[id_kind]
        self.tables = [make_table(max_route_len=max_route_len)
                       for _ in range(2)]
        self.columns = [(t.add_column(default=-1.0),
                         t.add_column(default=True, dtype=bool))
                        for t in self.tables]
        for table in self.tables:
            table.start_change_log()
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
            twin.remove_flow(flow_id)
        for start in starts:
            twin.add_flow(*start)
        # give the new flows distinguishable column state
        for table, (floats, flags) in zip(self.tables, self.columns):
            for j, start in enumerate(starts):
                row = table.index_of(start[0])
                floats.data[row] = float(self.counter * 100 + j)
                flags.data[row] = bool(j % 2)

    def check(self, sync=True, drain=True):
        batched, twin = self.tables
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
        if drain:
            rows_b, all_b = batched.consume_changes()
            rows_t, all_t = twin.consume_changes()
            assert rows_b.dtype == np.int64
            assert rows_b.tolist() == rows_t.tolist() and all_b == all_t
        if sync:
            n = batched.n_flows
            for table in self.tables:
                indptr, indices, nnz = table._route_index()
                width = table._csr_width
                assert nnz == n * width
                assert np.array_equal(indices[:nnz].reshape(n, width),
                                      table.routes[:, :width])
                assert np.array_equal(indptr[: n + 1],
                                      np.arange(n + 1) * width)
            assert batched._csr_width == twin._csr_width
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
        shapes, restarts, and how often the route index and the change
        log are brought up to date are all drawn."""
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
            twins.check(sync=data.draw(st.booleans(), label="sync"),
                        drain=data.draw(st.booleans(), label="drain"))
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
            twins.tables[1].remove_flow(victim)
            twins.check()
