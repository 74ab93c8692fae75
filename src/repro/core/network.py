"""Link and flow state shared by all NUM optimizers.

The allocator's hot loop touches every flow and every link once per
iteration, so the representation matters.  Datacenter routes are short
(2 links within a rack, 4 links across the fabric in a two-tier Clos),
which lets us store all routes in a single padded, **hop-major**
integer matrix of shape ``(width, capacity)``:

* ``routes[c, f]`` is the link index in storage column ``c`` of flow
  ``f``; each column is contiguous over the flows;
* a ``k``-hop route is *middle-aligned*: its first ``ceil(k/2)`` hops
  sit in columns ``0, 1, ...`` and the other ``floor(k/2)`` in the last
  columns, right-aligned, so reading a flow's column top to bottom
  still gives its hops in order;
* unused slots (the middle of a short route) point at a *virtual pad
  link* (index ``n_links``) whose price is pinned to zero and whose
  capacity is infinite.

The alignment follows the up/down shape of datacenter routes: on the
two- and three-tier Clos fabrics every link always lands in the same
column (host uplink in column 0, ToR->spine in 1, spine->ToR in
``width - 2``, host downlink in ``width - 1``), which is what keeps the
kernels' per-column scatters in the flow order of a flow-major layout
(see :mod:`repro.core.kernels`).  The matrix is only as wide as the
longest route the table has held (:attr:`FlowTable.width`: it starts
at one slot, widens on demand up to ``max_route_len`` and never
shrinks; widening moves the right-aligned half to the new right
edge), so a two-tier Clos table is 4 slots wide rather than
``max_route_len``.  The storage itself is what the NUM kernels read;
there is no derived index to keep in sync.  One optimizer iteration is then a
handful of vectorized operations per column (contiguous gathers,
scatters that add the per-flow values into per-link sums, column
folds for per-flow sums/maxima), with no Python-level per-flow work.  The
kernels themselves live in :mod:`repro.core.kernels`, which fixes one
canonical chunked reduction order for every caller.  Flowlet churn —
the common case in Flowtune — is O(route length) per event: adding
appends a flow; removal swaps the last flow into the hole so the
arrays stay dense.  Ids reach rows through fixed per-flow *handles*
(:class:`FlowTable`), so moving a row costs no dict write.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import Any, TypeVar

import numpy as np
import numpy.typing as npt

from . import kernels

__all__ = ["LinkSet", "FlowTable", "FlowColumn"]

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]

_INITIAL_CAPACITY = 64
_V = TypeVar("_V")
_BAD_ROUTE = "route must be a non-empty 1-D sequence of links"


def _pop_ends(ids: list[Hashable],
               index_of: dict[Hashable, _V]) -> list[_V]:
    """Pop a batch of ending flow ids from ``index_of`` and return
    their values, in one pass at C speed.

    The one ends validation of every scheduler: an unknown or repeated
    id (a repeat is unknown by the time it is popped again) raises
    ``KeyError`` naming the first offender in batch order, after the
    ids popped before it are put back, so ``index_of`` compares equal
    to what it was (``list.extend`` keeps what the map yielded before
    it raised).
    """
    found: list[_V] = []
    try:
        found.extend(map(index_of.pop, ids))
    except (KeyError, TypeError) as exc:  # TypeError: an unhashable id
        index_of.update(zip(ids, found))
        if isinstance(exc, TypeError):
            raise
        raise KeyError(f"flow {ids[len(found)]!r} is not active") from None
    return found


def _pack_starts(starts: list[tuple[Any, ...]],
                 index_of: dict[Hashable, Any], max_route_len: int,
                 n_links: int) -> tuple[list[Hashable], IntArray,
                                        IntArray, FloatArray | None]:
    """Validate a non-empty ``(flow_id, route[, weight])`` batch and
    turn it into columns ``(ids, lengths, flat, weights)``.

    ``flat`` is the int64 concatenation of the routes, ``lengths``
    their hop counts, ``weights`` is ``None`` for a batch of 2-tuples.
    The one starts parser of :class:`FlowTable`: ids must be absent
    from ``index_of`` (``KeyError`` naming the first offender in batch
    order; the insert catches in-batch repeats), routes non-empty,
    1-D, at most ``max_route_len`` hops over links ``[0, n_links)``,
    weights positive (``ValueError``).

    The common batch (tuples of one arity, float weights, int64 or
    uint32 ndarray routes, all valid) is checked and packed in one
    compiled pass, :func:`kernels.pack_starts`.  Any other batch (lists,
    tuples, memoryviews or ndarray subclasses as routes, other dtypes,
    2-D or strided arrays, mixed
    arities, any error) comes here instead, where every check is one
    pass over a column and a scalar loop runs only to unpack a mixed
    2-/3-tuple batch and to name an offending id; so the errors and
    their messages are this path's.
    """
    packed = kernels.pack_starts(starts, index_of, max_route_len, n_links)
    if packed is not None:
        return packed
    k = len(starts)
    ids: list[Hashable]
    weights: FloatArray | None = None
    try:
        # Column-wise unpack; the unpacking targets check every start's
        # shape on the way.  (``zip(*starts)`` would allocate one
        # GC-tracked iterator per start: past 700 of them every batch
        # pays for garbage collections.)
        if len(starts[0]) == 2:
            ids = [flow_id for flow_id, _ in starts]
            routes = [route for _, route in starts]
        else:
            ids = [flow_id for flow_id, _, _ in starts]
            routes = [route for _, route, _ in starts]
            weights = np.fromiter((weight for _, _, weight in starts),
                                  dtype=np.float64, count=k)
    except ValueError:  # mixed shapes; a start of neither raises below
        ids, routes, weights = [], [], np.ones(k)
        for j, start in enumerate(starts):
            if len(start) == 3:
                flow_id, route, weights[j] = start
            else:
                flow_id, route = start
            ids.append(flow_id)
            routes.append(route)
    # keys().isdisjoint iterates the *batch* (hash probes into the
    # index) — set(ids).isdisjoint(index_of) would walk every active
    # flow instead.
    if not index_of.keys().isdisjoint(ids):
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


class FlowColumn:
    """A per-flow scalar array kept positionally aligned with a
    :class:`FlowTable` under swap-remove churn.

    Obtained from :meth:`FlowTable.add_column`.  The table writes
    ``default`` into a flow's slot when it is added and swap-moves the
    last slot into removal holes, so ``data`` always lines up with
    ``FlowTable.flow_ids()`` — consumers (e.g. the allocator's
    ``last_sent`` rates) never do per-flow dict bookkeeping.

    ``stale_from`` is a watermark: no row below it holds a ``default``
    the table wrote.  The table lowers it to the first row it fills
    with ``default`` and to a removal hole whose mover came from at or
    above it; a consumer that has replaced the defaults in rows
    ``[stale_from, n)`` may raise it to ``n`` and scan only from there
    next time (the optimizer's cap prices do).
    """

    __slots__ = ("_table", "default", "_data", "stale_from")

    def __init__(self, table, default, dtype):
        self._table = table
        self.default = default
        self._data = np.full(len(table._weights), default, dtype=dtype)
        self.stale_from = 0

    @property
    def data(self):
        """Writable view aligned with the table's positional order."""
        return self._data[: self._table._n]


class LinkSet:
    """The set of directed links being allocated, with capacities.

    Capacities are in user-chosen rate units (the experiments use
    Gbit/s so that prices and Hessians stay well-scaled in float64 and
    the float32 real-time variants remain usable).
    """

    def __init__(self, capacities: npt.ArrayLike) -> None:
        self.capacity = np.asarray(capacities, dtype=np.float64).copy()
        if self.capacity.ndim != 1:
            raise ValueError("capacities must be a 1-D array")
        if np.any(self.capacity <= 0):
            raise ValueError("link capacities must be strictly positive")

    @property
    def n_links(self) -> int:
        return len(self.capacity)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"LinkSet(n_links={self.n_links})"


class FlowTable:
    """Dense, padded table of active flows and their routes.

    Flows are kept contiguous under churn via swap-remove, so positional
    indices are unstable; stable identity is the user-supplied
    ``flow_id``.  All query methods return arrays aligned with the
    current positional order, and :meth:`flow_ids` exposes that order.
    ``max_route_len`` caps the hop count a route may have; the storage
    is :attr:`width` hop columns of middle-aligned routes.

    An id maps to a *handle*, fixed for the flow's lifetime, and
    ``_row_of[handle]`` to its row; ``_handle_at[row]`` moves with the
    row.  A batch re-keys its moved flows in its compiled pass, not with
    a dict write each, and the dense layout is unchanged (:meth:`audit`).
    """

    def __init__(self, links: LinkSet, max_route_len: int = 8) -> None:
        if max_route_len < 1:
            raise ValueError("max_route_len must be at least 1")
        self.links = links
        self.max_route_len = int(max_route_len)
        self.pad_link = links.n_links  # virtual link used for padding
        self._columns = []
        # Hop-major: one column wide until a longer route arrives
        # (_widen).  Flows at and past n hold only the pad link, so a
        # single add writes just the real hops.
        self._routes = np.full((1, _INITIAL_CAPACITY), self.pad_link,
                               dtype=np.int64)
        self._weights = np.ones(_INITIAL_CAPACITY)
        # Positionally-aligned flow ids, maintained under swap-remove
        # and batched churn exactly like every other column.  An object
        # ndarray so :meth:`flow_id_array` can expose an O(1) view
        # instead of rebuilding a list per allocator iterate.
        self._ids = np.empty(_INITIAL_CAPACITY, dtype=object)
        # id -> handle -> row (class docstring); ``_handle_at[n:]`` is
        # the stack of free handles, top at ``n``.  Process-local.
        self._index_of = {}
        self._handle_at = np.arange(_INITIAL_CAPACITY)
        self._row_of = np.arange(_INITIAL_CAPACITY)
        self._n = 0
        #: incremented on every add/remove; lets optimizers cache
        #: per-flow derived arrays between churn events.
        self.version = 0
        #: incremented by :meth:`refresh_capacity` only; lets optimizers
        #: keep capacity-derived per-flow columns across churn.
        self.capacity_version = 0
        # The reusable max_link_value reduction output (the kernels
        # allocate their chunk-sized gathers themselves) and the
        # pad()-extended capacity vector, cached until refresh_capacity
        # invalidates it.
        self._max_out = np.empty(_INITIAL_CAPACITY)
        self._padded_capacity = None
        # Per-flow bottleneck capacity, maintained incrementally:
        # O(route length) on add, O(1) swap on remove, full recompute
        # deferred until the first read after link capacities change
        # (refresh_capacity sets the dirty flag).
        self._capacity_dirty = False
        self._bottleneck = self.add_column(default=np.inf)

    def add_column(self, default: float = 0.0,
                   dtype: npt.DTypeLike = np.float64) -> FlowColumn:
        """Register a per-flow side array the table keeps aligned.

        Existing flows are filled with ``default``; newly added flows
        start at ``default``; swap-remove moves entries with the flow
        they belong to.  Returns the :class:`FlowColumn`.
        """
        column = FlowColumn(self, default, dtype)
        self._columns.append(column)
        return column

    # ------------------------------------------------------------------
    # churn
    # ------------------------------------------------------------------
    def add_flow(self, flow_id: Hashable, route: npt.ArrayLike,
                 weight: float = 1.0) -> int:
        """Register a flow; returns its (unstable) positional index.

        ``route`` is a sequence of link indices.  Every flow must
        traverse at least one link (the paper's feasibility condition
        ``L(s) != {}``).  The columnar insert of one start: the route
        goes through :func:`_pack_starts`'s checks, then ``weight``
        must be ``> 0`` (compared as given, so a non-number raises
        ``TypeError`` where a batch would parse it).
        """
        ids, lengths, flat, _ = _pack_starts(
            [(flow_id, route)], self._index_of, self.max_route_len,
            self.links.n_links)
        if not weight > 0:
            raise ValueError("flow weight must be positive")
        weights = np.empty(1)
        weights[0] = weight  # converted as a weight-column write would
        self._insert(ids, lengths, flat, weights)
        return self._n - 1

    def remove_flow(self, flow_id: Hashable) -> int:
        """Remove a flow by id: :meth:`remove_flows` of one id.  Returns
        the row it left (the hole the last row moved into), which a
        freed handle's ``_row_of`` entry keeps."""
        handle = self._index_of.get(flow_id)
        self.remove_flows((flow_id,))
        return int(self._row_of[handle])

    def remove_flows(self, flow_ids: Iterable[Hashable]) -> None:
        """Batched removal: the mirror of the batched add.

        Validates the whole batch up front at C speed, popping the ids
        from the index in one pass (an unknown or duplicated id raises
        ``KeyError`` naming the first offender in batch order, with
        *no* flow removed and the index restored) and lands in exactly
        the positional layout one-at-a-time swap-removes in the same
        order would produce (a property the drivers rely on for
        cross-revision rate comparisons).  Step ``i`` of that chain
        removes row ``r_i`` while the last slot is ``l_i = n - 1 - i``;
        it is *tangled* with another step only if ``r_i`` lies in the
        doomed tail (``r_i >= n - k``) or ``l_i`` is itself a removed
        row.  With no tangled step (none under FIFO churn) one compiled
        pass, :func:`kernels.swap_remove`, moves row ``l_i`` into hole
        ``r_i`` in every array (hop columns, weights, ids, handles and
        every registered :class:`FlowColumn`) and frees the tail; a
        tangled batch (about ``2k/n`` of its steps) is replayed here
        (:meth:`_net_moves`) and its net moves go through the same
        pass.  The whole batch costs one version bump.
        """
        ids = list(flow_ids)
        if not ids:
            return
        handles = _pop_ends(ids, self._index_of)
        n = self._n
        # A column whose watermark lies below n needs the moves to lower
        # it (rare: a second batch before a consumer raised it to n).
        watched = [column for column in self._columns
                   if 0 < column.stale_from < n]
        if watched or not self._swap_remove(handles):
            holes, movers = self._net_moves(handles)
            for column in watched:
                reached = holes[movers >= column.stale_from]
                if len(reached):
                    column.stale_from = min(column.stale_from,
                                            int(reached.min()))
            self._swap_remove(handles, holes, movers)
        self._n = n - len(ids)
        self.version += 1

    def _swap_remove(self, handles, holes=None, movers=None):
        """:func:`kernels.swap_remove` over this table's arrays."""
        return kernels.swap_remove(
            handles, holes, movers, self._n, self._routes, self.pad_link,
            self._weights, [column._data for column in self._columns],
            self._ids, self._handle_at, self._row_of)

    def _net_moves(self, handles):
        """``(holes, movers)``: the rows the swap chain of removing
        ``handles`` in order moves, each from its original row into its
        final one.  Untangled steps are array arithmetic; only the
        tangled ones replay the chain with dict bookkeeping."""
        handles = np.fromiter(handles, dtype=np.int64, count=len(handles))
        holes = self._row_of[handles]
        n = self._n
        new_n = n - len(handles)
        movers = np.arange(n - 1, new_n - 1, -1)
        if holes.max() >= new_n:
            tangled = holes >= new_n
            tangled[n - 1 - holes[tangled]] = True
            # ``content`` maps slot -> original row now occupying it
            # (only for moved rows), ``slot_of`` a moved original row
            # -> its current slot.  Untangled steps share no key with
            # these, so the replay can skip them.
            content: dict[int, int] = {}
            slot_of: dict[int, int] = {}
            for row, last in zip(holes[tangled].tolist(),
                                 movers[tangled].tolist()):
                slot = slot_of.pop(row, row)
                last_row = content.pop(last, last)
                if slot != last:
                    content[slot] = last_row
                    slot_of[last_row] = slot
            simple = ~tangled
            holes = np.concatenate((holes[simple], np.fromiter(
                content.keys(), dtype=np.int64, count=len(content))))
            movers = np.concatenate((movers[simple], np.fromiter(
                content.values(), dtype=np.int64, count=len(content))))
        return holes, movers

    def apply_churn(self, starts: Iterable[tuple[Any, ...]] = (),
                    ends: Iterable[Hashable] = ()) -> None:
        """Batched churn: remove ``ends``, then add ``starts``.

        ``ends`` is an iterable of flow ids; ``starts`` of
        ``(flow_id, route)`` or ``(flow_id, route, weight)`` tuples.
        Removing first means an id appearing in both is restarted
        (fresh column state), matching flowlet end-then-start.  The
        tuple form is a thin adaptor: :func:`_pack_starts` validates
        the batch and turns it into columns (one compiled pass for the
        common batch), and the columnar insert writes them (one
        capacity check, compiled route and id writes, one version
        bump), which is how the simulation and real-time
        drivers amortize bookkeeping across many flowlet events per
        allocator tick.  Removals go through the batched
        :meth:`remove_flows` (validated atomically, one compiled pass)
        and are applied before the starts are validated, so a bad start
        leaves the ends done and no start applied.
        """
        self.remove_flows(ends)
        starts = list(starts)
        if starts:
            self._insert(*_pack_starts(starts, self._index_of,
                                       self.max_route_len,
                                       self.links.n_links))

    def _insert(self, ids, lengths, flat, weights):
        """Columnar insert of an already-validated batch (the columns
        :func:`_pack_starts` returns) as flows ``[n, n + k)``.

        The flows take the top ``k`` free handles, as ``k`` add_flow
        calls would.  The index entries go in first; an in-batch repeat
        (the index grows by less than ``k``) takes them out again and
        raises ``KeyError`` naming it, before anything else is written.
        One compiled pass (:func:`kernels.insert_routes`) then writes
        each hop column of the block straight from ``flat``, the routes
        middle-aligned, and folds each flow's bottleneck capacity, and
        another (:func:`kernels.place_ids`) the ids and the handles'
        rows."""
        k = len(lengths)
        n0 = self._n
        self.reserve(n0 + k)
        self._index_of.update(zip(ids, self._handle_at[n0:n0 + k].tolist()))
        if len(self._index_of) != n0 + k:
            for flow_id in ids:
                self._index_of.pop(flow_id, None)
            seen: set[Hashable] = set()
            repeat = next(i for i in ids if i in seen or seen.add(i))
            raise KeyError(f"flow {repeat!r} is already active")
        widest = int(lengths.max())
        if widest > self.width:
            self._widen(widest)
        block = slice(n0, n0 + k)
        self._weights[block] = 1.0 if weights is None else weights
        for column in self._columns:
            column._data[block] = column.default
            column.stale_from = min(column.stale_from, n0)
        kernels.insert_routes(flat, lengths, self._routes, n0, self.pad_link,
                              self._capacity_padded(),
                              self._bottleneck._data[block])
        kernels.place_ids(ids, n0, self._ids, self._handle_at, self._row_of)
        self._n += k
        self.version += 1

    def reserve(self, n_flows: int) -> None:
        """Pre-grow storage to hold ``n_flows`` without reallocation."""
        while len(self._weights) < n_flows:
            self._grow()

    def _capacity_padded(self):
        """The pad()-extended capacity vector (``+inf`` pad), cached
        between :meth:`refresh_capacity` calls — capacity edits must go
        through that method (the bottleneck column contract already
        requires it)."""
        padded = self._padded_capacity
        if padded is None:
            padded = self.pad(self.links.capacity, pad_value=np.inf)
            self._padded_capacity = padded
        return padded

    def refresh_capacity(self) -> None:
        """Mark capacity-derived per-flow caches stale after link
        capacities were changed in place (§7 external traffic).

        O(1): the bottleneck column is recomputed lazily at the next
        :meth:`bottleneck_capacity` call, so a controller folding in
        many per-link observations per tick pays one sweep, not one
        per observation.  Bumps ``version`` and ``capacity_version``
        so optimizer-side caches invalidate too.
        """
        self._capacity_dirty = True
        self._padded_capacity = None
        self.version += 1
        self.capacity_version += 1

    def _grow(self):
        new_cap = max(_INITIAL_CAPACITY, 2 * len(self._weights))
        self._reallocate_routes(new_cap, self.width)
        weights = np.empty(new_cap)
        weights[self._n:] = 1.0
        weights[: self._n] = self._weights[: self._n]
        ids = np.empty(new_cap, dtype=object)
        ids[: self._n] = self._ids[: self._n]
        self._weights, self._ids = weights, ids
        # The new handles go under the free stack, numbered upward.
        new = np.arange(len(self._handle_at), new_cap)
        self._handle_at = np.concatenate((self._handle_at, new))
        self._row_of = np.concatenate((self._row_of, new))
        for column in self._columns:
            data = np.empty(new_cap, dtype=column._data.dtype)
            data[self._n:] = column.default
            data[: self._n] = column._data[: self._n]
            column._data = data

    def _widen(self, width):
        """Make room for a ``width``-hop route (validated by the caller);
        the storage never narrows again."""
        self._reallocate_routes(len(self._weights), width)

    def _reallocate_routes(self, capacity, width):
        # Every held route keeps its first half in the left columns
        # [0, ceil(w/2)) and its second half in the right columns, so
        # widening keeps the left zone and moves the right one to the
        # new right edge: the routes stay middle-aligned at the new
        # width, as if inserted there.
        routes = np.full((width, capacity), self.pad_link, dtype=np.int64)
        old, n = self._routes, self._n
        left = (len(old) + 1) // 2
        routes[:left, :n] = old[:left, :n]
        routes[width - (len(old) - left):, :n] = old[left:, :n]
        self._routes = routes

    # ------------------------------------------------------------------
    # queries (views aligned with positional order)
    # ------------------------------------------------------------------
    @property
    def n_flows(self) -> int:
        return self._n

    def __contains__(self, flow_id):
        return flow_id in self._index_of

    def index_of(self, flow_id: Hashable) -> int:
        """Reach: invariant — tests check column alignment by flow id."""
        return int(self._row_of[self._index_of[flow_id]])

    def audit(self) -> None:
        """Raise ``AssertionError`` naming the first broken invariant
        of the id -> handle -> row maps: live ids, handles and rows
        ``0..n-1`` in one bijection, each free handle on the stack once,
        and no id and only pad links past row ``n``.

        Reach: invariant — tests audit the table after every churn step.
        """
        n, handles, ids = self._n, self._handle_at, self._ids.tolist()
        for invariant, holds in (
            ("every handle is live or free exactly once", lambda: (
                np.array_equal(np.sort(handles), range(len(self._weights))))),
            ("_row_of inverts _handle_at on the live rows", lambda: (
                np.array_equal(self._row_of[handles[:n]], range(n)))),
            ("the index maps each live id to its row's handle", lambda: (
                len(self._index_of) == n and list(map(
                    self._index_of.get, ids[:n])) == handles[:n].tolist())),
            ("no id past the live rows", lambda: ids[n:].count(None)
             == len(ids) - n),
            ("only pad links past the live rows", lambda: (
                self._routes[:, n:] == self.pad_link).all())):
            if not holds():
                raise AssertionError(f"FlowTable invariant broken: {invariant}")

    def flow_ids(self) -> list[Any]:
        """Current positional order of flow ids (list copy)."""
        return self._ids[: self._n].tolist()

    def flow_id_array(self) -> npt.NDArray[Any]:
        """Read-only view of the positionally-aligned id column, O(1).

        Aligned with :attr:`routes`/:attr:`weights` and every
        :class:`FlowColumn`; valid until the next churn event (the
        underlying storage is swap-maintained in place).  Hot-path
        consumers (the allocator's per-iterate notification rendering)
        use this instead of the :meth:`flow_ids` list copy.
        """
        view = self._ids[: self._n]
        view.flags.writeable = False
        return view

    @property
    def width(self) -> int:
        """Hop columns of the storage: the longest route the table has
        held (at least 1, at most ``max_route_len``; it never shrinks)."""
        return len(self._routes)

    @property
    def routes(self) -> IntArray:
        """Hop-major padded route view, shape ``(width, n_flows)``:
        ``routes[:, f]`` is flow ``f``'s middle-aligned route, and the
        rows are the hop columns the kernels read."""
        return self._routes[:, : self._n]

    @property
    def weights(self) -> FloatArray:
        """Per-flow weight view, shape ``(n_flows,)``."""
        return self._weights[: self._n]

    def route_of(self, flow_id: Hashable) -> IntArray:
        """Unpadded route (link-index array) of one flow.

        Reach: invariant — tests read routes back through the hop-major storage
        with it.
        """
        slots = self._routes[:, self.index_of(flow_id)]
        return slots[slots != self.pad_link]

    def _unpadded(self, routes: IntArray) -> tuple[IntArray, IntArray]:
        """``(hop counts, concatenated routes)`` of a hop-major block,
        the columns :meth:`_insert` takes."""
        flows = routes.T
        real = flows != self.pad_link
        return real.sum(axis=1), flows[real]

    def starts_of(self, flow_ids: Iterable[Hashable],
                  ) -> list[tuple[Hashable, IntArray, float]]:
        """``(flow_id, route, weight)`` per id, in order: the starts that
        re-create these flows in another table (the sampled scheduler's
        promotions and demotions, a reference copy).  An unknown id
        raises ``KeyError``."""
        ids = list(flow_ids)
        if not ids:
            return []
        handles = np.fromiter(map(self._index_of.__getitem__, ids),
                              dtype=np.int64, count=len(ids))
        rows = self._row_of[handles]
        lengths, flat = self._unpadded(self._routes[:, rows])
        return list(zip(ids, np.split(flat, np.cumsum(lengths)[:-1]),
                        self._weights[rows].tolist()))

    def hop_counts(self) -> IntArray:
        """Number of real (non-pad) hops per flow."""
        return np.sum(self.routes != self.pad_link, axis=0)

    # ------------------------------------------------------------------
    # vectorized NUM kernels
    # ------------------------------------------------------------------
    def pad(self, per_link: npt.ArrayLike, pad_value: float = 0.0,
            dtype: npt.DTypeLike = np.float64) -> npt.NDArray[Any]:
        """Extend a per-link vector with the pad-link entry."""
        padded = np.empty(self.links.n_links + 1, dtype=dtype)
        padded[:-1] = per_link
        padded[-1] = pad_value
        return padded

    def price_sums(self, prices: npt.ArrayLike) -> FloatArray:
        """Per-flow sums of link prices along each route (rho_s).

        ``prices`` has one entry per real link; slack slots gather the
        pad link's pinned 0.0.  The per-route fold is strictly
        left-to-right in column order, which is hop order with zeros
        in between (bitwise no-ops), so the result is bit-for-bit the
        sequential sum of each route, independent of slot width.
        """
        n = self._n
        if n == 0:
            return np.zeros(0, dtype=np.float64)
        return kernels.price_sums(self.pad(prices), self._routes, n)

    def link_totals(self, per_flow: npt.ArrayLike) -> FloatArray:
        """Scatter per-flow values onto links: ``out[l] = sum_{s in S(l)} v_s``.

        This computes aggregate link load when given rates, and the
        Hessian diagonal when given rate derivatives.  The scatter
        runs over the hop columns (slack lands in the dropped pad
        bin) via the canonical chunked reduction: within each
        fixed-size chunk each link's sum takes column 0's flows in
        position order, then column 1's, and so on, chunk partials
        folded in chunk order — for a link confined to one column
        (every link of a Clos table), flow-position order within each
        chunk.
        """
        n = self._n
        if n == 0:
            return np.zeros(self.links.n_links, dtype=np.float64)
        totals = kernels.link_totals(
            np.ascontiguousarray(per_flow, dtype=np.float64), self._routes,
            n, self.links.n_links + 1)
        return totals[:-1]

    def link_totals2(self, a: npt.ArrayLike, b: npt.ArrayLike,
                     ) -> tuple[FloatArray, FloatArray]:
        """Fused pair of :meth:`link_totals` calls over one slot pass.

        The allocator's price update scatters rates and rate
        derivatives over identical indices every iteration; fused,
        each hop slot is read once for both sums.  Returns
        ``(totals_a, totals_b)``, two contiguous arrays bitwise equal
        to two separate calls.
        """
        n = self._n
        if n == 0:
            zeros = np.zeros(self.links.n_links, dtype=np.float64)
            return zeros, zeros.copy()
        totals_a, totals_b = kernels.link_totals2(
            np.ascontiguousarray(a, dtype=np.float64),
            np.ascontiguousarray(b, dtype=np.float64), self._routes, n,
            self.links.n_links + 1)
        return totals_a[:-1], totals_b[:-1]

    def log_rate_pass(self, prices: npt.ArrayLike, caps: FloatArray | None,
                      rates: FloatArray) -> tuple[FloatArray, FloatArray]:
        """NED's pass for the log utility (:func:`kernels.log_rate_pass`):
        writes each flow's rate ``w / rho`` into ``rates``, ``rho`` being
        its :meth:`price_sums` clamped at ``caps`` (unless ``None``) and
        at ``MIN_PRICE_SUM``.  Returns the link totals of the rates and
        of the rate derivatives, bitwise equal to :meth:`link_totals2`
        over the finished vectors."""
        load, hessian = kernels.log_rate_pass(
            self.pad(prices), self._routes, self._n, caps, self.weights,
            rates)
        return load[:-1], hessian[:-1]

    def f_norm_pass(self, per_link: npt.ArrayLike, rates: FloatArray,
                    epsilon: float, allow_scale_up: bool,
                    mask: tuple[Any, ...] | None = None) -> FloatArray:
        """F-NORM's pass (:func:`kernels.f_norm_pass`): ``rates`` over
        each flow's clamped :meth:`max_link_value` of ``per_link``, in
        a fresh array, with the §6.4 ``mask = (last, pending,
        threshold, changed)`` run on each chunk unless ``None``."""
        return kernels.f_norm_pass(
            self.pad(per_link, pad_value=-np.inf), self._routes, self._n,
            rates, epsilon, allow_scale_up, mask)

    def max_link_value(self, per_link: npt.ArrayLike) -> FloatArray:
        """Per-flow max of a per-link quantity along each route.

        Used by F-NORM: each flow is scaled by its most-congested
        link's ratio.  The per-route max (max is order-insensitive,
        so segment order cannot change the bits; slack slots
        contribute the pad link's ``-inf`` and never win) is folded
        column by column over the uniform slots.  The returned array
        is a reusable reduction buffer — valid until the next
        ``max_link_value`` call on this table; consumers that keep it
        must copy.
        """
        n = self._n
        if n == 0:
            return np.zeros(0, dtype=np.float64)
        if len(self._max_out) < n:
            self._max_out = np.empty(len(self._weights))
        return kernels.max_link_value(
            self.pad(per_link, pad_value=-np.inf), self._routes, n,
            self._max_out[:n])

    def bottleneck_capacity(self) -> FloatArray:
        """Per-flow minimum link capacity along each route.

        No feasible allocation can give a flow more than this, so
        optimizers cap the Equation-3 rates at it — the physical
        counterpart is the sender NIC line rate.  Maintained
        incrementally under churn, so this is O(1) except on the
        first read after :meth:`refresh_capacity`; the returned view
        is read-only and valid until the next churn event or capacity
        refresh.
        """
        n = self._n
        if self._capacity_dirty:
            if n:
                kernels.min_link_value(
                    self._capacity_padded(), self._routes, n,
                    self._bottleneck._data[:n])
            self._capacity_dirty = False
        view = self._bottleneck._data[: self._n]
        view.flags.writeable = False
        return view

    def clone(self) -> FlowTable:
        """Deep copy with the same flows in the same positional order
        (used to solve for the optimum without disturbing the live
        allocator state).  The population is already validated and
        columnar, so it goes straight into the columnar insert.
        """
        copy = FlowTable(self.links, max_route_len=self.max_route_len)
        n = self._n
        if n:
            copy._insert(self._ids[:n].tolist(),
                         *self._unpadded(self._routes[:, :n]),
                         self._weights[:n])
        return copy

    def __repr__(self):  # pragma: no cover - debugging aid
        return (
            f"FlowTable(n_flows={self._n}, n_links={self.links.n_links}, "
            f"max_route_len={self.max_route_len})"
        )
