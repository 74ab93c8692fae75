"""Link and flow state shared by all NUM optimizers.

The allocator's hot loop touches every flow and every link once per
iteration, so the representation matters.  Datacenter routes are short
(2 links within a rack, 4 links across the fabric in a two-tier Clos),
which lets us store all routes in a single padded integer matrix:

* ``routes[f, h]`` is the link index of hop ``h`` of flow ``f``,
* unused hops point at a *virtual pad link* (index ``n_links``) whose
  price is pinned to zero and whose capacity is infinite.

The padded matrix is the *storage and wire* format — simple, fixed
stride, shm-/delta-codec-friendly — but it is not what the NUM kernels
iterate over.  Typical Clos routes are at most half ``max_route_len``
hops, so a padded gather spends roughly half its work multiplying
pads.  The kernels therefore run on a derived **CSR route index**
(``indptr`` + flat ``indices`` + the matching flow-row id per slot)
whose uniform slot width is the *running-max hop count actually
present* rather than the storage's worst case, cached against
:attr:`version` and maintained incrementally from an internal
dirty-row log under churn (full rebuild only on storage regrowth or
when a wider route arrives).  One optimizer iteration is then a
handful of vectorized operations over ``n x max-hops`` elements
(fancy-indexed gathers, ``bincount`` segment scatters, column folds
for per-flow sums/maxima), with no Python-level per-flow work.  The
kernels themselves live in :mod:`repro.core.kernels`, which fixes one
canonical chunked reduction order for every caller.  Flowlet churn —
the common case in Flowtune — is O(route length) per event: adding
appends a row; removal swaps the last row into the hole so the arrays
stay dense.
"""

from __future__ import annotations

import collections
from collections.abc import Callable, Hashable, Iterable, Sequence
from typing import Any, TypeVar

import numpy as np
import numpy.typing as npt

from . import kernels

__all__ = ["LinkSet", "FlowTable", "FlowColumn"]

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]
#: Storage hook signature: ``alloc(tag, shape, dtype) -> array``.
AllocatorFn = Callable[[str, tuple[int, ...], Any], npt.NDArray[Any]]

_INITIAL_CAPACITY = 64
_V = TypeVar("_V")
_BAD_ROUTE = "route must be a non-empty 1-D sequence of links"


def _numpy_allocator(tag: str, shape: tuple[int, ...],
                     dtype: Any) -> npt.NDArray[Any]:
    """Default storage: ordinary process-local numpy arrays."""
    return np.empty(shape, dtype=dtype)


def _lookup_ends(ids: list[Hashable],
                 index_of: dict[Hashable, _V]) -> list[_V]:
    """``index_of`` values of a batch of ending flow ids, at C speed.

    The one ends validation of every scheduler: an unknown or repeated
    id raises ``KeyError`` naming the first offender in batch order
    (found by a scalar pass only then); the caller has applied nothing.
    """
    try:
        found = list(map(index_of.__getitem__, ids))
        if len(set(ids)) == len(ids):
            return found
    except KeyError:
        pass
    seen: set[Hashable] = set()
    for flow_id in ids:
        if flow_id not in index_of or flow_id in seen:
            break
        seen.add(flow_id)
    raise KeyError(f"flow {flow_id!r} is not active")


def _pack_starts(starts: list[tuple[Any, ...]],
                 index_of: dict[Hashable, Any], max_route_len: int,
                 n_links: int) -> tuple[list[Hashable], IntArray,
                                        IntArray, FloatArray | None]:
    """Validate a non-empty ``(flow_id, route[, weight])`` batch and
    turn it into columns ``(ids, lengths, flat, weights)``.

    ``flat`` is the int64 concatenation of the routes, ``lengths``
    their hop counts, ``weights`` is ``None`` when every weight is the
    default 1.0.  The one starts parser of :class:`FlowTable` and the
    ECMP slot store: ids must be unique and absent from ``index_of``
    (``KeyError`` naming the first offender in batch order), routes
    non-empty, 1-D, at most ``max_route_len`` hops over links
    ``[0, n_links)``, weights positive (``ValueError``).  Every check
    is one pass over a column; a scalar loop runs only to unpack a
    mixed 2-/3-tuple batch and to name an offending id.
    """
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
    if len(set(ids)) != k or not index_of.keys().isdisjoint(ids):
        seen: set[Hashable] = set()
        for flow_id in ids:
            if flow_id in seen or flow_id in index_of:
                raise KeyError(f"flow {flow_id!r} is already active")
            seen.add(flow_id)
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
    """

    __slots__ = ("_table", "default", "_data")

    def __init__(self, table, default, dtype):
        self._table = table
        self.default = default
        self._data = table._alloc(f"column{len(table._columns)}",
                                  (len(table._weights),), dtype)
        self._data[:] = default

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

    def __init__(self, capacities: npt.ArrayLike,
                 names: Sequence[str] | None = None) -> None:
        self.capacity = np.asarray(capacities, dtype=np.float64).copy()
        if self.capacity.ndim != 1:
            raise ValueError("capacities must be a 1-D array")
        if np.any(self.capacity <= 0):
            raise ValueError("link capacities must be strictly positive")
        if names is not None and len(names) != len(self.capacity):
            raise ValueError("names must match the number of links")
        self.names = list(names) if names is not None else None

    @property
    def n_links(self) -> int:
        return len(self.capacity)

    def name_of(self, link: int) -> str:
        if self.names is None:
            return f"link{link}"
        return self.names[link]

    def __len__(self):
        return self.n_links

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"LinkSet(n_links={self.n_links})"


class FlowTable:
    """Dense, padded table of active flows and their routes.

    Rows are kept contiguous under churn via swap-remove, so positional
    indices are unstable; stable identity is the user-supplied
    ``flow_id``.  All query methods return arrays aligned with the
    current positional order, and :meth:`flow_ids` exposes that order.
    """

    def __init__(self, links: LinkSet, max_route_len: int = 8,
                 allocator: AllocatorFn | None = None) -> None:
        if max_route_len < 1:
            raise ValueError("max_route_len must be at least 1")
        self.links = links
        self.max_route_len = int(max_route_len)
        self.pad_link = links.n_links  # virtual link used for padding
        # Storage hook: routes, weights and every FlowColumn go through
        # ``allocator(tag, shape, dtype)`` so a caller can back them
        # with ``multiprocessing.shared_memory`` (the process-parallel
        # NED backend) instead of private heap arrays.  Re-allocating
        # an existing tag (on grow) supersedes the old array.
        self._alloc = allocator if allocator is not None else _numpy_allocator
        self._columns = []
        self._routes = self._alloc(
            "routes", (_INITIAL_CAPACITY, self.max_route_len), np.int64)
        self._routes[:] = self.pad_link
        self._weights = self._alloc("weights", (_INITIAL_CAPACITY,),
                                    np.float64)
        self._weights[:] = 1.0
        # Positionally-aligned flow ids, maintained under swap-remove
        # and batched churn exactly like every other column.  An object
        # ndarray (never routed through the allocator hook — ids are
        # Python references, meaningless in shared memory) so
        # :meth:`flow_id_array` can expose an O(1) view instead of
        # rebuilding a list per allocator iterate.
        self._ids = np.empty(_INITIAL_CAPACITY, dtype=object)
        self._index_of = {}
        self._n = 0
        #: incremented on every add/remove; lets optimizers cache
        #: per-flow derived arrays between churn events.
        self.version = 0
        #: incremented by :meth:`refresh_capacity` only; lets optimizers
        #: keep capacity-derived per-flow columns across churn.
        self.capacity_version = 0
        # Opt-in dirty-row log (see start_change_log): index arrays of
        # the positional rows whose routes/weights/bottleneck changed
        # since the last consume_changes(), one per churn call.
        # ``None`` (the default) records nothing, so the common case
        # pays one attribute check per churn call.
        self._change_log = None
        self._change_all = False
        # Derived CSR route index (see _route_index): private-heap
        # state rebuilt incrementally from _csr_dirty when ``version``
        # moves, never routed through the allocator hook — the padded
        # matrix stays the storage/wire format.  Slots are uniform at
        # the running-max hop count (variable-width slots shift on
        # every hop-count change a swap-remove drags in, degenerating
        # to whole-suffix rebuilds under mixed-length churn; uniform
        # slots make every patch shift-free while still dropping the
        # max_route_len pad tail the storage carries).  _max_out is
        # the reusable max_link_value reduction output; the kernels
        # allocate their chunk-sized gathers themselves.
        self._col_offsets = np.arange(self.max_route_len)
        self._csr_width = 0      # uniform slot width (0 = never built)
        self._csr_indptr = np.zeros(1, dtype=np.int64)
        self._csr_indices = np.empty(0, dtype=np.int64)
        self._csr_mat = self._csr_indices.reshape(0, 1)
        self._max_out = np.empty(_INITIAL_CAPACITY)
        # Batched-start scratch (_insert): the left-pack mask is reused
        # across batches (grown geometrically) instead of reallocated
        # per call, and the pad()-extended capacity vector is cached
        # until refresh_capacity invalidates it.
        self._start_mask = np.empty((0, self.max_route_len), dtype=bool)
        self._padded_capacity = None
        # Rows below _csr_nrows are in sync except the holes logged in
        # _csr_dirty (index arrays, one per removal); every removal
        # lowers it to the new flow count, so rows added since are the
        # contiguous block [_csr_nrows, n) and need no logging.
        self._csr_nrows = 0
        self._csr_nnz = 0
        self._max_hops_seen = 0  # running max; only rebuilds can lower
        self._csr_version = -1   # never synced; forces a first build
        self._csr_full = True    # full rebuild required (also on grow)
        self._csr_dirty = []
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
    def _check_new_flow(self, flow_id, route):
        """Scalar admission checks of :meth:`add_flow` (a batch goes
        through :func:`_pack_starts`); returns the route as an array.
        Link-index range and weight positivity are checked by the
        caller.
        """
        if flow_id in self._index_of:
            raise KeyError(f"flow {flow_id!r} is already active")
        route = np.asarray(route, dtype=np.int64)
        if route.ndim != 1 or len(route) == 0:
            raise ValueError(_BAD_ROUTE)
        if len(route) > self.max_route_len:
            raise ValueError(
                f"route has {len(route)} hops; table supports {self.max_route_len}"
            )
        return route

    def add_flow(self, flow_id: Hashable, route: npt.ArrayLike,
                 weight: float = 1.0) -> int:
        """Register a flow; returns its (unstable) positional index.

        ``route`` is a sequence of link indices.  Every flow must
        traverse at least one link (the paper's feasibility condition
        ``L(s) != {}``).
        """
        route = self._check_new_flow(flow_id, route)
        if np.any(route < 0) or np.any(route >= self.links.n_links):
            raise ValueError("route contains an unknown link index")
        if not weight > 0:
            raise ValueError("flow weight must be positive")
        if self._n == len(self._weights):
            self._grow()
        idx = self._n
        self._routes[idx, :] = self.pad_link
        self._routes[idx, : len(route)] = route
        self._weights[idx] = weight
        self._ids[idx] = flow_id
        self._index_of[flow_id] = idx
        for column in self._columns:
            column._data[idx] = column.default
        self._bottleneck._data[idx] = self._capacity_padded()[route].min()
        if self._change_log is not None:
            self._change_log.append(np.array((idx,)))
        if len(route) > self._max_hops_seen:
            self._max_hops_seen = len(route)
        self._n += 1
        self.version += 1
        return idx

    def remove_flow(self, flow_id: Hashable) -> int:
        """Remove a flow by id (swap-remove keeps rows dense)."""
        idx = self._index_of.pop(flow_id)
        last = self._n - 1
        if idx != last:
            self._routes[idx] = self._routes[last]
            self._weights[idx] = self._weights[last]
            moved_id = self._ids[last]
            self._ids[idx] = moved_id
            self._index_of[moved_id] = idx
            for column in self._columns:
                column._data[idx] = column._data[last]
            self._log_holes(np.array((idx,)))
        self._ids[last] = None
        self._routes[last, :] = self.pad_link
        self._n = last
        if self._csr_nrows > last:
            self._csr_nrows = last
        self.version += 1
        return idx

    def _log_holes(self, holes):
        """Record rows a removal refilled (an int64 index array)."""
        if not self._csr_full:  # a pending rebuild covers every row
            self._csr_dirty.append(holes)
        if self._change_log is not None:
            self._change_log.append(holes)

    def remove_flows(self, flow_ids: Iterable[Hashable]) -> None:
        """Batched removal: the vectorized mirror of the batched add.

        Validates the whole batch up front at C speed (an unknown or
        duplicated id raises ``KeyError`` naming the first offender in
        batch order, with *no* flow removed) and lands in exactly the
        positional layout sequential :meth:`remove_flow` calls in the
        same order would produce (a property the drivers rely on for
        cross-revision rate comparisons).  Step ``i`` of that chain
        removes row ``r_i`` while the last slot is ``l_i = n - 1 - i``;
        it is *tangled* with another step only if ``r_i`` lies in the
        doomed tail (``r_i >= n - k``) or ``l_i`` is itself a removed
        row.  Every other step is exactly "row ``l_i`` moves into hole
        ``r_i``" and is computed as array arithmetic; only the tangled
        steps (none under FIFO churn, about ``2k/n`` of a random
        batch) replay the swap chain with dict bookkeeping.  The net
        movement is applied as one fancy-indexed gather per array, ids
        included; every registered :class:`FlowColumn` entry moves
        with its flow, and the whole batch costs one version bump.
        """
        ids = list(flow_ids)
        k = len(ids)
        if not k:
            return
        index_of = self._index_of
        holes = np.fromiter(_lookup_ends(ids, index_of), dtype=np.int64,
                            count=k)
        n = self._n
        new_n = n - k
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
        collections.deque(map(index_of.__delitem__, ids), maxlen=0)
        if len(holes):
            # Sources are original tail rows (>= new_n), destinations
            # are final slots (< new_n): disjoint, so one gather per
            # array is safe.
            self._routes[holes] = self._routes[movers]
            self._weights[holes] = self._weights[movers]
            for column in self._columns:
                column._data[holes] = column._data[movers]
            moved_ids = self._ids[movers]
            self._ids[holes] = moved_ids
            index_of.update(zip(moved_ids.tolist(), holes.tolist()))
            self._log_holes(holes)
        self._ids[new_n:n] = None
        self._routes[new_n:n] = self.pad_link
        self._n = new_n
        if self._csr_nrows > new_n:
            self._csr_nrows = new_n
        self.version += 1

    def apply_churn(self, starts: Iterable[tuple[Any, ...]] = (),
                    ends: Iterable[Hashable] = ()) -> None:
        """Batched churn: remove ``ends``, then add ``starts``.

        ``ends`` is an iterable of flow ids; ``starts`` of
        ``(flow_id, route)`` or ``(flow_id, route, weight)`` tuples.
        Removing first means an id appearing in both is restarted
        (fresh column state), matching flowlet end-then-start.  The
        tuple form is a thin adaptor: :func:`_pack_starts` validates
        the batch and turns it into columns (column-wise unpack, one
        vectorized pass per check), and the columnar insert writes
        them with a handful of slice assignments (one capacity check,
        one version bump), which is how the simulation and real-time
        drivers amortize bookkeeping across many flowlet events per
        allocator tick.  Removals go through the batched
        :meth:`remove_flows` (validated atomically) and are applied
        before the starts are validated, so a bad start leaves the
        ends done and no start applied.
        """
        self.remove_flows(ends)
        starts = list(starts)
        if starts:
            self._insert(*_pack_starts(starts, self._index_of,
                                       self.max_route_len,
                                       self.links.n_links))

    def _insert(self, ids, lengths, flat, weights):
        """Columnar insert of an already-validated batch (the columns
        :func:`_pack_starts` returns) as rows ``[n, n + k)``."""
        k = len(lengths)
        self.reserve(self._n + k)
        n0 = self._n
        block = slice(n0, n0 + k)
        rows = self._routes[block]
        rows[:] = self.pad_link
        # Left-packed scatter: row-major order of the mask matches the
        # concatenation order of the batch's routes.
        if len(self._start_mask) < k:
            self._start_mask = np.empty((max(64, 2 * k), self.max_route_len),
                                        dtype=bool)
        mask = self._start_mask[:k]
        np.less(self._col_offsets, lengths[:, None], out=mask)
        rows[mask] = flat
        self._weights[block] = 1.0 if weights is None else weights
        for column in self._columns:
            column._data[block] = column.default
        kernels.min_link_value(
            self._capacity_padded(), rows, self._bottleneck._data[block])
        # fromiter keeps tuple ids scalar — a slice-assign of a list
        # would make numpy broadcast them as nested sequences.
        self._ids[block] = np.fromiter(ids, dtype=object, count=k)
        self._index_of.update(zip(ids, range(n0, n0 + k)))
        if self._change_log is not None:
            self._change_log.append(np.arange(n0, n0 + k))
        self._max_hops_seen = max(self._max_hops_seen, int(lengths.max()))
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

    # ------------------------------------------------------------------
    # dirty-row tracking (delta-encoded churn publication)
    # ------------------------------------------------------------------
    def start_change_log(self) -> None:
        """Begin (or reset) dirty-row tracking.

        Afterwards every churn event records which positional rows it
        touched, so a consumer that mirrors this table remotely (the
        socket fabric's delta-encoded churn frames) can ship only the
        changed rows plus the new flow count instead of a whole-cell
        snapshot.  Rows that merely fell off the tail (the count
        shrank) are conveyed by ``n_flows``, not logged.  Call again to
        reset after publishing a full snapshot.
        """
        self._change_log = []
        self._change_all = False

    def consume_changes(self) -> tuple[IntArray, bool]:
        """Drain the dirty-row log: ``(rows, all_changed)``.

        ``rows`` is a sorted, duplicate-free int64 array of logged
        positions still in range (stale tail entries from shrinks are
        dropped).  Churn appends one index array per call (the holes a
        removal refilled, the row block an add wrote), so draining is
        one ``np.unique`` over their concatenation;
        ``all_changed`` is True when a whole-table invalidation
        happened (:meth:`refresh_capacity` rewrites every bottleneck
        entry) and the consumer should fall back to a full snapshot.
        Requires :meth:`start_change_log`; resets the log.
        """
        log = self._change_log
        if log is None:
            raise RuntimeError("change tracking is off; call "
                               "start_change_log() first")
        all_changed = self._change_all
        rows = np.empty(0, dtype=np.int64)
        if log:
            rows = np.unique(np.concatenate(log))
            rows = rows[rows < self._n]
        log.clear()
        self._change_all = False
        return rows, all_changed

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
        if self._change_log is not None:
            self._change_all = True  # bottleneck changes for every flow
        # Routes are untouched, so the CSR route index stays valid; the
        # version bump makes the next _route_index() a cheap no-op sync.
        self.version += 1
        self.capacity_version += 1

    def _grow(self):
        new_cap = max(_INITIAL_CAPACITY, 2 * len(self._weights))
        routes = self._alloc("routes", (new_cap, self.max_route_len),
                             np.int64)
        routes[self._n:] = self.pad_link
        routes[: self._n] = self._routes[: self._n]
        weights = self._alloc("weights", (new_cap,), np.float64)
        weights[self._n:] = 1.0
        weights[: self._n] = self._weights[: self._n]
        ids = np.empty(new_cap, dtype=object)
        ids[: self._n] = self._ids[: self._n]
        self._routes, self._weights, self._ids = routes, weights, ids
        for i, column in enumerate(self._columns):
            data = self._alloc(f"column{i}", (new_cap,),
                               column._data.dtype)
            data[self._n:] = column.default
            data[: self._n] = column._data[: self._n]
            column._data = data
        self._csr_full = True  # regrowth: rebuild the route index whole

    # ------------------------------------------------------------------
    # queries (views aligned with positional order)
    # ------------------------------------------------------------------
    @property
    def n_flows(self) -> int:
        return self._n

    def __len__(self):
        return self._n

    def __contains__(self, flow_id):
        return flow_id in self._index_of

    def index_of(self, flow_id: Hashable) -> int:
        return self._index_of[flow_id]

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
    def routes(self) -> IntArray:
        """Padded route matrix view, shape ``(n_flows, max_route_len)``."""
        return self._routes[: self._n]

    @property
    def weights(self) -> FloatArray:
        """Per-flow weight view, shape ``(n_flows,)``."""
        return self._weights[: self._n]

    def route_of(self, flow_id: Hashable) -> IntArray:
        """Unpadded route (link-index array) of one flow."""
        row = self._routes[self._index_of[flow_id]]
        return row[row != self.pad_link].copy()

    def hop_counts(self) -> IntArray:
        """Number of real (non-pad) hops per flow."""
        return np.sum(self.routes != self.pad_link, axis=1)

    # ------------------------------------------------------------------
    # CSR route index (derived, private-heap; the kernels' view)
    # ------------------------------------------------------------------
    def _route_index(self):
        """The version-cached CSR view of the padded route matrix.

        Returns ``(indptr, indices, nnz)`` where flow ``f``'s
        route occupies ``indices[indptr[f]:indptr[f+1]]`` (hop order
        preserved).  Slots are uniform at the running-max hop count
        (:attr:`_csr_width`), so slot ``e`` belongs to flow row
        ``e // width`` — the kernels exploit that directly instead of
        carrying a per-slot row-id array.  A row shorter than the
        widest carries trailing pad-link entries
        — bitwise-neutral in every kernel (+0.0 for sums, the dropped
        pad bin for scatters, ``-inf`` for maxima) — and no churn
        event ever shifts another row's slots.  The backing arrays
        are capacity-sized: read only the first ``n+1`` / ``nnz``
        entries.  Rebuilt lazily when :attr:`version` moved:
        incrementally from the internal dirty-row log (pure in-place
        row patches plus a tail append), from scratch only when
        storage regrows or a route wider than every slot arrives.
        Every public mutator bumps :attr:`version`, so a stale index
        is unobservable.
        """
        if self._csr_version != self.version:
            self._sync_csr()
        return (self._csr_indptr, self._csr_indices, self._csr_nnz)

    def _sync_csr(self):
        n = self._n
        if self._csr_full or self._max_hops_seen > self._csr_width:
            self._rebuild_csr()
        else:
            width = self._csr_width
            tail = self._csr_nrows
            if self._csr_dirty:
                rows = np.concatenate(self._csr_dirty)
                rows = rows[rows < tail]
                if len(rows):
                    self._csr_mat[rows] = self._routes[rows, :width]
            if tail < n:
                self._csr_mat[tail:n] = self._routes[tail:n, :width]
            self._csr_nnz = n * width
            self._csr_nrows = n
        self._csr_dirty.clear()
        self._csr_version = self.version

    def _rebuild_csr(self):
        """Full rebuild: re-derive the slot width (exact max hop count
        — the one moment shrinking is cheap) and copy every row's
        leading ``width`` columns in one strided pass."""
        n = self._n
        routes = self._routes
        width = self.max_route_len
        while width > 1 and (n == 0
                             or np.all(routes[:n, width - 1]
                                       == self.pad_link)):
            width -= 1
        cap = len(self._weights)
        if self._csr_width != width or len(self._csr_indices) != cap * width:
            self._csr_width = width
            self._csr_indptr = np.arange(cap + 1, dtype=np.int64) * width
            self._csr_indices = np.empty(cap * width, dtype=np.int64)
            self._csr_mat = self._csr_indices.reshape(cap, width)
        self._csr_mat[:n] = routes[:n, :width]
        self._csr_nnz = n * width
        self._csr_nrows = n
        self._max_hops_seen = width
        self._csr_full = False

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
        left-to-right in hop order (trailing zeros are bitwise no-ops)
        so the result is bit-for-bit the sequential sum of each route,
        independent of slot width.
        """
        n = self._n
        if n == 0:
            return np.zeros(0, dtype=np.float64)
        _, indices, _ = self._route_index()
        return kernels.price_sums(
            self.pad(prices), indices, n, self._csr_width)

    def link_totals(self, per_flow: npt.ArrayLike) -> FloatArray:
        """Scatter per-flow values onto links: ``out[l] = sum_{s in S(l)} v_s``.

        This computes aggregate link load when given rates, and the
        Hessian diagonal when given rate derivatives.  The scatter
        runs over the CSR link column (slack lands in the dropped pad
        bin) via the canonical chunked reduction: per-link
        accumulation order is flow-position order within each
        fixed-size chunk, partials folded in chunk order (below one
        chunk, a single-pass scatter).
        """
        n = self._n
        if n == 0:
            return np.zeros(self.links.n_links, dtype=np.float64)
        _, indices, _ = self._route_index()
        totals = kernels.link_totals(
            np.asarray(per_flow, dtype=np.float64), indices, n,
            self._csr_width, self.links.n_links + 1)
        return totals[:-1]

    def link_totals2(self, a: npt.ArrayLike, b: npt.ArrayLike,
                     ) -> tuple[FloatArray, FloatArray]:
        """Fused pair of :meth:`link_totals` calls over one CSR pass.

        The allocator's price update scatters rates and rate
        derivatives over identical indices every iteration; fusing the
        two calls shares the index resolution.
        (A single stacked two-weight bincount over offset bins was
        measured no faster than the two straight bincounts and would
        force an O(nnz) stacked-index rewrite per churn batch, so the
        fusion stops at the shared view.)  Returns ``(totals_a,
        totals_b)``, bitwise equal to two separate calls.
        """
        n = self._n
        if n == 0:
            zeros = np.zeros(self.links.n_links, dtype=np.float64)
            return zeros, zeros.copy()
        _, indices, _ = self._route_index()
        totals_a, totals_b = kernels.link_totals2(
            np.asarray(a, dtype=np.float64),
            np.asarray(b, dtype=np.float64), indices, n,
            self._csr_width, self.links.n_links + 1)
        return totals_a[:-1], totals_b[:-1]

    def max_link_value(self, per_link: npt.ArrayLike) -> FloatArray:
        """Per-flow max of a per-link quantity along each route.

        Used by F-NORM: each flow is scaled by its most-congested
        link's ratio.  The CSR segment max (max is order-insensitive,
        so segment order cannot change the bits; slack slots
        contribute the pad link's ``-inf`` and never win) is computed
        column-wise over the uniform slots — bitwise identical to
        ``np.maximum.reduceat`` over the same segments and measured
        ~1.7x faster (contiguous SIMD passes instead of reduceat's
        scalar segment loop).  The returned array is a reusable
        reduction buffer — valid until the next ``max_link_value``
        call on this table; consumers that keep it must copy.
        """
        n = self._n
        if n == 0:
            return np.zeros(0, dtype=np.float64)
        _, indices, _ = self._route_index()
        if len(self._max_out) < n:
            self._max_out = np.empty(len(self._weights))
        return kernels.max_link_value(
            self.pad(per_link, pad_value=-np.inf), indices, n,
            self._csr_width, self._max_out[:n])

    def flows_on_link(self, link: int) -> IntArray:
        """Positional indices of flows traversing ``link`` (test aid)."""
        return np.nonzero(np.any(self.routes == link, axis=1))[0]

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
                    self._capacity_padded(), self._routes[:n],
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
            routes = self._routes[:n]
            real = routes != self.pad_link
            copy._insert(self._ids[:n].tolist(), real.sum(axis=1),
                         routes[real], self._weights[:n])
        return copy

    def __repr__(self):  # pragma: no cover - debugging aid
        return (
            f"FlowTable(n_flows={self._n}, n_links={self.links.n_links}, "
            f"max_route_len={self.max_route_len})"
        )
