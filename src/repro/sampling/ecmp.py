"""ECMP mice: hash-assigned paths, TCP-fair-share rate model.

In a real sieve deployment mice are not centrally scheduled at all —
they take the ECMP path their flow-id hash picks and let endpoint
congestion control find their share.  The fluid model still needs a
rate for every flow, so :class:`EcmpScheduler` models the mice as
weighted max-min-ish fair sharing: each flow gets

    ``rate_i = w_i / max_{l in route(i)} (W_l / avail_l)``

where ``W_l`` is the total weight crossing link ``l`` and ``avail_l``
the capacity left after any externally-reported (elephant) load.  The
allocation is feasible by construction — each link's load is divided
by at least its own contention ratio — and collapses to the exact
fair share on a single bottleneck.

Three properties keep this off the priced hot path when it runs inside
:class:`~repro.sampling.SampledAllocator` with 10x more mice than
elephants:

* Flows live in a **slot store** (struct-of-arrays plus a free list),
  so a churn batch costs O(batch): ended flows just return their slots,
  nothing is compacted, and no link-major index is maintained — the
  share model only ever needs the flow-major route rows.
* ``W_l`` is maintained *incrementally* under churn (a scatter over
  the churn batch, not over all flows), with a periodic exact rebuild
  so float drift cannot accumulate.
* The full per-flow recompute (the one pass that touches every mouse)
  runs every ``refresh_every`` iterates.  On the paced iterates in
  between, flows keep their last-notified rate and only *new* flows
  get a rate — estimated from the cached contention ratios, clipped
  to their path bottleneck.  Mice are latency-bound, not rate-bound
  (RepFlow's argument), so a slightly stale share costs them little.

Results are :class:`_LazySlotResult`: the notifications
(``update_arrays`` / ``updates``) are gathered O(changed), while the
full id and rate vectors are gathered only if someone reads them, each
on its own — like the base class they are live views, to be consumed
before further churn.

Path assignment itself lives in :class:`EcmpAssigner`: a stable hash
onto the candidate path list the Clos topologies expose
(``candidate_routes``), identical to the topologies' own ``route``.
"""

from __future__ import annotations

import collections
import zlib
from collections.abc import Hashable, Iterable
from typing import Any

import numpy as np
import numpy.typing as npt

from ..core.allocator import (AllocationResult, _NO_UPDATES,
                              threshold_update_mask)
from ..core.kernels import max_link_value
from ..core.network import LinkSet, _lookup_ends, _pack_starts

__all__ = ["EcmpScheduler", "EcmpAssigner"]

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]

_EPSILON = 1e-12

#: Exact ``W`` rebuilds every this many churn batches bound the
#: incremental float drift (each rebuild is one scatter over all
#: flows, so this trades a rare O(n) pass for exactness).
_W_REBUILD_EVERY = 256


class _LazySlotResult(AllocationResult):
    """Slot-store allocation result with O(changed) notifications.

    ``update_arrays`` reads the update slots captured at iterate time
    straight from the store; the dense ``rate_vector`` /
    ``update_indices`` / id column are each gathered only on first
    access (``__getattr__`` fires exactly when the base-class slot is
    still unset), so a reader of the rates never pays for the 100k
    object-pointer id gather.  Like the base class these lazy views
    snapshot the store at first access: consume the result before
    applying further churn.
    """

    __slots__ = ("_store", "_update_slots", "_update_mask", "_active")

    def __init__(self, store: "EcmpScheduler",
                 update_slots: npt.NDArray[np.intp] | None,
                 update_mask: npt.NDArray[np.bool_] | None = None) -> None:
        self._store = store
        # Refresh passes hand over the raw changed *mask* (at 90%+
        # churn-renotification density the flatnonzero + index gather
        # is the expensive part); the slot list is derived on demand.
        self._update_slots = update_slots
        self._update_mask = update_mask
        self._active: npt.NDArray[np.intp] | None = None
        self._updates = None
        self._rates_dict = None
        self._flow_ids = None

    def _slots(self) -> npt.NDArray[np.intp]:
        slots = self._update_slots
        if slots is None:
            slots = self._update_slots = np.flatnonzero(self._update_mask)
        return slots

    def __getattr__(self, name: str) -> Any:
        # Only ever reached for the three lazily-gathered base slots
        # (each set once here, so each materializes at most once).
        store = self._store
        active = self._active
        if active is None:
            active = self._active = np.flatnonzero(store._active)
        if name == "_ids":
            value = store._ids[active]
        elif name == "rate_vector":
            value = store._slot_rates[active]
        elif name == "update_indices":
            value = np.searchsorted(active, self._slots())
        else:
            raise AttributeError(name)
        setattr(self, name, value)
        return value

    def update_arrays(self) -> tuple[npt.NDArray[Any], FloatArray]:
        # A notified flow's rate is its ``last`` entry by construction.
        store = self._store
        slots = self._slots()
        return store._ids[slots], store._last[slots]


class EcmpScheduler:
    """Fair-share rate model for unpriced (ECMP-routed) flows.

    Implements the full :class:`~repro.sampling.RateScheduler`
    protocol, so it serves both as the mice half of
    :class:`~repro.sampling.SampledAllocator` and as the standalone
    ``mode="ecmp"`` baseline.

    Parameters
    ----------
    links:
        Full link capacities (ECMP models no headroom: there is no
        un-notified pricing error to absorb, only the share model).
    update_threshold:
        §6.4 notification filter, shared bit-for-bit with the priced
        path via ``threshold_update_indices``.
    refresh_every:
        Recompute every flow's share every this many iterates; in
        between, only new flows receive (estimated) rates.
    external_floor:
        Guaranteed fraction of each link the fair-share model keeps
        even under a full external reservation
        (:meth:`set_external_load`).  Without it, mice hashed onto a
        link the priced elephants already fill would be allocated
        ~zero, never register any load, and so never push the
        elephants back — a permanent-starvation fixed point of the
        sampled scheme's symmetric coupling.  Irrelevant while no
        external load is set (the standalone ECMP baseline).
    """

    wants_usage: bool = False

    def __init__(self, links: LinkSet, update_threshold: float = 0.01,
                 refresh_every: int = 1, max_route_len: int = 8,
                 external_floor: float = 0.1) -> None:
        if not 0 <= update_threshold < 1:
            raise ValueError("update_threshold must be in [0, 1)")
        if refresh_every < 1:
            raise ValueError("refresh_every must be at least 1")
        if max_route_len < 1:
            raise ValueError("max_route_len must be at least 1")
        if not 0 <= external_floor <= 1:
            raise ValueError("external_floor must be in [0, 1]")
        self.full_links = links
        self.update_threshold = float(update_threshold)
        self.refresh_every = int(refresh_every)
        self._max_route_len = int(max_route_len)
        #: Pad value for unused route cells (indexes the -inf/+inf
        #: sentinel row of the padded per-link vectors).
        self.pad_link = links.n_links
        # --- the slot store -------------------------------------------
        # Flow-major struct-of-arrays, ``_cap`` rows; freed rows go on
        # ``_free`` and are reused, so churn never moves a live row.
        # The route matrix is only as wide as the longest route seen
        # (grown on demand up to max_route_len) — the refresh gather
        # scales with it.
        cap = 1024
        self._cap = cap
        self._width = 1
        self._n = 0
        self._mat: IntArray = np.full((cap, 1), self.pad_link,
                                      dtype=np.int64)
        self._w: FloatArray = np.zeros(cap)
        # Free rows hold last=0.0 / pending=False / active=False: the
        # refresh threshold filter then never selects them (rate 0,
        # not new, never "went positive").
        self._last: FloatArray = np.zeros(cap)
        self._pending: npt.NDArray[np.bool_] = np.zeros(cap, dtype=bool)
        self._active: npt.NDArray[np.bool_] = np.zeros(cap, dtype=bool)
        self._ids: npt.NDArray[Any] = np.empty(cap, dtype=object)
        self._slot_of: dict[Hashable, int] = {}
        self._free: list[int] = list(range(cap - 1, -1, -1))
        #: High-water mark: one past the highest slot ever allocated.
        #: The refresh passes scan ``[:_top]`` instead of the full
        #: capacity (slots above it have never held a flow).
        self._top = 0
        #: Slots started since the last iterate (the paced pass only
        #: looks here, never at the whole store).
        self._new_slots: list[int] = []
        # --- the share model ------------------------------------------
        self._W: FloatArray = np.zeros(links.n_links)
        self._external: FloatArray = np.zeros(links.n_links)
        self._avail_floor: FloatArray = np.maximum(
            float(external_floor) * np.asarray(links.capacity,
                                               dtype=np.float64),
            _EPSILON)
        # capacity with the pad sentinel (+inf: pads never bottleneck)
        self._cap_padded: FloatArray = np.append(
            np.asarray(links.capacity, dtype=np.float64), np.inf)
        # W/avail with the pad sentinel (-inf: pads never worst);
        # written in place each refresh.
        self._ratio_padded: FloatArray = np.full(links.n_links + 1, -np.inf)
        self._refreshed = False
        self._slot_rates: FloatArray = self._last
        # Refresh scratch, sized with the store: the per-row output
        # the max kernel writes into.
        self._worst: FloatArray = np.empty(cap)
        self._iterates = 0
        self._churn_batches = 0

    # ------------------------------------------------------------------
    # churn (slot allocation + incremental W maintenance)
    # ------------------------------------------------------------------
    def flowlet_start(self, flow_id: Hashable, route: npt.ArrayLike,
                      weight: float = 1.0) -> None:
        self.apply_churn(starts=[(flow_id, route, weight)])

    def flowlet_end(self, flow_id: Hashable) -> None:
        self.apply_churn(ends=[flow_id])

    def apply_churn(self, starts: Iterable[tuple[Any, ...]] = (),
                    ends: Iterable[Hashable] = ()) -> None:
        """Batched churn with the flow table's ends-first semantics.

        ``ends`` are validated as a batch (an unknown or duplicated id
        raises ``KeyError`` with nothing applied), then freed; the
        starts are validated next, so a bad start leaves the ends done
        and no start applied — the same restart contract as
        :meth:`repro.core.FlowTable.apply_churn`.  ``W`` is patched
        from the batch itself: the ends' routes are read before their
        slots are freed, the starts' routes come with the batch.
        """
        starts = list(starts)
        ends = list(ends)
        if ends:
            self._apply_ends(ends)
        if starts:
            self._apply_starts(starts)
        self._churn_batches += 1
        if self._n == 0:
            self._W[:] = 0.0  # free exact reset
        elif self._churn_batches % _W_REBUILD_EVERY == 0:
            self._rebuild_w()

    def _apply_ends(self, ends: list[Hashable]) -> None:
        # The whole batch is validated before the index is touched (a
        # C-speed pass; an unknown or repeated id raises with nothing
        # applied).  Only then are the keys deleted, also at C speed —
        # ``map`` over the bound ``__delitem__``.
        slot_of = self._slot_of
        slots = _lookup_ends(ends, slot_of)
        collections.deque(map(slot_of.__delitem__, ends), maxlen=0)
        rows = np.asarray(slots, dtype=np.intp)
        mat = self._mat[rows]
        mask = mat != self.pad_link
        self._W -= np.bincount(
            mat[mask],
            weights=np.broadcast_to(self._w[rows][:, None], mat.shape)[mask],
            minlength=len(self._W))
        self._mat[rows] = self.pad_link
        self._w[rows] = 0.0
        self._last[rows] = 0.0
        self._pending[rows] = False
        self._active[rows] = False
        self._ids[rows] = None
        self._free.extend(slots)
        self._n -= len(ends)

    def _apply_starts(self, starts: list[tuple[Any, ...]]) -> None:
        k = len(starts)
        slot_of = self._slot_of
        # ``weights is None`` means "all ones" and lets the scatters
        # below skip the weight expansion entirely.
        ids, lengths, flat, weights = _pack_starts(
            starts, slot_of, self._max_route_len, self.full_links.n_links)
        widest = int(lengths.max())
        arr: IntArray | None = None
        if len(flat) == k * widest:
            # Uniform-width batch: the flat routes are the row block,
            # no padded scatter.
            arr = flat.reshape(k, widest)
        # Validation done — allocate rows and fill.
        if widest > self._width:
            self._widen(widest)
        if len(self._free) < k:
            self._grow(self._n + k)
        slots = self._free[-k:]
        del self._free[-k:]
        top = max(slots) + 1
        if top > self._top:
            self._top = top
        rows_idx = np.asarray(slots, dtype=np.intp)
        if arr is not None and widest == self._width:
            rows = arr
        else:
            rows = np.full((k, self._width), self.pad_link, dtype=np.int64)
            if arr is not None:
                rows[:, :widest] = arr
            else:
                rows[np.arange(self._width) < lengths[:, None]] = flat
        self._mat[rows_idx] = rows
        self._w[rows_idx] = 1.0 if weights is None else weights
        self._last[rows_idx] = np.nan
        self._pending[rows_idx] = True
        self._active[rows_idx] = True
        # fromiter keeps tuple ids scalar — a slice-assign would make
        # numpy broadcast them as nested sequences.
        self._ids[rows_idx] = np.fromiter(ids, dtype=object, count=k)
        slot_of.update(zip(ids, slots))
        self._new_slots.extend(slots)
        if weights is None:
            self._W += np.bincount(flat, minlength=len(self._W))
        else:
            self._W += np.bincount(flat,
                                   weights=np.repeat(weights, lengths),
                                   minlength=len(self._W))
        self._n += k

    def _widen(self, width: int) -> None:
        mat = np.full((self._cap, width), self.pad_link, dtype=np.int64)
        mat[:, : self._width] = self._mat
        self._mat = mat
        self._width = width

    def _grow(self, need: int) -> None:
        new_cap = max(2 * self._cap, need)
        def enlarge(arr: np.ndarray, fill: Any) -> np.ndarray:
            out = np.full((new_cap,) + arr.shape[1:], fill, dtype=arr.dtype)
            out[: self._cap] = arr
            return out
        self._mat = enlarge(self._mat, self.pad_link)
        self._w = enlarge(self._w, 0.0)
        self._last = enlarge(self._last, 0.0)
        self._pending = enlarge(self._pending, False)
        self._active = enlarge(self._active, False)
        ids = np.empty(new_cap, dtype=object)
        ids[: self._cap] = self._ids
        self._ids = ids
        self._free.extend(range(new_cap - 1, self._cap - 1, -1))
        self._cap = new_cap
        self._worst = np.empty(new_cap)

    def _rebuild_w(self) -> None:
        mat = self._mat[: self._top]
        mask = mat != self.pad_link
        self._W = np.bincount(
            mat[mask],
            weights=np.broadcast_to(self._w[: self._top, None],
                                    mat.shape)[mask],
            minlength=len(self._W))

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def set_external_load(self, load: npt.ArrayLike | None) -> None:
        """Per-link load reserved by someone else (the priced elephants).

        Consumed at the next full refresh; pass ``None`` to clear.
        """
        if load is None:
            self._external = np.zeros(len(self._W))
        else:
            self._external = np.asarray(load, dtype=np.float64)

    def will_refresh(self) -> bool:
        """Whether the next :meth:`iterate` runs the full recompute."""
        return (not self._refreshed
                or self._iterates % self.refresh_every == 0)

    def iterate(self, n: int = 1) -> AllocationResult:
        """Assign fair-share rates; ``n`` is accepted for protocol
        compatibility (the share model has no inner iteration)."""
        full = self.will_refresh()
        self._iterates += 1
        if self._n == 0:
            self._new_slots.clear()
            return AllocationResult(flow_ids=np.empty(0, dtype=object),
                                    rate_vector=np.zeros(0))
        if full:
            avail = np.maximum(self.full_links.capacity - self._external,
                               self._avail_floor)
            np.divide(self._W, avail, out=self._ratio_padded[:-1])
            # Per-slot worst contention via the shared kernel: chunked
            # take + column maxima over the used prefix of the store
            # (free rows below the high-water mark gather the -inf
            # pad, so they fall out at rate 0).
            top = self._top
            worst = self._worst[:top]
            max_link_value(
                self._ratio_padded, self._mat.reshape(-1), top,
                self._width, worst)
            np.maximum(worst, _EPSILON, out=worst)
            rates = self._w[:top] / worst
            changed = threshold_update_mask(
                rates, self._last[:top], self._pending[:top],
                self.update_threshold)
            self._slot_rates = rates
            self._refreshed = True
            self._new_slots.clear()
            return _LazySlotResult(self, None, changed)
        else:
            # Paced iterate: everyone keeps their notified rate; flows
            # that arrived since the last iterate get a first-rate
            # estimate from the cached ratios (which do not yet include
            # them), clipped to their path bottleneck so an empty
            # cached path cannot hand out an unbounded share.
            update_slots = _NO_UPDATES
            if self._new_slots:
                fresh = np.asarray(self._new_slots, dtype=np.intp)
                fresh = np.unique(fresh[self._pending[fresh]])
                if len(fresh):
                    mat = self._mat[fresh]
                    worst = np.maximum(self._ratio_padded[mat].max(axis=1),
                                       _EPSILON)
                    estimate = np.minimum(self._w[fresh] / worst,
                                          self._cap_padded[mat].min(axis=1))
                    self._last[fresh] = estimate
                    self._pending[fresh] = False
                    update_slots = fresh
            self._slot_rates = self._last
        self._new_slots.clear()
        return _LazySlotResult(self, update_slots)

    def current_rates(self) -> dict[Any, float]:
        """Latest *notified* rate per flow (what endpoints believe)."""
        mask = self._active & ~np.isnan(self._last)
        return dict(zip(self._ids[mask].tolist(),
                        self._last[mask].tolist()))

    # ------------------------------------------------------------------
    # RateScheduler introspection
    # ------------------------------------------------------------------
    def report_usage(self, flow_id: Hashable, nbytes: float) -> None:
        """ECMP mice carry no detector — the stream is ignored."""

    def get_flows(self, flow_ids: Iterable[Hashable],
                  ) -> list[tuple[Hashable, IntArray, float]]:
        """``(flow_id, route, weight)`` for each id — O(batch), used by
        the sampled wrapper to re-home flows on promotion."""
        out = []
        for flow_id in flow_ids:
            slot = self._slot_of[flow_id]
            row = self._mat[slot]
            out.append((flow_id, row[row != self.pad_link].copy(),
                        float(self._w[slot])))
        return out

    @property
    def flow_index(self) -> dict[Hashable, int]:
        """Live flow-id -> slot mapping (read-only by convention); the
        sampled wrapper probes it on the churn hot path."""
        return self._slot_of

    @property
    def n_flows(self) -> int:
        return self._n

    def __contains__(self, flow_id: Hashable) -> bool:
        return flow_id in self._slot_of

    @property
    def links(self) -> LinkSet:
        return self.full_links

    @property
    def max_route_len(self) -> int:
        return self._max_route_len

    def link_load(self, rates: npt.ArrayLike) -> FloatArray:
        """Per-link load of a rate vector in result (active) order."""
        rates = np.asarray(rates, dtype=np.float64)
        if len(rates) != self._n:
            raise ValueError(f"rate vector length {len(rates)} does not "
                             f"match {self._n} active flows")
        active = np.flatnonzero(self._active)
        return self._scatter_load(self._mat[active], rates)

    def notified_link_load(self) -> FloatArray:
        """Per-link load of the latest *notified* rates.

        What the endpoints are actually sending right now (never-
        notified flows count as zero) — the sampled wrapper folds this
        into the priced half's capacities so the elephants yield to
        the mice they cannot see.  Runs over the used slot prefix
        without a gather: freed rows are padded and rate-zeroed by
        :meth:`_apply_ends`, so they contribute nothing.
        """
        top = self._top
        mat = self._mat[:top]
        rates = np.nan_to_num(self._last[:top])
        return self._scatter_load(mat, rates)

    def _scatter_load(self, mat: IntArray, rates: FloatArray) -> FloatArray:
        mask = mat != self.pad_link
        return np.bincount(
            mat[mask],
            weights=np.broadcast_to(rates[:, None], mat.shape)[mask],
            minlength=len(self._W))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EcmpScheduler(n_flows={self._n}, "
                f"refresh_every={self.refresh_every})")


class EcmpAssigner:
    """Stable hash of unpriced flows onto the topology's ECMP paths.

    Wraps a topology's ``candidate_routes`` enumeration with the
    deterministic flow-id mix the two-tier Clos uses internally: one
    flow always maps to one path (no reordering), different flows
    spread across the candidates, and the pick is reproducible across
    interpreter runs.  On :class:`~repro.topology.TwoTierClos` the
    pick coincides with ``topology.route``; on the three-tier fabric
    (whose own hash is two-level) it is an equally valid member of the
    same candidate set.
    """

    def __init__(self, topology: Any) -> None:
        if not hasattr(topology, "candidate_routes"):
            raise TypeError(
                f"{type(topology).__name__} does not expose "
                "candidate_routes(); ECMP assignment needs the "
                "equal-cost path enumeration")
        self.topology = topology

    def candidates(self, src_host: int, dst_host: int,
                   ) -> list[npt.NDArray[np.int64]]:
        routes = self.topology.candidate_routes(src_host, dst_host)
        return list(routes)

    def assign(self, src_host: int, dst_host: int,
               flow_id: object = 0) -> npt.NDArray[np.int64]:
        """Pick the flow's path among the equal-cost candidates."""
        candidates = self.candidates(src_host, dst_host)
        if len(candidates) == 1:
            return candidates[0]
        if isinstance(flow_id, int):
            fid = flow_id
        else:
            fid = zlib.crc32(str(flow_id).encode())
        key = (int(src_host) * 2654435761 + int(dst_host) * 40503
               + fid * 2246822519) & 0xFFFFFFFF
        key ^= key >> 13
        return candidates[key % len(candidates)]
