"""The Flowtune centralized allocator (fig. 1 of the paper).

Ties the pieces together: endpoints report flowlet starts and ends;
the optimizer (NED by default) re-computes rates from warm-started
prices; the normalizer (F-NORM by default) scales them to feasibility;
and the allocator decides *which endpoints to notify* using the
rate-change threshold of §6.4 — a flow allocated 1 Gbit/s with a 0.01
threshold is only notified when its rate leaves [0.99, 1.01] Gbit/s.
To keep the un-notified error from over-filling links, the allocator
allocates against capacities reduced by the threshold (99 % of each
link for threshold 0.01), exactly as described in the paper.
"""

from __future__ import annotations

import inspect
import threading
from collections.abc import Hashable, Iterable
from typing import Any, NamedTuple

import numpy as np
import numpy.typing as npt

from .kernels import chunk_spans
from .ned import NedOptimizer
from .network import FlowTable, LinkSet
from .normalization import FNormalizer, Normalizer
from .utility import Utility

__all__ = ["RateUpdate", "AllocationResult", "FlowtuneAllocator",
           "ChurnQueue", "group_by_owner", "threshold_update_indices",
           "threshold_update_mask"]


class RateUpdate(NamedTuple):
    """One rate notification destined for a flow's sender."""

    flow_id: object
    rate: float


_NO_UPDATES = np.zeros(0, dtype=np.intp)


def threshold_update_mask(rate_vec: npt.NDArray[np.float64],
                          last: npt.NDArray[np.float64],
                          pending: npt.NDArray[np.bool_],
                          threshold: float) -> npt.NDArray[np.bool_]:
    """The §6.4 notification filter as one vectorized mask.

    A flow is selected when it is new (``last`` is NaN or ``pending``),
    when a zero rate turns positive, or when its rate leaves
    ``[(1-t)*last, (1+t)*last]``.  The selected rows of ``last`` and
    ``pending`` are updated *in place* (they are live flow-table
    columns), so every scheduler that shares this helper applies
    bitwise-identical update semantics.

    Returns the boolean ``changed`` mask rather than indices: when
    nearly everything changed (the ECMP fair-share model under churn
    renotifies most mice each refresh), masked stores beat building a
    90 k-entry index array the caller may never read.  Use
    :func:`threshold_update_indices` when positions are needed
    eagerly.
    """
    changed = np.empty(len(last), dtype=np.bool_)
    # Row blocks keep the temporaries cache-resident (the mask is ten
    # elementwise passes; measured a third faster at 100k flows).
    for lo, hi in chunk_spans(len(last)):
        rates, sent, flag = rate_vec[lo:hi], last[lo:hi], changed[lo:hi]
        # NaN (never notified) compares False everywhere, so it only
        # contributes through this first (new) term.
        np.isnan(sent, out=flag)
        flag |= pending[lo:hi]
        drift = rates - sent
        np.abs(drift, out=drift)
        moved = drift > threshold * sent
        positive = sent > 0.0
        moved &= positive
        flag |= moved
        # went positive: NaN rows are flagged already, so among the
        # rest "not positive" is exactly ``sent <= 0``.
        np.logical_not(positive, out=positive)
        positive &= rates > 0.0
        flag |= positive
    if changed.any():
        np.copyto(last, rate_vec, where=changed)
        pending &= ~changed
    return changed


def threshold_update_indices(rate_vec: npt.NDArray[np.float64],
                             last: npt.NDArray[np.float64],
                             pending: npt.NDArray[np.bool_],
                             threshold: float) -> npt.NDArray[np.intp]:
    """:func:`threshold_update_mask` rendered as update positions."""
    return np.flatnonzero(
        threshold_update_mask(rate_vec, last, pending, threshold))


class AllocationResult:
    """Outcome of one allocator invocation.

    ``flow_ids`` and ``rate_vector`` expose the full allocation in the
    flow table's positional order; ``update_indices`` are the positions
    whose endpoints must be notified (rate moved by more than the
    threshold, or flow is new).  :meth:`update_arrays` gathers those
    positions as ``(ids, rates)`` arrays; ``updates`` renders them as
    :class:`RateUpdate` objects, ``rates`` a full id->rate dict, and
    ``flow_ids`` a plain id list — all materialized lazily on first
    access, so hot-path consumers that stick to the array forms pay
    nothing for them (at 10k flows the RateUpdate list alone dominates
    ``iterate``'s cost, and at 100k even the id-list copy shows).

    The allocator constructs results over the flow table's *live*
    positionally-aligned id column, so the lazy views are snapshots of
    the moment they are first accessed: consume a result (or touch the
    properties you need) before applying further churn, as every
    driver in this repo does within its tick.
    """

    __slots__ = ("_ids", "rate_vector", "update_indices",
                 "_updates", "_rates_dict", "_flow_ids")

    def __init__(self, flow_ids: npt.NDArray[Any] | list[Any],
                 rate_vector: npt.NDArray[np.float64],
                 update_indices: npt.NDArray[np.intp] = _NO_UPDATES,
                 ) -> None:
        if not isinstance(flow_ids, np.ndarray):
            # fromiter keeps tuple ids scalar (asarray would nest them)
            flow_ids = np.fromiter(flow_ids, dtype=object,
                                   count=len(flow_ids))
        self._ids = flow_ids  # positionally-aligned id array
        self.rate_vector = rate_vector  # numpy array aligned with ids
        self.update_indices = update_indices
        self._updates = None
        self._rates_dict = None
        self._flow_ids = None

    @property
    def flow_ids(self) -> list[Any]:
        """Reach: api — RateScheduler's result surface (pairs.py reads it)."""
        if self._flow_ids is None:
            self._flow_ids = self._ids.tolist()
        return self._flow_ids

    def update_arrays(self) -> tuple[npt.NDArray[Any],
                                     npt.NDArray[np.float64]]:
        """The notifications as arrays: ``(ids, rates)``, the id column
        and ``rate_vector`` at ``update_indices`` (fresh arrays, in
        update order) — what a sender needs, with no per-flow objects.
        """
        picked = self.update_indices
        return (self._ids[picked],
                np.asarray(self.rate_vector, dtype=np.float64)[picked])

    @property
    def updates(self) -> list[RateUpdate]:
        if self._updates is None:
            ids, sent = self.update_arrays()
            self._updates = list(map(RateUpdate._make,
                                     zip(ids.tolist(), sent.tolist())))
        return self._updates

    @property
    def rates(self) -> dict[Any, float]:
        if self._rates_dict is None:
            self._rates_dict = dict(zip(
                self._ids,
                np.asarray(self.rate_vector, dtype=np.float64).tolist()))
        return self._rates_dict

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"AllocationResult(n_flows={len(self._ids)}, "
                f"n_updates={len(self.update_indices)})")


def group_by_owner(owners: npt.ArrayLike, *columns: npt.NDArray[Any]):
    """Split update columns into one batch per owner (§6.2: an
    allocation round's updates for one endpoint share one frame).

    Yields ``(owner, *slices)`` once per distinct value of ``owners``,
    in order of first appearance, each slice keeping its entries'
    original order.  The one grouping behind the service's per-client
    RATES frames, the packet simulator's per-host rate frames and the
    fluid simulator's per-host byte accounting, fed from
    :meth:`AllocationResult.update_arrays`.
    """
    owners = np.asarray(owners)
    if not len(owners):
        return
    order = np.argsort(owners, kind="stable")
    owners = owners[order]
    columns = tuple(column[order] for column in columns)
    cuts = (np.flatnonzero(owners[1:] != owners[:-1]) + 1).tolist()
    heads = [0] + cuts
    tails = cuts + [len(owners)]
    # The stable sort leaves each owner's first entry at the head of
    # its run, so ranking the heads' original positions orders the runs.
    for run in np.argsort(order[heads]).tolist():
        lo, hi = heads[run], tails[run]
        yield (owners[lo], *(column[lo:hi] for column in columns))


class FlowtuneAllocator:
    """Centralized flowlet-granularity rate allocator.

    Parameters
    ----------
    links:
        The network's :class:`~repro.core.network.LinkSet` (full
        capacities; the threshold headroom is applied internally).
    utility:
        NUM objective; default proportional fairness.
    optimizer_cls:
        Price-update algorithm (default
        :class:`~repro.core.ned.NedOptimizer`).
    normalizer:
        Feasibility post-processor (default F-NORM).
    update_threshold:
        Relative rate-change threshold for notifying endpoints (§6.4);
        also the capacity headroom fraction.
    gamma:
        Optimizer step size (§6.2 uses 0.4 in simulation, 1.0 in the
        allocator microbenchmarks).
    """

    def __init__(self, links: LinkSet, utility: Utility | None = None,
                 optimizer_cls: type = NedOptimizer,
                 normalizer: Normalizer | None = None,
                 update_threshold: float = 0.01, gamma: float = 1.0,
                 max_route_len: int = 8,
                 optimizer_kwargs: dict | None = None) -> None:
        if not 0 <= update_threshold < 1:
            raise ValueError("update_threshold must be in [0, 1)")
        self.full_links = links
        self.update_threshold = float(update_threshold)
        effective = LinkSet(links.capacity * (1.0 - self.update_threshold))
        self.table = FlowTable(effective, max_route_len=max_route_len)
        kwargs = dict(optimizer_kwargs or {})
        accepts_gamma = "gamma" in inspect.signature(
            optimizer_cls.__init__).parameters
        if accepts_gamma:
            kwargs.setdefault("gamma", gamma)
        self.optimizer = optimizer_cls(self.table, utility=utility, **kwargs)
        self.normalizer = normalizer if normalizer is not None else FNormalizer()
        # The normalizer must accept the optimizer's per-link load
        # (saves F-NORM's re-scatter of the very rates the price
        # update just scattered).  The two-argument compatibility
        # fallback is gone; fail at construction, not mid-iterate.
        try:
            # signature() on the callable itself follows __call__ for
            # instances and reports real parameters for plain
            # functions (inspecting .__call__ directly would see the
            # generic (*args, **kwargs) method-wrapper for those).
            params = inspect.signature(self.normalizer).parameters.values()
            takes_load = any(p.name == "link_load" or p.kind == p.VAR_KEYWORD
                             for p in params)
        except (TypeError, ValueError):  # builtins, odd callables
            takes_load = False
        if not takes_load:
            raise TypeError(
                "normalizer must accept a link_load= keyword: add "
                "link_load=None to "
                f"{type(self.normalizer).__name__}.__call__ (see "
                "repro.core.normalization.Normalizer); the legacy "
                "two-argument form is no longer called")
        # Positionally-aligned per-flow state, maintained by the flow
        # table under swap-remove churn: the rate each endpoint was
        # last notified of (NaN = never notified) and whether the flow
        # is new since its last notification.  Their column defaults
        # make flowlet start/end pure table operations.
        self._last_sent = self.table.add_column(default=np.nan)
        self._pending_new = self.table.add_column(default=True,
                                                  dtype=np.bool_)

    # ------------------------------------------------------------------
    # endpoint notifications (fig. 1 left-to-right arrows)
    # ------------------------------------------------------------------
    def flowlet_start(self, flow_id: Hashable, route: npt.ArrayLike,
                      weight: float = 1.0) -> None:
        """An endpoint reports a new backlogged flowlet on ``route``."""
        self.table.add_flow(flow_id, route, weight=weight)

    def flowlet_end(self, flow_id: Hashable) -> None:
        """An endpoint reports its queue for ``flow_id`` drained."""
        self.table.remove_flow(flow_id)

    def apply_churn(self, starts: Iterable[tuple[Any, ...]] = (),
                    ends: Iterable[Hashable] = ()) -> None:
        """Apply a batch of flowlet events in one call.

        ``ends`` (flow ids) are removed first, then ``starts``
        (``(flow_id, route)`` or ``(flow_id, route, weight)`` tuples)
        are added, so an id appearing in both is restarted and will be
        re-notified as new.  Drivers that buffer notifications per
        allocator tick (the fluid simulator, the ns-style allocator
        node) use this to amortize bookkeeping across the batch.
        """
        self.table.apply_churn(starts=starts, ends=ends)

    @property
    def n_flows(self) -> int:
        return self.table.n_flows

    def __contains__(self, flow_id: Hashable) -> bool:
        return flow_id in self.table

    # ------------------------------------------------------------------
    # RateScheduler protocol surface (repro.sampling.scheduler)
    # ------------------------------------------------------------------
    #: Whether drivers should feed per-flow byte counts through
    #: :meth:`report_usage`.  The full allocator prices every flow and
    #: needs no usage stream; the sampled scheduler flips this on.
    wants_usage: bool = False

    @property
    def links(self) -> LinkSet:
        """Effective (headroom-adjusted) link set the allocator prices."""
        return self.table.links

    @property
    def max_route_len(self) -> int:
        return self.table.max_route_len

    def link_load(self, rates: npt.ArrayLike) -> npt.NDArray[np.float64]:
        """Per-link load of a rate vector aligned with the last result."""
        return self.table.link_totals(rates)

    def report_usage(self, flow_id: Hashable, nbytes: float) -> None:
        """Cumulative byte-count report for a flow (§6.2 usage stream).

        The full allocator prices every flow already, so the stream
        carries no scheduling signal here — it exists so drivers can
        program against :class:`~repro.sampling.RateScheduler` without
        caring which scheme is behind it.
        """

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def iterate(self, n: int = 1) -> AllocationResult:
        """Run ``n`` optimizer iterations, normalize, emit notifications.

        The threshold filter of §6.4 runs as one vectorized mask over
        the positionally-aligned ``last_sent`` column: a flow is
        notified when it is new, when a zero rate turns positive, or
        when its rate leaves ``[(1-t)*last, (1+t)*last]``.
        """
        raw = self.optimizer.iterate(n)
        loader = getattr(self.optimizer, "link_load_for", None)
        normalized = self.normalizer(
            self.table, raw,
            link_load=loader(raw) if loader is not None else None)
        # O(1) view of the table's positionally-aligned id column —
        # the per-iterate list rebuild this replaces used to cost a
        # full O(n_flows) copy whether or not anyone read the ids.
        flow_ids = self.table.flow_id_array()
        update_idx = _NO_UPDATES
        if len(flow_ids):
            rate_vec = np.asarray(normalized, dtype=np.float64)
            update_idx = threshold_update_indices(
                rate_vec, self._last_sent.data, self._pending_new.data,
                self.update_threshold)
        return AllocationResult(flow_ids=flow_ids, rate_vector=normalized,
                                update_indices=update_idx)

    def current_rates(self) -> dict[Any, float]:
        """Latest *notified* rate per flow (what endpoints believe).

        Reach: api — part of RateScheduler.
        """
        last = self._last_sent.data
        notified = ~np.isnan(last)
        ids = self.table.flow_id_array()
        return {ids[i]: rate for i, rate in
                zip(np.nonzero(notified)[0].tolist(),
                    last[notified].tolist())}

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"FlowtuneAllocator(n_flows={self.table.n_flows}, "
                f"optimizer={self.optimizer.name}, "
                f"normalizer={self.normalizer.name}, "
                f"threshold={self.update_threshold})")


# Pending-event kinds (ChurnQueue); module-level so drain() can
# dispatch on identity rather than string compare.
_EV_START = "start"
_EV_END = "end"
_EV_RESTART = "restart"


class ChurnQueue:
    """Non-blocking ingest buffer that coalesces same-flow churn.

    The one churn intake: the allocator service's socket loop
    (:class:`~repro.service.server.FlowtuneService`) and the packet
    simulator's allocator device
    (:class:`~repro.control.allocator_node.AllocatorNode`) call
    :meth:`push_start` / :meth:`push_end` as events arrive; the
    allocation loop calls :meth:`drain` once per duty cycle and feeds
    the result straight into :meth:`FlowtuneAllocator.apply_churn`.
    Events for the same flow id within one batch coalesce to the
    table-level outcome the paper's batching implies:

    * start then end before any drain → the flow never existed; both
      events vanish.
    * end then start → a restart; ``drain`` emits the id in *both*
      lists (``apply_churn`` removes ends first, so the flow is
      re-admitted as new and re-notified per §6.4).
    * repeated starts → last route/weight wins.
    * end of a flow with no pending start → plain end.

    All methods take one lock for a dict operation, so producers never
    block on the allocator's iterate and vice versa.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._pending = {}  # flow_id -> (kind, route, weight)

    def push_start(self, flow_id: Hashable, route: npt.ArrayLike,
                   weight: float = 1.0) -> None:
        with self._lock:
            prior = self._pending.get(flow_id)
            kind = _EV_START
            if prior is not None and prior[0] in (_EV_END, _EV_RESTART):
                kind = _EV_RESTART
            self._pending[flow_id] = (kind, route, weight)

    def push_end(self, flow_id: Hashable) -> None:
        with self._lock:
            prior = self._pending.get(flow_id)
            if prior is None:
                self._pending[flow_id] = (_EV_END, None, None)
            elif prior[0] == _EV_START:
                # Started and ended within one batch: never materialized.
                del self._pending[flow_id]
            elif prior[0] == _EV_RESTART:
                self._pending[flow_id] = (_EV_END, None, None)
            # prior end: no-op (idempotent)

    def pending_kind(self, flow_id: Hashable) -> str | None:
        """The coalesced pending kind for ``flow_id``: ``"start"``,
        ``"end"``, ``"restart"`` or ``None``.

        Lets a producer check an event against the batch so far
        without draining: the allocator device drops duplicate starts
        and parks ends of unknown flows at push time with it.
        """
        with self._lock:
            ev = self._pending.get(flow_id)
            return ev[0] if ev is not None else None

    def drain(self) -> tuple[list[tuple[Any, Any, Any]], list[Any]]:
        """Atomically take the batch: ``(starts, ends)`` for apply_churn.

        ``starts`` is a list of ``(flow_id, route, weight)``; ``ends``
        a list of flow ids.  Restarted flows appear in both.
        """
        with self._lock:
            pending, self._pending = self._pending, {}
        starts, ends = [], []
        for flow_id, (kind, route, weight) in pending.items():
            if kind == _EV_END:
                ends.append(flow_id)
                continue
            if kind == _EV_RESTART:
                ends.append(flow_id)
            starts.append((flow_id, route, weight))
        return starts, ends

    def __len__(self):
        """Reach: invariant — tests check the coalescing rules with it."""
        with self._lock:
            return len(self._pending)

    def __bool__(self):
        with self._lock:
            return bool(self._pending)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"ChurnQueue(pending={len(self)})"
