"""Sampled Flowtune: price the elephants, ECMP the mice.

The central NUM loop's cost scales with the flows it prices, so
:class:`SampledAllocator` keeps only detector-promoted elephants in
the priced :class:`~repro.core.allocator.FlowtuneAllocator` and
leaves everything else to the :class:`~repro.sampling.EcmpScheduler`
fair-share model.  The priced set is bounded by the traffic's elephant
population, not by the total flow count — the scaling escape hatch
faster kernels cannot provide.

Composition rules:

* Every flow starts as a mouse on its ECMP-hashed path.  The §6.2
  usage stream (``report_usage``) feeds the
  :class:`~repro.sampling.ElephantDetector`; promotion and demotion
  re-run the flow through the two tables' existing batched
  ``apply_churn`` — a promoted flow keeps its route and weight, it
  just starts being priced.
* The coupling is symmetric and refreshed at the mice model's own
  pace: the mice see the elephants as external per-link load, and the
  priced half's capacities shrink by the mice's notified load (EWMA-
  smoothed, floored at a small fraction so elephants keep draining) —
  the §7 external-traffic adjustment with the mice as the
  "unscheduled" traffic.  Without the second half, a handful of
  priced elephants would be handed entire links and starve the mice
  they cannot see.
* Results merge priced-first: ``rate_vector[:n_priced]`` aligns with
  the priced table, the rest with the mice store, and both halves run
  the identical §6.4 threshold filter.  The merge is lazy — the
  notifications concatenate O(changed), each full vector is stitched
  only if read.
* The two stores *are* the membership record: a flow is active iff it
  sits in exactly one of them, and every churn path purges its
  detector counters (:meth:`ElephantDetector.forget_many`), so
  detector state is bounded by the live flow population and cannot
  grow under churn.

For verification, ``record_priced=True`` journals every operation the
wrapper applies to the inner priced allocator; replaying the journal
into a fresh ``FlowtuneAllocator`` must reproduce the priced rates
bit for bit (the hypothesis suite does exactly that).
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import Any

import numpy as np
import numpy.typing as npt

from ..core.allocator import AllocationResult, FlowtuneAllocator
from ..core.ned import NedOptimizer
from ..core.network import LinkSet
from ..core.normalization import Normalizer
from ..core.utility import Utility
from .detector import ElephantDetector
from .ecmp import EcmpScheduler

__all__ = ["SampledAllocator", "replay_priced_journal"]

FloatArray = npt.NDArray[np.float64]

#: Elephants are squeezed, never zeroed, by mice load (mirrors
#: :data:`repro.core.external.MIN_CAPACITY_FRACTION`).
_MIN_PRICED_FRACTION = 0.01


class _MergedResult(AllocationResult):
    """Priced-first concatenation of the two halves' results.

    ``update_arrays`` is the O(changed) concatenation of both halves'
    notifications; the dense id column, ``rate_vector`` and
    ``update_indices`` are each stitched only on first access
    (``__getattr__`` fires exactly when the base-class slot is still
    unset).  Lazy views snapshot the halves at first access — consume
    the result before applying further churn, as every driver in this
    repo does within its tick.
    """

    __slots__ = ("_priced", "_mice")

    def __init__(self, priced: AllocationResult,
                 mice: AllocationResult) -> None:
        self._priced = priced
        self._mice = mice
        self._updates = None
        self._rates_dict = None
        self._flow_ids = None

    def __getattr__(self, name: str) -> Any:
        # Each of the three base slots is stitched (and set) on its own.
        if name not in ("_ids", "rate_vector", "update_indices"):
            raise AttributeError(name)
        head = getattr(self._priced, name)
        tail = getattr(self._mice, name)
        if name == "update_indices":
            tail = tail + len(self._priced.rate_vector)
        elif name == "rate_vector":
            head = np.asarray(head, dtype=np.float64)
        value = np.concatenate((head, tail))
        setattr(self, name, value)
        return value

    def update_arrays(self) -> tuple[npt.NDArray[Any], FloatArray]:
        priced_ids, priced_rates = self._priced.update_arrays()
        mice_ids, mice_rates = self._mice.update_arrays()
        return (np.concatenate((priced_ids, mice_ids)),
                np.concatenate((priced_rates, mice_rates)))


class SampledAllocator:
    """Sieve-style sampling front-end over the Flowtune allocator.

    Parameters mirror :class:`~repro.core.allocator.FlowtuneAllocator`
    (they configure the inner priced allocator), plus:

    promote_bytes, idle_epochs:
        Detector knobs — see
        :class:`~repro.sampling.ElephantDetector`.
    mice_refresh:
        The ECMP fair-share model's full-recompute period in iterates.
        Mice are latency-bound, not rate-bound, and in a real sieve
        deployment are not centrally rate-controlled at all, so the
        model does not need to track every 10 µs tick; the default
        keeps the mice pass off the priced hot path.
    mice_load_smoothing:
        EWMA weight for folding the mice's notified load into the
        priced half's capacities (the §7 closed-loop smoothing —
        transient mice bursts should not whipsaw the elephants).
    mice_floor:
        Guaranteed per-link capacity fraction for the mice (the ECMP
        model's ``external_floor``) — breaks the mutual-starvation
        fixed point where elephants filling a link keep new mice at
        zero rate forever.
    detector:
        Inject a pre-configured detector (tests use this to drive
        promotion deterministically).  The wrapper binds its own
        membership predicate to it either way.
    record_priced:
        Journal all inner priced-allocator operations to
        :attr:`priced_journal` for bitwise replay verification.
    """

    wants_usage: bool = True

    def __init__(self, links: LinkSet, utility: Utility | None = None,
                 optimizer_cls: type = NedOptimizer,
                 normalizer: Normalizer | None = None,
                 update_threshold: float = 0.01, gamma: float = 1.0,
                 max_route_len: int = 8,
                 optimizer_kwargs: dict[str, Any] | None = None,
                 promote_bytes: float = float(1 << 20),
                 idle_epochs: int = 100, mice_refresh: int = 4,
                 mice_load_smoothing: float = 0.3,
                 mice_floor: float = 0.1,
                 detector: ElephantDetector | None = None,
                 record_priced: bool = False) -> None:
        if not 0 < mice_load_smoothing <= 1:
            raise ValueError("mice_load_smoothing must be in (0, 1]")
        self.priced = FlowtuneAllocator(
            links, utility=utility, optimizer_cls=optimizer_cls,
            normalizer=normalizer, update_threshold=update_threshold,
            gamma=gamma, max_route_len=max_route_len,
            optimizer_kwargs=optimizer_kwargs)
        self.mice = EcmpScheduler(
            links, update_threshold=update_threshold,
            refresh_every=mice_refresh, max_route_len=max_route_len,
            external_floor=mice_floor)
        self.detector = (detector if detector is not None
                         else ElephantDetector(promote_bytes=promote_bytes,
                                               idle_epochs=idle_epochs))
        self.detector.bind_membership(self.__contains__)
        self.full_links = links
        self.update_threshold = float(update_threshold)
        self.mice_load_smoothing = float(mice_load_smoothing)
        # The priced half's boot capacities (already headroom-adjusted
        # by the inner allocator) — the base the mice load shrinks.
        self._priced_base = self.priced.links.capacity.copy()
        self._mice_load_ewma = np.zeros_like(self._priced_base)
        # Hot-path aliases: membership is "in exactly one of the two
        # stores", probed once per churn event at 100 k flows.
        self._mice_index = self.mice.flow_index
        self._priced_table = self.priced.table
        # Elephant ends are deferred and flushed together with the
        # next iterate's promotions/demotions, so one churn op costs a
        # single priced ``apply_churn`` — not one per source of churn.
        # ``_pending_set`` mirrors the list for O(1) membership: a
        # flow in it is *logically ended* even though its priced row
        # still exists.
        self._pending_priced_ends: list[Hashable] = []
        self._pending_set: set[Hashable] = set()
        self.priced_journal: list[tuple[Any, ...]] | None = (
            [] if record_priced else None)

    # ------------------------------------------------------------------
    # churn
    # ------------------------------------------------------------------
    def flowlet_start(self, flow_id: Hashable, route: npt.ArrayLike,
                      weight: float = 1.0) -> None:
        self.apply_churn(starts=[(flow_id, route, weight)])

    def flowlet_end(self, flow_id: Hashable) -> None:
        self.apply_churn(ends=[flow_id])

    def apply_churn(self, starts: Iterable[tuple[Any, ...]] = (),
                    ends: Iterable[Hashable] = ()) -> None:
        """Batched flowlet churn with ends-first restart semantics.

        New flows always enter as mice; ends are routed to whichever
        store holds the flow and purge its detector state.  Matching
        the flow table's own contract, the whole ends batch is
        validated before anything is applied, and a rejected start
        leaves the ends applied and no start applied.
        """
        starts = list(starts)
        ends = list(ends)
        mice_ends: list[Hashable] = []
        if ends:
            mice_index = self._mice_index
            priced_table = self._priced_table
            pending = self._pending_set
            priced_ends: list[Hashable] = []
            bad = len(ends) > 1 and len(set(ends)) != len(ends)
            for flow_id in ends:
                if flow_id in mice_index:
                    mice_ends.append(flow_id)
                elif flow_id in priced_table and flow_id not in pending:
                    priced_ends.append(flow_id)
                else:
                    bad = True
                    break
            if bad:
                # Name the first unknown or repeated id in batch order,
                # like the flow table and the ECMP store do.
                seen: set[Hashable] = set()
                for flow_id in ends:
                    if flow_id in seen or flow_id not in self:
                        raise KeyError(f"flow {flow_id!r} is not active")
                    seen.add(flow_id)
            if priced_ends:
                # Deferred: flushed in one batch with the next
                # iterate's migrations.  The flows are logically ended
                # right now — every membership probe below excludes
                # the pending set.
                self._pending_priced_ends.extend(priced_ends)
                pending.update(priced_ends)
        clash: list[Hashable] = []  # first start that is already active
        if starts:
            ids = [start[0] for start in starts]
            priced_index = self._priced_table._index_of
            mice_index = self._mice_index
            pending = self._pending_set
            ended: set[Hashable] | tuple[()] = (
                set(mice_ends) if mice_ends else ())
            if (len(set(ids)) != len(ids)
                    or not mice_index.keys().isdisjoint(ids)
                    or not priced_index.keys().isdisjoint(ids)):
                seen = set()
                for flow_id in ids:
                    if (flow_id in seen
                            or (flow_id in mice_index
                                and flow_id not in ended)
                            or (flow_id in priced_index
                                and flow_id not in pending)):
                        clash.append(flow_id)
                        break
                    seen.add(flow_id)
        if mice_ends or starts:
            # One batched call: the mice store applies ends first,
            # then validates starts — so a bad route leaves the ends
            # applied and no start applied (the restart contract); a
            # start that is already active is withheld here and raised
            # below, once the ends are in.
            try:
                self.mice.apply_churn(starts=() if clash else starts,
                                      ends=mice_ends)
            finally:
                # Ends are purged even when a start is rejected — the
                # ends half of the batch has been applied by then.
                if ends:
                    self.detector.forget_many(ends)
        elif ends:
            self.detector.forget_many(ends)
        if clash:
            raise KeyError(f"flow {clash[0]!r} is already active")

    # ------------------------------------------------------------------
    # the usage stream -> detector
    # ------------------------------------------------------------------
    def report_usage(self, flow_id: Hashable, nbytes: float) -> None:
        """Cumulative byte count for a flow; drives elephant detection.

        Reports for unknown flows (ended, dropped, or queued-but-not-
        applied starts) are dropped by the detector — no state is ever
        created for a flow the stores do not know.
        """
        self.detector.observe(flow_id, nbytes)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def iterate(self, n: int = 1) -> AllocationResult:
        """One scheduling epoch: migrate, price, fair-share, merge."""
        promotions, demotions = self.detector.advance()
        if promotions or demotions or self._pending_priced_ends:
            self._migrate(promotions, demotions)
        refresh = self.mice.will_refresh()
        if refresh:
            # Elephants yield to the mice's notified load before this
            # epoch's pricing (the mice are the priced half's
            # "unscheduled" §7 traffic).
            self._yield_to_mice()
        priced_result = self._priced_iterate(n)
        if refresh:
            # Mice see the elephants as reserved capacity.  Refreshed
            # only when the mice model will actually look at it.
            priced_rates = np.asarray(priced_result.rate_vector,
                                      dtype=np.float64)
            self.mice.set_external_load(
                self.priced.link_load(priced_rates)
                if len(priced_rates) else None)
        mice_result = self.mice.iterate(1)
        return _MergedResult(priced_result, mice_result)

    def _yield_to_mice(self) -> None:
        """Shrink the priced capacities by the smoothed mice load.

        The mice half of the symmetric coupling: without it, a
        handful of priced elephants are handed entire links and the
        ECMP residual (``capacity - elephants``) starves every mouse
        sharing their paths.  Journaled (the priced half's rates
        depend on it), floored so elephants always keep draining.
        """
        if self.priced.n_flows == 0 and not self._mice_load_ewma.any():
            return
        alpha = self.mice_load_smoothing
        ewma = self._mice_load_ewma
        ewma *= 1.0 - alpha
        if self.mice.n_flows:
            ewma += alpha * self.mice.notified_link_load()
        capacity = np.maximum(self._priced_base - ewma,
                              self._priced_base * _MIN_PRICED_FRACTION)
        # §6.4-style deadband: re-pricing invalidates every capacity-
        # derived cache on the priced side, so only apply when some
        # link moved by more than the notification threshold (the
        # pricing error already tolerated elsewhere).  The EWMA keeps
        # advancing, so drift accumulates until it trips the band.
        applied = self.priced.links.capacity
        band = self.update_threshold * self._priced_base
        if (np.abs(capacity - applied) <= band).all():
            return
        if self.priced_journal is not None:
            self.priced_journal.append(("capacity", capacity.copy()))
        applied[:] = capacity
        self.priced.optimizer.refresh_capacity()

    def _migrate(self, promotions: list[Hashable],
                 demotions: list[Hashable]) -> None:
        """Re-home flows between the stores and flush deferred ends.

        Everything the priced allocator must hear about — promotions,
        demotions, and the elephant ends deferred by
        :meth:`apply_churn` — lands in one batched ``apply_churn``.
        Deferred ends are provably disjoint from the demotions: ending
        a flow forgets its detector state, so it cannot sit in the
        elephant set the idle scan demotes from.
        """
        promote_starts = self.mice.get_flows(promotions)
        demote_starts = self._priced_flows(demotions)
        if promotions or demote_starts:
            self.mice.apply_churn(starts=demote_starts, ends=promotions)
        priced_ends = self._pending_priced_ends
        if demotions:
            priced_ends = priced_ends + demotions
        self._priced_churn(starts=promote_starts, ends=priced_ends)
        if self._pending_priced_ends:
            self._pending_priced_ends = []
            self._pending_set.clear()

    def _priced_flows(self, flow_ids: list[Hashable],
                      ) -> list[tuple[Hashable, Any, float]]:
        table = self._priced_table
        out = []
        for flow_id in flow_ids:
            row = table.index_of(flow_id)
            route = table.routes[row]
            out.append((flow_id, route[route != table.pad_link].copy(),
                        float(table.weights[row])))
        return out

    def _priced_churn(self, starts: list[tuple[Any, ...]],
                      ends: list[Hashable]) -> None:
        if self.priced_journal is not None:
            self.priced_journal.append(("churn", list(starts), list(ends)))
        self.priced.apply_churn(starts=starts, ends=ends)

    def _priced_iterate(self, n: int) -> AllocationResult:
        if self.priced_journal is not None:
            self.priced_journal.append(("iterate", n))
        return self.priced.iterate(n)

    def current_rates(self) -> dict[Any, float]:
        rates = self.mice.current_rates()
        priced = self.priced.current_rates()
        for flow_id in self._pending_priced_ends:
            priced.pop(flow_id, None)
        rates.update(priced)
        return rates

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    @property
    def n_flows(self) -> int:
        return self.n_priced + self.mice.n_flows

    @property
    def n_priced(self) -> int:
        return self.priced.n_flows - len(self._pending_priced_ends)

    @property
    def priced_fraction(self) -> float:
        total = self.n_flows
        return self.n_priced / total if total else 0.0

    def __contains__(self, flow_id: Hashable) -> bool:
        return (flow_id in self._mice_index
                or (flow_id in self._priced_table
                    and flow_id not in self._pending_set))

    @property
    def links(self) -> LinkSet:
        """Full capacities — the merged allocation is measured against
        the physical network, not the priced half's headroom view."""
        return self.full_links

    @property
    def max_route_len(self) -> int:
        return self.priced.max_route_len

    def link_load(self, rates: npt.ArrayLike) -> FloatArray:
        """Per-link load of a merged (priced-first) rate vector."""
        if self._pending_priced_ends:
            # Deferred elephant ends make the merged length ambiguous;
            # flush them (they are logically gone already) so the
            # vector is measured against the live population.
            self._priced_churn(starts=[], ends=self._pending_priced_ends)
            self._pending_priced_ends = []
            self._pending_set.clear()
        rates = np.asarray(rates, dtype=np.float64)
        n_priced = self.priced.n_flows
        if len(rates) != n_priced + self.mice.n_flows:
            raise ValueError(
                f"rate vector length {len(rates)} does not match "
                f"{n_priced} priced + {self.mice.n_flows} mice flows")
        return (self.priced.link_load(rates[:n_priced])
                + self.mice.link_load(rates[n_priced:]))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"SampledAllocator(n_flows={self.n_flows}, "
                f"n_priced={self.priced.n_flows}, "
                f"detector={self.detector!r})")


def replay_priced_journal(journal: Iterable[tuple[Any, ...]],
                          allocator: FlowtuneAllocator,
                          ) -> AllocationResult | None:
    """Replay a ``record_priced`` journal into a fresh allocator.

    Returns the last iterate's result (or ``None`` if the journal
    contains no iterate).  With identical construction parameters the
    replayed allocator's rates are bitwise equal to the sampled
    wrapper's priced half — the verification contract for the
    promotion/demotion plumbing.
    """
    result: AllocationResult | None = None
    for entry in journal:
        if entry[0] == "churn":
            _, starts, ends = entry
            allocator.apply_churn(starts=starts, ends=ends)
        elif entry[0] == "capacity":
            allocator.links.capacity[:] = entry[1]
            allocator.optimizer.refresh_capacity()
        else:
            result = allocator.iterate(entry[1])
    return result
