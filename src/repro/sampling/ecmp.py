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

The mice live in a :class:`~repro.core.network.FlowTable`, built the
way :class:`~repro.core.allocator.FlowtuneAllocator` is: the table
plus ``last`` (notified rate, NaN until the first notification) and
``pending`` (new since the last notification) columns.  Churn is the
table's batched ``apply_churn``; a refresh is ``W = link_totals`` of
the weights, ``max_link_value`` of the contention ratios and the
shared §6.4 threshold mask, so the mice run the same kernels as the
priced flows.  Two things keep this off the priced hot path when it
runs inside :class:`~repro.sampling.SampledAllocator` with 10x more
mice than elephants:

* The full per-flow recompute runs every ``refresh_every`` iterates.
  On the paced iterates in between, flows keep their last-notified
  rate and only *new* flows get a rate — estimated from the cached
  contention ratios, clipped to their path bottleneck.  Mice are
  latency-bound, not rate-bound (RepFlow's argument), so a slightly
  stale share costs them little.
* ``W`` is recomputed at each refresh rather than patched under churn:
  one scatter, exact by construction, and no drift to bound.

Paths come in with each start: the drivers route a mouse with the
topology's own ECMP hash (``route``), as a real sieve deployment would.
"""

from __future__ import annotations

from collections.abc import Hashable, Iterable
from typing import Any

import numpy as np
import numpy.typing as npt

from ..core.allocator import AllocationResult, threshold_update_indices
from ..core.network import FlowTable, LinkSet

__all__ = ["EcmpScheduler"]

FloatArray = npt.NDArray[np.float64]

_EPSILON = 1e-12

#: Fraction of each link the fair-share model keeps for the mice even
#: under a full external reservation (:meth:`EcmpScheduler.
#: set_external_load`).  Without it, mice hashed onto a link the priced
#: elephants already fill would be allocated ~zero, never register any
#: load, and so never push the elephants back: a permanent-starvation
#: fixed point of the sampled scheme's symmetric coupling.  Irrelevant
#: while no external load is set (the standalone ECMP baseline).
EXTERNAL_FLOOR = 0.1


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
    """

    wants_usage: bool = False

    def __init__(self, links: LinkSet, update_threshold: float = 0.01,
                 refresh_every: int = 1, max_route_len: int = 8) -> None:
        if not 0 <= update_threshold < 1:
            raise ValueError("update_threshold must be in [0, 1)")
        if refresh_every < 1:
            raise ValueError("refresh_every must be at least 1")
        self.full_links = links
        self.update_threshold = float(update_threshold)
        self.refresh_every = int(refresh_every)
        self.table = FlowTable(links, max_route_len=max_route_len)
        self._last = self.table.add_column(default=np.nan)
        self._pending = self.table.add_column(default=True, dtype=np.bool_)
        self._external: FloatArray = np.zeros(links.n_links)
        self._avail_floor: FloatArray = np.maximum(
            EXTERNAL_FLOOR * np.asarray(links.capacity, dtype=np.float64),
            _EPSILON)
        # W/avail of the last refresh with the pad sentinel (-inf: pads
        # never worst); the paced estimates read it.
        self._ratio_padded: FloatArray = np.full(links.n_links + 1, -np.inf)
        self._refreshed = False
        self._iterates = 0

    # ------------------------------------------------------------------
    # churn
    # ------------------------------------------------------------------
    def flowlet_start(self, flow_id: Hashable, route: npt.ArrayLike,
                      weight: float = 1.0) -> None:
        """Reach: api — part of RateScheduler."""
        self.apply_churn(starts=[(flow_id, route, weight)])

    def flowlet_end(self, flow_id: Hashable) -> None:
        """Reach: api — part of RateScheduler."""
        self.apply_churn(ends=[flow_id])

    def apply_churn(self, starts: Iterable[tuple[Any, ...]] = (),
                    ends: Iterable[Hashable] = ()) -> None:
        """Batched churn with the flow table's ends-first semantics
        (:meth:`repro.core.FlowTable.apply_churn`): a bad end applies
        nothing, a bad start leaves the ends done and no start applied.
        """
        self.table.apply_churn(starts=starts, ends=ends)

    # ------------------------------------------------------------------
    # allocation
    # ------------------------------------------------------------------
    def set_external_load(self, load: npt.ArrayLike | None) -> None:
        """Per-link load reserved by someone else (the priced elephants).

        Consumed at the next full refresh; pass ``None`` to clear.
        """
        if load is None:
            self._external = np.zeros(self.full_links.n_links)
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
        table = self.table
        if table.n_flows == 0:
            return AllocationResult(flow_ids=np.empty(0, dtype=object),
                                    rate_vector=np.zeros(0))
        last, pending = self._last.data, self._pending.data
        if full:
            avail = np.maximum(self.full_links.capacity - self._external,
                               self._avail_floor)
            ratio = self._ratio_padded[:-1]
            np.divide(table.link_totals(table.weights), avail, out=ratio)
            worst = table.max_link_value(ratio)
            np.maximum(worst, _EPSILON, out=worst)
            rates = table.weights / worst
            update_idx = threshold_update_indices(
                rates, last, pending, self.update_threshold)
            self._refreshed = True
        else:
            # Paced iterate: everyone keeps their notified rate; flows
            # that arrived since the last iterate get a first-rate
            # estimate from the cached ratios (which do not yet include
            # them), clipped to their path bottleneck so an empty
            # cached path cannot hand out an unbounded share.  The
            # result's rates are the live ``last`` column, valid until
            # the next churn or iterate like every result's views.
            rates = last
            update_idx = np.flatnonzero(pending)
            if len(update_idx):
                worst = np.maximum(
                    self._ratio_padded[table.routes[:, update_idx]].max(axis=0),
                    _EPSILON)
                last[update_idx] = np.minimum(
                    table.weights[update_idx] / worst,
                    table.bottleneck_capacity()[update_idx])
                pending[update_idx] = False
        return AllocationResult(flow_ids=table.flow_id_array(),
                                rate_vector=rates,
                                update_indices=update_idx)

    def current_rates(self) -> dict[Any, float]:
        """Latest *notified* rate per flow (what endpoints believe).

        Reach: api — part of RateScheduler.
        """
        last = self._last.data
        notified = ~np.isnan(last)
        return dict(zip(self.table.flow_id_array()[notified].tolist(),
                        last[notified].tolist()))

    # ------------------------------------------------------------------
    # RateScheduler introspection
    # ------------------------------------------------------------------
    def report_usage(self, flow_id: Hashable, nbytes: float) -> None:
        """ECMP mice carry no detector — the stream is ignored."""

    @property
    def n_flows(self) -> int:
        return self.table.n_flows

    def __contains__(self, flow_id: Hashable) -> bool:
        """Reach: api — part of RateScheduler."""
        return flow_id in self.table

    @property
    def links(self) -> LinkSet:
        return self.full_links

    @property
    def max_route_len(self) -> int:
        """Reach: api — part of RateScheduler."""
        return self.table.max_route_len

    def link_load(self, rates: npt.ArrayLike) -> FloatArray:
        """Per-link load of a rate vector in result (table) order."""
        rates = np.asarray(rates, dtype=np.float64)
        if len(rates) != self.table.n_flows:
            raise ValueError(f"rate vector length {len(rates)} does not "
                             f"match {self.table.n_flows} active flows")
        return self.table.link_totals(rates)

    def notified_link_load(self) -> FloatArray:
        """Per-link load of the latest *notified* rates.

        What the endpoints are actually sending right now (never-
        notified flows count as zero) — the sampled wrapper folds this
        into the priced half's capacities so the elephants yield to
        the mice they cannot see.
        """
        return self.table.link_totals(np.nan_to_num(self._last.data))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EcmpScheduler(n_flows={self.table.n_flows}, "
                f"refresh_every={self.refresh_every})")

