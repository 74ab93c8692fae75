"""ECMP mice: hash-assigned paths, TCP-fair-share rate model.

Mice are not centrally scheduled in a real sieve deployment: they take
the ECMP path their flow-id hash picks (the drivers route them with the
topology's own hash) and let endpoint congestion control find their
share.  The fluid model still needs a rate per flow, so
:class:`EcmpScheduler` gives each one

    ``rate_i = w_i / max_{l in route(i)} (W_l / avail_l)``

with ``W_l`` the weight crossing link ``l`` and ``avail_l`` its
capacity left after external (elephant) load: F-NORM (Eq. 9) of the
weights against ``W / avail``, feasible by construction.  So it is a
:class:`~repro.core.allocator.TableScheduler`, sharing the priced
allocator's table, churn, §6.4 mask and compiled F-NORM pass.

The full recompute runs every ``refresh_every`` iterates, ``W``
rescattered each time (exact, no drift).  In between, flows keep their
notified rate and only new ones get an estimate from the cached ratios:
mice are latency-bound, not rate-bound (RepFlow), so a slightly stale
share costs them little.  The table keeps the physical capacities;
writing ``avail`` into it would void the bottleneck column (an O(n)
sweep per refresh) and move the paced estimates' clip.
"""

from __future__ import annotations

from typing import Any

import numpy as np
import numpy.typing as npt

from ..core.allocator import AllocationResult, TableScheduler
from ..core.network import LinkSet
from ..core.normalization import _EPSILON

__all__ = ["EcmpScheduler"]

FloatArray = npt.NDArray[np.float64]

#: Fraction of each link kept for the mice under any external load:
#: without it, mice on a link the elephants fill would get ~zero,
#: register no load and never push the elephants back (a starvation
#: fixed point of the sampled scheme's coupling).
EXTERNAL_FLOOR = 0.1


class EcmpScheduler(TableScheduler):
    """Fair-share rates for unpriced flows: the mice half of
    :class:`~repro.sampling.SampledAllocator` and the ``mode="ecmp"``
    baseline.  ``links`` are full capacities (no headroom: there is no
    pricing error to absorb); ``refresh_every`` is the full recompute's
    period in iterates; ``update_threshold`` and ``max_route_len`` go
    to :class:`~repro.core.allocator.TableScheduler`.
    """

    def __init__(self, links: LinkSet, refresh_every: int = 1,
                 **table_options: Any) -> None:
        super().__init__(links, **table_options)
        if refresh_every < 1:
            raise ValueError("refresh_every must be at least 1")
        self.refresh_every = int(refresh_every)
        self._external: FloatArray = np.zeros(links.n_links)
        self._avail_floor: FloatArray = np.maximum(
            EXTERNAL_FLOOR * np.asarray(links.capacity, dtype=np.float64),
            _EPSILON)
        # W/avail of the last refresh with the pad sentinel (-inf: pads
        # never worst); the paced estimates read it.
        self._ratio_padded: FloatArray = np.full(links.n_links + 1, -np.inf)
        self._refreshed = False
        self._iterates = 0

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
        if full:
            avail = np.maximum(self.full_links.capacity - self._external,
                               self._avail_floor)
            ratio = self._ratio_padded[:-1]
            np.divide(table.link_totals(table.weights), avail, out=ratio)
            self._refreshed = True
            return self._f_norm_result(ratio, table.weights, True)
        # Paced: new flows get an estimate from the cached ratios (which
        # do not include them), clipped to their path bottleneck so an
        # empty cached path hands out no unbounded share.  The rates are
        # the live ``last`` column, valid like every result's views.
        last, pending = self._last_sent.data, self._pending_new.data
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
                                rate_vector=last,
                                update_indices=update_idx)

    def notified_link_load(self) -> FloatArray:
        """Per-link load of the latest *notified* rates (never-notified
        flows count as zero): what the endpoints send, which the sampled
        wrapper folds into the priced half's capacities."""
        return self.table.link_totals(np.nan_to_num(self._last_sent.data))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"EcmpScheduler(n_flows={self.table.n_flows}, "
                f"refresh_every={self.refresh_every})")
