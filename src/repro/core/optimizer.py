"""Base machinery shared by all NUM price-update algorithms.

Every algorithm in §3 of the paper (NED, Gradient projection, the
Newton-like method, FGM) follows the same two-step iteration:

1. *Rate update* (Equation 3): each flow picks the profit-maximizing
   rate given the current prices along its route.
2. *Price update* (Equation 4): each link adjusts its price based on
   its over-allocation ``G_l = load_l - c_l``; the algorithms differ
   only in how aggressively they scale that adjustment.

:class:`PriceOptimizer` implements step 1 and the bookkeeping; concrete
algorithms supply :meth:`_update_prices`.  Prices persist across
flowlet churn (the paper's warm start: prices are initialized to 1
exactly once, when the allocator boots).
"""

from __future__ import annotations

import numpy as np

from .network import FlowTable
from .utility import LogUtility, Utility

__all__ = ["PriceOptimizer", "solve_to_optimal"]


class PriceOptimizer:
    """Shared state and rate-update step for dual (price) methods.

    Parameters
    ----------
    table:
        The live :class:`~repro.core.network.FlowTable`; the optimizer
        reads it afresh every iteration, so flowlet churn between
        iterations is picked up automatically.
    utility:
        A :class:`~repro.core.utility.Utility`; defaults to
        proportional fairness (``log x``), the paper's objective.
    initial_price:
        Boot-time price for every link (the paper uses 1).
    """

    #: human-readable algorithm name, overridden by subclasses
    name = "base"

    def __init__(self, table: FlowTable, utility: Utility | None = None,
                 initial_price: float = 1.0, cap_rates: bool = True):
        self.table = table
        self.utility = utility if utility is not None else LogUtility()
        self.prices = np.full(table.links.n_links, float(initial_price),
                              dtype=np.float64)
        self.iterations = 0
        #: Clamp Equation-3 rates at each flow's bottleneck capacity
        #: (physically: the sender NIC line rate).  The capped rate
        #: function is ``x(rho) = min(cap, (U')^{-1}(rho))``, realized
        #: as ``(U')^{-1}(max(rho, U'(cap)))`` so that both the rate
        #: and its derivative are evaluated at the same (kinked)
        #: operating point — without this, near-zero prices make the
        #: Hessian astronomically steep while G stays bounded, and
        #: Newton steps stall.
        self.cap_rates = bool(cap_rates)
        # U'(cap) per flow, NaN until computed.  A flow's bottleneck
        # and weight never change while it lives and the table carries
        # column entries through swap-removes, so only rows new since
        # the last call are evaluated; a capacity refresh voids all.
        self._price_at_cap = table.add_column(default=np.nan)
        self._caps_version = -1
        self._caps_capacity_version = table.capacity_version
        # Within one (rate + price) iteration the prices don't change
        # between the Equation-3 rate update and the Equation-4 price
        # update, so the per-flow price sums are computed once and
        # shared (NED's Hessian diagonal needs the very same rho).
        self._rho_memo = None
        self._rho_memo_active = False
        # The last (table version, rates vector, per-link load) this
        # optimizer scattered — lets the allocator's normalizer reuse
        # the price update's link load instead of re-scattering the
        # same rates (see link_load_for).
        self._load_memo = None

    def _cap_prices(self):
        """Per-flow price sum at which Equation 3 hits the flow's cap."""
        table = self.table
        price_at_cap = self._price_at_cap.data
        if self._caps_version != table.version:
            if self._caps_capacity_version != table.capacity_version:
                price_at_cap[:] = np.nan
                self._caps_capacity_version = table.capacity_version
            new = np.flatnonzero(np.isnan(price_at_cap))
            if len(new):
                price_at_cap[new] = self.utility.inverse_rate(
                    table.bottleneck_capacity()[new], table.weights[new])
            self._caps_version = table.version
        return price_at_cap

    def refresh_capacity(self):
        """Re-read link capacities after an external change (§7).

        Subclasses with capacity-derived state (NED's idle prices)
        extend this; the base refreshes the table, whose
        ``capacity_version`` voids the per-flow cap prices here.
        """
        self.table.refresh_capacity()

    def effective_price_sums(self, prices=None):
        """Per-flow price sums, clamped at each flow's cap price.

        This is the operating point at which both Equation 3 rates and
        the Equation 4 Hessian diagonal are evaluated.  Inside
        :meth:`iterate` the result for the current prices is memoized,
        so the rate and price updates share one gather.
        """
        use_memo = prices is None and self._rho_memo_active
        if use_memo and self._rho_memo is not None:
            return self._rho_memo
        if prices is None:
            prices = self.prices
        rho = self.table.price_sums(prices)
        if self.cap_rates and len(rho):
            np.maximum(rho, self._cap_prices(), out=rho)
        if use_memo:
            self._rho_memo = rho
        return rho

    # ------------------------------------------------------------------
    # Equation 3: rate update
    # ------------------------------------------------------------------
    def rate_update(self, prices=None):
        """Return per-flow rates implied by ``prices`` (default: current)."""
        rho = self.effective_price_sums(prices)
        return self.utility.rate(rho, self.table.weights)

    def over_allocation(self, rates):
        """Per-link ``G_l = (sum of rates through l) - c_l``."""
        load = self.table.link_totals(rates)
        self._load_memo = (self.table.version, rates, load)
        return load - self.table.links.capacity

    def link_load_for(self, rates):
        """The per-link load last scattered for exactly this ``rates``
        vector at the current table version, or ``None``.

        Identity-keyed: ``rates`` must be the very object the price
        update scattered (mutating it in place afterwards would make
        the memo silently stale, so don't).  The allocator uses this
        to hand F-NORM the load the optimizer just computed — the
        third per-iterate scatter of identical values, dropped.
        """
        memo = self._load_memo
        if (memo is not None and memo[0] == self.table.version
                and memo[1] is rates):
            return memo[2]
        return None

    # ------------------------------------------------------------------
    # iteration driver
    # ------------------------------------------------------------------
    def iterate(self, n: int = 1):
        """Run ``n`` full (rate + price) iterations; return final rates.

        With no active flows this only decays prices toward zero —
        there is nothing to allocate.
        """
        rates = np.zeros(self.table.n_flows)
        for _ in range(n):
            self._rho_memo = None
            self._rho_memo_active = True
            try:
                rates = self.rate_update()
                self._update_prices(rates)
            finally:
                self._rho_memo_active = False
                self._rho_memo = None
            self.iterations += 1
        return rates

    def _update_prices(self, rates):
        raise NotImplementedError

    # ------------------------------------------------------------------
    # diagnostics
    # ------------------------------------------------------------------
    def total_over_allocation(self, rates=None):
        """Sum over links of positive over-allocation (fig. 12 metric)."""
        if rates is None:
            rates = self.rate_update()
        excess = self.over_allocation(rates)
        return float(np.sum(np.maximum(excess, 0.0)))

    def objective(self, rates=None):
        """Network utility ``sum_s U_s(x_s)`` at the given rates."""
        if rates is None:
            rates = self.rate_update()
        if len(rates) == 0:
            return 0.0
        return float(np.sum(self.utility.value(rates, self.table.weights)))

    def __repr__(self):  # pragma: no cover - debugging aid
        return (f"{type(self).__name__}(n_flows={self.table.n_flows}, "
                f"iterations={self.iterations})")


def solve_to_optimal(table: FlowTable, utility: Utility | None = None,
                     tol: float = 1e-9, max_iterations: int = 50_000,
                     gamma: float = 1.0):
    """Solve the NUM problem to (near-)optimality with NED.

    Runs a fresh NED instance until the relative over-allocation of
    every link falls below ``tol`` and prices stop moving.  Used as the
    "optimal" reference in fig. 13 and in tests; returns ``(rates,
    prices)``.
    """
    from .ned import NedOptimizer  # local import avoids a cycle

    opt = NedOptimizer(table, utility=utility, gamma=gamma)
    capacity = table.links.capacity
    # Links with no flows are parked at the idle price by design and
    # are exempt from the complementary-slackness check.
    carried = table.link_totals(np.ones(table.n_flows)) > 0
    rates = opt.iterate()
    for iteration in range(max_iterations):
        previous = opt.prices.copy()
        rates = opt.iterate()
        over = opt.over_allocation(rates)
        # KKT: no link over capacity, and complementary slackness
        # (a priced, carried link must be exactly at capacity).
        violation = np.max(np.maximum(over, 0.0) / capacity)
        slack_terms = opt.prices * np.abs(over) / capacity
        slackness = np.max(slack_terms[carried]) if carried.any() else 0.0
        moved = np.max(np.abs(opt.prices - previous) /
                       np.maximum(previous, 1e-12))
        if violation < tol and slackness < tol and moved < tol:
            break
        # Diagonal-Newton steps can limit-cycle on tightly coupled
        # topologies at large gamma; damp the step when progress stalls
        # (convergence is guaranteed for small enough steps).
        if iteration and iteration % 500 == 0:
            opt.gamma = max(opt.gamma * 0.5, 0.01)
    return rates, opt.prices
