"""Newton-Exact-Diagonal (NED) — the paper's rate-allocation algorithm.

NED's insight (§3): in the datacenter, the allocator knows every flow's
utility function and route, so the diagonal of the dual Hessian,

    H_ll = sum_{s in S(l)} d x_s(p) / d p_l
         = sum_{s in S(l)} ((U_s')^{-1})'( sum_{m in L(s)} p_m ),

can be *computed exactly* instead of measured (the Newton-like method
of Athuraliya & Low) or ignored (Gradient projection).  The price
update is then

    p_l <- max(0, p_l - gamma * H_ll^{-1} * G_l),

with ``G_l`` the link's over-allocation.  Since every admissible
utility is strictly concave, ``H_ll`` is strictly negative on any link
carrying flows, so an over-allocated link (``G_l > 0``) raises its
price proportionally to how *insensitive* its flows are — exactly the
second-order scaling a Newton step provides, at first-order cost.

Links with no flows have ``H_ll = 0``; their price is driven straight
to zero (nothing to price).
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from .network import FlowTable
from .optimizer import PriceOptimizer
from .utility import Utility

__all__ = ["NedOptimizer"]


class NedOptimizer(PriceOptimizer):
    """Algorithm 1 of the paper.

    Parameters
    ----------
    gamma:
        Step-size scale; the paper uses ``gamma = 1`` for the allocator
        benchmarks and finds the network insensitive for gamma in
        [0.2, 1.5] (§6.2, which uses 0.4).
    """

    name = "NED"

    def __init__(self, table: FlowTable, utility: Utility | None = None,
                 gamma: float = 1.0, initial_price: float = 1.0,
                 cap_rates: bool = True) -> None:
        super().__init__(table, utility=utility, initial_price=initial_price,
                         cap_rates=cap_rates)
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        self.gamma = float(gamma)
        # Idle links carry no pricing information; parking them at the
        # price a lone capacity-filling flow would see keeps the first
        # allocation after an arrival near line rate instead of either
        # absurdly high (price ~ 0) or throttled (stale high price).
        self._idle_price = np.asarray(
            self.utility.inverse_rate(table.links.capacity, 1.0),
            dtype=np.float64)

    def refresh_capacity(self) -> None:
        super().refresh_capacity()
        self._idle_price = np.asarray(
            self.utility.inverse_rate(self.table.links.capacity, 1.0),
            dtype=np.float64)

    def hessian_diagonal(self, prices: npt.NDArray[np.float64] | None = None,
                         ) -> npt.NDArray[np.float64]:
        """Exact ``H_ll`` for all links (non-positive by concavity).

        Evaluated at the capped operating point (see
        :meth:`PriceOptimizer.effective_price_sums`) so rate and
        sensitivity describe the same allocation; within ``iterate``
        the memoized price sums of the rate update are reused.

        Reach: invariant — the kernel tests check the fused price update
        against this reference Hessian.
        """
        rho = self.effective_price_sums(prices)
        per_flow = self.utility.rate_derivative(rho, self.table.weights)
        return self.table.link_totals(per_flow)

    def _update_prices(self, rates):
        # One fused slot pass for both scatters: the rates (load) and
        # rate derivatives (Hessian diagonal) ride identical indices,
        # and the load is memoized for the allocator's normalizer.
        # Same floats as over_allocation + hessian_diagonal.
        table = self.table
        rho = self.effective_price_sums()
        per_flow = self.utility.rate_derivative(rho, table.weights)
        load, hessian = table.link_totals2(rates, per_flow)
        self._load_memo = (table.version, rates, load)
        over = load - table.links.capacity
        carrying = hessian < 0.0
        # H_ll < 0, so G/H_ll has the opposite sign of G; subtracting it
        # raises the price of an over-allocated link (Equation 4).
        step = np.divide(over, hessian, out=np.zeros_like(self.prices),
                         where=carrying)
        new_prices = np.where(carrying, self.prices - self.gamma * step,
                              self._idle_price)
        np.maximum(new_prices, 0.0, out=new_prices)
        self.prices = new_prices
