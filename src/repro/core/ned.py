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

from .network import FloatArray, FlowTable
from .optimizer import PriceOptimizer
from .utility import LogUtility, Utility

__all__ = ["NedOptimizer", "ned_prices"]


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
        sensitivity describe the same allocation.

        Reach: invariant — the kernel tests check the fused price update
        against this reference Hessian.
        """
        rho = self.effective_price_sums(prices)
        per_flow = self.utility.rate_derivative(rho, self.table.weights)
        return self.table.link_totals(per_flow)

    def partials(self) -> tuple[FloatArray, FloatArray, FloatArray]:
        """Equation 3 at the current prices: ``(rates, load, hessian)``.

        One pass over the flows: the log utility's
        (kernels.log_rate_pass) keeps each chunk's price sums, capped
        rates and rate derivatives chunk-sized in C; another utility's
        runs its own rate and derivative over the capped price sums.
        The pair scatter gives the load (memoized for the allocator's
        normalizer) and the Hessian diagonal.  Same floats as
        rate_update + over_allocation + hessian_diagonal.
        """
        table = self.table
        if type(self.utility) is LogUtility:
            rates = np.empty(table.n_flows)
            caps = self._cap_prices() if self.cap_rates else None
            load, hessian = table.log_rate_pass(self.prices, caps, rates)
        else:
            rho = self.effective_price_sums()
            rates = self.utility.rate(rho, table.weights)
            load, hessian = table.link_totals2(
                rates, self.utility.rate_derivative(rho, table.weights))
        self._load_memo = (table.version, rates, load)
        return rates, load, hessian

    def _step(self) -> FloatArray:
        rates, load, hessian = self.partials()
        self.prices = ned_prices(self.prices, load - self.table.links.capacity,
                                 hessian, self._idle_price, self.gamma)
        return rates


def ned_prices(prices: FloatArray, over: FloatArray, hessian: FloatArray,
               idle_price: FloatArray, gamma: float) -> FloatArray:
    """Equation 4 per link, into a fresh array: ``max(0, p - gamma *
    G / H)`` on a link carrying flows (``H < 0``), ``idle_price`` on the
    others.  Element-wise, so it prices the whole link vector or one
    LinkBlock's slice of it alike."""
    carrying = hessian < 0.0
    # H_ll < 0, so G/H_ll has the opposite sign of G; subtracting it
    # raises the price of an over-allocated link.
    step = np.divide(over, hessian, out=np.zeros_like(prices),
                     where=carrying)
    new_prices = np.where(carrying, prices - gamma * step, idle_price)
    np.maximum(new_prices, 0.0, out=new_prices)
    return new_prices
