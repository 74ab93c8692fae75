"""Gradient projection (Low & Lapsley) — the first-order baseline.

The simplest dual method: each link adjusts its price directly from
its over-allocation,

    p_l <- max(0, p_l + gamma * G_l).

The paper's critique (§3): Gradient does not know how sensitive flows
are to a price change, so ``gamma`` must be small enough for the most
price-sensitive operating point the network will ever visit, making it
slow everywhere else.  We keep it as the convergence baseline used in
figures 12 and 13.
"""

from __future__ import annotations

import numpy as np

from .optimizer import PriceOptimizer

__all__ = ["GradientOptimizer"]


class GradientOptimizer(PriceOptimizer):
    """Low-Lapsley gradient projection on the NUM dual.

    Parameters
    ----------
    gamma:
        Fixed step size in price units per unit of over-allocation.
        The default is tuned for capacities expressed in Gbit/s with
        unit-weight log utilities (prices of order ``n_flows / c``);
        too large a value oscillates, too small crawls — which is the
        point of the comparison.
    """

    name = "Gradient"

    def __init__(self, table, utility=None, gamma: float = 1e-3):
        super().__init__(table, utility=utility)
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        self.gamma = float(gamma)

    def _update_prices(self, rates):
        over = self.over_allocation(rates)
        new_prices = self.prices + self.gamma * over
        np.maximum(new_prices, 0.0, out=new_prices)
        self.prices = new_prices
