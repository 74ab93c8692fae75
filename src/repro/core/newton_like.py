"""The Newton-like method (Athuraliya & Low, 2000) — measured diagonal.

Like NED, this method scales each link's price update by an estimate of
the Hessian diagonal; unlike NED it cannot compute the diagonal, so it
*measures* it: the slope of the link's aggregate rate with respect to
its own price, estimated from consecutive iterations,

    S_l(t) ~= (G_l(t) - G_l(t-1)) / (p_l(t) - p_l(t-1)),

smoothed with an exponential moving average.  The paper's critique
(§8): measurements need averaging intervals, carry error, and the
algorithm is unstable in several settings.  The implementation guards
the estimate (clamps it negative, falls back to the previous smoothed
value when the price did not move), but remains faithful to the
measure-then-scale structure so the instability can be observed.
"""

from __future__ import annotations

import numpy as np

from .optimizer import PriceOptimizer

__all__ = ["NewtonLikeOptimizer"]

#: EWMA weight of a new slope measurement (``beta`` in the original
#: paper's averaging; higher reacts faster but is noisier).
_SMOOTHING = 0.3
#: Magnitude of the Hessian-diagonal guess before any measurement.
_INITIAL_DIAGONAL = 1.0


class NewtonLikeOptimizer(PriceOptimizer):
    """Diagonal-scaled dual ascent with a *measured* diagonal.

    Parameters
    ----------
    gamma:
        Step-size scale (same role as in NED).
    """

    name = "Newton-like"

    def __init__(self, table, utility=None, gamma: float = 1.0):
        super().__init__(table, utility=utility)
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        self.gamma = float(gamma)
        self._diag_estimate = np.full(table.links.n_links,
                                      -_INITIAL_DIAGONAL)
        self._previous_prices = None
        self._previous_over = None

    def _update_prices(self, rates):
        over = self.over_allocation(rates)
        if self._previous_prices is not None:
            dp = self.prices - self._previous_prices
            dg = over - self._previous_over
            measurable = np.abs(dp) > 1e-12
            slope = np.where(measurable, dg / np.where(measurable, dp, 1.0),
                             self._diag_estimate)
            # The true diagonal is negative; discard wrong-signed noise.
            slope = np.minimum(slope, -1e-12)
            self._diag_estimate = ((1.0 - _SMOOTHING) * self._diag_estimate
                                   + _SMOOTHING * slope)
        self._previous_prices = self.prices.copy()
        self._previous_over = over.copy()
        step = over / self._diag_estimate
        new_prices = self.prices - self.gamma * step
        np.maximum(new_prices, 0.0, out=new_prices)
        self.prices = new_prices
