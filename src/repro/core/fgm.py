"""Fast weighted Gradient Method (Beck, Nedic, Ozdaglar & Teboulle 2014).

An accelerated (Nesterov-momentum) projected gradient on the NUM dual.
Instead of the exact Hessian diagonal it uses a *crude upper bound* on
the curvature of the rate response: for utility ``U`` with rates capped
by the largest link capacity ``x_max``, the per-flow slope magnitude is
at most ``|((U')^{-1})'(U'(x_max))|`` (the response is steepest where
prices are lowest, i.e. rates largest).  Each link's Lipschitz weight
is that bound times the number of flows crossing it.

The momentum sequence assumes a *static* problem; under flowlet churn
the extrapolation step keeps pushing prices along stale directions,
which is exactly the "does not handle the stream of updates well"
behaviour the paper reports in fig. 12.  ``reset()`` restarts the
momentum (used by tests to verify the static-case convergence).
"""

from __future__ import annotations

import numpy as np

from .optimizer import PriceOptimizer

__all__ = ["FgmOptimizer"]


class FgmOptimizer(PriceOptimizer):
    """Nesterov-accelerated dual gradient with a crude Lipschitz bound.

    It has no step size: the bound scales each link's step.  Its rate
    cap ``max_rate`` is the largest link capacity (no flow can
    sustainably exceed it).
    """

    name = "FGM"

    def __init__(self, table, utility=None):
        super().__init__(table, utility=utility)
        self.max_rate = float(np.max(table.links.capacity))
        self._momentum_t = 1.0
        self._previous_prices = self.prices.copy()

    def _lipschitz_weights(self):
        """Per-link upper bound on ``|H_ll|``: flow count x curvature cap."""
        weights = self.table.weights
        price_at_max = self.utility.inverse_rate(
            np.full(self.table.n_flows, self.max_rate), weights)
        per_flow_bound = np.abs(
            self.utility.rate_derivative(price_at_max, weights))
        bound = self.table.link_totals(per_flow_bound)
        return np.maximum(bound, 1e-12)

    def _update_prices(self, rates):
        # Nesterov extrapolation point.
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * self._momentum_t ** 2))
        beta = (self._momentum_t - 1.0) / t_next
        extrapolated = self.prices + beta * (self.prices - self._previous_prices)
        np.maximum(extrapolated, 0.0, out=extrapolated)
        # Dual gradient at the extrapolated point (not at self.prices).
        rates_at_y = self.rate_update(extrapolated)
        over = self.over_allocation(rates_at_y)
        step = over / self._lipschitz_weights()
        new_prices = extrapolated + step
        np.maximum(new_prices, 0.0, out=new_prices)
        self._previous_prices = self.prices
        self.prices = new_prices
        self._momentum_t = t_next
