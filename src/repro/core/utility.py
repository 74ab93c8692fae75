"""Flow utility functions for network utility maximization (NUM).

The NUM objective is ``max sum_s U_s(x_s)`` subject to link capacity
constraints.  NED (paper, Algorithm 1) requires each utility to be
strictly concave, differentiable and monotonically increasing, and
needs three callable pieces per flow:

* ``rate(price_sum, weight)`` — the profit-maximizing rate given the
  sum of link prices along the flow's path, i.e. ``(U')^{-1}`` applied
  to the price sum (Equation 3 in the paper).
* ``rate_derivative(price_sum, weight)`` — ``d rate / d price_sum``,
  the per-flow contribution to the exact Hessian diagonal ``H_ll``
  (Equation 4).
* ``value(x, weight)`` — the utility itself, used for fairness scores
  and for verifying optimality.

Weights are passed per call (as scalars or per-flow vectors) rather
than stored on the utility object because the set of flows churns with
every flowlet arrival and departure; the allocator owns the weight
vector and the utility stays stateless.

All implementations are vectorized: they accept and return numpy
arrays so the allocator can update tens of thousands of flows in a
single call.
"""

from __future__ import annotations

from typing import Any, Union

import numpy as np
import numpy.typing as npt

__all__ = ["Utility", "LogUtility", "AlphaFairUtility", "MIN_PRICE_SUM"]

#: Scalar-or-vector operand: every method broadcasts over either.
ArrayOrFloat = Union[float, npt.NDArray[np.float64]]
FloatArray = npt.NDArray[np.float64]

# Prices can momentarily be zero on uncongested links; clamping the
# per-flow price sum bounds rates instead of letting them diverge.
MIN_PRICE_SUM = 1e-9


def _f64(values: Any) -> FloatArray:
    return np.asarray(values, dtype=np.float64)


def _clamped(price_sum: ArrayOrFloat, weight: ArrayOrFloat) -> FloatArray:
    """``max(price_sum, MIN_PRICE_SUM)`` in a fresh float64 array of the
    result's broadcast shape: the one buffer the hot-path methods then
    finish in place (0-d for scalar operands, as before)."""
    out = np.empty(np.broadcast(price_sum, weight).shape)
    return np.maximum(price_sum, MIN_PRICE_SUM, out=out)


class Utility:
    """Base class for NUM utility functions.

    Subclasses must be strictly concave, differentiable and monotone
    increasing (the paper's admissibility conditions for NED, §3).
    """

    def rate(self, price_sum: ArrayOrFloat, weight: ArrayOrFloat = 1.0,
             ) -> FloatArray:
        """Return ``(U')^{-1}(price_sum)`` elementwise (Equation 3)."""
        raise NotImplementedError

    def rate_derivative(self, price_sum: ArrayOrFloat,
                        weight: ArrayOrFloat = 1.0) -> FloatArray:
        """Return ``d/dp (U')^{-1}(p)`` at ``p = price_sum``.

        Negative for any strictly concave utility.
        """
        raise NotImplementedError

    def inverse_rate(self, x: ArrayOrFloat, weight: ArrayOrFloat = 1.0,
                     ) -> FloatArray:
        """Return ``U'(x)``, the price sum at which ``x`` is optimal.

        Used to warm-start prices and to verify KKT conditions in
        tests.
        """
        raise NotImplementedError


class LogUtility(Utility):
    """Weighted proportional fairness: ``U(x) = w * log(x)``.

    This is the paper's primary objective.  With ``rho`` the sum of
    link prices along the flow, the rate update is ``x = w / rho`` and
    its derivative is ``-w / rho**2``.
    """

    def rate(self, price_sum: ArrayOrFloat, weight: ArrayOrFloat = 1.0,
             ) -> FloatArray:
        rho = _clamped(price_sum, weight)
        return np.divide(weight, rho, out=rho)

    def rate_derivative(self, price_sum: ArrayOrFloat,
                        weight: ArrayOrFloat = 1.0) -> FloatArray:
        # -w / rho**2 on one buffer; -(w / d) and (-w) / d are the
        # same float (rounding is sign-symmetric).
        rho = _clamped(price_sum, weight)
        np.multiply(rho, rho, out=rho)
        np.divide(weight, rho, out=rho)
        return np.negative(rho, out=rho)

    def inverse_rate(self, x: ArrayOrFloat, weight: ArrayOrFloat = 1.0,
                     ) -> FloatArray:
        clamped = np.maximum(_f64(x), MIN_PRICE_SUM)
        return _f64(weight / clamped)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "LogUtility()"


class AlphaFairUtility(Utility):
    """Alpha-fair utilities ``U(x) = w * x^(1-alpha) / (1-alpha)``.

    ``alpha = 1`` reduces to :class:`LogUtility` (proportional
    fairness); ``alpha -> inf`` approaches max-min fairness; ``alpha =
    2`` approximates minimum potential delay.  The paper notes NED
    supports any admissible utility — this class exercises that claim.
    """

    def __init__(self, alpha: float) -> None:
        if alpha <= 0:
            raise ValueError("alpha must be positive for strict concavity")
        if abs(alpha - 1.0) < 1e-12:
            raise ValueError("alpha == 1 is LogUtility; use that class")
        self.alpha = float(alpha)

    def rate(self, price_sum: ArrayOrFloat, weight: ArrayOrFloat = 1.0,
             ) -> FloatArray:
        # U'(x) = w * x^{-alpha}  =>  x = (w / rho)^{1/alpha}
        rho = np.maximum(_f64(price_sum), MIN_PRICE_SUM)
        return _f64((weight / rho) ** (1.0 / self.alpha))

    def rate_derivative(self, price_sum: ArrayOrFloat,
                        weight: ArrayOrFloat = 1.0) -> FloatArray:
        rho = np.maximum(_f64(price_sum), MIN_PRICE_SUM)
        return _f64(
            -(1.0 / self.alpha)
            * (weight ** (1.0 / self.alpha))
            * rho ** (-1.0 / self.alpha - 1.0)
        )

    def inverse_rate(self, x: ArrayOrFloat, weight: ArrayOrFloat = 1.0,
                     ) -> FloatArray:
        clamped = np.maximum(_f64(x), MIN_PRICE_SUM)
        return _f64(weight * clamped ** (-self.alpha))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"AlphaFairUtility(alpha={self.alpha})"
