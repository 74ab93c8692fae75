"""Real-time (RT) optimizer variants: NED-RT and Gradient-RT.

Figure 12 of the paper compares the double-precision reference
implementations with "real-time implementations NED-RT and
Gradient-RT, which use single-point floating point operations and some
numeric approximations for speed".  We reproduce that distinction:

* all link/flow state is held and updated in ``float32``;
* divisions go through a fast reciprocal (one Newton-Raphson refinement
  of a coarse seed, mirroring what `rcpps`-style SIMD code does) rather
  than exact division.

The point of the experiment is that the approximations perturb the
trajectory slightly — over-allocation transients differ from the
reference — while remaining usable.
"""

from __future__ import annotations

import numpy as np

from .gradient import GradientOptimizer
from .ned import NedOptimizer
from .optimizer import PriceOptimizer

__all__ = ["fast_reciprocal", "NedRtOptimizer", "GradientRtOptimizer"]


def fast_reciprocal(values):
    """Approximate ``1/x`` in float32 with one Newton-Raphson step.

    The seed intentionally carries a small relative error (like the
    hardware ``rcpps`` estimate); one refinement step brings it to
    ~1e-4 relative error, far coarser than an exact divide but much
    cheaper on real-time SIMD paths.
    """
    x = np.asarray(values, dtype=np.float32)
    with np.errstate(divide="ignore", over="ignore"):
        seed = np.float32(1.0) / x
    # Inject the coarse-seed error the hardware estimate would have.
    seed = seed * np.float32(1.0009765625)  # 1 + 2**-10
    # Newton-Raphson: r <- r * (2 - x * r)
    return seed * (np.float32(2.0) - x * seed)


class _Float32RateMixin:
    """float32 prices and rate update with approximate reciprocals
    (shared by RTs); the options are the reference optimizer's."""

    _w32_version = -1
    _w32 = None
    #: preallocated float32 rho staging buffer — the real-time path
    #: must not allocate per iteration, so the float64 price sums are
    #: *cast into* this buffer instead of ``astype``-copied; it only
    #: ever re-allocates when the flow population outgrows it.
    _rho32 = None

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.prices = self.prices.astype(np.float32)

    def _weights32(self):
        # float32 copy of the weight vector, cached between churn
        # events (the real-time path must not allocate per iteration).
        if self._w32_version != self.table.version:
            self._w32 = self.table.weights.astype(np.float32)
            self._w32_version = self.table.version
        return self._w32

    def _rho32_buffer(self, n):
        buffer = self._rho32
        if buffer is None or len(buffer) < n:
            # Track the table's storage capacity so steady churn never
            # triggers another allocation.
            capacity = max(n, len(self.table._weights))
            self._rho32 = buffer = np.empty(capacity, dtype=np.float32)
        return buffer[:n]

    def rate_update(self, prices=None):
        # Same kinked operating point as the reference (see
        # PriceOptimizer), but float32 with approximate reciprocals.
        rho64 = self.effective_price_sums(prices)
        rho = self._rho32_buffer(len(rho64))
        np.copyto(rho, rho64, casting="same_kind")
        np.maximum(rho, np.float32(1e-9), out=rho)
        return self._weights32() * fast_reciprocal(rho)


class NedRtOptimizer(_Float32RateMixin, NedOptimizer):
    """NED with float32 state and approximate reciprocals (fig. 12)."""

    name = "NED-RT"
    # The two-step iteration (float32 rates, then this price update),
    # not float64 NED's fused pass.
    _step = PriceOptimizer._step

    def _update_prices(self, rates):
        # Same fused pair scatter as the float64 NED (rates and
        # rate derivatives share indices; the float32 per-flow values
        # are staged through the float64 kernels exactly as before),
        # with the results then narrowed to float32.
        table = self.table
        rho = self.effective_price_sums()
        per_flow = self.utility.rate_derivative(rho, table.weights)
        load, hessian64 = table.link_totals2(rates, per_flow)
        self._load_memo = (table.version, rates, load)
        over = (load - table.links.capacity).astype(np.float32)
        hessian = hessian64.astype(np.float32)
        carrying = hessian < 0.0
        inv_h = np.zeros_like(hessian)
        inv_h[carrying] = -fast_reciprocal(-hessian[carrying])
        new_prices = np.where(
            carrying,
            self.prices.astype(np.float32)
            - np.float32(self.gamma) * over * inv_h,
            np.float32(0.0),
        )
        np.maximum(new_prices, np.float32(0.0), out=new_prices)
        self.prices = new_prices


class GradientRtOptimizer(_Float32RateMixin, GradientOptimizer):
    """Gradient projection with float32 state (fig. 12)."""

    name = "Gradient-RT"

    def _update_prices(self, rates):
        over = self.over_allocation(rates).astype(np.float32)
        new_prices = (self.prices.astype(np.float32)
                      + np.float32(self.gamma) * over)
        np.maximum(new_prices, np.float32(0.0), out=new_prices)
        self.prices = new_prices
