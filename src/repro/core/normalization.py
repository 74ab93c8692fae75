"""Rate normalization (§4): U-NORM and F-NORM.

The optimizer is warm-started across flowlet churn, so while prices
re-converge the raw rates can momentarily exceed link capacities.
Rather than letting that over-allocation turn into queueing (the
fate of distributed schemes like REM), Flowtune's centralized
allocator *normalizes* the rates before sending them to endpoints:

* **U-NORM** (uniform, Equation 8): scale every flow by the worst
  link's allocation-to-capacity ratio ``r* = max_l r_l``.  Simple and
  fairness-preserving, but one congested link drags the whole network
  down.
* **F-NORM** (per-flow, Equation 9): scale each flow by the worst
  ratio *along its own path*, ``max_{l in L(s)} r_l``.  Per-flow work,
  not relative-rate preserving, but only flows crossing congested
  links pay — the paper measures >99.7 % of optimal throughput.

Both return rates guaranteed feasible on every link (for F-NORM, each
link's load is divided by at least its own ratio).

The paper defines both with plain division by the max ratio, which
*scales up* when the network is under-allocated (U-NORM explicitly
targets "the most congested link will operate at its capacity").  Set
``allow_scale_up=False`` to clamp the factor at 1 (pure scale-down),
which some deployments may prefer during convergence from below.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from .network import FlowTable

__all__ = ["link_ratios", "u_norm", "f_norm", "Normalizer",
           "UNormalizer", "FNormalizer", "NullNormalizer"]

FloatArray = npt.NDArray[np.float64]

_EPSILON = 1e-12


def link_ratios(table: FlowTable, rates: npt.ArrayLike,
                link_load: FloatArray | None = None) -> FloatArray:
    """Per-link allocation-to-capacity ratios ``r_l`` (Equation 8).

    ``link_load`` short-circuits the scatter when the caller already
    holds ``table.link_totals(rates)`` — the allocator threads the
    price update's load through so one iterate scatters rates once.
    """
    load = link_load if link_load is not None else table.link_totals(rates)
    return np.asarray(load / table.links.capacity, dtype=np.float64)


def u_norm(table: FlowTable, rates: npt.ArrayLike,
           allow_scale_up: bool = True,
           link_load: FloatArray | None = None) -> FloatArray:
    """Uniform normalization (Equation 8): all flows / worst ratio."""
    rates = np.asarray(rates, dtype=np.float64)
    if len(rates) == 0:
        return rates.copy()
    worst = float(np.max(link_ratios(table, rates, link_load=link_load)))
    if worst <= _EPSILON:
        return rates.copy()
    if not allow_scale_up:
        worst = max(worst, 1.0)
    return rates / worst


def f_norm(table: FlowTable, rates: npt.ArrayLike,
           allow_scale_up: bool = True,
           link_load: FloatArray | None = None) -> FloatArray:
    """Per-flow normalization (Equation 9): each flow / its worst link,
    as one compiled pass (:meth:`FlowTable.f_norm_pass`)."""
    rates = np.ascontiguousarray(rates, dtype=np.float64)
    if len(rates) == 0:
        return rates.copy()
    return table.f_norm_pass(link_ratios(table, rates, link_load=link_load),
                             rates, _EPSILON, allow_scale_up)


class Normalizer:
    """Callable normalization policy (fig. 13 compares the subclasses).

    ``link_load`` is an optional precomputed ``table.link_totals(rates)``
    (the allocator passes the price update's own scatter); subclasses
    that don't consume it must still accept it.  The allocator takes
    only instances of this class: anything else, such as a plain
    function, raises :class:`TypeError` at construction.
    """

    name = "none"

    def __call__(self, table: FlowTable, rates: npt.ArrayLike,
                 link_load: FloatArray | None = None) -> FloatArray:
        raise NotImplementedError


class UNormalizer(Normalizer):
    name = "U-NORM"

    def __init__(self, allow_scale_up: bool = True) -> None:
        self.allow_scale_up = allow_scale_up

    def __call__(self, table: FlowTable, rates: npt.ArrayLike,
                 link_load: FloatArray | None = None) -> FloatArray:
        return u_norm(table, rates, allow_scale_up=self.allow_scale_up,
                      link_load=link_load)


class FNormalizer(Normalizer):
    name = "F-NORM"

    def __init__(self, allow_scale_up: bool = True) -> None:
        self.allow_scale_up = allow_scale_up

    def __call__(self, table: FlowTable, rates: npt.ArrayLike,
                 link_load: FloatArray | None = None) -> FloatArray:
        """Reach: api — every normalizer is a callable (fig. 13 compares
        them); the allocator runs F-NORM's pass with its §6.4 mask
        instead, unless a subclass overrides this method."""
        return f_norm(table, rates, allow_scale_up=self.allow_scale_up,
                      link_load=link_load)


class NullNormalizer(Normalizer):
    """No normalization — the fig. 12 configuration."""

    name = "none"

    def __call__(self, table: FlowTable, rates: npt.ArrayLike,
                 link_load: FloatArray | None = None) -> FloatArray:
        return np.asarray(rates, dtype=np.float64).copy()
