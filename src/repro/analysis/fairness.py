"""Proportional-fairness scoring (fig. 11).

"A network where flows are assigned rates r_i gets score
sum_i log2(r_i).  This translates to gaining a point when a flow gets
2x higher rate, losing a point when a flow gets 2x lower rate."

A completed flow's achieved rate is its size over its FCT.  Fig. 11
plots per-flow fairness *relative to Flowtune*, i.e. the mean over
matched flows of ``log2(r_scheme) - log2(r_flowtune)`` — negative
means the scheme allocated further from proportional fairness.
"""

from __future__ import annotations

import numpy as np

__all__ = ["flow_rates", "relative_fairness"]


def flow_rates(stats):
    """flow_id -> achieved average rate (bit/s) for completed flows."""
    rates = {}
    for flow in stats.completed_flows():
        fct = flow.fct
        if fct and fct > 0:
            rates[flow.flow_id] = flow.size_bytes * 8.0 / fct
    return rates


def relative_fairness(scheme_rates, flowtune_rates):
    """Mean per-flow ``log2`` rate gap vs Flowtune (fig. 11 y-axis)."""
    common = sorted(set(scheme_rates) & set(flowtune_rates),
                    key=lambda k: str(k))
    if not common:
        return float("nan")
    gaps = [np.log2(max(scheme_rates[f], 1e-12))
            - np.log2(max(flowtune_rates[f], 1e-12)) for f in common]
    return float(np.mean(gaps))

