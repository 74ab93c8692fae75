"""Convergence-time measurement (§6.3 / fig. 4).

Given a flow's throughput time series and its ideal fair share, find
how long after a churn event the allocation stays within a tolerance
of fair — "Flowtune converges within ~100 µs, orders of
magnitude faster than other schemes".
"""

from __future__ import annotations

import numpy as np

__all__ = ["convergence_time"]


def convergence_time(times, series, event_time, target, tolerance=0.15,
                     hold=500e-6):
    """Seconds from ``event_time`` until ``series`` stays within
    ``tolerance`` (relative) of ``target`` for at least ``hold``.

    Returns ``inf`` if it never converges within the series.
    """
    times = np.asarray(times)
    series = np.asarray(series)
    mask = times >= event_time
    times, series = times[mask], series[mask]
    if len(times) == 0:
        return float("inf")
    within = np.abs(series - target) <= tolerance * max(target, 1e-9)
    run_start = None
    for t, ok in zip(times, within):
        if ok:
            if run_start is None:
                run_start = t
            if t - run_start >= hold or t == times[-1]:
                return run_start - event_time
        else:
            run_start = None
    if run_start is not None:
        return run_start - event_time
    return float("inf")

