"""Small measurement helpers shared by the workloads."""

from __future__ import annotations

import os
import time

import numpy as np

__all__ = ["summary_ms", "slice_rates", "vm_hwm_mb", "cpu_seconds",
           "Calibration", "N_SLICES"]

N_SLICES = 27

_TICK = os.sysconf("SC_CLK_TCK")


def summary_ms(seconds) -> dict:
    """Median and tail of a latency sample, in ms, with its count.

    A percentile is only reported when at least ten samples lie beyond
    it; otherwise it falls back to the next lower one that has them.
    """
    values = np.sort(np.asarray(seconds, dtype=np.float64)) * 1e3
    n = len(values)
    if n == 0:
        raise ValueError("no samples to summarize")
    out = {"n": n, "p50": float(np.percentile(values, 50))}
    tail = out["p50"]
    for name, q in (("p90", 90), ("p99", 99)):
        if n * (100 - q) / 100 >= 10:
            tail = float(np.percentile(values, q))
        out[name] = tail
    return out


def slice_rates(durations, n_slices: int = N_SLICES) -> np.ndarray:
    """Ops per second of op time in ``n_slices`` runs of consecutive
    ops — time between ops (input building, checks) is not counted."""
    return np.asarray([len(chunk) / chunk.sum() for chunk in
                       np.array_split(np.asarray(durations), n_slices)
                       if len(chunk)])


def vm_hwm_mb(pid: int | str = "self") -> float:
    """Peak resident set of a process (``VmHWM``), in MB."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in /proc/{pid}/status")


def cpu_seconds(pid: int) -> float:
    """utime + stime of a process, all threads, from ``/proc``."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICK


class Calibration:
    """A fixed reference op, timed alongside the workload.

    The sandbox's speed moves by tens of percent for seconds at a time
    (shared host), far more than any bound this benchmark sets, so the
    in-process end-to-end times are reported *host-calibrated*: each
    raw time is divided by the slowdown the reference op showed at the
    same moment (its time over ``REFERENCE_S``).  The op is fixed
    benchmark code, a pure-Python dict and tuple loop — of the ops
    tried (numpy scatters of two sizes, the loop, and their mixes) the
    one whose ratio to every workload's op time held steadiest — so no
    change to the program can move it.  Raw times are always printed
    next to calibrated ones.
    """

    #: The op's time on the quiet sandbox; an arbitrary fixed scale
    #: that makes calibrated and raw milliseconds agree there.
    REFERENCE_S = 0.00045

    def __init__(self) -> None:
        self.times: list[float] = []      # when each sample ended
        self.seconds: list[float] = []    # how long it took

    def sample(self) -> float:
        t0 = time.perf_counter()
        table = {}
        for i in range(3000):
            table[i] = (i, i + 1)
        total = 0
        for value in table.values():
            total += value[1]
        t1 = time.perf_counter()
        self.times.append(t1)
        self.seconds.append(t1 - t0)
        return t1 - t0

    def burst(self, n: int = 15) -> float:
        """Slowdown right now: median of ``n`` back-to-back samples."""
        return float(np.median([self.sample() for _ in range(n)])
                     / self.REFERENCE_S)

    def slowdown(self, t_begin: float, t_end: float) -> float:
        """Median slowdown over the samples that ended in a time span."""
        times = np.asarray(self.times)
        inside = np.asarray(self.seconds)[(times >= t_begin)
                                          & (times <= t_end)]
        return float(np.median(inside) / self.REFERENCE_S)
