"""Shared benchmark infrastructure: scale knobs, reporting, run cache.

Scale is controlled by ``REPRO_SCALE``:

* ``smoke`` — seconds-long sanity runs (CI),
* ``small`` — default; minutes for the full suite, preserves shapes,
* ``paper`` — the §6.2 topology (144 hosts) and longer horizons;
  expect hours in pure Python.

Benchmarks *print* the paper-vs-measured rows (through ``report``,
which bypasses pytest capture so the tables land in the console/tee),
and still use pytest-benchmark for wall-clock accounting.
"""

from __future__ import annotations

import os
import platform
import sys
from dataclasses import dataclass

__all__ = ["SCALE", "ScaleConfig", "report", "fct_run", "FCT_SCHEMES",
           "bench_environment"]


def bench_environment():
    """Machine/interpreter fingerprint stamped into benchmark JSON so a
    result file (or the committed baseline) records where it came
    from."""
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "system": platform.system(),
        "machine": platform.machine(),
    }


@dataclass(frozen=True)
class ScaleConfig:
    name: str
    n_racks: int
    hosts_per_rack: int
    n_spines: int
    fct_duration: float
    fct_drain: float
    fluid_duration: float
    fluid_warmup: float
    loads: tuple
    convergence_interval: float


_SCALES = {
    "smoke": ScaleConfig("smoke", 2, 4, 2, 1.5e-3, 3e-3, 1e-3, 0.3e-3,
                         (0.4, 0.8), 2e-3),
    "small": ScaleConfig("small", 3, 8, 2, 4e-3, 8e-3, 4e-3, 1e-3,
                         (0.2, 0.4, 0.6, 0.8), 5e-3),
    "paper": ScaleConfig("paper", 9, 16, 4, 20e-3, 20e-3, 10e-3, 2e-3,
                         (0.2, 0.4, 0.6, 0.8), 10e-3),
}

SCALE = _SCALES[os.environ.get("REPRO_SCALE", "small")]


#: set by benchmarks/conftest.py; pytest's fd-level capture swallows
#: even sys.__stdout__, so reporting suspends capture while writing.
CAPTURE_MANAGER = None


def report(text):
    """Print to the real terminal so tables survive pytest capture."""
    capman = CAPTURE_MANAGER
    if capman is not None:
        capman.suspend_global_capture(in_=False)
    try:
        sys.__stdout__.write(text + "\n")
        sys.__stdout__.flush()
    finally:
        if capman is not None:
            capman.resume_global_capture()


# ----------------------------------------------------------------------
# Shared packet-simulation runs for figures 8-11 (same runs, four
# different readouts — mirroring how the paper extracts all four
# figures from one simulation campaign).
# ----------------------------------------------------------------------
FCT_SCHEMES = ("flowtune", "dctcp", "pfabric", "sfqcodel", "xcp")

_RUN_CACHE = {}


def fct_run(scheme, load, seed=17):
    """Memoized (network, stats, duration) for one scheme at one load."""
    key = (scheme, load, seed, SCALE.name)
    if key not in _RUN_CACHE:
        from repro.sim.experiments import fct_experiment
        from repro.topology import TwoTierClos
        topology = TwoTierClos(n_racks=SCALE.n_racks,
                               hosts_per_rack=SCALE.hosts_per_rack,
                               n_spines=SCALE.n_spines)
        _RUN_CACHE[key] = fct_experiment(
            scheme, workload="web", load=load, duration=SCALE.fct_duration,
            drain=SCALE.fct_drain, seed=seed, topology=topology)
    return _RUN_CACHE[key]
