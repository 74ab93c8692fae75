"""Ablation: NED step-size sensitivity (§6.2).

"We found that for NED parameter gamma in the range [0.2, 1.5], the
network exhibits similar performance; experiments have gamma = 0.4."
This bench sweeps gamma on the fluid churn model and reports mean
over-allocation and throughput — the two quantities a bad step size
would wreck — to confirm the plateau the paper describes.
"""

from functools import partial

import numpy as np

from repro.analysis import format_table
from repro.core.ned import NedOptimizer
from repro.fluid import build_fluid_setup

from _common import SCALE, report

GAMMAS = (0.1, 0.2, 0.4, 1.0, 1.5, 2.5)


def test_gamma_sweep(benchmark):
    def run():
        results = {}
        for gamma in GAMMAS:
            _, _, _, simulator = build_fluid_setup(
                workload="web", load=0.6,
                optimizer_cls=partial(NedOptimizer, gamma=gamma), seed=31,
                n_racks=SCALE.n_racks, hosts_per_rack=SCALE.hosts_per_rack,
                n_spines=SCALE.n_spines)
            metrics = simulator.run(SCALE.fluid_duration,
                                    warmup=SCALE.fluid_warmup)
            results[gamma] = (metrics.mean_over_allocation(),
                              float(np.mean(metrics.total_rate)))
        return results

    results = benchmark.pedantic(run, rounds=1, iterations=1)
    rows = [[f"{g:.1f}", f"{over:.2f}", f"{rate:.1f}"]
            for g, (over, rate) in results.items()]
    report(format_table(
        ["gamma", "mean over-alloc (Gbit/s)", "mean throughput (Gbit/s)"],
        rows, title="\n[ablation] NED gamma sweep "
                    "(paper: similar for gamma in [0.2, 1.5])"))

    # The paper's plateau: throughput within 10% across [0.2, 1.5].
    plateau = [results[g][1] for g in (0.2, 0.4, 1.0, 1.5)]
    assert max(plateau) < 1.1 * min(plateau)