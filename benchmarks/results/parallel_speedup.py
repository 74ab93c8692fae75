"""Alternating-round timing of one parallel NED iteration at scale.

Times ``iterate(1)`` of single-core NED (``ned``), the simulated engine
(``sim``) and the process backend at W workers (``shm<W>``; a checkout
that still has a socket fabric also takes ``socket<W>``) over the same
flows on the 16-cell grid of ``harness.py``'s ``parallel_speedup``.
The side order alternates per round, so a host speed shift hits every
side alike; one copy of ``repro`` per process (CHECKOUT, default this
one).  Prints median ms/iteration (quartiles) and the per-round speedup
over ``--base`` (median, range).

    python benchmarks/results/parallel_speedup.py [CHECKOUT]
        [--flows 262144] [--rounds 10] [--sides ned,sim,shm1,shm2]
"""

import argparse
import re
import statistics
import sys
import time
from pathlib import Path

import numpy as np

ITERS = 5  # timed iterations per side per round; the median is kept


def build(repro, side, topology, flows, table):
    if side == "ned":
        return repro.NedOptimizer(table)
    if side == "sim":
        engine = repro.MulticoreNedEngine(topology, 4)
    else:
        fabric, workers = re.fullmatch(r"([a-z]+)(\d+)", side).groups()
        extra = {} if fabric == "shm" else {"fabric": fabric}
        engine = repro.MulticoreNedEngine(topology, 4, backend="process",
                                          n_workers=int(workers), **extra)
    engine.apply_churn(starts=flows)
    return engine


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("checkout", nargs="?",
                        default=Path(__file__).resolve().parents[2])
    parser.add_argument("--flows", type=int, default=262_144)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--sides", default="ned,sim,shm1,shm2")
    parser.add_argument("--base", default="ned")
    args = parser.parse_args()
    sys.path.insert(0, str(Path(args.checkout) / "src"))
    import repro

    topology = repro.TwoTierClos(n_racks=8, hosts_per_rack=16, n_spines=4)
    rng = np.random.default_rng(11)
    src = rng.integers(topology.n_hosts, size=args.flows)
    dst = rng.integers(topology.n_hosts - 1, size=args.flows)
    dst += dst >= src
    flows = [(i, int(s), int(d)) for i, (s, d) in enumerate(zip(src, dst))]
    table = repro.FlowTable(topology.link_set())
    table.apply_churn(starts=[(i, topology.route(s, d, i))
                              for i, s, d in flows])
    sides = args.sides.split(",")
    runners = {side: build(repro, side, topology, flows, table)
               for side in sides}
    for runner in runners.values():
        runner.iterate(3)  # warm caches, route indices and workers
    ms = {side: [] for side in sides}
    for round_ in range(args.rounds):
        for side in sides if round_ % 2 == 0 else sides[::-1]:
            samples = []
            for _ in range(ITERS):
                t0 = time.perf_counter()
                runners[side].iterate(1)
                samples.append(1e3 * (time.perf_counter() - t0))
            ms[side].append(statistics.median(samples))
    for runner in runners.values():
        getattr(runner, "close", lambda: None)()
    print(f"{args.flows} flows, 16-cell grid, {args.rounds} rounds x "
          f"{ITERS} iterations, speedup over {args.base}")
    for side in sides:
        q1, q2, q3 = np.percentile(ms[side], [25, 50, 75])
        line = f"{side:>8} {q2:8.2f} ms/iter  ({q1:.2f}-{q3:.2f})"
        if side != args.base:
            ratios = [b / s for b, s in zip(ms[args.base], ms[side])]
            line += (f"  speedup {statistics.median(ratios):.2f}x "
                     f"({min(ratios):.2f}-{max(ratios):.2f})")
        print(line)


if __name__ == "__main__":
    main()
