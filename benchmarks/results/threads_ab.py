"""One thread against every CPU on ``FlowtuneAllocator.iterate()``, bit for bit.

The compiled passes walk a table's chunks on as many threads as the
process's CPU affinity mask holds (the "Threads" paragraph of
``src/repro/core/_kernels.c``).  This script times the allocator's
iteration at T = 1 and at T = all CPUs in one process — one copy of the
program, so no load-order bias — and compares the bits of every op:

1. **Calibration.**  A GIL-free C spin loop (gcc into a temporary
   directory, called through ctypes, which drops the GIL) runs twice in
   a row, then twice at once on two threads.  The ratio says how many
   cores two threads really get; 2.0 is two.  Below
   :data:`MIN_CALIBRATION` the timings are withheld (a parallel timing
   means nothing on a host that time-slices one core), the bits are
   still checked.
2. **Rounds.**  At each size two ``make_scheduler("flowtune")``
   allocators on ``paper_topology()`` hold the same seeded flows.  An op
   applies the same churn (:data:`CHURN` ends + starts) to both and runs
   ``iterate()`` on each: the T = 1 side with the process pinned to one
   CPU, the T = all side on the full mask, the side that goes first
   alternating per op.  Each op's ``rate_vector`` and ``update_indices``
   must be byte-identical.  A round's time is each side's median
   ``iterate()``; the first op of a round is not timed.

Exits 1 if any op differs.  ``--quick`` runs 3 rounds of 4 ops.

    python benchmarks/results/threads_ab.py [--quick] [--rounds 10]
        [--ops 12] [--sizes 16384,32768,65536,100000,262144]
"""

import argparse
import ctypes
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import repro  # noqa: E402

SIZES = (16_384, 32_768, 65_536, 100_000, 262_144)
CHURN = 50
#: Below this spin ratio two threads did not get two cores.
MIN_CALIBRATION = 1.6

SPIN_C = """
double spin(long n)
{
    double x = 0.0;
    for (long i = 0; i < n; i++)
        x = x * 0.999999 + 1.0;
    return x;
}
"""


def spin_function():
    """The compiled spin loop, as a ctypes function."""
    with tempfile.TemporaryDirectory() as tmp:
        source, library = Path(tmp) / "spin.c", Path(tmp) / "spin.so"
        source.write_text(SPIN_C)
        subprocess.run(["gcc", "-O2", "-shared", "-fPIC", str(source),
                        "-o", str(library)], check=True)
        prototype = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_long)
        return prototype(("spin", ctypes.CDLL(str(library))))


def calibrate(rounds=5, seconds=0.2):
    """Per round: (twice in a row) / (twice at once); all rounds."""
    spin = spin_function()
    t0 = time.perf_counter()
    spin(10_000_000)
    n = int(10_000_000 * seconds / (time.perf_counter() - t0))
    ratios = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        spin(n)
        spin(n)
        in_row = time.perf_counter() - t0
        pair = [threading.Thread(target=spin, args=(n,)) for _ in range(2)]
        t0 = time.perf_counter()
        for thread in pair:
            thread.start()
        for thread in pair:
            thread.join()
        ratios.append(in_row / (time.perf_counter() - t0))
    return ratios


def seeded_starts(topology, rng, first, count):
    src = rng.integers(0, topology.n_hosts, count)
    dst = rng.integers(0, topology.n_hosts - 1, count)
    dst += dst >= src
    return [(i, topology.route(s, d, i)) for i, (s, d)
            in enumerate(zip(src.tolist(), dst.tolist()), start=first)]


def run_size(n_flows, rounds, ops, one_cpu, all_cpus, seed=3):
    """Per-round median ms of (T = 1, T = all) and the differing ops."""
    topology = repro.paper_topology()
    rng = np.random.default_rng(seed)
    first = seeded_starts(topology, rng, 0, n_flows)
    sides = []
    for _ in range(2):
        scheduler = repro.make_scheduler(topology.link_set(),
                                         mode="flowtune", gamma=0.4)
        scheduler.apply_churn(starts=first)
        scheduler.iterate(5)
        sides.append(scheduler)
    masks = (one_cpu, all_cpus)
    medians = ([], [])
    differ, next_id = 0, n_flows
    for round_ in range(rounds):
        times = ([], [])
        for op in range(ops):
            ends = rng.choice(sides[0].table.flow_id_array(), CHURN,
                              replace=False).tolist()
            new = seeded_starts(topology, rng, next_id, CHURN)
            next_id += CHURN
            results = [None, None]
            for side in ((0, 1) if (round_ + op) % 2 == 0 else (1, 0)):
                sides[side].apply_churn(starts=new, ends=ends)
                os.sched_setaffinity(0, masks[side])
                t0 = time.perf_counter()
                results[side] = sides[side].iterate()
                elapsed = time.perf_counter() - t0
                os.sched_setaffinity(0, all_cpus)
                if op:
                    times[side].append(1e3 * elapsed)
            a, b = results
            differ += (a.rate_vector.tobytes() != b.rate_vector.tobytes()
                       or a.update_indices.tobytes()
                       != b.update_indices.tobytes())
        for side in (0, 1):
            medians[side].append(statistics.median(times[side]))
    return medians, differ


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--quick", action="store_true")
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--ops", type=int, default=12)
    parser.add_argument("--sizes", default=",".join(map(str, SIZES)))
    args = parser.parse_args()
    rounds, ops = (3, 4) if args.quick else (args.rounds, args.ops)
    sizes = [int(size) for size in args.sizes.split(",")]
    all_cpus = os.sched_getaffinity(0)
    one_cpu = {min(all_cpus)}
    warm = np.empty(32 << 20, dtype=np.uint8)   # grow glibc's mmap
    del warm                                    # threshold first
    print(f"host: {len(all_cpus)} CPUs in the affinity mask, "
          f"{platform.processor() or platform.machine()}, Python "
          f"{platform.python_version()}, numpy {np.__version__}")
    spins = calibrate()
    valid = len(all_cpus) >= 2 and min(spins) >= MIN_CALIBRATION
    print("calibration (twice in a row / twice at once, 5 rounds): "
          + " ".join(f"{r:.2f}" for r in spins)
          + ("" if valid else f"  -> below {MIN_CALIBRATION}x or one CPU: "
             "timings withheld, bits checked"))
    print(f"FlowtuneAllocator.iterate() on paper_topology(), {CHURN} ends "
          f"+ {CHURN} starts per op, {rounds} rounds x {ops} ops, "
          f"T = 1 vs T = {len(all_cpus)} (capped at the chunk count); "
          "ms = median of the per-round medians (range)")
    failed = False
    for n_flows in sizes:
        (one, full), differ = run_size(n_flows, rounds, ops, one_cpu,
                                       all_cpus)
        failed |= differ > 0
        line = (f"{n_flows:>7} flows, {-(-n_flows // 16384):>2} chunks: "
                f"{differ} of {rounds * ops} ops differ")
        if valid:
            speedups = [a / b for a, b in zip(one, full)]
            line += (f"; T=1 {statistics.median(one):7.3f} ms "
                     f"({min(one):.3f}-{max(one):.3f}), "
                     f"T={len(all_cpus)} {statistics.median(full):7.3f} ms "
                     f"({min(full):.3f}-{max(full):.3f}); speedup "
                     f"{statistics.median(speedups):.2f}x "
                     f"({min(speedups):.2f}-{max(speedups):.2f}), "
                     f"{sum(s > 1 for s in speedups)}/{rounds} rounds won")
        print(line, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
