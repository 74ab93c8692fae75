"""Interleaved timing of the link scatter by chunk size, per checkout.

``repro.core.kernels`` scatters a chunk of at most ``SMALL_CHUNK`` flows
with one ``bincount`` over its hop columns laid end to end, and a
bigger chunk with one ``np.add.at`` per column.  This times what that
threshold decides: ``FlowTable.link_totals2`` on paper-topology tables
of 32 to 16384 flows (one chunk each, ``BLOCK_ROWS`` = 16384), and one
``MulticoreNedEngine.iterate`` on the 16-cell grid of the harness's
``multicore_16proc`` (512 flows, ~32 per cell).  Every checkout's
``repro`` is imported into one process (warm heap) and the checkouts
are timed in alternating order per round, so a host speed shift hits
them alike.  To time one scatter form on its own, pass a copy of the
tree with ``SMALL_CHUNK`` edited (0: column by column only; 1 << 30:
one call only).

    python benchmarks/results/scatter_sweep.py CHECKOUT [CHECKOUT ...]
"""

import sys
import time
from pathlib import Path

import numpy as np
from churn_micro import load

SIZES = (32, 64, 128, 256, 512, 1024, 1536, 2048, 3072, 4096, 8192,
         16384)
ROUNDS, BLOCK_S = 20, 0.05


def scatter_op(repro, n):
    """``link_totals2`` over a fresh table of ``n`` paper-topology flows."""
    topology = repro.paper_topology()
    table = repro.core.FlowTable(topology.link_set())
    rng = np.random.default_rng(7)
    starts = []
    while len(starts) < n:
        src, dst = (int(x) for x in rng.integers(0, topology.n_hosts, 2))
        if src != dst:
            starts.append((len(starts), topology.route(src, dst,
                                                       len(starts))))
    table.apply_churn(starts=starts)
    a, b = rng.random(n), rng.random(n)
    return lambda: table.link_totals2(a, b)


def engine_op(repro):
    """One iteration of the harness's ``multicore_16proc`` engine."""
    topology = repro.topology.TwoTierClos(n_racks=8, hosts_per_rack=8,
                                          n_spines=4)
    engine = repro.parallel.MulticoreNedEngine(topology, 4)
    rng = np.random.default_rng(0)
    for i in range(8 * topology.n_hosts):
        src = int(rng.integers(topology.n_hosts))
        dst = int(rng.integers(topology.n_hosts - 1))
        engine.add_flow(i, src, dst + (dst >= src))
    engine.iterate(3)
    return lambda: engine.iterate(1)


def block_us(op):
    """Mean µs per call over one ``BLOCK_S`` block."""
    calls, t0 = 0, time.perf_counter()
    deadline = t0 + BLOCK_S
    while time.perf_counter() < deadline:
        op()
        calls += 1
    return 1e6 * (time.perf_counter() - t0) / calls


def main(checkouts):
    warm = np.empty(32 << 20, dtype=np.uint8)
    del warm
    rows = [f"link_totals2 n={n}" for n in SIZES] + ["multicore_16proc"]
    ops = {}
    for checkout in checkouts:
        repro = load(checkout)
        import repro.parallel
        import repro.topology
        ops[Path(checkout).name] = [scatter_op(repro, n) for n in SIZES] \
            + [engine_op(repro)]
    samples = {name: [[] for _ in rows] for name in ops}
    for round_ in range(ROUNDS):
        order = list(ops) if round_ % 2 == 0 else list(ops)[::-1]
        for row in range(len(rows)):
            for name in order:
                samples[name][row].append(block_us(ops[name][row]))
    print(f"{'us per call':<22}" + "".join(f"{name:>24}" for name in ops)
          + "   (median of block means [quartiles])")
    for row, label in enumerate(rows):
        cells = []
        for name in ops:
            q1, med, q3 = np.percentile(samples[name][row], [25, 50, 75])
            cells.append(f"{med:>9.1f} [{q1:.1f}-{q3:.1f}]")
        print(f"{label:<22}" + "".join(f"{cell:>24}" for cell in cells))
    print(f"rounds {ROUNDS}, block {BLOCK_S} s, "
          f"python {sys.version.split()[0]}, numpy {np.__version__}")


if __name__ == "__main__":
    main(sys.argv[1:] or [Path(__file__).resolve().parents[2]])
