"""Interleaved per-call timing of the route kernels, per checkout.

Times what the kernels cost per call at the table sizes the workloads
and the harness form: ``FlowTable.link_totals2``, ``price_sums`` and
``max_link_value`` and the allocator's two passes (NED's log-utility
pass; F-NORM with the §6.4 mask) on paper-topology tables of 32, 1024,
16 384 (one ``BLOCK_ROWS`` chunk) and 100 000 flows, and one
``MulticoreNedEngine.iterate`` on the 16-cell grid of the harness's
``multicore_16proc`` (512 flows, ~32 per cell), where the per-call
cost decides.  Every checkout's ``repro`` is imported into one process
(warm heap) and the checkouts are timed in alternating order per
round, so a host speed shift hits them alike.

    python benchmarks/results/kernel_sweep.py PARENT_CHECKOUT CHECKOUT
"""

import sys
import time
from pathlib import Path

import numpy as np
from churn_micro import load

SIZES = (32, 1024, 16384, 100_000)
ROUNDS, BLOCK_S = 20, 0.05


def table_ops(repro, n):
    """The three kernels over a fresh table of ``n`` paper flows."""
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
    per_link = rng.random(table.links.n_links)
    return [lambda: table.link_totals2(a, b),
            lambda: table.price_sums(per_link),
            lambda: table.max_link_value(per_link),
            *pass_ops(table, rng)]


def pass_ops(table, rng):
    """NED's pass (capped log utility) and F-NORM's pass with the mask,
    as the checkout's allocator runs them."""
    n = table.n_flows
    prices, ratios = rng.random(table.links.n_links), rng.random(
        table.links.n_links)
    caps, raw, rates = 0.1 * rng.random(n), rng.random(n), np.empty(n)
    last, pending = np.full(n, np.nan), np.zeros(n, dtype=np.bool_)
    changed = np.empty(n, dtype=np.bool_)
    return [lambda: table.log_rate_pass(prices, caps, rates),
            lambda: table.f_norm_pass(ratios, raw, 1e-12, True,
                                      (last, pending, 0.01, changed))]


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
    rows = [f"{kernel} n={n}" for n in SIZES
            for kernel in ("link_totals2", "price_sums", "max_link_value",
                           "ned pass", "f_norm pass")]
    rows.append("multicore_16proc")
    ops, tags = {}, {}
    for checkout in checkouts:
        repro = load(checkout)
        import repro.parallel
        import repro.topology
        name = Path(checkout).name
        tags[name] = repro.core.kernels.describe()
        ops[name] = [op for n in SIZES for op in table_ops(repro, n)] \
            + [engine_op(repro)]
    samples = {name: [[] for _ in rows] for name in ops}
    for round_ in range(ROUNDS):
        order = list(ops) if round_ % 2 == 0 else list(ops)[::-1]
        for row in range(len(rows)):
            for name in order:
                samples[name][row].append(block_us(ops[name][row]))
    names = list(ops)
    print(f"{'us per call':<26}"
          + "".join(f"{name + ' (' + tags[name] + ')':>26}" for name in ops)
          + ("   last/first" if len(names) > 1 else "")
          + "   (median of block means [quartiles])")
    for row, label in enumerate(rows):
        cells, medians = [], []
        for name in names:
            q1, med, q3 = np.percentile(samples[name][row], [25, 50, 75])
            medians.append(med)
            cells.append(f"{med:>9.1f} [{q1:.1f}-{q3:.1f}]")
        ratio = (f"   {medians[-1] / medians[0]:.2f}x"
                 if len(names) > 1 else "")
        print(f"{label:<26}" + "".join(f"{cell:>26}" for cell in cells)
              + ratio)
    print(f"rounds {ROUNDS}, block {BLOCK_S} s, "
          f"python {sys.version.split()[0]}, numpy {np.__version__}")


if __name__ == "__main__":
    main(sys.argv[1:] or [Path(__file__).resolve().parents[2]])
