"""Interleaved parent/change timing of ``FlowTable.apply_churn``.

Both copies of ``repro`` are imported into one process (warm heap, see
``.claude/skills/verify/SKILL.md``) and timed in alternating blocks,
so a host speed shift hits both sides alike.  Population 10k flows on
the paper topology, FIFO churn of ``k`` ends + ``k`` starts per op,
followed by the route-index sync the next ``iterate`` would pay (a
table whose kernels read its route storage directly has none: ~0).

    python benchmarks/results/churn_micro.py PARENT_CHECKOUT [CHANGE_CHECKOUT]
"""

import statistics
import sys
import time
from pathlib import Path

import numpy as np

N_LIVE, ROUNDS, BLOCK_S = 10_000, 12, 0.25


def load(checkout):
    for name in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[name]
    sys.path.insert(0, str(Path(checkout) / "src"))
    try:
        import repro
    finally:
        sys.path.pop(0)
    return repro


class Side:
    def __init__(self, repro, routes):
        self.table = repro.core.FlowTable(repro.paper_topology().link_set())
        self.routes = routes
        self.oldest, self.next_id = 0, N_LIVE
        self.table.apply_churn(starts=self.starts(0, N_LIVE))
        self.table.price_sums(np.zeros(self.table.links.n_links))

    def starts(self, first, k):
        routes = self.routes
        return [(fid, routes[fid % len(routes)])
                for fid in range(first, first + k)]

    def block(self, k):
        """Median µs of apply_churn and of the sync, over one block."""
        churn, sync = [], []
        table, zeros = self.table, np.zeros(self.table.links.n_links)
        route_index = getattr(table, "_route_index", lambda: None)
        deadline = time.perf_counter() + BLOCK_S
        while time.perf_counter() < deadline:
            starts = self.starts(self.next_id, k)
            ends = range(self.oldest, self.oldest + k)
            self.next_id += k
            self.oldest += k
            t0 = time.perf_counter()
            table.apply_churn(starts=starts, ends=ends)
            t1 = time.perf_counter()
            route_index()
            t2 = time.perf_counter()
            table.price_sums(zeros)
            churn.append(t1 - t0)
            sync.append(t2 - t1)
        return 1e6 * statistics.median(churn), 1e6 * statistics.median(sync)


def main(parent, change=Path(__file__).resolve().parents[2]):
    warm = np.empty(32 << 20, dtype=np.uint8)
    del warm
    sides = {}
    for name, checkout in (("parent", parent), ("change", change)):
        repro = load(checkout)
        topology = repro.paper_topology()
        rng = np.random.default_rng(7)
        pairs = rng.integers(0, 144, size=(20_000, 2))
        routes = [topology.route(int(s), int(d), i)
                  for i, (s, d) in enumerate(pairs) if s != d]
        sides[name] = Side(repro, routes)
    print(f"{'k':>5} {'side':>7} {'apply_churn_us':>15} {'sync_us':>8}"
          "   (median of block medians, quartiles)")
    for k in (1, 50, 2000):
        samples = {name: [] for name in sides}
        for round_ in range(ROUNDS):
            order = list(sides) if round_ % 2 == 0 else list(sides)[::-1]
            for name in order:
                samples[name].append(sides[name].block(k))
        for name, rows in samples.items():
            churn, sync = (np.percentile(col, [25, 50, 75])
                           for col in zip(*rows))
            print(f"{k:>5} {name:>7} {churn[1]:>15.1f} {sync[1]:>8.1f}"
                  f"   churn {churn[0]:.1f}-{churn[2]:.1f}"
                  f"  sync {sync[0]:.1f}-{sync[2]:.1f}")


if __name__ == "__main__":
    main(*sys.argv[1:3])
