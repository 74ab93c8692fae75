"""Interleaved parent/change timing of ``FlowTable.apply_churn``, checked bit for bit.

Both copies of ``repro`` are imported into one process (warm heap, see
``.claude/skills/verify/SKILL.md``) and timed in alternating blocks,
so a host speed shift hits both sides alike.  Population 10k flows on
the paper topology, FIFO churn of ``k`` ends + ``k`` starts per op.

After every round the side that ran fewer ops is churned, untimed, up
to the other's op count; both tables have then taken the same events,
so their routes, weights, flow ids and bottleneck capacities must be
equal by ``tobytes()`` and both must pass ``audit()``.  The script
prints the number of rounds whose tables differ and exits 1 if any do.

    python benchmarks/results/churn_micro.py PARENT_CHECKOUT [CHANGE_CHECKOUT]
        [--change-first]

The side imported first can read faster; ``--change-first`` imports
the change first, so run it both ways.
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
        self.oldest, self.next_id, self.ops = 0, N_LIVE, 0
        self.table.apply_churn(starts=self.starts(0, N_LIVE))
        self.zeros = np.zeros(self.table.links.n_links)
        self.table.price_sums(self.zeros)

    def starts(self, first, k):
        routes = self.routes
        return [(fid, routes[fid % len(routes)])
                for fid in range(first, first + k)]

    def op(self, k):
        """One op: its inputs, then the timed ``apply_churn``, then the
        gather the next ``iterate`` would start with (untimed)."""
        starts = self.starts(self.next_id, k)
        ends = range(self.oldest, self.oldest + k)
        self.next_id += k
        self.oldest += k
        self.ops += 1
        t0 = time.perf_counter()
        self.table.apply_churn(starts=starts, ends=ends)
        t1 = time.perf_counter()
        self.table.price_sums(self.zeros)
        return t1 - t0

    def block(self, k):
        """Median µs of ``apply_churn`` over one block."""
        churn = []
        deadline = time.perf_counter() + BLOCK_S
        while time.perf_counter() < deadline:
            churn.append(self.op(k))
        return 1e6 * statistics.median(churn)

    def state(self):
        """The table's columns as bytes, after its own audit."""
        table = self.table
        table.audit()
        return (table.routes.tobytes(), table.weights.tobytes(),
                table.flow_ids(), table.bottleneck_capacity().tobytes())


def main(parent, change=Path(__file__).resolve().parents[2],
         change_first=False):
    warm = np.empty(32 << 20, dtype=np.uint8)
    del warm
    sides = {}
    order = [("parent", parent), ("change", change)]
    for name, checkout in order[::-1] if change_first else order:
        repro = load(checkout)
        topology = repro.paper_topology()
        rng = np.random.default_rng(7)
        pairs = rng.integers(0, 144, size=(20_000, 2))
        routes = [topology.route(int(s), int(d), i)
                  for i, (s, d) in enumerate(pairs) if s != d]
        sides[name] = Side(repro, routes)
    print(f"{'k':>5} {'side':>7} {'apply_churn_us':>15}"
          "   (median of block medians, quartiles)")
    differing = 0
    for k in (1, 50, 2000):
        samples = {name: [] for name in sides}
        for round_ in range(ROUNDS):
            order = list(sides) if round_ % 2 == 0 else list(sides)[::-1]
            for name in order:
                samples[name].append(sides[name].block(k))
            ops = max(side.ops for side in sides.values())
            for side in sides.values():
                while side.ops < ops:
                    side.op(k)
            states = [side.state() for side in sides.values()]
            differing += states[0] != states[1]
        for name, churn in samples.items():
            q1, median, q3 = np.percentile(churn, [25, 50, 75])
            print(f"{k:>5} {name:>7} {median:>15.1f}   {q1:.1f}-{q3:.1f}")
        ratio = np.median(samples["change"]) / np.median(samples["parent"])
        print(f"{k:>5} {'ratio':>7} {ratio:>15.3f}   change / parent")
    print(f"rounds whose tables differ: {differing} of {3 * ROUNDS}")
    return 1 if differing else 0


if __name__ == "__main__":
    paths = [arg for arg in sys.argv[1:] if arg != "--change-first"]
    sys.exit(main(*paths[:2], change_first="--change-first" in sys.argv))
