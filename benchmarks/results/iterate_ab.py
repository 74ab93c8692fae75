"""Interleaved parent/change timing of one allocator op, bit for bit.

Both copies of ``repro`` are imported into one process (its heap warmed
by one 32 MB allocation, so 800 KB temporaries do not page-fault on
every call), each builds a
``FlowtuneAllocator`` over the same flows on the paper topology, and
every op applies the same churn (``k`` random ends + ``k`` starts) to
both and runs ``iterate(1)`` on both, the side that goes first
alternating per op, so a host speed shift hits both sides alike.  An
op's time is ``apply_churn`` + ``iterate``; the first fifth of the ops
is dropped.  Every op's rate vector and update indices are compared
with ``tobytes()``: a change that claims no float moved must print
``0 differ``.

The copy imported first is faster or slower for reasons of its own
(allocation placement; at 100k flows the change/parent ratio of one
change read 0.83-0.85 with the parent loaded first and 0.96-1.03 with
the change loaded first), so the script runs both load orders, each in
a fresh subprocess, one after the other, and prints both ratios, their
geometric mean and a warning where the two orders disagree by more
than :data:`ORDER_SPREAD`.

    python benchmarks/results/iterate_ab.py PARENT_CHECKOUT [CHANGE_CHECKOUT]
"""

import json
import math
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: (live flows, ends = starts per op, ops) per workload shape.
SHAPES = ((100_000, 50, 1200), (10_000, 2000, 600), (3_000, 250, 1200))
#: The two load orders, as the child's first argument.
ORDERS = ("parent-first", "change-first")
#: Relative disagreement between the orders' ratios that gets a warning.
ORDER_SPREAD = 0.05


def load(checkout):
    for name in [m for m in sys.modules if m.split(".")[0] == "repro"]:
        del sys.modules[name]
    sys.path.insert(0, str(Path(checkout) / "src"))
    try:
        import repro
    finally:
        sys.path.pop(0)
    return repro


def run_shape(modules, n_live, k, ops, seed=3):
    topology = modules[0].paper_topology()
    rng = np.random.default_rng(seed)

    def starts(first, count):
        src = rng.integers(0, topology.n_hosts, count)
        dst = rng.integers(0, topology.n_hosts - 1, count)
        dst += dst >= src
        return [(i, topology.route(s, d, i)) for i, (s, d)
                in enumerate(zip(src.tolist(), dst.tolist()), start=first)]

    sides = [repro.core.FlowtuneAllocator(topology.link_set())
             for repro in modules]
    first = starts(0, n_live)
    for allocator in sides:
        allocator.apply_churn(starts=first)
        allocator.iterate(5)
    times = [[], []]
    differ = 0
    next_id = n_live
    for op in range(ops):
        ends = rng.choice(sides[0].table.flow_id_array(), k,
                          replace=False).tolist()
        new = starts(next_id, k)
        next_id += k
        results = [None, None]
        for side in ((0, 1) if op % 2 == 0 else (1, 0)):
            t0 = time.perf_counter()
            sides[side].apply_churn(starts=new, ends=ends)
            results[side] = sides[side].iterate(1)
            times[side].append(time.perf_counter() - t0)
        a, b = results
        differ += (a.rate_vector.tobytes() != b.rate_vector.tobytes()
                   or a.update_indices.tobytes() != b.update_indices.tobytes())
    skip = ops // 5
    parent, change = (1e3 * np.array(t[skip:]) for t in times)
    return (statistics.median(parent), statistics.median(change),
            change.sum() / parent.sum(), differ)


def child(order, parent, change):
    """One load order in this process: one JSON line per shape."""
    warm = np.empty(32 << 20, dtype=np.uint8)
    del warm
    if order == "parent-first":
        modules = [load(parent), load(change)]
    else:
        changed = load(change)
        modules = [load(parent), changed]
    for n_live, k, ops in SHAPES:
        p50, c50, ratio, differ = run_shape(modules, n_live, k, ops)
        print(json.dumps([p50, c50, ratio, differ]), flush=True)


def main(parent, change=Path(__file__).resolve().parents[2]):
    print(f"parent {parent}, change {change}; op = apply_churn + iterate(1),"
          " ms medians, ratio = change/parent summed over the kept ops;"
          " each load order in its own process")
    ratios = {}
    for order in ORDERS:
        proc = subprocess.Popen(
            [sys.executable, __file__, "--child", order, str(parent),
             str(change)], stdout=subprocess.PIPE, text=True)
        assert proc.stdout is not None
        for (n_live, k, ops), line in zip(SHAPES, proc.stdout):
            p50, c50, ratio, differ = json.loads(line)
            ratios[order, n_live] = ratio
            print(f"{order:>12}: {n_live:>7} live, {k:>4} churn, {ops} ops: "
                  f"parent {p50:.3f}  change {c50:.3f}  ratio {ratio:.3f}  "
                  f"({differ} of {ops} ops differ)", flush=True)
        if proc.wait():
            raise SystemExit(f"the {order} child failed")
    for n_live, k, _ in SHAPES:
        first, second = (ratios[order, n_live] for order in ORDERS)
        spread = abs(first / second - 1.0)
        print(f"{n_live:>7} live, {k:>4} churn: ratio {first:.3f} "
              f"(parent first) / {second:.3f} (change first), geometric "
              f"mean {math.sqrt(first * second):.3f}"
              + (f"  WARNING: the load orders disagree by {spread:.0%}"
                 if spread > ORDER_SPREAD else ""))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(*sys.argv[2:])
    else:
        main(*sys.argv[1:])
