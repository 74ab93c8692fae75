#!/usr/bin/env python
"""Hot-path performance harness with a regression gate.

Measures the throughput of the allocator's two critical loops —
``FlowtuneAllocator.iterate`` under flowlet churn at 1k/10k/100k
flows, and one ``MulticoreNedEngine`` parallel iteration — and writes
the results as machine-readable ``BENCH_hotpath.json``.  A committed
baseline (``benchmarks/baseline.json``) plus a tolerance gate turn the
numbers into a CI check: any benchmark that lands more than
``--tolerance`` (default 30 %) below baseline fails the run when
``--check`` is given.

Hardware normalization: raw ops/sec is meaningless across machines
(laptop vs CI runner), so every run also times a fixed pure-numpy
*calibration* kernel shaped like the allocator's gather/scatter work.
The gate compares each benchmark's ops/sec *relative to calibration*
against the baseline's relative score, which makes the committed
baseline portable across hosts.

Usage::

    python benchmarks/harness.py --quick             # CI smoke (<2 min)
    python benchmarks/harness.py                     # full mode
    python benchmarks/harness.py --quick --check     # gate vs baseline
    python benchmarks/harness.py --update-baseline   # refresh baseline

The harness deliberately works against both the current tree and the
seed implementation (``apply_churn`` is used when present, per-event
``flowlet_start``/``flowlet_end`` otherwise) so one script can measure
speedups across revisions.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy as np  # noqa: E402

import report  # noqa: E402
from _common import bench_environment  # noqa: E402

DEFAULT_OUTPUT = REPO_ROOT / "BENCH_hotpath.json"
DEFAULT_BASELINE = REPO_ROOT / "benchmarks" / "baseline.json"

#: per-benchmark (n_ops, repeats) knobs for the two modes.
_MODES = {
    "quick": {"warmup_iters": 20, "repeats": 3,
              "churn_ops": {1_000: 60, 10_000: 30, 100_000: 10,
                            1_000_000: 3},
              # Short measurements are hostage to scheduler bursts on
              # shared single-core hosts; these two lanes were the
              # noisiest, so quick mode gives them enough ops that one
              # burst cannot move the best-of-repeats past the gate.
              "multicore_ops": 30,
              "fluid_ops": 20,
              "speedup_flows": 4_096, "speedup_ops": 6,
              "speedup_workers": (1, 2, 4),
              "barrier_steps": 300,
              "service_flows": 1_000,
              "service_arrivals": 150,
              "service_rate_per_sec": 150.0,
              # p99-based scores are tail-hostage; best-of-2 phases
              # keeps one scheduler burst from moving the gate.
              "fanout_clients": 100,
              "fanout_flows_per_client": 3,
              "fanout_events_per_client": 8,
              "fanout_rate_per_sec": 250.0,
              "fanout_phases": 2,
              "sampled_cycle": 32,
              "sampled_batches": 5},
    "full": {"warmup_iters": 50, "repeats": 3,
             "churn_ops": {1_000: 300, 10_000: 150, 100_000: 40,
                           1_000_000: 6},
             "multicore_ops": 40,
             "fluid_ops": 50,
             # The regime where the process backend pays: two shm
             # workers read 1.8-1.9x single-core NED at 262k flows on
             # a 2-vCPU host (benchmarks/results/parallel-speedup-*.txt).
             "speedup_flows": 262_144, "speedup_ops": 12,
             "speedup_workers": (1, 2, 4, 8, 16),
             "barrier_steps": 1_200,
             "service_flows": 1_000,
             "service_arrivals": 400,
             "service_rate_per_sec": 250.0,
             "fanout_clients": 120,
             "fanout_flows_per_client": 4,
             "fanout_events_per_client": 15,
             "fanout_rate_per_sec": 300.0,
             "fanout_phases": 2,
             "sampled_cycle": 32,
             "sampled_batches": 9},
}

#: Benchmarks recorded in the JSON but *excluded* from the baseline
#: regression gate: their scores depend on the host's core count (the
#: calibration kernel is single-threaded, so normalization cannot make
#: real-parallelism numbers portable between a laptop and a CI runner).
UNGATED = frozenset({"parallel_speedup"})

#: Benchmarks too heavy for smoke runs: default quick runs (and the
#: quick baseline the smoke gate compares against) skip them; full
#: runs always include them, and ``--only`` can still name one
#: explicitly in either mode.
FULL_ONLY = frozenset({"iterate_churn_1m"})


# ----------------------------------------------------------------------
# timing
# ----------------------------------------------------------------------
def best_rate(op, n_ops, repeats):
    """ops/sec from the fastest of ``repeats`` timed batches.

    ``op`` receives a monotonically increasing op index so stateful
    benchmarks (churn) never reuse flow ids across batches.
    """
    counter = 0
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(n_ops):
            op(counter)
            counter += 1
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return n_ops / best


# ----------------------------------------------------------------------
# calibration: fixed numpy kernel shaped like the allocator hot loop
# ----------------------------------------------------------------------
def bench_calibration(mode):
    """Gather + reduce + bincount on fixed arrays (machine speed probe)."""
    rng = np.random.default_rng(7)
    n_flows, route_len, n_links = 10_000, 4, 512
    routes = rng.integers(0, n_links, size=(n_flows, route_len))
    prices = rng.random(n_links + 1)
    flat = routes.reshape(-1)

    def op(_):
        rho = prices[flat].reshape(n_flows, route_len).sum(axis=1)
        rates = 1.0 / (rho + 1.0)
        np.bincount(flat, weights=np.repeat(rates, route_len),
                    minlength=n_links + 1)

    n_ops = 30 if mode == "quick" else 100
    ops = best_rate(op, n_ops, _MODES[mode]["repeats"])
    return {"ops_per_sec": ops,
            "params": {"n_flows": n_flows, "n_links": n_links,
                       "n_ops": n_ops}}


# ----------------------------------------------------------------------
# allocator iterate-under-churn
# ----------------------------------------------------------------------
def _apply_churn(allocator, starts=(), ends=()):
    """Batched churn when available (current tree), per-event otherwise
    (seed implementation) — lets one harness measure both revisions."""
    if hasattr(allocator, "apply_churn"):
        allocator.apply_churn(starts=starts, ends=ends)
    else:
        for flow_id in ends:
            allocator.flowlet_end(flow_id)
        for start in starts:
            allocator.flowlet_start(*start)


def _random_pair(topology, rng):
    src = int(rng.integers(topology.n_hosts))
    dst = int(rng.integers(topology.n_hosts - 1))
    if dst >= src:
        dst += 1
    return src, dst


def _random_route(topology, rng, flow_id):
    src, dst = _random_pair(topology, rng)
    return topology.route(src, dst, flow_id)


def _churn_setup(n_flows, total_batches, mode, seed=17):
    """Warmed-up allocator plus ``total_batches`` pre-computed churn
    batches for the §6.2 steady-state loop (shared by the benchmark
    and ``--profile``).

    Routes are pre-computed so the timed loop measures allocator work,
    not ``topology.route()``.
    """
    from repro.core import FlowtuneAllocator
    from repro.topology import TwoTierClos

    config = _MODES[mode]
    topology = TwoTierClos(n_racks=9, hosts_per_rack=16, n_spines=4)
    allocator = FlowtuneAllocator(topology.link_set())
    rng = np.random.default_rng(seed)

    _apply_churn(allocator, starts=[
        (("f", i), _random_route(topology, rng, i)) for i in range(n_flows)])
    allocator.iterate(config["warmup_iters"])

    churn = max(1, n_flows // 100)
    batches = []
    next_id = n_flows
    oldest = 0
    for _ in range(total_batches):
        ends = [("f", i) for i in range(oldest, oldest + churn)]
        starts = [(("f", next_id + j),
                   _random_route(topology, rng, next_id + j))
                  for j in range(churn)]
        oldest += churn
        next_id += churn
        batches.append((starts, ends))
    return allocator, batches, churn


def bench_iterate_churn(n_flows, mode, seed=17):
    """One op = one churn batch (1 % of flows end, 1 % start) followed
    by one ``iterate()`` — the §6.2 steady-state allocator loop."""
    config = _MODES[mode]
    n_ops = config["churn_ops"][n_flows]
    allocator, batches, churn = _churn_setup(
        n_flows, (config["repeats"] + 1) * n_ops + 2, mode, seed)

    def op(i):
        starts, ends = batches[i]
        _apply_churn(allocator, starts=starts, ends=ends)
        allocator.iterate(1)

    ops = best_rate(op, n_ops, config["repeats"])
    return {"ops_per_sec": ops,
            "params": {"n_flows": n_flows, "churn_per_op": churn,
                       "n_ops": n_ops, "seed": seed}}


# ----------------------------------------------------------------------
# sieve sampling: 100k-flow sampled allocator vs 10k full Flowtune
# ----------------------------------------------------------------------
def bench_iterate_churn_sampled(mode, seed=17):
    """The priced-set bound, measured: a ``SampledAllocator`` holding
    100k flows with a ~10 % promoted elephant set must iterate under
    churn at close to the rate of a *full* Flowtune allocator holding
    only the 10k elephants — the whole point of sieve sampling is that
    the other 90k mice ride ECMP fair share off the priced hot path.

    One op = one churn batch + one ``iterate()``, like
    ``bench_iterate_churn`` — but both schemes run the *same absolute
    churn* (100 events/op, the 10k lane's 1 % convention) so the op
    isolates the standing-population cost the claim is about; scaling
    churn with the population would instead measure the per-event
    Python floor 10x more often on the sampled side.  The sampled op
    additionally carries the §6.2 usage stream (every 10th new flow
    reports elephant-sized usage, sustaining promotions, demotion
    scans, and the deferred elephant-end flush every epoch).

    Both schemes are measured **in-process and interleaved** in
    mini-batches of one full mice-refresh cycle each (so every batch
    amortizes exactly one O(mice) recompute), and the reported rate is
    the per-scheme median over batches: single-core hosts drift 20 %+
    between back-to-back runs, and interleaving + median is what keeps
    the committed ``slowdown_vs_full_10k`` ratio reproducible.
    ``ops_per_sec`` (gated) is the sampled scheme's rate; the full-10k
    reference rides along for the ratio the acceptance claim names.
    """
    from repro.core import FlowtuneAllocator
    from repro.sampling import SampledAllocator
    from repro.topology import TwoTierClos

    config = _MODES[mode]
    cycle = config["sampled_cycle"]
    n_batches = config["sampled_batches"]
    total_ops = (n_batches + 1) * cycle   # +1 warmup mini-batch each
    churn = 100
    n_ref, n_samp, report_every = 10_000, 100_000, 10
    promote_bytes = 1e6
    topology = TwoTierClos(n_racks=9, hosts_per_rack=16, n_spines=4)

    def make_batches(rng, n_flows):
        batches = []
        next_id, oldest = n_flows, 0
        for _ in range(total_ops):
            ends = [("f", i) for i in range(oldest, oldest + churn)]
            starts = [(("f", next_id + j),
                       _random_route(topology, rng, next_id + j))
                      for j in range(churn)]
            oldest += churn
            next_id += churn
            batches.append((starts, ends))
        return batches

    rng = np.random.default_rng(seed)
    ref = FlowtuneAllocator(topology.link_set())
    ref.apply_churn(starts=[(("f", i), _random_route(topology, rng, i))
                            for i in range(n_ref)])
    ref.iterate(config["warmup_iters"])
    ref_batches = make_batches(rng, n_ref)

    rng = np.random.default_rng(seed)
    samp = SampledAllocator(topology.link_set(),
                            promote_bytes=promote_bytes,
                            idle_epochs=10_000, mice_refresh=cycle)
    samp.apply_churn(starts=[(("f", i), _random_route(topology, rng, i))
                             for i in range(n_samp)])
    for i in range(0, n_samp, report_every):
        samp.report_usage(("f", i), 10 * promote_bytes)
    samp.iterate(config["warmup_iters"])
    samp_batches = make_batches(rng, n_samp)

    def ref_op(i):
        starts, ends = ref_batches[i]
        ref.apply_churn(starts=starts, ends=ends)
        ref.iterate(1)

    def samp_op(i):
        starts, ends = samp_batches[i]
        samp.apply_churn(starts=starts, ends=ends)
        for j in range(0, len(starts), report_every):
            samp.report_usage(starts[j][0], 10 * promote_bytes)
        samp.iterate(1)

    for i in range(cycle):   # warmup mini-batch, interleaved like the rest
        ref_op(i)
        samp_op(i)
    ref_t, samp_t = [], []
    for b in range(1, n_batches + 1):
        lo = b * cycle
        t0 = time.perf_counter()
        for i in range(lo, lo + cycle):
            ref_op(i)
        ref_t.append(time.perf_counter() - t0)
        t0 = time.perf_counter()
        for i in range(lo, lo + cycle):
            samp_op(i)
        samp_t.append(time.perf_counter() - t0)

    ref_rate = cycle / float(np.median(ref_t))
    samp_rate = cycle / float(np.median(samp_t))
    return {
        "ops_per_sec": samp_rate,
        "full_10k_ops_per_sec": ref_rate,
        "slowdown_vs_full_10k": ref_rate / samp_rate,
        "params": {"n_flows": n_samp, "n_priced": samp.n_priced,
                   "priced_fraction": samp.priced_fraction,
                   "full_reference_flows": n_ref,
                   "churn_per_op": churn, "cycle_ops": cycle,
                   "batches": n_batches, "mice_refresh": cycle,
                   "promote_bytes": promote_bytes, "seed": seed},
    }


# ----------------------------------------------------------------------
# --profile: per-kernel breakdown of the churn iterate
# ----------------------------------------------------------------------
def profile_churn_iterate(n_flows, mode, seed=17, out=None):
    """Time every FlowTable kernel inside the iterate-under-churn op.

    Wraps the table's kernel entry points (and the allocator/optimizer
    phase boundaries) with accumulating timers, replays the same
    churn-batch loop ``bench_iterate_churn`` times, and prints a
    per-kernel table: total ms, ms per op, share of the op.  This is
    how the *next* optimization target gets measured instead of
    guessed.  Nested entries overlap their parents (``csr_sync`` runs
    inside the first kernel that touches a stale index; kernels run
    inside ``optimizer.iterate``/``normalize``), so the parent rows
    are context, not disjoint buckets.
    """
    out = out if out is not None else sys.stdout
    n_ops = max(10, min(40, _MODES[mode]["churn_ops"].get(n_flows, 20)))
    allocator, batches, churn = _churn_setup(n_flows, n_ops + 2, mode,
                                             seed)
    table = allocator.table

    times, calls = {}, {}

    def wrap(obj, name, label):
        inner = getattr(obj, name)

        def timed(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                times[label] = times.get(label, 0.0) \
                    + (time.perf_counter() - t0)
                calls[label] = calls.get(label, 0) + 1
        setattr(obj, name, timed)

    wrap(table, "_sync_csr", "csr_sync")
    wrap(table, "price_sums", "price_sums")
    wrap(table, "link_totals", "link_totals")
    wrap(table, "link_totals2", "link_totals2")
    wrap(table, "max_link_value", "max_link_value")
    wrap(table, "apply_churn", "churn_apply")
    wrap(allocator.optimizer, "iterate", "optimizer.iterate")

    # ``self.normalizer(...)`` resolves __call__ on the type, so wrap
    # by swapping the attribute for a timing callable instead.
    inner_normalizer = allocator.normalizer

    def timed_normalizer(table, rates, link_load=None):
        t0 = time.perf_counter()
        try:
            return inner_normalizer(table, rates, link_load=link_load)
        finally:
            times["normalize"] = times.get("normalize", 0.0) \
                + (time.perf_counter() - t0)
            calls["normalize"] = calls.get("normalize", 0) + 1
    allocator.normalizer = timed_normalizer

    t0 = time.perf_counter()
    for i in range(n_ops):
        starts, ends = batches[i]
        allocator.apply_churn(starts=starts, ends=ends)
        allocator.iterate(1)
    wall = time.perf_counter() - t0

    kernel_labels = ("csr_sync", "price_sums", "link_totals",
                     "link_totals2", "max_link_value", "churn_apply")
    phases = ("optimizer.iterate", "normalize")
    rows = []
    for label in kernel_labels + phases:
        if label not in times:
            continue
        total = times[label]
        rows.append([label, calls[label], f"{1000 * total:.1f}",
                     f"{1000 * total / n_ops:.3f}",
                     f"{100 * total / wall:.1f}%"])
    accounted = sum(times.get(label, 0.0)
                    for label in ("churn_apply",) + phases)
    rows.append(["other (threshold mask, ids, loop)", n_ops,
                 f"{1000 * (wall - accounted):.1f}",
                 f"{1000 * (wall - accounted) / n_ops:.3f}",
                 f"{100 * (wall - accounted) / wall:.1f}%"])
    print(f"profile: {n_ops} ops of "
          f"churn({churn}) + iterate(1) at {n_flows} flows, "
          f"{1000 * wall / n_ops:.2f} ms/op "
          f"({n_ops / wall:.1f} ops/sec)", file=out)
    print(report.format_table(
        ["kernel", "calls", "total ms", "ms/op", "share"], rows),
        file=out)
    print("(kernel rows nest inside the phase rows; csr_sync also "
          "counts inside the kernel that triggered it)", file=out)
    return 0


# ----------------------------------------------------------------------
# multicore engine iteration
# ----------------------------------------------------------------------
def bench_multicore(mode, n_blocks=4, flows_per_host=8, seed=0):
    """One op = one full parallel NED iteration (rate partials,
    fig. 3 aggregation, price update, distribution) on a 16-processor
    grid."""
    from repro.parallel import MulticoreNedEngine
    from repro.topology import TwoTierClos

    config = _MODES[mode]
    topology = TwoTierClos(n_racks=n_blocks * 2, hosts_per_rack=8,
                           n_spines=4)
    engine = MulticoreNedEngine(topology, n_blocks)
    rng = np.random.default_rng(seed)
    for i in range(flows_per_host * topology.n_hosts):
        src, dst = _random_pair(topology, rng)
        engine.add_flow(i, src, dst)
    engine.iterate(3)  # warm up

    ops = best_rate(lambda _: engine.iterate(1),
                    config["multicore_ops"], config["repeats"])
    return {"ops_per_sec": ops,
            "params": {"n_processors": n_blocks * n_blocks,
                       "n_flows": engine.n_flows,
                       "n_ops": config["multicore_ops"], "seed": seed}}


# ----------------------------------------------------------------------
# end-to-end fluid-simulator tick rate
# ----------------------------------------------------------------------
def bench_fluid_ticks(mode, seed=5, ticks_per_op=20):
    """Driver-loop throughput: one op advances the §6.2 fluid simulator
    ``ticks_per_op`` allocator ticks — Poisson arrivals, batched churn,
    ``FlowtuneAllocator.iterate``, notification accounting, transmit —
    so the regression gate covers the whole loop, not just the NUM
    kernel.  The reported score is simulated *ticks per second*."""
    from repro.fluid import build_fluid_setup

    config = _MODES[mode]
    n_ops = config["fluid_ops"]
    _, _, _, simulator = build_fluid_setup(
        workload="web", load=0.6, n_racks=3, hosts_per_rack=8,
        n_spines=2, seed=seed)
    simulator.run(200 * simulator.tick)  # ramp to steady-state churn

    def op(_):
        simulator.run(ticks_per_op * simulator.tick)

    ops = best_rate(op, n_ops, config["repeats"])
    return {"ops_per_sec": ops * ticks_per_op,
            "params": {"ticks_per_op": ticks_per_op, "n_ops": n_ops,
                       "load": 0.6, "n_hosts": 24, "seed": seed,
                       "n_active_end": simulator.n_active}}


# ----------------------------------------------------------------------
# real parallel speedup: worker-process backend vs single-core NED
# ----------------------------------------------------------------------
def bench_parallel_speedup(mode, n_blocks=4, seed=11):
    """Measured wall-clock speedup of the worker-process NED backend.

    Times one full parallel iteration on a ``n_blocks x n_blocks``
    (default 16-FlowBlock) grid at several worker counts against
    single-core NED over the *same* flows, in real processes — the
    §6.1 experiment measured instead of modeled.  ``ops_per_sec`` is
    the 8-worker rate (or the largest measured pool when the mode
    stops earlier).  In the gate this benchmark is informational only
    (see ``UNGATED``): speedup is a property of the host's core count
    as much as of the code.
    """
    from repro.core.ned import NedOptimizer
    from repro.core.network import FlowTable
    from repro.parallel import MulticoreNedEngine
    from repro.topology import TwoTierClos

    config = _MODES[mode]
    n_flows = config["speedup_flows"]
    n_ops = config["speedup_ops"]
    topology = TwoTierClos(n_racks=n_blocks * 2, hosts_per_rack=16,
                           n_spines=4)
    rng = np.random.default_rng(seed)
    flows = []
    for i in range(n_flows):
        src, dst = _random_pair(topology, rng)
        flows.append((i, src, dst))

    table = FlowTable(topology.link_set())
    table.apply_churn(starts=[(i, topology.route(src, dst, i))
                              for i, src, dst in flows])
    single = NedOptimizer(table)
    single.iterate(3)
    single_ops = best_rate(lambda _: single.iterate(1), n_ops,
                           config["repeats"])

    per_worker_ops = {}
    reserve = max(64, n_flows // 4)
    for n_workers in config["speedup_workers"]:
        with MulticoreNedEngine(topology, n_blocks, backend="process",
                                n_workers=n_workers,
                                reserve_per_block=reserve) as engine:
            engine.apply_churn(starts=flows)
            engine.iterate(3)
            per_worker_ops[str(n_workers)] = best_rate(
                lambda _: engine.iterate(1), n_ops, config["repeats"])

    target = per_worker_ops.get(
        "8", per_worker_ops[str(max(config["speedup_workers"]))])
    return {
        "ops_per_sec": target,
        "single_core_ops_per_sec": single_ops,
        "workers_ops_per_sec": per_worker_ops,
        "speedup_vs_single_core": {
            w: ops / single_ops for w, ops in per_worker_ops.items()},
        "params": {"n_blocks": n_blocks, "n_flows": n_flows,
                   "n_ops": n_ops, "seed": seed,
                   "cpu_count": os.cpu_count()},
    }


# ----------------------------------------------------------------------
# worker-pool step-synchronization cost
# ----------------------------------------------------------------------
def bench_barrier_step(mode, n_workers=16):
    """Per-step cost of the worker pool's barrier on the 16-worker grid.

    One op is one full :class:`~repro.parallel.SenseReversingBarrier`
    round across all workers (gated).  The barrier mode is pinned to
    ``"block"`` so the gated score always measures the same code path:
    the auto-selected mode flips to pure spinning on hosts with >= 16
    cores, which would make the baseline compare different algorithms
    across machines (the engine still auto-selects at run time; the
    spin path's correctness is covered by ``tests/test_shm.py``).
    """
    from repro.parallel import measure_barrier_rate

    n_steps = _MODES[mode]["barrier_steps"]
    repeats = _MODES[mode]["repeats"]
    # Best-of-repeats, like every other benchmark: a 16-process
    # barrier sweep is hostage to scheduler bursts on shared hosts,
    # and one clean window is what the gate should compare.
    sense = max(measure_barrier_rate(n_workers, n_steps,
                                     barrier_mode="block")
                for _ in range(repeats))
    return {
        "ops_per_sec": sense,
        "params": {"n_workers": n_workers, "n_steps": n_steps,
                   "barrier_mode": "block",
                   "cpu_count": os.cpu_count()},
    }


# ----------------------------------------------------------------------
# always-on service: admission-to-rate-update latency SLO
# ----------------------------------------------------------------------
def bench_service_latency(mode, seed=23):
    """Admission-to-rate-update latency of the always-on service.

    Spawns a real ``python -m repro.service`` child (auto duty cycle)
    on the 9x16x4 Clos of ``iterate_churn``, prepopulates
    ``service_flows`` concurrent flows over the socket, then drives
    Poisson *open-loop* load (a sender thread starts one flowlet and
    ends the oldest at exponential arrival times, never waiting for
    replies) while the main thread polls for each new flow's first
    rate update.  The latency of one arrival is wall-clock from just
    before its START frame is sent to the delta RATES frame naming it
    — admission to decision, the budget Flowtune's centralized claim
    lives on.  ``ops_per_sec`` is ``1 / p99`` from the best (lowest
    p99) of ``repeats`` phases, so the gate tracks the tail, not the
    mean; the bare one-``iterate`` cost at the same flow count is
    recorded alongside to keep the service's overhead auditable
    (``p99_over_iterate`` — the acceptance SLO is <= 10x).
    """
    import threading

    from repro.core import FlowtuneAllocator
    from repro.service import FlowtuneClient, spawn_service
    from repro.topology import TwoTierClos

    config = _MODES[mode]
    n_flows = config["service_flows"]
    arrivals = config["service_arrivals"]
    arrival_rate = config["service_rate_per_sec"]
    repeats = config["repeats"]
    topology = TwoTierClos(n_racks=9, hosts_per_rack=16, n_spines=4)
    rng = np.random.default_rng(seed)

    total_ids = n_flows + repeats * arrivals + 1
    routes = [_random_route(topology, rng, i) for i in range(total_ids)]

    # In-process reference at the same flow count: one admission the
    # way the service performs it — apply one start + one end, run one
    # iterate, materialize the notifications (the same op shape as
    # ``iterate_churn``, at churn 1).  The serving gamma is the
    # paper's simulation value 0.4 — NED at full step oscillates >1 %
    # per iteration at this load, which would re-notify ~every flow
    # every cycle forever; a *service* must converge and go quiet
    # (the reference allocator matches).
    gamma = 0.4
    ref = FlowtuneAllocator(topology.link_set(), gamma=gamma)
    ref.apply_churn(starts=[(i, routes[i]) for i in range(n_flows)])
    ref.iterate(config["warmup_iters"])

    def ref_op(i):
        # Start one flow, end the oldest, decide, render notifications
        # — the sender thread's exact admission, minus the wire.
        fid = n_flows + i
        ref.apply_churn(starts=[(fid, routes[fid % total_ids])],
                        ends=[i])
        len(ref.iterate(1).updates)

    iter_ops = best_rate(ref_op, max(20, config["churn_ops"][1_000] // 3),
                         repeats)
    iterate_s = 1.0 / iter_ops

    with spawn_service(racks=9, hosts_per_rack=16, spines=4,
                       mode="auto", gamma=gamma) as handle:
        with FlowtuneClient(handle.address, handle.token_hex) as client:
            for lo in range(0, n_flows, 200):
                client.apply_churn(starts=[
                    (i, routes[i]) for i in range(lo,
                                                  min(lo + 200, n_flows))])
            client.wait_for_rates(range(n_flows), timeout=300.0)

            next_id = n_flows
            oldest = 0
            phases = []
            for _ in range(repeats):
                gaps = rng.exponential(1.0 / arrival_rate, size=arrivals)
                send_at = {}
                got_at = {}
                first, base_old = next_id, oldest

                def sender(first=first, base_old=base_old, gaps=gaps,
                           send_at=send_at):
                    t_next = time.perf_counter()
                    for k in range(arrivals):
                        t_next += gaps[k]
                        delay = t_next - time.perf_counter()
                        if delay > 0:
                            time.sleep(delay)
                        fid = first + k
                        send_at[fid] = time.perf_counter()
                        client.apply_churn(starts=[(fid, routes[fid])],
                                           ends=[base_old + k])

                thread = threading.Thread(target=sender, daemon=True)
                thread.start()
                deadline = time.monotonic() + arrivals / arrival_rate + 60.0
                while (len(got_at) < arrivals
                       and time.monotonic() < deadline):
                    for fid, _rate in client.poll(timeout=0.02):
                        if fid >= first and fid not in got_at:
                            got_at[fid] = time.perf_counter()
                thread.join(timeout=60.0)
                next_id += arrivals
                oldest += arrivals
                lat = np.array([got_at[f] - send_at[f]
                                for f in got_at], dtype=np.float64)
                if len(lat):
                    phases.append(lat)
            client.shutdown_service()

    if not phases:
        raise RuntimeError("service_latency: no rate updates observed")
    best = min(phases, key=lambda lat: float(np.percentile(lat, 99)))
    p50 = float(np.percentile(best, 50))
    p99 = float(np.percentile(best, 99))
    return {
        "ops_per_sec": 1.0 / p99,
        "p50_ms": 1e3 * p50,
        "p99_ms": 1e3 * p99,
        "mean_ms": 1e3 * float(best.mean()),
        "iterate_ms": 1e3 * iterate_s,
        "p99_over_iterate": p99 / iterate_s,
        "received": int(sum(len(lat) for lat in phases)),
        "params": {"n_flows": n_flows, "arrivals_per_phase": arrivals,
                   "arrival_rate_per_sec": arrival_rate,
                   "repeats": repeats, "seed": seed,
                   "n_hosts": topology.n_hosts},
    }


def bench_service_fanout(mode, seed=31):
    """Admission-to-rate-update latency with 100+ concurrent clients.

    The unreliable-client gate: ``fanout_clients`` independent
    ``FlowtuneClient`` connections (each holding
    ``fanout_flows_per_client`` flows) against one spawned service
    child, with the ingest rate limiter *enabled* (a generous
    per-client budget — the limiter must sit in the hot path without
    costing latency).  A single sender thread drives a merged Poisson
    arrival process at ``fanout_rate_per_sec`` aggregate — each event
    picks a uniform-random client (the superposition property: every
    client then sees its own Poisson churn), starts one flowlet and
    ends that client's oldest.  The main thread sweeps all clients
    with nonblocking polls, stamping each new flow's first rate
    update at its owner.

    Reported: p50/p99 over all events in the best of
    ``fanout_phases`` phases, plus the per-client view the duty
    cycle's fairness shows up in — the median and max of per-client
    p99 and Jain's fairness index over per-client mean latency (1.0 =
    every client served equally).  The gated score is ``1/p50``: with
    100 clients sharing one core with the service child, the p99 tail
    is hostage to scheduler bursts (2-3x run-to-run on the CI host)
    while the median holds within a few percent — the tail is
    recorded and surfaced in the step summary, the median gates.
    """
    import threading

    from repro.service import FlowtuneClient, spawn_service
    from repro.topology import TwoTierClos

    config = _MODES[mode]
    n_clients = config["fanout_clients"]
    flows_each = config["fanout_flows_per_client"]
    events_each = config["fanout_events_per_client"]
    agg_rate = config["fanout_rate_per_sec"]
    phases_n = config["fanout_phases"]
    topology = TwoTierClos(n_racks=9, hosts_per_rack=16, n_spines=4)
    rng = np.random.default_rng(seed)
    gamma = 0.4   # the serving gamma; see bench_service_latency

    max_fids = flows_each + phases_n * events_each * 4 + 8
    routes = [_random_route(topology, rng, i) for i in range(max_fids)]

    with spawn_service(racks=9, hosts_per_rack=16, spines=4, mode="auto",
                       gamma=gamma, churn_rate=200.0,
                       churn_burst=400.0) as handle:
        clients = [FlowtuneClient(handle.address, handle.token_hex)
                   for _ in range(n_clients)]
        try:
            live = []   # per-client FIFO of live fids
            for ci, client in enumerate(clients):
                client.apply_churn(starts=[
                    (fid, routes[(ci + fid) % max_fids])
                    for fid in range(flows_each)])
                live.append(list(range(flows_each)))
            pending = [set(range(flows_each)) for _ in range(n_clients)]
            deadline = time.monotonic() + 120.0
            while any(pending) and time.monotonic() < deadline:
                for ci, client in enumerate(clients):
                    for fid, _rate in client.poll(timeout=0.0):
                        pending[ci].discard(fid)
                time.sleep(0.001)
            missing = sum(len(p) for p in pending)
            if missing:
                raise RuntimeError(f"service_fanout: {missing} initial "
                                   "flows never got a rate")

            next_fid = [flows_each] * n_clients
            phases = []
            for _ in range(phases_n):
                n_events = n_clients * events_each
                owners = rng.integers(0, n_clients, size=n_events)
                gaps = rng.exponential(1.0 / agg_rate, size=n_events)
                send_at = {}
                got_at = {}

                def sender(owners=owners, gaps=gaps, send_at=send_at):
                    t_next = time.perf_counter()
                    for k in range(n_events):
                        t_next += gaps[k]
                        delay = t_next - time.perf_counter()
                        if delay > 0:
                            time.sleep(delay)
                        ci = int(owners[k])
                        fid = next_fid[ci]
                        next_fid[ci] += 1
                        oldest = live[ci].pop(0)
                        live[ci].append(fid)
                        send_at[(ci, fid)] = time.perf_counter()
                        clients[ci].apply_churn(
                            starts=[(fid, routes[fid % max_fids])],
                            ends=[oldest])

                thread = threading.Thread(target=sender, daemon=True)
                thread.start()
                deadline = (time.monotonic() + n_events / agg_rate + 60.0)
                while (len(got_at) < n_events
                       and time.monotonic() < deadline):
                    quiet = True
                    for ci, client in enumerate(clients):
                        for fid, _rate in client.poll(timeout=0.0):
                            quiet = False
                            key = (ci, fid)
                            if key in send_at and key not in got_at:
                                got_at[key] = time.perf_counter()
                    if quiet:
                        time.sleep(0.0005)
                thread.join(timeout=60.0)
                per_client = [[] for _ in range(n_clients)]
                for key, t1 in got_at.items():
                    per_client[key[0]].append(t1 - send_at[key])
                if got_at:
                    phases.append(per_client)
            clients[0].shutdown_service()
        finally:
            for client in clients:
                try:
                    client.close()
                except Exception:
                    pass

    if not phases:
        raise RuntimeError("service_fanout: no rate updates observed")

    def phase_p50(per_client):
        lat = np.concatenate([np.asarray(x) for x in per_client if x])
        return float(np.percentile(lat, 50))

    best = min(phases, key=phase_p50)
    all_lat = np.concatenate([np.asarray(x) for x in best if x])
    client_p99 = np.array([float(np.percentile(np.asarray(x), 99))
                           for x in best if x])
    client_mean = np.array([float(np.mean(np.asarray(x)))
                            for x in best if x])
    # Jain's fairness index over per-client mean latency: 1.0 when
    # the duty cycle serves every client equally.
    jain = (float(client_mean.sum()) ** 2
            / (len(client_mean) * float((client_mean ** 2).sum())))
    p50 = float(np.percentile(all_lat, 50))
    p99 = float(np.percentile(all_lat, 99))
    return {
        "ops_per_sec": 1.0 / p50,
        "p50_ms": 1e3 * p50,
        "p99_ms": 1e3 * p99,
        "client_p99_ms_median": 1e3 * float(np.median(client_p99)),
        "client_p99_ms_max": 1e3 * float(client_p99.max()),
        "jain_fairness": jain,
        "clients_observed": int(len(client_mean)),
        "received": int(sum(len(x) for x in best)),
        "params": {"n_clients": n_clients,
                   "flows_per_client": flows_each,
                   "events_per_client": events_each,
                   "aggregate_rate_per_sec": agg_rate,
                   "phases": phases_n, "seed": seed,
                   "churn_rate": 200.0, "churn_burst": 400.0},
    }


BENCHMARKS = {
    "calibration": lambda mode: bench_calibration(mode),
    "iterate_churn_1k": lambda mode: bench_iterate_churn(1_000, mode),
    "iterate_churn_10k": lambda mode: bench_iterate_churn(10_000, mode),
    "iterate_churn_100k": lambda mode: bench_iterate_churn(100_000, mode),
    "iterate_churn_1m": lambda mode: bench_iterate_churn(1_000_000, mode),
    "iterate_churn_sampled": lambda mode: bench_iterate_churn_sampled(mode),
    "multicore_16proc": lambda mode: bench_multicore(mode),
    "fluid_ticks": lambda mode: bench_fluid_ticks(mode),
    "barrier_step": lambda mode: bench_barrier_step(mode),
    "service_latency": lambda mode: bench_service_latency(mode),
    "service_fanout": lambda mode: bench_service_fanout(mode),
    "parallel_speedup": lambda mode: bench_parallel_speedup(mode),
}


# ----------------------------------------------------------------------
# baseline gate
# ----------------------------------------------------------------------
def relative_scores(results):
    """Each benchmark's ops/sec divided by the run's calibration
    ops/sec — the hardware-normalized figure the gate compares.
    ``UNGATED`` benchmarks (core-count-dependent) are left out."""
    cal = results["calibration"]["ops_per_sec"]
    return {name: entry["ops_per_sec"] / cal
            for name, entry in results.items()
            if name != "calibration" and name not in UNGATED}


def compare(results, baseline_results, tolerance, require_all=True):
    """Returns (rows, regressions) comparing normalized scores.

    ``baseline_results`` must come from the *same mode* as this run —
    quick and full scores skew systematically (different warmup and op
    counts), enough to eat most of the tolerance.  With ``require_all``
    (any run without ``--only``), a benchmark present in the baseline
    but absent from this run counts as a regression — otherwise a
    partial run would silently narrow the gate.
    """
    current = relative_scores(results)
    base = relative_scores(baseline_results)
    rows, regressions = [], []
    for name, score in sorted(current.items()):
        if name not in base:
            rows.append((name, score, None, None, "new"))
            continue
        ratio = score / base[name]
        status = "ok"
        if ratio < 1.0 - tolerance:
            status = "REGRESSION"
            regressions.append(name)
        rows.append((name, score, base[name], ratio, status))
    for name in sorted(set(base) - set(current)):
        if require_all:
            rows.append((name, None, base[name], None, "MISSING"))
            regressions.append(name)
        else:
            rows.append((name, None, base[name], None, "skipped (--only)"))
    return rows, regressions


def step_summary_markdown(results, baseline_results, tolerance, mode):
    """Markdown score table for ``$GITHUB_STEP_SUMMARY``.

    One row per benchmark: raw ops/sec, the normalized score the gate
    compares, the baseline floor (baseline score minus tolerance) and
    the delta vs the baseline score — so a drifting-but-passing run
    is visible in the CI run page without downloading the artifact.
    ``UNGATED`` benchmarks report their headline number plus, for the
    parallel-speedup entries, the measured per-worker speedups the
    §6.1 table needs.
    """
    cal = results.get("calibration", {}).get("ops_per_sec")
    base = relative_scores(baseline_results) if baseline_results else {}
    rows = []
    for name, entry in sorted(results.items()):
        if name == "calibration":
            continue
        ops = entry["ops_per_sec"]
        ops_s = f"{ops:,.1f}"
        detail = None
        if "slowdown_vs_full_10k" in entry:
            # The sieve-sampling lane: how big is the priced set, and
            # how close does 100k-sampled run to full Flowtune at 10k?
            p = entry["params"]
            detail = (f"priced {p['n_priced']:,}/{p['n_flows']:,} "
                      f"({100 * p['priced_fraction']:.0f}%), "
                      f"{entry['slowdown_vs_full_10k']:.2f}x slower than "
                      f"full@{p['full_reference_flows'] // 1000}k")
        if "client_p99_ms_median" in entry:
            # The fan-out lane's per-client tail: is any single client
            # being starved by the duty cycle?
            detail = (f"per-client p99 "
                      f"{entry['client_p99_ms_median']:.1f}ms med / "
                      f"{entry['client_p99_ms_max']:.1f}ms max, "
                      f"Jain {entry['jain_fairness']:.3f}")
        if name in UNGATED or cal is None:
            speedups = entry.get("speedup_vs_single_core")
            if speedups:
                detail = "speedup vs 1-core: " + " ".join(
                    f"{w}w={s:.2f}x" for w, s in sorted(
                        speedups.items(), key=lambda kv: int(kv[0])))
            rows.append([name, ops_s, None, None, None, "ungated",
                         detail])
            continue
        score = ops / cal
        if name in base:
            floor = base[name] * (1.0 - tolerance)
            delta = 100.0 * (score / base[name] - 1.0)
            status = "ok" if score >= floor else "**REGRESSION**"
            rows.append([name, ops_s, f"{score:.4f}", f"{floor:.4f}",
                         f"{delta:+.1f}%", status, detail])
        else:
            rows.append([name, ops_s, f"{score:.4f}", None, None, "new",
                         detail])
    table = report.format_table(
        ["benchmark", "ops/sec", "score", "floor", "Δ vs base", "status",
         "detail"],
        rows, markdown=True)
    return (f"### Hot-path benchmarks ({mode} mode)\n\n{table}\n\n"
            "scores are ops/sec normalized by the calibration kernel; "
            f"floor = baseline score − {tolerance:.0%}\n")


def print_comparison(rows, tolerance):
    print(f"\n{'benchmark':<24} {'now':>10} {'baseline':>10} "
          f"{'ratio':>7}  status (gate: ratio >= {1 - tolerance:.2f})")
    for name, score, base, ratio, status in rows:
        score_s = f"{score:10.4f}" if score is not None else f"{'-':>10}"
        base_s = f"{base:10.4f}" if base is not None else f"{'-':>10}"
        ratio_s = f"{ratio:7.2f}" if ratio is not None else f"{'-':>7}"
        print(f"{name:<24} {score_s} {base_s} {ratio_s}  {status}")
    print("(scores are ops/sec normalized by the calibration kernel)")


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Flowtune hot-path benchmark harness")
    parser.add_argument("--quick", action="store_true",
                        help="smoke mode: fewer ops per benchmark (CI)")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if any benchmark regresses past "
                             "the tolerance vs the committed baseline")
    parser.add_argument("--tolerance", type=float, default=0.30,
                        help="allowed normalized-score drop (default 0.30)")
    parser.add_argument("--output", type=Path, default=DEFAULT_OUTPUT,
                        help=f"result JSON path (default {DEFAULT_OUTPUT})")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="baseline JSON to compare against")
    parser.add_argument("--update-baseline", action="store_true",
                        help="write this run's results as the baseline")
    parser.add_argument("--only", action="extend", nargs="+",
                        metavar="NAME", default=None,
                        help="run just the named benchmark(s); "
                             "calibration always runs")
    parser.add_argument("--profile", action="store_true",
                        help="print a per-kernel breakdown of one "
                             "iterate-under-churn op and exit (no "
                             "benchmarks, no JSON)")
    parser.add_argument("--profile-flows", type=int, default=100_000,
                        metavar="N",
                        help="flow count for --profile (default 100000)")
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
    if args.profile:
        return profile_churn_iterate(args.profile_flows, mode)
    names = list(BENCHMARKS)
    if args.only and args.update_baseline:
        parser.error("--update-baseline requires the full benchmark set "
                     "(drop --only); a partial baseline would narrow the "
                     "regression gate")
    if args.only:
        unknown = set(args.only) - set(BENCHMARKS)
        if unknown:
            parser.error(f"unknown benchmark(s): {sorted(unknown)}; "
                         f"choose from {names}")
        names = ["calibration"] + [n for n in names
                                   if n in args.only and n != "calibration"]
    elif mode == "quick":
        names = [n for n in names if n not in FULL_ONLY]

    results = {}
    wall_start = time.perf_counter()
    for name in names:
        t0 = time.perf_counter()
        results[name] = BENCHMARKS[name](mode)
        ops = results[name]["ops_per_sec"]
        print(f"{name:<24} {ops:12.1f} ops/sec  "
              f"({time.perf_counter() - t0:5.1f}s)")
    wall = time.perf_counter() - wall_start

    payload = {
        "schema": 2,
        "mode": mode,
        "wall_seconds": round(wall, 2),
        "environment": bench_environment(),
        "results": results,
    }
    args.output.write_text(json.dumps(payload, indent=2) + "\n")
    print(f"\nwrote {args.output} ({wall:.1f}s total)")

    summary_baseline = None
    if args.baseline.exists():
        summary_baseline = json.loads(args.baseline.read_text()) \
            .get("modes", {}).get(mode, {}).get("results")
    # On CI, surface the score table in the run page (no-op locally).
    report.write_step_summary(step_summary_markdown(
        results, summary_baseline, args.tolerance, mode))

    # The baseline file keeps one entry per mode: quick and full
    # scores are not comparable (different warmup and op counts), so
    # each lane gates against a baseline recorded in its own mode.
    if args.update_baseline:
        modes = {}
        if args.baseline.exists():
            modes = json.loads(args.baseline.read_text()).get("modes", {})
        modes[mode] = {"wall_seconds": payload["wall_seconds"],
                       "environment": payload["environment"],
                       "results": results}
        args.baseline.write_text(json.dumps(
            {"schema": 2, "modes": modes}, indent=2) + "\n")
        print(f"baseline updated ({mode} mode): {args.baseline}")
        return 0

    base_results = summary_baseline
    if base_results is not None:
        rows, regressions = compare(results, base_results, args.tolerance,
                                    require_all=not args.only)
        print_comparison(rows, args.tolerance)
        if regressions:
            print(f"\nFAIL: past tolerance ({args.tolerance:.0%}) vs "
                  f"{mode} baseline: {', '.join(regressions)}")
            if args.check:
                return 1
        else:
            print(f"\nall benchmarks within tolerance of {mode} baseline")
    elif args.check:
        print(f"FAIL: --check given but no {mode}-mode baseline at "
              f"{args.baseline}")
        return 1
    else:
        print(f"(no {mode}-mode baseline at {args.baseline}; run with "
              "--update-baseline to record one)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
