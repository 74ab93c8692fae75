#!/usr/bin/env python
"""Single-shot timings of what the repo's benchmark does not run.

``benchmarks/e2e`` (declared by ``BENCHMARK.json``) measures the
allocator at 10k and 100k flows, sampled mode and one service client,
calibrated and with spread; claims are made there.  This harness keeps
the rest: churn + iterate at 1k flows (one chunk) and at 1M flows,
one ``MulticoreNedEngine`` iteration on the 16-cell grid, the fluid
simulator's tick rate, the worker pool's barrier, 100 service clients
at once and the process backend's speedup over single-core NED.  It
writes them to ``BENCH_hotpath.json`` with a pure-numpy *calibration*
kernel's rate.  With ``--check`` a run fails when a gated benchmark's
ops/sec over calibration ops/sec lands more than ``--tolerance``
(30 %) below the committed ``benchmarks/baseline.json`` of its mode;
a benchmark gates only if an A/A study of the unchanged tree
(``benchmarks/results/harness-aa-*.txt``) shows it false-fires at most
once in 20 runs.

Usage::

    python benchmarks/harness.py --quick             # CI smoke (~10 s)
    python benchmarks/harness.py                     # full mode
    python benchmarks/harness.py --quick --check     # gate vs baseline
    python benchmarks/harness.py --update-baseline   # refresh baseline
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
              "churn_ops": {1_000: 60, 1_000_000: 3},
              # Short measurements are hostage to scheduler bursts on
              # shared single-core hosts; these two lanes were the
              # noisiest, so quick mode gives them enough ops that one
              # burst cannot move the best-of-repeats past the gate.
              "multicore_ops": 30,
              "fluid_ops": 20,
              "speedup_flows": 4_096, "speedup_ops": 6,
              "speedup_workers": (1, 2, 4),
              "barrier_steps": 300,
              "fanout_clients": 100,
              "fanout_flows_per_client": 3,
              "fanout_events_per_client": 8,
              "fanout_rate_per_sec": 250.0,
              "fanout_phases": 2},
    "full": {"warmup_iters": 50, "repeats": 3,
             "churn_ops": {1_000: 300, 1_000_000: 6},
             "multicore_ops": 40,
             "fluid_ops": 50,
             # The regime where the process backend pays: two shm
             # workers read 1.8-1.9x single-core NED at 262k flows on
             # a 2-vCPU host (benchmarks/results/parallel-speedup-*.txt).
             "speedup_flows": 262_144, "speedup_ops": 12,
             "speedup_workers": (1, 2, 4, 8, 16),
             "barrier_steps": 1_200,
             "fanout_clients": 120,
             "fanout_flows_per_client": 4,
             "fanout_events_per_client": 15,
             "fanout_rate_per_sec": 300.0,
             "fanout_phases": 2},
}

#: Benchmarks recorded in the JSON but *excluded* from the baseline
#: regression gate.  ``parallel_speedup`` depends on the host's core
#: count, which the single-threaded calibration kernel cannot
#: normalize.  ``service_fanout`` read below a 30 % floor in 4 of 20
#: runs of the unchanged tree in one of two A/A studies
#: (benchmarks/results/harness-aa-*.txt); every benchmark that still
#: gates fired at most once in 20 in both.
UNGATED = frozenset({"parallel_speedup", "service_fanout"})

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
def _random_pair(topology, rng):
    src = int(rng.integers(topology.n_hosts))
    dst = int(rng.integers(topology.n_hosts - 1))
    if dst >= src:
        dst += 1
    return src, dst


def _random_route(topology, rng, flow_id):
    src, dst = _random_pair(topology, rng)
    return topology.route(src, dst, flow_id)


def bench_iterate_churn(n_flows, mode, seed=17):
    """One op = one churn batch (1 % of flows end, 1 % start) followed
    by one ``iterate()`` — the §6.2 steady-state allocator loop.

    Routes are pre-computed so the timed loop measures allocator work,
    not ``topology.route()``.
    """
    from repro.core import FlowtuneAllocator
    from repro.topology import TwoTierClos

    config = _MODES[mode]
    n_ops = config["churn_ops"][n_flows]
    topology = TwoTierClos(n_racks=9, hosts_per_rack=16, n_spines=4)
    allocator = FlowtuneAllocator(topology.link_set())
    rng = np.random.default_rng(seed)
    allocator.apply_churn(starts=[
        (("f", i), _random_route(topology, rng, i)) for i in range(n_flows)])
    allocator.iterate(config["warmup_iters"])

    churn = max(1, n_flows // 100)
    batches = []
    next_id = n_flows
    oldest = 0
    for _ in range((config["repeats"] + 1) * n_ops + 2):
        ends = [("f", i) for i in range(oldest, oldest + churn)]
        starts = [(("f", next_id + j),
                   _random_route(topology, rng, next_id + j))
                  for j in range(churn)]
        oldest += churn
        next_id += churn
        batches.append((starts, ends))

    def op(i):
        starts, ends = batches[i]
        allocator.apply_churn(starts=starts, ends=ends)
        allocator.iterate(1)

    ops = best_rate(op, n_ops, config["repeats"])
    return {"ops_per_sec": ops,
            "params": {"n_flows": n_flows, "churn_per_op": churn,
                       "n_ops": n_ops, "seed": seed}}


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
    stops earlier).  Recorded, not gated (see ``UNGATED``).
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


def bench_service_fanout(mode, seed=31):
    """Admission-to-rate-update latency with 100+ concurrent clients.

    ``fanout_clients`` independent
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
    every client served equally).  ``ops_per_sec`` is ``1/p50``; it is
    recorded, not gated (see ``UNGATED``).
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
    # The serving gamma is the paper's simulation value: NED at full
    # step oscillates >1 % per iteration at this load, which would
    # re-notify ~every flow every cycle.
    gamma = 0.4

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
    "iterate_churn_1m": lambda mode: bench_iterate_churn(1_000_000, mode),
    "multicore_16proc": lambda mode: bench_multicore(mode),
    "fluid_ticks": lambda mode: bench_fluid_ticks(mode),
    "barrier_step": lambda mode: bench_barrier_step(mode),
    "service_fanout": lambda mode: bench_service_fanout(mode),
    "parallel_speedup": lambda mode: bench_parallel_speedup(mode),
}


# ----------------------------------------------------------------------
# baseline gate
# ----------------------------------------------------------------------
def relative_scores(results):
    """Each gated benchmark's ops/sec divided by the run's calibration
    ops/sec: the hardware-normalized figure the gate compares."""
    cal = results["calibration"]["ops_per_sec"]
    return {name: entry["ops_per_sec"] / cal
            for name, entry in results.items()
            if name != "calibration" and name not in UNGATED}


def compare(results, baseline_results, tolerance, require_all=True):
    """Returns (rows, regressions): one score-table row per benchmark
    and the gated names that landed below their floor.

    ``baseline_results`` (or ``None``) must come from the *same mode*
    as this run: quick and full scores skew systematically (different
    warmup and op counts).  With ``require_all`` (any run without
    ``--only``), a gated benchmark in the baseline but absent from this
    run counts as a regression, so a partial run cannot narrow the
    gate.  ``UNGATED`` rows carry their headline number and detail.
    """
    current = relative_scores(results)
    base = relative_scores(baseline_results) if baseline_results else {}
    rows, regressions = [], []
    for name, entry in sorted(results.items()):
        if name == "calibration":
            continue
        row = [name, f"{entry['ops_per_sec']:,.1f}"]
        detail = None
        if "client_p99_ms_median" in entry:
            # The fan-out lane's per-client tail: is any single client
            # being starved by the duty cycle?
            detail = (f"per-client p99 "
                      f"{entry['client_p99_ms_median']:.1f}ms med / "
                      f"{entry['client_p99_ms_max']:.1f}ms max, "
                      f"Jain {entry['jain_fairness']:.3f}")
        if "speedup_vs_single_core" in entry:
            detail = "speedup vs 1-core: " + " ".join(
                f"{w}w={s:.2f}x" for w, s in sorted(
                    entry["speedup_vs_single_core"].items(),
                    key=lambda kv: int(kv[0])))
        if name not in current:
            rows.append(row + [None, None, None, "ungated", detail])
        elif name not in base:
            rows.append(row + [f"{current[name]:.4f}", None, None, "new",
                               detail])
        else:
            ratio = current[name] / base[name]
            status = "ok"
            if ratio < 1.0 - tolerance:
                status = "REGRESSION"
                regressions.append(name)
            rows.append(row + [f"{current[name]:.4f}",
                               f"{base[name] * (1.0 - tolerance):.4f}",
                               f"{100.0 * (ratio - 1.0):+.1f}%", status,
                               detail])
    for name in sorted(set(base) - set(current)):
        status = "skipped (--only)"
        if require_all:
            status = "MISSING"
            regressions.append(name)
        rows.append([name, None, None, f"{base[name] * (1.0 - tolerance):.4f}",
                     None, status, None])
    return rows, regressions


HEADERS = ["benchmark", "ops/sec", "score", "floor", "Δ vs base", "status",
           "detail"]


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
    args = parser.parse_args(argv)

    mode = "quick" if args.quick else "full"
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

    # The baseline file keeps one entry per mode: quick and full
    # scores are not comparable (different warmup and op counts), so
    # each lane gates against a baseline recorded in its own mode.
    modes = {}
    if args.baseline.exists():
        modes = json.loads(args.baseline.read_text()).get("modes", {})
    if args.update_baseline:
        modes[mode] = {"wall_seconds": payload["wall_seconds"],
                       "environment": payload["environment"],
                       "results": results}
        args.baseline.write_text(json.dumps(
            {"schema": 2, "modes": modes}, indent=2) + "\n")
        print(f"baseline updated ({mode} mode): {args.baseline}")
        return 0

    base_results = modes.get(mode, {}).get("results")
    rows, regressions = compare(results, base_results, args.tolerance,
                                require_all=not args.only)
    legend = ("scores are ops/sec normalized by the calibration kernel; "
              f"floor = baseline score − {args.tolerance:.0%}")
    print(f"\n{report.format_table(HEADERS, rows)}\n({legend})")
    # On CI, surface the score table in the run page (no-op locally).
    report.write_step_summary(
        f"### Hot-path benchmarks ({mode} mode)\n\n"
        f"{report.format_table(HEADERS, rows, markdown=True)}\n\n{legend}\n")
    if base_results is None:
        print(f"no {mode}-mode baseline at {args.baseline}; run with "
              "--update-baseline to record one")
        return 1 if args.check else 0
    if regressions:
        print(f"\nFAIL: past tolerance ({args.tolerance:.0%}) vs "
              f"{mode} baseline: {', '.join(regressions)}")
        return 1 if args.check else 0
    print(f"\nall gated benchmarks within tolerance of {mode} baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
