"""The repo's benchmark: four workloads, end-to-end and per-layer metrics.

    python benchmarks/e2e/run.py --seed S [--workload W] [--seconds T]
                                 [--trace [0|1]] [--smoke]
                                 [--repeat K] [--out FILE]

One workload (the driver's form) sets up, measures for ``--seconds``,
checks the program's outputs and prints every metric by name with its
unit, direction and bound; the last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.  ``--trace 0``
reports the end-to-end metrics, ``--trace 1`` repeats the workload
with spans and probes and reports the per-layer metrics.  Without
``--workload`` every workload runs, each in a process of its own
(a fresh peak-RSS mark and CPU affinity), and ``--out`` collects the
runs for ``compare.py``.

The benchmark uses only the program's public surface and sets no
``REPRO_*`` variable: the kernel tier the program selects for itself is
what gets measured, and is recorded under ``env``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT_DIR = HERE / "out"

if __name__ == "__main__" and not __package__:
    # PEP 366: run as a script, behave as e2e.run, so that the sibling
    # modules import relatively and ``trace.py`` cannot shadow the
    # standard library's ``trace``.
    sys.path[0] = str(HERE.parent)
    __package__ = "e2e"

SMOKE_SECONDS = 0.3
TRACE_OVERHEAD_LIMIT = 0.05


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _import_program() -> None:
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        sys.exit(f"run.py: the program's source is missing ({src}/repro); "
                 "the benchmark measures the checkout it sits in")
    sys.path.insert(0, str(src))


def environment(cpus_allowed, pinned=None) -> dict:
    import numpy

    from repro.core import kernels
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "kernel_tier": kernels.describe(),
            "cpus_allowed": cpus_allowed, "pinned": pinned,
            "repro_env": sorted(k for k in os.environ if k.startswith(
                "REPRO_"))}


# ----------------------------------------------------------------------
# metric assembly
# ----------------------------------------------------------------------
STAGES = ("routes_s", "spawn_s", "populate_s", "converge_s")


def _setup_metrics(stage_samples) -> dict:
    """Median over the run's set-ups, per stage and in total, each
    set-up divided by the host slowdown measured around it."""
    out = {name: statistics.median(s[name] / s["slowdown"]
                                   for s in stage_samples)
           for name in STAGES}
    out["setup_s"] = statistics.median(
        sum(s[name] for name in STAGES) / s["slowdown"]
        for s in stage_samples)
    out["setup_raw_s"] = statistics.median(
        sum(s[name] for name in STAGES) for s in stage_samples)
    return out


def _span_means(spans) -> dict:
    """name -> mean seconds over a span list."""
    totals = {}
    for _, _, _, name, start, end in spans:
        count, total = totals.get(name, (0, 0.0))
        totals[name] = (count + 1, total + end - start)
    return {name: total / count for name, (count, total) in totals.items()}


def _core_layers(samples, layers) -> None:
    for kernel in ("price_sums", "link_totals", "link_totals2",
                   "max_link_value"):
        layers[f"core.kernels.{kernel}_ms"] = samples.mean(
            f"core.kernels.{kernel}", 1e3)
    layers["core.kernels.bytes_moved_computed_mb"] = samples.mean(
        "core.kernels.bytes_moved_mb")
    layers["core.optimizer.iterate_ms"] = samples.mean(
        "core.optimizer.iterate", 1e3)
    layers["core.normalization.fnorm_ms"] = samples.mean(
        "core.normalization.fnorm", 1e3)
    layers["core.allocator.threshold_mask_ms"] = samples.mean(
        "core.allocator.threshold_mask", 1e3)


def _unattributed(layers) -> float:
    return (layers["core.allocator.iterate_ms"]
            - layers["core.optimizer.iterate_ms"]
            - layers["core.normalization.fnorm_ms"]
            - layers["core.allocator.threshold_mask_ms"])


def _setup_layers(setup, layers) -> None:
    for stage in STAGES:
        layers[f"setup.{stage}"] = setup[stage]


def _trace_detail(table_text, table, spans, problems) -> dict:
    return {
        "spans": len(spans), "span_problems": problems[:5],
        "layer_table": table_text,
        "layer_rows_sum_ms": sum(row[3] for row in table["rows"])
        + table["unattributed_ms"],
        "op_ms_traced_raw": table["op_ms"],
    }


def run_inprocess(spec, args, declared):
    from . import inprocess, probes, trace

    if not args.trace:
        result = inprocess.run(spec, args.seed, args.seconds, args.smoke)
        setup = _setup_metrics(result["stage_samples"])
        metrics = {
            "flowlets_per_busy_s": result["ops_per_s"] * result["churn"],
            "op_p50_ms": result["op_ms"]["p50"],
            "op_p90_ms": result["op_ms"]["p90"],
            "updates_per_flowlet": result["updates_per_flowlet"],
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": setup["setup_s"],
        }
        detail = {key: result[key] for key in (
            "n_live", "churn", "ops_measured", "ops_per_s",
            "ops_per_s_quartiles", "ops_per_s_raw", "n_slices", "op_ms",
            "op_ms_raw", "host_slowdown", "host_slowdown_range",
            "cpu_s_per_busy_s", "worst_link_load")}
        detail["setup"] = setup
        if "n_priced" in result:
            detail["n_priced"] = result["n_priced"]
        return result, metrics, detail, []

    recorder = trace.Recorder()
    samples = probes.Samples()
    n_live, churn = spec.sized(args.smoke)

    op_probes = probes.OpProbes(samples, n_live, churn)
    result = inprocess.run(spec, args.seed, args.seconds, args.smoke,
                           recorder=recorder, probes=op_probes,
                           extra_setups=0)
    spans = recorder.spans
    problems = trace.validate(spans)
    recorder.write(OUT_DIR / f"spans-{spec.name}-seed{args.seed}.json")
    table = trace.layer_table(spans)
    means = _span_means(spans)

    def span_ms(name):
        return means.get(name, 0.0) * 1e3

    layers = dict.fromkeys(declared, 0.0)
    _core_layers(samples, layers)
    if spec.mode == "sampled":
        layers["sampling.sampled.apply_churn_ms"] = span_ms(
            "sampling.sampled.apply_churn")
        layers["sampling.sampled.iterate_plain_ms"] = span_ms(
            "sampling.sampled.iterate_plain")
        layers["sampling.sampled.iterate_refresh_ms"] = span_ms(
            "sampling.sampled.iterate_refresh")
        layers["sampling.detector.observe_us"] = span_ms(
            "sampling.detector.observe") * 1e3 / churn
        layers["sampling.detector.advance_ms"] = samples.mean(
            "sampling.detector.advance", 1e3)
        layers["sampling.ecmp.apply_churn_ms"] = samples.mean(
            "sampling.ecmp.apply_churn", 1e3)
        layers["sampling.ecmp.iterate_refresh_ms"] = samples.mean(
            "sampling.ecmp.iterate_refresh", 1e3)
    else:
        layers["core.network.apply_churn_ms"] = span_ms(
            "core.network.apply_churn")
        layers["core.network.churn_us_per_event"] = span_ms(
            "core.network.apply_churn") * 1e3 / (2 * churn)
        layers["core.allocator.iterate_ms"] = span_ms(
            "core.allocator.iterate")
        layers["core.allocator.unattributed_ms"] = _unattributed(layers)
    layers["bench.op_p50_raw_ms"] = result["op_ms_raw"]["p50"]
    layers["bench.op_p99_ms"] = result["op_ms_raw"]["p99"]
    # One scalar puts every layer time of this run on the calibrated
    # scale of the end-to-end metrics; the rows still sum to the op.
    slowdown = result["host_slowdown"]
    for name, meta in declared.items():
        if meta["unit"] in ("s", "ms", "us") and name != "bench.op_p50_raw_ms":
            layers[name] /= slowdown
    layers["sampling.sampled.priced_fraction"] = result.get(
        "priced_fraction", 1.0)
    layers["sampling.sampled.n_priced"] = result.get("n_priced", n_live)
    _setup_layers(_setup_metrics(result["stage_samples"]), layers)
    layers["bench.failed_frac"] = (len(result["failures"])
                                   / result["attempted"])
    layers["bench.host_slowdown"] = slowdown
    # Traced and untraced ops alternated in blocks inside one window:
    # the overhead is the ratio of their mean op times.
    flags = result["traced_flags"]
    durations = result["durations"]
    if flags.any() and (~flags).any():
        layers["bench.trace_overhead_frac"] = float(
            durations[flags].mean() / durations[~flags].mean() - 1.0)
    detail = _trace_detail(trace.format_layer_table(table, spec.name),
                           table, spans, problems)
    detail["probe_rounds"] = len(samples.values.get(
        "core.optimizer.iterate", ()))
    detail["unavailable_probes"] = op_probes.unavailable
    if layers["bench.trace_overhead_frac"] > TRACE_OVERHEAD_LIMIT:
        detail["note"] = f"trace overhead above {TRACE_OVERHEAD_LIMIT:.0%}"
    return result, layers, detail, [f"span structure: {p}"
                                    for p in problems[:5]]


def run_service(args, declared):
    from . import probes, service, trace

    recorder = trace.Recorder() if args.trace else None
    samples = probes.Samples()
    mirror_cycles = 20 if args.smoke else 200

    def mirror_factory(inputs, n_live):
        mirror = probes.CycleMirror(samples, recorder, inputs, n_live,
                                    service.GAMMA)
        for index in range(mirror_cycles):
            mirror.cycle(index + 1)
        return mirror

    result = service.run(
        args.seed, args.seconds, args.smoke, recorder=recorder,
        mirror_factory=mirror_factory if args.trace else None,
        setups=1 if args.trace else 3)
    phases = result["phases"]
    detail = {"n_live": result["n_live"], "pinned_cpus": result["pinned"],
              "phases": _phase_detail(phases)}
    names = ("idle", "light", "loaded", "saturate")
    if not all("latency_ms" in phases.get(name, {}) for name in names):
        return result, {}, detail, ["a phase produced no answered arrivals"]
    idle, light, loaded, saturate = (phases[name] for name in names)
    open_sent = light["sent"] + loaded["sent"]
    open_updates = light["updates"] + loaded["updates"]
    for stats in (light, loaded):
        stats["valid"] = (stats["late_ms"]["p99"] <= service.LATE_LIMIT_MS
                          and not stats["backlog_growing"])
        if not stats["valid"]:
            print(f"WARNING: {stats['name']} phase invalid (generator late "
                  f"p99 {stats['late_ms']['p99']:.2f} ms, backlog growing: "
                  f"{stats['backlog_growing']}); its tail numbers are not "
                  "to be trusted")
    detail["phases"] = _phase_detail(phases)
    setup = _setup_metrics(result["stage_samples"])

    if not args.trace:
        metrics = {
            "flowlets_per_busy_s": loaded["sent"] / loaded["cpu_s"],
            "op_p50_ms": idle["latency_ms"]["p50"] / idle["slowdown"],
            "op_p90_ms": idle["latency_ms"]["p90"] / idle["slowdown"],
            "updates_per_flowlet": open_updates / open_sent,
            "peak_rss_mb": result["peak_rss_mb"],
            "setup_s": setup["setup_s"],
        }
        detail["setup"] = setup
        return result, metrics, detail, []

    spans = recorder.spans
    problems = trace.validate(spans)
    recorder.write(OUT_DIR / f"spans-service_10k-seed{args.seed}.json")
    op_table = trace.layer_table(spans, root="op")
    light_table = trace.layer_table(spans, root="op.light")
    loaded_table = trace.layer_table(spans, root="op.loaded")
    cycle_table = trace.layer_table(spans, root="cycle")
    mirror = result["mirror"]

    # Mirror-derived layers: one in-process duty cycle and its parts.
    layers = dict.fromkeys(declared, 0.0)
    _core_layers(samples, layers)
    layers["core.network.apply_churn_ms"] = samples.mean(
        "core.network.apply_churn", 1e3)
    layers["core.network.churn_us_per_event"] = samples.mean(
        "core.network.apply_churn", 1e6) / 2
    layers["core.allocator.iterate_ms"] = samples.mean(
        "core.allocator.iterate", 1e3)
    layers["core.allocator.unattributed_ms"] = _unattributed(layers)
    layers["core.allocator.updates_render_us_per_update"] = samples.mean(
        "core.allocator.updates_render_per_update", 1e6)
    layers["core.allocator.queue_push_us"] = samples.mean(
        "core.allocator.queue_push", 1e6)
    layers["core.allocator.queue_drain_ms"] = samples.mean(
        "core.allocator.queue_drain", 1e3)
    for name in ("encode_start", "decode_start", "framebuffer_feed"):
        layers[f"service.wire.{name}_us"] = samples.mean(
            f"service.wire.{name}", 1e6)
    for name in ("encode_rates", "decode_rates"):
        layers[f"service.wire.{name}_us_per_update"] = samples.mean(
            f"service.wire.{name}_per_update", 1e6)
    layers["service.server.cycle_inproc_ms"] = samples.mean(
        "service.server.cycle_inproc", 1e3)

    # Phase-derived layers.
    layers["sampling.sampled.priced_fraction"] = 1.0
    layers["sampling.sampled.n_priced"] = result["n_live"]
    layers["service.wire.bytes_in_per_flowlet"] = (
        (light["bytes_in"] + loaded["bytes_in"]) / open_sent)
    layers["service.wire.bytes_out_per_flowlet"] = (
        16 * open_updates + result["rates_frame_base"]
        * (light["frames"] + loaded["frames"])) / open_sent
    layers["service.client.apply_churn_us"] = light["send_us"]
    layers["service.client.poll_us_per_update"] = (
        (light["poll_cpu_s"] + loaded["poll_cpu_s"]) * 1e6 / open_updates)
    for stats in (light, loaded):
        name = stats["name"]
        layers[f"service.server.cpu_ms_per_flowlet_{name}"] = (
            stats["cpu_s"] * 1e3 / stats["sent"])
        layers[f"service.server.cpu_busy_frac_{name}"] = (
            stats["cpu_s"] / stats["wall_s"])
    first_updates = statistics.mean(mirror.first_cycle_updates)
    client_decode_ms = (
        layers["service.wire.framebuffer_feed_us"]
        + first_updates * layers["service.wire.decode_rates_us_per_update"]
    ) / 1e3
    layers["service.server.unattributed_ms"] = (
        idle["latency_ms"]["p50"]
        - idle["send_us"] / 1e3
        - layers["service.server.cycle_inproc_ms"] - client_decode_ms)
    layers["service.server.saturation_flowlets_per_s"] = (
        saturate["succeeded"] / saturate["wall_s"])
    layers["service.server.admit_p50_ms"] = light["latency_ms"]["p50"]
    layers["service.server.admit_p90_ms"] = light["latency_ms"]["p90"]
    layers["service.server.admit_p99_ms"] = light["latency_ms"]["p99"]
    layers["service.server.admit_loaded_p99_ms"] = loaded["latency_ms"]["p99"]
    layers["service.server.slo_rate_per_s"] = max(
        [rate for stats, rate in ((light, 200.0), (loaded, 500.0))
         if stats["valid"] and stats["failed"] == 0
         and stats["latency_ms"]["p99"] <= service.SLO_P99_MS],
        default=0.0)
    layers["service.server.busy_frames"] = result["busy_frames"]
    layers["service.server.error_frames"] = result["error_frames"]
    _setup_layers(setup, layers)
    layers["bench.op_p50_raw_ms"] = idle["latency_ms"]["p50"]
    layers["bench.op_p99_ms"] = idle["latency_ms"]["p99"]
    layers["bench.failed_frac"] = (result["failed_arrivals"]
                                   / max(1, result["attempted"]))
    layers["bench.gen_late_p99_ms"] = max(light["late_ms"]["p99"],
                                          loaded["late_ms"]["p99"])
    layers["bench.host_slowdown"] = idle["slowdown"]
    # Spans are built after the phases, from timestamps every run takes
    # anyway: this bookkeeping is all that tracing adds.
    layers["bench.trace_overhead_frac"] = (result["record_spans_s"]
                                           / args.seconds)
    detail.update(_trace_detail(
        "\n".join((
            trace.format_layer_table(op_table, "service_10k idle arrival"),
            trace.format_layer_table(light_table,
                                     "service_10k light arrival"),
            trace.format_layer_table(loaded_table,
                                     "service_10k loaded arrival"),
            trace.format_layer_table(cycle_table,
                                     "service_10k in-process cycle"))),
        op_table, spans, problems))
    detail.update({
        "mirror_updates_per_arrival": statistics.mean(
            mirror.updates_per_arrival),
        "mirror_first_cycle_updates": first_updates,
        "client_decode_ms": client_decode_ms,
    })
    return result, layers, detail, [f"span structure: {p}"
                                    for p in problems[:5]]


def _phase_detail(phases) -> dict:
    keep = ("sent", "succeeded", "failed", "wall_s", "cpu_s", "updates",
            "latency_ms", "slowdown", "late_ms", "backlog_quarters",
            "backlog_growing", "valid")
    return {name: {k: stats[k] for k in keep if k in stats}
            for name, stats in phases.items()}


# ----------------------------------------------------------------------
# one workload
# ----------------------------------------------------------------------
def workload_specs():
    """The in-process workloads (``service_10k`` has no scheduler of its
    own to configure; it lives in service.py)."""
    from .inprocess import InProcessSpec
    return {
        "steady_100k": InProcessSpec("steady_100k", "flowtune", 100_000, 50,
                                     2_000, 10),
        "churn_10k": InProcessSpec("churn_10k", "flowtune", 10_000, 2_000,
                                   1_000, 200),
        "sampled_100k": InProcessSpec("sampled_100k", "sampled", 100_000,
                                      250, 2_000, 25),
    }


def run_one(args, spec_doc) -> int:
    _import_program()
    kind = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in spec_doc[kind]}
    spec = workload_specs().get(args.workload)
    cpus_allowed = len(os.sched_getaffinity(0))
    if spec is None:
        result, values, detail, extra = run_service(args, declared)
    else:
        result, values, detail, extra = run_inprocess(spec, args, declared)
    failures = list(result["failures"]) + extra
    missing = [name for name in declared if name not in values]
    if missing:
        failures.append(f"metrics not produced: {', '.join(missing)}")
    failed = result.get("failed_arrivals", 0) + len(result["failures"])
    correct = not failures

    env = environment(cpus_allowed, result.get("pinned"))
    print(f"== {args.workload}: seed {args.seed}, {args.seconds:g} s window, "
          f"trace {args.trace}{', smoke' if args.smoke else ''} ==")
    print(f"env: {json.dumps(env)}")
    print(f"input hash: {result['input_hash']}")
    if "layer_table" in detail:
        print(detail.pop("layer_table"))
    print(f"{kind.replace('_', '-')} metrics:")
    for name, meta in declared.items():
        if name not in values:
            continue
        bound = (f", may worsen {meta['bound']:.0%}" if "bound" in meta
                 else "")
        print(f"  {name:<46}{values[name]:>14.6g} {meta['unit']:<6}"
              f"({meta['better']} is better{bound})")
    print(f"detail: {json.dumps(detail, default=float)}")
    for failure in failures:
        print(f"FAILED: {failure}")
    print(json.dumps({
        "correct": correct, "attempted": int(result["attempted"]),
        "failed": int(failed),
        "metrics": {name: {"value": float(values[name]),
                           "unit": declared[name]["unit"]}
                    for name in declared if name in values}}))
    return 0 if correct else 1


# ----------------------------------------------------------------------
# every workload, each in its own process
# ----------------------------------------------------------------------
def run_all(args, spec_doc) -> int:
    names = [w["name"] for w in spec_doc["workloads"]]
    runs = {name: [] for name in names}
    status = 0
    for repeat in range(args.repeat):
        for name in names:
            for trace_flag in ((0, 1) if args.trace else (0,)):
                cmd = [sys.executable, str(Path(__file__).resolve()),
                       "--workload", name, "--seed", str(args.seed),
                       "--seconds", str(args.seconds),
                       "--trace", str(trace_flag)]
                if args.smoke:
                    cmd.append("--smoke")
                done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                                      check=False)
                sys.stdout.write(done.stdout)
                sys.stdout.flush()
                status = status or done.returncode
                lines = done.stdout.strip().splitlines()
                if done.returncode == 0 and lines:
                    runs[name].append({"trace": trace_flag, "repeat": repeat,
                                       **json.loads(lines[-1])})
    summary = {"seed": args.seed, "seconds": args.seconds,
               "smoke": args.smoke, "runs": runs}
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
    print(json.dumps({
        "correct": status == 0,
        "attempted": sum(r["attempted"] for rs in runs.values() for r in rs),
        "failed": sum(r["failed"] for rs in runs.values() for r in rs),
        "metrics": {}}))
    return status


def main(argv=None) -> int:
    spec_doc = load_spec()
    names = [w["name"] for w in spec_doc["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured window per workload (default: "
                             "BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help=f"{SMOKE_SECONDS} s windows and 2k/1k live "
                             "flows; same code path and checks")
    parser.add_argument("--repeat", type=int, default=1,
                        help="(all workloads) runs per workload")
    parser.add_argument("--out", default=None,
                        help="(all workloads) write the runs as JSON, the "
                             "input of compare.py")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = (SMOKE_SECONDS if args.smoke
                        else float(spec_doc["run_seconds"]))
    if args.workload == "all":
        return run_all(args, spec_doc)
    return run_one(args, spec_doc)


if __name__ == "__main__":
    sys.exit(main())
