"""A/A study of the harness gate: this tree against its committed baseline.

    python benchmarks/results/harness_aa.py

Runs ``harness.py --quick`` (the CI smoke shape) 20 times and
``harness.py --only iterate_churn_1m`` (the multicore lane's gated
step) 10 times, interleaved, and scores every run as the gate does:
ops/sec over the same run's calibration ops/sec, divided by the same
for ``benchmarks/baseline.json`` of that mode.  The table gives each
benchmark's ratio (min, quartiles, max) and how many runs a 30 % floor
would fail although nothing changed.  Writes ``harness-aa-<HEAD>.txt``.
"""

import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SHAPES = {"quick": (["--quick"], 20),
          "full": (["--only", "iterate_churn_1m"], 10)}
FLOOR = 0.70


def scores(results):
    cal = results["calibration"]["ops_per_sec"]
    out = {name: entry["ops_per_sec"] / cal for name, entry in results.items()
           if name != "calibration"}
    out["calibration (raw ops/s)"] = cal
    return out


def main():
    baseline = json.loads((ROOT / "benchmarks/baseline.json").read_text())
    runs = {shape: [] for shape in SHAPES}
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "run.json"
        for i in range(max(n for _, n in SHAPES.values())):
            for shape, (flags, n) in SHAPES.items():
                if i < n:
                    subprocess.run([sys.executable, "benchmarks/harness.py",
                                    *flags, "--output", str(out)], cwd=ROOT,
                                   stdout=subprocess.DEVNULL, check=True)
                    runs[shape].append(scores(json.loads(
                        out.read_text())["results"]))
                    print(f"{shape} run {len(runs[shape])}", flush=True)
    head = subprocess.run(["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
                          stdout=subprocess.PIPE, text=True,
                          check=True).stdout.strip()
    lines = [
        f"A/A of the benchmarks/harness.py gate: one tree (parent {head} plus"
        " the change that carries this file) against its committed"
        " benchmarks/baseline.json, recorded by separate --update-baseline"
        " runs before these.",
        f"Host: {platform.platform()}, {os.cpu_count()} CPUs, Python"
        f" {platform.python_version()}, numpy {np.__version__}.",
        "Command: python benchmarks/results/harness_aa.py, which runs,"
        " interleaved:",
        *(f"  {shape}: python benchmarks/harness.py {' '.join(flags)}"
          f"   x {n}" for shape, (flags, n) in SHAPES.items()),
        "ratio = (ops/sec / calibration ops/sec) of a run over the same in the"
        " baseline of its mode; the calibration row is raw over raw.",
        f"fires = runs below the {FLOOR:.2f} floor of the 30 % gate: false"
        " alarms, since both sides are the same code.", "",
        f"{'shape':<6} {'benchmark':<24} {'runs':>4} {'min':>6} {'q1':>6}"
        f" {'median':>6} {'q3':>6} {'max':>6} {'fires':>5}"]
    per_run = ["", "Per-run ratios (run order):"]
    for shape, shape_runs in runs.items():
        base = scores(baseline["modes"][shape]["results"])
        for name in shape_runs[0]:
            ratios = np.array([r[name] / base[name] for r in shape_runs])
            lines.append(f"{shape:<6} {name:<24} {len(ratios):>4}" + "".join(
                f" {v:6.2f}" for v in np.percentile(ratios, [0, 25, 50, 75, 100]))
                + f" {int((ratios < FLOOR).sum()):>5}")
            per_run.append(f"{shape:<6} {name:<24} "
                           + " ".join(f"{r:.2f}" for r in ratios))
    text = "\n".join(lines + per_run) + "\n"
    (HERE / f"harness-aa-{head}.txt").write_text(text)
    print(text)


if __name__ == "__main__":
    main()
