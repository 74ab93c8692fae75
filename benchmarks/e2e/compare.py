"""Compare two sets of benchmark runs, workload by workload.

    python benchmarks/e2e/compare.py A.json B.json

``A`` is the base (the parent commit, or the first of two runs of the
same code), ``B`` the candidate; both are files written by
``run.py --repeat K --out FILE``.  For every workload and end-to-end
metric it prints both medians, the ratio B/A with its base, the bound
from ``BENCHMARK.json`` and a verdict:

``ok``          B's median is no worse than A's by more than the bound
``worse``       it is worse by more than the bound
``unresolved``  the run-to-run spread (quartile distance over median,
                of either side) is wider than the bound, so the medians
                cannot settle it — unless every run of B reads better
                than every run of A, which is ``ok``

Exit code 1 when any row is ``worse``.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def _values(summary: dict, workload: str, metric: str) -> list[float]:
    return [run["metrics"][metric]["value"]
            for run in summary["runs"].get(workload, ())
            if not run.get("trace") and metric in run["metrics"]]


def _spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    quartiles = statistics.quantiles(values, n=4)
    return (quartiles[2] - quartiles[0]) / statistics.median(values)


def compare(base: dict, candidate: dict, spec: dict) -> list[dict]:
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            a = _values(base, workload, metric["name"])
            b = _values(candidate, workload, metric["name"])
            if not a or not b:
                continue
            med_a, med_b = statistics.median(a), statistics.median(b)
            higher = metric["better"] == "higher"
            # worsening > 0 means B is worse, as a share of A's median
            worsening = ((med_a - med_b) if higher else (med_b - med_a)) / med_a
            all_better = (min(b) > max(a)) if higher else (max(b) < min(a))
            spread = max(_spread(a), _spread(b))
            if spread > metric["bound"] and not all_better:
                verdict = "unresolved"
            elif worsening > metric["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            rows.append({"workload": workload, "metric": metric["name"],
                         "unit": metric["unit"], "a": med_a, "b": med_b,
                         "runs": (len(a), len(b)), "ratio": med_b / med_a,
                         "spread": spread, "bound": metric["bound"],
                         "verdict": verdict})
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    with open(argv[0]) as fh:
        base = json.load(fh)
    with open(argv[1]) as fh:
        candidate = json.load(fh)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    rows = compare(base, candidate, spec)
    print(f"A = {argv[0]} (seed {base['seed']}), "
          f"B = {argv[1]} (seed {candidate['seed']})")
    print(f"{'workload':<14}{'metric':<22}{'median A':>12}{'median B':>12}"
          f"  {'B/A':>7}  {'spread':>7}  {'bound':>6}  verdict")
    for row in rows:
        print(f"{row['workload']:<14}{row['metric']:<22}{row['a']:>12.5g}"
              f"{row['b']:>12.5g}  {row['ratio']:>7.4f}  "
              f"{row['spread']:>7.2%}  {row['bound']:>6.0%}  "
              f"{row['verdict']} (n={row['runs'][0]}/{row['runs'][1]}, "
              f"base A {row['a']:.5g} {row['unit']})")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
