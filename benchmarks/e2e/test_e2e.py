"""Checks of the benchmark itself.  Run with

    python -m pytest benchmarks/e2e -q

Every workload runs once untraced and once traced at ``--smoke`` size
(same code path and checks as a full run, 0.3 s windows).
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from . import compare, trace
from .inputs import make_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.\-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.\-]{1,16}$")


@pytest.fixture(scope="module")
def smoke_runs():
    """(workload, trace) -> (exit code, stdout lines), seed 7."""
    runs = {}
    for workload in WORKLOADS:
        for flag in (0, 1):
            done = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", "7", "--smoke", "--trace", str(flag)],
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
                timeout=180, check=False)
            runs[workload, flag] = (done.returncode,
                                    done.stdout.strip().splitlines(),
                                    done.stderr)
    return runs


def test_benchmark_json_meets_the_contract():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["benchmarks/e2e"]
    assert SPEC["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert isinstance(SPEC["run_seconds"], int)
    assert 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16
    assert 1 <= len(SPEC["per_layer"]) <= 128
    names = [w["name"] for w in SPEC["workloads"]]
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 <= metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        names.append(metric["name"])
        assert UNIT.match(metric["unit"]), metric
        assert metric["better"] in ("lower", "higher")
    assert len(set(names)) == len(names)
    assert all(NAME.match(name) for name in names)
    setup = [m for m in SPEC["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert len((ROOT / "BENCHMARK.json").read_bytes()) <= 64 * 1024


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("flag", (0, 1))
def test_smoke_run_reports_the_declared_metrics(smoke_runs, workload, flag):
    code, lines, stderr = smoke_runs[workload, flag]
    assert code == 0, "\n".join(lines[-12:]) + stderr[-2000:]
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer" if flag else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        reported = result["metrics"][metric["name"]]
        assert set(reported) == {"value", "unit"}
        assert reported["unit"] == metric["unit"]
        assert isinstance(reported["value"], float)
        if not flag:
            assert reported["value"] > 0, metric["name"]


def test_a_seed_fixes_the_inputs():
    assert make_inputs(7).digest == make_inputs(7).digest
    assert make_inputs(7).digest != make_inputs(8).digest


def test_runs_of_one_seed_measured_the_same_inputs(smoke_runs):
    for workload in WORKLOADS:
        hashes = {line for flag in (0, 1)
                  for line in smoke_runs[workload, flag][1]
                  if line.startswith("input hash:")}
        assert len(hashes) == 1, (workload, hashes)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_spans_nest_and_the_layer_table_sums_to_the_op(smoke_runs, workload):
    assert smoke_runs[workload, 1][0] == 0
    with open(HERE / "out" / f"spans-{workload}-seed7.json") as fh:
        spans = [tuple(span) for span in json.load(fh)["spans"]]
    assert spans
    assert trace.validate(spans) == []
    table = trace.layer_table(spans)
    assert table["ops"] > 0
    parts = sum(row[3] for row in table["rows"]) + table["unattributed_ms"]
    assert parts == pytest.approx(table["op_ms"], rel=1e-9)


def test_validate_reports_a_child_outside_its_parent():
    spans = [(1, 0, 1, "op", 0.0, 1.0), (2, 1, 1, "inner", 0.5, 1.5),
             (3, 9, 1, "orphan", 0.1, 0.2)]
    problems = trace.validate(spans)
    assert len(problems) == 2
    assert "does not fit" in problems[0] and "resolve" in problems[1]


def test_compare_verdicts():
    spec = {"workloads": [{"name": "w"}],
            "end_to_end": [
                {"name": "t_ms", "unit": "ms", "better": "lower",
                 "bound": 0.10},
                {"name": "r", "unit": "1/s", "better": "higher",
                 "bound": 0.10}]}

    def runs(t_values, r_values):
        return {"seed": 1, "runs": {"w": [
            {"trace": 0, "metrics": {"t_ms": {"value": t, "unit": "ms"},
                                     "r": {"value": r, "unit": "1/s"}}}
            for t, r in zip(t_values, r_values)]}}

    base = runs([10.0, 10.1, 9.9, 10.0], [100, 101, 99, 100])
    same = compare.compare(base, base, spec)
    assert [row["verdict"] for row in same] == ["ok", "ok"]
    slower = compare.compare(base, runs([12.0, 12.1, 11.9, 12.0],
                                        [80, 81, 79, 80]), spec)
    assert [row["verdict"] for row in slower] == ["worse", "worse"]
    noisy = compare.compare(base, runs([8.0, 12.0, 9.0, 13.0],
                                       [100, 101, 99, 100]), spec)
    assert noisy[0]["verdict"] == "unresolved"
    # wide spread, but every run better than every base run
    faster = compare.compare(base, runs([4.0, 8.0, 5.0, 7.0],
                                        [100, 101, 99, 100]), spec)
    assert faster[0]["verdict"] == "ok"
