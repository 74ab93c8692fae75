"""Fast-lane smoke tests for the benchmark tooling.

These do not gate performance (the bench-smoke CI lane does); they
assert the machinery works: the harness's benchmarks run and emit a
positive score in the JSON schema, the gate's ungated set stays out of
the comparison and matches the committed baseline, and the paired
scripts under ``benchmarks/results`` run.
"""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import harness  # noqa: E402
import report  # noqa: E402
from _common import bench_environment  # noqa: E402


class TestHarnessSmoke:
    def test_fluid_ticks_runs_and_scores(self, tmp_path):
        """End-to-end: `harness.py --only fluid_ticks --quick` writes a
        result file with a positive ticks/sec score."""
        output = tmp_path / "bench.json"
        code = harness.main(["--quick", "--only", "fluid_ticks",
                             "--output", str(output)])
        assert code == 0
        payload = json.loads(output.read_text())
        assert payload["mode"] == "quick"
        result = payload["results"]["fluid_ticks"]
        assert result["ops_per_sec"] > 0
        assert result["params"]["ticks_per_op"] > 0
        # the normalization denominator always runs alongside
        assert payload["results"]["calibration"]["ops_per_sec"] > 0

    def test_every_benchmark_is_registered(self):
        assert set(harness.BENCHMARKS) >= {
            "calibration", "iterate_churn_1k", "fluid_ticks",
            "parallel_speedup", "multicore_16proc"}

    def test_ungated_benchmarks_stay_out_of_the_gate(self):
        results = {
            "calibration": {"ops_per_sec": 100.0},
            "fluid_ticks": {"ops_per_sec": 50.0},
            "parallel_speedup": {"ops_per_sec": 10.0},
        }
        scores = harness.relative_scores(results)
        assert "parallel_speedup" not in scores
        assert scores["fluid_ticks"] == pytest.approx(0.5)
        # ...and symmetric on the baseline side: no MISSING regression.
        rows, regressions = harness.compare(results, results,
                                            tolerance=0.3)
        assert regressions == []
        status = {row[0]: row[5] for row in rows}
        assert status == {"fluid_ticks": "ok", "parallel_speedup": "ungated"}

    def test_missing_gated_benchmark_counts_as_regression(self):
        baseline = {
            "calibration": {"ops_per_sec": 100.0},
            "fluid_ticks": {"ops_per_sec": 50.0},
        }
        current = {"calibration": {"ops_per_sec": 100.0}}
        _, regressions = harness.compare(current, baseline, tolerance=0.3)
        assert regressions == ["fluid_ticks"]


class TestReportRenderer:
    def test_text_table_aligns_columns(self):
        table = report.format_table(["name", "score"],
                                    [["a", 1.5], ["longer", None]])
        lines = table.splitlines()
        assert lines[0].startswith("name")
        assert "1.5" in lines[1] and "-" in lines[2]

    def test_markdown_table_shape(self):
        table = report.format_table(["a", "b"], [[1, 2]], markdown=True)
        lines = table.splitlines()
        assert lines[0] == "| a | b |"
        assert set(lines[1]) <= set("|- ")
        assert lines[2] == "| 1 | 2 |"

    def test_step_summary_written_only_when_env_set(self, tmp_path,
                                                    monkeypatch):
        monkeypatch.delenv("GITHUB_STEP_SUMMARY", raising=False)
        assert not report.write_step_summary("nope")
        target = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(target))
        assert report.write_step_summary("# hello")
        assert report.write_step_summary("more")
        assert target.read_text() == "# hello\nmore\n"


class TestCiLaneSurface:
    """The harness features the CI lanes lean on."""

    def test_only_accepts_multiple_names_in_one_flag(self, tmp_path):
        """bench-multicore passes `--only a b` — one flag, several
        benchmarks (extend keeps repeated --only working too)."""
        output = tmp_path / "bench.json"
        code = harness.main([
            "--quick", "--only", "fluid_ticks", "iterate_churn_1k",
            "--output", str(output)])
        assert code == 0
        results = json.loads(output.read_text())["results"]
        assert set(results) == {"calibration", "fluid_ticks",
                                "iterate_churn_1k"}

    def test_step_summary_table_lands_in_the_run_page(self, tmp_path,
                                                      monkeypatch):
        target = tmp_path / "summary.md"
        monkeypatch.setenv("GITHUB_STEP_SUMMARY", str(target))
        code = harness.main(["--quick", "--only", "fluid_ticks",
                             "--output", str(tmp_path / "bench.json")])
        assert code == 0
        summary = target.read_text()
        assert "fluid_ticks" in summary and "| --- |" in summary

    def test_summary_rows_show_floor_delta_and_ungated_speedups(self):
        results = {
            "calibration": {"ops_per_sec": 100.0},
            "fluid_ticks": {"ops_per_sec": 80.0},
            "brand_new": {"ops_per_sec": 10.0},
            "parallel_speedup": {
                "ops_per_sec": 10.0,
                "speedup_vs_single_core": {"1": 0.9, "4": 2.1}},
        }
        baseline = {
            "calibration": {"ops_per_sec": 100.0},
            "fluid_ticks": {"ops_per_sec": 100.0},
        }
        rows, _ = harness.compare(results, baseline, 0.30)
        summary = report.format_table(harness.HEADERS, rows, markdown=True)
        assert "0.7000" in summary          # floor = 1.0 * (1 - 0.30)
        assert "-20.0%" in summary          # 0.8 vs baseline 1.0
        assert "4w=2.10x" in summary        # §6.1 speedups surfaced
        assert "new" in summary

    def test_only_with_an_unknown_name_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            harness.main(["--quick", "--only", "iterate_churn_100k"])
        assert exit_info.value.code == 2
        assert "unknown benchmark(s): ['iterate_churn_100k']" \
            in capsys.readouterr().err

    def test_check_without_a_baseline_of_the_mode_fails(self, tmp_path):
        code = harness.main([
            "--quick", "--only", "multicore_16proc", "--check",
            "--baseline", str(tmp_path / "missing.json"),
            "--output", str(tmp_path / "bench.json")])
        assert code == 1


class TestWorkerPoolBenchmarks:
    def test_new_benchmarks_are_registered(self):
        assert {"barrier_step", "parallel_speedup"} \
            <= set(harness.BENCHMARKS)

    def test_barrier_step_is_gated_and_parallel_speedup_is_not(self):
        results = {
            "calibration": {"ops_per_sec": 100.0},
            "barrier_step": {"ops_per_sec": 400.0},
            "parallel_speedup": {"ops_per_sec": 10.0},
        }
        scores = harness.relative_scores(results)
        assert scores == {"barrier_step": pytest.approx(4.0)}
        assert harness.UNGATED == {"parallel_speedup", "service_fanout"}

    def test_barrier_step_runs(self):
        result = harness.bench_barrier_step("quick", n_workers=2)
        assert result["ops_per_sec"] > 0
        assert result["params"]["barrier_mode"] == "block"

    def test_multicore_16proc_runs(self):
        result = harness.bench_multicore("quick")
        assert result["ops_per_sec"] > 0
        assert result["params"]["n_processors"] == 16


class TestCommittedBaseline:
    def test_gated_names_match_the_registry_in_each_mode(self):
        """A gated benchmark missing from the baseline would read "new"
        forever; a stale one would fail every full run as MISSING."""
        baseline = json.loads(harness.DEFAULT_BASELINE.read_text())
        gated = set(harness.BENCHMARKS) - harness.UNGATED - {"calibration"}
        expected = {"quick": gated - harness.FULL_ONLY, "full": gated}
        assert {mode: set(harness.relative_scores(entry["results"]))
                for mode, entry in baseline["modes"].items()} == expected

    def test_bench_environment_records_where_a_result_came_from(self):
        assert set(bench_environment()) == {"python", "numpy", "system",
                                            "machine"}


def rebinding_lines(source):
    """Lines of ``source`` that ``setattr``/``delattr`` or store an
    attribute on anything but ``self`` or a module it imports from
    outside ``repro``: the ways a script could monkeypatch the program
    it measures."""
    tree = ast.parse(source)
    modules = {alias.asname or alias.name.split(".")[0]
               for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names if not alias.name.startswith("repro")}
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in ("setattr", "delattr")):
            lines.append(node.lineno)
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.ctx, (ast.Store, ast.Del))):
            root = node.value
            while isinstance(root, ast.Attribute):
                root = root.value
            if not (isinstance(root, ast.Name)
                    and (root.id == "self" or root.id in modules)):
                lines.append(node.lineno)
    return lines


class TestMeasuresOnlyThroughThePublicSurface:
    def test_the_scan_sees_a_rebinding(self):
        assert rebinding_lines(
            "setattr(table, 'price_sums', timed)\n"
            "allocator.normalizer = timed\n"
            "import _common\n_common.X = 1\nself.y = 2\n") == [1, 2]

    def test_no_benchmark_script_rebinds_a_repro_attribute(self):
        scripts = sorted((REPO_ROOT / "benchmarks").glob("*.py")) \
            + sorted((REPO_ROOT / "benchmarks" / "results").glob("*.py"))
        found = {path.name: rebinding_lines(path.read_text())
                 for path in scripts}
        assert {name: lines for name, lines in found.items() if lines} == {}


class TestResultsScripts:
    @pytest.mark.skipif(shutil.which("git") is None
                        or not (REPO_ROOT / ".git").exists(),
                        reason="needs git and a git checkout")
    def test_pairs_src_tree_is_the_committed_src_tree(self, tmp_path):
        """On a clean checkout the candidate key pairs.py computes is
        ``git rev-parse HEAD:src``."""
        clone = tmp_path / "clone"
        subprocess.run(["git", "clone", "-q", str(REPO_ROOT), str(clone)],
                       check=True)
        committed = subprocess.run(
            ["git", "rev-parse", "HEAD:src"], cwd=clone, check=True,
            stdout=subprocess.PIPE, text=True).stdout.strip()
        computed = subprocess.run(
            [sys.executable, "-c",
             "import sys; sys.path.insert(0, 'benchmarks/results'); "
             "import pairs; print(pairs.src_tree())"],
            cwd=clone, check=True, stdout=subprocess.PIPE,
            text=True).stdout.strip()
        assert computed == committed[:7]

    def test_parallel_speedup_small_run(self):
        result = subprocess.run(
            [sys.executable, "benchmarks/results/parallel_speedup.py",
             "--flows", "4096", "--rounds", "2", "--sides", "ned,shm1"],
            cwd=REPO_ROOT, capture_output=True, text=True, timeout=180)
        assert result.returncode == 0, result.stderr
        assert "shm1" in result.stdout and "speedup" in result.stdout
