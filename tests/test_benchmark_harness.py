"""Fast-lane smoke tests for the hot-path benchmark harness.

These do not gate performance (the bench-smoke CI lane does); they
assert the harness *machinery* works: the new end-to-end fluid
tick-rate benchmark runs and emits a positive score, results land in
the JSON schema the trend tooling reads, and the gate's ungated set
keeps core-count-dependent benchmarks out of the comparison.
"""

import json
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "benchmarks"))

import harness  # noqa: E402


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
        assert all(name != "parallel_speedup" for name, *_ in rows)

    def test_missing_gated_benchmark_counts_as_regression(self):
        baseline = {
            "calibration": {"ops_per_sec": 100.0},
            "fluid_ticks": {"ops_per_sec": 50.0},
        }
        current = {"calibration": {"ops_per_sec": 100.0}}
        _, regressions = harness.compare(current, baseline, tolerance=0.3)
        assert regressions == ["fluid_ticks"]


import report  # noqa: E402
import trend  # noqa: E402


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
        """bench-multicore passes `--only a b c` — one flag, three
        benchmarks (extend keeps repeated --only working too)."""
        output = tmp_path / "bench.json"
        code = harness.main([
            "--quick", "--only", "fluid_ticks", "iterate_churn_1k",
            "--output", str(output)])
        assert code == 0
        results = json.loads(output.read_text())["results"]
        assert {"calibration", "fluid_ticks",
                "iterate_churn_1k"} <= set(results)
        assert "iterate_churn_10k" not in results

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
        summary = harness.step_summary_markdown(results, baseline,
                                                0.30, "quick")
        assert "0.7000" in summary          # floor = 1.0 * (1 - 0.30)
        assert "-20.0%" in summary          # 0.8 vs baseline 1.0
        assert "4w=2.10x" in summary        # §6.1 speedups surfaced
        assert "new" in summary

    def test_profile_mode_prints_kernel_breakdown(self, capsys):
        code = harness.profile_churn_iterate(1_000, "quick")
        assert code == 0
        out = capsys.readouterr().out
        for label in ("csr_sync", "price_sums", "link_totals2",
                      "max_link_value", "churn_apply"):
            assert label in out
        assert "ms/op" in out


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
        assert harness.UNGATED == {"parallel_speedup"}

    def test_barrier_step_runs(self):
        result = harness.bench_barrier_step("quick", n_workers=2)
        assert result["ops_per_sec"] > 0
        assert result["params"]["barrier_mode"] == "block"


class TestTrend:
    def artifact(self, tmp_path, run, scores, mode="quick"):
        directory = tmp_path / f"bench-hotpath-{run}-1"
        directory.mkdir()
        results = {name: {"ops_per_sec": ops}
                   for name, ops in scores.items()}
        (directory / "BENCH_hotpath.json").write_text(json.dumps(
            {"schema": 2, "mode": mode, "results": results}))
        return directory

    def test_series_ordered_by_run_number_and_normalized(self, tmp_path):
        # Written out of order; run number must win over mtime.
        self.artifact(tmp_path, 12, {"calibration": 100.0,
                                     "fluid_ticks": 80.0})
        self.artifact(tmp_path, 3, {"calibration": 200.0,
                                    "fluid_ticks": 100.0})
        series = trend.load_series(trend.discover([str(tmp_path)]))
        assert [label for label, _ in series] == ["run 3", "run 12"]
        assert series[0][1]["fluid_ticks"] == pytest.approx(0.5)
        assert series[1][1]["fluid_ticks"] == pytest.approx(0.8)

    def test_run_numbers_sort_numerically_across_digit_boundaries(
            self, tmp_path):
        for run in (99, 105):
            self.artifact(tmp_path, run, {"calibration": 100.0,
                                          "fluid_ticks": float(run)})
        series = trend.load_series(trend.discover([str(tmp_path)]))
        assert [label for label, _ in series] == ["run 99", "run 105"]
        assert trend.run_number("bench-hotpath-105-1") \
            > trend.run_number("bench-hotpath-99-2")

    def test_other_modes_and_junk_files_are_skipped(self, tmp_path):
        self.artifact(tmp_path, 1, {"calibration": 1.0}, mode="full")
        (tmp_path / "junk.json").write_text("{not json")
        assert trend.load_series(trend.discover([str(tmp_path)])) == []

    def test_committed_baseline_layout_is_accepted(self, tmp_path):
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps({"schema": 2, "modes": {
            "quick": {"results": {
                "calibration": {"ops_per_sec": 100.0},
                "fluid_ticks": {"ops_per_sec": 25.0}}}}}))
        series = trend.load_series([baseline])
        assert series == [("baseline", {"fluid_ticks": pytest.approx(0.25)})]

    def test_render_flags_scores_below_the_gate_floor(self, tmp_path):
        import io
        series = [("run 1", {"fluid_ticks": 1.0}),
                  ("run 2", {"fluid_ticks": 0.5})]
        out = io.StringIO()
        breaching = trend.render(series, {"fluid_ticks": 1.0},
                                 tolerance=0.3, out=out)
        assert breaching == ["fluid_ticks"]
        assert "fluid_ticks" in out.getvalue()

    def test_main_end_to_end(self, tmp_path, capsys):
        self.artifact(tmp_path, 1, {"calibration": 100.0,
                                    "fluid_ticks": 50.0})
        self.artifact(tmp_path, 2, {"calibration": 100.0,
                                    "fluid_ticks": 60.0})
        code = trend.main([str(tmp_path),
                           "--baseline", str(tmp_path / "missing.json")])
        assert code == 0
        captured = capsys.readouterr().out
        assert "fluid_ticks" in captured and "run 1 .. run 2" in captured
