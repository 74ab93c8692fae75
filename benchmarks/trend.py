#!/usr/bin/env python
"""Chart hot-path benchmark scores across CI runs.

The bench-smoke CI lane uploads every run's ``BENCH_hotpath.json`` as
a per-run-numbered artifact (``bench-hotpath-<run>-<attempt>``, 90-day
retention).  The 30 % regression gate only catches step changes; this
script makes *drift inside the band* visible by loading an artifact
series and printing each gated benchmark's normalized score (ops/sec
relative to the calibration kernel — the same figure the gate
compares) over time, as a table plus a unicode sparkline, with the
committed baseline marked.

Point it at downloaded artifacts — either the JSON files themselves or
the directories ``gh run download`` produces::

    gh run download --name 'bench-hotpath-123-1' --dir artifacts/
    python benchmarks/trend.py artifacts/

    python benchmarks/trend.py --fetch          # download via gh, then chart

Runs are ordered by the run number embedded in the artifact name
(falling back to file modification time), and only runs matching
``--mode`` (default ``quick``, what CI records) are charted.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import subprocess
import sys
import zipfile
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import report  # noqa: E402
from harness import DEFAULT_BASELINE, relative_scores  # noqa: E402

_RUN_NUMBER = re.compile(r"bench-hotpath-(\d+)(?:-(\d+))?")
_SPARKS = "▁▂▃▄▅▆▇█"


def run_number(name):
    """(run, attempt) parsed from an artifact name, or None.

    Numeric, not lexicographic: ``bench-hotpath-105-1`` must sort
    after ``bench-hotpath-99-1``.
    """
    match = _RUN_NUMBER.search(str(name))
    if match:
        return (int(match.group(1)), int(match.group(2) or 0))
    return None


def _run_key(path: Path):
    """Sort key: (run number, attempt) from the artifact name, else
    modification time (ordered after all numbered runs)."""
    for part in (path.name, *(p.name for p in path.parents)):
        parsed = run_number(part)
        if parsed is not None:
            return (0, *parsed)
    return (1, path.stat().st_mtime, 0)


def discover(paths):
    """Expand files/directories into candidate result JSONs, ordered."""
    found = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            found.extend(path.rglob("*.json"))
        elif path.suffix == ".json":
            found.append(path)
    return sorted(set(found), key=_run_key)


def load_series(paths, mode="quick"):
    """Parse result files into ``[(label, {benchmark: score})]``.

    Accepts both raw harness payloads (``{"results": ...}``) and the
    committed baseline layout; files of other modes or unreadable
    files are skipped (a trend tool should chart what it can).
    """
    series = []
    for path in paths:
        try:
            payload = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError):
            continue
        if "modes" in payload:  # committed-baseline layout
            results = payload["modes"].get(mode, {}).get("results")
        elif payload.get("mode") == mode:
            results = payload.get("results")
        else:
            results = None
        if results is None or "calibration" not in results:
            continue
        match = _RUN_NUMBER.search(str(path))
        label = f"run {match.group(1)}" if match else path.stem
        series.append((label, relative_scores(results)))
    return series


def sparkline(values):
    lo, hi = min(values), max(values)
    if hi <= lo:
        return _SPARKS[0] * len(values)
    span = hi - lo
    return "".join(_SPARKS[min(len(_SPARKS) - 1,
                               int((v - lo) / span * len(_SPARKS)))]
                   for v in values)


def render(series, baseline_scores=None, tolerance=0.30, out=None):
    """Print the per-benchmark trend; returns benchmark names whose
    latest score sits below the gate's floor (should be none — the
    gate would have failed that run)."""
    out = out if out is not None else sys.stdout
    if not series:
        print("no matching benchmark runs found", file=out)
        return []
    names = sorted({name for _, scores in series for name in scores})
    labels = [label for label, _ in series]
    print(f"{len(series)} runs: {labels[0]} .. {labels[-1]}", file=out)
    breaching = []
    rows = []
    for name in names:
        values = [scores[name] for _, scores in series if name in scores]
        first, latest = values[0], values[-1]
        delta = 100.0 * (latest / first - 1.0) if first else float("nan")
        floor_s = None
        if baseline_scores and name in baseline_scores:
            floor = baseline_scores[name] * (1.0 - tolerance)
            floor_s = f"{floor:.4f}"
            if latest < floor:
                breaching.append(name)
        rows.append([name, f"{first:.4f}", f"{latest:.4f}",
                     f"{delta:+.1f}%", floor_s, sparkline(values)])
    print(report.format_table(
        ["benchmark", "first", "latest", "Δ%", "floor", "trend"], rows),
        file=out)
    print("(scores are ops/sec normalized by the calibration kernel; "
          "floor = committed baseline - tolerance)", file=out)
    return breaching


def baseline_for(mode, baseline_path):
    path = Path(baseline_path)
    if not path.exists():
        return None
    results = json.loads(path.read_text()).get("modes", {}) \
        .get(mode, {}).get("results")
    return relative_scores(results) if results else None


def fetch_artifacts(dest: Path, repo=None, limit=20):
    """Download recent ``bench-hotpath-*`` artifacts with the gh CLI."""
    dest.mkdir(parents=True, exist_ok=True)
    base = f"repos/{repo}" if repo else "repos/{owner}/{repo}"
    try:
        listing = subprocess.run(
            ["gh", "api", f"{base}/actions/artifacts?per_page=100"],
            check=True, capture_output=True, text=True)
    except (OSError, subprocess.CalledProcessError) as exc:
        raise SystemExit(f"gh api failed ({exc}); download artifacts "
                         "manually and pass the directory "
                         "instead") from exc
    artifacts = [a for a in json.loads(listing.stdout)["artifacts"]
                 if a["name"].startswith("bench-hotpath-")
                 and not a["expired"]]
    artifacts.sort(key=lambda a: run_number(a["name"]) or (0, 0))
    for artifact in artifacts[-limit:]:
        target = dest / artifact["name"]
        if target.exists():
            continue
        blob = subprocess.run(
            ["gh", "api", f"{base}/actions/artifacts/"
             f"{artifact['id']}/zip"],
            check=True, capture_output=True)
        with zipfile.ZipFile(io.BytesIO(blob.stdout)) as archive:
            archive.extractall(target)
    return dest


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="chart BENCH_hotpath.json scores across CI runs")
    parser.add_argument("paths", nargs="*",
                        help="result JSONs or artifact directories")
    parser.add_argument("--mode", default="quick",
                        help="harness mode to chart (default: quick, "
                             "what the CI smoke lane records)")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE,
                        help="baseline JSON for the gate-floor column")
    parser.add_argument("--tolerance", type=float, default=0.30)
    parser.add_argument("--fetch", action="store_true",
                        help="download recent artifacts via the gh CLI "
                             "into --dest first")
    parser.add_argument("--dest", type=Path,
                        default=REPO_ROOT / "bench-artifacts",
                        help="download directory for --fetch")
    parser.add_argument("--repo", default=None,
                        help="owner/name for --fetch (default: the "
                             "current gh repo)")
    parser.add_argument("--limit", type=int, default=20,
                        help="artifacts to fetch with --fetch")
    args = parser.parse_args(argv)

    paths = list(args.paths)
    if args.fetch:
        paths.append(str(fetch_artifacts(args.dest, args.repo,
                                         args.limit)))
    if not paths:
        parser.error("pass artifact files/directories or use --fetch")
    series = load_series(discover(paths), mode=args.mode)
    breaching = render(series, baseline_for(args.mode, args.baseline),
                       args.tolerance)
    return 1 if breaching else 0


if __name__ == "__main__":
    sys.exit(main())
