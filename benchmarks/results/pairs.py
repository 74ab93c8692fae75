"""Alternating parent/change runs of the repo's benchmark (README protocol).

    python benchmarks/results/pairs.py --seeds 41-50
    python benchmarks/results/pairs.py --seeds 51-53 --trace churn_10k

Clones ``--base`` (default HEAD, the parent while a change is not yet
committed) into a temp dir and runs ``benchmarks/e2e/run.py`` there and
in this checkout, one seed per pair, the side that runs first
alternating.  Writes ``e2e-<base>.json``, ``e2e-src-<tree>.json`` and
the ``compare.py`` table, or with ``--trace W`` the per-layer table
``layers-<base>-src-<tree>.txt`` of traced runs of workload ``W``, and
prints per seed whether both sides produce the same rate vectors and,
per workload, whether the id -> rate maps and updated-id sets of the
first ops match, with the largest relative rate difference (a change
that reorders flows moves the hash but should not move these).
"""

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: Ops of every in-process workload that the hashes and per-flow maps cover.
OPS = 50
#: Run inside a checkout as ``-c HASHES SEED DIR``: hash the first ops of
#: every in-process workload, and write to ``DIR/<workload>.npy``, per op,
#: a digest of the sorted flow ids, the rates in id order and the sorted
#: updated ids.
HASHES = f"""
import hashlib, sys
sys.path[:0] = ["benchmarks", "src"]
import numpy as np
from e2e import inprocess, run
for name, spec in run.workload_specs().items():
    driver, _ = inprocess.setup(spec, int(sys.argv[1]), smoke=False)
    digest = hashlib.sha256()
    with open(f"{{sys.argv[2]}}/{{name}}.npy", "wb") as dump:
        for _ in range({OPS}):
            _, result, _ = driver.op(driver.batch())
            for part in (result.rate_vector, result.update_indices):
                digest.update(np.ascontiguousarray(part).tobytes())
            ids = np.asarray(result.flow_ids, dtype=np.int64)
            order = np.argsort(ids)
            ids_digest = hashlib.sha256(ids[order].tobytes()).digest()
            np.save(dump, np.frombuffer(ids_digest, dtype=np.uint8))
            np.save(dump, np.asarray(result.rate_vector)[order])
            np.save(dump, np.sort(ids[result.update_indices]))
    print(name, digest.hexdigest()[:16])
"""


def sh(*cmd, cwd=ROOT, env=None):
    done = subprocess.run(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE,
                          text=True, check=True)
    return done.stdout.strip()


def per_flow(dumps):
    """Compare two sides' ``HASHES`` dumps of one workload op by op:
    ``(same id -> rate maps, same updated-id sets, max relative rate
    difference)``."""
    same_maps = same_updates = True
    worst = 0.0
    with open(dumps[0], "rb") as side_a, open(dumps[1], "rb") as side_b:
        for _ in range(OPS):
            (ids_a, rates_a, updated_a), (ids_b, rates_b, updated_b) = (
                [np.load(side) for _ in range(3)] for side in (side_a, side_b))
            if not np.array_equal(ids_a, ids_b):
                return False, False, float("nan")
            same_maps &= np.array_equal(rates_a, rates_b)
            same_updates &= np.array_equal(updated_a, updated_b)
            scale = np.maximum(np.abs(rates_a), np.abs(rates_b))
            diff = np.abs(rates_a - rates_b) / np.where(scale > 0, scale, 1.0)
            worst = max(worst, float(diff.max(initial=0.0)))
    return same_maps, same_updates, worst


def src_tree():
    """What ``git rev-parse <commit>:src`` prints once the working tree
    is committed."""
    with tempfile.TemporaryDirectory() as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": f"{tmp}/index"}
        sh("git", "read-tree", "HEAD", env=env)
        sh("git", "add", "-A", "src", env=env)
        return sh("git", "write-tree", "--prefix=src/", env=env)[:7]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", required=True, help="FIRST-LAST")
    parser.add_argument("--base", default="HEAD")
    parser.add_argument("--trace", metavar="WORKLOAD")
    args = parser.parse_args()
    first, last = map(int, args.seeds.split("-"))
    base = sh("git", "rev-parse", "--short", args.base)
    tree = src_tree()
    stem = f"{base}-src-{tree}"
    merged = [{"seed": args.seeds.replace("-", ".."), "runs": {}}
              for _ in range(2)]
    layers = {}
    with tempfile.TemporaryDirectory() as tmp:
        sides = (Path(tmp) / "parent", ROOT)
        sh("git", "clone", "-q", str(ROOT), str(sides[0]))
        sh("git", "checkout", "-q", args.base, cwd=sides[0])
        for pair, seed in enumerate(range(first, last + 1)):
            for side in (pair % 2, 1 - pair % 2):
                run = [sys.executable, "benchmarks/e2e/run.py", "--seed",
                       str(seed)]
                if args.trace:
                    out = sh(*run, "--workload", args.trace, "--trace", "1",
                             cwd=sides[side])
                    layers[side, seed] = json.loads(
                        out.splitlines()[-1])["metrics"]
                    continue
                out_file = f"{tmp}/side{side}-{seed}.json"
                sh(*run, "--repeat", "1", "--out", out_file, cwd=sides[side])
                with open(out_file) as fh:
                    summary = json.load(fh)
                merged[side].update(seconds=summary["seconds"],
                                    smoke=summary["smoke"])
                for workload, runs in summary["runs"].items():
                    for one in runs:
                        one.update(seed=seed, pair=pair,
                                   ran_first=side == pair % 2)
                    merged[side]["runs"].setdefault(workload, []).extend(runs)
            dumps = [Path(tmp) / f"dump-{name}" for name in ("parent",
                                                             "change")]
            hashes = []
            for side, dump in zip(sides, dumps):
                dump.mkdir(exist_ok=True)
                hashes.append(sh(sys.executable, "-c", HASHES, str(seed),
                                 str(dump), cwd=side))
            print(f"seed {seed}: rate vectors + update indices "
                  f"{'IDENTICAL' if hashes[0] == hashes[1] else 'DIFFER'}: "
                  f"{' '.join(hashes[1].split())}", flush=True)
            for line in hashes[1].splitlines():
                name = line.split()[0]
                files = [dump / f"{name}.npy" for dump in dumps]
                same_maps, same_updates, worst = per_flow(files)
                same_hash = line in hashes[0].splitlines()
                print(f"  {name}: hash "
                      f"{'identical' if same_hash else 'differs'}; first "
                      f"{OPS} ops: id->rate maps "
                      f"{'identical' if same_maps else 'differ'} (max "
                      f"relative difference {worst:.1e}), updated-id sets "
                      f"{'identical' if same_updates else 'differ'}",
                      flush=True)
                for path in files:
                    path.unlink()
    if args.trace:  # one column per run, metrics that read 0 everywhere dropped
        cols = sorted(layers)
        rows = [["metric"] + [f"{('parent', 'change')[side]}/{seed}"
                              for side, seed in cols]]
        rows += [[name] + [f"{layers[col][name]['value']:.4g}" for col in cols]
                 for name in layers[cols[0]]
                 if any(layers[col][name]["value"] for col in cols)]
        (HERE / f"layers-{stem}.txt").write_text(
            f"{args.trace}: run.py --workload {args.trace} --seed S --trace 1,"
            " alternating pairs (even pair: parent first).  Probe times are"
            " raw; bench.host_slowdown is the host's speed during the run.\n\n"
            + "".join(f"{row[0]:<42}" + "".join(f"{cell:>12}" for cell in row[1:])
                      + "\n" for row in rows))
        return
    files = [HERE / f"e2e-{base}.json", HERE / f"e2e-src-{tree}.json"]
    for path, summary in zip(files, merged):
        path.write_text(json.dumps(summary, indent=1))
    table = subprocess.run(  # exit code 1 only says a row reads "worse"
        [sys.executable, "benchmarks/e2e/compare.py",
         *(str(path.relative_to(ROOT)) for path in files)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False).stdout
    (HERE / f"e2e-compare-{stem}.txt").write_text(table)
    print(table)


if __name__ == "__main__":
    main()
