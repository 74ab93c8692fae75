"""Which functions of ``src/repro`` the repo's consumers call, and which only tests.

    python benchmarks/results/reach.py [--out FILE] [--check]

Runs every consumer of the library, then tier-1, each with a
``sys.setprofile`` hook that a temporary ``sitecustomize.py`` installs
in every Python process (``PYTHONPATH`` carries it to subprocesses,
the ``python -m repro.service`` child included).  The consumers are the
32 figure / ablation / table benches at ``REPRO_SCALE=small``,
``benchmarks/e2e/run.py --smoke --trace 1`` (which runs every workload
untraced and traced), the examples and ``harness.py --quick``.  The
compiled kernel library is deleted first, so the consumers build it as
a fresh checkout does.

Every ``def`` under ``src/repro`` is then one of: reached by a
consumer, reached only by tier-1 (*test-only*), or by nothing
(*unreached*).  A test-only or unreached function must carry a verdict
saying why it stays:

- ``interface`` / ``debug`` are read off the code: a body that is only
  ``...``, ``pass`` or ``raise NotImplementedError``, a method of a
  ``Protocol`` class, or a ``# pragma: no cover`` on the ``def`` line;
- every other verdict is a ``Reach: <verdict> — <why>`` sentence in
  the docstring, one of ``invariant`` (tests check another component
  with it), ``api`` (documented in the README, part of
  ``RateScheduler`` or of the wire protocol), ``safety`` (an error or
  teardown path) and ``deferred`` (a documented path a ROADMAP item
  replaces).

Prints (or writes to ``--out``) one line per test-only or unreached
function, ``status verdict path:line qualname lines``, under a header
with the counts.  ``--check`` exits 1 if any of them has no verdict.

The hook records a code object the first time it is called and appends
it to one file at once, so what a process reached survives however it
ends: forked pool workers leave through ``os._exit`` and the service
child is killed.  pytest-benchmark switches profiling off around every
``benchmark(...)`` call with ``sys.setprofile(None)``; the hook
replaces ``sys.setprofile`` so that ``None`` re-installs it.
"""

import argparse
import ast
import os
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"

SITECUSTOMIZE = r'''
import os, sys, threading
_fd = os.open(os.environ["REACH_LOG"], os.O_WRONLY | os.O_CREAT | os.O_APPEND)
_seen = set()
_mark = os.sep + "repro" + os.sep


def _hook(frame, event, arg):
    if event == "call":
        code = frame.f_code
        if code not in _seen:
            _seen.add(code)
            if _mark in code.co_filename:
                os.write(_fd, (f"{os.path.abspath(code.co_filename)}\t"
                               f"{code.co_firstlineno}\t"
                               f"{code.co_qualname}\n").encode())


_setprofile = sys.setprofile
sys.setprofile = lambda fn: _setprofile(fn or _hook)
_setprofile(_hook)
threading.setprofile(_hook)
'''

VERDICTS = ("invariant", "api", "interface", "safety", "debug", "deferred")
TAG = re.compile(r"\bReach: (\w+)")


def consumers():
    py = sys.executable
    benches = sorted(str(p) for p in (ROOT / "benchmarks").glob("bench_*.py"))
    yield ({"REPRO_SCALE": "small"},
           [py, "-m", "pytest", "-q", "-p", "no:cacheprovider", *benches])
    yield {}, [py, "benchmarks/e2e/run.py", "--smoke", "--trace", "1"]
    for example in sorted((ROOT / "examples").glob("*.py")):
        yield {}, [py, str(example)]
    yield {}, [py, "benchmarks/harness.py", "--quick",
               "--output", os.devnull]


def tier1():
    yield {}, [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
               "tests"]


def trace(commands, hook_dir, log):
    """Run ``commands`` under the hook; return the reached (path, line) set."""
    for extra, cmd in commands:
        env = dict(os.environ, REACH_LOG=str(log), **extra)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(hook_dir), str(ROOT / "src"), env.get("PYTHONPATH", "")])
        print("reach:", " ".join(Path(c).name for c in cmd[1:4]), "...",
              file=sys.stderr, flush=True)
        done = subprocess.run(cmd, cwd=ROOT, env=env, check=False,
                              stdout=subprocess.DEVNULL)
        if done.returncode:
            sys.exit(f"reach: {cmd} exited {done.returncode}")
    reached = set()
    for line in log.read_text().splitlines():
        path, first, _ = line.split("\t")
        reached.add((os.path.realpath(path), int(first)))
    return reached


def functions():
    """Yield ``(path, first line, qualname, lines, verdict)`` per ``def``.

    ``first line`` is the code object's: the first decorator's line.
    """
    for path in sorted(SRC.rglob("*.py")):
        text = path.read_text()
        yield from _walk(ast.parse(text, str(path)), str(path.resolve()),
                         text.splitlines(), "", False)


def _walk(node, path, lines, prefix, protocol):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            is_protocol = any(getattr(b, "id", getattr(b, "attr", "")) ==
                              "Protocol" for b in child.bases)
            yield from _walk(child, path, lines,
                             f"{prefix}{child.name}.", is_protocol)
        elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([d.lineno for d in child.decorator_list]
                        + [child.lineno])
            yield (path, first, prefix + child.name,
                   child.end_lineno - child.lineno + 1,
                   _verdict(child, lines, protocol))
            yield from _walk(child, path, lines,
                             f"{prefix}{child.name}.<locals>.", False)


def _verdict(func, lines, protocol):
    if "pragma: no cover" in lines[func.lineno - 1]:
        return "debug"
    body = func.body
    if ast.get_docstring(func) is not None:
        body = body[1:]
    stub = all(
        isinstance(s, ast.Pass)
        or (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant)
            and s.value.value is Ellipsis)
        or (isinstance(s, ast.Raise) and "NotImplementedError"
            in ast.unparse(s.exc or ast.Constant(None)))
        for s in body)
    if protocol or stub:
        return "interface"
    tag = TAG.search(ast.get_docstring(func) or "")
    if tag and tag.group(1) in VERDICTS:
        return tag.group(1)
    return None


def report(used, tested):
    entries = []
    totals = Counter()
    for path, first, qualname, n_lines, verdict in functions():
        key = (path, first)
        status = ("consumer" if key in used
                  else "test-only" if key in tested else "unreached")
        totals[status] += 1
        totals[status + " lines"] += n_lines
        if status != "consumer":
            entries.append((status, verdict or "NONE",
                            f"{os.path.relpath(path, ROOT)}:{first}",
                            qualname, n_lines))
    verdicts = Counter(e[1] for e in entries)
    n_defs = totals["consumer"] + totals["test-only"] + totals["unreached"]
    out = [
        "# benchmarks/results/reach.py: every def under src/repro, traced",
        "# consumers: bench_*.py at REPRO_SCALE=small, e2e/run.py --smoke "
        "--trace 1, examples/*.py, harness.py --quick; tests: tier-1",
        f"# functions {n_defs}: consumer {totals['consumer']},"
        f" test-only {totals['test-only']} ({totals['test-only lines']} lines),"
        f" unreached {totals['unreached']} ({totals['unreached lines']} lines)",
        "# verdicts: " + ", ".join(f"{v} {n}" for v, n in sorted(
            verdicts.items())),
        "# status verdict path:line qualname lines",
    ]
    out += [" ".join(map(str, e)) for e in sorted(entries)]
    return out, verdicts["NONE"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", help="write the report here")
    parser.add_argument("--check", action="store_true",
                        help="exit 1 if an entry has no verdict")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "sitecustomize.py").write_text(SITECUSTOMIZE)
        # Start the consumers from a fresh checkout's state: the first
        # import compiles the kernel library.
        for library in (SRC / "core" / "__pycache__").glob("_kernels.*"):
            library.unlink()
        used = trace(consumers(), tmp, tmp / "consumers.log")
        tested = trace(tier1(), tmp, tmp / "tests.log")
    lines, missing = report(used, tested)
    text = "\n".join(lines) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    if args.check and missing:
        sys.exit(f"reach: {missing} entries have no verdict")


if __name__ == "__main__":
    main()
