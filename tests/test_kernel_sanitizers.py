"""The compiled kernels under gcc's sanitizers (slow: each test builds).

- **ThreadSanitizer.**  CPython itself is not instrumented, and
  preloading ``libtsan`` into it crashes, so a standalone harness
  ``#include``s ``_kernels.c``, is built with ``-fsanitize=thread``
  against ``libpython``, and embeds the interpreter to run
  ``test_kernel_threads.py``'s comparison of every whole-table entry
  point at forced T = 1, 2, 3 and 7 on the instrumented module.  No
  ThreadSanitizer report may appear, and the bytes must equal T = 1's.
  A control run of the same binary races two threads on purpose, so a
  silent run means TSan was watching.
- **AddressSanitizer + UndefinedBehaviorSanitizer.**  A copy of
  ``src/repro`` whose ``kernels.CFLAGS`` add ``-g
  -fsanitize=address,undefined -fno-sanitize-recover=all`` runs the
  kernel tests (the two kernel files, the thread-count tests and the
  argument fuzz) with gcc's runtimes preloaded.  The CI ``sanitize``
  lane runs all of tier-1 that way.
- **The generic lane helpers.**  The same kernel tests on a copy built
  with ``-U__SSE2__``, so the helpers' non-SSE2 spelling, which no
  x86-64 build compiles, is held to the same bits.
"""

import os
import platform
import shutil
import subprocess
import sys
import sysconfig
from pathlib import Path

import pytest

pytestmark = pytest.mark.slow

ROOT = Path(__file__).resolve().parents[1]
CORE = ROOT / "src" / "repro" / "core"
SANITIZE = ("-g", "-fsanitize=address,undefined",
            "-fno-sanitize-recover=all")
KERNEL_TESTS = ("test_csr_kernels.py", "test_golden_kernels.py",
                "test_kernel_threads.py", "test_kernel_args.py")

HARNESS = r"""
#include "_kernels.c"

static long counter;

static void *bump(void *arg) { counter++; return arg; }   /* a race */

int
main(int argc, char **argv)
{
    pthread_t a, b;
    FILE *script;
    int rc;

    if (strcmp(argv[1], "--control") == 0) {
        pthread_create(&a, NULL, bump, NULL);
        pthread_create(&b, NULL, bump, NULL);
        pthread_join(a, NULL);
        pthread_join(b, NULL);
        return 0;
    }
    PyImport_AppendInittab("_kernels", PyInit__kernels);
    Py_Initialize();
    script = fopen(argv[1], "r");
    rc = PyRun_SimpleFile(script, argv[1]);
    fclose(script);
    return Py_FinalizeEx() < 0 ? 3 : rc;
}
"""

# Runs inside the harness: the thread-count test's table and calls,
# with repro's kernel module swapped for the instrumented one.
DRIVE = """
import sys
sys.path[:0] = [{src!r}, {tests!r}]
import _kernels
from repro.core import kernels
kernels._lib = _kernels
import test_kernel_threads as t

for n, block in [(500, 7), (3 * 16384 + 13, 16384)]:
    kernels.BLOCK_ROWS = block
    routes, x, bins = t.case(n, block)
    _kernels._force_threads(1)
    want = t.every_output(routes, x, n, bins, block)
    for threads in (2, 3, 7):
        _kernels._force_threads(threads)
        if t.every_output(routes, x, n, bins, block) != want:
            raise SystemExit(f"T = {{threads}}: the bytes differ from T = 1")
print("bytes equal at T = 1, 2, 3, 7")
"""


def runtime(name):
    """The path of one of gcc's sanitizer runtimes, or skip."""
    path = subprocess.run(["gcc", f"-print-file-name={name}"],
                          capture_output=True, text=True).stdout.strip()
    if not os.path.isabs(path):
        pytest.skip(f"gcc ships no {name}")
    return path


def clean_env(**extra):
    drop = ("LD_PRELOAD", "ASAN_OPTIONS", "TSAN_OPTIONS")
    return {**{k: v for k, v in os.environ.items() if k not in drop},
            **extra}


def test_threaded_walk_is_race_free_under_tsan(tmp_path):
    runtime("libtsan.so")
    from repro.core import kernels
    if any(flag.startswith("-fsanitize") for flag in kernels.CFLAGS):
        # The harness loads the package's own build too, and one
        # process cannot hold two sanitizer runtimes.
        pytest.skip("the kernels are built under another sanitizer")
    libdir = sysconfig.get_config_var("LIBDIR")
    version = sysconfig.get_config_var("LDVERSION")
    (tmp_path / "harness.c").write_text(HARNESS)
    (tmp_path / "drive.py").write_text(DRIVE.format(
        src=str(ROOT / "src"), tests=str(ROOT / "tests")))
    binary = tmp_path / "harness"
    subprocess.run(
        ["gcc", "-fsanitize=thread", "-g", "-O1", "-pthread",
         "-ffp-contract=off", f"-I{CORE}",
         "-I" + sysconfig.get_paths()["include"], str(tmp_path / "harness.c"),
         "-o", str(binary), f"-L{libdir}", f"-lpython{version}",
         f"-Wl,-rpath,{libdir}", "-lm"],
        check=True, capture_output=True, text=True)
    env = clean_env(PYTHONHOME=sys.base_prefix,
                    TSAN_OPTIONS="halt_on_error=0")
    # TSan's shadow memory needs the fixed layout some kernels' address
    # randomization breaks; setarch -R turns it off for the child only.
    prefix = (["setarch", platform.machine(), "-R"]
              if shutil.which("setarch") else [])
    control = subprocess.run([*prefix, str(binary), "--control"], env=env,
                             capture_output=True, text=True, timeout=120)
    assert "ThreadSanitizer: data race" in control.stderr
    run = subprocess.run([*prefix, str(binary), str(tmp_path / "drive.py")],
                         env=env, capture_output=True, text=True,
                         timeout=300)
    assert "ThreadSanitizer" not in run.stderr, run.stderr
    assert run.returncode == 0, run.stdout + run.stderr
    assert "bytes equal at T = 1, 2, 3, 7" in run.stdout


def run_kernel_tests(tmp_path, flags, env):
    """Run :data:`KERNEL_TESTS` on a copy of ``src/repro`` whose
    ``kernels.CFLAGS`` end in ``flags``; return the library it built."""
    src = tmp_path / "src"
    shutil.copytree(ROOT / "src" / "repro", src / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    kernels_py = src / "repro" / "core" / "kernels.py"
    text = kernels_py.read_text()
    cflags = '"-fPIC", "-pthread"'
    assert text.count(cflags) == 1
    kernels_py.write_text(text.replace(
        cflags, cflags + "".join(f', "{flag}"' for flag in flags)))
    tests = tmp_path / "tests"
    tests.mkdir()
    for name in ("conftest.py",) + KERNEL_TESTS:
        shutil.copy(ROOT / "tests" / name, tests / name)
    (tmp_path / "pytest.ini").write_text(
        "[pytest]\npythonpath = src\nmarkers =\n    slow: slow\n")
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "tests"], cwd=tmp_path, capture_output=True, text=True,
        timeout=900, env=env)
    assert run.returncode == 0, run.stdout[-4000:] + run.stderr[-4000:]
    built, = (src / "repro" / "core" / "__pycache__").glob("_kernels.*")
    return built


def test_kernel_tests_pass_under_asan_and_ubsan(tmp_path):
    preload = " ".join(runtime(name)
                       for name in ("libasan.so", "libubsan.so"))
    built = run_kernel_tests(
        tmp_path, SANITIZE,
        clean_env(LD_PRELOAD=preload, ASAN_OPTIONS="detect_leaks=0"))
    symbols = subprocess.run(["nm", "-D", str(built)], capture_output=True,
                             text=True).stdout
    assert "__asan_" in symbols and "__ubsan_" in symbols


def test_kernel_tests_pass_on_the_generic_lane_helpers(tmp_path):
    """``-U__SSE2__`` builds the lane helpers' vector-extension spelling
    instead of their SSE2 intrinsics; the same bits must come out.  The
    environment passes through: under a sanitizer build its runtimes
    are already preloaded."""
    run_kernel_tests(tmp_path, ("-U__SSE2__",), dict(os.environ))
