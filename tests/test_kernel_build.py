"""Build hygiene of the compiled route kernels.

``repro.core.kernels`` compiles ``_kernels.c`` at first import into
``__pycache__/`` beside it.  These tests run on copies of the package
in a temp dir, so each starts from an empty cache: concurrent cold
imports, the compiler flags, a numpy upgrade, and the error without a
compiler.

The module imports nothing from ``repro`` at top level: the spawned
children import it by name and must load the *copy*, not the checkout.
"""

import multiprocessing
import os
import shutil
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"
N_PROCS = 4


def copy_package(tmp_path):
    """A copy of ``src/repro`` with no compiled cache; returns its root."""
    root = tmp_path / "src"
    shutil.copytree(SRC / "repro", root / "repro",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return root


def import_copy(root, barrier, results):
    """Child: import the copy's kernels at the barrier and use them."""
    sys.path.insert(0, str(root))
    import numpy as np
    barrier.wait()
    from repro.core import kernels
    routes = np.array([[0, 1, 2], [2, 0, 1]], dtype=np.int64)
    sums = kernels.price_sums(np.array([1.0, 2.0, 4.0]), routes, 3)
    results.put((kernels.__file__, kernels._lib.__file__, sums.tolist()))


def test_concurrent_cold_imports_share_one_library(tmp_path):
    root = copy_package(tmp_path)
    ctx = multiprocessing.get_context("spawn")
    barrier, results = ctx.Barrier(N_PROCS), ctx.Queue()
    procs = [ctx.Process(target=import_copy, args=(root, barrier, results))
             for _ in range(N_PROCS)]
    for proc in procs:
        proc.start()
    got = [results.get(timeout=120) for _ in procs]
    for proc in procs:
        proc.join(timeout=30)
        assert proc.exitcode == 0
    cache = root / "repro" / "core" / "__pycache__"
    libraries = sorted(path.name for path in cache.iterdir()
                       if path.name.startswith("_kernels"))
    assert len(libraries) == 1, libraries   # no temp file left behind
    for module_file, library, sums in got:
        assert Path(module_file).is_relative_to(root)
        assert Path(library) == cache / libraries[0]
        assert sums == [5.0, 3.0, 6.0]


def test_build_flags_keep_the_float_order():
    """No contraction, no reassociation: either would move bits."""
    from repro.core import kernels

    command = kernels.build_command("k.c", "k.so")
    joined = " ".join(command)
    assert "-O2 -ffp-contract=off" in joined
    for banned in ("-ffast-math", "-Ofast", "-march=native",
                   "-funsafe-math-optimizations"):
        assert banned not in command
    assert command[-3:] == ["k.c", "-o", "k.so"]


def test_the_build_compiles_against_this_numpy():
    import numpy as np

    from repro.core import kernels

    command = kernels.build_command("k.c", "k.so")
    assert "-I" + np.get_include() in command


def test_a_numpy_upgrade_builds_a_new_library(tmp_path, monkeypatch):
    """The cache key hashes numpy's version and include directory: a
    library built against one numpy is not loaded under another."""
    root = copy_package(tmp_path)

    def library(version):
        stamp = f"numpy.__version__ = {version!r}; " if version else ""
        done = subprocess.run(
            [sys.executable, "-c",
             f"import sys; sys.path.insert(0, {str(root)!r}); import numpy; "
             f"{stamp}from repro.core import kernels; "
             "print(kernels._lib.__file__)"],
            capture_output=True, text=True, timeout=120, check=True)
        return done.stdout.strip()

    first = library(None)
    assert library(None) == first
    upgraded = library("99.0.0")
    assert upgraded != first
    assert Path(first).exists() and Path(upgraded).exists()

    import numpy as np

    from repro.core import kernels

    key = kernels.cache_key()
    monkeypatch.setattr(np, "get_include", lambda: "/another/numpy/include")
    assert kernels.cache_key() != key


def test_missing_compiler_is_an_import_error(tmp_path):
    root = copy_package(tmp_path)
    env = {**os.environ, "PATH": str(tmp_path / "empty")}
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {str(root)!r}); "
         "import repro.core.kernels"],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "ImportError" in done.stderr and "needs gcc" in done.stderr
    cache = root / "repro" / "core" / "__pycache__"
    assert not any(path.name.startswith("_kernels")
                   for path in cache.glob("*"))


def test_compile_error_is_an_import_error(tmp_path):
    root = copy_package(tmp_path)
    (root / "repro" / "core" / "_kernels.c").write_text("int x = ;\n")
    done = subprocess.run(
        [sys.executable, "-c",
         f"import sys; sys.path.insert(0, {str(root)!r}); "
         "import repro.core.kernels"],
        capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert "ImportError" in done.stderr and "failed" in done.stderr


#: The packed instructions each lane loop must hold (``_kernels.c``'s
#: 2-lane helpers), by function.  fold_chunk's is the max fold's.
PACKED = {"ned_log_walk": ("divpd", "maxpd", "cmpunordpd"),
          "f_norm_walk": ("divpd", "maxpd"),
          "mask_rows": ("cmpunordpd", "movmskpd"),
          "fold_chunk": ("maxpd", "cmpunordpd")}


def disassembly(library):
    """``{function: [(address, mnemonic, operands)]}`` of a library."""
    import re

    out = subprocess.run(["objdump", "-d", "--no-show-raw-insn",
                          str(library)], check=True, capture_output=True,
                         text=True).stdout
    functions, body = {}, None
    for line in out.splitlines():
        head = re.match(r"[0-9a-f]+ <([^>]+)>:$", line)
        if head:
            body = functions.setdefault(head.group(1), [])
            continue
        insn = re.match(r"\s+([0-9a-f]+):\s+(\S+)\s*(.*)", line)
        if insn and body is not None:
            body.append((int(insn.group(1), 16), insn.group(2),
                         insn.group(3)))
    return functions


def innermost_loop(body, mnemonic):
    """The instructions of the smallest loop (a backward jump's range)
    that holds ``mnemonic``, or None."""
    import re

    best = None
    for address, op, operands in body:
        target = re.match(r"([0-9a-f]+) <", operands)
        if not op.startswith("j") or not target:
            continue
        start = int(target.group(1), 16)
        if start >= address:
            continue
        loop = [i for i in body if start <= i[0] <= address]
        if any(i[1] == mnemonic for i in loop) and (
                best is None or len(loop) < len(best)):
            best = loop
    return best


def test_lane_loops_stay_packed():
    """The per-flow loops of NED's and F-NORM's passes, the mask and
    the max fold hold packed SSE2 instructions and no cmov: gcc
    rewrites a select it can see through into one cmove per lane,
    which reads slower than the scalar loop did."""
    import platform
    import shutil as sh

    import pytest

    from repro.core import kernels

    if sh.which("objdump") is None:
        pytest.skip("no objdump")
    if platform.machine() not in ("x86_64", "AMD64"):
        pytest.skip("the lane helpers are SSE2 intrinsics on x86-64 only")
    if any(flag.startswith("-fsanitize") for flag in kernels.CFLAGS):
        pytest.skip("a sanitizer build instruments the loops")
    functions = disassembly(kernels._lib.__file__)
    for name, packed in PACKED.items():
        assert name in functions, name
        for mnemonic in packed:
            loop = innermost_loop(functions[name], mnemonic)
            assert loop is not None, (name, mnemonic)
            cmovs = [i for i in loop if i[1].startswith("cmov")]
            assert not cmovs, (name, mnemonic, cmovs)
