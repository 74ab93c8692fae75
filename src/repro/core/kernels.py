"""The route gather/scatter kernels, as compiled chunk → column → flow loops.

The allocator hot loop bottoms out in four kernels over the flow
table's route storage (`price_sums`, `link_totals`, `link_totals2`,
`max_link_value`) plus the churn-apply bottleneck gather
(`min_link_value`).  They are plain functions over caller-owned
arrays: ``routes`` is the **hop-major** route storage
(``FlowTable._routes``), a ``(width, capacity)`` int64 array whose row
``h`` is hop column ``h`` over the flows, of which the first ``n``
entries are live; ``padded`` carries the pad-link entry last.  Float
vectors are contiguous float64.

Their loops are C (``_kernels.c``, beside this file), which holds the
**bitwise contract** in its header comment: flows are cut into
:data:`BLOCK_ROWS`-aligned chunks; within a chunk a scatter keeps one
running sum per link from 0.0 through hop column 0's flows in order,
then column 1's, and so on, and a per-flow fold runs left to right
over the columns; chunk partials are added in chunk order.  Every slot
is bounds-checked, so a bad one raises ``IndexError``.  The loops
replaced numpy's ``bincount``, ``np.add.at`` and ufunc calls, whose
order numpy does not document; ``tests/test_golden_kernels.py`` checks
them against constants recorded on the numpy path, and
``tests/test_csr_kernels.py`` against scalar references.  Every caller
— the FlowTable (which also holds the ECMP mice) and the
process-backend workers, reading the same shared route storage — runs
these same functions, which is what makes their results bitwise
comparable.

**Build.**  The first import compiles the source with :data:`CFLAGS`
(no fast-math and no contraction: either would move bits) into
``__pycache__/`` beside it, keyed by the sha256 of the source and the
flags; the library is written under a temporary name and renamed into
place, so processes importing at once never load a partial file.
There is no numpy fallback: without a compiler the import fails with
an ``ImportError`` saying so.

**The allocator's two passes.**  One ``FlowtuneAllocator.iterate``
(NED + F-NORM) is two loops over :func:`chunk_spans`, each with one
callback per chunk, so every per-flow temporary is one chunk long and
only the raw rates, the normalized rates and the update mask span the
table:

1. :func:`rate_pass` — NED's price step: each chunk's price sums, the
   caller's capped rates and rate derivatives, and their pair scatter;
2. :func:`max_pass` — F-NORM: each chunk's worst link ratio, which the
   caller clamps, divides into the normalized rates and runs the §6.4
   mask on.

Both call the same C loops as the whole-table kernels, one chunk per
call, so the passes equal the kernels called one after another, bit
for bit (``tests/test_csr_kernels.py``, and the churn program of
``tests/test_golden_kernels.py``).
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
from collections.abc import Callable
from pathlib import Path
from types import ModuleType

import numpy as np
import numpy.typing as npt

__all__ = [
    "BLOCK_ROWS", "chunk_spans", "describe", "price_sums",
    "max_link_value", "link_totals", "link_totals2", "min_link_value",
    "rate_pass", "max_pass",
]

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]

#: Canonical reduction chunk size (flows).  Part of the bitwise
#: contract: results at n > BLOCK_ROWS depend on it at the 1-ulp
#: level, so every process of one run must use the same value.  Read
#: at every call, so tests can monkeypatch it small to exercise
#: multi-chunk reductions on tiny tables.
BLOCK_ROWS = 16384

#: The compiler flags of the kernel library.  ``-ffp-contract=off``
#: keeps ``a * b + c`` from fusing; nothing here lets the compiler
#: reassociate a sum.
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")

_SOURCE = Path(__file__).with_name("_kernels.c")
_SUM, _MAX, _MIN = 0, 1, 2


def build_command(source: os.PathLike[str] | str,
                  target: os.PathLike[str] | str) -> list[str]:
    """The compiler invocation that builds ``source`` into ``target``."""
    import sysconfig

    return ["gcc", *CFLAGS, "-I" + sysconfig.get_paths()["include"],
            os.fspath(source), "-o", os.fspath(target)]


def _build(target: Path) -> None:
    """Compile the kernel source into ``target``, atomically."""
    import subprocess

    target.parent.mkdir(exist_ok=True)
    partial = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    try:
        subprocess.run(build_command(_SOURCE, partial), check=True,
                       capture_output=True, text=True)
        os.replace(partial, target)
    except FileNotFoundError as exc:
        raise ImportError(
            "repro.core.kernels compiles its C loops at first import and "
            f"needs gcc on PATH: {exc}") from exc
    except subprocess.CalledProcessError as exc:
        raise ImportError(
            f"repro.core.kernels: compiling {_SOURCE.name} failed:\n"
            f"{exc.stderr}") from exc
    finally:
        partial.unlink(missing_ok=True)


def _load() -> ModuleType:
    """The compiled kernel module, built into the cache if missing."""
    key = hashlib.sha256(_SOURCE.read_bytes()
                         + " ".join(CFLAGS).encode()).hexdigest()[:16]
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    target = _SOURCE.parent / "__pycache__" / f"_kernels.{key}{suffix}"
    if not target.exists():
        _build(target)
    spec = importlib.util.spec_from_file_location("_kernels", target)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_lib = _load()


def describe() -> str:
    """Implementation tag recorded in benchmark environment blocks."""
    return "c"


def chunk_spans(n: int) -> list[tuple[int, int]]:
    """The canonical chunk grid for ``n`` flows: ``[(r0, r1), ...]``."""
    block = BLOCK_ROWS
    return [(r0, min(n, r0 + block)) for r0 in range(0, n, block)]


# ----------------------------------------------------------------------
# per-flow reductions
# ----------------------------------------------------------------------

def price_sums(padded: FloatArray, routes: IntArray, n: int) -> FloatArray:
    """Per-flow sums of padded[routes] (pad slots gather 0.0)."""
    out = np.empty(n)
    _lib.fold(_SUM, padded, routes, 0, n, BLOCK_ROWS, out)
    return out


def max_link_value(padded: FloatArray, routes: IntArray, n: int,
                   out: FloatArray) -> FloatArray:
    """Per-flow max of padded[routes] into ``out`` (pad slots -inf)."""
    _lib.fold(_MAX, padded, routes, 0, n, BLOCK_ROWS, out)
    return out


def min_link_value(padded: FloatArray, routes: IntArray, n: int,
                   out: FloatArray) -> FloatArray:
    """Per-flow min of padded[routes] into ``out`` (pad slots +inf).

    The churn-apply bottleneck gather: ``routes`` may be a column
    slice of the storage (the flows just inserted).
    """
    _lib.fold(_MIN, padded, routes, 0, n, BLOCK_ROWS, out)
    return out


def max_pass(padded: FloatArray, routes: IntArray, n: int,
             per_chunk: Callable[[int, int, FloatArray], None]) -> None:
    """F-NORM's chunk loop (the allocator's pass 2).

    For each chunk in order, folds the max of padded[routes] into a
    fresh chunk-sized array (the values :func:`max_link_value` writes)
    and hands it to ``per_chunk(r0, r1, worst)``, which may modify it
    in place.
    """
    block = BLOCK_ROWS
    for r0, r1 in chunk_spans(n):
        worst = np.empty(r1 - r0)
        _lib.fold(_MAX, padded, routes, r0, r1, block, worst)
        per_chunk(r0, r1, worst)


# ----------------------------------------------------------------------
# link scatters
# ----------------------------------------------------------------------

def link_totals(values: FloatArray, routes: IntArray, n: int,
                minlength: int) -> FloatArray:
    """``out[l]`` = sum of ``values[r]`` over the hop slots of flow r
    that name link l (``minlength`` bins, the pad link's last)."""
    out = np.zeros(minlength)
    _lib.scatter(values, None, routes, 0, n, BLOCK_ROWS, out, None)
    return out


def link_totals2(a: FloatArray, b: FloatArray, routes: IntArray, n: int,
                 minlength: int) -> tuple[FloatArray, FloatArray]:
    """Fused pair of :func:`link_totals`, bitwise equal to two calls:
    each slot is read once for both sums."""
    out_a, out_b = np.zeros(minlength), np.zeros(minlength)
    _lib.scatter(a, b, routes, 0, n, BLOCK_ROWS, out_a, out_b)
    return out_a, out_b


def rate_pass(padded: FloatArray, routes: IntArray, n: int, minlength: int,
              rates: FloatArray,
              per_flow: Callable[[int, int, FloatArray, FloatArray,
                                  FloatArray], None],
              ) -> tuple[FloatArray, FloatArray]:
    """NED's chunk loop (the allocator's pass 1): price sums, rates and
    rate derivatives, and their link totals, one chunk at a time.

    For each chunk, folds the sum of padded[routes] (the values
    :func:`price_sums` returns) into a fresh chunk-sized ``rho``; then
    ``per_flow(r0, r1, rho, rate_out, deriv_out)`` writes the chunk's
    rates into ``rates[r0:r1]`` and its derivatives into ``deriv_out``.
    Returns the link totals of the rates and of the derivatives,
    bitwise equal to :func:`link_totals2` over the finished vectors.
    """
    load, hessian = np.zeros(minlength), np.zeros(minlength)
    block = BLOCK_ROWS
    for r0, r1 in chunk_spans(n):
        rho, deriv = np.empty(r1 - r0), np.empty(r1 - r0)
        _lib.fold(_SUM, padded, routes, r0, r1, block, rho)
        rate = rates[r0:r1]
        per_flow(r0, r1, rho, rate, deriv)
        _lib.scatter(rate, deriv, routes, r0, r1, block, load, hessian)
    return load, hessian
