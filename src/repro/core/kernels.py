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
``tests/test_csr_kernels.py`` against scalar references.  Every
FlowTable (the ECMP mice's too) runs these same functions, which is
what makes their results bitwise comparable.

**Threads.**  A call over more than one chunk releases the GIL and
walks the chunks on as many threads as the process's CPU affinity mask
holds (capped at the chunk count): chunk k on thread k mod T, each
chunk scattering into its own partial, the partials combined in chunk
order on the calling thread.  So the bits do not depend on the thread
count, a table of one chunk runs on the calling thread, and a process
pinned to one CPU runs every call there.  No thread outlives a call.
There is no setting for the count; ``tests/test_kernel_threads.py``
forces it through the extension's private ``_force_threads``.  With the
GIL released, two Python threads that hand one output array to
concurrent calls race on it; no caller in this package does.

**Build.**  The first import compiles the source with :data:`CFLAGS`
(no fast-math and no contraction: either would move bits) into
``__pycache__/`` beside it, keyed by the sha256 of the source and the
flags; the library is written under a temporary name and renamed into
place, so processes importing at once never load a partial file.
There is no numpy fallback: without a compiler the import fails with
an ``ImportError`` saying so.

**The allocator's two passes.**  One ``FlowtuneAllocator.iterate``
(NED + F-NORM) is two compiled loops over the :func:`chunk_spans`
grid, with the per-flow arithmetic inside them, so every per-flow
temporary is one chunk long and only the raw rates, the normalized
rates and the update mask span the table:

1. :func:`log_rate_pass` — NED's price step for the log utility: each
   chunk's price sums, clamped at the flows' caps and at
   ``MIN_PRICE_SUM``, the rates ``w / rho`` and derivatives
   ``-(w / (rho * rho))``, and their pair scatter;
2. :func:`f_norm_pass` — F-NORM: each chunk's worst link ratio,
   clamped, divided into the normalized rates, and (optionally) the
   §6.4 mask of :func:`threshold_mask` on the chunk just written.

Each per-flow expression is the numpy ufunc it replaced (the C
header lists them), and the folds and scatters are the whole-table
kernels' own chunk loops, so the passes equal the kernels and the
ufuncs called one after another, bit for bit
(``tests/test_csr_kernels.py`` checks them against that numpy spelling
on hostile values; the churn program of ``tests/test_golden_kernels.py``
against constants).  Another utility runs the same steps as
``price_sums``, its own ``rate`` / ``rate_derivative`` and
:func:`link_totals2`.
"""

from __future__ import annotations

import hashlib
import importlib.machinery
import importlib.util
import os
from pathlib import Path
from types import ModuleType

import numpy as np
import numpy.typing as npt

from .utility import MIN_PRICE_SUM

__all__ = [
    "BLOCK_ROWS", "chunk_spans", "describe", "price_sums",
    "max_link_value", "link_totals", "link_totals2", "min_link_value",
    "log_rate_pass", "f_norm_pass", "threshold_mask",
]

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]
BoolArray = npt.NDArray[np.bool_]

#: Canonical reduction chunk size (flows).  Part of the bitwise
#: contract: results at n > BLOCK_ROWS depend on it at the 1-ulp
#: level, so every process of one run must use the same value.  Read
#: at every call, so tests can monkeypatch it small to exercise
#: multi-chunk reductions on tiny tables.
BLOCK_ROWS = 16384

#: The compiler flags of the kernel library.  ``-ffp-contract=off``
#: keeps ``a * b + c`` from fusing; nothing here lets the compiler
#: reassociate a sum.  ``-pthread``: the chunk walks run on threads.
CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC", "-pthread")

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
    """The canonical chunk grid for ``n`` flows: ``[(r0, r1), ...]``.

    Reach: invariant — the C loops walk this grid; tests check with it
    that their tables span several chunks and a tail."""
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


def log_rate_pass(padded: FloatArray, routes: IntArray, n: int,
                  caps: FloatArray | None, weights: FloatArray,
                  rates: FloatArray) -> tuple[FloatArray, FloatArray]:
    """NED's pass for the log utility (the allocator's pass 1).

    Per chunk: the price sums of ``padded`` (what :func:`price_sums`
    returns), clamped at ``caps`` (unless ``None``) and at
    :data:`~repro.core.utility.MIN_PRICE_SUM`; the rates ``w / rho``
    into ``rates`` and the derivatives ``-(w / (rho * rho))``; their
    pair scatter.  Returns the link totals of the rates and of the
    derivatives (``len(padded)`` bins), bitwise equal to
    :func:`link_totals2` over the finished vectors.
    """
    if n == 0:
        return np.zeros(len(padded)), np.zeros(len(padded))
    load, hessian = np.empty(len(padded)), np.empty(len(padded))
    _lib.ned_log_pass(padded, routes, n, BLOCK_ROWS, caps, weights,
                      MIN_PRICE_SUM, rates, load, hessian)
    return load, hessian


def f_norm_pass(padded: FloatArray, routes: IntArray, n: int,
                rates: FloatArray, epsilon: float, allow_scale_up: bool,
                mask: tuple[FloatArray, BoolArray, float, BoolArray]
                | None = None) -> FloatArray:
    """F-NORM's pass (the allocator's pass 2), into a fresh array.

    Per chunk: each flow's worst entry of ``padded`` (the per-link
    ratios, pad ``-inf``: what :func:`max_link_value` returns), clamped
    at ``epsilon`` and, unless ``allow_scale_up``, at 1.0, divided into
    ``rates``.  ``mask = (last, pending, threshold, changed)`` runs
    :func:`threshold_mask` on each chunk as it is normalized.
    """
    out = np.empty(n)
    last, pending, threshold, changed = (
        mask if mask is not None else (None, None, 0.0, None))
    _lib.f_norm_pass(padded, routes, n, BLOCK_ROWS, rates, epsilon,
                     allow_scale_up, out, last, pending, threshold, changed)
    return out


def threshold_mask(rates: FloatArray, last: FloatArray, pending: BoolArray,
                   threshold: float, changed: BoolArray) -> BoolArray:
    """The §6.4 filter into ``changed``: ``(|r - s| > t*s) | isnan(s) |
    pending``; the flagged rows of ``last`` take their rates and every
    ``pending`` flag clears, in place."""
    _lib.threshold_mask(rates, last, pending, threshold, changed)
    return changed
