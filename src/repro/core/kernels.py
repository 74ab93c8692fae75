"""The route gather/scatter kernels, as one canonical chunked reduction.

The allocator hot loop bottoms out in four kernels over the flow
table's route storage (`price_sums`, `link_totals`, `link_totals2`,
`max_link_value`) plus the churn-apply bottleneck gather
(`min_link_value`).  They are plain functions over caller-owned
arrays: ``indices`` is the row-major flattening of a padded route
matrix, ``width`` slots per row (``FlowTable._routes.reshape(-1)``),
and ``padded`` carries the pad-link entry last.  They hold no scratch: each
chunk's gather is a fresh, bounds-checked ``take`` (an out-of-range
slot raises ``IndexError``), because numpy buffers a ``take`` into
``out=`` under the default ``mode="raise"`` and that costs more than
the chunk-sized allocation it saves.

**Bitwise contract.**  Float addition is not associative, so the
reduction order is fixed here and nowhere else:

* rows are cut into :data:`BLOCK_ROWS`-aligned chunks whose boundaries
  depend only on ``n``;
* within a chunk, accumulation is strict row-major/hop order
  (``bincount`` element order for scatters, left-to-right column
  folds for per-row reductions);
* scatter partials are combined in ascending chunk order.

For ``n <= BLOCK_ROWS`` this is the single ``bincount``/column pass;
above it the chunking keeps each gather block cache-resident (measured
~25 % faster than one pass at 100k flows).  Every caller — the
FlowTable (which also holds the ECMP mice) and the process-backend
workers, reading the same shared route storage — runs these same
functions, which is what makes their results bitwise comparable.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

__all__ = [
    "BLOCK_ROWS", "chunk_spans", "describe", "price_sums",
    "max_link_value", "link_totals", "link_totals2", "min_link_value",
]

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]

#: Canonical reduction chunk size (rows).  Part of the bitwise
#: contract: results at n > BLOCK_ROWS depend on it at the 1-ulp
#: level, so every process of one run must use the same value.  Read
#: dynamically by :func:`chunk_spans`, so tests can monkeypatch it
#: small to exercise multi-chunk reductions on tiny tables.
BLOCK_ROWS = 16384


def describe() -> str:
    """Implementation tag recorded in benchmark environment blocks."""
    return "numpy"


def chunk_spans(n: int) -> list[tuple[int, int]]:
    """The canonical chunk grid for ``n`` rows: ``[(r0, r1), ...]``."""
    block = BLOCK_ROWS
    return [(r0, min(n, r0 + block)) for r0 in range(0, n, block)]


# ----------------------------------------------------------------------
# per-row reductions
# ----------------------------------------------------------------------

def _fold_rows(fold: np.ufunc, padded: FloatArray, indices: IntArray,
               n: int, width: int, out: FloatArray) -> FloatArray:
    """out[r] = left-to-right ``fold`` of padded[indices] over row r.

    Each chunk gathers its ``(rows, width)`` block and folds it
    column-wise: the fold starts from hop 0's value and applies hops
    in order, so a sum is bit-identical to the sequential per-route
    sum (prices are non-negative, so the missing 0.0 seed cannot flip
    a ``-0.0``).
    """
    for r0, r1 in chunk_spans(n):
        mat = padded.take(indices[r0 * width: r1 * width]).reshape(
            r1 - r0, width)
        dst = out[r0:r1]
        acc = mat[:, 0]
        if width == 1:
            dst[:] = acc
        for hop in range(1, width):
            acc = fold(acc, mat[:, hop], out=dst)
    return out


def price_sums(padded: FloatArray, indices: IntArray, n: int,
               width: int) -> FloatArray:
    """Per-row sums of padded[indices] (pad slots gather 0.0)."""
    return _fold_rows(np.add, padded, indices, n, width, np.empty(n))


def max_link_value(padded: FloatArray, indices: IntArray, n: int,
                   width: int, out: FloatArray) -> FloatArray:
    """Per-row max of padded[indices] into ``out`` (pad slots -inf)."""
    return _fold_rows(np.maximum, padded, indices, n, width, out)


def min_link_value(padded: FloatArray, rows_mat: IntArray,
                   out: FloatArray) -> FloatArray:
    """Per-row min of padded[rows_mat] into ``out`` (pad slots +inf).

    The churn-apply bottleneck gather: ``rows_mat`` is a row slice of
    the padded route matrix.
    """
    n, width = rows_mat.shape
    return _fold_rows(np.minimum, padded, rows_mat.reshape(-1), n,
                      width, out)


# ----------------------------------------------------------------------
# link scatters (``n >= 1``; callers short-circuit the empty table)
# ----------------------------------------------------------------------

def _scatter_chunk(values: FloatArray, indices: IntArray,
                   r0: int, r1: int, width: int,
                   minlength: int) -> FloatArray:
    """Partial link scatter of rows ``[r0, r1)`` (fresh array).

    The per-flow value is repeated once per slot and scattered by one
    ``bincount`` — element order is row-major/hop order, so the
    partial is bit-identical to a single whole-table bincount
    restricted to these rows.
    """
    return np.asarray(np.bincount(indices[r0 * width: r1 * width],
                                  weights=np.repeat(values[r0:r1], width),
                                  minlength=minlength), dtype=np.float64)


def _fold_parts(parts: list[FloatArray]) -> FloatArray:
    """Sum per-chunk partials in ascending chunk order (canonical)."""
    total = parts[0]
    for part in parts[1:]:
        total += part
    return total


def link_totals(values: FloatArray, indices: IntArray, n: int,
                width: int, minlength: int) -> FloatArray:
    """``out[l]`` = sum of ``values[r]`` over the slots of row r that
    name link l (``minlength`` bins, the pad link's last)."""
    return _fold_parts([
        _scatter_chunk(values, indices, r0, r1, width, minlength)
        for r0, r1 in chunk_spans(n)])


def link_totals2(a: FloatArray, b: FloatArray, indices: IntArray,
                 n: int, width: int, minlength: int,
                 ) -> tuple[FloatArray, FloatArray]:
    """Fused pair of :func:`link_totals`: both scatters run per chunk,
    while its index slice is cache-resident.  Bitwise equal to two
    separate calls."""
    parts = [(_scatter_chunk(a, indices, r0, r1, width, minlength),
              _scatter_chunk(b, indices, r0, r1, width, minlength))
             for r0, r1 in chunk_spans(n)]
    return (_fold_parts([part_a for part_a, _ in parts]),
            _fold_parts([part_b for _, part_b in parts]))
