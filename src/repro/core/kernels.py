"""The route gather/scatter kernels, as one canonical chunked reduction.

The allocator hot loop bottoms out in four kernels over the flow
table's route storage (`price_sums`, `link_totals`, `link_totals2`,
`max_link_value`) plus the churn-apply bottleneck gather
(`min_link_value`).  They are plain functions over caller-owned
arrays: ``routes`` is the **hop-major** route storage
(``FlowTable._routes``), a ``(width, capacity)`` array whose row ``h``
is hop column ``h`` over the flows, contiguous, of which the first
``n`` entries are live; ``padded`` carries the pad-link entry last.
They hold no scratch: each chunk's gather is a fresh, bounds-checked
``take`` per column (an out-of-range slot raises ``IndexError``),
because numpy buffers a ``take`` into ``out=`` under the default
``mode="raise"`` and that costs more than the chunk-sized allocation
it saves.

**Bitwise contract.**  Float addition is not associative, so the
reduction order is fixed here and nowhere else:

* flows are cut into :data:`BLOCK_ROWS`-aligned chunks whose boundaries
  depend only on ``n``;
* within a chunk, a scatter keeps one running sum per link, from 0.0,
  and adds hop column 0's entries in flow order, then column 1's, and
  so on; a per-flow reduction folds the gathered columns left to
  right;
* scatter partials are combined in ascending chunk order.

The order is chunk → column → flow.  It equals the flow-major order
(chunk → flow → hop) that a single ``bincount`` over a flow-major
route matrix uses whenever every link occupies one storage column: a
link's entries in a chunk then all sit in that column, and its running
sum meets them in flow order either way (no route names a link
twice).  :class:`~repro.core.network.FlowTable` stores routes
middle-aligned (first half left, second half right-aligned), which
puts every link of the shipped up/down fabrics (two-tier and
three-tier Clos) in one column, so those tables reduce exactly as the
flow-major layout did.  The per-flow folds equal the flow-major ones
for any route: the pad slots gather the fold's identity (``0.0`` for
sums of non-negative prices, ``∓inf`` for max/min), so moving them
between hops cannot change a bit.

The scatter order rests on three numpy loops adding their entries one
at a time in index order, from 0.0: ``bincount`` (as in every earlier
layout) and, for chunks above :data:`SMALL_CHUNK`, ``np.add.at`` on
float64 (:func:`link_totals`) and on complex128 (:func:`link_totals2`'s
packed pair, whose adds are component-wise: two independent float64
adds per entry, so each part rounds as its own float scatter would).
None of these orders is documented numpy API.
``tests/test_csr_kernels.py`` pins every path to a scalar reference on
the installed numpy; ``tests/test_golden_kernels.py`` is the contract's
check against fixed constants: sha256 of every kernel's output, and of
one allocator iteration, on a multi-chunk table, recorded before the
complex path existed.  CI pins numpy (``requirements-ci.txt``).

The chunking keeps each gather block cache-resident.  Every caller — the
FlowTable (which also holds the ECMP mice) and the process-backend
workers, reading the same shared route storage — runs these same
functions, which is what makes their results bitwise comparable.

**The allocator's two passes.**  One ``FlowtuneAllocator.iterate``
(NED + F-NORM) is two loops over :func:`chunk_spans`, each with one
callback per chunk, so every per-flow temporary is one chunk long and
only the raw rates, the normalized rates and the update mask span the
table:

1. :func:`rate_pass` — NED's price step: each chunk's price sums
   (:func:`price_sums`' fold), then the caller's capped rates and rate
   derivatives, written straight into the complex pair that
   :func:`link_totals2`'s scatter packs;
2. :func:`max_pass` — F-NORM: each chunk's worst link ratio
   (:func:`max_link_value`'s fold), which the caller clamps, divides
   into the normalized rates and runs the §6.4 mask on.

Both are built from the same per-chunk helpers (:func:`_fold_chunk`,
:func:`_scatter_chunk`) as the whole-table kernels, in the same chunk →
column → flow order, so the contract above is unchanged and the passes
equal the kernels called one after another, bit for bit
(``tests/test_csr_kernels.py``, and the churn program of
``tests/test_golden_kernels.py``).
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

import numpy as np
import numpy.typing as npt

__all__ = [
    "BLOCK_ROWS", "SMALL_CHUNK", "chunk_spans", "describe", "price_sums",
    "max_link_value", "link_totals", "link_totals2", "min_link_value",
    "rate_pass", "max_pass",
]

FloatArray = npt.NDArray[np.float64]
ComplexArray = npt.NDArray[np.complex128]
IntArray = npt.NDArray[np.int64]

#: Canonical reduction chunk size (flows).  Part of the bitwise
#: contract: results at n > BLOCK_ROWS depend on it at the 1-ulp
#: level, so every process of one run must use the same value.  Read
#: dynamically by :func:`chunk_spans`, so tests can monkeypatch it
#: small to exercise multi-chunk reductions on tiny tables.
BLOCK_ROWS = 16384

#: Chunks of at most this many flows scatter with one call over all
#: their columns (fewer numpy calls win on small tables), bigger ones
#: column by column (no per-slot weight copy).  Both add in the same
#: order, so this is a speed choice that no float depends on.  One
#: float scatter's two forms cross between 2048 and 3072 flows,
#: :func:`link_totals2`'s (the complex pair column by column) between
#: 1024 and 2048; column by column alone costs the 16-cell engine
#: 10-18 % per iteration (``benchmarks/results/scatter-sweep-*.txt``).
SMALL_CHUNK = 2048


def describe() -> str:
    """Implementation tag recorded in benchmark environment blocks."""
    return "numpy"


def chunk_spans(n: int) -> list[tuple[int, int]]:
    """The canonical chunk grid for ``n`` flows: ``[(r0, r1), ...]``."""
    block = BLOCK_ROWS
    return [(r0, min(n, r0 + block)) for r0 in range(0, n, block)]


# ----------------------------------------------------------------------
# per-flow reductions
# ----------------------------------------------------------------------

def _fold_chunk(fold: np.ufunc, padded: FloatArray, index: IntArray,
                dst: FloatArray) -> FloatArray:
    """dst[r] = left-to-right ``fold`` of padded[index[:, r]] for one
    chunk (``index`` its ``(width, m)`` slice of the route storage).

    Gathers one contiguous column at a time and folds it into ``dst``:
    the fold starts from hop column 0's value and applies the columns
    in order (prices are non-negative, so the missing 0.0 seed cannot
    flip a ``-0.0``).
    """
    acc = padded.take(index[0])
    if len(index) == 1:
        dst[:] = acc
    for column in index[1:]:
        acc = fold(acc, padded.take(column), out=dst)
    return dst


def _fold_rows(fold: np.ufunc, padded: FloatArray, routes: IntArray,
               n: int, out: FloatArray) -> FloatArray:
    """out[r] = left-to-right ``fold`` of padded[routes[:, r]]."""
    for r0, r1 in chunk_spans(n):
        _fold_chunk(fold, padded, routes[:, r0:r1], out[r0:r1])
    return out


def price_sums(padded: FloatArray, routes: IntArray, n: int) -> FloatArray:
    """Per-flow sums of padded[routes] (pad slots gather 0.0)."""
    return _fold_rows(np.add, padded, routes, n, np.empty(n))


def max_link_value(padded: FloatArray, routes: IntArray, n: int,
                   out: FloatArray) -> FloatArray:
    """Per-flow max of padded[routes] into ``out`` (pad slots -inf)."""
    return _fold_rows(np.maximum, padded, routes, n, out)


def min_link_value(padded: FloatArray, routes: IntArray, n: int,
                   out: FloatArray) -> FloatArray:
    """Per-flow min of padded[routes] into ``out`` (pad slots +inf).

    The churn-apply bottleneck gather: ``routes`` may be a column
    slice of the storage (the flows just inserted).
    """
    return _fold_rows(np.minimum, padded, routes, n, out)


def max_pass(padded: FloatArray, routes: IntArray, n: int,
             per_chunk: Callable[[int, int, FloatArray], None]) -> None:
    """F-NORM's chunk loop (the allocator's pass 2).

    For each chunk in order, folds the max of padded[routes] into a
    fresh chunk-sized array (the values :func:`max_link_value` writes)
    and hands it to ``per_chunk(r0, r1, worst)``, which may modify it
    in place.
    """
    for r0, r1 in chunk_spans(n):
        per_chunk(r0, r1, _fold_chunk(np.maximum, padded, routes[:, r0:r1],
                                      np.empty(r1 - r0)))


# ----------------------------------------------------------------------
# link scatters (``n >= 1``; callers short-circuit the empty table)
# ----------------------------------------------------------------------

def _scatter_chunk(weights: FloatArray | ComplexArray, index: IntArray,
                   minlength: int) -> npt.NDArray[Any]:
    """Partial link scatter of one chunk (fresh array of ``weights``'s
    dtype): ``index`` is the chunk's ``(width, m)`` slice of the route
    storage, ``weights`` its ``m`` per-flow values.

    Each link's running sum from 0.0 takes hop column 0's entries in
    flow order, then column 1's, and so on.  A float64 chunk of at most
    :data:`SMALL_CHUNK` flows runs that as one ``bincount`` over its
    columns laid end to end; anything bigger as ``np.add.at`` per
    column, weighted by the per-flow values as they are (no per-slot
    copy).  ``bincount`` takes no complex weights, so a complex128
    chunk (:func:`link_totals2`'s packed pair) must be a big one.
    """
    if len(weights) <= SMALL_CHUNK:
        return np.asarray(np.bincount(
            index.ravel(), weights=np.concatenate((weights,) * len(index)),
            minlength=minlength), dtype=np.float64)
    total = np.zeros(minlength, dtype=weights.dtype)
    for column in index:
        # add.at applies its indices in order (see the bitwise
        # contract above), the running sum the one-call path makes.
        # One call over the 2-D index would be the same sum, but it
        # crashes numpy 2.4.6 with 1-D weights broadcast over it.
        np.add.at(total, column, weights)  # flowlint: disable=FL-DET001
    return total


def _fold_parts(parts: list[FloatArray]) -> FloatArray:
    """Sum per-chunk partials in ascending chunk order (canonical)."""
    total = parts[0]
    for part in parts[1:]:
        total += part
    return total


def link_totals(values: FloatArray, routes: IntArray, n: int,
                minlength: int) -> FloatArray:
    """``out[l]`` = sum of ``values[r]`` over the hop slots of flow r
    that name link l (``minlength`` bins, the pad link's last)."""
    return _fold_parts([_scatter_chunk(values[r0:r1], routes[:, r0:r1],
                                       minlength)
                        for r0, r1 in chunk_spans(n)])


def _pair_pass(routes: IntArray, n: int, minlength: int,
               fill: Callable[[int, int, IntArray, FloatArray], FloatArray],
               ) -> tuple[FloatArray, FloatArray]:
    """The pair scatter's chunk loop: link totals of two per-flow
    vectors ``a`` and ``b``, bitwise equal to two :func:`link_totals`.

    Per chunk, ``fill(r0, r1, index, b_out)`` writes the chunk's ``b``
    into ``b_out`` and returns its ``a``.  A chunk above
    :data:`SMALL_CHUNK` hands out the imaginary part of a complex128
    array, packs ``a`` as the real part and scatters that, so each hop
    column is indexed once for both sums; a complex add is two
    independent float adds, so each part's running sum meets the same
    values in the same order as a float scatter of it would.  A smaller
    chunk runs the two one-call ``bincount`` scatters.
    """
    parts_a: list[FloatArray] = []
    parts_b: list[FloatArray] = []
    for r0, r1 in chunk_spans(n):
        index = routes[:, r0:r1]
        if r1 - r0 <= SMALL_CHUNK:
            b = np.empty(r1 - r0)
            a = fill(r0, r1, index, b)
            parts_a.append(_scatter_chunk(a, index, minlength))
            parts_b.append(_scatter_chunk(b, index, minlength))
            continue
        pair = np.empty(r1 - r0, dtype=np.complex128)
        pair.real = fill(r0, r1, index, pair.imag)
        total = _scatter_chunk(pair, index, minlength)
        parts_a.append(total.real.copy())
        parts_b.append(total.imag.copy())
    return _fold_parts(parts_a), _fold_parts(parts_b)


def link_totals2(a: FloatArray, b: FloatArray, routes: IntArray, n: int,
                 minlength: int) -> tuple[FloatArray, FloatArray]:
    """Fused pair of :func:`link_totals`, bitwise equal to two calls
    (one :func:`_pair_pass`)."""
    def fill(r0: int, r1: int, index: IntArray,
             b_out: FloatArray) -> FloatArray:
        b_out[:] = b[r0:r1]
        return a[r0:r1]
    return _pair_pass(routes, n, minlength, fill)


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
    rates into ``rates[r0:r1]`` and its derivatives into ``deriv_out``
    (straight into the pair :func:`link_totals2` would pack).  Returns
    the link totals of the rates and of the derivatives, bitwise equal
    to :func:`link_totals2` over the finished vectors.
    """
    def fill(r0: int, r1: int, index: IntArray,
             deriv: FloatArray) -> FloatArray:
        rho = _fold_chunk(np.add, padded, index, np.empty(r1 - r0))
        rate = rates[r0:r1]
        per_flow(r0, r1, rho, rate, deriv)
        return rate
    return _pair_pass(routes, n, minlength, fill)
