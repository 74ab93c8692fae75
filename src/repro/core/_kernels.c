/*
 * The route kernels of repro.core.kernels and the allocator's two
 * passes over the flows, compiled at first import (kernels.py builds
 * and caches this file).
 *
 * Storage.  ``routes`` is the flow table's hop-major route storage: a
 * (width, capacity) int64 array whose row h is hop column h over the
 * flows, contiguous along the flows (any row stride).  Pad slots name
 * the pad link, the last entry of ``padded`` / the last bin of a
 * scatter.  Every slot read is checked against [0, len) with one
 * unsigned compare; an out-of-range slot raises IndexError.  Every
 * per-flow vector a pass takes is checked to hold exactly n entries,
 * and no output may share a byte with another argument (ValueError).
 *
 * Bitwise contract.  Float addition is not associative, so the
 * reduction order is fixed here and nowhere else:
 *
 *   - flows are cut into BLOCK_ROWS-aligned chunks whose boundaries
 *     depend only on n (the caller passes the block size);
 *   - within a chunk, a scatter keeps one running sum per link, from
 *     0.0, and adds hop column 0's entries in flow order, then column
 *     1's, and so on; a per-flow fold starts from column 0's value and
 *     folds the columns in left to right;
 *   - scatter partials are combined in ascending chunk order: the
 *     chunk at row 0 is the total, each later one is added onto it.
 *
 * The order is chunk -> column -> flow.  It equals the flow-major
 * order (chunk -> flow -> hop) whenever every link occupies one
 * storage column: a link's entries in a chunk then all sit in that
 * column, and its running sum meets them in flow order either way (no
 * route names a link twice).  FlowTable stores routes middle-aligned,
 * which puts every link of the shipped two- and three-tier Clos
 * fabrics in one column.  The per-flow folds equal the flow-major
 * ones for any route: the pad slots gather the fold's identity (0.0
 * for sums of non-negative prices, -inf / +inf for max / min).
 *
 * Threads.  One driver (walk) runs every whole-table entry point.
 * With the GIL released it starts T - 1 threads, where T is the size
 * of the process's CPU affinity mask, capped at the chunk count; chunk
 * k goes to thread k mod T, the calling thread taking share 0, so a
 * table of one chunk (and T = 1) runs on the calling thread alone.
 * Each chunk scatters into its own partial buffer, and after the join
 * the calling thread combines the partials in ascending chunk order,
 * the rule above.  A chunk's folds and per-flow arithmetic touch only
 * its own rows, so the bits do not depend on T.  Threads live only
 * inside a call: none is alive at a fork.
 *
 * Every expression is the numpy ufunc it replaced, element for
 * element.  The folds are ``acc + v`` (np.add) and, for np.maximum /
 * np.minimum, ``a != a ? a : (a > v ? a : v)`` (and ``<``), which
 * keeps numpy's answers for NaN and for equal operands (signed zeros:
 * the second operand wins a tie); the min fold is spelled so,
 * branchless, the max fold in lanes (below).  One case is the
 * compiler's, as numpy does not pin it either (np.add's SIMD body and
 * its tail loop answer differently): a sum of two NaNs of unequal
 * sign.  x86-64 returns the first operand's NaN, and gcc -O2 keeps the
 * scatters' adds in source order, so the running sum's NaN wins;
 * tests/test_csr_kernels.py pins that answer, and a compiler that
 * commuted the add would fail it.  Prices and rates are never NaN, so
 * no allocation meets it.  The per-flow arithmetic of the two passes
 * is:
 *
 *   - NED's log-utility step: ``rho = maximum(rho, cap)`` (when capped),
 *     ``rho = maximum(rho, MIN_PRICE_SUM)``, the rate ``w / rho``
 *     (np.divide) and the derivative ``-(w / (rho * rho))``
 *     (np.multiply, np.divide, np.negative).  The derivative keeps its
 *     two roundings, the square and then the quotient: ``(w / rho) /
 *     rho`` rounds twice too, but at different points, and differs in
 *     the last bit for some inputs (and overflows and underflows at
 *     other magnitudes).  Negating the quotient equals dividing ``-w``,
 *     since rounding is sign-symmetric;
 *   - F-NORM: ``worst = maximum(worst, 1e-12)``, then, without scale
 *     up, ``maximum(worst, 1.0)``, and the rate ``r / worst``;
 *   - the section 6.4 mask: ``flag = (fabs(r - s) > t * s) | (s != s) |
 *     pending`` (np.subtract, np.abs, np.multiply, np.greater, np.isnan),
 *     then ``s = r`` and ``pending = 0`` on the flagged rows.  Every
 *     pending row is flagged, so every pending flag ends cleared.
 *
 * Lanes.  The per-flow arithmetic above and the max fold run two rows
 * per 128-bit register (v2d, SSE2 on x86-64), which moves no bit: a
 * packed quotient, product or difference is the IEEE result in each
 * lane, and a NaN operand propagates per lane as in the scalar
 * instruction.  The maxima are spelled with maxpd, which returns its
 * second operand on NaN and on ties:
 *
 *   - a clamp at a constant c is maxpd(c, x): x wins a NaN, c > x
 *     picks c, and a tie is one value as long as c is neither NaN nor
 *     zero (no signed-zero tie), so ned_log_pass and f_norm_pass
 *     refuse a min_price_sum or epsilon that is not positive;
 *   - where either operand may be NaN (the cap clamp, the max fold),
 *     np.maximum(a, v) is a where a is NaN, else maxpd(a, v): a
 *     cmpunordpd mask and an and / andnot / or select around maxpd;
 *   - the mask's flag is one packed compare, unordered test and or,
 *     with pending's two bytes widened to lane masks, last the same
 *     select, and changed the two bits of movmskpd.
 *
 * An odd last row of a chunk goes through the same lanes on two-row
 * stack copies of itself, so there is one spelling of each step.
 * The selects are SSE2 intrinsics, not GCC vector-extension
 * expressions: gcc 12 -O2 turns a NaN-aware select written in the
 * extension into a cmove per lane, slower than the scalar loop, and
 * tests/test_kernel_build.py disassembles the library to keep the
 * loops packed.  Targets without SSE2 get the same helpers spelled
 * lane by lane in the vector extension (the loops are unchanged); CI
 * builds and tests x86-64 only.  The gathers and the scatters stay
 * scalar: a scatter adds into one bin per slot in flow order, and a
 * packed pair add gave no gain and put the new value first, which
 * changes which NaN a sum of two NaNs keeps (the pinned case above).
 *
 * Churn intake.  Every per-flow step of FlowTable.apply_churn is here
 * but the id index (a dict) and the rare tangled removal's replay:
 * swap_remove moves the rows of a removal batch and frees its tail,
 * pack_starts parses the common starts batch, insert_routes writes its
 * route columns and bottlenecks, and place_ids its ids and handles'
 * rows.  They hold the GIL and start no thread: pack_starts calls back
 * into Python (an id's hash and ==), the others write object
 * references, and a batch is too short to split.  None moves a float:
 * swap_remove copies items, and insert_routes' bottleneck is the min
 * fold's MIN_STEP over the same columns in the same order, so it
 * equals min_link_value.
 *
 * numpy's headers.  The library compiles against numpy's C API (the
 * build passes np.get_include(), and the module init imports numpy's
 * array API), for one reason: pack_starts reads each route's ndim,
 * stride, dtype, byte order and data pointer from the ndarray struct,
 * a few loads, where the buffer protocol cost a PyObject_GetBuffer per
 * route (~71 ns with its format string).  The whole-table entry points
 * keep the buffer protocol: one buffer per argument per call.
 *
 * The build passes -ffp-contract=off and no fast-math flag, so no
 * operation is fused or reordered (``t * s`` and ``rho * rho`` stay
 * rounded products, never parts of a fused multiply-add).
 * tests/test_golden_kernels.py pins the bits against constants
 * recorded when these loops were numpy's bincount / np.add.at / ufunc
 * calls; tests/test_csr_kernels.py pins them against scalar references
 * and the passes against their numpy spelling on hostile values, and
 * tests/test_kernel_threads.py at several thread counts.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#define NPY_NO_DEPRECATED_API NPY_1_7_API_VERSION
#include <numpy/arrayobject.h>
#include <pthread.h>
#include <sched.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

enum { FOLD_SUM = 0, FOLD_MAX = 1, FOLD_MIN = 2 };

/* Two rows of float64 in one register.  A load or store is
 * V2(p) on a double *p, which needs only the 8-byte alignment of a
 * float64 array; + - * / and unary - are the IEEE operation in each
 * lane.  The helpers below are the only target-specific spelling:
 * SSE2 intrinsics on x86-64 (what CI builds and tests), lane by lane
 * in GCC's vector extension elsewhere.  Selects stay intrinsics on
 * SSE2 because gcc 12 -O2 turns a NaN-aware select written in the
 * vector extension into a cmove per lane. */
typedef double v2d __attribute__((vector_size(16), aligned(8), may_alias));
typedef int64_t v2i __attribute__((vector_size(16), aligned(8), may_alias));
#define V2(p) (*(v2d *)(p))

/* maxpd: a > v ? a : v per lane, so the second operand wins on NaN
 * and on ties.  For a constant c that is neither NaN nor zero,
 * v2_max(c, x) is np.maximum(x, c) bit for bit (a tie of non-zeros is
 * one value). */
static inline v2d
v2_max(v2d a, v2d v)
{
#if defined(__SSE2__)
    return (v2d)_mm_max_pd((__m128d)a, (__m128d)v);
#else
    return (v2d){a[0] > v[0] ? a[0] : v[0], a[1] > v[1] ? a[1] : v[1]};
#endif
}

/* All-ones lanes where a is NaN. */
static inline v2d
v2_isnan(v2d a)
{
#if defined(__SSE2__)
    return (v2d)_mm_cmpunord_pd((__m128d)a, (__m128d)a);
#else
    return (v2d)(a != a);
#endif
}

/* All-ones lanes where a > v (false on NaN). */
static inline v2d
v2_gt(v2d a, v2d v)
{
#if defined(__SSE2__)
    return (v2d)_mm_cmpgt_pd((__m128d)a, (__m128d)v);
#else
    return (v2d)(a > v);
#endif
}

/* k ? a : b per lane, k all-ones or all-zeros, bit for bit. */
static inline v2d
v2_select(v2d k, v2d a, v2d b)
{
#if defined(__SSE2__)
    return (v2d)_mm_or_pd(_mm_and_pd((__m128d)k, (__m128d)a),
                          _mm_andnot_pd((__m128d)k, (__m128d)b));
#else
    return (v2d)(((v2i)k & (v2i)a) | (~(v2i)k & (v2i)b));
#endif
}

/* k | j per lane. */
static inline v2d
v2_or(v2d k, v2d j)
{
#if defined(__SSE2__)
    return (v2d)_mm_or_pd((__m128d)k, (__m128d)j);
#else
    return (v2d)((v2i)k | (v2i)j);
#endif
}

/* fabs per lane: the sign bit cleared. */
static inline v2d
v2_abs(v2d a)
{
#if defined(__SSE2__)
    return (v2d)_mm_andnot_pd(_mm_set1_pd(-0.0), (__m128d)a);
#else
    return (v2d)((v2i)a & ~(v2i)(v2d){-0.0, -0.0});
#endif
}

/* All-ones lanes where the bytes p[0], p[1] are non-zero. */
static inline v2d
v2_nonzero(const char *p)
{
#if defined(__SSE2__)
    uint16_t two;
    __m128i b, zero = _mm_setzero_si128();
    memcpy(&two, p, 2);
    b = _mm_cvtsi32_si128(two);
    b = _mm_unpacklo_epi8(b, b);      /* byte j fills lane j's 8 bytes */
    b = _mm_unpacklo_epi16(b, b);
    b = _mm_unpacklo_epi32(b, b);
    return (v2d)_mm_andnot_si128(_mm_cmpeq_epi8(b, zero),
                                 _mm_cmpeq_epi8(zero, zero));
#else
    return (v2d)(v2i){-(int64_t)(p[0] != 0), -(int64_t)(p[1] != 0)};
#endif
}

/* Bit j set where lane j of the mask k is all-ones. */
static inline int
v2_bits(v2d k)
{
#if defined(__SSE2__)
    return _mm_movemask_pd((__m128d)k);
#else
    return (int)(((v2i)k)[0] & 1) | (int)(((v2i)k)[1] & 2);
#endif
}

/* np.maximum(a, v) per lane for any a, v: a where a is NaN, else
 * maxpd(a, v), which takes v on a NaN v and on a tie. */
static inline v2d
v2_maximum(v2d a, v2d v)
{
    return v2_select(v2_isnan(a), a, v2_max(a, v));
}

/* A buffer's item format without its byte-order prefix; *swapped is
 * set when the prefix names the byte order the host does not use. */
static const char *
item_format(const Py_buffer *view, int *swapped)
{
    const char *format = view->format;

    *swapped = 0;
    if (format == NULL)
        return "B";
    switch (format[0]) {
    case '@':
    case '=':
        return format + 1;
    case '<':
        *swapped = !PY_LITTLE_ENDIAN;
        return format + 1;
    case '>':
    case '!':
        *swapped = PY_LITTLE_ENDIAN;
        return format + 1;
    }
    return format;
}

/* Native-order int64 items. */
static int
is_int64(const Py_buffer *view)
{
    int swapped;
    const char *format = item_format(view, &swapped);
    return view->itemsize == 8 && !swapped
        && (strcmp(format, "l") == 0 || strcmp(format, "q") == 0);
}

/* A 1-D C-contiguous vector of 8-byte float64 ("d"), 1-byte bool ("?"),
 * native int64 ("q", any of its spellings), object references ("O") or,
 * for kind '*', items of any one-character numeric format (a FlowColumn,
 * whose items swap-remove copies as bytes). */
static int
get_typed(PyObject *obj, Py_buffer *view, int writable, const char *what,
          const char *format)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT, swapped, ok;
    const char *item;
    if (writable)
        flags |= PyBUF_WRITABLE;
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    item = item_format(view, &swapped);
    ok = view->ndim == 1 && (
        format[0] == 'q' ? is_int64(view)
        : format[0] == '*' ? (item[0] != '\0' && item[1] == '\0'
                              && strchr("?bBhHiIlLqQefd", item[0]) != NULL)
        : strcmp(view->format, format) == 0);
    if (!ok) {
        PyErr_Format(PyExc_TypeError, "%s must be a 1-D contiguous %s "
                     "array", what, format[0] == 'd' ? "float64"
                     : format[0] == 'q' ? "int64" : format[0] == 'O'
                     ? "object" : format[0] == '*' ? "numeric" : "bool");
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* The route storage: 2-D int64, each row contiguous. */
static int
get_routes(PyObject *obj, Py_buffer *view, int writable)
{
    if (PyObject_GetBuffer(obj, view, writable ? PyBUF_RECORDS
                                               : PyBUF_RECORDS_RO) < 0)
        return -1;
    if (view->ndim != 2 || !is_int64(view)
            || view->strides[1] != 8 || view->strides[0] % 8 != 0) {
        PyErr_SetString(PyExc_TypeError,
                        "routes must be a 2-D int64 array with "
                        "contiguous rows");
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* One buffer argument of an entry point: args[arg], of kind 'r' (the
 * route storage), 'd' (float64), '?' (bool) or 'q' (int64), writable
 * if out, None allowed (and skipped) if optional. */
typedef struct {
    int arg, out, optional;
    char kind;
    const char *what;
} Arg;

/* Acquire the buffers spec[0, count) names into views (NULL for a
 * skipped None); on failure release what was acquired. */
static int
acquire(PyObject *const *args, const Arg *spec, int count,
        Py_buffer *bufs, Py_buffer **views)
{
    int k, rc;
    char format[2] = {0, 0};
    for (k = 0; k < count; k++) {
        PyObject *obj = args[spec[k].arg];
        views[k] = NULL;
        if (spec[k].optional && obj == Py_None)
            continue;
        format[0] = spec[k].kind;
        rc = spec[k].kind == 'r'
            ? get_routes(obj, &bufs[k], spec[k].out)
            : get_typed(obj, &bufs[k], spec[k].out, spec[k].what, format);
        if (rc < 0) {
            while (k-- > 0)
                if (views[k] != NULL)
                    PyBuffer_Release(views[k]);
            return -1;
        }
        views[k] = &bufs[k];
    }
    return 0;
}

static void
release(Py_buffer **views, int count)
{
    while (count-- > 0)
        if (views[count] != NULL)
            PyBuffer_Release(views[count]);
}

/* The bytes [lo, hi) a buffer spans, for strides of either sign. */
static void
span_of(const Py_buffer *v, const char **lo, const char **hi)
{
    const char *a = v->buf, *b = v->buf;
    int d;
    for (d = 0; d < v->ndim; d++) {
        if (v->shape[d] == 0) {
            *lo = *hi = v->buf;
            return;
        }
        if (v->strides[d] < 0)
            a += (v->shape[d] - 1) * v->strides[d];
        else
            b += (v->shape[d] - 1) * v->strides[d];
    }
    *lo = a;
    *hi = b + v->itemsize;
}

/* Raise ValueError if an output shares a byte with another buffer:
 * the threads write the outputs while they read the rest. */
static int
check_disjoint(const char *who, const Arg *spec, Py_buffer *const *views,
               int count)
{
    const char *lo[count], *hi[count];
    int i, j;
    for (i = 0; i < count; i++)
        if (views[i] != NULL)
            span_of(views[i], &lo[i], &hi[i]);
    for (i = 0; i < count; i++) {
        if (views[i] == NULL || !spec[i].out)
            continue;
        for (j = 0; j < count; j++) {
            if (j == i || views[j] == NULL)
                continue;
            if (lo[i] < hi[j] && lo[j] < hi[i]) {
                PyErr_Format(PyExc_ValueError, "%s: %s overlaps %s", who,
                             spec[i].what, spec[j].what);
                return -1;
            }
        }
    }
    return 0;
}

/* Raise unless every buffer in views[0, count) holds exactly n items. */
static int
check_lengths(const char *who, Py_ssize_t n, Py_buffer *const *views,
              int count)
{
    int k;
    for (k = 0; k < count; k++) {
        if (views[k] != NULL && views[k]->shape[0] != n) {
            PyErr_Format(PyExc_ValueError, "%s: a per-flow vector holds "
                         "%zd entries, not the %zd flows", who,
                         views[k]->shape[0], n);
            return -1;
        }
    }
    return 0;
}

/* The hop-major route storage as the loops read it. */
typedef struct {
    const int64_t *routes;
    Py_ssize_t width, stride, len;   /* len: padded entries / bins */
} Storage;

static void
storage_of(Storage *s, const Py_buffer *routes, Py_ssize_t len)
{
    s->routes = routes->buf;
    s->width = routes->shape[0];
    s->stride = routes->strides[0] / 8;
    s->len = len;
}

/* np.minimum(a, v): a on a NaN a, else the smaller, v on a tie. */
#define MIN_STEP(a, v) ((a) != (a) ? (a) : ((a) < (v) ? (a) : (v)))

/* One column of a fold into dst[0, m): dst = OP(dst, padded[col]). */
#define FOLD_COLUMN(EXPR)                                               \
    for (i = 0; i < m; i++) {                                           \
        double a, v;                                                    \
        slot = col[i];                                                  \
        if ((uint64_t)slot >= (uint64_t)len)                            \
            goto bad;                                                   \
        a = dst[i];                                                     \
        v = padded[slot];                                               \
        dst[i] = (EXPR);                                                \
    }

/* dst[i] = the left-to-right fold of padded[routes[:, c0 + i]] for
 * i in [0, m).  Returns -1 with *bad set to an out-of-range slot. */
static int
fold_chunk(int op, const double *padded, const Storage *s, Py_ssize_t c0,
           Py_ssize_t m, double *dst, int64_t *bad)
{
    const int64_t *col = s->routes + c0;
    Py_ssize_t i, h, len = s->len;
    int64_t slot;

    for (i = 0; i < m; i++) {
        slot = col[i];
        if ((uint64_t)slot >= (uint64_t)len)
            goto bad;
        dst[i] = padded[slot];
    }
    for (h = 1; h < s->width; h++) {
        col = s->routes + h * s->stride + c0;
        switch (op) {
        case FOLD_SUM:
            FOLD_COLUMN(a + v)
            break;
        case FOLD_MAX:   /* two rows per maxpd; the odd last on copies */
            for (i = 0; i + 1 < m; i += 2) {
                int64_t next = col[i + 1];
                slot = col[i];
                if ((uint64_t)slot >= (uint64_t)len)
                    goto bad;
                if ((uint64_t)next >= (uint64_t)len) {
                    slot = next;
                    goto bad;
                }
                V2(dst + i) = v2_maximum(V2(dst + i), (v2d){padded[slot],
                                                            padded[next]});
            }
            if (i < m) {
                double a[2] = {dst[i], dst[i]};
                slot = col[i];
                if ((uint64_t)slot >= (uint64_t)len)
                    goto bad;
                V2(a) = v2_maximum(V2(a), (v2d){padded[slot],
                                                padded[slot]});
                dst[i] = a[0];
            }
            break;
        default:
            FOLD_COLUMN(MIN_STEP(a, v))
            break;
        }
    }
    return 0;
bad:
    *bad = slot;
    return -1;
}

/* One chunk's link partial of the values ca[0, m) (and cb, unless
 * NULL) over rows [c0, c0 + m) into part: a running sum per link from
 * 0.0 in column -> flow order, the pair interleaved, one cache line
 * for both. */
static int
scatter_chunk(const double *ca, const double *cb, const Storage *s,
              Py_ssize_t c0, Py_ssize_t m, double *part, int64_t *bad)
{
    const int64_t *col;
    Py_ssize_t i, h, len = s->len;
    int64_t slot;

    memset(part, 0, (size_t)(cb ? 2 * len : len) * sizeof(double));
    for (h = 0; h < s->width; h++) {
        col = s->routes + h * s->stride + c0;
        if (cb) {
            for (i = 0; i < m; i++) {
                slot = col[i];
                if ((uint64_t)slot >= (uint64_t)len)
                    goto bad;
                part[2 * slot] = part[2 * slot] + ca[i];
                part[2 * slot + 1] = part[2 * slot + 1] + cb[i];
            }
        } else {
            for (i = 0; i < m; i++) {
                slot = col[i];
                if ((uint64_t)slot >= (uint64_t)len)
                    goto bad;
                part[slot] = part[slot] + ca[i];
            }
        }
    }
    return 0;
bad:
    *bad = slot;
    return -1;
}

/* The section 6.4 filter on two rows. */
static inline void
mask_pair(const double *rates, double *last, char *pending, v2d t,
          char *changed)
{
    v2d r = V2(rates), s = V2(last);
    v2d flag = v2_or(v2_or(v2_gt(v2_abs(r - s), t * s), v2_isnan(s)),
                     v2_nonzero(pending));
    int bits = v2_bits(flag);

    V2(last) = v2_select(flag, r, s);
    pending[0] = pending[1] = 0;
    changed[0] = (char)(bits & 1);
    changed[1] = (char)(bits >> 1);
}

/* The section 6.4 filter on rows [0, m), two at a time; an odd last
 * row goes through the same lanes on two-row copies of itself. */
static void
mask_rows(const double *rates, double *last, char *pending,
          double threshold, char *changed, Py_ssize_t m)
{
    v2d t = {threshold, threshold};
    Py_ssize_t i;

    for (i = 0; i + 1 < m; i += 2)
        mask_pair(rates + i, last + i, pending + i, t, changed + i);
    if (i < m) {
        double r[2] = {rates[i], rates[i]}, s[2] = {last[i], last[i]};
        char p[2] = {pending[i], pending[i]}, c[2];
        mask_pair(r, s, p, t, c);
        last[i] = s[0];
        pending[i] = 0;
        changed[i] = c[0];
    }
}

/* One call's walk over the chunk grid of rows [r0, r1): what a chunk
 * computes (chunk, over rows [c0, c0 + m), scattering into part and
 * using scratch doubles of its thread's), the arguments it reads and
 * the per-flow vector it writes (out), and the chunks' scatter
 * partials, parts * len doubles each (parts 0: no scatter), whose
 * totals go to sum_a (and sum_b). */
typedef struct Walk Walk;
struct Walk {
    int (*chunk)(const Walk *w, Py_ssize_t c0, Py_ssize_t m, double *part,
                 double *scratch, int64_t *bad);
    Storage s;
    Py_ssize_t r0, r1, block, nchunks, scratch;
    int parts, op, scale_up;
    const double *padded, *a, *b, *caps;
    double *out, *sum_a, *sum_b, *last, *partials;
    char *pending, *changed;
    double min_price_sum, epsilon, threshold;
};

/* One thread's share of a walk: chunks t, t + T, ... in ascending
 * order, up to the first that fails (failed; nchunks if none). */
typedef struct {
    const Walk *w;
    Py_ssize_t t, T, failed;
    int64_t slot;
    double *scratch;
    pthread_t thread;
    int started;
} Share;

static void *
run_share(void *arg)
{
    Share *sh = arg;
    const Walk *w = sh->w;
    Py_ssize_t k, c0, m;

    for (k = sh->t; k < w->nchunks; k += sh->T) {
        c0 = w->r0 + k * w->block;
        m = w->r1 - c0 < w->block ? w->r1 - c0 : w->block;
        if (w->chunk(w, c0, m,
                     w->parts ? w->partials + k * w->parts * w->s.len
                              : NULL,
                     sh->scratch, &sh->slot) < 0) {
            sh->failed = k;
            break;
        }
    }
    return NULL;
}

/* The thread count _force_threads sets; 0 reads the affinity mask. */
static Py_ssize_t forced_threads;

static Py_ssize_t
thread_count(Py_ssize_t nchunks)
{
    Py_ssize_t t = forced_threads;
    cpu_set_t set;

    if (nchunks < 2)
        return 1;
    if (t < 1)
        t = sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set)
                                                        : 1;
    return t < nchunks ? t : nchunks;
}

/* The scatter partials into sum_a (and sum_b), in ascending chunk
 * order: the chunk at row 0 is written, each later one added onto it,
 * so the rows of a table may arrive over several calls in chunk
 * order. */
static void
combine(const Walk *w)
{
    Py_ssize_t k, l, len = w->s.len;
    double *out = w->sum_a, *out_b = w->sum_b;

    for (k = 0; k < w->nchunks; k++) {
        const double *part = w->partials + k * w->parts * len;
        int first = w->r0 + k * w->block == 0;
        if (w->parts == 2) {
            if (first) {
                for (l = 0; l < len; l++) {
                    out[l] = part[2 * l];
                    out_b[l] = part[2 * l + 1];
                }
            } else {
                for (l = 0; l < len; l++) {
                    out[l] = out[l] + part[2 * l];
                    out_b[l] = out_b[l] + part[2 * l + 1];
                }
            }
        } else if (first) {
            memcpy(out, part, (size_t)len * sizeof(double));
        } else {
            for (l = 0; l < len; l++)
                out[l] = out[l] + part[l];
        }
    }
}

/* A walk whose partials and scratch fit this many doubles keeps them
 * on the stack: no malloc for a small table. */
enum { STACK_DOUBLES = 1024 };

/* Run w's chunks on thread_count threads with the GIL released, then
 * combine the partials on the calling thread.  A bad slot raises the
 * IndexError of the lowest failing chunk, the one a walk in chunk
 * order stops at, and combines nothing.  At T = 1 the one share is on
 * the stack. */
static int
walk(Walk *w)
{
    Py_ssize_t T, t, failed;
    Share one, *shares = &one;
    double stack[STACK_DOUBLES], *buf = stack, *heap = NULL;
    size_t nparts, need;
    int64_t slot = 0;

    if (w->r1 == w->r0)
        return 0;
    w->nchunks = (w->r1 - w->r0 - 1) / w->block + 1;   /* no overflow */
    T = thread_count(w->nchunks);
    nparts = (size_t)(w->nchunks * w->parts) * (size_t)w->s.len;
    need = nparts + (size_t)(T * w->scratch);
    if (T > 1)
        shares = calloc((size_t)T, sizeof(Share));
    else
        memset(&one, 0, sizeof one);
    if (need > STACK_DOUBLES)
        buf = heap = malloc(need * sizeof(double));
    if (shares == NULL || buf == NULL) {
        free(heap);
        if (shares != &one)
            free(shares);
        PyErr_NoMemory();
        return -1;
    }
    w->partials = buf;
    for (t = 0; t < T; t++) {
        shares[t].w = w;
        shares[t].t = t;
        shares[t].T = T;
        shares[t].failed = w->nchunks;
        shares[t].scratch = w->scratch ? buf + nparts + t * w->scratch
                                       : NULL;
    }
    Py_BEGIN_ALLOW_THREADS
    for (t = 1; t < T; t++)
        shares[t].started = pthread_create(&shares[t].thread, NULL,
                                           run_share, &shares[t]) == 0;
    run_share(&shares[0]);
    for (t = 1; t < T; t++) {
        if (shares[t].started)
            pthread_join(shares[t].thread, NULL);
        else   /* no thread to be had: the share runs here */
            run_share(&shares[t]);
    }
    failed = w->nchunks;
    for (t = 0; t < T; t++) {
        if (shares[t].failed < failed) {
            failed = shares[t].failed;
            slot = shares[t].slot;
        }
    }
    if (failed == w->nchunks && w->parts)
        combine(w);
    Py_END_ALLOW_THREADS
    free(heap);
    if (shares != &one)
        free(shares);
    if (failed < w->nchunks) {
        PyErr_Format(PyExc_IndexError,
                     "route slot %lld is out of bounds for %zd entries",
                     (long long)slot, w->s.len);
        return -1;
    }
    return 0;
}

static int
fold_walk(const Walk *w, Py_ssize_t c0, Py_ssize_t m, double *part,
          double *scratch, int64_t *bad)
{
    return fold_chunk(w->op, w->padded, &w->s, c0, m,
                      w->out + (c0 - w->r0), bad);
}

static int
scatter_walk(const Walk *w, Py_ssize_t c0, Py_ssize_t m, double *part,
             double *scratch, int64_t *bad)
{
    return scatter_chunk(w->a + (c0 - w->r0),
                         w->b ? w->b + (c0 - w->r0) : NULL, &w->s, c0, m,
                         part, bad);
}

/* NED's log-utility step on two rows: the price sums rho clamped at
 * cap (unless NULL) and at least, the rates w / rho and the
 * derivatives -(w / (rho * rho)). */
static inline void
ned_pair(const double *rho, const double *cap, const double *wt,
         v2d least, double *rate, double *deriv)
{
    v2d p = V2(rho), w = V2(wt);

    if (cap != NULL)
        p = v2_maximum(p, V2(cap));
    p = v2_max(least, p);
    V2(rate) = w / p;
    V2(deriv) = -(w / (p * p));
}

/* NED's log-utility chunk: the price sums into scratch; the rates
 * into out and the derivatives into the scratch's second half, two
 * rows at a time (an odd last row on two-row copies); the pair
 * scatter of both.  a: the weights. */
static int
ned_log_walk(const Walk *w, Py_ssize_t c0, Py_ssize_t m, double *part,
             double *scratch, int64_t *bad)
{
    double *rho = scratch, *deriv = scratch + w->scratch / 2;
    double *rate = w->out + c0;
    const double *wt = w->a + c0, *cap = w->caps ? w->caps + c0 : NULL;
    v2d least = {w->min_price_sum, w->min_price_sum};
    Py_ssize_t i;

    if (fold_chunk(FOLD_SUM, w->padded, &w->s, c0, m, rho, bad) < 0)
        return -1;
    for (i = 0; i + 1 < m; i += 2)
        ned_pair(rho + i, cap ? cap + i : NULL, wt + i, least, rate + i,
                 deriv + i);
    if (i < m) {
        double p[2] = {rho[i], rho[i]}, c[2] = {0.0, 0.0};
        double x[2] = {wt[i], wt[i]}, r[2], d[2];
        if (cap != NULL)
            c[0] = c[1] = cap[i];
        ned_pair(p, cap ? c : NULL, x, least, r, d);
        rate[i] = r[0];
        deriv[i] = d[0];
    }
    return scatter_chunk(rate, deriv, &w->s, c0, m, part, bad);
}

/* F-NORM's step on two rows: the worst ratio clamped at eps and,
 * unless scale_up, at 1.0, divided into the rates, in place. */
static inline void
f_norm_pair(double *worst, const double *rate, v2d eps, int scale_up)
{
    v2d x = v2_max(eps, V2(worst));

    if (!scale_up)
        x = v2_max((v2d){1.0, 1.0}, x);
    V2(worst) = V2(rate) / x;
}

/* F-NORM's chunk: the worst ratio into out, then the normalized rates
 * over it, two rows at a time (an odd last row on two-row copies);
 * then the mask on the chunk, unless last is NULL. */
static int
f_norm_walk(const Walk *w, Py_ssize_t c0, Py_ssize_t m, double *part,
            double *scratch, int64_t *bad)
{
    double *worst = w->out + c0;
    const double *rate = w->a + c0;
    v2d eps = {w->epsilon, w->epsilon};
    Py_ssize_t i;

    if (fold_chunk(FOLD_MAX, w->padded, &w->s, c0, m, worst, bad) < 0)
        return -1;
    for (i = 0; i + 1 < m; i += 2)
        f_norm_pair(worst + i, rate + i, eps, w->scale_up);
    if (i < m) {
        double x[2] = {worst[i], worst[i]}, r[2] = {rate[i], rate[i]};
        f_norm_pair(x, r, eps, w->scale_up);
        worst[i] = x[0];
    }
    if (w->last != NULL)
        mask_rows(worst, w->last + c0, w->pending + c0, w->threshold,
                  w->changed + c0, m);
    return 0;
}

/* A row span [r0, r1) over columns flows, walked in blocks. */
static int
get_span(const char *who, PyObject *const *args, Walk *w,
         Py_ssize_t columns)
{
    w->r0 = PyLong_AsSsize_t(args[0]);
    w->r1 = PyLong_AsSsize_t(args[1]);
    w->block = PyLong_AsSsize_t(args[2]);
    if (PyErr_Occurred())
        return -1;
    if (w->r0 < 0 || w->r1 < w->r0 || w->r1 > columns || w->block < 1) {
        PyErr_Format(PyExc_ValueError,
                     "%s: bad row span [%zd, %zd) (block %zd) over %zd "
                     "flows", who, w->r0, w->r1, w->block, columns);
        return -1;
    }
    return 0;
}

static const Arg FOLD_ARGS[] = {
    {6, 1, 0, 'd', "out"}, {1, 0, 0, 'd', "padded"},
    {2, 0, 0, 'r', "routes"},
};

/* fold(op, padded, routes, r0, r1, block, out): out[r - r0] = the
 * left-to-right fold of padded[routes[:, r]] over rows [r0, r1). */
static PyObject *
fold(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer bufs[3], *v[3];
    Walk w = {fold_walk};
    int rc = -1;

    if (nargs != 7) {
        PyErr_SetString(PyExc_TypeError, "fold takes 7 arguments");
        return NULL;
    }
    w.op = (int)PyLong_AsLong(args[0]);
    if (w.op == -1 && PyErr_Occurred())
        return NULL;
    if (acquire(args, FOLD_ARGS, 3, bufs, v) < 0)
        return NULL;
    if (get_span("fold", args + 3, &w, v[2]->shape[1]) < 0)
        goto release;
    if (v[0]->shape[0] != w.r1 - w.r0 || v[2]->shape[0] < 1
            || w.op < FOLD_SUM || w.op > FOLD_MIN) {
        PyErr_SetString(PyExc_ValueError,
                        "fold: out must hold r1 - r0 rows, routes one "
                        "column, op be 0, 1 or 2");
        goto release;
    }
    if (check_disjoint("fold", FOLD_ARGS, v, 3) < 0)
        goto release;
    storage_of(&w.s, v[2], v[1]->shape[0]);
    w.padded = v[1]->buf;
    w.out = v[0]->buf;
    rc = walk(&w);
release:
    release(v, 3);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static const Arg SCATTER_ARGS[] = {
    {6, 1, 0, 'd', "out"}, {7, 1, 1, 'd', "out_b"},
    {0, 0, 0, 'd', "values"}, {1, 0, 1, 'd', "values_b"},
    {2, 0, 0, 'r', "routes"},
};

/* scatter(a, b, routes, r0, r1, block, out_a, out_b): link totals of
 * the per-flow values a (and b, unless it is None) over rows
 * [r0, r1), a[0] being row r0's value, combined onto out (combine). */
static PyObject *
scatter(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer bufs[5], *v[5];
    Walk w = {scatter_walk};
    Py_ssize_t len;
    int rc = -1;

    if (nargs != 8) {
        PyErr_SetString(PyExc_TypeError, "scatter takes 8 arguments");
        return NULL;
    }
    if ((args[1] == Py_None) != (args[7] == Py_None)) {
        PyErr_SetString(PyExc_ValueError,
                        "scatter: b and out_b are both None or neither");
        return NULL;
    }
    if (acquire(args, SCATTER_ARGS, 5, bufs, v) < 0)
        return NULL;
    if (get_span("scatter", args + 3, &w, v[4]->shape[1]) < 0)
        goto release;
    len = v[0]->shape[0];
    if (v[2]->shape[0] < w.r1 - w.r0 || (v[3] != NULL
            && (v[3]->shape[0] < w.r1 - w.r0 || v[1]->shape[0] != len))) {
        PyErr_SetString(PyExc_ValueError,
                        "scatter: values shorter than the span, or "
                        "outputs of unequal length");
        goto release;
    }
    if (check_disjoint("scatter", SCATTER_ARGS, v, 5) < 0)
        goto release;
    storage_of(&w.s, v[4], len);
    w.parts = v[3] != NULL ? 2 : 1;
    w.a = v[2]->buf;
    w.sum_a = v[0]->buf;
    if (v[3] != NULL) {
        w.b = v[3]->buf;
        w.sum_b = v[1]->buf;
    }
    rc = walk(&w);
release:
    release(v, 5);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static const Arg NED_ARGS[] = {
    {7, 1, 0, 'd', "rates"}, {4, 0, 1, 'd', "caps"},
    {5, 0, 0, 'd', "weights"}, {8, 1, 0, 'd', "load"},
    {9, 1, 0, 'd', "hessian"}, {0, 0, 0, 'd', "padded"},
    {1, 0, 0, 'r', "routes"},
};

/* ned_log_pass(padded, routes, n, block, caps, weights, min_price_sum,
 * rates, load, hessian): NED's pass for the log utility.  Per chunk:
 * the price sums of padded over the routes, clamped at caps (unless
 * None) and at min_price_sum; the rates w / rho into rates and the
 * derivatives -(w / (rho * rho)) into a chunk buffer; then the pair
 * scatter of both into load and hessian (one bin per padded entry). */
static PyObject *
ned_log_pass(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer bufs[7], *v[7];
    Walk w = {ned_log_walk};
    Py_ssize_t len;
    int rc = -1;

    if (nargs != 10) {
        PyErr_SetString(PyExc_TypeError, "ned_log_pass takes 10 arguments");
        return NULL;
    }
    w.r1 = PyLong_AsSsize_t(args[2]);
    w.block = PyLong_AsSsize_t(args[3]);
    w.min_price_sum = PyFloat_AsDouble(args[6]);
    if (PyErr_Occurred())
        return NULL;
    if (!(w.min_price_sum > 0.0)) {   /* the one-maxpd clamp's premise */
        PyErr_SetString(PyExc_ValueError,
                        "ned_log_pass: min_price_sum must be positive");
        return NULL;
    }
    if (acquire(args, NED_ARGS, 7, bufs, v) < 0)
        return NULL;
    len = v[5]->shape[0];
    if (w.r1 < 0 || w.r1 > v[6]->shape[1] || w.block < 1
            || v[6]->shape[0] < 1 || v[3]->shape[0] != len
            || v[4]->shape[0] != len) {
        PyErr_Format(PyExc_ValueError, "ned_log_pass: bad span of %zd "
                     "flows (block %zd) over %zd, or load / hessian not "
                     "one bin per padded entry", w.r1, w.block,
                     v[6]->shape[1]);
        goto release;
    }
    if (check_lengths("ned_log_pass", w.r1, v, 3) < 0
            || check_disjoint("ned_log_pass", NED_ARGS, v, 7) < 0)
        goto release;
    storage_of(&w.s, v[6], len);
    w.parts = 2;
    w.scratch = 2 * (w.r1 < w.block ? w.r1 : w.block);
    w.padded = v[5]->buf;
    w.a = v[2]->buf;
    w.caps = v[1] != NULL ? v[1]->buf : NULL;
    w.out = v[0]->buf;
    w.sum_a = v[3]->buf;
    w.sum_b = v[4]->buf;
    rc = walk(&w);
release:
    release(v, 7);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static const Arg F_NORM_ARGS[] = {
    {7, 1, 0, 'd', "out"}, {8, 1, 1, 'd', "last"},
    {9, 1, 1, '?', "pending"}, {11, 1, 1, '?', "changed"},
    {4, 0, 0, 'd', "rates"}, {0, 0, 0, 'd', "padded"},
    {1, 0, 0, 'r', "routes"},
};

/* f_norm_pass(padded, routes, n, block, rates, epsilon, scale_up, out,
 * last, pending, threshold, changed): F-NORM's pass.  Per chunk: the
 * max of padded (the per-link ratios, pad -inf) over the routes,
 * clamped at epsilon and, unless scale_up, at 1.0; out = rates / that.
 * Unless last is None, the section 6.4 mask then runs on the chunk
 * (mask_rows), updating last and pending in place. */
static PyObject *
f_norm_pass(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer bufs[7], *v[7];
    Walk w = {f_norm_walk};
    int rc = -1, masked;

    if (nargs != 12) {
        PyErr_SetString(PyExc_TypeError, "f_norm_pass takes 12 arguments");
        return NULL;
    }
    w.r1 = PyLong_AsSsize_t(args[2]);
    w.block = PyLong_AsSsize_t(args[3]);
    w.epsilon = PyFloat_AsDouble(args[5]);
    w.scale_up = PyObject_IsTrue(args[6]);
    masked = args[8] != Py_None;
    if (masked)
        w.threshold = PyFloat_AsDouble(args[10]);
    if (PyErr_Occurred())
        return NULL;
    if (!(w.epsilon > 0.0)) {   /* the one-maxpd clamp's premise */
        PyErr_SetString(PyExc_ValueError,
                        "f_norm_pass: epsilon must be positive");
        return NULL;
    }
    if (masked && (args[9] == Py_None || args[11] == Py_None)) {
        PyErr_SetString(PyExc_ValueError, "f_norm_pass: the mask needs "
                        "last, pending and changed");
        return NULL;
    }
    if (acquire(args, F_NORM_ARGS, 7, bufs, v) < 0)
        return NULL;
    if (w.r1 < 0 || w.r1 > v[6]->shape[1] || w.block < 1
            || v[6]->shape[0] < 1) {
        PyErr_Format(PyExc_ValueError, "f_norm_pass: bad span of %zd "
                     "flows (block %zd) over %zd", w.r1, w.block,
                     v[6]->shape[1]);
        goto release;
    }
    if (check_lengths("f_norm_pass", w.r1, v, 5) < 0
            || check_disjoint("f_norm_pass", F_NORM_ARGS, v, 7) < 0)
        goto release;
    storage_of(&w.s, v[6], v[5]->shape[0]);
    w.padded = v[5]->buf;
    w.a = v[4]->buf;
    w.out = v[0]->buf;
    if (masked) {
        w.last = v[1]->buf;
        w.pending = v[2]->buf;
        w.changed = v[3]->buf;
    }
    rc = walk(&w);
release:
    release(v, 7);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static const Arg MASK_ARGS[] = {
    {1, 1, 0, 'd', "last"}, {2, 1, 0, '?', "pending"},
    {4, 1, 0, '?', "changed"}, {0, 0, 0, 'd', "rates"},
};

/* threshold_mask(rates, last, pending, threshold, changed): the
 * section 6.4 mask (mask_rows) over whole vectors of one length. */
static PyObject *
threshold_mask(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer bufs[4], *v[4];
    double threshold;
    int rc = -1;

    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "threshold_mask takes 5 arguments");
        return NULL;
    }
    threshold = PyFloat_AsDouble(args[3]);
    if (PyErr_Occurred())
        return NULL;
    if (acquire(args, MASK_ARGS, 4, bufs, v) < 0)
        return NULL;
    if (check_lengths("threshold_mask", v[0]->shape[0], v, 4) < 0
            || check_disjoint("threshold_mask", MASK_ARGS, v, 4) < 0)
        goto release;
    mask_rows(v[3]->buf, v[0]->buf, v[1]->buf, threshold, v[2]->buf,
              v[0]->shape[0]);
    rc = 0;
release:
    release(v, 4);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* How pack_starts reads a route's items: native int64, or uint32 in
 * either byte order (the wire's big-endian, or native once decoded);
 * ROUTE_OTHER for anything else. */
enum { ROUTE_OTHER, ROUTE_INT64, ROUTE_U32, ROUTE_U32_SWAPPED };

/* A route's items as pack_starts takes them, read from numpy's array
 * struct (no buffer is acquired): an exact ndarray of one dimension,
 * aligned, its stride its item size, of one of the kinds above.  Sets
 * *data and *m (the hop count) unless it returns ROUTE_OTHER. */
static int
route_items(PyObject *obj, const char **data, Py_ssize_t *m)
{
    PyArrayObject *a = (PyArrayObject *)obj;
    npy_intp size;
    char kind;

    if (!PyArray_CheckExact(obj) || PyArray_NDIM(a) != 1
            || !PyArray_ISALIGNED(a))
        return ROUTE_OTHER;
    size = PyArray_ITEMSIZE(a);
    kind = PyArray_DESCR(a)->kind;
    if (PyArray_STRIDE(a, 0) != size)
        return ROUTE_OTHER;
    *data = PyArray_BYTES(a);
    *m = PyArray_DIM(a, 0);
    if (kind == 'i' && size == 8 && PyArray_ISNOTSWAPPED(a))
        return ROUTE_INT64;
    if (kind == 'u' && size == 4)
        return PyArray_ISNOTSWAPPED(a) ? ROUTE_U32 : ROUTE_U32_SWAPPED;
    return ROUTE_OTHER;
}

/* Copy one route's m hops into dst as int64; -1 if a hop is not a
 * link in [0, n_links). */
static int
copy_route(const char *data, int kind, Py_ssize_t m, int64_t n_links,
           int64_t *dst)
{
    Py_ssize_t j;

    for (j = 0; j < m; j++) {
        int64_t hop;
        if (kind == ROUTE_INT64) {
            hop = ((const int64_t *)data)[j];
        } else {
            uint32_t item = ((const uint32_t *)data)[j];
            if (kind == ROUTE_U32_SWAPPED)
                item = (item >> 24) | ((item >> 8) & 0xff00u)
                    | ((item << 8) & 0xff0000u) | (item << 24);
            hop = item;
        }
        if ((uint64_t)hop >= (uint64_t)n_links)
            return -1;
        dst[j] = hop;
    }
    return 0;
}

static const Arg PACK_ARGS[] = {
    {4, 1, 0, 'q', "lengths"}, {5, 1, 0, 'q', "flat"},
    {6, 1, 0, 'd', "weights"},
};

/* pack_starts(starts, index_of, max_route_len, n_links, lengths, flat,
 * weights): FlowTable's starts parser for the batch it meets in the
 * common case, in one pass per check.  starts is a list of k tuples of
 * one arity, (flow_id, route) or (flow_id, route, weight): every
 * weight a float > 0, no flow_id in the dict index_of, every route an
 * exact 1-D contiguous ndarray (route_items) of native int64 or uint32
 * items, 1 to max_route_len hops over links [0, n_links).
 * Fills lengths[0, k) with the hop counts, flat with the concatenated
 * routes (it holds k * max_route_len entries) and, for 3-tuples,
 * weights[0, k); returns (ids, total hops, whether weights were
 * given).  For any other batch it clears any error and returns None:
 * the Python parser then decides and raises what it always raised.
 *
 * The checks run in the Python parser's order: the tuples and weights
 * (no Python code), then the ids (hash and == may run Python code),
 * then the routes.  The pass holds its own reference to every id and
 * route, so nothing that code does to starts can free them. */
static PyObject *
pack_starts(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer bufs[3], *v[3];
    PyObject *starts, *index, **held = NULL, *ids, *result = NULL;
    Py_ssize_t k, i, max_len, arity = 0, taken = 0, total = 0;
    int64_t n_links, *lengths, *flat;
    double *weights;

    if (nargs != 7) {
        PyErr_SetString(PyExc_TypeError, "pack_starts takes 7 arguments");
        return NULL;
    }
    starts = args[0];
    index = args[1];
    if (!PyList_Check(starts) || !PyDict_Check(index)) {
        PyErr_SetString(PyExc_TypeError, "pack_starts: starts must be a "
                        "list and index_of a dict");
        return NULL;
    }
    max_len = PyLong_AsSsize_t(args[2]);
    n_links = PyLong_AsLongLong(args[3]);
    if (PyErr_Occurred())
        return NULL;
    if (max_len < 1 || n_links < 0) {
        PyErr_SetString(PyExc_ValueError, "pack_starts: max_route_len must "
                        "be positive and n_links not negative");
        return NULL;
    }
    if (acquire(args, PACK_ARGS, 3, bufs, v) < 0)
        return NULL;
    k = PyList_GET_SIZE(starts);
    if (v[0]->shape[0] != k || v[2]->shape[0] != k
            || (k > 0 && v[1]->shape[0] / k < max_len)) {
        PyErr_Format(PyExc_ValueError, "pack_starts: lengths and weights "
                     "must hold the %zd starts, flat %zd hops each", k,
                     max_len);
        goto release;
    }
    if (check_disjoint("pack_starts", PACK_ARGS, v, 3) < 0)
        goto release;
    lengths = v[0]->buf;
    flat = v[1]->buf;
    weights = v[2]->buf;
    if (k == 0 || (held = PyMem_Malloc(2 * k * sizeof(PyObject *))) == NULL)
        goto fallback;
    /* The tuples and weights; held[i] the id, held[k + i] the route. */
    for (i = 0; i < k; i++) {
        PyObject *start = PyList_GET_ITEM(starts, i), *weight;
        if (!PyTuple_CheckExact(start))
            goto fallback;
        if (i == 0)
            arity = PyTuple_GET_SIZE(start);
        if (PyTuple_GET_SIZE(start) != arity || (arity != 2 && arity != 3))
            goto fallback;
        if (arity == 3) {
            weight = PyTuple_GET_ITEM(start, 2);
            if (!PyFloat_CheckExact(weight)
                    || !(PyFloat_AS_DOUBLE(weight) > 0.0))
                goto fallback;
            weights[i] = PyFloat_AS_DOUBLE(weight);
        }
        held[i] = PyTuple_GET_ITEM(start, 0);
        held[k + i] = PyTuple_GET_ITEM(start, 1);
        Py_INCREF(held[i]);
        Py_INCREF(held[k + i]);
        taken = i + 1;
    }
    /* The ids: a present one, or one whose lookup raises, falls back. */
    for (i = 0; i < k; i++)
        if (PyDict_Contains(index, held[i]) != 0)
            goto fallback;
    /* The routes, copied as they are read. */
    for (i = 0; i < k; i++) {
        const char *data = NULL;
        Py_ssize_t m = 0;
        int kind = route_items(held[k + i], &data, &m);
        if (kind == ROUTE_OTHER || m < 1 || m > max_len
                || copy_route(data, kind, m, n_links, flat + total) < 0)
            goto fallback;
        lengths[i] = m;
        total += m;
    }
    if ((ids = PyList_New(k)) == NULL)
        goto fallback;
    for (i = 0; i < k; i++)
        PyList_SET_ITEM(ids, i, held[i]);   /* the list takes the id */
    for (i = 0; i < k; i++)
        Py_DECREF(held[k + i]);
    PyMem_Free(held);
    held = NULL;
    result = Py_BuildValue("(NnO)", ids, total,
                           arity == 3 ? Py_True : Py_False);
    goto release;
fallback:
    PyErr_Clear();
    for (i = 0; i < taken; i++) {
        Py_DECREF(held[i]);
        Py_DECREF(held[k + i]);
    }
    PyMem_Free(held);
    result = Py_NewRef(Py_None);
release:
    release(v, 3);
    return result;
}

static const Arg INSERT_ARGS[] = {
    {2, 1, 0, 'r', "routes"}, {6, 1, 0, 'd', "bottleneck"},
    {0, 0, 0, 'q', "flat"}, {1, 0, 0, 'q', "lengths"},
    {5, 0, 0, 'd', "padded_capacity"},
};

/* insert_routes(flat, lengths, routes, n0, pad, padded_capacity,
 * bottleneck): write the k = len(lengths) concatenated routes of flat
 * into storage columns [n0, n0 + k) of routes, middle-aligned (a route
 * of m hops: its first ceil(m/2) in rows 0, 1, ..., the rest ending in
 * the last row, pad in between), and each flow's bottleneck: the
 * left-to-right min fold of padded_capacity over its column, min_link
 * _value's fold (MIN_STEP) bit for bit.  Every hop count must be in
 * [1, width] and sum to len(flat) (ValueError); every hop and pad must
 * index padded_capacity (IndexError).  All is checked before the first
 * write. */
static PyObject *
insert_routes(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer bufs[5], *v[5];
    Py_ssize_t k, i, c, n0, width, stride, len, total = 0;
    const int64_t *flat, *lengths;
    const double *padded;
    int64_t pad, *dst;
    double *bottleneck;
    int rc = -1;

    if (nargs != 7) {
        PyErr_SetString(PyExc_TypeError, "insert_routes takes 7 arguments");
        return NULL;
    }
    n0 = PyLong_AsSsize_t(args[3]);
    pad = PyLong_AsLongLong(args[4]);
    if (PyErr_Occurred())
        return NULL;
    if (acquire(args, INSERT_ARGS, 5, bufs, v) < 0)
        return NULL;
    k = v[3]->shape[0];
    width = v[0]->shape[0];
    len = v[4]->shape[0];
    if (v[1]->shape[0] != k || width < 1 || n0 < 0
            || n0 > v[0]->shape[1] - k) {
        PyErr_Format(PyExc_ValueError, "insert_routes: %zd routes at column "
                     "%zd do not fit %zd columns, or bottleneck does not "
                     "hold them", k, n0, v[0]->shape[1]);
        goto release;
    }
    if (check_disjoint("insert_routes", INSERT_ARGS, v, 5) < 0)
        goto release;
    flat = v[2]->buf;
    lengths = v[3]->buf;
    for (i = 0; i < k; i++) {
        if (lengths[i] < 1 || lengths[i] > width) {
            PyErr_Format(PyExc_ValueError, "insert_routes: a route of %lld "
                         "hops in %zd rows", (long long)lengths[i], width);
            goto release;
        }
        total += lengths[i];
    }
    if (total != v[2]->shape[0]) {
        PyErr_Format(PyExc_ValueError, "insert_routes: the hop counts sum "
                     "to %zd, flat holds %zd", total, v[2]->shape[0]);
        goto release;
    }
    for (i = -1; i < total; i++) {
        int64_t slot = i < 0 ? pad : flat[i];
        if ((uint64_t)slot >= (uint64_t)len) {
            PyErr_Format(PyExc_IndexError, "route slot %lld is out of "
                         "bounds for %zd entries", (long long)slot, len);
            goto release;
        }
    }
    padded = v[4]->buf;
    bottleneck = v[1]->buf;
    stride = v[0]->strides[0] / 8;
    dst = (int64_t *)v[0]->buf + n0;
    for (i = 0; i < k; i++) {
        Py_ssize_t left = (lengths[i] + 1) / 2, gap = width - lengths[i];
        double a = 0.0;
        for (c = 0; c < width; c++) {
            int64_t slot = c < left ? flat[c]
                : c < left + gap ? pad : flat[c - gap];
            double value = padded[slot];
            dst[c * stride + i] = slot;
            a = c == 0 ? value : MIN_STEP(a, value);
        }
        bottleneck[i] = a;
        flat += lengths[i];
    }
    rc = 0;
release:
    release(v, 5);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

static const Arg PLACE_ARGS[] = {
    {2, 1, 0, 'O', "id_column"}, {4, 1, 0, 'q', "row_of"},
    {3, 0, 0, 'q', "handle_at"},
};

/* place_ids(ids, n0, id_column, handle_at, row_of): the id and handle
 * half of FlowTable's columnar insert of k = len(ids) flows at rows
 * [n0, n0 + k): id_column[n0 + i] = ids[i] and row_of[handle_at[n0 +
 * i]] = n0 + i.  The three vectors must be equally long and the rows
 * fit (ValueError), every handle must index row_of (IndexError), and
 * no output may share a byte with another buffer (ValueError), all
 * checked before the first write.  Each placed id gains a reference;
 * the ids it overwrites (None, on a consistent table) lose theirs
 * after the last write, as in swap_remove. */
static PyObject *
place_ids(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer bufs[3], *v[3];
    PyObject *ids, **column, **dropped = NULL;
    Py_ssize_t k, n0, cap, i;
    const int64_t *handle_at;
    int64_t *row_of;
    int rc = -1;

    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError, "place_ids takes 5 arguments");
        return NULL;
    }
    ids = args[0];
    if (!PyList_Check(ids)) {
        PyErr_SetString(PyExc_TypeError, "place_ids: ids must be a list");
        return NULL;
    }
    n0 = PyLong_AsSsize_t(args[1]);
    if (PyErr_Occurred())
        return NULL;
    if (acquire(args, PLACE_ARGS, 3, bufs, v) < 0)
        return NULL;
    k = PyList_GET_SIZE(ids);
    cap = v[0]->shape[0];
    if (v[1]->shape[0] != cap || v[2]->shape[0] != cap || n0 < 0
            || n0 > cap - k) {
        PyErr_Format(PyExc_ValueError, "place_ids: %zd ids at row %zd do "
                     "not fit %zd rows, or the vectors differ in length",
                     k, n0, cap);
        goto release;
    }
    if (check_disjoint("place_ids", PLACE_ARGS, v, 3) < 0)
        goto release;
    handle_at = (const int64_t *)v[2]->buf + n0;
    for (i = 0; i < k; i++)
        if ((uint64_t)handle_at[i] >= (uint64_t)cap) {
            PyErr_Format(PyExc_IndexError, "place_ids: handle %lld is out "
                         "of bounds for %zd rows", (long long)handle_at[i],
                         cap);
            goto release;
        }
    if ((dropped = PyMem_Malloc((k + 1) * sizeof(PyObject *))) == NULL) {
        PyErr_NoMemory();
        goto release;
    }
    column = (PyObject **)v[0]->buf + n0;
    row_of = v[1]->buf;
    for (i = 0; i < k; i++) {
        dropped[i] = column[i];
        column[i] = Py_NewRef(PyList_GET_ITEM(ids, i));
        row_of[handle_at[i]] = n0 + i;
    }
    rc = 0;
release:
    release(v, 3);
    if (rc == 0)
        for (i = 0; i < k; i++)
            Py_XDECREF(dropped[i]);
    PyMem_Free(dropped);
    if (rc < 0)
        return NULL;
    Py_RETURN_NONE;
}

/* swap_remove's fixed buffers, in argument order; the columns follow. */
static const Arg REMOVE_ARGS[] = {
    {4, 1, 0, 'r', "routes"}, {6, 1, 0, 'd', "weights"},
    {8, 1, 0, 'O', "ids"}, {9, 1, 0, 'q', "handle_at"},
    {10, 1, 0, 'q', "row_of"}, {1, 0, 1, 'q', "holes"},
    {2, 0, 1, 'q', "movers"},
};
enum { REMOVE_FIXED = 7 };

/* Copy the item of row movers[j] into row holes[j], j in [0, m), of a
 * 1-D vector of size-byte items. */
static void
move_items(char *base, Py_ssize_t size, const Py_ssize_t *holes,
           const Py_ssize_t *movers, Py_ssize_t m)
{
    Py_ssize_t j;
    switch (size) {
    case 8:
        for (j = 0; j < m; j++)
            ((int64_t *)base)[holes[j]] = ((int64_t *)base)[movers[j]];
        break;
    case 1:
        for (j = 0; j < m; j++)
            base[holes[j]] = base[movers[j]];
        break;
    default:
        for (j = 0; j < m; j++)
            memcpy(base + holes[j] * size, base + movers[j] * size, size);
    }
}

/* swap_remove(handles, holes, movers, n, routes, pad, weights, columns,
 * ids, handle_at, row_of): FlowTable's removal of the k flows whose
 * handles the list handles holds, in batch order, from a table of n
 * rows, landing where k sequential swap-removes would.
 *
 * Each net move "row movers[j] into row holes[j]" copies the mover's
 * hop column entries, weight, item of every columns vector (float64,
 * bool or any numeric dtype) and id into the hole, and re-keys its
 * handle: handle_at[hole] = the mover's handle, row_of[that] = hole.
 * Then the freed tail [n - k, n) takes the pad link in every hop
 * column, None as its id, and the handles in reverse batch order (the
 * free stack k sequential removals leave).  A freed handle's row_of
 * entry keeps the row it left.  With holes and movers None the moves
 * are the untangled swap chain's: hole j is row_of[handles[j]], mover j
 * row n - 1 - j; if a hole lies in the tail [n - k, n), the chain is
 * tangled, and the call writes nothing and returns False, for the
 * caller to replay and pass the net moves.  Otherwise it returns True.
 *
 * Checked before the first write: the argument types, 0 <= k <= n <=
 * the capacity, every vector of capacity length and holes as long as
 * movers (ValueError); every handle, moved handle and row_of entry an
 * index of row_of, every hole in [0, n - k) and every mover in [n - k,
 * n), so no row is both read and written (IndexError); no output
 * sharing a byte with another buffer (ValueError).  The id references: each moved id gains
 * one in its hole, each id overwritten (a removed flow's, and the
 * tail's) loses one, and None gains one per tail row; the losses are
 * released after the last write and the buffers' release, so Python
 * code a release runs sees a finished table.  No Python code runs
 * before that, so the handles list cannot change under the pass. */
static PyObject *
swap_remove(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *handles, *columns, **objs = NULL, **dropped = NULL;
    PyObject *result = NULL;
    Py_buffer *bufs = NULL, **v = NULL;
    Arg *spec = NULL;
    Py_ssize_t k, n, cap, m, i, j, c, n_columns, count, *rows = NULL;
    Py_ssize_t *holes, *movers, stride, n_dropped = 0;
    int64_t pad, *routes, *handle_at, *row_of;
    PyObject **ids;
    int acquired = 0;

    if (nargs != 11) {
        PyErr_SetString(PyExc_TypeError, "swap_remove takes 11 arguments");
        return NULL;
    }
    handles = args[0];
    columns = args[7];
    if (!PyList_Check(handles) || !PyList_Check(columns)) {
        PyErr_SetString(PyExc_TypeError, "swap_remove: handles and columns "
                        "must be lists");
        return NULL;
    }
    if ((args[1] == Py_None) != (args[2] == Py_None)) {
        PyErr_SetString(PyExc_TypeError, "swap_remove: holes and movers "
                        "are both None or both arrays");
        return NULL;
    }
    n = PyLong_AsSsize_t(args[3]);
    pad = PyLong_AsLongLong(args[5]);
    if (PyErr_Occurred())
        return NULL;
    k = PyList_GET_SIZE(handles);
    n_columns = PyList_GET_SIZE(columns);
    count = REMOVE_FIXED + n_columns;
    objs = PyMem_Malloc((nargs + n_columns) * sizeof(PyObject *));
    spec = PyMem_Malloc(count * sizeof(Arg));
    bufs = PyMem_Malloc(count * sizeof(Py_buffer));
    v = PyMem_Malloc(count * sizeof(Py_buffer *));
    rows = PyMem_Malloc((3 * k + 1) * sizeof(Py_ssize_t));
    if (objs == NULL || spec == NULL || bufs == NULL || v == NULL
            || rows == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    memcpy(objs, args, nargs * sizeof(PyObject *));
    memcpy(spec, REMOVE_ARGS, sizeof REMOVE_ARGS);
    for (c = 0; c < n_columns; c++) {
        Arg column = {(int)(nargs + c), 1, 0, '*', "a column"};
        objs[nargs + c] = PyList_GET_ITEM(columns, c);
        spec[REMOVE_FIXED + c] = column;
    }
    if (acquire(objs, spec, (int)count, bufs, v) < 0)
        goto done;
    acquired = 1;
    cap = v[1]->shape[0];
    if (v[0]->shape[1] != cap || k > n || n < 0 || n > cap
            || (v[5] != NULL && v[5]->shape[0] != v[6]->shape[0])) {
        PyErr_Format(PyExc_ValueError, "swap_remove: %zd removals from %zd "
                     "rows of a %zd-row table, or holes and movers of "
                     "unequal length", k, n, v[0]->shape[1]);
        goto done;
    }
    for (c = 2; c < count; c++)
        if (c != 5 && c != 6 && v[c]->shape[0] != cap) {
            PyErr_Format(PyExc_ValueError, "swap_remove: %s holds %zd "
                         "rows, not the table's %zd", spec[c].what,
                         v[c]->shape[0], cap);
            goto done;
        }
    if (check_disjoint("swap_remove", spec, v, (int)count) < 0)
        goto done;
    routes = v[0]->buf;
    stride = v[0]->strides[0] / 8;
    ids = v[2]->buf;
    handle_at = v[3]->buf;
    row_of = v[4]->buf;
    /* rows: the handles in [0, k), the holes in [k, 2k), the movers in
     * [2k, 3k). */
    holes = rows + k;
    movers = rows + 2 * k;
    for (j = 0; j < k; j++) {
        PyObject *item = PyList_GET_ITEM(handles, j);
        Py_ssize_t handle;
        if (!PyLong_Check(item)) {
            PyErr_SetString(PyExc_TypeError, "swap_remove: a handle is not "
                            "an int");
            goto done;
        }
        handle = PyLong_AsSsize_t(item);
        if (handle == -1 && PyErr_Occurred())
            PyErr_Clear();      /* past Py_ssize_t: out of bounds too */
        if (handle < 0 || handle >= cap) {
            PyErr_Format(PyExc_IndexError, "swap_remove: handle %zd is out "
                         "of bounds for %zd rows", handle, cap);
            goto done;
        }
        rows[j] = handle;
    }
    if (v[5] == NULL) {
        m = k;
        for (j = 0; j < k; j++) {
            int64_t hole = row_of[rows[j]];
            if (hole < 0 || hole >= n) {
                PyErr_Format(PyExc_IndexError, "swap_remove: handle %zd "
                             "names row %lld of %zd", rows[j],
                             (long long)hole, n);
                goto done;
            }
            if (hole >= n - k) {    /* tangled: the caller replays */
                result = Py_NewRef(Py_False);
                goto done;
            }
            holes[j] = hole;
            movers[j] = n - 1 - j;
        }
    } else {
        m = v[5]->shape[0];
        if (m > k) {
            PyErr_Format(PyExc_ValueError, "swap_remove: %zd moves for %zd "
                         "removals", m, k);
            goto done;
        }
        for (j = 0; j < m; j++) {
            holes[j] = ((const int64_t *)v[5]->buf)[j];
            movers[j] = ((const int64_t *)v[6]->buf)[j];
        }
    }
    for (j = 0; j < m; j++) {
        if (holes[j] < 0 || holes[j] >= n - k || movers[j] < n - k
                || movers[j] >= n) {
            PyErr_Format(PyExc_IndexError, "swap_remove: a move from row "
                         "%zd into row %zd: holes lie in [0, %zd), movers "
                         "in [%zd, %zd)", movers[j], holes[j], n - k, n - k,
                         n);
            goto done;
        }
        if ((uint64_t)handle_at[movers[j]] >= (uint64_t)cap) {
            PyErr_Format(PyExc_IndexError, "swap_remove: row %zd holds "
                         "handle %lld, out of bounds for %zd rows",
                         movers[j], (long long)handle_at[movers[j]], cap);
            goto done;
        }
    }
    if ((dropped = PyMem_Malloc((m + k + 1) * sizeof(PyObject *))) == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    /* The writes. */
    for (c = 0; c < v[0]->shape[0]; c++)
        move_items((char *)(routes + c * stride), 8, holes, movers, m);
    move_items(v[1]->buf, 8, holes, movers, m);
    for (c = REMOVE_FIXED; c < count; c++)
        move_items(v[c]->buf, v[c]->itemsize, holes, movers, m);
    for (j = 0; j < m; j++) {
        PyObject *moved = ids[movers[j]];
        Py_XINCREF(moved);
        dropped[n_dropped++] = ids[holes[j]];
        ids[holes[j]] = moved;
    }
    for (j = 0; j < m; j++) {
        int64_t moved = handle_at[movers[j]];
        handle_at[holes[j]] = moved;
        row_of[moved] = holes[j];
    }
    for (c = 0; c < v[0]->shape[0]; c++)
        for (i = n - k; i < n; i++)
            routes[c * stride + i] = pad;
    for (i = n - k; i < n; i++) {
        dropped[n_dropped++] = ids[i];
        ids[i] = Py_NewRef(Py_None);
        handle_at[i] = rows[n - 1 - i];    /* handles[::-1] */
    }
    result = Py_NewRef(Py_True);
done:
    if (acquired)
        release(v, (int)count);
    PyMem_Free(objs);
    PyMem_Free(spec);
    PyMem_Free(bufs);
    PyMem_Free(v);
    PyMem_Free(rows);
    for (i = 0; i < n_dropped; i++)
        Py_XDECREF(dropped[i]);
    PyMem_Free(dropped);
    return result;
}

/* _force_threads(t): walk on t threads (capped at the chunk count)
 * instead of the affinity mask's count, or on that count again if t
 * is 0.  Tests only: the bits must not depend on t. */
static PyObject *
force_threads(PyObject *self, PyObject *arg)
{
    Py_ssize_t t = PyLong_AsSsize_t(arg);
    if (t == -1 && PyErr_Occurred())
        return NULL;
    if (t < 0 || t > 64) {
        PyErr_SetString(PyExc_ValueError, "_force_threads takes 0 to 64");
        return NULL;
    }
    forced_threads = t;
    Py_RETURN_NONE;
}

static PyMethodDef methods[] = {
    {"fold", (PyCFunction)(void (*)(void))fold, METH_FASTCALL,
     "fold(op, padded, routes, r0, r1, block, out)"},
    {"scatter", (PyCFunction)(void (*)(void))scatter, METH_FASTCALL,
     "scatter(a, b, routes, r0, r1, block, out_a, out_b)"},
    {"ned_log_pass", (PyCFunction)(void (*)(void))ned_log_pass,
     METH_FASTCALL, "ned_log_pass(padded, routes, n, block, caps, weights, "
     "min_price_sum, rates, load, hessian)"},
    {"f_norm_pass", (PyCFunction)(void (*)(void))f_norm_pass, METH_FASTCALL,
     "f_norm_pass(padded, routes, n, block, rates, epsilon, scale_up, out, "
     "last, pending, threshold, changed)"},
    {"threshold_mask", (PyCFunction)(void (*)(void))threshold_mask,
     METH_FASTCALL, "threshold_mask(rates, last, pending, threshold, "
     "changed)"},
    {"pack_starts", (PyCFunction)(void (*)(void))pack_starts,
     METH_FASTCALL, "pack_starts(starts, index_of, max_route_len, n_links, "
     "lengths, flat, weights)"},
    {"insert_routes", (PyCFunction)(void (*)(void))insert_routes,
     METH_FASTCALL, "insert_routes(flat, lengths, routes, n0, pad, "
     "padded_capacity, bottleneck)"},
    {"place_ids", (PyCFunction)(void (*)(void))place_ids, METH_FASTCALL,
     "place_ids(ids, n0, id_column, handle_at, row_of)"},
    {"swap_remove", (PyCFunction)(void (*)(void))swap_remove, METH_FASTCALL,
     "swap_remove(handles, holes, movers, n, routes, pad, weights, columns, "
     "ids, handle_at, row_of)"},
    {"_force_threads", force_threads, METH_O, "_force_threads(t)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernels",
    "Compiled route kernels and allocator passes of repro.core.kernels.",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    import_array();
    return PyModule_Create(&module);
}
