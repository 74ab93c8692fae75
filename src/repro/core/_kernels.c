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
 * np.minimum, the branchless ``a != a ? a : (a > v ? a : v)`` (and
 * ``<``), which keeps numpy's answers for NaN and for equal operands
 * (signed zeros: the second operand wins a tie).  One case is the
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
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { FOLD_SUM = 0, FOLD_MAX = 1, FOLD_MIN = 2 };

/* np.maximum, element for element. */
#define MAXIMUM(a, v) ((a) != (a) ? (a) : ((a) > (v) ? (a) : (v)))

/* A 1-D C-contiguous vector of 8-byte float64 ("d") or 1-byte bool
 * ("?") items. */
static int
get_typed(PyObject *obj, Py_buffer *view, int writable, const char *what,
          const char *format)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT;
    if (writable)
        flags |= PyBUF_WRITABLE;
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    if (view->ndim != 1 || strcmp(view->format, format) != 0) {
        PyErr_Format(PyExc_TypeError, "%s must be a 1-D contiguous %s "
                     "array", what, format[0] == 'd' ? "float64" : "bool");
        PyBuffer_Release(view);
        return -1;
    }
    return 0;
}

/* The route storage: 2-D int64, each row contiguous. */
static int
get_routes(PyObject *obj, Py_buffer *view)
{
    const char *format;
    if (PyObject_GetBuffer(obj, view, PyBUF_RECORDS_RO) < 0)
        return -1;
    format = view->format;
    if (format[0] == '=' || format[0] == '<' || format[0] == '@')
        format++;
    if (view->ndim != 2 || view->itemsize != 8
            || (strcmp(format, "l") != 0 && strcmp(format, "q") != 0)
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
 * route storage), 'd' (float64) or '?' (bool), writable if out, None
 * allowed (and skipped) if optional. */
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
            ? get_routes(obj, &bufs[k])
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
    const char *lo, *hi, *lo2, *hi2;
    int i, j;
    for (i = 0; i < count; i++) {
        if (views[i] == NULL || !spec[i].out)
            continue;
        span_of(views[i], &lo, &hi);
        for (j = 0; j < count; j++) {
            if (j == i || views[j] == NULL)
                continue;
            span_of(views[j], &lo2, &hi2);
            if (lo < hi2 && lo2 < hi) {
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
        case FOLD_MAX:
            FOLD_COLUMN(MAXIMUM(a, v))
            break;
        default:
            FOLD_COLUMN(a != a ? a : (a < v ? a : v))
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

/* The section 6.4 filter on rows [0, m). */
static void
mask_rows(const double *rates, double *last, char *pending,
          double threshold, char *changed, Py_ssize_t m)
{
    Py_ssize_t i;
    for (i = 0; i < m; i++) {
        double r = rates[i], s = last[i];
        char flag = (fabs(r - s) > threshold * s) | (s != s)
                    | (pending[i] != 0);
        if (flag)
            last[i] = r;
        pending[i] = 0;
        changed[i] = flag;
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

/* Run w's chunks on thread_count threads with the GIL released, then
 * combine the partials on the calling thread.  A bad slot raises the
 * IndexError of the lowest failing chunk, the one a walk in chunk
 * order stops at, and combines nothing. */
static int
walk(Walk *w)
{
    Py_ssize_t T, t, failed;
    Share *shares;
    double *scratch = NULL;
    int64_t slot = 0;

    if (w->r1 == w->r0)
        return 0;
    w->nchunks = (w->r1 - w->r0 - 1) / w->block + 1;   /* no overflow */
    T = thread_count(w->nchunks);
    w->partials = NULL;
    shares = calloc((size_t)T, sizeof(Share));
    if (w->parts)
        w->partials = malloc((size_t)(w->nchunks * w->parts)
                             * (size_t)(w->s.len ? w->s.len : 1)
                             * sizeof(double));
    if (w->scratch)
        scratch = malloc((size_t)(T * w->scratch) * sizeof(double));
    if (shares == NULL || (w->parts && w->partials == NULL)
            || (w->scratch && scratch == NULL)) {
        free(scratch);
        free(w->partials);
        free(shares);
        PyErr_NoMemory();
        return -1;
    }
    for (t = 0; t < T; t++) {
        shares[t].w = w;
        shares[t].t = t;
        shares[t].T = T;
        shares[t].failed = w->nchunks;
        shares[t].scratch = scratch ? scratch + t * w->scratch : NULL;
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
    free(scratch);
    free(w->partials);
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

/* NED's log-utility chunk: the price sums into scratch, clamped; the
 * rates into out and the derivatives into the scratch's second half;
 * the pair scatter of both.  a: the weights. */
static int
ned_log_walk(const Walk *w, Py_ssize_t c0, Py_ssize_t m, double *part,
             double *scratch, int64_t *bad)
{
    double *rho = scratch, *deriv = scratch + w->scratch / 2;
    double *rate = w->out + c0;
    const double *wt = w->a + c0;
    Py_ssize_t i;

    if (fold_chunk(FOLD_SUM, w->padded, &w->s, c0, m, rho, bad) < 0)
        return -1;
    if (w->caps != NULL) {
        const double *cap = w->caps + c0;
        for (i = 0; i < m; i++)
            rho[i] = MAXIMUM(rho[i], cap[i]);
    }
    for (i = 0; i < m; i++) {
        double p = MAXIMUM(rho[i], w->min_price_sum);
        rate[i] = wt[i] / p;
        deriv[i] = -(wt[i] / (p * p));
    }
    return scatter_chunk(rate, deriv, &w->s, c0, m, part, bad);
}

/* F-NORM's chunk: the worst ratio into out, clamped, divided into the
 * rates (a); then the mask on the chunk, unless last is NULL. */
static int
f_norm_walk(const Walk *w, Py_ssize_t c0, Py_ssize_t m, double *part,
            double *scratch, int64_t *bad)
{
    double *worst = w->out + c0;
    const double *rate = w->a + c0;
    Py_ssize_t i;

    if (fold_chunk(FOLD_MAX, w->padded, &w->s, c0, m, worst, bad) < 0)
        return -1;
    for (i = 0; i < m; i++) {
        double x = MAXIMUM(worst[i], w->epsilon);
        if (!w->scale_up)
            x = MAXIMUM(x, 1.0);
        worst[i] = rate[i] / x;
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
    return PyModule_Create(&module);
}
