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
 * per-flow vector a pass takes is checked to hold exactly n entries.
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
 * and the passes against their numpy spelling on hostile values.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
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

static int
get_vector(PyObject *obj, Py_buffer *view, int writable, const char *what)
{
    return get_typed(obj, view, writable, what, "d");
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

static int
get_span(PyObject *const *args, Py_ssize_t *r0, Py_ssize_t *r1,
         Py_ssize_t *block, Py_ssize_t columns)
{
    *r0 = PyLong_AsSsize_t(args[0]);
    *r1 = PyLong_AsSsize_t(args[1]);
    *block = PyLong_AsSsize_t(args[2]);
    if (PyErr_Occurred())
        return -1;
    if (*r0 < 0 || *r1 < *r0 || *r1 > columns || *block < 1) {
        PyErr_Format(PyExc_ValueError,
                     "bad row span [%zd, %zd) (block %zd) over %zd flows",
                     *r0, *r1, *block, columns);
        return -1;
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

static void
bad_slot(int64_t slot, Py_ssize_t len)
{
    PyErr_Format(PyExc_IndexError,
                 "route slot %lld is out of bounds for %zd entries",
                 (long long)slot, len);
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
 * NULL) over rows [c0, c0 + m): a running sum per link from 0.0 in
 * column -> flow order, the pair interleaved in part, one cache line
 * for both.  The chunk at row 0 is written to out, a later one added
 * onto it. */
static int
scatter_chunk(const double *ca, const double *cb, const Storage *s,
              Py_ssize_t c0, Py_ssize_t m, double *part, double *out_a,
              double *out_b, int64_t *bad)
{
    const int64_t *col;
    Py_ssize_t i, h, l, len = s->len;
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
    if (cb) {
        if (c0 == 0) {
            for (l = 0; l < len; l++) {
                out_a[l] = part[2 * l];
                out_b[l] = part[2 * l + 1];
            }
        } else {
            for (l = 0; l < len; l++) {
                out_a[l] = out_a[l] + part[2 * l];
                out_b[l] = out_b[l] + part[2 * l + 1];
            }
        }
    } else if (c0 == 0) {
        memcpy(out_a, part, (size_t)len * sizeof(double));
    } else {
        for (l = 0; l < len; l++)
            out_a[l] = out_a[l] + part[l];
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

/* fold(op, padded, routes, r0, r1, block, out): out[r - r0] = the
 * left-to-right fold of padded[routes[:, r]] over rows [r0, r1),
 * walked one block-row chunk at a time. */
static PyObject *
fold(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer pv, rv, ov;
    Py_ssize_t r0, r1, block, c0, m;
    Storage s;
    int op;
    int64_t slot = 0;

    if (nargs != 7) {
        PyErr_SetString(PyExc_TypeError, "fold takes 7 arguments");
        return NULL;
    }
    op = (int)PyLong_AsLong(args[0]);
    if (op == -1 && PyErr_Occurred())
        return NULL;
    if (get_vector(args[1], &pv, 0, "padded") < 0)
        return NULL;
    if (get_routes(args[2], &rv) < 0) {
        PyBuffer_Release(&pv);
        return NULL;
    }
    if (get_vector(args[6], &ov, 1, "out") < 0) {
        PyBuffer_Release(&rv);
        PyBuffer_Release(&pv);
        return NULL;
    }
    if (get_span(args + 3, &r0, &r1, &block, rv.shape[1]) < 0)
        goto fail;
    if (ov.shape[0] != r1 - r0 || rv.shape[0] < 1
            || op < FOLD_SUM || op > FOLD_MIN) {
        PyErr_SetString(PyExc_ValueError,
                        "fold: out must hold r1 - r0 rows, routes one "
                        "column, op be 0, 1 or 2");
        goto fail;
    }
    storage_of(&s, &rv, pv.shape[0]);
    for (c0 = r0; c0 < r1; c0 += block) {
        m = r1 - c0 < block ? r1 - c0 : block;
        if (fold_chunk(op, pv.buf, &s, c0, m,
                       (double *)ov.buf + (c0 - r0), &slot) < 0)
            goto bad;
    }
    PyBuffer_Release(&ov);
    PyBuffer_Release(&rv);
    PyBuffer_Release(&pv);
    Py_RETURN_NONE;
bad:
    bad_slot(slot, s.len);
fail:
    PyBuffer_Release(&ov);
    PyBuffer_Release(&rv);
    PyBuffer_Release(&pv);
    return NULL;
}

/* scatter(a, b, routes, r0, r1, block, out_a, out_b): link totals of
 * the per-flow values a (and b, unless it is None) over rows
 * [r0, r1), a[0] being row r0's value.  The chunks' partials are
 * combined in chunk order (scatter_chunk), so the rows of a table may
 * arrive over several calls in chunk order. */
static PyObject *
scatter(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer av, bv, rv, oav, obv;
    int pair, held_b = 0, held_ob = 0;
    Py_ssize_t r0, r1, block, c0, m, len;
    const double *a, *b = NULL;
    double *out_b = NULL, *part = NULL;
    Storage s;
    int64_t slot = 0;
    PyObject *result = NULL;

    if (nargs != 8) {
        PyErr_SetString(PyExc_TypeError, "scatter takes 8 arguments");
        return NULL;
    }
    pair = args[1] != Py_None;
    if (get_vector(args[0], &av, 0, "values") < 0)
        return NULL;
    if (get_routes(args[2], &rv) < 0)
        goto release_a;
    if (get_vector(args[6], &oav, 1, "out") < 0)
        goto release_r;
    if (pair) {
        if (get_vector(args[1], &bv, 0, "values") < 0)
            goto release;
        held_b = 1;
        if (get_vector(args[7], &obv, 1, "out") < 0)
            goto release;
        held_ob = 1;
    }
    if (get_span(args + 3, &r0, &r1, &block, rv.shape[1]) < 0)
        goto release;
    len = oav.shape[0];
    if (av.shape[0] < r1 - r0 || (pair && (bv.shape[0] < r1 - r0
                                           || obv.shape[0] != len))) {
        PyErr_SetString(PyExc_ValueError,
                        "scatter: values shorter than the span, or "
                        "outputs of unequal length");
        goto release;
    }
    a = av.buf;
    if (pair) {
        b = bv.buf;
        out_b = obv.buf;
    }
    storage_of(&s, &rv, len);
    part = malloc((size_t)(pair ? 2 : 1) * (size_t)(len ? len : 1)
                  * sizeof(double));
    if (part == NULL) {
        PyErr_NoMemory();
        goto release;
    }
    for (c0 = r0; c0 < r1; c0 += block) {
        m = r1 - c0 < block ? r1 - c0 : block;
        if (scatter_chunk(a + (c0 - r0), pair ? b + (c0 - r0) : NULL, &s,
                          c0, m, part, oav.buf, out_b, &slot) < 0)
            goto bad;
    }
    result = Py_None;
    Py_INCREF(result);
    goto release;
bad:
    bad_slot(slot, len);
release:
    free(part);
    if (held_ob)
        PyBuffer_Release(&obv);
    if (held_b)
        PyBuffer_Release(&bv);
    PyBuffer_Release(&oav);
release_r:
    PyBuffer_Release(&rv);
release_a:
    PyBuffer_Release(&av);
    return result;
}

/* ned_log_pass(padded, routes, n, block, caps, weights, min_price_sum,
 * rates, load, hessian): NED's pass for the log utility.  Per chunk:
 * the price sums of padded over the routes, clamped at caps (unless
 * None) and at min_price_sum; the rates w / rho into rates and the
 * derivatives -(w / (rho * rho)) into a chunk buffer; then the pair
 * scatter of both into load and hessian (one bin per padded entry). */
static PyObject *
ned_log_pass(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer pv, rv, cv, wv, ov, lv, hv;
    Py_buffer *views[7] = {NULL};
    Py_ssize_t n, block, c0, i, m, len;
    const double *caps = NULL, *weights;
    double min_price_sum, *rates, *rho = NULL, *deriv = NULL, *part = NULL;
    Storage s;
    int64_t slot = 0;
    PyObject *result = NULL;

    if (nargs != 10) {
        PyErr_SetString(PyExc_TypeError, "ned_log_pass takes 10 arguments");
        return NULL;
    }
    n = PyLong_AsSsize_t(args[2]);
    block = PyLong_AsSsize_t(args[3]);
    min_price_sum = PyFloat_AsDouble(args[6]);
    if (PyErr_Occurred())
        return NULL;
    if (get_vector(args[0], &pv, 0, "padded") < 0)
        goto release;
    views[0] = &pv;
    if (get_routes(args[1], &rv) < 0)
        goto release;
    views[1] = &rv;
    if (args[4] != Py_None) {
        if (get_vector(args[4], &cv, 0, "caps") < 0)
            goto release;
        views[2] = &cv;
    }
    if (get_vector(args[5], &wv, 0, "weights") < 0)
        goto release;
    views[3] = &wv;
    if (get_vector(args[7], &ov, 1, "rates") < 0)
        goto release;
    views[4] = &ov;
    if (get_vector(args[8], &lv, 1, "load") < 0)
        goto release;
    views[5] = &lv;
    if (get_vector(args[9], &hv, 1, "hessian") < 0)
        goto release;
    views[6] = &hv;
    len = pv.shape[0];
    if (n < 0 || n > rv.shape[1] || block < 1 || rv.shape[0] < 1
            || lv.shape[0] != len || hv.shape[0] != len) {
        PyErr_Format(PyExc_ValueError, "ned_log_pass: bad span of %zd "
                     "flows (block %zd) over %zd, or load / hessian not "
                     "one bin per padded entry", n, block, rv.shape[1]);
        goto release;
    }
    if (check_lengths("ned_log_pass", n, views + 2, 3) < 0)
        goto release;
    storage_of(&s, &rv, len);
    if (views[2] != NULL)
        caps = cv.buf;
    weights = wv.buf;
    rates = ov.buf;
    m = n < block ? n : block;
    rho = malloc((size_t)(m ? m : 1) * sizeof(double));
    deriv = malloc((size_t)(m ? m : 1) * sizeof(double));
    part = malloc((size_t)2 * (size_t)(len ? len : 1) * sizeof(double));
    if (rho == NULL || deriv == NULL || part == NULL) {
        PyErr_NoMemory();
        goto release;
    }
    for (c0 = 0; c0 < n; c0 += block) {
        const double *w = weights + c0;
        double *rate = rates + c0;
        m = n - c0 < block ? n - c0 : block;
        if (fold_chunk(FOLD_SUM, pv.buf, &s, c0, m, rho, &slot) < 0)
            goto bad;
        if (caps != NULL) {
            const double *cap = caps + c0;
            for (i = 0; i < m; i++)
                rho[i] = MAXIMUM(rho[i], cap[i]);
        }
        for (i = 0; i < m; i++) {
            double p = MAXIMUM(rho[i], min_price_sum);
            rate[i] = w[i] / p;
            deriv[i] = -(w[i] / (p * p));
        }
        if (scatter_chunk(rate, deriv, &s, c0, m, part, lv.buf, hv.buf,
                          &slot) < 0)
            goto bad;
    }
    result = Py_None;
    Py_INCREF(result);
    goto release;
bad:
    bad_slot(slot, len);
release:
    free(part);
    free(deriv);
    free(rho);
    for (i = 6; i >= 0; i--)
        if (views[i] != NULL)
            PyBuffer_Release(views[i]);
    return result;
}

/* f_norm_pass(padded, routes, n, block, rates, epsilon, scale_up, out,
 * last, pending, threshold, changed): F-NORM's pass.  Per chunk: the
 * max of padded (the per-link ratios, pad -inf) over the routes,
 * clamped at epsilon and, unless scale_up, at 1.0; out = rates / that.
 * Unless last is None, the section 6.4 mask then runs on the chunk
 * (mask_rows), updating last and pending in place. */
static PyObject *
f_norm_pass(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer pv, rv, av, ov, sv, qv, fv;
    Py_buffer *views[7] = {NULL};
    Py_ssize_t n, block, c0, i, m;
    int scale_up;
    double epsilon, threshold = 0.0, *out;
    const double *rates;
    Storage s;
    int64_t slot = 0;

    if (nargs != 12) {
        PyErr_SetString(PyExc_TypeError, "f_norm_pass takes 12 arguments");
        return NULL;
    }
    n = PyLong_AsSsize_t(args[2]);
    block = PyLong_AsSsize_t(args[3]);
    epsilon = PyFloat_AsDouble(args[5]);
    scale_up = PyObject_IsTrue(args[6]);
    if (args[8] != Py_None)
        threshold = PyFloat_AsDouble(args[10]);
    if (PyErr_Occurred())
        return NULL;
    if (get_vector(args[0], &pv, 0, "padded") < 0)
        goto fail;
    views[0] = &pv;
    if (get_routes(args[1], &rv) < 0)
        goto fail;
    views[1] = &rv;
    if (get_vector(args[4], &av, 0, "rates") < 0)
        goto fail;
    views[2] = &av;
    if (get_vector(args[7], &ov, 1, "out") < 0)
        goto fail;
    views[3] = &ov;
    if (args[8] != Py_None) {
        if (get_vector(args[8], &sv, 1, "last") < 0)
            goto fail;
        views[4] = &sv;
        if (get_typed(args[9], &qv, 1, "pending", "?") < 0)
            goto fail;
        views[5] = &qv;
        if (get_typed(args[11], &fv, 1, "changed", "?") < 0)
            goto fail;
        views[6] = &fv;
    }
    if (n < 0 || n > rv.shape[1] || block < 1 || rv.shape[0] < 1) {
        PyErr_Format(PyExc_ValueError, "f_norm_pass: bad span of %zd "
                     "flows (block %zd) over %zd", n, block, rv.shape[1]);
        goto fail;
    }
    if (check_lengths("f_norm_pass", n, views + 2, 5) < 0)
        goto fail;
    storage_of(&s, &rv, pv.shape[0]);
    rates = av.buf;
    out = ov.buf;
    for (c0 = 0; c0 < n; c0 += block) {
        double *worst = out + c0;
        const double *rate = rates + c0;
        m = n - c0 < block ? n - c0 : block;
        if (fold_chunk(FOLD_MAX, pv.buf, &s, c0, m, worst, &slot) < 0) {
            bad_slot(slot, s.len);
            goto fail;
        }
        for (i = 0; i < m; i++) {
            double w = MAXIMUM(worst[i], epsilon);
            if (!scale_up)
                w = MAXIMUM(w, 1.0);
            worst[i] = rate[i] / w;
        }
        if (views[4] != NULL)
            mask_rows(worst, (double *)sv.buf + c0, (char *)qv.buf + c0,
                      threshold, (char *)fv.buf + c0, m);
    }
    for (i = 6; i >= 0; i--)
        if (views[i] != NULL)
            PyBuffer_Release(views[i]);
    Py_RETURN_NONE;
fail:
    for (i = 6; i >= 0; i--)
        if (views[i] != NULL)
            PyBuffer_Release(views[i]);
    return NULL;
}

/* threshold_mask(rates, last, pending, threshold, changed): the
 * section 6.4 mask (mask_rows) over whole vectors of one length. */
static PyObject *
threshold_mask(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer av, sv, qv, fv;
    Py_buffer *views[4] = {NULL};
    double threshold;
    int k;
    PyObject *result = NULL;

    if (nargs != 5) {
        PyErr_SetString(PyExc_TypeError,
                        "threshold_mask takes 5 arguments");
        return NULL;
    }
    threshold = PyFloat_AsDouble(args[3]);
    if (PyErr_Occurred())
        return NULL;
    if (get_vector(args[0], &av, 0, "rates") < 0)
        goto release;
    views[0] = &av;
    if (get_vector(args[1], &sv, 1, "last") < 0)
        goto release;
    views[1] = &sv;
    if (get_typed(args[2], &qv, 1, "pending", "?") < 0)
        goto release;
    views[2] = &qv;
    if (get_typed(args[4], &fv, 1, "changed", "?") < 0)
        goto release;
    views[3] = &fv;
    if (check_lengths("threshold_mask", sv.shape[0], views, 4) < 0)
        goto release;
    mask_rows(av.buf, sv.buf, qv.buf, threshold, fv.buf, sv.shape[0]);
    result = Py_None;
    Py_INCREF(result);
release:
    for (k = 3; k >= 0; k--)
        if (views[k] != NULL)
            PyBuffer_Release(views[k]);
    return result;
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
