/*
 * The route gather/scatter kernels of repro.core.kernels, compiled at
 * first import (kernels.py builds and caches this file).
 *
 * Storage.  ``routes`` is the flow table's hop-major route storage: a
 * (width, capacity) int64 array whose row h is hop column h over the
 * flows, contiguous along the flows (any row stride).  Pad slots name
 * the pad link, the last entry of ``padded`` / the last bin of a
 * scatter.  Every slot read is checked against [0, len) with one
 * unsigned compare; an out-of-range slot raises IndexError.
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
 * The folds are numpy's ufuncs element by element: ``acc + v``
 * (np.add), and for np.maximum / np.minimum the branchless
 * ``acc != acc ? acc : (acc > v ? acc : v)`` (and ``<``), which keeps
 * numpy's answers for NaN and for equal operands (signed zeros).  The
 * build passes -ffp-contract=off and no fast-math flag, so no
 * operation is fused or reordered.  tests/test_golden_kernels.py pins
 * the bits against constants recorded when these loops were numpy's
 * bincount / np.add.at / ufunc calls; tests/test_csr_kernels.py pins
 * them against scalar references.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { FOLD_SUM = 0, FOLD_MAX = 1, FOLD_MIN = 2 };

/* A float64 vector: 1-D, C-contiguous, 8-byte items. */
static int
get_vector(PyObject *obj, Py_buffer *view, int writable, const char *what)
{
    int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT;
    if (writable)
        flags |= PyBUF_WRITABLE;
    if (PyObject_GetBuffer(obj, view, flags) < 0)
        return -1;
    if (view->ndim != 1 || view->itemsize != 8
            || strcmp(view->format, "d") != 0) {
        PyErr_Format(PyExc_TypeError,
                     "%s must be a 1-D contiguous float64 array", what);
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

static void
bad_slot(int64_t slot, Py_ssize_t len)
{
    PyErr_Format(PyExc_IndexError,
                 "route slot %lld is out of bounds for %zd entries",
                 (long long)slot, len);
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

/* fold(op, padded, routes, r0, r1, block, out): out[r - r0] = the
 * left-to-right fold of padded[routes[:, r]] over rows [r0, r1),
 * walked one block-row chunk at a time. */
static PyObject *
fold(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer pv, rv, ov;
    Py_ssize_t r0, r1, block, c0, i, h, m, len, width, stride;
    const double *padded;
    const int64_t *routes, *col;
    double *out, *dst;
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
    padded = pv.buf;
    len = pv.shape[0];
    routes = rv.buf;
    width = rv.shape[0];
    stride = rv.strides[0] / 8;
    out = ov.buf;
    for (c0 = r0; c0 < r1; c0 += block) {
        m = r1 - c0 < block ? r1 - c0 : block;
        dst = out + (c0 - r0);
        col = routes + c0;
        for (i = 0; i < m; i++) {
            slot = col[i];
            if ((uint64_t)slot >= (uint64_t)len)
                goto bad;
            dst[i] = padded[slot];
        }
        for (h = 1; h < width; h++) {
            col = routes + h * stride + c0;
            switch (op) {
            case FOLD_SUM:
                FOLD_COLUMN(a + v)
                break;
            case FOLD_MAX:
                FOLD_COLUMN(a != a ? a : (a > v ? a : v))
                break;
            default:
                FOLD_COLUMN(a != a ? a : (a < v ? a : v))
                break;
            }
        }
    }
    PyBuffer_Release(&ov);
    PyBuffer_Release(&rv);
    PyBuffer_Release(&pv);
    Py_RETURN_NONE;
bad:
    bad_slot(slot, len);
fail:
    PyBuffer_Release(&ov);
    PyBuffer_Release(&rv);
    PyBuffer_Release(&pv);
    return NULL;
}

/* scatter(a, b, routes, r0, r1, block, out_a, out_b): link totals of
 * the per-flow values a (and b, unless it is None) over rows
 * [r0, r1), a[0] being row r0's value.  Each chunk's partial is a
 * running sum per link from 0.0 in column -> flow order; the chunk at
 * row 0 is written to out, each later one added onto it, so the rows
 * of a table may arrive over several calls in chunk order.  A pair
 * keeps its two sums interleaved, one cache line for both. */
static PyObject *
scatter(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer av, bv, rv, oav, obv;
    int pair, held_b = 0, held_ob = 0;
    Py_ssize_t r0, r1, block, c0, i, h, l, m, len, width, stride;
    const double *a, *b = NULL;
    const int64_t *routes, *col;
    double *out_a, *out_b = NULL, *part = NULL;
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
    routes = rv.buf;
    width = rv.shape[0];
    stride = rv.strides[0] / 8;
    out_a = oav.buf;
    if (pair) {
        b = bv.buf;
        out_b = obv.buf;
    }
    part = malloc((size_t)(pair ? 2 : 1) * (size_t)(len ? len : 1)
                  * sizeof(double));
    if (part == NULL) {
        PyErr_NoMemory();
        goto release;
    }
    for (c0 = r0; c0 < r1; c0 += block) {
        const double *ca = a + (c0 - r0), *cb = pair ? b + (c0 - r0) : NULL;
        m = r1 - c0 < block ? r1 - c0 : block;
        memset(part, 0, (size_t)(pair ? 2 * len : len) * sizeof(double));
        for (h = 0; h < width; h++) {
            col = routes + h * stride + c0;
            if (pair) {
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
        if (pair) {
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

static PyMethodDef methods[] = {
    {"fold", (PyCFunction)(void (*)(void))fold, METH_FASTCALL,
     "fold(op, padded, routes, r0, r1, block, out)"},
    {"scatter", (PyCFunction)(void (*)(void))scatter, METH_FASTCALL,
     "scatter(a, b, routes, r0, r1, block, out_a, out_b)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernels",
    "Compiled route kernels of repro.core.kernels.", -1, methods,
    NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC
PyInit__kernels(void)
{
    return PyModule_Create(&module);
}
