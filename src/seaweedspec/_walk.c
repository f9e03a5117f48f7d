/* Compiled kernel: potentials and spectrum_counts with the contract of the
   functions of the same names in _kernel.py, whose docstrings give the
   conventions. Both run the one walk below.

   Every part must be an int >= 1 that fits in Py_ssize_t, and both sides must
   have the same sum n; this is checked before any array is touched. The
   working arrays take one heap block per call. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

typedef struct {
    PyObject *top, *bottom; /* PySequence_Fast of the two part sequences */
    Py_ssize_t n;
    Py_ssize_t *tnbr, *bnbr, *phi; /* n + 1 slots each, vertex v at [v] */
} Meander;

static int parts_sum(PyObject *seq, Py_ssize_t *sum)
{
    PyObject **items = PySequence_Fast_ITEMS(seq);
    Py_ssize_t k, p, s = 0;

    for (k = 0; k < PySequence_Fast_GET_SIZE(seq); k++) {
        if (!PyLong_Check(items[k])) {
            PyErr_Format(PyExc_TypeError, "parts must be ints, not %.100s",
                         Py_TYPE(items[k])->tp_name);
            return -1;
        }
        p = PyLong_AsSsize_t(items[k]);
        if (p == -1 && PyErr_Occurred())
            return -1;
        if (p < 1) {
            PyErr_Format(PyExc_ValueError, "parts must be >= 1, got %zd", p);
            return -1;
        }
        if (p > PY_SSIZE_T_MAX - s) {
            PyErr_SetString(PyExc_OverflowError, "parts sum past Py_ssize_t");
            return -1;
        }
        s += p;
    }
    *sum = s;
    return 0;
}

/* Per-vertex partner through one side's arcs, 0 meaning no arc. */
static void fill_neighbors(PyObject *seq, Py_ssize_t *nbr)
{
    PyObject **items = PySequence_Fast_ITEMS(seq);
    Py_ssize_t k, i, j, s = 1;

    for (k = 0; k < PySequence_Fast_GET_SIZE(seq); k++) {
        i = s;
        j = s + PyLong_AsSsize_t(items[k]) - 1;
        s = j + 1;
        for (; i < j; i++, j--) {
            nbr[i] = j;
            nbr[j] = i;
        }
        if (i == j)
            nbr[i] = 0;
    }
}

/* Check the arguments and fill both partner arrays. On failure an exception
   is set; release(m) is due either way. */
static int build(Meander *m, PyObject *const *args, Py_ssize_t nargs, const char *name)
{
    Py_ssize_t bottom_sum;

    m->top = m->bottom = NULL;
    m->tnbr = NULL;
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "%s() takes 2 arguments (%zd given)", name, nargs);
        return -1;
    }
    if (!(m->top = PySequence_Fast(args[0], "top must be a sequence of parts")) ||
        !(m->bottom = PySequence_Fast(args[1], "bottom must be a sequence of parts")) ||
        parts_sum(m->top, &m->n) < 0 || parts_sum(m->bottom, &bottom_sum) < 0)
        return -1;
    if (m->n != bottom_sum) {
        PyErr_Format(PyExc_ValueError, "top sums to %zd but bottom to %zd", m->n, bottom_sum);
        return -1;
    }
    if ((size_t)m->n >= PY_SSIZE_T_MAX / (3 * sizeof(Py_ssize_t)) ||
        !(m->tnbr = PyMem_Malloc((size_t)(m->n + 1) * 3 * sizeof(Py_ssize_t)))) {
        PyErr_NoMemory();
        return -1;
    }
    m->bnbr = m->tnbr + (m->n + 1);
    m->phi = m->tnbr + 2 * (m->n + 1);
    fill_neighbors(m->top, m->tnbr);
    fill_neighbors(m->bottom, m->bnbr);
    return 0;
}

static void release(Meander *m)
{
    Py_XDECREF(m->top);
    Py_XDECREF(m->bottom);
    PyMem_Free(m->tnbr);
}

/* The walk: from the lowest endpoint (a vertex with at most one arc), follow
   the path it starts, alternating arc sides, and set m->phi[v] for each vertex
   v on it, relative to that endpoint. Returns whether the path covers all n
   vertices, that is whether the meander is a single path. */
static int walk(Meander *m)
{
    const Py_ssize_t *tnbr = m->tnbr, *bnbr = m->bnbr;
    Py_ssize_t *phi = m->phi, v = 1, cur, nxt, covered = 1;
    int on_top;

    while (v <= m->n && tnbr[v] && bnbr[v])
        v++;
    if (v > m->n)
        return 0; /* every vertex has two arcs: all cycles */
    phi[v] = 0;
    for (cur = v, on_top = tnbr[v] != 0; (nxt = on_top ? tnbr[cur] : bnbr[cur]);
         cur = nxt, on_top = !on_top, covered++)
        /* a top arc walked leftwards or a bottom arc walked rightwards drops by 1 */
        phi[nxt] = phi[cur] + (on_top == (cur > nxt) ? -1 : 1);
    return covered == m->n;
}

/* Add {sign * (phi(a) - phi(b)) : a < b} over every block of seq into hist,
   pair by pair: the block triangles of _kernel.spectrum_counts. */
static void add_block_differences(PyObject *seq, const Py_ssize_t *phi, Py_ssize_t *hist,
                                  Py_ssize_t sign)
{
    PyObject **items = PySequence_Fast_ITEMS(seq);
    Py_ssize_t k, a, b, e, s = 1, *row;

    for (k = 0; k < PySequence_Fast_GET_SIZE(seq); k++, s = e) {
        e = s + PyLong_AsSsize_t(items[k]);
        for (a = s; a < e; a++) {
            row = hist + sign * phi[a];
            for (b = a + 1; b < e; b++)
                row[-sign * phi[b]]++;
        }
    }
}

static PyObject *potentials(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Meander m;
    PyObject *result = NULL, *item;
    Py_ssize_t v;

    if (build(&m, args, nargs, "potentials") < 0)
        goto done;
    if (!walk(&m)) {
        result = Py_NewRef(Py_None);
        goto done;
    }
    result = PyTuple_New(m.n);
    for (v = 1; result != NULL && v <= m.n; v++) {
        if ((item = PyLong_FromSsize_t(m.phi[v] - m.phi[m.n])))
            PyTuple_SET_ITEM(result, v - 1, item);
        else
            Py_CLEAR(result);
    }
done:
    release(&m);
    return result;
}

static PyObject *spectrum_counts(PyObject *Py_UNUSED(self), PyObject *const *args,
                                 Py_ssize_t nargs)
{
    Meander m;
    PyObject *result = NULL, *key, *count;
    Py_ssize_t *hist, d, off;
    int failed;

    if (build(&m, args, nargs, "spectrum_counts") < 0)
        goto done;
    if (!walk(&m)) {
        result = Py_NewRef(Py_None);
        goto done;
    }
    /* Every difference lies in [1 - n, n - 1]. Its 2n - 1 counts reuse the
       partner arrays, which the walk no longer needs. */
    hist = m.tnbr;
    off = m.n - 1;
    memset(hist, 0, (size_t)(2 * off + 1) * sizeof(Py_ssize_t));
    hist[off] = m.n;
    add_block_differences(m.bottom, m.phi, hist + off, 1);
    add_block_differences(m.top, m.phi, hist + off, -1);
    result = PyDict_New();
    for (d = 0; result != NULL && d <= 2 * off; d++) {
        if (hist[d] == 0)
            continue;
        key = PyLong_FromSsize_t(d - off);
        count = PyLong_FromSsize_t(hist[d]);
        failed = !key || !count || PyDict_SetItem(result, key, count) < 0;
        Py_XDECREF(key);
        Py_XDECREF(count);
        if (failed)
            Py_CLEAR(result);
    }
done:
    release(&m);
    return result;
}

#define KERNEL_FUNCTION(name, doc) \
    {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, #name "(top, bottom)\n--\n\n" doc}

static PyMethodDef methods[] = {
    KERNEL_FUNCTION(potentials, "Potentials with phi(n) = 0, or None off a single path."),
    KERNEL_FUNCTION(spectrum_counts, "Admissible-position difference counts, or None."),
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_walk", "Compiled kernel with the contract of seaweedspec._kernel.",
    -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__walk(void)
{
    return PyModule_Create(&module);
}
