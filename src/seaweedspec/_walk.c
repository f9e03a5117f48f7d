/* Compiled kernel: potentials and spectrum_counts with the contract of the
   functions of the same names in _kernel.py, whose docstrings give the
   conventions. Only potentials walks; spectrum_counts reads the potentials it
   is given and hands each long block to _kernel._add_block, so that the block
   algebra is written once. Neither keeps any state between calls.

   Parts must be ints >= 1 that fit in Py_ssize_t, both sides must sum to n,
   and spectrum_counts's phi must be n ints that fit and span less than n, all
   checked before any partner or count is written. The working arrays take one
   heap block per call. */

#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <string.h>

typedef struct {
    PyObject *top, *bottom; /* tuples of the parts, which no callback can change */
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

/* Check the parts, the first two of want arguments, and take the heap block.
   On failure an exception is set; release(m) is due either way. */
static int build(Meander *m, PyObject *const *args, Py_ssize_t nargs, int want, const char *name)
{
    Py_ssize_t bottom_sum;

    m->top = m->bottom = NULL;
    m->tnbr = NULL;
    if (nargs != want) {
        PyErr_Format(PyExc_TypeError, "%s() takes %d arguments (%zd given)", name, want, nargs);
        return -1;
    }
    if (!(m->top = PySequence_Tuple(args[0])) || !(m->bottom = PySequence_Tuple(args[1])) ||
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
    return 0;
}

static void release(Meander *m)
{
    Py_XDECREF(m->top);
    Py_XDECREF(m->bottom);
    PyMem_Free(m->tnbr);
}

/* The walk of _kernel.potentials: from vertex n both ways, first leaving by
   its top arc and then by its bottom arc, setting m->phi[v] for each vertex v
   with phi(n) = 0. Returns whether the path through n covers all n vertices,
   that is whether the meander is a single path. A path has n - 1 arcs at
   most, so a walk that takes n has come back round: n lies on a cycle. */
static int walk(Meander *m)
{
    const Py_ssize_t *tnbr = m->tnbr, *bnbr = m->bnbr;
    Py_ssize_t *phi = m->phi, cur, nxt, arcs = 0;
    int first, on_top;

    if (m->n == 0)
        return 0; /* no vertex, no path; slot 0 of the partner arrays is unset */
    phi[m->n] = 0;
    for (first = 1; first >= 0; first--)
        for (cur = m->n, on_top = first; (nxt = on_top ? tnbr[cur] : bnbr[cur]);
             cur = nxt, on_top = !on_top) {
            if (++arcs == m->n)
                return 0;
            /* a top arc walked leftwards or a bottom arc walked rightwards drops by 1 */
            phi[nxt] = phi[cur] + (on_top == (cur > nxt) ? -1 : 1);
        }
    return arcs == m->n - 1;
}

/* The longest left half that counts pair by pair here, not by the folded
   product of _kernel._add_block. Timing a whole seaweed built with SHORT_HALF
   at 0 (every block delegated) against one at 10^9 (none), on a 2-vCPU x86-64
   host (Python 3.11.7, gcc 12), the two are level at halves of about 350-400
   on k2, k2k, k-4r, 2k|1 / 1|2k and 2k|1|1 / 2k+2, and of about 700-900 on
   k1k, whose two shorter blocks have half its longest half, and on k-2r and
   k-2r+1, whose halves take values two apart, so their count vectors are
   twice as long. At 512, delegating takes about 0.6-0.8x the pair loop's time
   on the first five and 1.1-1.4x on the last three; a lower constant would
   slow the last three further and a higher one the first five, so it stays. */
#ifndef SHORT_HALF
#define SHORT_HALF 512
#endif

/* _kernel._add_block(xs, counts, w) on the block of p vertices from s, with
   xs its values sign * phi and counts a zeroed list of 2w + 1, w = max - min
   of xs, which spans every difference; then counts go into hist[-w..w]. */
static int add_long_block(PyObject *add_block, const Py_ssize_t *phi, Py_ssize_t s, Py_ssize_t p,
                          Py_ssize_t sign, Py_ssize_t *hist)
{
    PyObject *xs = PyList_New(p), *counts = NULL, *zero = NULL, *done = NULL, *item;
    Py_ssize_t i, x, lo = sign * phi[s], hi = lo, c;
    int failed = -1;

    for (i = 0; xs && i < p; i++) {
        x = sign * phi[s + i];
        lo = x < lo ? x : lo;
        hi = x > hi ? x : hi;
        if (!(item = PyLong_FromSsize_t(x)))
            goto done;
        PyList_SET_ITEM(xs, i, item);
    }
    if (!xs || !(zero = PyLong_FromLong(0)) || !(counts = PyList_New(2 * (hi - lo) + 1)))
        goto done;
    for (i = 0; i <= 2 * (hi - lo); i++)
        PyList_SET_ITEM(counts, i, Py_NewRef(zero));
    if (!(done = PyObject_CallFunction(add_block, "OOn", xs, counts, hi - lo)))
        goto done;
    for (i = 0; i <= 2 * (hi - lo); i++) {
        /* the checked getter: add_block may have resized the list */
        if (!(item = PyList_GetItem(counts, i)) ||
            ((c = PyLong_AsSsize_t(item)) == -1 && PyErr_Occurred()))
            goto done;
        hist[i - (hi - lo)] += c;
    }
    failed = 0;
done:
    Py_XDECREF(xs);
    Py_XDECREF(zero);
    Py_XDECREF(counts);
    Py_XDECREF(done);
    return failed;
}

/* Add {sign * (phi(a) - phi(b)) : a < b} over every block of seq into hist,
   the block triangles of _kernel.spectrum_counts: pair by pair, or through
   _kernel._add_block, looked up at call time, past SHORT_HALF. */
static int add_block_differences(PyObject *seq, const Py_ssize_t *phi, Py_ssize_t *hist,
                                 Py_ssize_t sign)
{
    PyObject **items = PySequence_Fast_ITEMS(seq), *kernel, *add_block = NULL;
    Py_ssize_t k, a, b, e, s = 1, *row;
    int failed = 0;

    for (k = 0; !failed && k < PySequence_Fast_GET_SIZE(seq); k++, s = e) {
        e = s + PyLong_AsSsize_t(items[k]);
        if (e - s > 2 && (e - s) / 2 > SHORT_HALF) {
            if (!add_block && (kernel = PyImport_ImportModule("seaweedspec._kernel"))) {
                add_block = PyObject_GetAttrString(kernel, "_add_block");
                Py_DECREF(kernel);
            }
            failed = !add_block || add_long_block(add_block, phi, s, e - s, sign, hist) < 0;
            continue;
        }
        for (a = s; a < e; a++) {
            row = hist + sign * phi[a];
            for (b = a + 1; b < e; b++)
                row[-sign * phi[b]]++;
        }
    }
    Py_XDECREF(add_block);
    return -failed;
}

static PyObject *potentials(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)
{
    Meander m;
    PyObject *result = NULL, *item;
    Py_ssize_t v;

    if (build(&m, args, nargs, 2, "potentials") < 0)
        goto done;
    fill_neighbors(m.top, m.tnbr);
    fill_neighbors(m.bottom, m.bnbr);
    if (!walk(&m)) {
        result = Py_NewRef(Py_None);
        goto done;
    }
    result = PyTuple_New(m.n);
    for (v = 1; result != NULL && v <= m.n; v++) {
        if ((item = PyLong_FromSsize_t(m.phi[v])))
            PyTuple_SET_ITEM(result, v - 1, item);
        else
            Py_CLEAR(result);
    }
done:
    release(&m);
    return result;
}

/* Copy phi into m->phi[1..n] less its least value and return its span, which
   bounds every difference; -1 with an exception set unless phi holds n ints
   that fit in Py_ssize_t and span less than n, as a single path's do. */
static Py_ssize_t read_phi(Meander *m, PyObject *arg)
{
    PyObject *seq = PySequence_Fast(arg, "phi must be a sequence");
    Py_ssize_t v, lo = PY_SSIZE_T_MAX, hi = PY_SSIZE_T_MIN, *phi = m->phi;
    int failed = !seq;

    if (!failed && (failed = PySequence_Fast_GET_SIZE(seq) != m->n))
        PyErr_SetString(PyExc_ValueError, "phi must hold n items");
    for (v = 1; !failed && v <= m->n; v++) {
        phi[v] = PyLong_AsSsize_t(PySequence_Fast_GET_ITEM(seq, v - 1)); /* ints only */
        failed = phi[v] == -1 && PyErr_Occurred();
        lo = phi[v] < lo ? phi[v] : lo;
        hi = phi[v] > hi ? phi[v] : hi;
    }
    /* unsigned, so that no span overflows; at n = 0, hi - lo wraps round to 1 */
    if (!failed && (failed = (size_t)hi - (size_t)lo >= (size_t)m->n))
        PyErr_SetString(PyExc_ValueError, "phi must span less than n");
    for (v = 1; !failed && v <= m->n; v++)
        phi[v] -= lo;
    Py_XDECREF(seq);
    return failed ? -1 : hi - lo;
}

static PyObject *spectrum_counts(PyObject *Py_UNUSED(self), PyObject *const *args,
                                 Py_ssize_t nargs)
{
    Meander m;
    PyObject *result = NULL, *key, *count;
    Py_ssize_t *hist, d, off;
    int failed;

    if (build(&m, args, nargs, 3, "spectrum_counts") < 0 || (off = read_phi(&m, args[2])) < 0)
        goto done;
    /* Every difference lies in [-off, off]. Its 2 off + 1 <= 2n - 1 counts
       take the partner arrays, which no walk uses here. */
    hist = m.tnbr;
    memset(hist, 0, (size_t)(2 * off + 1) * sizeof(Py_ssize_t));
    hist[off] = m.n;
    if (add_block_differences(m.bottom, m.phi, hist + off, 1) < 0 ||
        add_block_differences(m.top, m.phi, hist + off, -1) < 0)
        goto done;
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

#define KERNEL_FUNCTION(name, args, doc) \
    {#name, (PyCFunction)(void (*)(void))name, METH_FASTCALL, #name args "\n--\n\n" doc}

static PyMethodDef methods[] = {
    KERNEL_FUNCTION(potentials, "(top, bottom)", "phi with phi(n) = 0, or None off a path."),
    KERNEL_FUNCTION(spectrum_counts, "(top, bottom, phi)", "Admissible differences of phi."),
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
