"""Pure-Python kernel: the per-seaweed hot loop of the exhaustive sweeps.

This module and the compiled extension ``_walk`` (built from ``_walk.c``)
return the same results from potentials and spectrum_counts, and are
interchangeable behind ``_engine``; both work on bare part tuples so the
hot path never touches the higher-level classes. In each, both functions
walk the path from the meander's lowest endpoint (``_walk`` here) and
return None unless it covers all n vertices; spectrum_counts then sums the
ordered differences within every block, the block triangles (see its
docstring). The compiled kernel counts each triangle pair by pair. This
module reads it off one big-int product of the block's left half: on a
single path the right half of a block mirrors the left, one apart (see
_add_block), so a block of p vertices costs one product of p // 2 values
instead of p^2 / 2 pair steps. Neither kernel counts cycles and paths;
``meander`` does, by the winding-down moves.
Nothing in either module calls the two public names, so wrapping one (as
a per-layer tracer does) sees only outside calls. ``difference_counts``
exists only here.

This module trusts its inputs: parts are positive ints and both tuples
have the same sum. Every caller in the package passes the parts of a
``SeaweedSpec``, which checks both, and the sweep passes compositions it
enumerated. Off valid input the result is unspecified: ``((5,), (1,))``
gives None and ``((3, -1), (2,))`` raises IndexError, where the compiled
kernel raises ValueError. Checking here would cost the hot path: a part
>= 1 and an equal-sum check in ``_walk`` made potentials over every pair
of n = 10 (262,144 calls) 33-34% slower, median ratio of 16 alternating
runs, twice.

Conventions baked in here (shared with the full matrix pipeline):
  * vertices are 1..n; each top block [s..e] contributes the nested pairs
    {s,e}, {s+1,e-1}, ... and bottom blocks do the same below the line;
  * walking a top edge from u to v changes the potential by -1 when u > v
    (with the arc) and +1 otherwise; bottom edges are the mirror image;
  * potentials are normalized so vertex n sits at 0;
  * the position (i,j) is admissible when i's top block is at most j's and
    i's bottom block is at least j's.
"""

from __future__ import annotations

from array import array
from operator import add
from sys import byteorder


def _neighbors(parts, n):
    """Per-vertex partner array for one side, 0 meaning no edge."""
    nbr = [0] * (n + 1)
    s = 1
    for p in parts:
        e = s + p - 1
        i, j = s, e
        while i < j:
            nbr[i] = j
            nbr[j] = i
            i += 1
            j -= 1
        s = e + 1
    return nbr


def _walk(top, bottom, phi):
    """The walk: from the lowest endpoint (a vertex with at most one arc),
    follow the path it starts, alternating arc sides, and set phi[v] for
    each vertex v on it, relative to that endpoint; phi is a list of n + 1
    zeros. Returns whether the path covers all n vertices, that is whether
    the meander is a single path.
    """
    n = len(phi) - 1
    tnbr = _neighbors(top, n)
    bnbr = _neighbors(bottom, n)
    v = 1
    while v <= n and tnbr[v] and bnbr[v]:
        v += 1
    if v > n:
        return False  # every vertex has two arcs: all cycles
    on_top = bool(tnbr[v])
    cur = v
    covered = 1
    while True:
        nxt = tnbr[cur] if on_top else bnbr[cur]
        if not nxt:
            return covered == n
        # a top arc walked leftwards or a bottom arc walked rightwards drops by 1
        phi[nxt] = phi[cur] - 1 if on_top == (cur > nxt) else phi[cur] + 1
        covered += 1
        cur = nxt
        on_top = not on_top


def potentials(top, bottom):
    """Vertex potentials of a single-path meander, or None.

    Returns a tuple whose index v-1 holds phi(v), normalized so phi(n) = 0.
    Returns None unless the meander is a single path (no cycles), which is
    exactly when the potentials exist.
    """
    phi = [0] * (sum(top) + 1)
    if not _walk(top, bottom, phi):
        return None
    shift = phi[-1]
    return tuple([p - shift for p in phi[1:]])


#: Blocks whose left half holds at most this many vertices count their
#: ordered differences pair by pair; longer halves take one product (see
#: _add_block). Below about 8 the loop is the faster of the two, so every
#: block of an n <= 15 seaweed takes it.
_SHORT_HALF = 7

# array typecodes by item size, smallest first: a digit takes the first
# that holds it (see _difference_digits).
_DIGIT_CODES = sorted({array(code).itemsize: code for code in "BHILQ"}.items())


def _difference_digits(xs, ys):
    """(d0, counts) where counts[k] is #{(x, y) : x - y = d0 + k}.

    Exact through one big-int product (Kronecker substitution): the count
    vector of xs (offset by min xs) and the reversed count vector of ys are
    packed into two ints, one fixed-width digit per value, and digit k of
    their product is the number of pairs whose difference is d0 + k. No
    digit exceeds len(xs) * len(ys), so a digit as wide as the smallest
    machine integer that holds that number never carries into the next,
    and packing and unpacking go through an array of that type. Ints and
    arrays both use the native byte order, which keeps the digits in the
    same order on either endianness.
    """
    lo, hi = min(xs), max(ys)
    most = (len(xs) * len(ys)).bit_length()
    size, code = next(sc for sc in _DIGIT_CODES if 8 * sc[0] >= most)
    cx = [0] * (max(xs) - lo + 1)
    for x in xs:
        cx[x - lo] += 1
    cy = [0] * (hi - min(ys) + 1)
    for y in ys:
        cy[hi - y] += 1
    product = _pack(cx, code) * _pack(cy, code)
    raw = product.to_bytes((len(cx) + len(cy) - 1) * size, byteorder)
    return lo - hi, array(code, raw).tolist()


def _pack(counts, code):
    return int.from_bytes(array(code, counts).tobytes(), byteorder)


def difference_counts(xs, ys):
    """The multiset {x - y : x in xs, y in ys} as an ascending value -> count
    dict without zero counts; xs and ys are nonempty int sequences."""
    d0, counts = _difference_digits(xs, ys)
    return {d0 + k: c for k, c in enumerate(counts) if c}


def _add_block(xs, hist, off):
    """Add U(xs) = {xs[a] - xs[b] : a < b} into hist, where hist[d + off]
    counts the difference d; xs are the potentials of one block, negated
    for a top block, so xs[p-1-i] = xs[i] - 1 for every i < h = p // 2.

    Splitting xs into its left half L = xs[:h], the middle m = xs[h] (odd p
    only) and the right half, which is L reversed and lowered by 1:
        pairs within L          give U(L),
        pairs within the right  give {L[i] - L[j] : i > j},
        L against the right     give D(L) shifted by +1,
        L against m             give {x - m : x in L},
        m against the right     give {m + 1 - x : x in L},
    where D(L) = {x - y : x, y in L}. The first two are D(L) without its h
    diagonal zeros, so
        U(xs) = D(L) + (D(L) + 1) - h * {0}
                + {x - m : x in L} + {m + 1 - x : x in L},
    one _difference_digits product and O(h) list work instead of p^2 / 2
    pair steps. Halves of at most _SHORT_HALF count pair by pair instead.
    """
    p = len(xs)
    h = p // 2
    if h <= _SHORT_HALF:
        for a in range(p - 1):
            xa = xs[a] + off
            for y in xs[a + 1 :]:
                hist[xa - y] += 1
        return
    left = xs[:h]
    d0, counts = _difference_digits(left, left)
    at = d0 + off
    end = at + len(counts)
    hist[at:end] = map(add, hist[at:end], counts)
    hist[at + 1 : end + 1] = map(add, hist[at + 1 : end + 1], counts)
    hist[off] -= h
    if p % 2:
        below = xs[h] - off  # x - m lands at x - below
        above = xs[h] + 1 + off  # m + 1 - x lands at above - x
        for x in left:
            hist[x - below] += 1
            hist[above - x] += 1


def spectrum_counts(top, bottom):
    """Full admissible-position difference counts, or None.

    Returns the multiset {phi(i) - phi(j) : (i,j) admissible} as a plain
    value -> count dict with ascending keys, diagonal zeros included.
    Returns None unless the meander is a single path (no cycles), which is
    exactly when the potentials exist.

    Block indices never decrease along 1..n, so for i < j the top condition
    tb(i) <= tb(j) always holds and the bottom one bb(i) >= bb(j) forces
    bb(i) = bb(j); for i > j it is the other way round. The mask is thus
    the diagonal, the upper triangle of every bottom block and the lower
    triangle of every top block, and the histogram is
        n zeros + sum over bottom blocks B of U(phi on B)
                + sum over top blocks T of U(-phi on T),
    with U(xs) = {xs[a] - xs[b] : a < b}; a top block's pairs i > j give
    phi(i) - phi(j) = (-phi)(j) - (-phi)(i), hence the negation.

    Each triangle is read off its block's left half (see _add_block). On a
    single path every arc joins potentials one apart: a bottom arc
    {s+i, e-i} of a block [s..e] has phi(e-i) = phi(s+i) - 1 and a top arc
    has phi(e-i) = phi(s+i) + 1, so on either side the values xs that
    _add_block gets satisfy xs[p-1-i] = xs[i] - 1.
    """
    n = sum(top)
    phi = [0] * (n + 1)
    if not _walk(top, bottom, phi):
        return None

    # Potentials span at most n - 1 (the path has n - 1 arcs), and so does
    # every difference; no difference depends on where phi is pinned to 0.
    off = n - 1
    hist = [0] * (2 * n - 1)
    hist[off] = n
    s = 1
    for p in bottom:
        _add_block(phi[s : s + p], hist, off)
        s += p
    neg = [-x for x in phi]
    s = 1
    for p in top:
        _add_block(neg[s : s + p], hist, off)
        s += p

    return {d - off: c for d, c in enumerate(hist) if c}
