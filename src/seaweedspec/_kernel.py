"""Pure-Python kernel: the per-seaweed hot loop of the exhaustive sweeps.

This module and the compiled extension ``_walk`` (built from ``_walk.c``)
return the same results from component_counts, potentials and
spectrum_counts, and are interchangeable behind ``_engine``; both work on
bare part tuples so the hot path never touches the higher-level classes.
In each, the three functions run one walk of the meander (``_walk`` here),
and spectrum_counts sums the same block triangles (see its docstring): this
module counts them with big-int products, the compiled one pair by pair.
Nothing in either module calls the three public names, so wrapping one (as
a per-layer tracer does) sees only outside calls. ``difference_counts``
exists only here.

This module trusts its inputs: parts are positive ints and both tuples
have the same sum. Every caller in the package passes the parts of a
``SeaweedSpec``, which checks both, and the sweep passes compositions it
enumerated. Off valid input the result is unspecified: ``((5,), (1,))``
gives (0, 3) and ``((3, -1), (2,))`` raises IndexError, where the
compiled kernel raises ValueError. Checking here would cost the hot path: a part >= 1
and an equal-sum check in ``_walk`` made the n = 10 census (262,144
calls) 15-21% slower, median ratio of 16 alternating runs, twice.

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

from operator import add


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
    """The walk: visit every component of the meander once, alternating arc
    sides, and count (cycles, paths); an isolated vertex counts as a path.

    When phi is a list of n + 1 zeros, also set phi[v] for each path vertex
    v, relative to its path's lower end.
    """
    n = sum(top)
    tnbr = _neighbors(top, n)
    bnbr = _neighbors(bottom, n)
    visited = [False] * (n + 1)
    paths = 0
    cycles = 0

    for v in range(1, n + 1):
        if visited[v] or (tnbr[v] and bnbr[v]):
            continue
        # v is an endpoint (degree <= 1): walk the path it starts.
        paths += 1
        visited[v] = True
        on_top = bool(tnbr[v])
        cur = v
        while True:
            nxt = tnbr[cur] if on_top else bnbr[cur]
            if not nxt:
                break
            if phi is not None:
                # a top arc walked leftwards or a bottom arc walked
                # rightwards drops by 1
                phi[nxt] = phi[cur] - 1 if on_top == (cur > nxt) else phi[cur] + 1
            visited[nxt] = True
            cur = nxt
            on_top = not on_top

    for v in range(1, n + 1):
        if visited[v]:
            continue
        # Everything left has degree 2, so it closes a cycle.
        cycles += 1
        visited[v] = True
        cur = tnbr[v]
        on_top = False
        while cur != v:
            visited[cur] = True
            nxt = tnbr[cur] if on_top else bnbr[cur]
            cur = nxt
            on_top = not on_top

    return cycles, paths


def component_counts(top, bottom):
    """Count (cycles, paths) of the meander on the two part tuples.

    An isolated vertex counts as a path.
    """
    return _walk(top, bottom, None)


def potentials(top, bottom):
    """Vertex potentials of a single-path meander, or None.

    Returns a tuple whose index v-1 holds phi(v), normalized so phi(n) = 0.
    Returns None unless the meander is a single path (no cycles), which is
    exactly when the potentials exist.
    """
    phi = [0] * (sum(top) + 1)
    if _walk(top, bottom, phi) != (0, 1):
        return None
    shift = phi[-1]
    return tuple([p - shift for p in phi[1:]])


#: Runs of at most this many potentials count their ordered differences pair
#: by pair; longer runs are halved (see _add_ordered_differences).
_LEAF = 48


def _difference_digits(xs, ys):
    """(d0, counts) where counts[k] is #{(x, y) : x - y = d0 + k}.

    Exact through one big-int product (Kronecker substitution): the count
    vector of xs (offset by min xs) and the reversed count vector of ys are
    packed into two ints, one fixed-width little-endian digit per value, and
    digit k of their product is the number of pairs whose difference is
    d0 + k. No digit exceeds len(xs) * len(ys), so a digit of that number's
    bit length rounded up to whole bytes never carries into the next.
    """
    lo, hi = min(xs), max(ys)
    size = ((len(xs) * len(ys)).bit_length() + 7) // 8
    cx = [0] * (max(xs) - lo + 1)
    for x in xs:
        cx[x - lo] += 1
    cy = [0] * (hi - min(ys) + 1)
    for y in ys:
        cy[hi - y] += 1
    ndigits = len(cx) + len(cy) - 1
    product = _pack(cx, size) * _pack(cy, size)
    raw = product.to_bytes(ndigits * size, "little")
    return lo - hi, [
        int.from_bytes(raw[k : k + size], "little") for k in range(0, len(raw), size)
    ]


def _pack(counts, size):
    return int.from_bytes(b"".join([c.to_bytes(size, "little") for c in counts]), "little")


def difference_counts(xs, ys):
    """The multiset {x - y : x in xs, y in ys} as an ascending value -> count
    dict without zero counts; xs and ys are nonempty int sequences."""
    d0, counts = _difference_digits(xs, ys)
    return {d0 + k: c for k, c in enumerate(counts) if c}


def _add_ordered_differences(xs, hist, off):
    """Add U(xs) = {xs[a] - xs[b] : a < b} into hist, where hist[d + off]
    counts the difference d.

    U(L + R) = U(L) + U(R) + {x - y : x in L, y in R}; the cross term is one
    _difference_digits product, so a run of m potentials costs O(m log m)
    list work plus the products instead of m^2 / 2 pair steps.
    """
    m = len(xs)
    if m <= _LEAF:
        for a in range(m - 1):
            xa = xs[a] + off
            for y in xs[a + 1 :]:
                hist[xa - y] += 1
        return
    half = m // 2
    left, right = xs[:half], xs[half:]
    _add_ordered_differences(left, hist, off)
    _add_ordered_differences(right, hist, off)
    d0, counts = _difference_digits(left, right)
    at = d0 + off
    end = at + len(counts)
    hist[at:end] = map(add, hist[at:end], counts)


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
    """
    n = sum(top)
    phi = [0] * (n + 1)
    if _walk(top, bottom, phi) != (0, 1):
        return None

    # Potentials span at most n - 1 (the path has n - 1 arcs), and so does
    # every difference; no difference depends on where phi is pinned to 0.
    off = n - 1
    hist = [0] * (2 * n - 1)
    hist[off] = n
    s = 1
    for p in bottom:
        _add_ordered_differences(phi[s : s + p], hist, off)
        s += p
    neg = [-x for x in phi]
    s = 1
    for p in top:
        _add_ordered_differences(neg[s : s + p], hist, off)
        s += p

    return {d - off: c for d, c in enumerate(hist) if c}
