"""Pure-Python kernel: the per-seaweed hot loop of the exhaustive sweeps.

This module and the compiled extension ``_walk`` (built from ``_walk.c``)
return the same results from potentials and spectrum_counts, and are
interchangeable behind ``_engine``; both work on bare part tuples so the
hot path never touches the higher-level classes. In each, both functions
walk one path and return None unless it covers all n vertices, and
spectrum_counts then sums the ordered differences within every block, the
block triangles (see its docstring). Both walk the path through vertex n
from n, both ways, so phi(n) = 0 holds with no further pass. The compiled
kernel counts a triangle pair by pair up to its own half length and hands
every longer block to ``_add_block`` here, so the block algebra below is
written once. Neither kernel counts cycles and paths; ``meander`` does, by
the winding-down moves.
Nothing in either module calls the two public names, so wrapping one (as
a per-layer tracer does) sees only outside calls. ``difference_counts``,
all n^2 differences of one potential vector for the extended spectrum,
exists only here.

Here both public names read one walk, ``_path``, memoized for the last two
part pairs. A seaweed's spectrum, extended spectrum and principal element
then take one walk between them, and so do a seaweed and its swap or
reversal partner, which the lemma checks ask for in turn; with one entry
the partner would evict the seaweed before its second use. The memo holds
at most two walks, each one tuple of n ints. Nothing mutates a walk:
potentials returns the memo's tuple itself, and spectrum_counts slices
its blocks from it and negates copies. A test that patches a walk
internal clears the memo first (``_path.cache_clear()``).

Here the passes over whole vertex and count vectors run inside builtins
(slices, map, compress, one big-int product). Python loops remain for the
walk, whose every step needs the last, for the tally of a half's values,
for the partner and pair loops of short blocks, and for one pass over each
side's parts:
  * each half of the walk (``_half_walk``) takes an arc of one side and
    then one of the other per loop pass, with a running potential and no
    side flag or arc counter (the pass number gives the count), and long
    blocks fill their partner arrays by slice assignment;
  * on a single path the right half of a block mirrors the left, one
    apart, so a block of p vertices costs one product of the count vector
    of its p // 2 left-half values instead of p^2 / 2 pair steps (see
    _add_block); blocks of 1 and 2 need no call at all (see
    spectrum_counts);
  * a product packs each count into the narrowest machine digit that
    holds sum c^2, the count of zero differences, which by Cauchy-Schwarz
    bounds every digit (see difference_counts).

This module trusts its inputs: parts are positive ints in tuples, which
the memo hashes, and both tuples have the same sum. Every caller in the
package passes the parts of a ``SeaweedSpec``, which checks both, and the
sweep passes compositions it enumerated. Off valid input the result is
unspecified: ``((5,), (1,))`` gives None and ``((3, -1), (2,))`` raises
IndexError, where the compiled kernel raises ValueError. Checking here
would cost the hot path: a part >= 1 and an equal-sum check in the walk
made potentials over every pair of n = 10 (262,144 calls) 33-34% slower,
median ratio of 16 alternating runs, twice.

Conventions baked in here (shared with the full matrix pipeline):
  * vertices are 1..n; each top block [s..e] contributes the nested pairs
    {s,e}, {s+1,e-1}, ... and bottom blocks do the same below the line;
  * walking a top edge from u to v changes the potential by -1 when u > v
    (with the arc) and +1 otherwise; bottom edges are the mirror image;
  * potentials are pinned so vertex n sits at 0;
  * the position (i,j) is admissible when i's top block is at most j's and
    i's bottom block is at least j's.
"""

from __future__ import annotations

from array import array
from functools import lru_cache
from itertools import compress
from operator import add, mul, neg
from sys import byteorder

#: Blocks whose left half holds at most this many vertices set their
#: partners one by one and count their ordered differences pair by pair;
#: longer halves take slice assignments and one product (see _add_block).
#: Below about 8 the pair loop is the faster, so every block of an n <= 15
#: seaweed takes it. The partner loop stays faster up to halves of about
#: 20, but the two slice assignments cost only about 1 us more per block.
_SHORT_HALF = 7


def _neighbors(parts, n):
    """Per-vertex partner array for one side, 0 meaning no edge; slot 0 is
    unused."""
    nbr = [0] * (n + 1)
    s = 1
    for p in parts:
        e = s + p - 1
        h = p // 2
        if h <= _SHORT_HALF:
            i, j = s, e
            while i < j:
                nbr[i] = j
                nbr[j] = i
                i += 1
                j -= 1
        else:
            nbr[s : s + h] = range(e, e - h, -1)
            nbr[e - h + 1 : e + 1] = range(s + h - 1, s - 1, -1)
        s = e + 1
    return nbr


def _half_walk(phi, first, second, d, n):
    """Follow the path from vertex n by an arc of side first, then one of
    side second, and so on, setting phi[v] for each vertex v it reaches
    relative to phi(n) = 0. Returns the number of arcs taken, or None when
    the walk comes back round (n lies on a cycle).

    A top arc walked leftwards or a bottom arc walked rightwards drops the
    running potential x by 1. So with first the top side (d = 1) an arc of
    first to a lower vertex, or one of second to a higher vertex, drops x
    by 1, and with first the bottom side (d = -1) the same moves raise it.
    The pass number gives the arc count, so the loop keeps no counter. A
    path from n takes at most n - 1 arcs, so n passes (2n arcs) go round
    any cycle through n.
    """
    a = n
    x = 0
    for passes in range(n):
        b = first[a]
        if not b:
            return 2 * passes
        x = x - d if b < a else x + d
        phi[b] = x
        a = second[b]
        if not a:
            return 2 * passes + 1
        x = x - d if a > b else x + d
        phi[a] = x
    return None


@lru_cache(maxsize=2)
def _path(top, bottom):
    """The walk, memoized for the last two part pairs: follow the path
    through vertex n from n, first leaving by its top arc and then by its
    bottom arc, and return the potentials as a tuple whose index v-1 holds
    phi(v), with phi(n) = 0 by construction, or None unless the path covers
    all n vertices, that is unless the meander is a single path.

    Vertex n lies on a path or on a cycle. On a path the two half-walks end
    at its two endpoints (a half-walk from an endpoint takes no arc), and
    they cover all n vertices exactly when they take n - 1 arcs between
    them. On a cycle the first half-walk comes back round and gives None.
    """
    n = sum(top)
    tnbr = _neighbors(top, n)
    bnbr = _neighbors(bottom, n)
    phi = [0] * (n + 1)  # phi[0] is a placeholder
    up = _half_walk(phi, tnbr, bnbr, 1, n)
    if up is None:
        return None  # n lies on a cycle
    return tuple(phi[1:]) if up + _half_walk(phi, bnbr, tnbr, -1, n) == n - 1 else None


def potentials(top, bottom):
    """Vertex potentials of a single-path meander, or None.

    Returns a tuple whose index v-1 holds phi(v), with phi(n) = 0. Returns
    None unless the meander is a single path (no cycles), which is exactly
    when the potentials exist. The tuple is _path's own, not a copy.
    """
    return _path(top, bottom)


# array typecodes by item size, smallest first: a digit takes the first
# that holds it (see _self_differences).
_DIGIT_CODES = sorted({array(code).itemsize: code for code in "BHILQ"}.items())


def _tally(xs):
    """(lo, c) where c[k] = #{x in xs : x = lo + k} and lo = min xs."""
    lo = min(xs)
    c = [0] * (max(xs) - lo + 1)
    for x in xs:
        c[x - lo] += 1
    return lo, c


def _pack(counts, code):
    return int.from_bytes(array(code, counts).tobytes(), byteorder)


def _self_differences(xs):
    """(lo, c, rev, counts) for D(xs) = {x - y : x, y in xs}: lo and c as
    from _tally, rev = c reversed, and counts[k] the number of pairs whose
    difference is 1 - len(c) + k, that is sum_i c[i] * rev[k - i].

    counts is exact through one big-int product (Kronecker substitution):
    c and rev are packed into ints, one fixed-width digit per entry, and
    digit k of their product is the sum above. Its largest digit, the
    zeros, is sum c^2 (see difference_counts), so a digit as wide as the
    smallest machine integer that holds sum c^2 never carries into the
    next, and packing and unpacking go through an array of that type. Ints
    and arrays both use the native byte order, which keeps the digits in
    the same order on either endianness.
    """
    lo, c = _tally(xs)
    rev = c[::-1]
    most = sum(map(mul, c, c)).bit_length()
    size, code = next(sc for sc in _DIGIT_CODES if 8 * sc[0] >= most)
    product = _pack(c, code) * _pack(rev, code)
    raw = product.to_bytes((2 * len(c) - 1) * size, byteorder)
    return lo, c, rev, array(code, raw).tolist()


def difference_counts(xs):
    """The multiset {x - y : x, y in xs} as an ascending value -> count dict
    without zero counts; xs is a nonempty int sequence.

    The count vector c of xs times c reversed, through _self_differences:
    digit k counts the pairs whose difference is 1 - len(c) + k. By
    Cauchy-Schwarz every digit, an inner product of c with a shift of
    itself, is at most sum c^2, the zeros' digit, which sets the digit
    width. For the potentials of the k2 point at n = 4,043 that is 8,083,
    two-byte digits, where len(xs)^2 is over 16 million.
    """
    _, c, _, counts = _self_differences(xs)
    start = 1 - len(c)
    return dict(compress(zip(range(start, start + len(counts)), counts), counts))


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
                + {x - m : x in L} + {m + 1 - x : x in L}.
    With c the count vector of L from its least value lo to its greatest
    hi, D(L) is c convolved with c reversed (see _self_differences), and
    the last two are c added at x - m = lo - m onwards and c reversed added
    at m + 1 - hi onwards: one product and four slice additions instead of
    p^2 / 2 pair steps. Halves of at most _SHORT_HALF count pair by pair
    instead. The compiled kernel calls this too, for each block past its own
    SHORT_HALF, with hist a zeroed list of 2 * off + 1 counts and off the
    span max(xs) - min(xs), which bounds every difference.
    """
    p = len(xs)
    h = p // 2
    if h <= _SHORT_HALF:
        for a in range(p - 1):
            xa = xs[a] + off
            for y in xs[a + 1 :]:
                hist[xa - y] += 1
        return
    lo, c, rev, counts = _self_differences(xs[:h])
    w = len(c)
    at = off + 1 - w  # D(L) runs from lo - hi = 1 - w to w - 1
    end = off + w
    hist[at:end] = map(add, hist[at:end], counts)
    hist[at + 1 : end + 1] = map(add, hist[at + 1 : end + 1], counts)
    hist[off] -= h
    if p % 2:
        m = xs[h]
        at = lo - m + off
        hist[at : at + w] = map(add, hist[at : at + w], c)
        at = m + 2 - w - lo + off  # m + 1 - hi, with hi = lo + w - 1
        hist[at : at + w] = map(add, hist[at : at + w], rev)


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

    On a single path every arc joins potentials one apart: a bottom arc
    {s+i, e-i} of a block [s..e] has phi(e-i) = phi(s+i) - 1 and a top arc
    has phi(e-i) = phi(s+i) + 1, so on either side the values xs whose U
    is wanted satisfy xs[p-1-i] = xs[i] - 1. So a block of 1 adds nothing
    and a block of 2, (a, a - 1), adds one 1; those 1s come from one
    count() of each side's parts. Every other block reads its triangle off
    its left half (see _add_block).
    """
    phi = _path(top, bottom)
    if phi is None:
        return None

    # Potentials span at most n - 1 (the path has n - 1 arcs), and so does
    # every difference; no difference depends on where phi is pinned to 0.
    n = len(phi)
    off = n - 1
    hist = [0] * (2 * n - 1)
    hist[off] = n
    ones = top.count(2) + bottom.count(2)
    if ones:
        hist[off + 1] += ones
    for parts, negate in ((bottom, False), (top, True)):
        s = 0
        for p in parts:
            if p > 2:
                xs = phi[s : s + p]
                _add_block(list(map(neg, xs)) if negate else xs, hist, off)
            s += p

    return dict(compress(zip(range(-off, n), hist), hist))
