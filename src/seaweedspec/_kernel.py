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
its blocks from it, reversing a top block's. A test that patches a walk
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
    apart, so a long block of p vertices costs one product of the count
    vector of its p // 2 left-half values instead of p^2 / 2 pair steps,
    and its four terms (the left half's differences, those raised by 1,
    and an odd block's two middle terms) are summed inside that packed
    product and reach the histogram in one slice pass (see _add_block and
    _fold); a top block is read reversed, not negated, and blocks of 1 to
    4 have closed forms and need no call at all (see spectrum_counts);
    the histogram spans only the potentials' range;
  * a product packs each count into the narrowest machine digit that
    holds its largest sum, which Cauchy-Schwarz bounds by sum c^2, the
    count of zero differences (see difference_counts and _fold).

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
from operator import add, mul
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
# that holds it (see _digits).
_DIGIT_CODES = sorted({array(code).itemsize: code for code in "BHILQ"}.items())


def _tally(xs):
    """(lo, c) where c[k] = #{x in xs : x = lo + k} and lo = min xs."""
    lo = min(xs)
    c = [0] * (max(xs) - lo + 1)
    for x in xs:
        c[x - lo] += 1
    return lo, c


def _digits(bound):
    """(size, code): the narrowest array item, its size in bytes and its
    typecode, that holds every count up to bound."""
    most = bound.bit_length()
    return next(sc for sc in _DIGIT_CODES if 8 * sc[0] >= most)


def _pack(c, code):
    """c and c reversed, each packed into an int, one digit of typecode
    code per entry, the first entry in the lowest digit."""
    digits = array(code, c)
    packed = int.from_bytes(digits, byteorder)
    digits.reverse()
    return packed, int.from_bytes(digits, byteorder)


def difference_counts(xs):
    """The multiset {x - y : x, y in xs} as an ascending value -> count dict
    without zero counts; xs is a nonempty int sequence.

    With c the count vector of xs from _tally, the count of difference
    1 - len(c) + k is sum_i c[i] * rev[k - i], rev = c reversed, and one
    big-int product gets them all (Kronecker substitution): c and rev are
    packed into ints, one fixed-width digit per entry, and digit k of their
    product is that sum. By Cauchy-Schwarz every digit, an inner product of
    c with a shift of itself, is at most sum c^2, the zeros' digit, so a
    digit as wide as the smallest machine integer that holds sum c^2 never
    carries into the next, and packing and unpacking go through an array of
    that type. Ints and arrays both use the native byte order, which keeps
    the digits in the same order on either endianness. For the potentials
    of the k2 point at n = 4,043 sum c^2 is 8,083, two-byte digits, where
    len(xs)^2 is over 16 million.
    """
    _, c = _tally(xs)
    size, code = _digits(sum(map(mul, c, c)))
    packed, reverse = _pack(c, code)
    product = packed * reverse
    counts = array(code, product.to_bytes((2 * len(c) - 1) * size, byteorder))
    start = 1 - len(c)
    return dict(compress(zip(range(start, start + len(counts)), counts), counts))


def _fold(half, m):
    """(start, counts) where counts[k] counts the difference start + k in
        D(L) + (D(L) + 1) + {x - m : x in L} + {m + 1 - x : x in L},
    the four terms of a long block's triangle (see _add_block), with L
    the values half and D(L) = {x - y : x, y in L}; the last two only for
    an odd block, m its middle value, and not when m is None.

    All four are summed inside one packed int, one fixed-width digit per
    difference, as in difference_counts. With c the count vector of L from
    lo to hi = lo + w - 1, c packed times c reversed packed is D(L), over
    1 - w to w - 1; that product shifted one digit up and added to itself
    is D(L) + (D(L) + 1), over 1 - w to w; and c packed, shifted to start
    at lo - m, and c reversed packed, shifted to start at m + 1 - hi, add
    the last two. The map v -> 1 - v takes D(L) to D(L) + 1 and x - m to
    m + 1 - x, so the sum runs from 1 - r to r, with r = w or, for an odd
    block, the largest of w, hi - m and m + 1 - lo; digit k holds the
    difference 1 - r + k. One digit of the sum is at most two digits of
    D(L), each at most sum c^2 (see difference_counts), plus one entry
    each of c and c reversed, so a digit that holds 2 sum c^2 + 2 max c
    never carries.
    """
    lo, c = _tally(half)
    w = len(c)
    size, code = _digits(2 * (sum(map(mul, c, c)) + max(c)))
    bits = 8 * size
    packed, reverse = _pack(c, code)
    folded = packed * reverse
    folded += folded << bits
    r = w
    if m is not None:
        r = max(w, lo + w - 1 - m, m + 1 - lo)
        folded = (
            (folded << (r - w) * bits)
            + (packed << (lo - m + r - 1) * bits)
            + (reverse << (m + r + 1 - lo - w) * bits)
        )
    return 1 - r, array(code, folded.to_bytes(2 * r * size, byteorder))


def _add_block(xs, hist, off):
    """Add U(xs) = {xs[a] - xs[b] : a < b} into hist, where hist[d + off]
    counts the difference d; xs are the potentials of one block, lowered by
    one to the right of their middle: xs[p-1-i] = xs[i] - 1 for every
    i < h = p // 2.

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
    _fold sums the four terms inside one packed product of the count
    vector of L, and they reach hist in one slice pass: p^2 / 2 pair steps
    become one product and one pass. Halves of at most _SHORT_HALF count
    pair by pair instead. The compiled kernel calls this too, for each
    block past its own SHORT_HALF, with hist a zeroed list of 2 * off + 1
    counts and off the span max(xs) - min(xs), which bounds every
    difference.
    """
    p = len(xs)
    h = p // 2
    if h <= _SHORT_HALF:
        for a in range(p - 1):
            xa = xs[a] + off
            for y in xs[a + 1 :]:
                hist[xa - y] += 1
        return
    start, counts = _fold(xs[:h], xs[h] if p % 2 else None)
    at = off + start
    end = at + len(counts)
    hist[at:end] = map(add, hist[at:end], counts)
    hist[off] -= h


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
    has phi(e-i) = phi(s+i) + 1. A top block needs no negated copy:
    U(-xs) = {xs[b] - xs[a] : a < b} is U of xs reversed, and on a top
    block xs reversed drops by one to the right of its middle, as a bottom
    block's xs does. So a block of 1 adds nothing and a block of 2 adds one
    1; those 1s come from one count() of each side's parts. With
    d = xs[0] - xs[1], xs phi on a bottom block and -phi on a top one, a
    block of 3, (a, b, a - 1), adds {1, d, 1 - d}, and a block of 4,
    (a, b, b - 1, a - 1), adds {1, 1, d, d + 1, -d, 1 - d}. Every longer
    block, top blocks reversed, reads its triangle off its left half (see
    _add_block). No difference exceeds the span of the potentials, which
    sizes the histogram.
    """
    phi = _path(top, bottom)
    if phi is None:
        return None

    off = max(phi) - min(phi)
    hist = [0] * (2 * off + 1)
    hist[off] = len(phi)
    ones = top.count(2) + bottom.count(2)
    for parts, sign in ((bottom, 1), (top, -1)):
        s = 0
        for p in parts:
            if p > 4:
                xs = phi[s : s + p]
                _add_block(xs if sign > 0 else xs[::-1], hist, off)
            elif p > 2:
                d = sign * (phi[s] - phi[s + 1])
                if p == 4:
                    hist[off - d] += 1
                    hist[off + 1 + d] += 1
                hist[off + d] += 1
                hist[off + 1 - d] += 1
                ones += p - 2
            s += p
    if ones:
        hist[off + 1] += ones

    return dict(compress(zip(range(-off, off + 1), hist), hist))
