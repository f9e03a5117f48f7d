"""Pure-Python kernel: the per-seaweed hot loop of the exhaustive sweeps.

This module and the compiled extension ``_walk`` (built from ``_walk.c``)
return the same results from potentials and spectrum_counts, and are
interchangeable behind ``_engine``; both work on bare part tuples so the
hot path never touches the higher-level classes. In each, only potentials
walks: one path, from vertex n both ways, so phi(n) = 0 holds with no
further pass, and None unless it covers all n vertices. spectrum_counts
takes those potentials and sums the ordered differences within every
block, the block triangles (see its docstring). The compiled kernel counts
a triangle pair by pair up to its own half length and, as the pure one
does, hands a seaweed's longer blocks to one ``_add_triangles`` call here,
so the block algebra below is written once.
Neither kernel counts cycles and paths; ``meander`` does, by the
winding-down moves. Neither keeps any state between calls; ``spectrum``
keeps a seaweed's potentials.
Nothing in either module calls the two public names, so wrapping one (as
a per-layer tracer does) sees only outside calls. ``difference_counts``,
all n^2 differences of one potential vector for the extended spectrum,
exists only here.

Here the passes over whole vertex and count vectors run inside builtins
(slices, map, compress, one big-int product). Python loops remain for the
walk, whose every step needs the last, for the tally of a half's values,
for the partner and pair loops of short blocks, for one pass over each
side's parts and for one over the blocks of 5 or more vertices:
  * each half of the walk (``_half_walk``) takes an arc of one side and
    then one of the other per loop pass, with a running potential and no
    side flag or arc counter (the pass number gives the count), and long
    blocks fill their partner arrays by slice assignment;
  * on a single path the right half of a block mirrors the left, one
    apart, so a long block of p vertices costs one product of the count
    vector of its p // 2 left-half values instead of p^2 / 2 pair steps,
    and its four terms (the left half's differences, those raised by 1,
    and an odd block's two middle terms) are summed inside that packed
    product (see _fold); _add_triangles adds the products of a seaweed's
    long blocks, each shifted to its place, into one packed int and
    unpacks that into the histogram in one slice pass; a top block is read
    reversed, not negated, and blocks of 1 to 4 have closed forms and need
    no call at all (see spectrum_counts); the histogram spans only the
    potentials' range;
  * a product packs each count into the narrowest machine digit that
    holds a bound on its largest sum, max(c) times the number of values
    counted, which needs no pass over the count vector c (see
    difference_counts and _fold).

This module trusts its inputs: parts are positive ints in tuples, both
tuples have the same sum, and spectrum_counts's phi is what potentials
returned for them. Every caller in the package passes the parts of a
``SeaweedSpec``, which checks both, and the sweep passes compositions it
enumerated. Off valid input the result is unspecified: ``((5,), (1,))``
gives None and ``((3, -1), (2,))`` raises IndexError, where the compiled
kernel raises ValueError. Checking here would cost the hot path: a part
>= 1 and an equal-sum check in the walk made potentials over every pair of
n = 10 (262,144 calls) 33-34% slower, median ratio of 16 alternating runs,
twice.

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
from itertools import compress
from operator import add
from sys import byteorder

#: Blocks whose left half holds at most this many vertices set their
#: partners one by one and count their ordered differences pair by pair;
#: longer halves take slice assignments and one product (see _fold).
#: Timed on blocks of Frobenius seaweeds at n <= 60, a half of 6 takes
#: about 4.3 us by the pair loop and 4.8 us by a fold unpacked alone, and
#: one of 7 takes 5.6 and 5.1 us; a fold that joins a seaweed's packed sum
#: skips its own unpack, about 1.5 us, and so wins from halves of about 5
#: or 6. Over all 30,655 Frobenius pairs through n = 14, short halves of 5
#: and 7 take 243 and 241 ms, and 4 and 3 take 264 and 288 ms. The
#: partner loop stays faster up to halves of about 20, but the two slice
#: assignments cost only about 1 us more per block.
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


def potentials(top, bottom):
    """Vertex potentials as a tuple whose index v-1 holds phi(v), with
    phi(n) = 0, or None unless the meander is a single path (no cycles),
    which is exactly when they exist.

    The walk follows the path through vertex n from n, first leaving by its
    top arc and then by its bottom arc. Vertex n lies on a path or on a
    cycle. On a path the two half-walks end at its two endpoints (a
    half-walk from an endpoint takes no arc), and they cover all n vertices
    exactly when they take n - 1 arcs between them. On a cycle the first
    half-walk comes back round and gives None.
    """
    n = sum(top)
    tnbr = _neighbors(top, n)
    bnbr = _neighbors(bottom, n)
    phi = [0] * (n + 1)  # phi[0] is a placeholder
    up = _half_walk(phi, tnbr, bnbr, 1, n)
    if up is None:
        return None  # n lies on a cycle
    return tuple(phi[1:]) if up + _half_walk(phi, bnbr, tnbr, -1, n) == n - 1 else None


# array typecodes by item size, smallest first, and the narrowest of them
# that holds a count of each bit length up to the widest's (see _digits).
_DIGIT_CODES = sorted({array(code).itemsize: code for code in "BHILQ"}.items())
_DIGITS = tuple(next(sc for sc in _DIGIT_CODES if 8 * sc[0] >= most)
                for most in range(8 * _DIGIT_CODES[-1][0] + 1))


def _tally(xs):
    """(lo, c) where c[k] = #{x in xs : x = lo + k} and lo = min xs."""
    lo = min(xs)
    c = [0] * (max(xs) - lo + 1)
    for x in xs:
        c[x - lo] += 1
    return lo, c


def _digits(bound):
    """(size, code): the narrowest array item, its size in bytes and its
    typecode, that holds every count up to bound; IndexError past 64 bits."""
    return _DIGITS[bound.bit_length()]


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
    product is that sum. Every digit is at most max(c) * len(xs): each of
    its len(xs) terms, grouped by i, adds c[i] copies of an entry of rev. So
    a digit as wide as the smallest machine integer that holds that bound
    never carries into the next, and packing and unpacking go through an
    array of that type. (Cauchy-Schwarz gives the tighter sum c^2, the
    zeros' digit, but that costs a pass over c; for the potentials of every
    query_large point both bounds pick the same width.) Ints and arrays both
    use the native byte order, which keeps the digits in the same order on
    either endianness. For the potentials of the k2 point at n = 4,043 the
    bound is 8,086, two-byte digits, where len(xs)^2 is over 16 million.
    """
    _, c = _tally(xs)
    size, code = _digits(max(c) * len(xs))
    packed, reverse = _pack(c, code)
    product = packed * reverse
    counts = array(code, product.to_bytes((2 * len(c) - 1) * size, byteorder))
    start = 1 - len(c)
    return dict(compress(zip(range(start, start + len(counts)), counts), counts))


def _fold(half, m):
    """(r, bound, folded): the triangle U(xs) = {xs[a] - xs[b] : a < b} of
    one long block xs, plus h zeros, packed into the 2r digits of folded,
    digit k counting the difference 1 - r + k, each digit of the width
    _digits(bound) picks. half is L = xs[:h], h = p // 2 for a block of p
    vertices, and m its middle value xs[h] for an odd block, None for an
    even one; xs drops by one to the right of its middle: xs[p-1-i] =
    xs[i] - 1 for every i < h.

    Splitting xs into L, m (odd p only) and the right half, which is L
    reversed and lowered by 1:
        pairs within L          give U(L),
        pairs within the right  give {L[i] - L[j] : i > j},
        L against the right     give D(L) shifted by +1,
        L against m             give {x - m : x in L},
        m against the right     give {m + 1 - x : x in L},
    where D(L) = {x - y : x, y in L}. The first two are D(L) without its h
    diagonal zeros, so
        U(xs) + h * {0} = D(L) + (D(L) + 1)
                          + {x - m : x in L} + {m + 1 - x : x in L}:
    p^2 / 2 pair steps become one product of the count vector of L.

    All four terms are summed inside one packed int, as in
    difference_counts. With c the count vector of L from lo to
    hi = lo + w - 1, c packed times c reversed packed is D(L), over 1 - w
    to w - 1; that product shifted one digit up and added to itself is
    D(L) + (D(L) + 1), over 1 - w to w; and c packed, shifted to start at
    lo - m, and c reversed packed, shifted to start at m + 1 - hi, add the
    last two. The map v -> 1 - v takes D(L) to D(L) + 1 and x - m to
    m + 1 - x, so the sum runs from 1 - r to r, with r = w or, for an odd
    block, the largest of w, hi - m and m + 1 - lo. One digit of the sum is
    at most two digits of D(L), each at most max(c) * h (see
    difference_counts), plus one entry each of c and c reversed, so
    bound = 2 * max(c) * (h + 1) holds every digit and none carries.
    """
    lo, c = _tally(half)
    w = len(c)
    bound = 2 * max(c) * (len(half) + 1)
    size, code = _digits(bound)
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
    return r, bound, folded


def _unpack(packed, digits, hist, at, length):
    """Add the lowest length digits of packed, of digits = (size, code)
    from _digits, to hist[at : at + length], the lowest digit first."""
    size, code = digits
    counts = array(code, packed.to_bytes(length * size, byteorder))
    end = at + length
    hist[at:end] = map(add, hist[at:end], counts)


def _add_triangles(blocks, hist, off):
    """Add U(xs) = {xs[a] - xs[b] : a < b} of each xs of blocks into hist,
    where hist[d + off] counts the difference d and |d| <= off; xs are one
    block's potentials, a top block's reversed, so that they drop by one to
    the right of their middle, as _fold takes them. Each kernel calls this
    at most once per seaweed, the compiled one with a zeroed list for hist.

    A block whose half holds at most _SHORT_HALF values counts its pairs one
    by one; every other one reads its triangle off one _fold of its left
    half. The folds are summed in one packed int, each shifted so that digit
    j counts the difference j + 1 - off, and unpacked into hist once, over
    the widest fold's differences. A fold joins that sum only while its
    digits are as wide as the sum's and the summed bounds, its own included,
    still fit them, so no digit carries and no product is wider than its
    block needs; otherwise the sum is unpacked first and starts again.
    """
    # the folds' packed sum, its digits' (size, code) and width in bits,
    # the sum of their bounds and their largest r
    total = bounds = reach = 0
    digits = bits = None
    for xs in blocks:
        p = len(xs)
        h = p // 2
        if h <= _SHORT_HALF:
            for a in range(p - 1):
                xa = xs[a] + off
                for y in xs[a + 1 :]:
                    hist[xa - y] += 1
            continue
        r, bound, folded = _fold(xs[:h], xs[h] if p % 2 else None)
        fits = _digits(bound)
        if fits != digits or (bounds + bound).bit_length() > 8 * fits[0]:
            if total:
                _unpack(total >> (off - reach) * bits, digits, hist, off + 1 - reach, 2 * reach)
            digits, bits, total, bounds, reach = fits, 8 * fits[0], 0, 0, 0
        total += folded << (off - r) * bits
        bounds += bound
        reach = max(reach, r)
        hist[off] -= h
    if total:
        _unpack(total >> (off - reach) * bits, digits, hist, off + 1 - reach, 2 * reach)


def spectrum_counts(top, bottom, phi):
    """Full admissible-position difference counts from the potentials phi
    of a single path, potentials(top, bottom).

    Returns the multiset {phi(i) - phi(j) : (i,j) admissible} as a plain
    value -> count dict with ascending keys, diagonal zeros included.

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
    (a, b, b - 1, a - 1), adds {1, 1, d, d + 1, -d, 1 - d}. Longer blocks,
    top blocks reversed, go to _add_triangles in one call. No difference
    exceeds the span of the potentials, which sizes the histogram.
    """
    off = max(phi) - min(phi)
    hist = [0] * (2 * off + 1)
    hist[off] = len(phi)
    ones = top.count(2) + bottom.count(2)
    blocks = []  # every block of 5 or more, top blocks reversed
    for parts, sign in ((bottom, 1), (top, -1)):
        s = 0
        for p in parts:
            if p > 4:
                xs = phi[s : s + p]
                blocks.append(xs if sign > 0 else xs[::-1])
            elif p > 2:
                d = sign * (phi[s] - phi[s + 1])
                if p == 4:
                    hist[off - d] += 1
                    hist[off + 1 + d] += 1
                hist[off + d] += 1
                hist[off + 1 - d] += 1
                ones += p - 2
            s += p
    if blocks:
        _add_triangles(blocks, hist, off)
    if ones:
        hist[off + 1] += ones

    return dict(compress(zip(range(-off, off + 1), hist), hist))
