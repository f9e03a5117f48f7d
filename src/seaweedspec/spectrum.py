"""Spectra of Frobenius seaweeds via meander vertex potentials.

`orient` builds the meander's arcs, the one place in Python that does: each
block nests its arcs outermost first, every top arc runs right-to-left and
every bottom arc left-to-right. A Frobenius seaweed's meander is a single
path, and following it assigns each vertex an integer potential that drops
by one along every oriented arc.
The eigenvalue attached to an admissible position (i,j) is then just
phi(i) - phi(j), the mask of admissible positions being the pairs whose
top blocks ascend and bottom blocks descend.

One memo, `_memo`, keeps the last two seaweeds' potentials, each from one
walk of the stateless kernel, and what `_built` makes from them: so a
seaweed's queries share one walk, the lemma checks of one seaweed build
its matrices once, and an extended matrix needs no masked one.

Block indices never decrease along 1..n, so row i's admissible columns are
one contiguous interval: from the first position of i's top block to the
last position of i's bottom block, and `_row_spans` lists those
intervals. Neither matrix takes arithmetic per entry: each row of the
full matrix is one itemgetter pass over a slice of a single table of all
possible differences, vertices of equal potential share one row tuple,
and the masked matrix slices each full row to its interval and pads it
with slices of one tuple of Nones, cut once per block bound. Read by blocks
instead, the same mask is the diagonal plus the upper triangle of each
bottom block plus the lower triangle of each top block, which is how both
kernels count it (see `_kernel`). The spectrum is that multiset with one
zero removed; the extended spectrum drops the mask and uses all n^2
positions instead.
_spectrum_from reads the kernel's histogram, less one diagonal zero, for
the memo and for the sweeps' _spectrum_of, which skips the memo: a sweep
never repeats a seaweed.

All arithmetic is exact: potentials are ints, the principal element is a
tuple of Fractions, each built in lowest terms by setting its two slots,
since gcd(p * n - total, n) = gcd(total, n) for every potential p.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain
from math import gcd
from operator import itemgetter

from ._engine import kernel
from ._kernel import difference_counts
from .core import IntegerMultiset, SeaweedSpec
from .meander import is_frobenius

NOT_SINGLE_PATH = "spectrum undefined: meander is not a single path"


class SpectrumUndefinedError(ValueError):
    """The meander is not a single path, so no Frobenius structure exists."""


@dataclass(frozen=True)
class OrientedMeander:
    """A meander with every arc directed.

    Top arcs run right-to-left, bottom arcs left-to-right; edges keep the
    construction order (top blocks first, outermost arcs first).
    """

    n: int
    edges: tuple[tuple[int, int], ...]


def orient(g: SeaweedSpec) -> OrientedMeander:
    """The meander's arcs, read off the parts and directed.

    A block [s..e] nests the arcs {s, e}, {s+1, e-1}, ... outermost first,
    so an odd block leaves its middle unmatched and a singleton adds no arc.
    Top blocks come first, each top arc stored high end to low end, then
    bottom blocks, each bottom arc low end to high end.
    """
    edges = []
    for parts, top in ((g.top.parts, True), (g.bottom.parts, False)):
        for s, p in zip(accumulate(parts, initial=1), parts):
            lows = range(s, s + p // 2)
            highs = reversed(range(s + (p + 1) // 2, s + p))
            edges += zip(highs, lows) if top else zip(lows, highs)
    return OrientedMeander(g.n, tuple(edges))


def vertex_potentials(g: SeaweedSpec) -> tuple[int, ...]:
    """Integer potential of each vertex (index 0 holds vertex 1).

    Every oriented arc (u, v) satisfies phi(u) - phi(v) = 1, and the
    normalization pins phi(n) = 0, so phi(i) is the signed arc count of the
    meander path from i to n.
    """
    return _built(None, g.top.parts, g.bottom.parts)


_memo: dict[tuple, dict] = {}  # part pair -> entry, least recently used first


def _built(build, top: tuple, bottom: tuple):
    """build(top, bottom, phi) of the seaweed with these parts and its
    potentials phi, kept in its memo entry from the first call; the entry
    keeps phi itself under None, so build None reads it back.

    A new entry walks once; off a single path it raises and is not kept.
    Two entries, since the swap and reverse checks ask for a seaweed and
    then its partner. A new entry makes a third until the build is done,
    and then the least recently used goes: freed first, its rows would drop
    the collector's count of new objects to zero, where it stops, and the
    new rows would leave it near a young collection, which more than
    doubled those of a verify_grid job.
    """
    entry = _memo.pop((top, bottom), None)
    if entry is None:
        phi = kernel.potentials(top, bottom)
        if phi is None:
            raise SpectrumUndefinedError(NOT_SINGLE_PATH)
        entry = {None: phi}
    _memo[top, bottom] = entry
    made = entry.get(build)
    if made is None:
        made = entry[build] = build(top, bottom, entry[None])
    while len(_memo) > 2:
        del _memo[next(iter(_memo))]
    return made


def _row_spans(top: tuple, bottom: tuple) -> list[tuple[int, int]]:
    """Half-open 0-based column interval [lo, hi) of each row's admissible
    cells, for the seaweed with these parts.

    (i, j) is admissible when i's top block index is at most j's and i's
    bottom block index is at least j's. Since block indices never decrease,
    that is j running from the first position of i's top block (lo) to the
    last position of i's bottom block (hi); the interval always holds the
    diagonal.
    """
    starts = []
    for lo, p in zip(accumulate(top, initial=0), top):
        starts += [lo] * p
    ends = []
    for hi, p in zip(accumulate(bottom), bottom):
        ends += [hi] * p
    return list(zip(starts, ends))


def _full(top: tuple, bottom: tuple, phi) -> tuple[tuple[int, ...], ...]:
    """The full matrix of the seaweed with these parts and potentials phi:
    row i holds phi(i) - phi(j) for every j; rows of equal potential are one
    tuple.

    With lo and hi the least and greatest potential, the differences all lie
    in table = (lo-hi, ..., hi-lo). Row p's differences p - x are the entries
    hi - x of the slice of table starting at p - lo, so one itemgetter of
    those offsets, applied to one slice per distinct potential, builds every
    row without arithmetic per entry.
    """
    if len(phi) == 1:
        return ((0,),)  # an itemgetter of one index returns a bare int
    lo, hi = min(phi), max(phi)
    width = hi - lo + 1
    table = tuple(range(lo - hi, hi - lo + 1))
    pick = itemgetter(*[hi - x for x in phi])
    rows = {p: pick(table[p - lo : p - lo + width]) for p in set(phi)}
    return tuple(map(rows.__getitem__, phi))


def _masked(top: tuple, bottom: tuple, phi) -> tuple[tuple[int | None, ...], ...]:
    """The masked matrix of the seaweed with these parts, cut from _full's rows.

    Row i is None, then full row i over its admissible interval (see
    _row_spans), then None again; the pads are slices of one tuple of n
    Nones, cut once per distinct block bound.
    """
    full = _built(_full, top, bottom)
    nones = (None,) * len(full)
    heads = {lo: nones[:lo] for lo in accumulate(top, initial=0)}
    tails = {hi: nones[hi:] for hi in accumulate(bottom)}
    return tuple(
        heads[lo] + row[lo:hi] + tails[hi] for row, (lo, hi) in zip(full, _row_spans(top, bottom))
    )


def spectrum_matrix(g: SeaweedSpec) -> tuple[tuple[int | None, ...], ...]:
    """The eigenvalue at every admissible position, None elsewhere.

    Row i, column j (1-based in math terms) sits at [i-1][j-1]. It is kept
    in g's memo entry, cut from the full matrix's rows (see _masked).
    """
    return _built(_masked, g.top.parts, g.bottom.parts)


def extended_spectrum_matrix(g: SeaweedSpec) -> tuple[tuple[int, ...], ...]:
    """All n^2 potential differences; skew-symmetric by construction.

    Rows of vertices with equal potential are the same tuple object, so
    the matrix holds one row per distinct potential. It is kept in g's memo
    entry and built without the masked one.
    """
    return _built(_full, g.top.parts, g.bottom.parts)


def matrix_text(rows) -> str:
    """Space-separated rows, a centered dot marking non-admissible cells."""
    return "\n".join(
        " ".join("·" if cell is None else str(cell) for cell in row) for row in rows
    )


def _spectrum_from(top: tuple, bottom: tuple, phi) -> IntegerMultiset:
    """The spectrum of the seaweed with these parts and potentials phi."""
    return IntegerMultiset._from_histogram(kernel.spectrum_counts(top, bottom, phi))


def _spectrum_of(top: tuple, bottom: tuple) -> IntegerMultiset | None:
    """The spectrum of the seaweed with these parts, or None when its
    meander is not a single path: two kernel calls and no memo entry."""
    phi = kernel.potentials(top, bottom)
    return None if phi is None else _spectrum_from(top, bottom, phi)


def spectrum(g: SeaweedSpec) -> IntegerMultiset:
    """Eigenvalue multiset of the Frobenius seaweed, one zero removed.

    Size is always one less than the number of admissible positions.
    """
    return _built(_spectrum_from, g.top.parts, g.bottom.parts)


def extended_spectrum(g: SeaweedSpec) -> IntegerMultiset:
    """All n^2 potential differences, one zero removed (size n^2 - 1)."""
    return IntegerMultiset._from_histogram(difference_counts(vertex_potentials(g)))


def principal_element(g: SeaweedSpec) -> tuple[Fraction, ...]:
    """Diagonal of the principal element: potentials recentred to trace zero.

    Entries are exact rationals whose common denominator divides n; the
    difference across every oriented arc is exactly 1. Entry p is
    (p * n - total) / n, and gcd(p * n - total, n) = gcd(total, n) = d, so
    it is (p * n - total) / d over n / d in lowest terms: built so by setting
    Fraction's two slots, as Python 3.12's Fraction._from_coprime_ints does
    (renamed slots would raise: Fraction has no __dict__). The potentials
    fill lo..hi with lo <= 0 <= hi (arcs step by 1, phi(n) = 0), so the
    entries, laid out 0..hi and then lo..-1, are indexed by the potential.
    """
    phi = vertex_potentials(g)
    total, lo = sum(phi), min(phi)
    d = gcd(total, g.n)
    den, shift = g.n // d, total // d
    nums = range(lo * den - shift, (max(phi) + 1) * den - shift, den)  # p = lo..hi
    made, new = [], object.__new__
    for num in chain(nums[-lo:], nums[:-lo]):
        x = new(Fraction)
        x._numerator = num
        x._denominator = den
        made.append(x)
    return tuple(map(made.__getitem__, phi))


def frobenius_form_support(g: SeaweedSpec) -> tuple[tuple[int, int], ...]:
    """Positions where the Frobenius functional is 1: the oriented arcs.

    Sorted ascending; a Frobenius seaweed on n vertices has exactly n-1.
    """
    if not is_frobenius(g):
        raise SpectrumUndefinedError(NOT_SINGLE_PATH)
    om = orient(g)
    return tuple(sorted(om.edges))
