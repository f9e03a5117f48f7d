"""Spectra of Frobenius seaweeds via meander vertex potentials.

`orient` builds the meander's arcs, the one place in Python that does: each
block nests its arcs outermost first, every top arc runs right-to-left and
every bottom arc left-to-right. A Frobenius seaweed's meander is a single
path, and following it assigns each vertex an integer potential that drops
by one along every oriented arc.
The eigenvalue attached to an admissible position (i,j) is then just
phi(i) - phi(j), the mask of admissible positions being the pairs whose
top blocks ascend and bottom blocks descend.

Block indices never decrease along 1..n, so row i's admissible columns are
one contiguous interval: from the first position of i's top block to the
last position of i's bottom block, and `_row_spans` lists those
intervals. `_matrices` builds both matrices from one walk and one table,
and neither does arithmetic per entry: each row of the full matrix is one
itemgetter pass over a slice of a single table of all possible
differences, vertices of equal potential share one row tuple, and the
masked matrix slices each full row to its interval and pads it with
slices of one tuple of Nones, cut once per block bound. `_full` and
`_masked` memoize them by part pair, each holding the last two seaweeds'
matrices until a third evicts one, so the swap, reverse and skew checks
of one seaweed build its matrices once under either kernel, and an
extended matrix is built without a masked one. Read by blocks
instead, the same mask is the diagonal plus the upper triangle of each
bottom block plus the lower triangle of each top block, which is how both
kernels count it. Every arc joins potentials one apart, so a block's
right half is its left half mirrored and lowered by one (raised, for a top
block); the pure kernel reads each triangle off the differences within the
left half alone, and the compiled kernel hands it every long block. The
spectrum is that multiset with one zero removed; the extended spectrum drops
the mask and uses all n^2 positions instead. _spectrum_of is the one reader
of the kernel's histogram, for this module and the sweeps alike: None off a
single path, and one of the kernel's diagonal zeros removed.

All arithmetic is exact: potentials are ints, the principal element is a
tuple of Fractions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate
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
    return _potentials(g.top.parts, g.bottom.parts)


def _potentials(top: tuple, bottom: tuple) -> tuple[int, ...]:
    """vertex_potentials of the seaweed with these parts."""
    phi = kernel.potentials(top, bottom)
    if phi is None:
        raise SpectrumUndefinedError(NOT_SINGLE_PATH)
    return phi


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


def _difference_rows(phi: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    """Row i holds phi(i) - phi(j) for every j; rows of equal potential are
    one tuple.

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


# The swap and reverse checks ask for a seaweed and then its partner, so one
# entry would never hit; a non-Frobenius seaweed raises and leaves no entry.
@lru_cache(maxsize=2)
def _full(top: tuple, bottom: tuple) -> tuple[tuple[int, ...], ...]:
    """The full matrix of the seaweed with these parts: _difference_rows of
    its potentials."""
    return _difference_rows(_potentials(top, bottom))


@lru_cache(maxsize=2)
def _masked(top: tuple, bottom: tuple) -> tuple[tuple[int | None, ...], ...]:
    """The masked matrix of the seaweed with these parts, cut from _full's
    rows.

    Row i is None, then full row i over its admissible interval (see
    _row_spans), then None again; the pads are slices of one tuple of n
    Nones, cut once per distinct block bound.
    """
    full = _full(top, bottom)
    nones = (None,) * len(full)
    heads = {lo: nones[:lo] for lo in accumulate(top, initial=0)}
    tails = {hi: nones[hi:] for hi in accumulate(bottom)}
    return tuple(
        heads[lo] + row[lo:hi] + tails[hi] for row, (lo, hi) in zip(full, _row_spans(top, bottom))
    )


def _matrices(g: SeaweedSpec):
    """(masked, full): both eigenvalue matrices of g, from one walk and one
    difference table.

    Both are memo entries (see _masked and _full), so a repeat call returns
    the same tuples: the memos hold at most two seaweeds' n x n masked
    matrices and two full tables, each kept until a third seaweed evicts it.
    """
    parts = g.top.parts, g.bottom.parts
    return _masked(*parts), _full(*parts)


def spectrum_matrix(g: SeaweedSpec) -> tuple[tuple[int | None, ...], ...]:
    """The eigenvalue at every admissible position, None elsewhere.

    Row i, column j (1-based in math terms) sits at [i-1][j-1]; see
    _matrices.
    """
    return _masked(g.top.parts, g.bottom.parts)


def extended_spectrum_matrix(g: SeaweedSpec) -> tuple[tuple[int, ...], ...]:
    """All n^2 potential differences; skew-symmetric by construction.

    Rows of vertices with equal potential are the same tuple object, so
    the matrix holds one row per distinct potential. This is _matrices's
    full matrix, read from its memo (kept for the last two seaweeds) and
    built, on a miss, without the masked one.
    """
    return _full(g.top.parts, g.bottom.parts)


def matrix_text(rows) -> str:
    """Space-separated rows, a centered dot marking non-admissible cells."""
    return "\n".join(
        " ".join("·" if cell is None else str(cell) for cell in row) for row in rows
    )


def _spectrum_of(top: tuple, bottom: tuple) -> IntegerMultiset | None:
    """The spectrum of the seaweed with these parts, or None when its
    meander is not a single path; see the module docstring."""
    counts = kernel.spectrum_counts(top, bottom)
    return None if counts is None else IntegerMultiset._from_histogram(counts)


def spectrum(g: SeaweedSpec) -> IntegerMultiset:
    """Eigenvalue multiset of the Frobenius seaweed, one zero removed.

    Size is always one less than the number of admissible positions.
    """
    s = _spectrum_of(g.top.parts, g.bottom.parts)
    if s is None:
        raise SpectrumUndefinedError(NOT_SINGLE_PATH)
    return s


def extended_spectrum(g: SeaweedSpec) -> IntegerMultiset:
    """All n^2 potential differences, one zero removed (size n^2 - 1)."""
    return IntegerMultiset._from_histogram(difference_counts(vertex_potentials(g)))


def principal_element(g: SeaweedSpec) -> tuple[Fraction, ...]:
    """Diagonal of the principal element: potentials recentred to trace zero.

    Entries are exact rationals whose common denominator divides n; the
    difference across every oriented arc is exactly 1.
    """
    phi = vertex_potentials(g)
    n = g.n
    total = sum(phi)
    # p - total / n, as one Fraction per distinct potential
    recentred = {p: Fraction(p * n - total, n) for p in set(phi)}
    return tuple(map(recentred.__getitem__, phi))


def frobenius_form_support(g: SeaweedSpec) -> tuple[tuple[int, int], ...]:
    """Positions where the Frobenius functional is 1: the oriented arcs.

    Sorted ascending; a Frobenius seaweed on n vertices has exactly n-1.
    """
    if not is_frobenius(g):
        raise SpectrumUndefinedError(NOT_SINGLE_PATH)
    om = orient(g)
    return tuple(sorted(om.edges))
