"""Shape predicates for spectra and self-checks of proven identities.

The predicates inspect the multiplicity profile of an eigenvalue multiset
(counts in ascending value order). shape_fields evaluates all of them under
their record field names, and check_proven_claims is the one place that
holds a spectrum's shape to what is proven: its support is an unbroken
interval with endpoints summing to one, it is symmetric about 1/2
(Gerstenhaber-Giaquinto 2009), and a log-concave profile is unimodal. The
sweep and spectrum_report both go through it. The verify_* functions
recompute both sides of identities that are theorems. A failure of either
kind can only mean a bug in the engine, so they raise EngineInvariantError
rather than returning False.

The swap and reverse checks read each seaweed's masked and full matrices
from one _matrices call, and spectrum's memo keeps the last two
seaweeds' potentials, spectra and matrices, so the swap, reverse and
skew checks of one seaweed walk it and build its matrices once. They
compare g's rows with the partner's columns (read upward, for the
reversal) as zip makes them; the skew check compares the columns with
each distinct row negated once. A matrix that is not n x n fails first,
on its shape, so each compare runs once, on square matrices. The flipped
matrix is built whole only on a mismatch, to name its first differing
entry. The corner-block lemmas compare multisets: a corner of a masked
matrix against an extended spectrum with its zero put back.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from math import gcd
from operator import eq, neg

from .core import Composition, IntegerMultiset, SeaweedSpec, _check_indexable
from .spectrum import extended_spectrum, extended_spectrum_matrix, spectrum, spectrum_matrix


class EngineInvariantError(RuntimeError):
    """A proven identity failed to verify: the engine itself is wrong."""


def is_unbroken_centered_half(s: IntegerMultiset) -> tuple[bool, bool]:
    """(interval support, endpoints summing to 1) for a nonempty multiset.

    Both hold for every Frobenius seaweed spectrum, so check_proven_claims
    treats a False here as an engine bug, not a finding.
    """
    if not s:
        raise ValueError("predicate undefined for an empty multiset")
    support = s.support()
    lo, hi = support[0], support[-1]
    unbroken = support == tuple(range(lo, hi + 1))
    return unbroken, lo + hi == 1


def is_unimodal(s: IntegerMultiset) -> bool:
    """Multiplicities rise (weakly) then fall, in ascending value order."""
    profile = s.multiplicities()
    descending = False
    for prev, cur in zip(profile, profile[1:]):
        if cur < prev:
            descending = True
        elif descending and cur > prev:
            return False
    return True


def is_log_concave(s: IntegerMultiset) -> bool:
    """Each interior multiplicity squared covers its neighbors' product.

    Evaluated on the value-sorted profile as stored; gaps in the support
    are not filled in. Log-concavity of a positive sequence implies
    unimodality.
    """
    profile = s.multiplicities()
    return all(
        profile[i] * profile[i] >= profile[i - 1] * profile[i + 1]
        for i in range(1, len(profile) - 1)
    )


def is_symmetric_about_half(s: IntegerMultiset) -> bool:
    """Does e -> 1-e preserve all multiplicities?

    One comparison of the counts with their image under the map, exact on
    any multiset. This holds for every Frobenius seaweed spectrum, so
    check_proven_claims treats a False here as an engine bug.
    """
    counts = s.counts()
    return counts == {1 - v: c for v, c in counts.items()}


#: The shape fields of a spectrum, in record order.
SHAPE_FIELDS = ("unbroken", "centered_half", "unimodal", "log_concave", "symmetric_about_half")


def shape_fields(s: IntegerMultiset) -> dict:
    """Every shape predicate of s, by record field name (SHAPE_FIELDS order).

    All are None when s is empty (the one-vertex seaweed), and
    centered_half is only claimed when the support is unbroken.
    """
    if not s:
        return dict.fromkeys(SHAPE_FIELDS)
    unbroken, centered = is_unbroken_centered_half(s)
    return {
        "unbroken": unbroken,
        "centered_half": unbroken and centered,
        "unimodal": is_unimodal(s),
        "log_concave": is_log_concave(s),
        "symmetric_about_half": is_symmetric_about_half(s),
    }


def check_proven_claims(spec: str, spectrum_obj, fields: dict) -> None:
    """Raise EngineInvariantError if the shape fields of spec's spectrum
    (printed as spectrum_obj) break a proven claim; a None field claims
    nothing."""
    if fields["unbroken"] is False:
        raise EngineInvariantError(
            f"{spec}: spectrum support has gaps, which is impossible: {spectrum_obj}"
        )
    if fields["centered_half"] is False:
        raise EngineInvariantError(
            f"{spec}: spectrum endpoints do not sum to 1, which is impossible: {spectrum_obj}"
        )
    if fields["symmetric_about_half"] is False:
        # The Kirillov form pairs the eigenspaces of a and 1 - a of the
        # principal element (Gerstenhaber-Giaquinto, Lett. Math. Phys. 88,
        # 2009).
        raise EngineInvariantError(
            f"{spec}: spectrum is not symmetric about 1/2, which is impossible: {spectrum_obj}"
        )
    if fields["log_concave"] and fields["unimodal"] is False:
        raise EngineInvariantError(
            f"{spec}: log-concave profile marked non-unimodal; predicates disagree"
        )


@dataclass(frozen=True)
class SpectrumReport:
    """Shape summary of one Frobenius seaweed's spectrum; the predicate
    fields are those of shape_fields."""

    spec: str
    spectrum: IntegerMultiset
    unbroken: bool | None
    centered_half: bool | None
    unimodal: bool | None
    log_concave: bool | None
    symmetric_about_half: bool | None

    def to_json_obj(self) -> dict:
        return {
            "spec": self.spec,
            "spectrum": self.spectrum.to_json_obj(),
            **{name: getattr(self, name) for name in SHAPE_FIELDS},
        }


def spectrum_report(g: SeaweedSpec) -> SpectrumReport:
    """Compute the spectrum of g and evaluate every shape predicate on it;
    raises EngineInvariantError if the shape breaks a proven claim."""
    s = spectrum(g)
    fields = shape_fields(s)
    check_proven_claims(str(g), s.to_json_obj(), fields)
    return SpectrumReport(str(g), s, **fields)


def _is_square(rows, n: int) -> bool:
    return len(rows) == n and set(map(len, rows)) == {n}


def _transposed(rows):
    return tuple(zip(*rows))


def _equals_transposed(rows, other) -> bool:
    """rows == _transposed(other) for n x n matrices: row i against column
    i of other, each column made as it is compared."""
    return all(map(eq, rows, zip(*other)))


def _antitransposed(rows):
    """Entry (i, j) is rows[n-1-j][n-1-i]: the transpose with both axes reversed."""
    return tuple(zip(*rows[::-1]))[::-1]


def _equals_antitransposed(rows, other) -> bool:
    """rows == _antitransposed(other) for n x n matrices: row n-1-j against
    column j of other read bottom to top, each made as it is compared."""
    return all(map(eq, reversed(rows), zip(*reversed(other))))


def _first_difference(rows, want):
    """The first (i, j, got, wanted) in row-major order where the n x n
    matrices rows and want differ; they must differ somewhere."""
    return next(
        (i, j, got, wanted)
        for i, (row, wanted_row) in enumerate(zip(rows, want))
        for j, (got, wanted) in enumerate(zip(row, wanted_row))
        if got != wanted
    )


def _matrices(g: SeaweedSpec):
    """(masked, full): g's two eigenvalue matrices, from spectrum's memo."""
    return spectrum_matrix(g), extended_spectrum_matrix(g)


def _verify_index_map(
    g: SeaweedSpec, h: SeaweedSpec, name: str, partner: str, flip, equals_flip
) -> bool:
    """g's masked and full matrices equal flip of h's, and their spectra agree.

    Each seaweed's two matrices come from one _matrices call. A matrix
    that is not n x n fails first, on its shape. Then equals_flip compares
    a pair without building the flip; only on a mismatch is the flip
    built, and the failure names the first differing entry in g's
    row-major order. The spectra are compared last.
    """
    n = g.n
    labels = ("entry", "extended entry")
    for label, rows, other in zip(labels, _matrices(g), _matrices(h)):
        if not (_is_square(rows, n) and _is_square(other, n)):
            raise EngineInvariantError(f"{name} failure at {g}: matrix shapes differ")
        if not equals_flip(rows, other):
            i, j, got, wanted = _first_difference(rows, flip(other))
            raise EngineInvariantError(
                f"{name} failure at {g}: {label} ({i + 1},{j + 1}) is {got} "
                f"but {partner} has {wanted}"
            )
    if spectrum(g) != spectrum(h):
        raise EngineInvariantError(f"{name} failure at {g}: spectra differ")
    return True


def verify_swap_lemma(g: SeaweedSpec) -> bool:
    """Exchanging top and bottom transposes both eigenvalue matrices.

    Checks the masks, the masked matrices, the full matrices, and (as a
    corollary) the spectra of g and its swap. Frobenius g only.
    """
    return _verify_index_map(
        g, g.swapped(), "swap", "transposed swap", _transposed, _equals_transposed
    )


def verify_reverse_lemma(g: SeaweedSpec) -> bool:
    """Reversing both compositions flips both matrices antidiagonally.

    Entry (i,j) of g matches entry (n+1-j, n+1-i) of the reversal, masked
    and full alike. Frobenius g only.
    """
    return _verify_index_map(
        g, g.reversed(), "reverse", "the reversal", _antitransposed, _equals_antitransposed
    )


def verify_skew_symmetry(g: SeaweedSpec) -> bool:
    """The full matrix equals its negated transpose. Frobenius g only.

    A matrix that is not n x n fails first, on its shape. Column i is
    compared with row i negated, and each distinct row tuple is negated
    once; the negated transpose is built only on a mismatch, to name the
    first differing entry. A cell that is no int fails the check, named by
    its first occurrence in row-major order.
    """
    rows = extended_spectrum_matrix(g)
    if not _is_square(rows, g.n):
        raise EngineInvariantError(f"skew failure at {g}: matrix is not square")
    distinct = {id(row): row for row in rows}
    try:
        negated_row = {key: tuple(map(neg, row)) for key, row in distinct.items()}
    except TypeError:
        for i, row in enumerate(rows):
            for j, cell in enumerate(row):
                if not isinstance(cell, int):
                    raise EngineInvariantError(
                        f"skew failure at {g}: ({i + 1},{j + 1}) is {cell!r}, not an integer"
                    ) from None
        raise
    if all(map(eq, zip(*rows), [negated_row[id(r)] for r in rows])):
        return True
    want = [tuple(map(neg, col)) for col in zip(*rows)]
    i, j, got, negated = _first_difference(rows, want)
    raise EngineInvariantError(
        f"skew failure at {g}: ({i + 1},{j + 1})={got} vs ({j + 1},{i + 1})={-negated}"
    )


def _two_part(a: int, b: int, n: int) -> SeaweedSpec:
    return SeaweedSpec(Composition((a, b)), Composition((n,)))


def _submatrix_multiset(rows, row_range, col_range) -> IntegerMultiset:
    lo, hi = col_range.start - 1, col_range.stop - 1
    block = [rows[i - 1][lo:hi] for i in row_range]
    for i, cells in zip(row_range, block):
        if None in cells:
            raise EngineInvariantError(
                f"expected admissible cell ({i},{col_range.start + cells.index(None)}) "
                "is outside the mask"
            )
    return IntegerMultiset(Counter(chain.from_iterable(block)))


def verify_block_lemmas(k1: int, k2: int, m: int) -> list[str]:
    """Check the corner-block identities between consecutive family members.

    With g1 the two-part seaweed (m*k1+k2)|k1 over the full bottom and g2
    its predecessor ((m-1)*k1+k2)|k1, the top-left corner of g1's masked
    matrix reproduces g2's full matrix as a multiset; when k1 > k2, the
    bottom-right corner reproduces the full matrix of (k1-k2)|k2, and the
    top-right corner reproduces a column block of the predecessor's masked
    matrix shifted up by 1. Requires gcd(k1, k2) = 1 so everything in
    sight is Frobenius. Returns the names of the checks performed.
    """
    if k1 < 1 or k2 < 1 or m < 1:
        raise ValueError("k1, k2, m must all be at least 1")
    if gcd(k1, k2) != 1:
        raise ValueError(f"k1 and k2 must be coprime, got gcd({k1},{k2})={gcd(k1, k2)}")

    cut = m * k1 + k2
    n1 = (m + 1) * k1 + k2
    _check_indexable(n1, "seaweed")
    rows_g1 = spectrum_matrix(_two_part(cut, k1, n1))
    performed = []

    def check(corner: str, got: IntegerMultiset, want: IntegerMultiset) -> None:
        if got != want:
            raise EngineInvariantError(
                f"{corner.replace('_', '-')} block failure at k1={k1}, k2={k2}, m={m}: "
                f"{got.to_text()} vs {want.to_text()}"
            )
        performed.append(corner)

    g2 = _two_part((m - 1) * k1 + k2, k1, cut)
    check(
        "top_left",
        _submatrix_multiset(rows_g1, range(1, cut + 1), range(1, cut + 1)),
        extended_spectrum(g2) + IntegerMultiset([0]),
    )

    if k1 > k2:
        check(
            "bottom_right",
            _submatrix_multiset(rows_g1, range(cut + 1, n1 + 1), range(cut + 1, n1 + 1)),
            extended_spectrum(_two_part(k1 - k2, k2, k1)) + IntegerMultiset([0]),
        )

        top_right = _submatrix_multiset(rows_g1, range(1, cut + 1), range(cut + 1, n1 + 1))
        if m == 1:
            ref_rows = spectrum_matrix(_two_part(k1, k2, k1 + k2))
            ref = _submatrix_multiset(ref_rows, range(1, k1 + 1), range(1, k1 + k2 + 1))
        else:
            ref_rows = spectrum_matrix(g2)
            ref = _submatrix_multiset(
                ref_rows, range(1, cut + 1), range((m - 1) * k1 + k2 + 1, cut + 1)
            )
        check("top_right", top_right, IntegerMultiset({v + 1: c for v, c in ref.items()}))

    return performed
