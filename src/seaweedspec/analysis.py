"""Shape predicates for spectra and self-checks of proven identities.

The predicates inspect the multiplicity profile of an eigenvalue multiset
(counts in ascending value order). shape_fields evaluates all of them under
their record field names, and check_proven_claims is the one place that
holds a spectrum's shape to what is proven: its support is an unbroken
interval with endpoints summing to one, and a log-concave profile is
unimodal. The sweep and spectrum_report both go through it. The verify_*
functions recompute both sides of identities that are theorems. A failure
of either kind can only mean a bug in the engine, so they raise
EngineInvariantError rather than returning False.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import chain
from operator import neg

from .core import Composition, IntegerMultiset, SeaweedSpec, multiset_equal
from .spectrum import extended_spectrum_matrix, spectrum, spectrum_matrix


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
    """Does e -> 1-e preserve all multiplicities? Diagnostic only."""
    return all(s.multiplicity(v) == s.multiplicity(1 - v) for v in s.support())


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
            "unbroken": self.unbroken,
            "centered_half": self.centered_half,
            "unimodal": self.unimodal,
            "log_concave": self.log_concave,
            "symmetric_about_half": self.symmetric_about_half,
        }


def spectrum_report(g: SeaweedSpec) -> SpectrumReport:
    """Compute the spectrum of g and evaluate every shape predicate on it;
    raises EngineInvariantError if the shape breaks a proven claim."""
    s = spectrum(g)
    fields = shape_fields(s)
    check_proven_claims(str(g), s.to_json_obj(), fields)
    return SpectrumReport(str(g), s, **fields)


def _full_multiset(rows) -> IntegerMultiset:
    """Every cell of rows, counted at C speed and validated once per value."""
    return IntegerMultiset(Counter(chain.from_iterable(rows)))


def _transposed(rows):
    return tuple(zip(*rows))


def _antitransposed(rows):
    """Entry (i, j) is rows[n-1-j][n-1-i]: the transpose with both axes reversed."""
    return tuple(zip(*rows[::-1]))[::-1]


def _verify_index_map(
    g: SeaweedSpec, h: SeaweedSpec, name: str, partner: str, flip, source
) -> bool:
    """Entry (i, j) of g's masked and full matrices equals entry source(n, i, j) of h's.

    flip(rows_h) is h's matrix rearranged so that its (i, j) entry is the
    one at source(n, i, j). The whole matrices are compared at once; only
    on a mismatch does the row-major scan run, to name the first differing
    entry. Then the spectra of g and h must agree.
    """
    n = g.n
    matrices = (("entry", spectrum_matrix), ("extended entry", extended_spectrum_matrix))
    for label, matrix in matrices:
        rows_g = matrix(g)
        rows_h = matrix(h)
        if rows_g == flip(rows_h):
            continue
        for i in range(n):
            for j in range(n):
                a, b = source(n, i, j)
                if rows_g[i][j] != rows_h[a][b]:
                    raise EngineInvariantError(
                        f"{name} failure at {g}: {label} ({i + 1},{j + 1}) is "
                        f"{rows_g[i][j]} but {partner} has {rows_h[a][b]}"
                    )
        raise EngineInvariantError(f"{name} failure at {g}: matrix shapes differ")
    if not multiset_equal(spectrum(g), spectrum(h)):
        raise EngineInvariantError(f"{name} failure at {g}: spectra differ")
    return True


def verify_swap_lemma(g: SeaweedSpec) -> bool:
    """Exchanging top and bottom transposes both eigenvalue matrices.

    Checks the masks, the masked matrices, the full matrices, and (as a
    corollary) the spectra of g and its swap. Frobenius g only.
    """
    return _verify_index_map(
        g, g.swapped(), "swap", "transposed swap", _transposed, lambda n, i, j: (j, i)
    )


def verify_reverse_lemma(g: SeaweedSpec) -> bool:
    """Reversing both compositions flips both matrices antidiagonally.

    Entry (i,j) of g matches entry (n+1-j, n+1-i) of the reversal, masked
    and full alike. Frobenius g only.
    """
    return _verify_index_map(
        g, g.reversed(), "reverse", "the reversal", _antitransposed,
        lambda n, i, j: (n - 1 - j, n - 1 - i),
    )


def verify_skew_symmetry(g: SeaweedSpec) -> bool:
    """The full matrix satisfies A[i][j] = -A[j][i]. Frobenius g only."""
    rows = extended_spectrum_matrix(g)
    if rows == tuple([tuple(map(neg, col)) for col in zip(*rows)]):
        return True
    n = g.n
    for i in range(n):
        for j in range(n):
            if rows[i][j] != -rows[j][i]:
                raise EngineInvariantError(
                    f"skew failure at {g}: ({i + 1},{j + 1})={rows[i][j]} "
                    f"vs ({j + 1},{i + 1})={rows[j][i]}"
                )
    raise EngineInvariantError(f"skew failure at {g}: matrix is not square")


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
    from math import gcd

    if k1 < 1 or k2 < 1 or m < 1:
        raise ValueError("k1, k2, m must all be at least 1")
    if gcd(k1, k2) != 1:
        raise ValueError(f"k1 and k2 must be coprime, got gcd({k1},{k2})={gcd(k1, k2)}")

    cut = m * k1 + k2
    n1 = (m + 1) * k1 + k2
    g1 = _two_part(cut, k1, n1)
    rows_g1 = spectrum_matrix(g1)
    performed = []

    g2 = _two_part((m - 1) * k1 + k2, k1, cut) if m > 1 else SeaweedSpec(
        Composition((k2, k1)), Composition((cut,))
    )
    top_left = _submatrix_multiset(rows_g1, range(1, cut + 1), range(1, cut + 1))
    ext_g2 = _full_multiset(extended_spectrum_matrix(g2))
    if not multiset_equal(top_left, ext_g2):
        raise EngineInvariantError(
            f"top-left block failure at k1={k1}, k2={k2}, m={m}: "
            f"{top_left.to_text()} vs {ext_g2.to_text()}"
        )
    performed.append("top_left")

    if k1 > k2:
        small = _two_part(k1 - k2, k2, k1)
        bottom_right = _submatrix_multiset(
            rows_g1, range(cut + 1, n1 + 1), range(cut + 1, n1 + 1)
        )
        ext_small = _full_multiset(extended_spectrum_matrix(small))
        if not multiset_equal(bottom_right, ext_small):
            raise EngineInvariantError(
                f"bottom-right block failure at k1={k1}, k2={k2}, m={m}: "
                f"{bottom_right.to_text()} vs {ext_small.to_text()}"
            )
        performed.append("bottom_right")

        top_right = _submatrix_multiset(
            rows_g1, range(1, cut + 1), range(cut + 1, n1 + 1)
        )
        if m == 1:
            ref_rows = spectrum_matrix(_two_part(k1, k2, k1 + k2))
            ref = _submatrix_multiset(ref_rows, range(1, k1 + 1), range(1, k1 + k2 + 1))
        else:
            ref_rows = spectrum_matrix(g2)
            ref = _submatrix_multiset(
                ref_rows, range(1, cut + 1), range((m - 1) * k1 + k2 + 1, cut + 1)
            )
        shifted = IntegerMultiset({v + 1: c for v, c in ref.items()})
        if not multiset_equal(top_right, shifted):
            raise EngineInvariantError(
                f"top-right block failure at k1={k1}, k2={k2}, m={m}: "
                f"{top_right.to_text()} vs {shifted.to_text()}"
            )
        performed.append("top_right")

    return performed
