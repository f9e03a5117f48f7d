"""Named Frobenius families and their closed-form spectra.

Each family maps a parameter point (k, and for some families r) to a
seaweed plus an explicit eigenvalue multiset. The formulas here are the
ones the engine is checked against, so they are written out directly
rather than derived; a few small parameter points that closed forms do not
cover are tabulated.

The two extension transforms at the bottom describe how appending blocks
of 2s (to a top ending in 1) or blocks of 4s (to a top ending in 2)
enlarges a spectrum without adding new eigenvalues.
"""

from __future__ import annotations

from enum import Enum

from .core import Composition, IntegerMultiset, SeaweedSpec


class FamilyId(str, Enum):
    K1 = "k1"
    K2 = "k2"
    K1K = "k1k"
    K2K = "k2k"
    TWOK1_12K = "2k1-12k"
    TWOK11 = "2k11"
    K_2R = "k-2r"
    K_2R_PLUS1 = "k-2r+1"
    TWOS_R1 = "2s-r1"
    K4R = "k-4r"
    K4R_PLUS2 = "k-4r+2"


#: Families parametrized by k alone.
K_ONLY = frozenset({FamilyId.K1, FamilyId.K2, FamilyId.K1K, FamilyId.K2K,
                    FamilyId.TWOK1_12K, FamilyId.TWOK11})
#: Families parametrized by r alone.
R_ONLY = frozenset({FamilyId.TWOS_R1})
#: Families parametrized by both.
K_AND_R = frozenset({FamilyId.K_2R, FamilyId.K_2R_PLUS1, FamilyId.K4R, FamilyId.K4R_PLUS2})
#: Families with a closed-form extended spectrum.
EXTENDED_CLOSED_FORM = frozenset({FamilyId.K1, FamilyId.K2})

#: Families whose k must be odd.
ODD_K = frozenset({FamilyId.K2, FamilyId.K2K, FamilyId.K4R, FamilyId.K4R_PLUS2})


def _check_domain(f: FamilyId, k, r) -> None:
    if f in K_ONLY or f in K_AND_R:
        if k is None:
            raise ValueError(f"family {f.value} needs k")
        if k < 1:
            raise ValueError(f"family {f.value}: k must be at least 1, got {k}")
        if f in ODD_K and k % 2 == 0:
            raise ValueError(f"family {f.value}: k must be odd, got {k}")
        if f is FamilyId.K2 and k < 3:
            raise ValueError(f"family {f.value}: k must be an odd number >= 3, got {k}")
    if f in R_ONLY or f in K_AND_R:
        if r is None:
            raise ValueError(f"family {f.value} needs r")
        if r < 1:
            raise ValueError(f"family {f.value}: r must be at least 1, got {r}")


def family_spec(f: FamilyId, k: int | None = None, r: int | None = None) -> SeaweedSpec:
    """The seaweed at parameter point (k, r) of family f."""
    _check_domain(f, k, r)
    if f is FamilyId.K1:
        top, bottom = [k, 1], [k + 1]
    elif f is FamilyId.K2:
        top, bottom = [k, 2], [k + 2]
    elif f is FamilyId.K1K:
        top, bottom = [k + 1, k], [2 * k + 1]
    elif f is FamilyId.K2K:
        top, bottom = [k + 2, k], [2 * k + 2]
    elif f is FamilyId.TWOK1_12K:
        top, bottom = [2 * k, 1], [1, 2 * k]
    elif f is FamilyId.TWOK11:
        top, bottom = [2 * k, 1, 1], [2 * k + 2]
    elif f is FamilyId.K_2R:
        top, bottom = [k] + [2] * r, [k + 1] + [2] * (r - 1) + [1]
    elif f is FamilyId.K_2R_PLUS1:
        top, bottom = [k] + [2] * r + [1], [k + 1] + [2] * r
    elif f is FamilyId.TWOS_R1:
        top, bottom = [2] * r + [1], [2 * r + 1]
    elif f is FamilyId.K4R:
        top, bottom = [k] + [4] * r, [k + 2] + [4] * (r - 1) + [2]
    elif f is FamilyId.K4R_PLUS2:
        top, bottom = [k] + [4] * r + [2], [k + 2] + [4] * r
    else:  # pragma: no cover
        raise ValueError(f"unknown family {f!r}")
    return SeaweedSpec(Composition(tuple(top)), Composition(tuple(bottom)))


def _k1_counts(k: int) -> dict[int, int]:
    counts: dict[int, int] = {}
    for i in range(1, k + 1):
        counts[-k + i] = counts.get(-k + i, 0) + i
        counts[k - i + 1] = counts.get(k - i + 1, 0) + i
    return counts


def _k2_counts(k: int) -> dict[int, int]:
    if k == 3:
        return {-2: 1, -1: 3, 0: 5, 1: 5, 2: 3, 3: 1}
    m = (k + 1) // 2
    counts = {-m: 1, -m + 1: 3, 0: 2 * k - 1, 1: 2 * k - 1, m: 3, m + 1: 1}
    for i in range(2, m):
        counts[-m + i] = 4 * i - 2
        counts[m - i + 1] = 4 * i - 2
    return counts


_K2K_SMALL = {
    1: {-2: 1, -1: 2, 0: 3, 1: 3, 2: 2, 3: 1},
    3: {-3: 1, -2: 4, -1: 8, 0: 11, 1: 11, 2: 8, 3: 4, 4: 1},
    5: {-4: 1, -3: 4, -2: 10, -1: 17, 0: 22, 1: 22, 2: 17, 3: 10, 4: 4, 5: 1},
    7: {-5: 1, -4: 4, -3: 10, -2: 19, -1: 28, 0: 34, 1: 34, 2: 28, 3: 19, 4: 10, 5: 4, 6: 1},
}


def _k2k_counts(k: int) -> dict[int, int]:
    if k in _K2K_SMALL:
        return dict(_K2K_SMALL[k])
    m = (k + 1) // 2
    counts = {
        -m - 1: 1, -m: 4, -m + 1: 10, -m + 2: 19,
        -1: 6 * k - 14, 0: 6 * k - 8, 1: 6 * k - 8, 2: 6 * k - 14,
        m - 1: 19, m: 10, m + 1: 4, m + 2: 1,
    }
    for i in range(1, m - 3):
        counts[-m + i + 2] = 12 * i + 18
        counts[m - i - 1] = 12 * i + 18
    return counts


def _k4r_counts(k: int, r: int, plus_two: bool) -> dict[int, int]:
    if k == 1:
        edge = 2 * r + 1 if plus_two else 2 * r
        mid = 6 * r + 2 if plus_two else 6 * r - 1
        return {-1: edge, 0: mid, 1: mid, 2: edge}
    if k == 3:
        edge = 2 * r + 3 if plus_two else 2 * r + 2
        mid = 6 * r + 5 if plus_two else 6 * r + 2
        return {-2: 1, -1: edge, 0: mid, 1: mid, 2: edge, 3: 1}
    m = (k + 1) // 2
    if plus_two:
        edge = 2 * (k + r) - 4
        mid = 2 * (k + 3 * r) - 1
    else:
        edge = 2 * (k + r) - 5
        mid = 2 * (k + 3 * r) - 4
    counts = {-m: 1, -m + 1: 3, -1: edge, 0: mid, 1: mid, 2: edge, m: 3, m + 1: 1}
    for i in range(2, m - 1):
        counts[-m + i] = 4 * i - 2
        counts[m - i + 1] = 4 * i - 2
    return counts


def _twos_r1_counts(r: int) -> dict[int, int]:
    a, b = 2, 1
    for s in range(2, r + 1):
        b = b + (s + 1) // 2
        a = a + s + s // 2 + 1
    return {-1: b, 0: a, 1: a, 2: b}


def family_spectrum(f: FamilyId, k: int | None = None, r: int | None = None) -> IntegerMultiset:
    """Closed-form spectrum of family f at (k, r)."""
    _check_domain(f, k, r)
    if f is FamilyId.K1:
        return IntegerMultiset(_k1_counts(k))
    if f is FamilyId.K2:
        return IntegerMultiset(_k2_counts(k))
    if f is FamilyId.K1K:
        counts = {-k: 1, 0: 3 * k - 1, 1: 3 * k - 1, k + 1: 1}
        for i in range(1, k):
            counts[-k + i] = 3 * i
            counts[k - i + 1] = 3 * i
        return IntegerMultiset(counts)
    if f is FamilyId.K2K:
        return IntegerMultiset(_k2k_counts(k))
    if f is FamilyId.TWOK1_12K:
        counts = {}
        for i in range(1, k + 1):
            counts[-k + i] = counts.get(-k + i, 0) + 4 * i - 2
            counts[k - i + 1] = counts.get(k - i + 1, 0) + 4 * i - 2
        return IntegerMultiset(counts)
    if f is FamilyId.TWOK11:
        counts = {-k: 1, k + 1: 1}
        for i in range(1, k + 1):
            counts[-k + i] = counts.get(-k + i, 0) + 4 * i
            counts[k - i + 1] = counts.get(k - i + 1, 0) + 4 * i
        return IntegerMultiset(counts)
    if f in (FamilyId.K_2R, FamilyId.K_2R_PLUS1):
        pad = k + 2 * r - 1 if f is FamilyId.K_2R else k + 2 * r
        counts = {0: pad, 1: pad}
        for i in range(1, k):
            counts[-k + i] = counts.get(-k + i, 0) + i
            counts[k - i + 1] = counts.get(k - i + 1, 0) + i
        return IntegerMultiset(counts)
    if f is FamilyId.TWOS_R1:
        return IntegerMultiset(_twos_r1_counts(r))
    if f is FamilyId.K4R:
        return IntegerMultiset(_k4r_counts(k, r, plus_two=False))
    if f is FamilyId.K4R_PLUS2:
        return IntegerMultiset(_k4r_counts(k, r, plus_two=True))
    raise ValueError(f"unknown family {f!r}")  # pragma: no cover


def family_extended_spectrum(f: FamilyId, k: int | None = None, r: int | None = None) -> IntegerMultiset:
    """Closed-form extended spectrum of an EXTENDED_CLOSED_FORM family."""
    if f not in EXTENDED_CLOSED_FORM:
        raise ValueError(
            f"extended spectrum closed form is only available for "
            f"{FamilyId.K1.value} and {FamilyId.K2.value}, not {f.value}"
        )
    _check_domain(f, k, r)
    if f is FamilyId.K1:
        counts = {0: k}
        for i in range(k):
            counts[-k + i] = counts.get(-k + i, 0) + i + 1
            counts[k - i] = counts.get(k - i, 0) + i + 1
        return IntegerMultiset(counts)
    if k == 3:
        return IntegerMultiset({-3: 1, -2: 3, -1: 5, 0: 6, 1: 5, 2: 3, 3: 1})
    m = (k + 1) // 2
    counts = {
        -m - 1: 1, -m: 3, -1: 2 * k - 1, 0: 2 * k, 1: 2 * k - 1, m: 3, m + 1: 1,
    }
    for i in range(1, m - 1):
        counts[-m + i] = 4 * i + 2
        counts[m - i] = 4 * i + 2
    return IntegerMultiset(counts)


TWOS_VARIANTS = ("r_twos", "r_twos_plus_one")
FOURS_VARIANTS = ("r_fours", "r_fours_plus_two")


def extend_with_2s(s: IntegerMultiset, r: int, variant: str) -> IntegerMultiset:
    """Spectrum after appending r blocks of 2 to a top ending in 1.

    "r_twos" keeps the trailing 1 on the bottom (adds 0 and 1 each with
    multiplicity 2r-1); "r_twos_plus_one" keeps it on the top (multiplicity
    2r). No new eigenvalues appear.
    """
    if r < 1:
        raise ValueError(f"r must be at least 1, got {r}")
    if variant == "r_twos":
        add = 2 * r - 1
    elif variant == "r_twos_plus_one":
        add = 2 * r
    else:
        raise ValueError(f"variant must be one of {TWOS_VARIANTS}, got {variant!r}")
    return s + IntegerMultiset({0: add, 1: add})


def extend_with_4s(s: IntegerMultiset, r: int, variant: str) -> IntegerMultiset:
    """Spectrum after appending r blocks of 4 to a top ending in 2.

    With c = 2r-1 ("r_fours") or c = 2r ("r_fours_plus_two"), the additions
    are -1 and 2 with multiplicity c and 0 and 1 with multiplicity 3c.
    """
    if r < 1:
        raise ValueError(f"r must be at least 1, got {r}")
    if variant == "r_fours":
        c = 2 * r - 1
    elif variant == "r_fours_plus_two":
        c = 2 * r
    else:
        raise ValueError(f"variant must be one of {FOURS_VARIANTS}, got {variant!r}")
    return s + IntegerMultiset({-1: c, 0: 3 * c, 1: 3 * c, 2: c})
