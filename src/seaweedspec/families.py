"""Named Frobenius families and their closed-form spectra.

Each family maps a parameter point (k, r, or both) to a seaweed plus an
explicit eigenvalue multiset. All of a family's facts sit in one row of
FAMILIES: the parameters it takes, the domain of k (its smallest value and
whether it must be odd), its seaweed, its closed-form spectrum and, for k1
and k2, its closed-form extended spectrum. family_spec, family_spectrum,
family_extended_spectrum and the domain check read that row and nothing
else. The formulas are the ones the engine is checked against, so they are
written out directly rather than derived; a few small parameter points that
the closed forms do not cover are tabulated.

The spectrum of a Frobenius seaweed is symmetric about 1/2: the Kirillov
form pairs the eigenspace of a with that of 1 - a (Gerstenhaber-Giaquinto,
"The principal element of a Frobenius Lie algebra", Lett. Math. Phys. 88,
2009). So each closed form states only its values <= 0, and _mirrored adds
1 - v with the count of v. The extended spectra are symmetric about 0 and
are written out whole.

_extended appends r blocks of 2k to a seaweed whose top ends in k, for
extension_variant_spec (and so the stability_4_16 sweep) and for the
r-block families: k-2r and k-2r+1 extend k1, k-4r and k-4r+2 extend k2
(whose closed form also tabulates 1|2 / 3 for k = 1), each with the
spectral transform that adds blocks of 2s or 4s without new eigenvalues.
"""

from __future__ import annotations

from enum import Enum
from typing import Callable, NamedTuple

from .core import _MAX_INDEXABLE, Composition, IntegerMultiset, SeaweedSpec


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


def _mirrored(low: dict[int, int]) -> IntegerMultiset:
    """The multiset symmetric about 1/2 whose values <= 0 are low."""
    counts = dict(low)
    for v, c in low.items():
        counts[1 - v] = c
    return IntegerMultiset(counts)


def _k1(k: int) -> IntegerMultiset:
    return _mirrored({v: v + k for v in range(1 - k, 1)})


def _k2(k: int) -> IntegerMultiset:
    if k == 1:  # 1|2 / 3: the base of k-4r and k-4r+2 at k = 1
        return _mirrored({-1: 1, 0: 2})
    m = (k + 1) // 2
    low = {-m + i: 4 * i - 2 for i in range(2, m)}
    low.update({-m: 1, 1 - m: 3, 0: 2 * k - 1})
    return _mirrored(low)


def _k1k(k: int) -> IntegerMultiset:
    low = {v: 3 * (v + k) for v in range(1 - k, 0)}
    low.update({-k: 1, 0: 3 * k - 1})
    return _mirrored(low)


#: Values <= 0 of k2k where its general pattern has not yet begun.
_K2K_SMALL = {
    1: {-2: 1, -1: 2, 0: 3},
    3: {-3: 1, -2: 4, -1: 8, 0: 11},
    5: {-4: 1, -3: 4, -2: 10, -1: 17, 0: 22},
}


def _k2k(k: int) -> IntegerMultiset:
    if k in _K2K_SMALL:
        return _mirrored(_K2K_SMALL[k])
    m = (k + 1) // 2
    low = {-m + i + 2: 12 * i + 18 for i in range(1, m - 3)}
    low.update({-m - 1: 1, -m: 4, 1 - m: 10, 2 - m: 19, -1: 6 * k - 14, 0: 6 * k - 8})
    return _mirrored(low)


def _twok1_12k(k: int) -> IntegerMultiset:
    return _mirrored({v: 4 * (v + k) - 2 for v in range(1 - k, 1)})


def _twok11(k: int) -> IntegerMultiset:
    return _mirrored({-k: 1} | {v: 4 * (v + k) for v in range(1 - k, 1)})


def _twos_r1(r: int) -> IntegerMultiset:
    return _mirrored({-1: (r + 1) ** 2 // 4, 0: r * (r + 3) // 2 + r * r // 4})


def _k1_extended(k: int) -> IntegerMultiset:
    counts = {v: k + 1 - abs(v) for v in range(-k, k + 1)}
    counts[0] = k
    return IntegerMultiset(counts)


def _k2_extended(k: int) -> IntegerMultiset:
    m = (k + 1) // 2
    counts = {
        -m - 1: 1, -m: 3, -1: 2 * k - 1, 0: 2 * k, 1: 2 * k - 1, m: 3, m + 1: 1,
    }
    for i in range(1, m - 1):
        counts[-m + i] = 4 * i + 2
        counts[m - i] = 4 * i + 2
    return IntegerMultiset(counts)


EXTENSION_VARIANTS = ("r_blocks", "r_blocks_plus_k")
TWOS_VARIANTS = ("r_twos", "r_twos_plus_one")
FOURS_VARIANTS = ("r_fours", "r_fours_plus_two")


def _multiplicity(r: int, variant: str, variants: tuple[str, str]) -> int:
    """2r - 1 for the first of variants, which moves the trailing part to
    the bottom, and 2r for the second, which keeps it on top."""
    if r < 1:
        raise ValueError(f"r must be at least 1, got {r}")
    if variant not in variants:
        raise ValueError(f"variant must be one of {variants}, got {variant!r}")
    return 2 * r - (variant == variants[0])


def extend_with_2s(s: IntegerMultiset, r: int, variant: str) -> IntegerMultiset:
    """Spectrum after appending r blocks of 2 to a top ending in 1.

    "r_twos" keeps the trailing 1 on the bottom (adds 0 and 1 each with
    multiplicity 2r-1); "r_twos_plus_one" keeps it on the top (multiplicity
    2r). No new eigenvalues appear.
    """
    add = _multiplicity(r, variant, TWOS_VARIANTS)
    return s + IntegerMultiset({0: add, 1: add})


def extend_with_4s(s: IntegerMultiset, r: int, variant: str) -> IntegerMultiset:
    """Spectrum after appending r blocks of 4 to a top ending in 2.

    With c = 2r-1 ("r_fours") or c = 2r ("r_fours_plus_two"), the additions
    are -1 and 2 with multiplicity c and 0 and 1 with multiplicity 3c.
    """
    c = _multiplicity(r, variant, FOURS_VARIANTS)
    return s + IntegerMultiset({-1: c, 0: 3 * c, 1: 3 * c, 2: c})


def _extended(top: tuple, bottom: tuple, r: int, variant: str) -> tuple[tuple, tuple]:
    """The parts after r blocks of 2k are appended to a top ending in k:
    "r_blocks" moves the trailing k to the bottom, after r - 1 new blocks
    there, and "r_blocks_plus_k" keeps it on top after the new blocks."""
    k = top[-1]
    if variant == "r_blocks":
        return top[:-1] + (2 * k,) * r, bottom + (2 * k,) * (r - 1) + (k,)
    return top[:-1] + (2 * k,) * r + (k,), bottom + (2 * k,) * r


class Family(NamedTuple):
    """One family's facts. The callables take (k, r) inside the domain."""

    params: str  # the parameters the family takes: "k", "r" or "kr"
    seaweed: Callable[..., tuple[tuple[int, ...], tuple[int, ...]]]
    spectrum: Callable[..., IntegerMultiset]
    extended: Callable[..., IntegerMultiset] | None = None
    k_min: int = 1
    odd_k: bool = False


FAMILIES: dict[FamilyId, Family] = {
    FamilyId.K1: Family(
        "k", lambda k, r: ((k, 1), (k + 1,)), lambda k, r: _k1(k),
        extended=lambda k, r: _k1_extended(k)),
    FamilyId.K2: Family(
        "k", lambda k, r: ((k, 2), (k + 2,)), lambda k, r: _k2(k),
        extended=lambda k, r: _k2_extended(k), k_min=3, odd_k=True),
    FamilyId.K1K: Family(
        "k", lambda k, r: ((k + 1, k), (2 * k + 1,)), lambda k, r: _k1k(k)),
    FamilyId.K2K: Family(
        "k", lambda k, r: ((k + 2, k), (2 * k + 2,)), lambda k, r: _k2k(k), odd_k=True),
    FamilyId.TWOK1_12K: Family(
        "k", lambda k, r: ((2 * k, 1), (1, 2 * k)), lambda k, r: _twok1_12k(k)),
    FamilyId.TWOK11: Family(
        "k", lambda k, r: ((2 * k, 1, 1), (2 * k + 2,)), lambda k, r: _twok11(k)),
    FamilyId.K_2R: Family(
        "kr", lambda k, r: _extended((k, 1), (k + 1,), r, "r_blocks"),
        lambda k, r: extend_with_2s(_k1(k), r, "r_twos")),
    FamilyId.K_2R_PLUS1: Family(
        "kr", lambda k, r: _extended((k, 1), (k + 1,), r, "r_blocks_plus_k"),
        lambda k, r: extend_with_2s(_k1(k), r, "r_twos_plus_one")),
    FamilyId.TWOS_R1: Family(
        "r", lambda k, r: ((2,) * r + (1,), (2 * r + 1,)), lambda k, r: _twos_r1(r)),
    FamilyId.K4R: Family(
        "kr", lambda k, r: _extended((k, 2), (k + 2,), r, "r_blocks"),
        lambda k, r: extend_with_4s(_k2(k), r, "r_fours"), odd_k=True),
    FamilyId.K4R_PLUS2: Family(
        "kr", lambda k, r: _extended((k, 2), (k + 2,), r, "r_blocks_plus_k"),
        lambda k, r: extend_with_4s(_k2(k), r, "r_fours_plus_two"), odd_k=True),
}


def _row(f: FamilyId, k, r) -> Family:
    """f's row, once (k, r) is known to lie in its domain and r in what a
    kernel can index, before any part is built."""
    row = FAMILIES[f]
    if "k" in row.params:
        if k is None:
            raise ValueError(f"family {f.value} needs k")
        if k < 1:
            raise ValueError(f"family {f.value}: k must be at least 1, got {k}")
        if row.odd_k and k % 2 == 0:
            raise ValueError(f"family {f.value}: k must be odd, got {k}")
        if k < row.k_min:  # only k2 starts above 1, and its k is odd
            raise ValueError(f"family {f.value}: k must be an odd number >= {row.k_min}, got {k}")
    if "r" in row.params:
        if r is None:
            raise ValueError(f"family {f.value} needs r")
        if r < 1:
            raise ValueError(f"family {f.value}: r must be at least 1, got {r}")
        if r > _MAX_INDEXABLE:  # every block holds a vertex, so n >= r
            raise ValueError(
                f"family {f.value} too large: r = {r} blocks exceed the most vertices "
                f"a kernel can index, {_MAX_INDEXABLE}"
            )
    return row


def family_spec(f: FamilyId, k: int | None = None, r: int | None = None) -> SeaweedSpec:
    """The seaweed at parameter point (k, r) of family f."""
    top, bottom = _row(f, k, r).seaweed(k, r)
    return SeaweedSpec(Composition(top), Composition(bottom))


def family_spectrum(f: FamilyId, k: int | None = None, r: int | None = None) -> IntegerMultiset:
    """Closed-form spectrum of family f at (k, r)."""
    return _row(f, k, r).spectrum(k, r)


def family_extended_spectrum(f: FamilyId, k: int | None = None, r: int | None = None) -> IntegerMultiset:
    """Closed-form extended spectrum of a family whose row has one."""
    if FAMILIES[f].extended is None:
        have = " and ".join(g.value for g, row in FAMILIES.items() if row.extended)
        raise ValueError(f"extended spectrum closed form is only available for {have}, not {f.value}")
    return _row(f, k, r).extended(k, r)


def default_extension_base(k: int) -> SeaweedSpec:
    """The stock base with trailing top part k: k1k's (k+1)|k over 2k+1."""
    return family_spec(FamilyId.K1K, k)


def extension_variant_spec(base: SeaweedSpec, k: int, r: int, variant: str) -> SeaweedSpec:
    """The base ending in k with r blocks of 2k appended (see _extended)."""
    if variant not in EXTENSION_VARIANTS:
        raise ValueError(f"variant must be one of {EXTENSION_VARIANTS}, got {variant!r}")
    if base.top.parts[-1] != k:
        raise ValueError(f"base top must end in k={k}, got {base.top}")
    top, bottom = _extended(base.top.parts, base.bottom.parts, r, variant)
    return SeaweedSpec(Composition(top), Composition(bottom))
