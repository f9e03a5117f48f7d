import hashlib

import pytest

import goldens
from seaweedspec import (
    FamilyId,
    IntegerMultiset,
    compositions_of,
    extend_with_2s,
    extend_with_4s,
    extended_spectrum,
    family_extended_spectrum,
    family_spec,
    family_spectrum,
    is_frobenius,
    is_log_concave,
    is_unimodal,
    parse_seaweed,
    spectrum,
)
from seaweedspec.core import Composition, SeaweedSpec
from seaweedspec.families import FAMILIES, FOURS_VARIANTS, TWOS_VARIANTS


class TestFamilySpec:
    def test_goldens(self):
        assert str(family_spec(FamilyId.K1, k=4)) == "4|1 / 5"
        assert str(family_spec(FamilyId.K2, k=5)) == "5|2 / 7"
        assert str(family_spec(FamilyId.K1K, k=3)) == "4|3 / 7"
        assert str(family_spec(FamilyId.K2K, k=5)) == "7|5 / 12"
        assert str(family_spec(FamilyId.TWOK1_12K, k=3)) == "6|1 / 1|6"
        assert str(family_spec(FamilyId.TWOK11, k=3)) == "6|1|1 / 8"
        assert str(family_spec(FamilyId.K_2R, k=3, r=2)) == "3|2|2 / 4|2|1"
        assert str(family_spec(FamilyId.K_2R_PLUS1, k=3, r=2)) == "3|2|2|1 / 4|2|2"
        assert str(family_spec(FamilyId.TWOS_R1, r=3)) == "2|2|2|1 / 7"
        assert str(family_spec(FamilyId.K4R, k=1, r=1)) == "1|4 / 3|2"
        assert str(family_spec(FamilyId.K4R, k=3, r=2)) == "3|4|4 / 5|4|2"
        assert str(family_spec(FamilyId.K4R_PLUS2, k=5, r=2)) == "5|4|4|2 / 7|4|4"

    def test_lookup_by_value(self):
        assert FamilyId("k2") is FamilyId.K2
        assert FamilyId("k-4r+2") is FamilyId.K4R_PLUS2

    def test_every_member_is_frobenius_on_a_sample(self):
        for f in FamilyId:
            g = family_spec(f, k=3, r=2)
            assert is_frobenius(g), f.value

    def test_domain_errors(self):
        with pytest.raises(ValueError, match="needs k"):
            family_spec(FamilyId.K1)
        with pytest.raises(ValueError, match="needs r"):
            family_spec(FamilyId.TWOS_R1)
        with pytest.raises(ValueError, match="needs r"):
            family_spec(FamilyId.K_2R, k=3)
        with pytest.raises(ValueError, match="must be odd, got 4"):
            family_spec(FamilyId.K2, k=4)
        with pytest.raises(ValueError, match="odd number >= 3, got 1"):
            family_spec(FamilyId.K2, k=1)
        with pytest.raises(ValueError, match="must be odd, got 2"):
            family_spec(FamilyId.K4R, k=2, r=1)
        with pytest.raises(ValueError, match="r must be at least 1, got 0"):
            family_spec(FamilyId.K4R, k=1, r=0)
        with pytest.raises(ValueError, match="k must be at least 1, got 0"):
            family_spec(FamilyId.K1, k=0)


class TestFamilySpectrum:
    def test_k1_smallest(self):
        assert family_spectrum(FamilyId.K1, k=1).counts() == {0: 1, 1: 1}

    def test_k2k_closed_form_golden(self):
        want = {
            -6: 1, -5: 4, -4: 10, -3: 19, -2: 30, -1: 40, 0: 46,
            1: 46, 2: 40, 3: 30, 4: 19, 5: 10, 6: 4, 7: 1,
        }
        assert family_spectrum(FamilyId.K2K, k=9).counts() == want

    def test_witness_goldens(self):
        assert family_spectrum(FamilyId.K_2R, k=3, r=2).counts() == goldens.WITNESS_K2R
        assert (
            family_spectrum(FamilyId.K4R_PLUS2, k=5, r=2).counts()
            == goldens.WITNESS_K4R2
        )

    def test_domain_checked(self):
        with pytest.raises(ValueError, match="must be odd"):
            family_spectrum(FamilyId.K2, k=4)

    @pytest.mark.parametrize(
        "family,points",
        [
            (FamilyId.K1, [(k, None) for k in range(1, 13)]),
            (FamilyId.K2, [(k, None) for k in range(3, 14, 2)]),
            (FamilyId.K1K, [(k, None) for k in range(1, 11)]),
            (FamilyId.K2K, [(k, None) for k in range(1, 14, 2)]),
            (FamilyId.TWOK1_12K, [(k, None) for k in range(1, 9)]),
            (FamilyId.TWOK11, [(k, None) for k in range(1, 9)]),
            (FamilyId.K_2R, [(k, r) for k in range(1, 7) for r in range(1, 5)]),
            (FamilyId.K_2R_PLUS1, [(k, r) for k in range(1, 7) for r in range(1, 5)]),
            (FamilyId.TWOS_R1, [(None, r) for r in range(1, 11)]),
            (FamilyId.K4R, [(k, r) for k in range(1, 8, 2) for r in range(1, 4)]),
            (FamilyId.K4R_PLUS2, [(k, r) for k in range(1, 8, 2) for r in range(1, 4)]),
        ],
        ids=lambda v: v.value if isinstance(v, FamilyId) else "grid",
    )
    def test_formula_matches_engine(self, family, points):
        for k, r in points:
            want = spectrum(family_spec(family, k=k, r=r))
            assert family_spectrum(family, k=k, r=r) == want, (family.value, k, r)


class TestFamilyExtendedSpectrum:
    def test_k1_shape(self):
        got = family_extended_spectrum(FamilyId.K1, k=3).counts()
        assert got == {-3: 1, -2: 2, -1: 3, 0: 3, 1: 3, 2: 2, 3: 1}

    def test_matches_engine(self):
        for k in range(1, 13):
            g = family_spec(FamilyId.K1, k=k)
            assert family_extended_spectrum(FamilyId.K1, k=k) == extended_spectrum(g)
        for k in range(3, 14, 2):
            g = family_spec(FamilyId.K2, k=k)
            assert family_extended_spectrum(FamilyId.K2, k=k) == extended_spectrum(g)

    def test_only_two_families_supported(self):
        for f in FamilyId:
            if f in (FamilyId.K1, FamilyId.K2):
                continue
            with pytest.raises(ValueError, match="only available for"):
                family_extended_spectrum(f, k=3, r=2)


def _outcome(fn, f, k, r):
    try:
        fn(f, k, r)
    except ValueError as exc:
        return str(exc)
    return "accepted"


class TestFamilyTable:
    def test_closed_forms_are_pinned(self):
        """Every family over its own parameters, k < 80 and r < 30: the
        seaweed and closed-form spectrum of each point, beyond the grids
        that are compared with the engine."""
        lines = []
        for f in FamilyId:
            params = FAMILIES[f].params
            for k in range(1, 80) if "k" in params else [None]:
                for r in range(1, 30) if "r" in params else [None]:
                    try:
                        g, s = family_spec(f, k, r), family_spectrum(f, k, r)
                    except ValueError:
                        continue
                    lines.append(f"{f.value} {k} {r} {g} {s.to_text()}")
        assert len(lines) == 7326
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "2e69c2d23e7d760bf67863280194c122732c77a69d6508e58bf3ee2e6848fe62"
        )

    def test_extended_closed_forms_are_pinned(self):
        """k1 at k < 80 and k2 at odd k < 80: the closed-form extended
        spectrum of each point, beyond the k <= 13 compared with the
        engine."""
        lines = [
            f"{f.value} {k} {family_extended_spectrum(f, k).to_text()}"
            for f, ks in ((FamilyId.K1, range(1, 80)), (FamilyId.K2, range(3, 80, 2)))
            for k in ks
        ]
        assert len(lines) == 118
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == (
            "3a5d5f68452c2856155a8b418c433ad760ef0c65338ec4040870c92eaabf4adf"
        )

    def test_which_closed_forms_are_log_concave(self):
        """Every closed form at k < 80 and r <= 7 is unimodal. Seven
        families are log-concave at every point; the four r-block families
        only at the points listed here."""
        log_concave_at = {
            FamilyId.K_2R: lambda k, r: k <= 2 or (k, r) == (3, 1),
            FamilyId.K_2R_PLUS1: lambda k, r: k <= 2,
            FamilyId.K4R: lambda k, r: k in (1, 3) or (k, r) in {
                (5, 1), (5, 2), (7, 1), (9, 1), (11, 1), (13, 1)},
            FamilyId.K4R_PLUS2: lambda k, r: k in (1, 3) or (k, r) in {
                (5, 1), (7, 1), (9, 1)},
        }
        seen = 0
        for f in FamilyId:
            params = FAMILIES[f].params
            want = log_concave_at.get(f, lambda k, r: True)
            for k in range(1, 80) if "k" in params else [None]:
                for r in range(1, 8) if "r" in params else [None]:
                    try:
                        s = family_spectrum(f, k, r)
                    except ValueError:
                        continue
                    assert is_unimodal(s), (f.value, k, r)
                    assert is_log_concave(s) == want(k, r), (f.value, k, r)
                    seen += 1
        assert seen == 2068

    def test_functions_share_one_domain(self):
        """family_spec, family_spectrum and, where a row has one, the
        extended closed form accept the same points and refuse the rest with
        the same message."""
        messages = set()
        for f in FamilyId:
            fns = [family_spec, family_spectrum]
            fns += [family_extended_spectrum] if FAMILIES[f].extended else []
            for k in (None, -1, 0, 1, 2, 3, 4):
                for r in (None, 0, 1, 2):
                    outcomes = {_outcome(fn, f, k, r) for fn in fns}
                    assert len(outcomes) == 1, (f.value, k, r, outcomes)
                    messages |= outcomes
        assert {"accepted", "family k2: k must be an odd number >= 3, got 1",
                "family 2s-r1 needs r", "family k-4r: k must be odd, got 2"} <= messages


def _frobenius_with_final_top_block(max_n, final):
    for n in range(final, max_n + 1):
        for top in compositions_of(n):
            if top.parts[-1] != final:
                continue
            for bottom in compositions_of(n):
                g = SeaweedSpec(top, bottom)
                if is_frobenius(g):
                    yield g


def _extended_by_twos(g, r, variant):
    a, b = g.top.parts, g.bottom.parts
    if variant == "r_twos":
        return SeaweedSpec(
            Composition(a[:-1] + (2,) * r),
            Composition(b + (2,) * (r - 1) + (1,)),
        )
    return SeaweedSpec(
        Composition(a[:-1] + (2,) * r + (1,)),
        Composition(b + (2,) * r),
    )


def _extended_by_fours(g, r, variant):
    a, b = g.top.parts, g.bottom.parts
    if variant == "r_fours":
        return SeaweedSpec(
            Composition(a[:-1] + (4,) * r),
            Composition(b + (4,) * (r - 1) + (2,)),
        )
    return SeaweedSpec(
        Composition(a[:-1] + (4,) * r + (2,)),
        Composition(b + (4,) * r),
    )


class TestExtendWithTwos:
    def test_adds_zeros_and_ones(self):
        s = IntegerMultiset([0, 1])
        assert extend_with_2s(s, 1, "r_twos").counts() == {0: 2, 1: 2}
        assert extend_with_2s(s, 1, "r_twos_plus_one").counts() == {0: 3, 1: 3}
        assert extend_with_2s(s, 3, "r_twos").counts() == {0: 6, 1: 6}

    def test_plus_one_example_against_engine(self):
        base = spectrum(parse_seaweed("1|1 / 2"))
        got = extend_with_2s(base, 1, "r_twos_plus_one")
        assert got == spectrum(parse_seaweed("1|2|1 / 2|2"))
        assert got.counts() == {0: 3, 1: 3}

    def test_bad_variant(self):
        with pytest.raises(ValueError, match="variant"):
            extend_with_2s(IntegerMultiset([0]), 1, "nope")
        with pytest.raises(ValueError, match="variant"):
            extend_with_4s(IntegerMultiset([0]), 1, "r_twos")

    def test_transform_theorem_exhaustive(self):
        seen = 0
        for g in _frobenius_with_final_top_block(7, 1):
            base = spectrum(g)
            for r in (1, 2, 3):
                for variant in TWOS_VARIANTS:
                    ext = _extended_by_twos(g, r, variant)
                    assert spectrum(ext) == extend_with_2s(base, r, variant), (
                        str(g), r, variant,
                    )
                    seen += 1
        assert seen > 100


class TestExtendWithFours:
    def test_profile(self):
        s = IntegerMultiset([0])
        assert extend_with_4s(s, 1, "r_fours").counts() == {-1: 1, 0: 4, 1: 3, 2: 1}
        assert extend_with_4s(s, 1, "r_fours_plus_two").counts() == {-1: 2, 0: 7, 1: 6, 2: 2}

    def test_transform_theorem_exhaustive(self):
        seen = 0
        for g in _frobenius_with_final_top_block(7, 2):
            base = spectrum(g)
            for r in (1, 2, 3):
                for variant in FOURS_VARIANTS:
                    ext = _extended_by_fours(g, r, variant)
                    assert spectrum(ext) == extend_with_4s(base, r, variant), (
                        str(g), r, variant,
                    )
                    seen += 1
        assert seen > 100
