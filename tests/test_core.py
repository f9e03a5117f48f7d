import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from seaweedspec import (
    Composition,
    IntegerMultiset,
    ParseError,
    SeaweedSpec,
    compositions_of,
    parse_composition,
    parse_seaweed,
)
from oracles import without_one
from strategies import compositions, integer_multiset_counts, seaweeds


class TestParseComposition:
    def test_basic(self):
        c = parse_composition("1|2|3")
        assert c.parts == (1, 2, 3)
        assert c.n == 6

    def test_single_part(self):
        assert parse_composition("7").parts == (7,)

    def test_whitespace_tolerated(self):
        assert parse_composition(" 2 | 4 ").parts == (2, 4)

    def test_bad_token_is_named(self):
        with pytest.raises(ParseError, match=r"'x'"):
            parse_composition("1|x|3")

    def test_zero_part_rejected(self):
        with pytest.raises(ParseError, match=r"'0'"):
            parse_composition("2|0|1")

    def test_negative_part_rejected(self):
        with pytest.raises(ParseError, match=r"'-2'"):
            parse_composition("-2|5")

    def test_empty_token_rejected(self):
        with pytest.raises(ParseError):
            parse_composition("1||2")

    @given(compositions(max_n=14))
    def test_round_trip(self, c):
        assert parse_composition(str(c)) == c


class TestParseSeaweed:
    def test_basic(self):
        g = parse_seaweed("2|4 / 1|2|3")
        assert g.top.parts == (2, 4)
        assert g.bottom.parts == (1, 2, 3)
        assert g.n == 6
        assert str(g) == "2|4 / 1|2|3"

    def test_compact_spacing(self):
        assert str(parse_seaweed("2|4/1|2|3")) == "2|4 / 1|2|3"

    def test_sum_mismatch_reports_both_sums(self):
        with pytest.raises(ParseError, match=r"top sums to 6.*bottom sums to 5"):
            parse_seaweed("2|4 / 1|2|2")

    def test_missing_slash(self):
        with pytest.raises(ParseError, match="'/'"):
            parse_seaweed("2|4")

    def test_two_slashes(self):
        with pytest.raises(ParseError):
            parse_seaweed("2 / 1 / 1")

    @given(seaweeds(max_n=12))
    def test_round_trip(self, g):
        assert parse_seaweed(str(g)) == g


class TestCompositionType:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Composition(())

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            Composition((2, 0))

    def test_reversed(self):
        assert Composition((1, 2, 3)).reversed().parts == (3, 2, 1)

    def test_seaweed_sum_mismatch(self):
        with pytest.raises(ValueError):
            SeaweedSpec(Composition((3,)), Composition((2,)))

    def test_swapped_and_reversed(self):
        g = parse_seaweed("2|4 / 1|2|3")
        assert str(g.swapped()) == "1|2|3 / 2|4"
        assert str(g.reversed()) == "4|2 / 3|2|1"


class TestCompositionsOf:
    def test_n3_order(self):
        got = [c.parts for c in compositions_of(3)]
        assert got == [(3,), (1, 2), (2, 1), (1, 1, 1)]

    def test_n1(self):
        assert [c.parts for c in compositions_of(1)] == [(1,)]

    @pytest.mark.parametrize("n", range(1, 11))
    def test_count(self, n):
        assert sum(1 for _ in compositions_of(n)) == 2 ** (n - 1)

    @given(st.integers(min_value=1, max_value=11))
    def test_all_valid_and_distinct(self, n):
        seen = set()
        for c in compositions_of(n):
            assert c.n == n
            seen.add(c.parts)
        assert len(seen) == 2 ** (n - 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            list(compositions_of(0))


class TestIntegerMultiset:
    def test_from_values(self):
        s = IntegerMultiset([3, -1, 3, 3])
        assert s.counts() == {-1: 1, 3: 3}
        assert s.size == 4
        assert s.support() == (-1, 3)
        assert s.multiplicity(3) == 3
        assert s.multiplicity(99) == 0

    def test_zero_counts_dropped(self):
        assert IntegerMultiset({5: 0, 1: 2}) == IntegerMultiset({1: 2})

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            IntegerMultiset({1: -1})

    def test_non_integer_value_rejected(self):
        with pytest.raises(ValueError):
            IntegerMultiset({1.5: 2})

    def test_equality_and_hash(self):
        a = IntegerMultiset({0: 2, 1: 1})
        b = IntegerMultiset([1, 0, 0])
        assert a == b
        assert hash(a) == hash(b)
        assert a != IntegerMultiset({0: 2})

    def test_add_sub(self):
        a = IntegerMultiset({0: 2, 1: 1})
        b = IntegerMultiset({1: 2, 5: 1})
        assert (a + b).counts() == {0: 2, 1: 3, 5: 1}
        assert ((a + b) - b) == a
        with pytest.raises(ValueError):
            a - b

    def test_contains_multiset(self):
        big = IntegerMultiset({0: 3, 1: 2})
        assert big.contains(IntegerMultiset({0: 1, 1: 2}))
        assert not big.contains(IntegerMultiset({2: 1}))
        assert not big.contains(IntegerMultiset({1: 3}))

    def test_from_histogram_removes_one_zero_in_place(self):
        assert IntegerMultiset._from_histogram({0: 1}) == IntegerMultiset()
        s = IntegerMultiset._from_histogram({-1: 2, 0: 3, 4: 1})
        assert s.items() == ((-1, 2), (0, 2), (4, 1))
        assert s == without_one(IntegerMultiset({-1: 2, 0: 3, 4: 1}), 0)

    def test_without_one(self):
        s = IntegerMultiset({0: 2, 1: 1})
        assert without_one(s, 1).counts() == {0: 2}
        assert without_one(s, 0).counts() == {0: 1, 1: 1}
        assert s.counts() == {0: 2, 1: 1}
        with pytest.raises(ValueError):
            without_one(s, 7)

    def test_membership_and_bool(self):
        s = IntegerMultiset({2: 1})
        assert 2 in s and 3 not in s
        assert s
        assert not IntegerMultiset()

    def test_to_text(self):
        s = IntegerMultiset({-2: 1, -1: 2, 0: 5, 1: 5, 2: 2, 3: 1})
        assert s.to_text() == "{-2, -1^2, 0^5, 1^5, 2^2, 3}"
        assert IntegerMultiset().to_text() == "{}"

    def test_from_text(self):
        s = IntegerMultiset.from_text("{-2, -1^2, 0^5, 1^5, 2^2, 3}")
        assert s.counts() == {-2: 1, -1: 2, 0: 5, 1: 5, 2: 2, 3: 1}
        assert IntegerMultiset.from_text("{}") == IntegerMultiset()

    def test_from_text_rejects_junk(self):
        for bad in ("1, 2", "{1^}", "{a}", "{1^0}", "{1 2}"):
            with pytest.raises(ParseError):
                IntegerMultiset.from_text(bad)

    def test_json_obj(self):
        s = IntegerMultiset({-1: 2, 0: 5})
        assert s.to_json_obj() == {"-1": 2, "0": 5}
        assert list(s.to_json_obj()) == ["-1", "0"]

    @pytest.mark.parametrize(
        "parse, source, message",
        [
            pytest.param(
                IntegerMultiset.from_text, "{١^٢}", "bad multiset entry", id="text-arabic-indic"
            ),
            pytest.param(
                IntegerMultiset, {3: True},
                "^multiplicity of 3 must be a nonnegative integer, got True$", id="bool-count",
            ),
            pytest.param(
                IntegerMultiset, {3: -1},
                "^multiplicity of 3 must be a nonnegative integer, got -1$", id="negative-count",
            ),
        ],
    )
    def test_reads_only_what_it_writes(self, parse, source, message):
        """ASCII digits with an optional minus sign, and int counts."""
        with pytest.raises(ValueError, match=message):
            parse(source)

    @given(integer_multiset_counts())
    def test_text_round_trip(self, counts):
        s = IntegerMultiset(counts)
        assert IntegerMultiset.from_text(s.to_text()) == s

    @given(integer_multiset_counts())
    def test_json_round_trip(self, counts):
        s = IntegerMultiset(counts)
        assert IntegerMultiset({int(v): c for v, c in s.to_json_obj().items()}) == s

    @given(integer_multiset_counts())
    def test_copy_is_equal_and_owns_its_counts(self, counts):
        s = IntegerMultiset(counts)
        copy = IntegerMultiset(s)
        assert copy == s
        assert copy.items() == s.items()
        assert copy._counts is not s._counts

    @settings(max_examples=50)
    @given(integer_multiset_counts(), integer_multiset_counts())
    def test_addition_is_commutative(self, a, b):
        x, y = IntegerMultiset(a), IntegerMultiset(b)
        assert x + y == y + x
        assert (x + y).size == x.size + y.size


def test_public_surface_is_consistent():
    """__all__ names each public name once, every one resolves on the
    package, and a star import binds exactly those names. The list is
    pinned, so adding or removing a public name is a deliberate edit here."""
    import seaweedspec

    names = seaweedspec.__all__
    assert sorted(names) == [
        "Composition",
        "EngineInvariantError",
        "FamilyId",
        "IntegerMultiset",
        "OrientedMeander",
        "ParseError",
        "SeaweedSpec",
        "SpectrumReport",
        "SpectrumUndefinedError",
        "SweepJob",
        "compositions_of",
        "default_extension_base",
        "enumerate_frobenius",
        "extend_with_2s",
        "extend_with_4s",
        "extended_spectrum",
        "extended_spectrum_matrix",
        "extension_variant_spec",
        "family_extended_spectrum",
        "family_spec",
        "family_spectrum",
        "frobenius_form_support",
        "index_gcd_maximal_parabolic",
        "index_gcd_three_part",
        "index_gl",
        "index_sl",
        "is_frobenius",
        "is_log_concave",
        "is_symmetric_about_half",
        "is_unbroken_centered_half",
        "is_unimodal",
        "kernel_implementation",
        "matrix_text",
        "orient",
        "parse_composition",
        "parse_seaweed",
        "principal_element",
        "render_svg",
        "run_stability_sweep",
        "run_sweep",
        "run_unimodality_sweep",
        "spectrum",
        "spectrum_matrix",
        "spectrum_report",
        "verify_block_lemmas",
        "verify_reverse_lemma",
        "verify_skew_symmetry",
        "verify_swap_lemma",
        "vertex_potentials",
    ]
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(seaweedspec, n)] == []
    namespace = {}
    exec("from seaweedspec import *", namespace)
    del namespace["__builtins__"]
    assert sorted(namespace) == sorted(names)
