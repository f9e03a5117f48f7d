import random

import pytest
from hypothesis import given

import goldens
from oracles import graph_components
from seaweedspec import (
    compositions_of,
    index_gcd_maximal_parabolic,
    index_gcd_three_part,
    index_gl,
    index_sl,
    is_frobenius,
    parse_seaweed,
)
from seaweedspec.meander import _census, component_counts
from strategies import seaweeds


def census(g):
    """(cycles, paths) of g's meander, from the winding-down moves."""
    return component_counts(g.top.parts, g.bottom.parts)


class TestComponents:
    def test_single_path_golden(self):
        assert census(parse_seaweed("2|4 / 1|2|3")) == (0, 1)

    def test_two_cycle(self):
        assert census(parse_seaweed("2 / 2")) == (1, 0)
        assert census(parse_seaweed("4 / 2|2")) == (1, 0)

    def test_isolated_vertices_are_paths(self):
        assert census(parse_seaweed("1|1 / 1|1")) == (0, 2)

    def test_counts_match_bfs_oracle_exhaustively(self):
        for n in range(1, 8):
            for top in compositions_of(n):
                for bottom in compositions_of(n):
                    assert census(parse_seaweed(f"{top} / {bottom}")) == graph_components(
                        top.parts, bottom.parts
                    )

    @given(seaweeds(max_n=200))
    def test_counts_match_bfs_oracle(self, g):
        assert census(g) == graph_components(g.top.parts, g.bottom.parts)

    @pytest.mark.parametrize(
        "top, bottom, counts",
        [
            ((99999999999999999999999,), (99999999999999999999999,), (49999999999999999999999, 1)),
            ((10**12, 1), (10**12 + 1,), (0, 1)),  # a run of 10^12 rotation contractions
            ((2 * 10**18,), (10**18, 10**18), (5 * 10**17, 0)),  # block elimination
            ((10**18 + 3,), (1, 10**18 + 1, 1), (5 * 10**17, 2)),  # pure contraction
        ],
    )
    def test_moves_answer_at_any_size(self, top, bottom, counts):
        assert component_counts(top, bottom) == counts

    def test_the_large_shapes_follow_their_small_pattern(self):
        """The pins above extend these: for even M, M|1 / M+1 is one path,
        2M / M|M has M/2 cycles and M+3 / 1|M+1|1 has M/2 cycles, 2 paths."""
        for m in range(2, 40, 2):
            assert graph_components((m, 1), (m + 1,)) == (0, 1)
            assert graph_components((2 * m,), (m, m)) == (m // 2, 0)
            assert graph_components((m + 3,), (1, m + 1, 1)) == (m // 2, 2)


class TestCensus:
    def test_census_equals_the_moves_on_every_pair_through_n9(self):
        census = _census(9)
        assert census[0] == b"\x00"
        for n in range(1, 10):
            tops = [c.parts for c in compositions_of(n)]
            moved = bytes(
                2 * cycles + paths
                for top in tops
                for bottom in tops
                for cycles, paths in [component_counts(top, bottom)]
            )
            assert census[n] == moved, n


class TestIndex:
    def test_goldens(self):
        assert index_sl(parse_seaweed("2|4 / 1|2|3")) == 0
        assert index_gl(parse_seaweed("2|4 / 1|2|3")) == 1
        assert index_sl(parse_seaweed("2 / 2")) == 1  # one cycle
        assert index_gl(parse_seaweed("2 / 2")) == 2
        assert index_sl(parse_seaweed("1|1 / 1|1")) == 1  # two isolated paths
        assert index_sl(parse_seaweed("1 / 1")) == 0

    def test_is_frobenius(self):
        assert is_frobenius(parse_seaweed("2|4 / 1|2|3"))
        assert not is_frobenius(parse_seaweed("2|2 / 4"))
        assert is_frobenius(parse_seaweed("1 / 1"))

    @given(seaweeds(max_n=14))
    def test_index_is_twice_the_cycles_plus_the_paths(self, g):
        cycles, paths = census(g)
        assert index_gl(g) == 2 * cycles + paths
        assert index_sl(g) == index_gl(g) - 1

    @given(seaweeds(max_n=14))
    def test_swap_and_reverse_preserve_component_counts(self, g):
        for other in (g.swapped(), g.reversed()):
            assert census(other) == census(g)


class TestGcdFormulas:
    def test_values(self):
        assert index_gcd_maximal_parabolic(2, 4) == 1
        assert index_gcd_maximal_parabolic(3, 5) == 0
        assert index_gcd_three_part(2, 2, 2) == 3
        assert index_gcd_three_part(1, 2, 2) == 0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            index_gcd_maximal_parabolic(0, 3)
        with pytest.raises(ValueError):
            index_gcd_three_part(1, 1, 0)

    def test_parabolic_grid(self):
        for a in range(1, 21):
            for b in range(1, 21):
                g = parse_seaweed(f"{a}|{b} / {a + b}")
                assert index_sl(g) == index_gcd_maximal_parabolic(a, b)

    def test_three_part_grid_both_shapes(self):
        for a in range(1, 11):
            for b in range(1, 11):
                for c in range(1, 11):
                    want = index_gcd_three_part(a, b, c)
                    g = parse_seaweed(f"{a}|{b}|{c} / {a + b + c}")
                    assert index_sl(g) == want
                    d = a + b - c
                    if d >= 1:
                        h = parse_seaweed(f"{a}|{b} / {c}|{d}")
                        assert index_sl(h) == want

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_closed_forms_equal_the_moves_near_10_to_the_12(self, seed):
        rng = random.Random(seed)
        for _ in range(200):
            a, b, c = (rng.randrange(10**12 - 10**6, 10**12 + 10**6) for _ in range(3))
            if rng.random() < 0.5:  # a shared factor, so the index is not 0
                k = rng.randrange(2, 1000)
                a, b, c = a // k * k, b // k * k, c // k * k
            assert index_sl(parse_seaweed(f"{a}|{b} / {a + b}")) == index_gcd_maximal_parabolic(a, b)
            want = index_gcd_three_part(a, b, c)
            assert index_sl(parse_seaweed(f"{a}|{b}|{c} / {a + b + c}")) == want
            assert index_sl(parse_seaweed(f"{a}|{b} / {c}|{a + b - c}")) == want
