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
from seaweedspec._engine import kernel
from strategies import seaweeds


def census(g):
    """(cycles, paths) of g's meander, from the active kernel's walk."""
    return kernel.component_counts(g.top.parts, g.bottom.parts)


class TestComponents:
    def test_single_path_golden(self):
        assert census(parse_seaweed("2|4 / 1|2|3")) == (0, 1)

    def test_two_cycle(self):
        assert census(parse_seaweed("2 / 2")) == (1, 0)
        assert census(parse_seaweed("4 / 2|2")) == (1, 0)

    def test_isolated_vertices_are_paths(self):
        assert census(parse_seaweed("1|1 / 1|1")) == (0, 2)

    def test_counts_match_bfs_oracle_exhaustively(self):
        for n in range(1, 7):
            for top in compositions_of(n):
                for bottom in compositions_of(n):
                    assert census(parse_seaweed(f"{top} / {bottom}")) == graph_components(
                        top.parts, bottom.parts
                    )

    @given(seaweeds(max_n=14))
    def test_counts_match_bfs_oracle(self, g):
        assert census(g) == graph_components(g.top.parts, g.bottom.parts)


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
