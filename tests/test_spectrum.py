import hashlib
import importlib
import pickle
import weakref
from collections import defaultdict
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import goldens
from oracles import (
    _side_edges,
    arc_functional,
    bracket,
    flag_mask,
    kirillov_rank,
    oracle_matrix,
    oracle_potentials,
    oracle_spectrum,
    seaweed_basis,
    without_one,
)
from seaweedspec import (
    FamilyId,
    IntegerMultiset,
    OrientedMeander,
    _kernel,
    compositions_of,
    enumerate_frobenius,
    extended_spectrum,
    extended_spectrum_matrix,
    family_spec,
    frobenius_form_support,
    index_sl,
    is_frobenius,
    matrix_text,
    orient,
    parse_seaweed,
    principal_element,
    render_svg,
    spectrum,
    spectrum_matrix,
    verify_reverse_lemma,
    verify_skew_symmetry,
    verify_swap_lemma,
    vertex_potentials,
)
from seaweedspec._engine import kernel
from seaweedspec.spectrum import (
    NOT_SINGLE_PATH,
    SpectrumUndefinedError,
    _row_spans,
)
from strategies import LARGE_POINTS, orientations, seaweeds

# The package binds the name spectrum to the function, so fetch the module.
spectrum_module = importlib.import_module("seaweedspec.spectrum")


def all_pairs(max_n):
    for n in range(1, max_n + 1):
        for top in compositions_of(n):
            for bottom in compositions_of(n):
                yield parse_seaweed(f"{top} / {bottom}")


def frobenius_cases(max_n):
    return (g for g in all_pairs(max_n) if is_frobenius(g))


class TestOrient:
    def test_golden(self):
        om = orient(parse_seaweed("2|4 / 1|2|3"))
        assert om.n == 6
        assert om.edges == ((2, 1), (6, 3), (5, 4), (2, 3), (4, 6))

    def test_top_arcs_point_left_bottom_arcs_point_right(self):
        om = orient(parse_seaweed("5|2 / 7"))
        assert om.edges == ((5, 1), (4, 2), (7, 6), (1, 7), (2, 6), (3, 5))

    def test_exhaustive_against_side_edges_oracle(self):
        """Top arcs reversed, then bottom arcs as they are, block by block
        with outermost arcs first."""
        for g in all_pairs(7):
            top = [(q, p) for p, q in _side_edges(g.top.parts)]
            assert orient(g) == OrientedMeander(g.n, tuple(top + _side_edges(g.bottom.parts)))

    @given(seaweeds(max_n=14))
    def test_arc_structure(self, g):
        edges = orient(g).edges
        top = [e for e in edges if e[0] > e[1]]
        bottom = [e for e in edges if e[0] < e[1]]
        # top arcs descend, bottom arcs ascend, and all top arcs come first
        assert edges == tuple(top + bottom)
        # each vertex meets at most one arc per side
        for side in (top, bottom):
            touched = [v for e in side for v in e]
            assert len(touched) == len(set(touched))
        # a block of p vertices adds p // 2 arcs, none for a singleton, and
        # an odd block leaves its middle vertex unmatched on that side
        for parts, side in ((g.top.parts, top), (g.bottom.parts, bottom)):
            assert len(side) == sum(p // 2 for p in parts)
            touched = {v for e in side for v in e}
            start = 1
            for p in parts:
                if p % 2:
                    assert start + p // 2 not in touched
                start += p


class TestRenderSvg:
    def test_every_drawing_through_n7_is_pinned(self):
        """sha256 of the concatenated SVGs of all 5,461 pairs through n = 7,
        in compositions_of order."""
        digest = hashlib.sha256()
        for g in all_pairs(7):
            digest.update(render_svg(g).encode())
        assert digest.hexdigest() == (
            "da6d85e15e4bd412b0931c6221f1751357906742b591706b48903b7131d6f8f4"
        )


class TestVertexPotentials:
    def test_goldens(self):
        assert vertex_potentials(parse_seaweed("2|4 / 1|2|3")) == goldens.PHI_2_4_123
        assert vertex_potentials(parse_seaweed("5|2 / 7")) == goldens.PHI_5_2_7
        assert vertex_potentials(parse_seaweed("3|2 / 5")) == goldens.PHI_3_2_5
        assert vertex_potentials(parse_seaweed("2|1 / 3")) == (1, 2, 0)
        assert vertex_potentials(parse_seaweed("1 / 1")) == (0,)

    def test_undefined_off_single_path(self):
        with pytest.raises(SpectrumUndefinedError) as err:
            vertex_potentials(parse_seaweed("2|2 / 4"))
        assert str(err.value) == NOT_SINGLE_PATH

    def test_exhaustive_against_path_walk_oracle(self):
        for g in frobenius_cases(6):
            assert vertex_potentials(g) == oracle_potentials(g.top.parts, g.bottom.parts)

    @given(seaweeds(max_n=12))
    def test_normalization_and_arc_steps(self, g):
        if not is_frobenius(g):
            with pytest.raises(SpectrumUndefinedError):
                vertex_potentials(g)
            return
        phi = vertex_potentials(g)
        assert phi[g.n - 1] == 0
        for u, v in orient(g).edges:
            assert phi[u - 1] - phi[v - 1] == 1


def span_cells(g):
    """The 1-based cells (i, j) that _row_spans admits in each row i."""
    spans = _row_spans(g.top.parts, g.bottom.parts)
    return {(i, j) for i, (lo, hi) in enumerate(spans, start=1) for j in range(lo + 1, hi + 1)}


class TestShapeMask:
    """The row intervals of _row_spans cover exactly the shape's admissible
    cells, which flag_mask finds by the subspace-preservation rule."""

    def test_golden(self):
        assert span_cells(parse_seaweed("2|4 / 1|2|3")) == goldens.MASK_2_4_123
        assert len(goldens.MASK_2_4_123) == 17

    def test_full_algebra_masks_everything(self):
        assert span_cells(parse_seaweed("3 / 3")) == {
            (i, j) for i in range(1, 4) for j in range(1, 4)
        }

    def test_exhaustive_against_flag_oracle(self):
        for n in range(1, 7):
            for top in compositions_of(n):
                for bottom in compositions_of(n):
                    g = parse_seaweed(f"{top} / {bottom}")
                    assert span_cells(g) == flag_mask(top.parts, bottom.parts)

    @given(seaweeds(max_n=12))
    def test_against_flag_oracle(self, g):
        assert span_cells(g) == flag_mask(g.top.parts, g.bottom.parts)

    @given(seaweeds(max_n=12))
    def test_diagonal_always_admissible(self, g):
        mask = span_cells(g)
        assert all((i, i) in mask for i in range(1, g.n + 1))


class TestMatrices:
    def test_spectrum_matrix_goldens(self):
        assert spectrum_matrix(parse_seaweed("2|4 / 1|2|3")) == goldens.SIGMA_2_4_123
        assert spectrum_matrix(parse_seaweed("5|2 / 7")) == goldens.SIGMA_5_2_7

    def test_extended_matrix_goldens(self):
        g = parse_seaweed("3|2 / 5")
        assert extended_spectrum_matrix(g) == goldens.SIGMAHAT_3_2_5
        g = parse_seaweed("2|4 / 1|2|3")
        assert extended_spectrum_matrix(g) == goldens.SIGMAHAT_2_4_123

    def test_matrix_text(self):
        lines = matrix_text(spectrum_matrix(parse_seaweed("2|4 / 1|2|3"))).splitlines()
        assert len(lines) == 6
        assert lines[0] == "0 · · · · ·"
        assert lines[5] == "· · 1 -1 -2 0"
        lines = matrix_text(spectrum_matrix(parse_seaweed("5|2 / 7"))).splitlines()
        assert lines[5] == "· · · · · 0 -1"
        assert matrix_text(extended_spectrum_matrix(parse_seaweed("1|1 / 2"))) == "0 1\n-1 0"

    @pytest.mark.parametrize("matrix", [spectrum_matrix, extended_spectrum_matrix])
    def test_one_vertex(self, matrix):
        assert matrix(parse_seaweed("1 / 1")) == ((0,),)

    def test_rows_of_equal_potential_are_one_tuple(self, each_kernel):
        g = family_spec(FamilyId.K2, 121, None)
        phi = vertex_potentials(g)
        rows = extended_spectrum_matrix(g)
        assert len(set(phi)) < g.n  # k2 repeats potentials, so rows are shared
        assert len({id(row) for row in rows}) == len(set(phi))
        for row, p in zip(rows, phi):
            assert row is rows[phi.index(p)]

    def test_matrix_entries_are_potential_differences(self):
        g = parse_seaweed("5|2 / 7")
        phi = vertex_potentials(g)
        rows = extended_spectrum_matrix(g)
        for i in range(7):
            for j in range(7):
                assert rows[i][j] == phi[i] - phi[j]

    @given(seaweeds(max_n=10))
    def test_extended_matrix_is_skew_symmetric(self, g):
        if not is_frobenius(g):
            return
        rows = extended_spectrum_matrix(g)
        for i in range(g.n):
            for j in range(g.n):
                assert rows[i][j] == -rows[j][i]

    @given(seaweeds(max_n=10))
    def test_spectrum_matrix_restricts_extended(self, g):
        if not is_frobenius(g):
            return
        mask = flag_mask(g.top.parts, g.bottom.parts)
        masked = spectrum_matrix(g)
        full = extended_spectrum_matrix(g)
        for i in range(1, g.n + 1):
            for j in range(1, g.n + 1):
                if (i, j) in mask:
                    assert masked[i - 1][j - 1] == full[i - 1][j - 1]
                else:
                    assert masked[i - 1][j - 1] is None


@pytest.mark.usefixtures("each_kernel")
class TestSeaweedMemo:
    """spectrum keeps one entry per part pair for the last two seaweeds: the
    potentials from one walk, and the spectrum and matrices built from them.
    So a seaweed's queries walk it and count its histogram once, and the
    swap, reverse and skew checks of one seaweed walk it, its swap and its
    reversal once each, and build each one's matrices once."""

    G = "2|2|9 / 3|4|2|4"

    def recording(self, monkeypatch, names):
        """Patch each (owner, attr) of names to record the first two
        arguments of each call under attr."""
        calls = defaultdict(list)
        for owner, attr in names:
            fn = getattr(owner, attr)

            def recorded(*args, fn=fn, attr=attr):
                calls[attr].append(args[:2])
                return fn(*args)

            monkeypatch.setattr(owner, attr, recorded)
        return calls

    def test_four_queries_take_one_walk_and_one_histogram(self, monkeypatch):
        calls = self.recording(monkeypatch, [
            (spectrum_module.kernel, "potentials"),
            (spectrum_module.kernel, "spectrum_counts"),
        ])
        g = family_spec(FamilyId.K2, 101)
        assert index_sl(g) == 0
        spectrum(g), extended_spectrum(g), principal_element(g)
        pair = g.top.parts, g.bottom.parts
        assert calls == {"potentials": [pair], "spectrum_counts": [pair]}

    def test_three_checks_walk_and_build_three_of_each(self, monkeypatch):
        """Two entries hold a seaweed and its partner, which the checks ask
        for in turn: with one, every call would walk again."""
        calls = self.recording(monkeypatch, [
            (spectrum_module.kernel, "potentials"),
            (spectrum_module, "_full"),
            (spectrum_module, "_row_spans"),
        ])
        g = parse_seaweed(self.G)
        pair = g.top.parts, g.bottom.parts
        assert verify_swap_lemma(g) and verify_reverse_lemma(g) and verify_skew_symmetry(g)
        assert calls["potentials"] == [pair, pair[::-1], (pair[0][::-1], pair[1][::-1])]
        assert len(calls["_full"]) == len(calls["_row_spans"]) == 3

    def test_a_hit_returns_what_the_entry_holds(self):
        g = parse_seaweed(self.G)
        phi, s = vertex_potentials(g), spectrum(g)
        masked, full = spectrum_matrix(g), extended_spectrum_matrix(g)
        extended_spectrum_matrix(g.swapped())  # the other entry
        assert vertex_potentials(g) is phi and spectrum(g) is s
        assert spectrum_matrix(g) is masked
        assert extended_spectrum_matrix(g) is full

    def test_the_extended_matrix_builds_no_masked_one(self, monkeypatch):
        calls = self.recording(monkeypatch, [(spectrum_module, "_row_spans")])
        g = parse_seaweed(self.G)
        phi = oracle_potentials(g.top.parts, g.bottom.parts)
        assert extended_spectrum_matrix(g) == tuple(tuple(p - x for x in phi) for p in phi)
        assert spectrum_module._masked not in spectrum_module._memo[g.top.parts, g.bottom.parts]
        assert calls == {}

    @pytest.mark.parametrize("query", [
        vertex_potentials, spectrum, extended_spectrum, principal_element,
        spectrum_matrix, extended_spectrum_matrix,
    ], ids=lambda query: query.__name__)
    def test_a_seaweed_off_a_single_path_raises_each_time_and_leaves_no_entry(self, query):
        g = parse_seaweed("2|2 / 4")
        for _ in range(2):
            with pytest.raises(SpectrumUndefinedError, match=NOT_SINGLE_PATH):
                query(g)
        assert spectrum_module._memo == {}

    def test_a_displaced_entry_is_freed_before_the_build_that_displaces_it(self):
        """So that its rows are freed before the new rows are made, and no
        more than two seaweeds' matrices are ever held (see spectrum._built)."""

        class Made:
            pass

        first, second, third = (
            (g.top.parts, g.bottom.parts)
            for g in map(parse_seaweed, ("2|1 / 3", "1|2 / 3", "2|4 / 1|2|3"))
        )
        made = weakref.ref(spectrum_module._built(lambda top, bottom, phi: Made(), *first))
        spectrum_module._built(lambda top, bottom, phi: Made(), *second)
        alive = []
        spectrum_module._built(lambda top, bottom, phi: alive.append(made() is not None), *third)
        assert alive == [False] and made() is None
        assert list(spectrum_module._memo) == [second, third]


@pytest.mark.parametrize("f, k, r", LARGE_POINTS, ids=lambda v: getattr(v, "value", v))
def test_mask_and_matrix_match_flag_oracle_at_large_n(f, k, r):
    for g in orientations(family_spec(f, k, r)):
        want = oracle_matrix(g.top.parts, g.bottom.parts)
        # the oracle matrix holds an int exactly on flag_mask's cells
        assert span_cells(g) == {
            (i, j)
            for i, row in enumerate(want, start=1)
            for j, cell in enumerate(row, start=1)
            if cell is not None
        }
        assert spectrum_matrix(g) == want


@pytest.mark.parametrize("f, k, r", LARGE_POINTS, ids=lambda v: getattr(v, "value", v))
def test_matrices_are_oracle_differences_at_large_n(each_kernel, f, k, r):
    """The potentials are the oracle's, pinned at phi(n) = 0, and the masked
    matrix holds the same differences on flag_mask's cells."""
    for g in orientations(family_spec(f, k, r)):
        phi = oracle_potentials(g.top.parts, g.bottom.parts)
        assert vertex_potentials(g) == phi
        want = tuple(tuple(p - x for x in phi) for p in phi)
        assert extended_spectrum_matrix(g) == want
        mask = flag_mask(g.top.parts, g.bottom.parts)
        assert spectrum_matrix(g) == tuple(
            tuple(cell if (i, j) in mask else None for j, cell in enumerate(row, start=1))
            for i, row in enumerate(want, start=1)
        )


class TestSpectrum:
    def test_goldens(self):
        assert spectrum(parse_seaweed("2|4 / 1|2|3")).counts() == goldens.SPECTRUM_2_4_123
        assert spectrum(parse_seaweed("5|2 / 7")).counts() == goldens.SPECTRUM_5_2_7
        for text, want in goldens.SMALL_SPECTRA.items():
            assert spectrum(parse_seaweed(text)).counts() == want, text

    def test_undefined_off_single_path(self):
        with pytest.raises(SpectrumUndefinedError) as err:
            spectrum(parse_seaweed("2|2 / 4"))
        assert str(err.value) == NOT_SINGLE_PATH

    def test_exhaustive_against_oracle(self):
        for g in frobenius_cases(6):
            assert spectrum(g).counts() == oracle_spectrum(g.top.parts, g.bottom.parts)

    @given(seaweeds(max_n=12))
    def test_against_oracle(self, g):
        if not is_frobenius(g):
            return
        assert spectrum(g).counts() == oracle_spectrum(g.top.parts, g.bottom.parts)

    @given(seaweeds(max_n=12))
    def test_size_is_mask_minus_one(self, g):
        if not is_frobenius(g):
            return
        assert spectrum(g).size == len(flag_mask(g.top.parts, g.bottom.parts)) - 1

    @given(seaweeds(max_n=12))
    def test_matches_masked_matrix_route(self, g):
        if not is_frobenius(g):
            return
        cells = [x for row in spectrum_matrix(g) for x in row if x is not None]
        assert spectrum(g) == without_one(IntegerMultiset(cells), 0)


class TestExtendedSpectrum:
    def test_goldens(self):
        assert extended_spectrum(parse_seaweed("3|2 / 5")).counts() == goldens.EXTENDED_3_2_5
        assert (
            extended_spectrum(parse_seaweed("2|4 / 1|2|3")).counts()
            == goldens.EXTENDED_2_4_123
        )

    @given(seaweeds(max_n=12))
    def test_size_and_matrix_route(self, g):
        if not is_frobenius(g):
            return
        ext = extended_spectrum(g)
        assert ext.size == g.n * g.n - 1
        cells = [x for row in extended_spectrum_matrix(g) for x in row]
        assert ext == without_one(IntegerMultiset(cells), 0)

    @given(seaweeds(max_n=12))
    def test_contains_spectrum(self, g):
        if not is_frobenius(g):
            return
        assert extended_spectrum(g).contains(spectrum(g))


def large_point_cases():
    return [g for f, k, r in LARGE_POINTS for g in orientations(family_spec(f, k, r))]


def test_kernel_histograms_give_the_validated_multisets():
    """spectrum and extended_spectrum take the kernel's dict as it is; the
    public constructor, which re-validates and re-sorts, gives the same
    multiset, key order included."""
    cases = [g for n in range(1, 11) for g in enumerate_frobenius(n)]
    assert len(cases) == 2297
    for g in cases + large_point_cases():
        phi = vertex_potentials(g)
        want = IntegerMultiset(kernel.spectrum_counts(g.top.parts, g.bottom.parts, phi))
        assert spectrum(g).items() == without_one(want, 0).items()
        want = IntegerMultiset(_kernel.difference_counts(phi))
        assert extended_spectrum(g).items() == without_one(want, 0).items()


#: Family points with blocks either side of the compiled kernel's
#: SHORT_HALF, past which it hands a seaweed's blocks to
#: _kernel._add_triangles, chosen where the pure kernel's products overtook
#: the compiled pair loop, with their squared parts per vertex: k2 at
#: n = 1,025, 1,281, 1,537 and 4,097, k1k at n = 1,603 and 3,203, and three
#: r-block points, one with its blocks all short.
CROSSOVER_POINTS = [
    (FamilyId.K2, 1023, None),  # 2,046
    (FamilyId.K2, 1279, None),  # 2,558
    (FamilyId.K2, 1535, None),  # 3,070
    (FamilyId.K2, 4095, None),  # 8,190
    (FamilyId.K1K, 801, None),  # 2,405
    (FamilyId.K1K, 1601, None),  # 4,805
    (FamilyId.K_2R, 3001, 3000),  # 2,004
    (FamilyId.K4R, 999, 2000),  # 229
    (FamilyId.K_2R, 2, 8000),  # 4
]


def kernel_spectrum(module, g):
    counts = module.spectrum_counts(
        g.top.parts, g.bottom.parts, module.potentials(g.top.parts, g.bottom.parts)
    )
    return without_one(IntegerMultiset(counts), 0)


def assert_spectrum_is_each_kernels(walk, g):
    got = spectrum(g).items()
    assert got == kernel_spectrum(_kernel, g).items() == kernel_spectrum(walk, g).items()


class TestLongBlocks:
    @pytest.mark.parametrize(
        "f, k, r", CROSSOVER_POINTS, ids=lambda v: getattr(v, "value", v)
    )
    def test_spectrum_is_each_kernels_at_the_crossover(self, each_kernel, walk, f, k, r):
        assert_spectrum_is_each_kernels(walk, family_spec(f, k, r))

    # each_kernel's swap holds for every example, so it need not be redone
    # per example.
    @settings(max_examples=20, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        st.one_of(
            st.integers(500, 1000).map(lambda i: family_spec(FamilyId.K2, 2 * i + 1)),
            st.integers(667, 1333).map(lambda k: family_spec(FamilyId.K1K, k)),
            st.tuples(st.integers(1000, 2000), st.integers(1, 300)).map(
                lambda kr: family_spec(FamilyId.K_2R_PLUS1, *kr)
            ),
        ).flatmap(lambda g: st.sampled_from(orientations(g)))
    )
    def test_spectrum_is_each_kernels_either_side(self, each_kernel, walk, g):
        """Long-block seaweeds of about 1,250 to 4,000 squared parts per
        vertex, in each orientation."""
        assert_spectrum_is_each_kernels(walk, g)


class TestPrincipalElement:
    def test_goldens(self):
        assert principal_element(parse_seaweed("2|1 / 3")) == (
            Fraction(0),
            Fraction(1),
            Fraction(-1),
        )
        assert principal_element(parse_seaweed("2|4 / 1|2|3")) == (
            Fraction(-7, 6),
            Fraction(-1, 6),
            Fraction(-7, 6),
            Fraction(5, 6),
            Fraction(11, 6),
            Fraction(-1, 6),
        )

    @given(seaweeds(max_n=12))
    def test_trace_zero_and_arc_steps(self, g):
        if not is_frobenius(g):
            return
        diag = principal_element(g)
        assert sum(diag) == 0
        assert all(x.denominator in range(1, g.n + 1) and g.n % x.denominator == 0 for x in diag)
        for u, v in orient(g).edges:
            assert diag[u - 1] - diag[v - 1] == 1

    def test_equals_potentials_less_their_mean(self):
        """Each entry is what Fraction(p * n - total, n) makes, field for
        field, not only equal to it: principal_element sets the slots of
        reduced fractions itself. 1 / 1 and 2|1 / 3 (n divides the total,
        so every entry is an integer) are among the cases."""
        cases = [g for n in range(1, 10) for g in enumerate_frobenius(n)]
        assert {"1 / 1", "2|1 / 3"} <= {str(g) for g in cases}
        for g in cases + large_point_cases():
            phi = vertex_potentials(g)
            total = sum(phi)
            for p, x in zip(phi, principal_element(g)):
                want = Fraction(p * g.n - total, g.n)
                assert type(x) is Fraction
                assert (x.numerator, x.denominator) == (want.numerator, want.denominator)
                assert x.denominator == g.n // gcd(total, g.n)
                assert (hash(x), str(x)) == (hash(want), str(want))
                back = pickle.loads(pickle.dumps(x))
                assert type(back) is Fraction
                assert (back.numerator, back.denominator) == (want.numerator, want.denominator)
        assert all(x.denominator == 1 for x in principal_element(parse_seaweed("2|1 / 3")))

    def test_is_the_principal_element_of_the_arc_functional(self):
        """With h the diagonal matrix of principal_element and F the arc
        functional, F([h, y]) = F(y) for every basis element y of the
        seaweed, and the Kirillov form (x, y) -> F([x, y]) has full rank, so
        F is Frobenius and h is the one element with F o ad h = F."""
        for g in frobenius_cases(6):
            top, bottom = g.top.parts, g.bottom.parts
            F = arc_functional(top, bottom)
            h = {(i, i): x for i, x in enumerate(principal_element(g), start=1)}
            basis = seaweed_basis(top, bottom)
            assert [F(bracket(h, y)) for y in basis] == [F(y) for y in basis], str(g)
            assert kirillov_rank(top, bottom) == len(basis), str(g)


class TestFrobeniusFormSupport:
    def test_golden(self):
        g = parse_seaweed("2|4 / 1|2|3")
        assert frobenius_form_support(g) == goldens.SUPPORT_2_4_123

    def test_undefined_off_single_path(self):
        with pytest.raises(SpectrumUndefinedError) as err:
            frobenius_form_support(parse_seaweed("1|1 / 1|1"))
        assert str(err.value) == NOT_SINGLE_PATH

    @given(seaweeds(max_n=12))
    def test_size_and_unit_differences(self, g):
        if not is_frobenius(g):
            return
        support = frobenius_form_support(g)
        assert len(support) == g.n - 1
        assert support == tuple(sorted(support))
        rows = extended_spectrum_matrix(g)
        assert all(rows[u - 1][v - 1] == 1 for u, v in support)
