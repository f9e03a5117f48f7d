import importlib
import random
import tracemalloc
from collections import Counter

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import goldens
from seaweedspec import (
    EngineInvariantError,
    FamilyId,
    IntegerMultiset,
    SeaweedSpec,
    analysis,
    enumerate_frobenius,
    family_spec,
    is_log_concave,
    is_symmetric_about_half,
    is_unbroken_centered_half,
    is_unimodal,
    parse_seaweed,
    spectrum_report,
    verify_block_lemmas,
    verify_reverse_lemma,
    verify_skew_symmetry,
    verify_swap_lemma,
)
from seaweedspec._engine import kernel
from strategies import LARGE_POINTS, integer_multiset_counts, orientations

spectrum_module = importlib.import_module("seaweedspec.spectrum")


@st.composite
def mirrored_counts(draw) -> dict[int, int]:
    """Counts symmetric about 1/2 + shift, gaps allowed: symmetric about 1/2
    when shift is 0, and with one count raised when asked."""
    half = draw(st.dictionaries(st.integers(-20, 0), st.integers(1, 9), max_size=6))
    shift = draw(st.sampled_from([0, 0, 0, -1, 1, 2]))
    counts = {}
    for v, c in half.items():
        counts[v + shift] = counts[1 - v + shift] = c
    if counts and draw(st.booleans()):
        counts[draw(st.sampled_from(sorted(counts)))] += 1
    return counts


class TestPredicates:
    def test_unimodal(self):
        assert is_unimodal(IntegerMultiset(goldens.WITNESS_881))
        assert is_unimodal(IntegerMultiset({0: 1, 1: 2, 2: 3}))
        assert is_unimodal(IntegerMultiset({0: 3, 1: 2, 2: 1}))
        assert is_unimodal(IntegerMultiset({0: 5}))
        assert not is_unimodal(IntegerMultiset({0: 1, 1: 3, 2: 2, 3: 3}))

    def test_log_concave(self):
        assert is_log_concave(IntegerMultiset(goldens.SPECTRUM_5_2_7))
        assert not is_log_concave(IntegerMultiset(goldens.SPECTRUM_2_4_123))
        assert not is_log_concave(IntegerMultiset(goldens.WITNESS_881))
        # the witness breaks at the 5, 8, 13 run: 8*8 = 64 < 5*13 = 65
        assert 8 * 8 < 5 * 13

    def test_symmetric_about_half(self):
        assert is_symmetric_about_half(IntegerMultiset(goldens.SPECTRUM_5_2_7))
        assert is_symmetric_about_half(IntegerMultiset({0: 1, 1: 1}))
        assert not is_symmetric_about_half(IntegerMultiset({0: 1, 1: 2}))

    @given(st.one_of(integer_multiset_counts(), mirrored_counts()))
    @example({})  # empty
    @example({-1: 2, 2: 2})  # gapped
    @example({1: 1, 2: 3, 3: 1})  # an interval symmetric about 2
    @example({0: 1, 1: 2})  # asymmetric on a symmetric support
    def test_symmetric_about_half_equals_its_definition(self, counts):
        s = IntegerMultiset(counts)
        definition = all(s.multiplicity(v) == s.multiplicity(1 - v) for v in s.support())
        assert is_symmetric_about_half(s) == definition

    def test_unbroken_centered_half(self):
        assert is_unbroken_centered_half(IntegerMultiset({-1: 1, 0: 2, 1: 2, 2: 1})) == (
            True,
            True,
        )
        assert is_unbroken_centered_half(IntegerMultiset({0: 1, 2: 1})) == (False, False)
        assert is_unbroken_centered_half(IntegerMultiset({0: 1, 1: 1, 2: 1})) == (
            True,
            False,
        )

    def test_empty_multiset_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            is_unbroken_centered_half(IntegerMultiset())

    def test_log_concavity_implies_unimodality(self):
        rng = random.Random(0)
        hits = 0
        for _ in range(10_000):
            width = rng.randint(1, 8)
            profile = [rng.randint(1, 9) for _ in range(width)]
            s = IntegerMultiset({i: c for i, c in enumerate(profile)})
            if is_log_concave(s):
                hits += 1
                assert is_unimodal(s), profile
        assert hits > 100


class TestSpectrumReport:
    def test_golden(self):
        report = spectrum_report(parse_seaweed("2|4 / 1|2|3"))
        assert report.spec == "2|4 / 1|2|3"
        assert report.spectrum.counts() == goldens.SPECTRUM_2_4_123
        assert report.unbroken is True
        assert report.centered_half is True
        assert report.unimodal is True
        assert report.log_concave is False
        assert report.symmetric_about_half is True

    def test_one_vertex_report_has_no_predicates(self):
        report = spectrum_report(parse_seaweed("1 / 1"))
        assert not report.spectrum
        assert report.unbroken is None
        assert report.centered_half is None
        assert report.unimodal is None
        assert report.log_concave is None
        assert report.symmetric_about_half is None

    def test_broken_proven_claim_raises(self, monkeypatch):
        monkeypatch.setattr(analysis, "is_unbroken_centered_half", lambda s: (False, False))
        with pytest.raises(EngineInvariantError, match="2\\|1 / 3: spectrum support has gaps"):
            spectrum_report(parse_seaweed("2|1 / 3"))

    def test_asymmetric_spectrum_raises(self, monkeypatch):
        """A kernel histogram that leaves 0 once and 1 twice: unbroken and
        centered, but not symmetric about 1/2 as every Frobenius spectrum is."""
        monkeypatch.setattr(kernel, "spectrum_counts", lambda top, bottom, phi: {0: 2, 1: 2})
        with pytest.raises(
            EngineInvariantError, match="^2\\|1 / 3: spectrum is not symmetric about 1/2"
        ):
            spectrum_report(parse_seaweed("2|1 / 3"))

    def test_json_obj_is_flat(self):
        obj = spectrum_report(parse_seaweed("2|4 / 1|2|3")).to_json_obj()
        assert list(obj) == [
            "spec",
            "spectrum",
            "unbroken",
            "centered_half",
            "unimodal",
            "log_concave",
            "symmetric_about_half",
        ]
        assert obj["spec"] == "2|4 / 1|2|3"
        assert obj["spectrum"] == {"-2": 1, "-1": 2, "0": 5, "1": 5, "2": 2, "3": 1}


class TestProvenIdentities:
    def test_exhaustive_through_n7(self):
        for n in range(1, 8):
            for g in enumerate_frobenius(n):
                assert verify_swap_lemma(g)
                assert verify_reverse_lemma(g)
                assert verify_skew_symmetry(g)


@pytest.mark.parametrize("f, k, r", LARGE_POINTS, ids=lambda v: getattr(v, "value", v))
def test_proven_identities_at_large_n(each_kernel, f, k, r):
    for g in orientations(family_spec(f, k, r)):
        assert verify_swap_lemma(g)
        assert verify_reverse_lemma(g)
        assert verify_skew_symmetry(g)


class TestBlockLemmas:
    def test_all_three_corners_when_k1_exceeds_k2(self):
        assert verify_block_lemmas(2, 1, 2) == ["top_left", "bottom_right", "top_right"]
        assert verify_block_lemmas(2, 1, 1) == ["top_left", "bottom_right", "top_right"]
        assert verify_block_lemmas(5, 3, 2) == ["top_left", "bottom_right", "top_right"]

    def test_only_top_left_otherwise(self):
        assert verify_block_lemmas(1, 2, 3) == ["top_left"]
        assert verify_block_lemmas(3, 5, 2) == ["top_left"]
        assert verify_block_lemmas(1, 1, 2) == ["top_left"]

    def test_coprime_grid(self):
        from math import gcd

        for k1 in range(1, 7):
            for k2 in range(1, 7):
                if gcd(k1, k2) != 1:
                    continue
                for m in range(1, 4):
                    names = verify_block_lemmas(k1, k2, m)
                    assert names[0] == "top_left"
                    assert (len(names) == 3) == (k1 > k2)

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError, match="coprime"):
            verify_block_lemmas(2, 4, 1)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError, match="at least 1"):
            verify_block_lemmas(0, 1, 1)
        with pytest.raises(ValueError, match="at least 1"):
            verify_block_lemmas(2, 1, 0)


def with_cells(rows, cells, value):
    """rows with `value` at each 0-based (row, column) pair of cells."""
    rows = [list(row) for row in rows]
    for i, j in cells:
        rows[i][j] = value
    return tuple(tuple(row) for row in rows)


def corrupting(monkeypatch, name, spec, cells, value=99):
    """Patch analysis.<name> so the matrix of `spec` carries `value` at `cells`.

    cells are 0-based (row, column) pairs; every other seaweed's matrix is
    returned untouched.
    """
    build = getattr(analysis, name)
    monkeypatch.setattr(
        analysis, name, lambda g: with_cells(build(g), cells, value) if str(g) == spec else build(g)
    )


def corrupting_extended(monkeypatch, spec, value):
    """Patch analysis.extended_spectrum so that one zero of `spec`'s, the
    diagonal cell (1,1) of its full matrix, is `value` instead; every other
    seaweed's extended spectrum is returned untouched."""
    build = analysis.extended_spectrum
    swap = IntegerMultiset([0]), IntegerMultiset([value])
    monkeypatch.setattr(
        analysis,
        "extended_spectrum",
        lambda g: build(g) - swap[0] + swap[1] if str(g) == spec else build(g),
    )


def cut(rows):
    """The n x n matrix rows without its last row and column."""
    return tuple(row[:-1] for row in rows[:-1])


#: The place in analysis._matrices's (masked, full) pair of the matrix that
#: each public matrix function returns.
PAIR_SLOT = {"spectrum_matrix": 0, "extended_spectrum_matrix": 1}


def changing_pair(monkeypatch, name, spec, change):
    """Patch analysis._matrices so that, for `spec` alone, the matrix that
    `name` returns (see PAIR_SLOT) is replaced by change(matrix)."""
    build = analysis._matrices
    slot = PAIR_SLOT[name]

    def patched(g):
        pair = build(g)
        if str(g) != spec:
            return pair
        pair = list(pair)
        pair[slot] = change(pair[slot])
        return tuple(pair)

    monkeypatch.setattr(analysis, "_matrices", patched)


class TestVerifierFailures:
    """A corrupt cell makes each verifier raise, naming the first mismatch.

    The seaweed is 2|4 / 1|2|3 (n = 6). The swap, reverse and skew tests
    set two cells, chosen so that the first mismatch in the checked
    seaweed's row-major order is not the first corrupt cell in the
    partner's row-major order; the block tests corrupt a corner or its
    reference; the last ones give a matrix of the wrong shape.
    """

    G = "2|4 / 1|2|3"

    @pytest.mark.parametrize(
        "name, label, value",
        [("spectrum_matrix", "entry", 1), ("extended_spectrum_matrix", "extended entry", 1)],
    )
    def test_swap(self, monkeypatch, name, label, value):
        # partner cells (1,4) and (3,2) sit at (4,1) and (2,3) of the transpose
        changing_pair(
            monkeypatch, name, "1|2|3 / 2|4", lambda rows: with_cells(rows, [(0, 3), (2, 1)], 99)
        )
        with pytest.raises(EngineInvariantError) as err:
            verify_swap_lemma(parse_seaweed(self.G))
        assert str(err.value) == (
            f"swap failure at {self.G}: {label} (2,3) is {value} "
            "but transposed swap has 99"
        )

    @pytest.mark.parametrize(
        "name, label, value",
        [("spectrum_matrix", "entry", None), ("extended_spectrum_matrix", "extended entry", -2)],
    )
    def test_reverse(self, monkeypatch, name, label, value):
        # partner cells (1,5) and (3,6) sit at (2,6) and (1,4) of the flip
        changing_pair(
            monkeypatch, name, "4|2 / 3|2|1", lambda rows: with_cells(rows, [(0, 4), (2, 5)], 99)
        )
        with pytest.raises(EngineInvariantError) as err:
            verify_reverse_lemma(parse_seaweed(self.G))
        assert str(err.value) == (
            f"reverse failure at {self.G}: {label} (1,4) is {value} "
            "but the reversal has 99"
        )

    def test_skew(self, monkeypatch):
        corrupting(monkeypatch, "extended_spectrum_matrix", self.G, [(4, 1), (5, 0)])
        with pytest.raises(EngineInvariantError) as err:
            verify_skew_symmetry(parse_seaweed(self.G))
        assert str(err.value) == f"skew failure at {self.G}: (1,6)=-1 vs (6,1)=99"

    @pytest.mark.parametrize(
        "cells, first",
        [([(2, 0), (1, 3)], "(2,4)"), ([(4, 6), (3, 5)], "(4,6)")],
        ids=["top_left", "top_right"],
    )
    def test_block_lemma_corner_outside_mask(self, monkeypatch, cells, first):
        # k1=2, k2=1, m=2 checks corners of 5|2 / 7
        corrupting(monkeypatch, "spectrum_matrix", "5|2 / 7", cells, value=None)
        with pytest.raises(EngineInvariantError) as err:
            verify_block_lemmas(2, 1, 2)
        assert str(err.value) == f"expected admissible cell {first} is outside the mask"

    @pytest.mark.parametrize(
        "name, spec, triple, message",
        [
            ("extended_spectrum", "3|2 / 5", (2, 1, 2),
             "top-left block failure at k1=2, k2=1, m=2: {-3, -2^3, -1^5, 0^7, 1^5, 2^3, 3} "
             "vs {-3, -2^3, -1^5, 0^6, 1^5, 2^3, 3, 7}"),
            ("extended_spectrum", "1|1 / 2", (2, 1, 1),
             "bottom-right block failure at k1=2, k2=1, m=1: {-1, 0^2, 1} vs {-1, 0, 1, 7}"),
            ("spectrum_matrix", "2|1 / 3", (2, 1, 1),
             "top-right block failure at k1=2, k2=1, m=1: {0, 1^2, 2^2, 3} "
             "vs {0, 1, 2^2, 3, 8}"),
        ],
        ids=["top_left", "bottom_right", "top_right"],
    )
    def test_block_lemma_corner_mismatch(self, monkeypatch, name, spec, triple, message):
        # cell (1,1) of each corner's reference matrix becomes 7
        if name == "extended_spectrum":
            corrupting_extended(monkeypatch, spec, 7)
        else:
            corrupting(monkeypatch, name, spec, [(0, 0)], value=7)
        with pytest.raises(EngineInvariantError) as err:
            verify_block_lemmas(*triple)
        assert str(err.value) == message

    @pytest.mark.parametrize(
        "reshape",
        [
            lambda rows, n: rows + ((0,) * n,),
            lambda rows, n: rows[:-1],
            # the transpose's columns are as long as g's rows, and one too many
            lambda rows, n: tuple(row + (0,) for row in rows),
        ],
        ids=["row_added", "row_dropped", "column_added"],
    )
    def test_swap_partner_of_another_shape(self, monkeypatch, reshape):
        changing_pair(
            monkeypatch, "extended_spectrum_matrix", "1|2|3 / 2|4", lambda rows: reshape(rows, 6)
        )
        with pytest.raises(EngineInvariantError) as err:
            verify_swap_lemma(parse_seaweed(self.G))
        assert str(err.value) == f"swap failure at {self.G}: matrix shapes differ"

    def test_skew_last_row_short(self, monkeypatch):
        # every column is cut to the last row's length, so the last row is never a column
        build = analysis.extended_spectrum_matrix
        monkeypatch.setattr(
            analysis, "extended_spectrum_matrix", lambda g: build(g)[:-1] + (build(g)[-1][:-1],)
        )
        with pytest.raises(EngineInvariantError) as err:
            verify_skew_symmetry(parse_seaweed(self.G))
        assert str(err.value) == f"skew failure at {self.G}: matrix is not square"

    @pytest.mark.parametrize(
        "verify, name",
        [(verify_swap_lemma, "swap"), (verify_reverse_lemma, "reverse")],
        ids=["swap", "reverse"],
    )
    def test_cut_matrices_fail_on_their_shape(self, monkeypatch, verify, name):
        """Every matrix of both seaweeds cut to (n-1) x (n-1): the cut
        matrices are each other's flips, but their shape fails first."""
        build = analysis._matrices
        monkeypatch.setattr(analysis, "_matrices", lambda g: tuple(map(cut, build(g))))
        with pytest.raises(EngineInvariantError) as err:
            verify(parse_seaweed(self.G))
        assert str(err.value) == f"{name} failure at {self.G}: matrix shapes differ"

    @pytest.mark.parametrize(
        "reshape",
        [
            lambda rows: tuple(row + (0,) for row in rows),
            lambda rows: tuple(row[:-1] for row in rows),
            cut,  # square, but (n-1) x (n-1)
        ],
        ids=["column_added", "column_dropped", "cut"],
    )
    def test_skew_matrix_not_square(self, monkeypatch, reshape):
        build = analysis.extended_spectrum_matrix
        monkeypatch.setattr(analysis, "extended_spectrum_matrix", lambda g: reshape(build(g)))
        with pytest.raises(EngineInvariantError) as err:
            verify_skew_symmetry(parse_seaweed(self.G))
        assert str(err.value) == f"skew failure at {self.G}: matrix is not square"


def _last_cell(rows):
    n = len(rows)
    return with_cells(rows, [(n - 1, n - 1)], 99)


def _none_to_int(rows):
    """The last None cell in row-major order becomes 0."""
    cell = max((i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if v is None)
    return with_cells(rows, [cell], 0)


def _int_to_none(rows):
    """The last off-diagonal int cell in row-major order becomes None."""
    cell = max(
        (i, j) for i, row in enumerate(rows) for j, v in enumerate(row) if v is not None and i != j
    )
    return with_cells(rows, [cell], None)


def _rows_swapped(rows):
    """Row 0 trades places with the last row whose entries differ from it."""
    last = max(i for i, row in enumerate(rows) if row != rows[0])
    rows = list(rows)
    rows[0], rows[last] = rows[last], rows[0]
    return tuple(rows)


CORRUPTIONS = {
    "last_cell": _last_cell,
    "none_to_int": _none_to_int,
    "int_to_none": _int_to_none,
    "rows_swapped": _rows_swapped,
}


def materialised_index_map(name, partner, at, g, pair, partner_pair):
    """The failure of checking g's (masked, full) pair against the flip of
    its partner's, cell by cell: at(other, n, i, j) is entry (i, j) of the
    flip of other."""
    n = g.n
    for label, rows, other in zip(("entry", "extended entry"), pair, partner_pair):
        for i in range(n):
            for j in range(n):
                if rows[i][j] != at(other, n, i, j):
                    raise EngineInvariantError(
                        f"{name} failure at {g}: {label} ({i + 1},{j + 1}) is {rows[i][j]} "
                        f"but {partner} has {at(other, n, i, j)}"
                    )


def materialised_skew(g, rows):
    """The failure of checking rows against their negated transpose, which
    is built whole first; a cell that is no int fails first."""
    for i, row in enumerate(rows):
        for j, cell in enumerate(row):
            if not isinstance(cell, int):
                raise EngineInvariantError(
                    f"skew failure at {g}: ({i + 1},{j + 1}) is {cell!r}, not an integer"
                )
    n = len(rows)
    want = [[-rows[j][i] for j in range(n)] for i in range(n)]
    for i in range(n):
        for j in range(n):
            if rows[i][j] != want[i][j]:
                raise EngineInvariantError(
                    f"skew failure at {g}: ({i + 1},{j + 1})={rows[i][j]} "
                    f"vs ({j + 1},{i + 1})={rows[j][i]}"
                )


def outcome(check):
    """(exception type, message) of what check() raises."""
    try:
        check()
    except EngineInvariantError as exc:
        return type(exc), str(exc)
    return None


#: Each index-map check: the verifier, its partner, the partner's name in
#: the message, and entry (i, j) of the flip of an n x n matrix.
INDEX_MAPS = {
    "swap": (verify_swap_lemma, SeaweedSpec.swapped, "transposed swap",
             lambda other, n, i, j: other[j][i]),
    "reverse": (verify_reverse_lemma, SeaweedSpec.reversed, "the reversal",
                lambda other, n, i, j: other[n - 1 - j][n - 1 - i]),
}


class TestLazyComparison:
    """The swap, reverse and skew checks compare without building the flip,
    and build it only on a mismatch: every corruption must raise what the
    cell-by-cell comparison with the whole flip raises.

    The seaweed has three or four blocks a side, and is neither its own
    swap nor its own reversal. A full matrix has no None cell to corrupt.
    """

    G = "2|2|9 / 3|4|2|4"

    @pytest.mark.parametrize("target", ["own", "partner"])
    @pytest.mark.parametrize(
        "name, corruption",
        [(name, c) for name in PAIR_SLOT for c in CORRUPTIONS
         if not (name == "extended_spectrum_matrix" and c == "none_to_int")],
    )
    @pytest.mark.parametrize("check", list(INDEX_MAPS))
    def test_index_map(self, monkeypatch, each_kernel, check, name, corruption, target):
        verify, partner_of, partner, at = INDEX_MAPS[check]
        g = parse_seaweed(self.G)
        h = partner_of(g)
        pairs = {"own": list(analysis._matrices(g)), "partner": list(analysis._matrices(h))}
        slot = PAIR_SLOT[name]
        pairs[target][slot] = CORRUPTIONS[corruption](pairs[target][slot])
        want = outcome(
            lambda: materialised_index_map(check, partner, at, g, pairs["own"], pairs["partner"])
        )
        assert want is not None
        changing_pair(monkeypatch, name, str(g if target == "own" else h), CORRUPTIONS[corruption])
        assert outcome(lambda: verify(g)) == want

    @pytest.mark.parametrize("corruption", ["last_cell", "int_to_none", "rows_swapped"])
    def test_skew(self, monkeypatch, each_kernel, corruption):
        g = parse_seaweed(self.G)
        rows = CORRUPTIONS[corruption](analysis.extended_spectrum_matrix(g))
        want = outcome(lambda: materialised_skew(g, rows))
        assert want is not None
        corrupt = CORRUPTIONS[corruption]
        build = analysis.extended_spectrum_matrix
        monkeypatch.setattr(analysis, "extended_spectrum_matrix", lambda g: corrupt(build(g)))
        assert outcome(lambda: verify_skew_symmetry(g)) == want

    @pytest.mark.parametrize("check", list(INDEX_MAPS))
    def test_one_walk_and_one_table_per_seaweed(self, monkeypatch, each_kernel, check):
        """A swap or reverse check walks each of its two seaweeds once and
        builds each one's difference table once."""
        calls = Counter()

        def counting(owner, attr):
            fn = getattr(owner, attr)

            def counted(*args):
                calls[attr] += 1
                return fn(*args)

            monkeypatch.setattr(owner, attr, counted)

        counting(spectrum_module.kernel, "potentials")
        counting(spectrum_module, "_full")
        assert INDEX_MAPS[check][0](parse_seaweed(self.G))
        assert calls == {"potentials": 2, "_full": 2}


#: One point per family at n = 250..255, and each check's tracemalloc peak
#: in kB there when every check built its flip whole: swap, reverse, skew.
MATERIALISED_PEAK_KB = [
    (FamilyId.K1, 250, None, (1580, 1580, 2022)),
    (FamilyId.K2, 253, None, (1362, 1362, 1778)),
    (FamilyId.K1K, 127, None, (1622, 1622, 1778)),
    (FamilyId.K2K, 125, None, (1328, 1328, 1525)),
    (FamilyId.TWOK1_12K, 126, None, (1339, 1339, 1747)),
    (FamilyId.TWOK11, 126, None, (1350, 1350, 1763)),
    (FamilyId.K_2R, 130, 62, (1610, 1611, 1567)),
    (FamilyId.K_2R_PLUS1, 145, 52, (1562, 1563, 1615)),
    (FamilyId.TWOS_R1, None, 126, (1590, 1591, 551)),
    (FamilyId.K4R, 139, 28, (1570, 1570, 1407)),
    (FamilyId.K4R_PLUS2, 145, 27, (1619, 1621, 1470)),
]


@pytest.mark.parametrize(
    "f, k, r, peaks_kb", MATERIALISED_PEAK_KB, ids=lambda v: getattr(v, "value", None)
)
def test_checks_stay_within_a_quarter_of_the_materialised_peak(f, k, r, peaks_kb):
    g = family_spec(f, k, r)
    assert 250 <= g.n <= 255
    for verify, peak_kb in zip((verify_swap_lemma, verify_reverse_lemma, verify_skew_symmetry),
                               peaks_kb):
        verify(g)  # warm: the first call may allocate what later calls reuse
        tracemalloc.start()
        try:
            verify(g)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.25 * peak_kb * 1000, (verify.__name__, peak)


def test_engine_invariant_error_is_runtime_error():
    assert issubclass(EngineInvariantError, RuntimeError)
