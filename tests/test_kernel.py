import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from oracles import graph_components, mask_histogram, oracle_potentials, oracle_spectrum
from seaweedspec import (
    Composition,
    FamilyId,
    ParseError,
    SeaweedSpec,
    _engine,
    _kernel,
    cli,
    families,
    compositions_of,
    extended_spectrum,
    family_spec,
    is_frobenius,
    meander,
    parse_seaweed,
)
from seaweedspec._engine import kernel
from seaweedspec.meander import component_counts
from strategies import LARGE_POINTS, orientations, seaweeds


def all_pairs(max_n):
    for n in range(1, max_n + 1):
        for top in compositions_of(n):
            for bottom in compositions_of(n):
                yield top.parts, bottom.parts


def histogram(kernel, top, bottom):
    """The kernel's spectrum_counts on its own potentials, or None off a
    single path."""
    phi = kernel.potentials(top, bottom)
    return None if phi is None else kernel.spectrum_counts(top, bottom, phi)


def results(kernel, top, bottom):
    """Everything the kernel returns for one pair, histogram key order included."""
    counts = histogram(kernel, top, bottom)
    return (
        component_counts(top, bottom),
        kernel.potentials(top, bottom),
        None if counts is None else list(counts.items()),
    )


def test_kernels_agree_exhaustively(walk):
    # n = 0 too: no vertex, so no path, and no partner slot to read
    for top, bottom in [((), ()), *all_pairs(8)]:
        assert results(walk, top, bottom) == results(_kernel, top, bottom)


@pytest.fixture
def delegated(monkeypatch):
    """The length of each block that reaches _kernel._add_block, in call
    order; _add_block still counts it."""
    lengths = []
    add_block = _kernel._add_block

    def counting(xs, hist, off):
        lengths.append(len(xs))
        add_block(xs, hist, off)

    monkeypatch.setattr(_kernel, "_add_block", counting)
    return lengths


def test_kernels_agree_exhaustively_with_every_block_delegated(walk_delegating, delegated):
    """Built with SHORT_HALF at 0, the compiled kernel hands every block of
    3 or more vertices to _kernel._add_block, whose pair loop or product
    then counts it, and blocks of 1 and 2 never reach it."""
    for top, bottom in all_pairs(8):
        want = results(_kernel, top, bottom)
        delegated.clear()
        assert results(walk_delegating, top, bottom) == want
        blocks = [p for p in bottom + top if p > 2] if want[2] is not None else []
        assert delegated == blocks


@pytest.mark.parametrize("f, k, r, blocks", [
    (FamilyId.K_2R, 2, 8000, []),  # 16,002 vertices in blocks of at most 3
    (FamilyId.K4R, 999, 2000, []),  # halves of 499 and 500
    (FamilyId.K1K, 801, None, [1603]),  # halves of 400, 401 and 801
    (FamilyId.K2, 4095, None, [4097, 4095]),
], ids=lambda v: getattr(v, "value", None))
def test_compiled_kernel_delegates_only_long_blocks(walk, delegated, f, k, r, blocks):
    """The shipped build counts halves of up to 500 pair by pair and hands
    halves of 801 and more to _kernel._add_block, bottom blocks first."""
    g = family_spec(f, k, r)
    assert results(walk, g.top.parts, g.bottom.parts)[2] is not None
    assert delegated == blocks


@pytest.mark.parametrize("fault, error", [
    (lambda xs, hist, off: 1 / 0, ZeroDivisionError),
    (lambda xs, hist, off: hist.clear(), IndexError),
    (lambda xs, hist, off: hist.__setitem__(off, "x"), TypeError),
], ids=["raises", "shrinks", "non-int"])
def test_compiled_kernel_raises_what_add_block_raises(walk, monkeypatch, fault, error):
    g = family_spec(FamilyId.K2, 4095)
    phi = _kernel.potentials(g.top.parts, g.bottom.parts)
    monkeypatch.setattr(_kernel, "_add_block", fault)
    with pytest.raises(error):
        walk.spectrum_counts(g.top.parts, g.bottom.parts, phi)


def test_add_block_that_changes_the_callers_parts_moves_no_block(walk, monkeypatch):
    """The compiled kernel reads its own tuples of the parts and its own
    copy of phi, so an _add_block that grows and replaces the caller's lists
    mid-call changes nothing; reading the lists again would index past the
    kernel's arrays."""
    g = family_spec(FamilyId.K2, 4095)
    want = histogram(_kernel, g.top.parts, g.bottom.parts)
    top, bottom = list(g.top.parts), list(g.bottom.parts)
    phi = list(_kernel.potentials(g.top.parts, g.bottom.parts))
    add_block = _kernel._add_block

    def changing(xs, hist, off):
        top.extend([1] * 100_000)
        bottom[:] = [10**6]
        phi[:] = [-(10**6)] * 3
        add_block(xs, hist, off)

    monkeypatch.setattr(_kernel, "_add_block", changing)
    assert walk.spectrum_counts(top, bottom, phi) == want


@given(seaweeds(max_n=16))
def test_kernels_agree(walk, g):
    top, bottom = g.top.parts, g.bottom.parts
    assert results(walk, top, bottom) == results(_kernel, top, bottom)


@given(seaweeds(max_n=16))
def test_spectrum_counts_defined_exactly_on_single_paths(g):
    top, bottom = g.top.parts, g.bottom.parts
    cycles, paths = component_counts(top, bottom)
    counts = histogram(_kernel, top, bottom)
    if cycles == 0 and paths == 1:
        assert counts is not None
        # full mask histogram, including every diagonal zero
        assert sum(counts.values()) >= g.n
        assert counts[0] >= g.n
    else:
        assert counts is None


def test_component_counts_match_bfs_oracle():
    for top, bottom in all_pairs(6):
        assert component_counts(top, bottom) == graph_components(top, bottom)


def test_potentials_exist_exactly_on_frobenius_seaweeds(each_kernel):
    """The walk's single-path test agrees with the moves on every pair, and
    on two at n = 2,000: vertex n on a cycle, and vertex n with no arc while
    every other vertex lies on a cycle."""
    potentials = _engine.kernel.potentials  # the kernel each_kernel swapped in
    large = [((2000,), (1000, 1000)), ((1000, 1000, 1), (2000, 1))]
    for top, bottom in [*all_pairs(8), *large]:
        g = SeaweedSpec(Composition(top), Composition(bottom))
        assert (potentials(top, bottom) is None) == (not is_frobenius(g)), g


def test_spectrum_counts_match_oracle_up_to_removed_zero():
    for top, bottom in all_pairs(6):
        counts = histogram(_kernel, top, bottom)
        if counts is None:
            continue
        counts = dict(counts)
        counts[0] -= 1
        got = {v: c for v, c in sorted(counts.items()) if c}
        assert got == oracle_spectrum(top, bottom)


def test_active_kernel_is_reported(walk, child_env):
    # The child registers the built kernel as seaweedspec._walk before the
    # package imports, as an installed build would provide it.
    code = (
        "import importlib.util, sys\n"
        f"spec = importlib.util.spec_from_file_location('seaweedspec._walk', {walk.__file__!r})\n"
        "sys.modules[spec.name] = importlib.util.module_from_spec(spec)\n"
        "import seaweedspec\n"
        "print(seaweedspec.kernel_implementation())\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=child_env, capture_output=True, text=True, check=True
    )
    assert out.stdout == "compiled\n"


#: Parts that either function refuses before it reads spectrum_counts's phi.
BAD_PARTS = [
    ((1,), (5,), ValueError),  # unequal sums
    ((3, -1), (2,), ValueError),
    ((2, 0), (2,), ValueError),
    ((1.5,), (1.5,), TypeError),
    ((2**70,), (2**70,), OverflowError),
    ((sys.maxsize, 1), (1,), OverflowError),  # the sum overflows
    ((sys.maxsize // 4,), (sys.maxsize // 4,), MemoryError),  # refused before allocating
    (7, (7,), TypeError),
]

#: Potentials that spectrum_counts refuses for the single path 2 / 1|1.
BAD_PHI = [
    ((0,), ValueError),  # too short
    ((1, 0, 0), ValueError),  # too long
    ((1, 0.5), TypeError),
    ((1, 2**70), OverflowError),
    ((-sys.maxsize - 1, sys.maxsize), ValueError),  # a span past Py_ssize_t
    (7, TypeError),
]


@pytest.mark.parametrize("name, args, error", [
    *((name, (top, bottom, (0,))[: 2 + (name == "spectrum_counts")], error)
      for name in ("potentials", "spectrum_counts") for top, bottom, error in BAD_PARTS),
    *(("spectrum_counts", ((2,), (1, 1), phi), error) for phi, error in BAD_PHI),
    ("spectrum_counts", ((2,), (2,), (0, 2)), ValueError),  # a span of n
    ("spectrum_counts", ((), (), ()), ValueError),  # at n = 0, a span of 0 is n
    ("spectrum_counts", ((1,), (1,)), TypeError),  # no phi
    ("spectrum_counts", ((1,), (1,), (0,), (0,)), TypeError),
])
def test_compiled_kernel_checks_its_inputs(walk, name, args, error):
    """Bad parts raise before phi is read. Then phi is checked in full
    before any histogram write: n items, each an int that fits in
    Py_ssize_t, spanning less than n as a single path's potentials do, so
    that every difference indexes the histogram."""
    with pytest.raises(error):
        getattr(walk, name)(*args)


@pytest.mark.parametrize(
    "text, top, bottom",
    [("1 / 5", (1,), (5,)), ("3|-1 / 2", (3, -1), (2,)), ("2|0 / 2", (2, 0), (2,))],
)
def test_public_entries_reject_bad_input_before_any_kernel_call(
    monkeypatch, capsys, text, top, bottom
):
    """The pure kernel trusts its inputs, so the public entries must check them."""
    calls = []
    for module, name in (
        (meander, "component_counts"),
        (cli, "component_counts"),
        (kernel, "potentials"),
        (kernel, "spectrum_counts"),
    ):
        monkeypatch.setattr(module, name, lambda *args, name=name: calls.append(name))
    with pytest.raises(ParseError):
        parse_seaweed(text)
    with pytest.raises(ValueError):
        SeaweedSpec(Composition(top), Composition(bottom))
    for command in ("index", "spectrum", "extended", "principal", "matrix", "render"):
        assert cli.main([command, text]) == 64
        assert capsys.readouterr().out == ""
    assert calls == []


# The k2 point at n = 2001 adds two blocks of over 1,000 vertices, where the
# pure kernel's products do all the work.
@pytest.mark.parametrize(
    "f, k, r", LARGE_POINTS + [(FamilyId.K2, 1999, None)], ids=lambda v: getattr(v, "value", v)
)
def test_kernels_agree_at_large_n(walk, f, k, r):
    for g in orientations(family_spec(f, k, r)):
        top, bottom = g.top.parts, g.bottom.parts
        assert results(walk, top, bottom) == results(_kernel, top, bottom)


def test_kernels_agree_past_the_stack_buffer(walk):
    # Large n, past 256 vertices: _walk.c sizes its one heap block by n.
    pairs = [((257,), (257,)), ((128, 129), (257,)), ((300, 1), (1, 300))]
    for g in orientations(family_spec(FamilyId.K4R, 101, 70)):
        pairs.append((g.top.parts, g.bottom.parts))
    for top, bottom in pairs:
        assert results(walk, top, bottom) == results(_kernel, top, bottom)


BENCH_KERNEL = Path(__file__).resolve().parent.parent / "benchmarks" / "bench_kernel.py"


def test_kernel_benchmark_runs(child_env, walk):
    """The kernel benchmark still calls every kernel function as it is
    defined: a small run, with the compiled kernel as its baseline, exits 0
    and times the baseline on every crossover point."""
    out = subprocess.run(
        [sys.executable, str(BENCH_KERNEL), "--n-max", "4", "--baseline", walk.__file__],
        env=child_env,
        capture_output=True,
        text=True,
    )
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert "23 Frobenius pairs through n=4" in lines
    header = lines.index("crossover points, spectrum_counts, best of 5, ms:") + 1
    assert lines[header].split()[-1] == "baseline"
    assert len(lines[header + 1 :]) == 9


@pytest.mark.parametrize("f, k, r", LARGE_POINTS, ids=lambda v: getattr(v, "value", v))
def test_spectrum_counts_match_mask_histogram_at_large_n(f, k, r):
    for g in orientations(family_spec(f, k, r)):
        top, bottom = g.top.parts, g.bottom.parts
        counts = histogram(_kernel, top, bottom)
        assert counts is not None
        # at least one block's half is past the loop, so the product runs
        assert max(max(top), max(bottom)) // 2 > _kernel._SHORT_HALF
        assert list(counts.items()) == list(mask_histogram(top, bottom).items())
        assert_blocks_mirror(top, bottom)


@pytest.mark.parametrize("f, k, r", LARGE_POINTS, ids=lambda v: getattr(v, "value", v))
def test_extended_spectrum_counts_all_differences_at_large_n(f, k, r):
    for g in orientations(family_spec(f, k, r)):
        phi = oracle_potentials(g.top.parts, g.bottom.parts)
        want = Counter(a - b for a in phi for b in phi)
        want[0] -= 1
        assert extended_spectrum(g).counts() == dict(sorted(want.items()))


@pytest.fixture(scope="module")
def frobenius_pairs_through_10():
    return [
        (top, bottom)
        for top, bottom in all_pairs(10)
        if component_counts(top, bottom) == (0, 1)
    ]


@pytest.mark.parametrize("short_half", [0, 10**9], ids=["product", "loop"])
def test_spectrum_counts_do_not_depend_on_the_short_half(
    monkeypatch, frobenius_pairs_through_10, short_half
):
    """At 0 every block of 5 or more vertices takes the product, and none
    does at 10**9; blocks of 1 to 4 never reach one."""
    assert len(frobenius_pairs_through_10) == 2297
    monkeypatch.setattr(_kernel, "_SHORT_HALF", short_half)
    products = []
    fold = _kernel._fold
    monkeypatch.setattr(
        _kernel, "_fold", lambda half, m: products.append(len(half)) or fold(half, m)
    )
    for top, bottom in frobenius_pairs_through_10:
        products.clear()
        got = histogram(_kernel, top, bottom)
        assert list(got.items()) == list(mask_histogram(top, bottom).items())
        halves = [p // 2 for p in top + bottom if p > 4]
        assert sorted(products) == (sorted(halves) if short_half == 0 else [])


def test_blocks_mirror_about_their_middle(frobenius_pairs_through_10):
    for top, bottom in frobenius_pairs_through_10:
        if sum(top) <= 9:
            assert_blocks_mirror(top, bottom)


@given(seaweeds(max_n=14))
def test_blocks_mirror_about_their_middle_on_any_single_path(g):
    top, bottom = g.top.parts, g.bottom.parts
    if graph_components(top, bottom) == (0, 1):
        assert_blocks_mirror(top, bottom)


def assert_blocks_mirror(top, bottom):
    """The relation spectrum_counts rests on, from the oracle potentials:
    phi(e-i) = phi(s+i) - 1 on a bottom block [s..e] and + 1 on a top one."""
    phi = (None,) + oracle_potentials(top, bottom)
    for parts, step in ((bottom, -1), (top, 1)):
        s = 1
        for p in parts:
            e = s + p - 1
            for i in range(p // 2):
                assert phi[e - i] == phi[s + i] + step, (top, bottom, s, e, i)
            s = e + 1


@pytest.mark.parametrize(
    "xs",
    [
        [7] * 15,  # one digit of 225, its bound, which one byte holds
        [7] * 16,  # a bound of 256, the least that needs two
        [0] * 256,  # 65536, the least that needs four
        [5],
        [-4],
        [-9, -1, -1, 3],
        [-2, 0, 0, 0, 7],
        list(range(-20, 30, 3)),
        list(range(40)),
    ],
)
def test_difference_counts_match_brute_force(xs):
    got = _kernel.difference_counts(xs)
    want = Counter(x - y for x in xs for y in xs)
    assert list(got.items()) == sorted(want.items())


values = st.lists(st.integers(-3, 3) | st.integers(-200, 200), min_size=1, max_size=300)


@given(values)
@example([7] * 15)  # sum of squared counts 225 and 256 either side
@example([7] * 16)  # of the one-byte edge, 65536 at the two-byte one
@example([0] * 256)
def test_difference_counts_fit_their_digits(xs):
    """No digit of the product exceeds sum c^2, the count of zero
    differences, so no digit carries into the next at the width that bound
    picks."""
    got = _kernel.difference_counts(xs)
    want = Counter(x - y for x in xs for y in xs)
    assert list(got.items()) == sorted(want.items())


@st.composite
def long_block_parts(draw, n):
    """A composition of n into at most four parts."""
    cuts = sorted(set(draw(st.lists(st.integers(1, n - 1), max_size=3))))
    return tuple(b - a for a, b in zip([0] + cuts, cuts + [n]))


@st.composite
def long_block_pairs(draw):
    n = draw(st.integers(2 * _kernel._SHORT_HALF + 2, 90))
    return draw(long_block_parts(n)), draw(long_block_parts(n))


@given(long_block_pairs())
def test_spectrum_counts_match_oracle_past_the_short_half(pair):
    """Single paths with a block past 2 * _SHORT_HALF vertices, so that its
    half takes the product (and, when odd, the middle's slice additions)."""
    top, bottom = pair
    assume(max(top + bottom) > 2 * _kernel._SHORT_HALF)
    assume(graph_components(top, bottom) == (0, 1))
    got = histogram(_kernel, top, bottom)
    assert list(got.items()) == list(mask_histogram(top, bottom).items())


@st.composite
def family_points(draw):
    """A family point at n of 40 to 200 in any orientation: across draws
    its blocks take in long halves of either parity on either side, blocks
    of 4 (k-4r, k-4r+2) and, at k = 1, a block of 3 (k-4r, k-4r+2)."""
    f = draw(st.sampled_from(list(FamilyId)))
    row = families.FAMILIES[f]
    k = draw(st.integers(row.k_min, 99)) | row.odd_k
    r = draw(st.integers(1, 49)) if "r" in row.params else None
    g = family_spec(f, k, r)
    assume(40 <= g.n <= 200)
    return draw(st.sampled_from(orientations(g)))


@settings(max_examples=60)
@given(family_points())
@example(family_spec(FamilyId.K4R, 1, 12))  # a bottom block of 3 among 4s
@example(family_spec(FamilyId.K4R_PLUS2, 1, 12).swapped())  # a top block of 3 among 4s
@example(family_spec(FamilyId.K4R, 17, 10).swapped())  # long odd blocks on both sides
@example(family_spec(FamilyId.K_2R, 20, 10).reversed())  # long even top, long odd bottom
@example(family_spec(FamilyId.K1K, 40))  # long odd and even top, long odd bottom
@example(family_spec(FamilyId.TWOK1_12K, 30))  # long even blocks on both sides
def test_spectrum_counts_match_oracle_on_family_points(g):
    """The pure histogram, folded long blocks, top blocks read off phi
    itself and the closed forms of blocks of 3 and 4, against the mask."""
    top, bottom = g.top.parts, g.bottom.parts
    got = histogram(_kernel, top, bottom)
    assert list(got.items()) == list(mask_histogram(top, bottom).items())


def test_difference_counts_widen_past_four_byte_digits():
    # 2^32 pairs share one difference: too many to count by brute force
    assert _kernel.difference_counts([0] * 2**16) == {0: 2**32}
