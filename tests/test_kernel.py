import os
import subprocess
import sys
from collections import Counter

import pytest
from hypothesis import given

from oracles import graph_components, mask_histogram, oracle_potentials, oracle_spectrum
from seaweedspec import (
    _kernel,
    compositions_of,
    extended_spectrum,
    family_spec,
    kernel_implementation,
)
from strategies import LARGE_POINTS, orientations, seaweeds


@pytest.fixture(scope="module")
def speedups():
    # module scope: hypothesis refuses function-scoped fixtures in @given tests
    return pytest.importorskip("seaweedspec._speedups", reason="compiled kernel not built")


def all_pairs(max_n):
    for n in range(1, max_n + 1):
        for top in compositions_of(n):
            for bottom in compositions_of(n):
                yield top.parts, bottom.parts


def test_kernels_agree_exhaustively(speedups):
    for top, bottom in all_pairs(6):
        assert speedups.component_counts(top, bottom) == _kernel.component_counts(
            top, bottom
        )
        assert speedups.spectrum_counts(top, bottom) == _kernel.spectrum_counts(
            top, bottom
        )


@given(seaweeds(max_n=16))
def test_kernels_agree(speedups, g):
    top, bottom = g.top.parts, g.bottom.parts
    assert speedups.component_counts(top, bottom) == _kernel.component_counts(top, bottom)
    assert speedups.spectrum_counts(top, bottom) == _kernel.spectrum_counts(top, bottom)


@given(seaweeds(max_n=16))
def test_spectrum_counts_defined_exactly_on_single_paths(g):
    top, bottom = g.top.parts, g.bottom.parts
    cycles, paths = _kernel.component_counts(top, bottom)
    counts = _kernel.spectrum_counts(top, bottom)
    if cycles == 0 and paths == 1:
        assert counts is not None
        # full mask histogram, including every diagonal zero
        assert sum(counts.values()) >= g.n
        assert counts[0] >= g.n
    else:
        assert counts is None


def test_component_counts_match_bfs_oracle():
    for top, bottom in all_pairs(6):
        assert _kernel.component_counts(top, bottom) == graph_components(top, bottom)


def test_spectrum_counts_match_oracle_up_to_removed_zero():
    for top, bottom in all_pairs(6):
        counts = _kernel.spectrum_counts(top, bottom)
        if counts is None:
            continue
        counts = dict(counts)
        counts[0] -= 1
        got = {v: c for v, c in sorted(counts.items()) if c}
        assert got == oracle_spectrum(top, bottom)


def test_active_kernel_is_reported(speedups):
    # _speedups imports, so only the env override picks pure
    expected = "pure" if os.environ.get("SEAWEEDSPEC_PURE") == "1" else "compiled"
    assert kernel_implementation() == expected


def test_pure_fallback_env_override():
    code = (
        "import seaweedspec\n"
        "print(seaweedspec.kernel_implementation())\n"
        "print(seaweedspec.spectrum(seaweedspec.parse_seaweed('2|4 / 1|2|3')).to_text())\n"
    )
    env = dict(os.environ, SEAWEEDSPEC_PURE="1")
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.splitlines() == ["pure", "{-2, -1^2, 0^5, 1^5, 2^2, 3}"]


@pytest.mark.parametrize("f, k, r", LARGE_POINTS, ids=lambda v: getattr(v, "value", v))
def test_spectrum_counts_match_mask_histogram_at_large_n(f, k, r):
    for g in orientations(family_spec(f, k, r)):
        top, bottom = g.top.parts, g.bottom.parts
        counts = _kernel.spectrum_counts(top, bottom)
        assert counts is not None
        assert max(max(top), max(bottom)) > _kernel._LEAF
        assert list(counts.items()) == list(mask_histogram(top, bottom).items())


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
        if _kernel.component_counts(top, bottom) == (0, 1)
    ]


@pytest.mark.parametrize("leaf", [1, 2])
def test_spectrum_counts_do_not_depend_on_the_leaf_length(
    monkeypatch, frobenius_pairs_through_10, leaf
):
    assert len(frobenius_pairs_through_10) == 2297
    monkeypatch.setattr(_kernel, "_LEAF", leaf)
    for top, bottom in frobenius_pairs_through_10:
        assert _kernel.spectrum_counts(top, bottom) == mask_histogram(top, bottom)


@pytest.mark.parametrize(
    "xs, ys",
    [
        ([7] * 255, [7]),  # one digit of 255, the most one byte holds
        ([7] * 16, [-3] * 16),  # one digit of 256, the least that needs two
        ([0] * 256, [0] * 256),  # 65536, the least that needs three
        ([5], [9]),
        ([-4], [-4]),
        ([-9, -1, -1, 3], [-2, 0, 0, 0, 7]),
        (list(range(-20, 30, 3)), [1, 1, 2]),
        ([4, 4, 4], list(range(40))),
    ],
)
def test_difference_counts_match_brute_force(xs, ys):
    got = _kernel.difference_counts(xs, ys)
    want = Counter(x - y for x in xs for y in ys)
    assert list(got.items()) == sorted(want.items())
