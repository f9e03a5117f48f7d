import gc
import importlib
import json
import os
import pkgutil
import resource
import shutil
import subprocess
import sys
import time

import pytest

import seaweedspec
from oracles import graph_components, oracle_matrix
from seaweedspec import (
    EngineInvariantError, FamilyId, IntegerMultiset, analysis, cli, family_spec,
)
from strategies import LARGE_POINTS, orientations

spectrum_module = importlib.import_module("seaweedspec.spectrum")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


NOT_SINGLE_PATH_ERR = "error: spectrum undefined: meander is not a single path (index 1)\n"


@pytest.mark.parametrize("argv, err", [
    (("spectrum", "2|2 / 4"), NOT_SINGLE_PATH_ERR),
    (("extended", "2|2 / 4"), NOT_SINGLE_PATH_ERR),
    (("principal", "2|2 / 4"), NOT_SINGLE_PATH_ERR),
    (("matrix", "2|2 / 4"), NOT_SINGLE_PATH_ERR),
    (("matrix", "--extended", "2|2 / 4"), NOT_SINGLE_PATH_ERR),
    (("verify-lemmas", "--spec", "2|2 / 4"), NOT_SINGLE_PATH_ERR),
    (("sweep", "--conjecture", "stability_4_16", "--base", "2|2 / 4"),
     "error: the --base seaweed is not Frobenius, so it has no spectrum to extend\n"),
], ids=lambda v: " ".join(v) if isinstance(v, tuple) else "")
def test_not_frobenius_exits_3_with_pinned_bytes(capsys, argv, err):
    """Every command that needs a spectrum exits 3 on a non-Frobenius
    seaweed, prints nothing to stdout and exactly one line to stderr."""
    assert run_cli(capsys, *argv) == (3, "", err)


#: A seaweed whose n, 10^20, is beyond any index (sys.maxsize); its index is 0.
BEYOND_AN_INDEX = "99999999999999999999|1 / 100000000000000000000"

#: The most vertices a kernel can index: the pure kernel's partner arrays
#: hold n + 1 slots, and the bound keeps one more in hand.
MAX_INDEXABLE = sys.maxsize - 2


def too_large(what, n):
    return (f"error: {what} too large: n = {n} exceeds the most a kernel can index, "
            f"{MAX_INDEXABLE}\n")


def no_kernel_calls(monkeypatch):
    """Make every kernel function raise: the two of the active kernel, and
    the pure kernel's difference_counts, which the extended spectrum calls
    whichever kernel is active."""
    def no_call(*args):
        raise AssertionError("kernel called")

    for name in ("potentials", "spectrum_counts"):
        monkeypatch.setattr(spectrum_module.kernel, name, no_call)
    monkeypatch.setattr(spectrum_module, "difference_counts", no_call)


@pytest.mark.parametrize("argv", [
    ("spectrum", BEYOND_AN_INDEX),
    ("extended", BEYOND_AN_INDEX),
    ("principal", BEYOND_AN_INDEX),
    ("matrix", BEYOND_AN_INDEX),
    ("matrix", "--extended", BEYOND_AN_INDEX),
    ("render", BEYOND_AN_INDEX),
    ("verify-lemmas", "--spec", BEYOND_AN_INDEX),
], ids=lambda v: " ".join(v[:-1]))
def test_n_beyond_an_index_exits_64_before_any_kernel_call(capsys, monkeypatch, argv):
    """A command that holds one item per vertex refuses such a seaweed with
    one error line, where it used to end in an OverflowError traceback (or,
    for render, run on); index still answers it."""
    no_kernel_calls(monkeypatch)
    assert run_cli(capsys, *argv) == (64, "", too_large("seaweed", 10**20))
    assert run_cli(capsys, "index", BEYOND_AN_INDEX) == (0, "0\n", "")


@pytest.mark.parametrize("n", [sys.maxsize, sys.maxsize - 1])
def test_n_that_fits_an_index_but_not_a_kernel_array_exits_64(capsys, monkeypatch, n):
    """sys.maxsize vertices fit an index, but the pure kernel's first array,
    n + 1 slots, does not: that n used to end in an OverflowError traceback.
    The bound keeps one vertex more in hand, so sys.maxsize - 1 is refused
    too."""
    no_kernel_calls(monkeypatch)
    assert run_cli(capsys, "spectrum", f"{n} / {n}") == (64, "", too_large("seaweed", n))


def test_the_most_a_kernel_can_index_reaches_the_kernel(monkeypatch):
    no_kernel_calls(monkeypatch)
    with pytest.raises(AssertionError, match="kernel called"):
        cli.main(["spectrum", f"{MAX_INDEXABLE} / {MAX_INDEXABLE}"])


def default_form_base(k):
    """(k+1)|k / 2k+1, whose extension at r has 2k + 1 + 2kr vertices."""
    return f"{k + 1}|{k} / {2 * k + 1}"


#: Bases whose extension has exactly sys.maxsize vertices at r = 2, and
#: exactly MAX_INDEXABLE at r = 1.
K_AT_MAXSIZE = (sys.maxsize - 1) // 6
K_AT_THE_EDGE = (sys.maxsize - 3) // 4


@pytest.mark.parametrize("base, r_max, err", [
    (BEYOND_AN_INDEX, "1", too_large("seaweed", 10**20)),
    (default_form_base(K_AT_MAXSIZE), "2", too_large("extension at r = 2", sys.maxsize)),
], ids=["base", "extension"])
def test_sweep_base_beyond_an_index_exits_64_before_any_kernel_call(
    capsys, monkeypatch, tmp_path, base, r_max, err
):
    """sweep --base refuses a base, or a largest extension, past any index
    with one error line before any kernel call and before --out is opened,
    where it used to end in an OverflowError traceback."""
    assert 6 * K_AT_MAXSIZE + 1 == sys.maxsize
    no_kernel_calls(monkeypatch)
    out = tmp_path / "records.ndjson"
    argv = ("sweep", "--conjecture", "stability_4_16", "--base", base, "--r-max", r_max)
    assert run_cli(capsys, *argv, "--out", str(out)) == (64, "", err)
    assert not out.exists()


def test_sweep_extension_of_the_most_a_kernel_can_index_is_not_refused(monkeypatch):
    assert 4 * K_AT_THE_EDGE + 1 == MAX_INDEXABLE
    no_kernel_calls(monkeypatch)
    with pytest.raises(AssertionError, match="kernel called"):
        cli.main(["sweep", "--conjecture", "stability_4_16",
                  "--base", default_form_base(K_AT_THE_EDGE), "--r-max", "1"])


def test_only_spectrum_and_engine_bind_the_kernel():
    """_engine picks the kernel and spectrum is its one client: the index,
    the verifiers and every sweep reach it through spectrum alone, so each
    reads a kernel histogram the same way."""
    binders = {
        info.name
        for info in pkgutil.iter_modules(seaweedspec.__path__)
        if hasattr(importlib.import_module(f"seaweedspec.{info.name}"), "kernel")
    }
    assert binders == {"_engine", "spectrum"}
    assert not hasattr(seaweedspec, "kernel")


class TestIndex:
    def test_plain(self, capsys):
        code, out, err = run_cli(capsys, "index", "2|2 / 4")
        assert (code, out, err) == (0, "1\n", "")

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "index", "2|4 / 1|2|3", "--format", "json")
        assert code == 0
        assert json.loads(out) == {
            "spec": "2|4 / 1|2|3",
            "index_sl": 0,
            "index_gl": 1,
            "paths": 1,
            "cycles": 0,
            "frobenius": True,
        }

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "index", "2 / 2", "--format", "csv")
        assert code == 0
        assert out == "spec,index_sl,index_gl,paths,cycles,frobenius\n2 / 2,1,2,0,1,false\n"

    @pytest.mark.parametrize(
        "seaweed, index",
        [
            ("99999999999999999999999 / 99999999999999999999999", "99999999999999999999998"),
            ("1000000000000|1 / 1000000000001", "0"),  # gcd(10^12, 1) - 1
            ("1000000000000|2 / 1000000000002", "1"),  # gcd(10^12, 2) - 1
        ],
    )
    def test_index_answers_at_any_size(self, capsys, each_kernel, seaweed, index):
        assert run_cli(capsys, "index", seaweed) == (0, index + "\n", "")

    def test_a_second_call_leaves_no_cyclic_garbage(self, capsys):
        """The parser is built once per process, not once per call."""
        cli.main(["index", "2|4 / 1|2|3"])
        gc.collect()
        cli.main(["index", "2|4 / 1|2|3"])
        assert gc.collect() == 0
        assert capsys.readouterr().out == "0\n0\n"

    def test_parse_error_is_usage(self, capsys):
        code, out, err = run_cli(capsys, "index", "2|x / 3")
        assert code == 64
        assert out == ""
        assert err.startswith("error:")

    @pytest.mark.parametrize(
        "g",
        [pytest.param(family_spec(f, k, r), id=f.value) for f, k, r in LARGE_POINTS]
        + [pytest.param(seaweedspec.parse_seaweed("5|5|5|5 / 2|8|10"), id="non_frobenius")],
    )
    def test_json_under_each_kernel_matches_graph_oracle(self, capsys, each_kernel, g):
        """index reads the winding-down moves, whichever kernel is in."""
        assert not hasattr(cli, "kernel")
        for h in orientations(g):
            cycles, paths = graph_components(h.top.parts, h.bottom.parts)
            code, out, err = run_cli(capsys, "index", str(h), "--format", "json")
            assert (code, err) == (0, "")
            assert json.loads(out) == {
                "spec": str(h),
                "index_sl": 2 * cycles + paths - 1,
                "index_gl": 2 * cycles + paths,
                "paths": paths,
                "cycles": cycles,
                "frobenius": 2 * cycles + paths == 1,
            }


class TestSpectrum:
    def test_plain_golden(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "2|4 / 1|2|3")
        assert code == 0
        assert out == "{-2, -1^2, 0^5, 1^5, 2^2, 3}\n"

    def test_json_compact(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "1|1 / 2", "--format", "json")
        assert code == 0
        assert out == '{"0":1,"1":1}\n'

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "1|1 / 2", "--format", "csv")
        assert out == "eigenvalue,multiplicity\n0,1\n1,1\n"

    def test_plain_and_json_agree(self, capsys):
        _, plain, _ = run_cli(capsys, "spectrum", "5|2 / 7")
        _, as_json, _ = run_cli(capsys, "spectrum", "5|2 / 7", "--format", "json")
        from_text = IntegerMultiset.from_text(plain.strip())
        from_json = IntegerMultiset({int(v): c for v, c in json.loads(as_json).items()})
        assert from_text == from_json

    def test_not_frobenius_exit_3(self, capsys):
        code, out, err = run_cli(capsys, "spectrum", "2|2 / 4")
        assert code == 3
        assert out == ""
        assert err == "error: spectrum undefined: meander is not a single path (index 1)\n"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "spectrum.txt"
        code, out, _ = run_cli(capsys, "spectrum", "2|4 / 1|2|3", "--out", str(target))
        assert code == 0
        assert out == ""
        assert target.read_text() == "{-2, -1^2, 0^5, 1^5, 2^2, 3}\n"

    def test_empty_spectrum_renders_braces(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "1 / 1")
        assert (code, out) == (0, "{}\n")


class TestExtended:
    def test_plain(self, capsys):
        code, out, _ = run_cli(capsys, "extended", "3|2 / 5")
        assert code == 0
        assert out == "{-3, -2^3, -1^5, 0^6, 1^5, 2^3, 3}\n"

    def test_not_frobenius_exit_3(self, capsys):
        code, _, err = run_cli(capsys, "extended", "2|2 / 4")
        assert code == 3
        assert "(index 1)" in err


class TestPrincipal:
    def test_plain(self, capsys):
        code, out, _ = run_cli(capsys, "principal", "2|1 / 3")
        assert (code, out) == (0, "0 1 -1\n")

    def test_json(self, capsys):
        code, out, _ = run_cli(capsys, "principal", "2|4 / 1|2|3", "--format", "json")
        assert json.loads(out) == {
            "spec": "2|4 / 1|2|3",
            "diagonal": ["-7/6", "-1/6", "-7/6", "5/6", "11/6", "-1/6"],
        }

    def test_csv(self, capsys):
        code, out, _ = run_cli(capsys, "principal", "2|1 / 3", "--format", "csv")
        assert out == "vertex,value\n1,0\n2,1\n3,-1\n"


class TestMatrix:
    def test_plain_masked(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "5|2 / 7")
        lines = out.splitlines()
        assert code == 0
        assert len(lines) == 7
        assert lines[2] == "2 3 0 2 1 4 3"
        assert lines[5] == "· · · · · 0 -1"

    def test_plain_extended(self, capsys):
        code, out, _ = run_cli(capsys, "matrix", "1|1 / 2", "--extended")
        assert (code, out) == (0, "0 1\n-1 0\n")

    def test_json_has_nulls_outside_mask(self, capsys):
        _, out, _ = run_cli(capsys, "matrix", "1|1 / 2", "--format", "json")
        obj = json.loads(out)
        assert obj["spec"] == "1|1 / 2"
        assert obj["extended"] is False
        assert obj["rows"] == [[0, 1], [None, 0]]

    def test_csv_empty_cells(self, capsys):
        _, out, _ = run_cli(capsys, "matrix", "1|1 / 2", "--format", "csv")
        assert out == "0,1\n,0\n"

    def test_large_n_bytes_match_flag_oracle(self, capsys):
        g = family_spec(FamilyId.K4R_PLUS2, 81, 8).reversed()
        assert g.n >= 60
        rows = oracle_matrix(g.top.parts, g.bottom.parts)
        want = {
            "plain": "\n".join(
                " ".join("·" if c is None else str(c) for c in row) for row in rows
            ),
            "json": json.dumps(
                {"spec": str(g), "extended": False, "rows": [list(row) for row in rows]},
                separators=(",", ":"),
            ),
            "csv": "\n".join(
                ",".join("" if c is None else str(c) for c in row) for row in rows
            ),
        }
        for fmt, text in want.items():
            code, out, err = run_cli(capsys, "matrix", str(g), "--format", fmt)
            assert (code, out, err) == (0, text + "\n", ""), fmt


class TestRender:
    def test_svg_on_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "render", "2|4 / 1|2|3")
        assert code == 0
        assert out.startswith("<svg ")
        assert out.rstrip().endswith("</svg>")
        assert "<title>2|4 / 1|2|3</title>" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "meander.svg"
        code, out, _ = run_cli(capsys, "render", "5|2 / 7", "--out", str(target))
        assert (code, out) == (0, "")
        text = target.read_text()
        assert text.startswith("<svg ")
        # three top arcs and three bottom arcs, each drawn with an arrowhead
        assert text.count("marker-end") == 6


class TestVerifyFamily:
    def test_plain_rows_and_tally(self, capsys):
        code, out, _ = run_cli(capsys, "verify-family", "k2", "--k", "3..13:odd")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k2 k=3 ok"
        assert lines[-1] == "6/6 pass"
        assert len(lines) == 7

    def test_k_and_r_grid(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-family", "k-2r", "--k", "1..3", "--r", "1..2"
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k-2r k=1 r=1 ok"
        assert lines[-1] == "6/6 pass"

    def test_json(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-family", "2s-r1", "--r", "1..4", "--format", "json"
        )
        obj = json.loads(out)
        assert code == 0
        assert obj["family"] == "2s-r1"
        assert obj["passed"] == obj["total"] == 4
        assert obj["results"][0] == {"k": None, "r": 1, "ok": True}

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys, "verify-family", "k1", "--k", "2", "--format", "csv"
        )
        assert out == "family,k,r,ok\nk1,2,,true\n"

    def test_missing_k_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify-family", "k1")
        assert code == 64
        assert err == "error: family k1 needs --k\n"

    def test_even_k_for_odd_family_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify-family", "k2", "--k", "4")
        assert code == 64
        assert err == "error: family k2: k must be odd, got 4\n"

    def test_bad_range_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify-family", "k1", "--k", "5..2")
        assert code == 64
        assert "5..2" in err

    def test_range_with_no_values_is_usage_error(self, capsys, tmp_path):
        """An empty grid would check nothing and still report success."""
        out_file = tmp_path / "F"
        argv = ["verify-family", "k2", "--k", "4..4:odd", "--out", str(out_file)]
        err = "error: bad --k range '4..4:odd': it holds no values\n"
        assert run_cli(capsys, *argv) == (64, "", err)
        assert not out_file.exists()

    @pytest.mark.parametrize("argv, flag", [
        (["2s-r1", "--k", "3", "--r", "1"], "--k"),
        (["k1", "--k", "2", "--r", "1..3"], "--r"),
    ], ids=["2s-r1", "k1"])
    def test_flag_the_family_does_not_take_is_usage_error(self, capsys, argv, flag):
        err = f"error: family {argv[0]} takes no {flag}\n"
        assert run_cli(capsys, "verify-family", *argv) == (64, "", err)

    def test_unknown_family_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify-family", "k9"])
        assert exc.value.code == 64

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out_file"])
    def test_engine_failure_prints_only_the_error(self, capsys, tmp_path, monkeypatch, to_file):
        """A closed form that disagrees with the engine is a failed identity:
        exit 1, one error line naming the point and both multisets, and
        neither the points that passed nor the --out file."""
        closed_form = cli.family_spectrum

        def wrong_at_k5(fam, k, r):
            return IntegerMultiset({0: 1}) if k == 5 else closed_form(fam, k, r)

        monkeypatch.setattr(cli, "family_spectrum", wrong_at_k5)
        out_file = tmp_path / "F"
        argv = ["verify-family", "k2", "--k", "3..9:odd"]
        argv += ["--out", str(out_file)] if to_file else []
        engine = seaweedspec.spectrum(family_spec(FamilyId.K2, 5)).to_text()
        err = f"error: family k2 failure at k=5, r=None: closed-form spectrum {{0}} vs engine {engine}\n"
        assert run_cli(capsys, *argv) == (1, "", err)
        assert not out_file.exists()

    def test_extended_closed_form_failure_is_named(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "family_extended_spectrum", lambda fam, k, r: IntegerMultiset())
        engine = seaweedspec.extended_spectrum(family_spec(FamilyId.K1, 2)).to_text()
        err = f"error: family k1 failure at k=2, r=None: closed-form extended spectrum {{}} vs engine {engine}\n"
        assert run_cli(capsys, "verify-family", "k1", "--k", "2") == (1, "", err)


class TestVerifyLemmas:
    def test_single_spec(self, capsys):
        code, out, _ = run_cli(capsys, "verify-lemmas", "--spec", "2|4 / 1|2|3")
        assert code == 0
        assert out.splitlines() == [
            "2|4 / 1|2|3 swap ok",
            "2|4 / 1|2|3 reverse ok",
            "2|4 / 1|2|3 skew ok",
            "3 checks pass",
        ]

    def test_spec_not_frobenius(self, capsys):
        code, _, err = run_cli(capsys, "verify-lemmas", "--spec", "2|2 / 4")
        assert code == 3
        assert "(index 1)" in err

    def test_single_triple(self, capsys):
        code, out, _ = run_cli(capsys, "verify-lemmas", "--k1", "2", "--k2", "1", "--m", "2")
        assert code == 0
        assert out.splitlines() == [
            "blocks k1=2 k2=1 m=2 ok (top_left, bottom_right, top_right)",
            "1 checks pass",
        ]

    def test_partial_triple_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify-lemmas", "--k1", "2", "--k2", "1")
        assert code == 64
        assert err == "error: --k1, --k2 and --m must be given together\n"

    def test_grid(self, capsys):
        code, out, _ = run_cli(capsys, "verify-lemmas", "--max-k", "3", "--max-m", "2")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "blocks k1=1 k2=1 m=1 ok (top_left)"
        assert lines[-1] == "14 checks pass"

    def test_non_coprime_triple_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify-lemmas", "--k1", "2", "--k2", "4", "--m", "1")
        assert code == 64
        assert "coprime" in err

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out_file"])
    def test_engine_failure_prints_only_the_error(self, capsys, tmp_path, monkeypatch, to_file):
        """The checks that passed before the failure are not printed, and
        --out is not written."""
        verify = cli.verify_block_lemmas
        calls = []

        def failing_third(k1, k2, m):
            calls.append((k1, k2, m))
            if len(calls) == 3:
                raise EngineInvariantError(f"corrupt at k1={k1}, k2={k2}, m={m}")
            return verify(k1, k2, m)

        monkeypatch.setattr(cli, "verify_block_lemmas", failing_third)
        out_file = tmp_path / "F"
        argv = ["verify-lemmas", "--max-k", "3", "--max-m", "2"]
        argv += ["--out", str(out_file)] if to_file else []
        assert run_cli(capsys, *argv) == (1, "", "error: corrupt at k1=1, k2=2, m=1\n")
        assert len(calls) == 3
        assert not out_file.exists()

    @pytest.mark.parametrize("flag", ["--max-k", "--max-m"])
    @pytest.mark.parametrize("bound", ["0", "-1"])
    def test_grid_bound_below_one_is_usage_error(self, capsys, flag, bound):
        """An empty grid would check nothing and still report success."""
        assert run_cli(capsys, "verify-lemmas", flag, bound) == (
            64, "", f"error: {flag} must be at least 1, got {bound}\n"
        )


class TestSweep:
    def test_small_clean_run(self, capsys):
        code, out, _ = run_cli(capsys, "sweep", "--n-max", "4")
        assert code == 0
        summary = json.loads(out)
        assert summary["pairs"] == 85
        assert summary["frobenius"] == 23
        assert summary["counterexamples"] == []

    def test_stability_run_mentions_base(self, capsys):
        code, out, _ = run_cli(
            capsys, "sweep", "--conjecture", "stability_4_16",
            "--base", "3|1 / 4", "--r-max", "3",
        )
        assert code == 0
        summary = json.loads(out)
        assert summary["base"] == "3|1 / 4"
        assert summary["checked"] == 6

    def test_non_frobenius_base_exit_3(self, capsys):
        code, out, err = run_cli(
            capsys, "sweep", "--conjecture", "stability_4_16", "--base", "2|2 / 4"
        )
        assert code == 3
        assert out == ""
        assert "not Frobenius" in err

    def test_non_frobenius_base_leaves_no_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "records.ndjson"
        code, _, _ = run_cli(
            capsys, "sweep", "--conjecture", "stability_4_16", "--base", "2|2 / 4",
            "--out", str(out_path),
        )
        assert code == 3
        assert not out_path.exists()

    @pytest.mark.parametrize("n", [33, 40, 10**20])
    def test_n_past_what_a_census_can_index_is_usage_error(self, capsys, tmp_path, n):
        """The census table of such an n, 4^(n-1) bytes, is past sys.maxsize:
        the sweep used to end in an OverflowError traceback and exit 1, and
        leave an empty --out, or, at n = 10^20, grow until memory ran out.
        It is refused before --out is created."""
        absent = tmp_path / "absent.ndjson"
        start = time.perf_counter()
        code, out, err = run_cli(capsys, "sweep", "--n-max", str(n), "--out", str(absent))
        assert time.perf_counter() - start < 1
        assert (code, out) == (64, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: ")
        assert not absent.exists()

    def test_non_frobenius_base_keeps_resumed_file_bytes(self, capsys, tmp_path):
        # A torn last line would be truncated by the read-back; the base's
        # spectrum is taken first, so even that does not happen.
        out_path = tmp_path / "records.ndjson"
        code, _, _ = run_cli(
            capsys, "sweep", "--conjecture", "stability_4_16", "--base", "3|1 / 4",
            "--r-max", "2", "--out", str(out_path),
        )
        assert code == 0
        with open(out_path, "a", encoding="utf-8") as fh:
            fh.write('{"conjecture": "stability_4_16", "key": "3|')
        before = out_path.read_bytes()
        code, _, _ = run_cli(
            capsys, "sweep", "--conjecture", "stability_4_16", "--base", "2|2 / 4",
            "--out", str(out_path), "--resume",
        )
        assert code == 3
        assert out_path.read_bytes() == before

    @pytest.mark.parametrize("argv", [
        ("--n-max", "2"),
        ("--conjecture", "stability_4_17"),
    ], ids=["unimodal_2_8", "stability_4_17"])
    def test_base_outside_4_16_is_usage_error(self, capsys, tmp_path, argv):
        """--base is read by stability_4_16 alone; elsewhere it is refused
        before the sweep creates or touches --out."""
        expected = (64, "", "error: --base is read only by stability_4_16\n")
        absent = tmp_path / "absent.ndjson"
        base = ("--base", "2|2 / 4")
        assert run_cli(capsys, "sweep", *argv, *base, "--out", str(absent)) == expected
        assert not absent.exists()
        present = tmp_path / "present.ndjson"
        torn = b'{"conjecture": "unimodal_2_8", "key": "1|'
        present.write_bytes(torn)
        os.utime(present, ns=(0, 0))
        resumed = run_cli(capsys, "sweep", *argv, *base, "--out", str(present), "--resume")
        assert resumed == expected
        assert present.read_bytes() == torn
        assert present.stat().st_mtime_ns == 0

    def test_counterexample_exit_2(self, capsys, tmp_path, monkeypatch):
        """No pair in reach breaks unimodality, so the predicates are
        patched to find counterexamples; one of them lies in the rows that
        resume matches, and is reported as the rest are."""
        monkeypatch.setattr(analysis, "is_unimodal", lambda s: False)
        monkeypatch.setattr(analysis, "is_log_concave", lambda s: False)
        path = tmp_path / "records.ndjson"
        argv = ["sweep", "--n-max", "2", "--out", str(path)]
        code, fresh, _ = run_cli(capsys, *argv)
        assert code == 2
        assert [c["spec"] for c in json.loads(fresh)["counterexamples"]] == ["1|1 / 2", "2 / 1|1"]
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:3]))  # n = 1, and the row of top 2
        code, out, _ = run_cli(capsys, *argv, "--resume")
        assert code == 2
        assert json.loads(out) == {**json.loads(fresh), "resumed": 3}
        assert path.read_bytes() == b"".join(lines)

    def test_engine_failure_exit_1(self, capsys, tmp_path, monkeypatch):
        """A record that breaks a proven claim stops the run after its row
        is written; resuming over that file stops at the same record, with
        nothing appended."""
        monkeypatch.setattr(analysis, "is_unbroken_centered_half", lambda s: (False, False))
        path = tmp_path / "records.ndjson"
        argv = ["sweep", "--n-max", "2", "--out", str(path)]
        err = "error: 2 / 1|1: spectrum support has gaps"
        code, out, stderr = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert stderr.startswith(err) and stderr.count("\n") == 1
        written = path.read_bytes()
        assert written.count(b"\n") == 3
        code, out, stderr = run_cli(capsys, *argv, "--resume")
        assert (code, out) == (1, "")
        assert stderr.startswith(err) and stderr.count("\n") == 1
        assert path.read_bytes() == written

    def test_census_kernel_disagreement_exit_1(self, capsys, monkeypatch):
        """A pair the census calls Frobenius must have a spectrum."""
        spectrum_counts = spectrum_module.kernel.spectrum_counts

        def disagreeing(top, bottom):
            return None if (top, bottom) == ((2,), (1, 1)) else spectrum_counts(top, bottom)

        monkeypatch.setattr(spectrum_module.kernel, "spectrum_counts", disagreeing)
        assert run_cli(capsys, "sweep", "--n-max", "3") == (
            1, "", "error: 2 / 1|1: the census gives index 0, but the kernel finds no spectrum\n"
        )

    @pytest.mark.parametrize("argv", [
        ("--n-max", "3"),
        ("--conjecture", "stability_4_17", "--k-max", "1", "--r-max", "2"),
    ], ids=["unimodal_2_8", "stability_4_17"])
    def test_fresh_run_over_records_needs_resume(self, capsys, tmp_path, argv):
        """--out without --resume starts a file; over one that holds bytes
        it exits 64 before writing anything. A missing or empty file is a
        fresh run, with or without --resume."""
        path = tmp_path / "records.ndjson"
        fresh = run_cli(capsys, "sweep", *argv, "--out", str(path))
        assert fresh[0] == 0
        written = path.read_bytes()
        assert run_cli(capsys, "sweep", *argv, "--out", str(path)) == (
            64, "", f"error: record file {path} is not empty; pass --resume to continue it\n"
        )
        assert path.read_bytes() == written
        for resume in ((), ("--resume",)):
            path.write_bytes(b"")
            assert run_cli(capsys, "sweep", *argv, "--out", str(path), *resume) == fresh
            assert path.read_bytes() == written

    def test_resume_over_torn_tail_and_corrupt_middle(self, capsys, tmp_path):
        path = tmp_path / "records.ndjson"
        assert run_cli(capsys, "sweep", "--n-max", "3", "--out", str(path))[0] == 0
        fresh = path.read_bytes()
        path.write_bytes(fresh[:-9])
        code, out, _ = run_cli(capsys, "sweep", "--n-max", "3", "--out", str(path), "--resume")
        assert code == 0
        assert json.loads(out)["resumed"] == 20
        assert path.read_bytes() == fresh

        lines = fresh.splitlines(keepends=True)
        damaged = b"".join(lines[:4]) + b"{\n" + b"".join(lines[5:])[:-9]
        path.write_bytes(damaged)
        code, out, err = run_cli(capsys, "sweep", "--n-max", "3", "--out", str(path), "--resume")
        assert (code, out) == (64, "")
        assert err == f"error: record file {path} is not a prefix of this job's records at line 5\n"
        assert path.read_bytes() == damaged

    @pytest.mark.parametrize(
        "record, grid",
        [
            ({"conjecture": "unimodal_2_8", "key": "1 / 1"}, ["--n-max", "1"]),
            ({"conjecture": "unimodal_2_8", "key": "1 / 1", "frobenius": True,
              "unimodal": True}, ["--n-max", "1"]),
            ({"conjecture": "unimodal_2_8", "key": "1 / 1", "spec": "1 / 1", "frobenius": True,
              "unbroken": True, "centered_half": True, "unimodal": True, "log_concave": True,
              "spectrum": {"0": 1, "1": 1}}, ["--n-max", "1"]),
            ({"conjecture": "stability_4_17", "key": [1]}, ["--k-max", "1", "--r-max", "1"]),
            ({"conjecture": "stability_4_17", "key": "2|1 / 3"}, ["--k-max", "1", "--r-max", "1"]),
            ({"conjecture": "stability_4_17", "key": "2|1 / 3", "passed": False},
             ["--k-max", "1", "--r-max", "1"]),
        ],
        ids=["no_frobenius", "no_spectrum", "no_symmetric_about_half", "unhashable_key",
             "no_passed", "no_spec"],
    )
    def test_hand_written_record_is_not_a_prefix(self, capsys, tmp_path, record, grid):
        path = tmp_path / "records.ndjson"
        damaged = (json.dumps(record) + "\n").encode()
        path.write_bytes(damaged)
        argv = ["sweep", "--conjecture", record["conjecture"], *grid, "--out", str(path)]
        assert run_cli(capsys, *argv, "--resume") == (
            64, "", f"error: record file {path} is not a prefix of this job's records at line 1\n"
        )
        assert path.read_bytes() == damaged

    @pytest.mark.parametrize("conjecture", ["unimodal_2_8", "none"])
    def test_summary_does_not_depend_on_out(self, capsys, tmp_path, conjecture):
        argv = ["sweep", "--conjecture", conjecture, "--n-max", "7"]
        without = run_cli(capsys, *argv)
        path = tmp_path / "records.ndjson"
        with_out = run_cli(capsys, *argv, "--out", str(path))
        assert without == with_out
        assert without[0] == 0
        assert path.read_bytes().count(b"\n") == 5461

    def test_resume_without_out_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "sweep", "--resume")
        assert code == 64
        assert "resume" in err

    def test_bad_conjecture_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--conjecture", "bogus"])
        assert exc.value.code == 64

    def test_workers_option_is_refused(self, capsys, tmp_path):
        """The sweep runs serially; --workers is not an option any more."""
        absent = tmp_path / "absent.ndjson"
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--n-max", "2", "--workers", "2", "--out", str(absent)])
        captured = capsys.readouterr()
        assert exc.value.code == 64
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == (
            "seaweedspec: error: unrecognized arguments: --workers 2"
        )
        assert not absent.exists()


@pytest.mark.parametrize("target", ["missing_dir", "directory"])
@pytest.mark.parametrize("argv", [
    ("index", "1|1 / 2"),
    ("render", "1|1 / 2"),
    ("sweep", "--n-max", "2"),
    ("sweep", "--n-max", "2", "--resume"),
    ("sweep", "--conjecture", "stability_4_17", "--k-max", "1", "--r-max", "1"),
    ("sweep", "--conjecture", "stability_4_17", "--k-max", "1", "--r-max", "1", "--resume"),
], ids=["index", "render", "sweep", "sweep_resume", "stability_4_17", "stability_4_17_resume"])
def test_out_path_the_system_refuses_is_usage_error(capsys, tmp_path, argv, target):
    """An --out under a missing directory, or naming a directory, exits 64
    with one error line and no traceback, and creates nothing."""
    folder = tmp_path / "folder"
    folder.mkdir()
    out = folder / "missing" / "x" if target == "missing_dir" else folder
    code, stdout, err = run_cli(capsys, *argv, "--out", str(out))
    assert (code, stdout) == (64, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(out) in err
    assert list(folder.iterdir()) == []


class TestParser:
    def test_missing_command_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            cli.main([])
        assert exc.value.code == 64

    def test_version(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out == "seaweedspec 0.1.0\n"

    @pytest.mark.parametrize("argv, err", [
        (["index", "\u0661|\u0661 / 2"], "bad composition part '\u0661': expected a positive integer"),
        (["index", "\u00b2|1 / 3"], "bad composition part '\u00b2': expected a positive integer"),
        (["verify-family", "k1", "--k", "\u0661..\u0663"],
         "bad --k range '\u0661..\u0663': expected A, A..B, or A..B:odd"),
    ], ids=["arabic-indic", "superscript", "range"])
    def test_non_ascii_digits_are_usage_errors(self, capsys, argv, err):
        """Seaweeds and ranges take ASCII digits only, though int() reads
        any Unicode decimal digit."""
        assert run_cli(capsys, *argv) == (64, "", f"error: {err}\n")

    @pytest.mark.parametrize("argv", [
        ["verify-lemmas", "--max-k", "\u0663"],
        ["verify-lemmas", "--k2", "1", "--m", "1", "--k1", "\u0662"],
        ["sweep", "--n-max", "\u0663"],
    ], ids=["max-k", "k1", "n-max"])
    def test_integer_flags_take_ascii_digits_only(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        captured = capsys.readouterr()
        assert (exc.value.code, captured.out) == (64, "")
        assert captured.err.endswith(f"invalid integer '{argv[-1]}': expected ASCII digits\n")


def console_command():
    """Launch ``seaweedspec.cli:main``: the installed console script if there
    is one, else ``python -m seaweedspec.cli`` (a source checkout). Run it
    with the child_env fixture, so that either way the child imports the
    same package as this process."""
    script = shutil.which("seaweedspec")
    return [script] if script else [sys.executable, "-m", "seaweedspec.cli"]


def test_console_script_is_deterministic(child_env):
    argv = console_command() + ["spectrum", "2|4 / 1|2|3", "--format", "json"]
    first = subprocess.run(argv, capture_output=True, text=True, env=child_env)
    second = subprocess.run(argv, capture_output=True, text=True, env=child_env)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout == '{"-2":1,"-1":2,"0":5,"1":5,"2":2,"3":1}\n'
    assert first.stderr == ""


@pytest.mark.parametrize("argv", [
    ["index", "1|2 / 3"],
    ["sweep", "--n-max", "3"],
], ids=["index", "sweep"])
def test_closed_stdout_exits_141_without_traceback(child_env, argv):
    """A reader that leaves at once (as `| head -0` does) is not an error of
    the command: exit 128 + SIGPIPE, and nothing on stderr."""
    command = console_command()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run(
            command + argv, stdout=write_end, stderr=subprocess.PIPE, env=child_env
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (141, b"")


def limit_address_space():
    """Cap the address space of the child it runs in at 1.5 GB, so that an
    oversized request fails to allocate whatever the host's memory."""
    cap = 1536 * 2**20
    _, hard = resource.getrlimit(resource.RLIMIT_AS)
    if hard != resource.RLIM_INFINITY:
        cap = min(cap, hard)
    resource.setrlimit(resource.RLIMIT_AS, (cap, hard))


@pytest.mark.parametrize("argv", [
    ["spectrum", "99999999999|1 / 100000000000"],
    ["verify-family", "k1", "--k", "1..10000000000"],
], ids=["spectrum", "verify-family"])
def test_request_beyond_memory_exits_64_with_one_line(child_env, argv):
    """A seaweed a kernel can index but whose arrays do not fit, or a range
    too long to list, is the request's fault: one error line and exit 64,
    where it used to end in a MemoryError traceback and exit 1."""
    done = subprocess.run(
        console_command() + argv,
        capture_output=True,
        text=True,
        env=child_env,
        preexec_fn=limit_address_space,
    )
    assert (done.returncode, done.stdout) == (64, "")
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: ")


def test_census_beyond_memory_is_refused_at_once(child_env):
    """The n <= 17 census needs over 5 GB. Its tables are all allocated
    before any is filled, so the sweep stops in well under a second, where
    it used to fill the smaller tables for about 15 s first."""
    start = time.perf_counter()
    done = subprocess.run(
        console_command() + ["sweep", "--n-max", "17"],
        capture_output=True,
        text=True,
        env=child_env,
        preexec_fn=limit_address_space,
    )
    elapsed = time.perf_counter() - start
    assert (done.returncode, done.stdout) == (64, "")
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: ")
    assert elapsed < 3


def test_odd_range_beyond_memory_is_refused_at_once(child_env):
    """An :odd range is listed from a stepped range, so one too long to
    list fails to allocate at once, as the same range without :odd does,
    where testing each value first took over 4 s."""
    start = time.perf_counter()
    done = subprocess.run(
        console_command() + ["verify-family", "k1", "--k", "1..10000000000:odd"],
        capture_output=True,
        text=True,
        env=child_env,
        preexec_fn=limit_address_space,
    )
    elapsed = time.perf_counter() - start
    assert (done.returncode, done.stdout) == (64, "")
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: ")
    assert elapsed < 3


@pytest.mark.parametrize("resume", [False, True], ids=["fresh", "resume"])
def test_census_beyond_memory_leaves_the_record_file_as_it_was(child_env, tmp_path, resume):
    """The census is built before --out is opened: a fresh run that fails
    to allocate it leaves no file, and a resumed one leaves its file,
    torn last line and all, byte for byte as it was."""
    out = tmp_path / "records.ndjson"
    argv = ["sweep", "--n-max", "17", "--out", str(out)]
    if resume:
        before = b'{"conjecture": "unimodal_2_8", "key": "1 / 1", "spec": "1 / 1", "index": 0'
        out.write_bytes(before)
        argv.append("--resume")
    done = subprocess.run(
        console_command() + argv,
        capture_output=True,
        text=True,
        env=child_env,
        preexec_fn=limit_address_space,
    )
    assert (done.returncode, done.stdout) == (64, "")
    assert len(done.stderr.splitlines()) == 1
    assert done.stderr.startswith("error: ")
    if resume:
        assert out.read_bytes() == before
    else:
        assert not out.exists()


HUGE = "99999999999999999999"


@pytest.mark.parametrize("argv, what, n", [
    (["verify-lemmas", "--k1", HUGE, "--k2", "1", "--m", "1"], "seaweed", 2 * 10**20 - 1),
    (["sweep", "--conjecture", "stability_4_17", "--k-max", HUGE],
     f"seaweed at k = {HUGE}, r = 6", 12 * 10**20 - 11),
    (["sweep", "--conjecture", "stability_4_18", "--k-max", HUGE],
     f"neighbour at k = {10**20}, r = 6", 12 * 10**20 + 1),
    (["verify-family", "k1", "--k", HUGE], "seaweed", 10**20),
], ids=["verify-lemmas", "stability_4_17", "stability_4_18", "verify-family"])
def test_largest_seaweed_beyond_an_index_is_refused_up_front(
    child_env, tmp_path, argv, what, n
):
    """The largest seaweed of a corner-block triple, a stability grid (for
    4_18, the shift's neighbour at k_max + 1) or a verify-family point is
    refused before any matrix, grid or closed form is built, and before
    --out is opened. These used to end in an OverflowError traceback
    (verify-lemmas) or fill memory until an allocation failed, so the child
    runs under the address-space cap."""
    out = tmp_path / "out"
    done = subprocess.run(
        console_command() + argv + ["--out", str(out)],
        capture_output=True,
        text=True,
        env=child_env,
        preexec_fn=limit_address_space,
    )
    assert (done.returncode, done.stdout, done.stderr) == (64, "", too_large(what, n))
    assert not out.exists()


@pytest.mark.parametrize("family, k", [
    ("k-2r", "1"), ("k-2r+1", "1"), ("k-4r", "1"), ("k-4r+2", "1"), ("2s-r1", None),
])
def test_family_r_beyond_an_index_exits_64_before_any_part_is_built(
    capsys, monkeypatch, family, k
):
    """Every one of r's blocks holds a vertex, so an r past the most a
    kernel can index is refused before the parts, r blocks long, are built,
    where building them used to end in an OverflowError traceback."""
    no_kernel_calls(monkeypatch)
    argv = ["verify-family", family, "--r", HUGE] + ([] if k is None else ["--k", k])
    err = (f"error: family {family} too large: r = {HUGE} blocks exceed the most "
           f"vertices a kernel can index, {MAX_INDEXABLE}\n")
    assert run_cli(capsys, *argv) == (64, "", err)
