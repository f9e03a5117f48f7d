import hashlib
import importlib
import json
import time
import tracemalloc

import pytest
from oracles import graph_components, read_ndjson

from seaweedspec import (
    Composition,
    ParseError,
    SweepJob,
    compositions_of,
    default_extension_base,
    enumerate_frobenius,
    extension_variant_spec,
    parse_seaweed,
    run_stability_sweep,
    run_sweep,
    run_unimodality_sweep,
)
from seaweedspec import analysis, cli, meander, sweep
from seaweedspec.sweep import _pair_record
from seaweedspec.analysis import EngineInvariantError
from seaweedspec.spectrum import SpectrumUndefinedError

spectrum_module = importlib.import_module("seaweedspec.spectrum")


class TestEnumerateFrobenius:
    def test_n2_golden(self):
        assert {str(g) for g in enumerate_frobenius(2)} == {"1|1 / 2", "2 / 1|1"}

    def test_counts_through_n12(self):
        assert [sum(1 for _ in enumerate_frobenius(n)) for n in range(1, 13)] == [
            1, 2, 6, 14, 34, 68, 150, 296, 586, 1140, 2182, 4130,
        ]

    def test_n_past_what_a_census_can_index_is_refused_at_once(self):
        """The census comes before the 2^(n-1) compositions, which n = 40
        used to build for minutes, growing to gigabytes, before failing."""
        start = time.perf_counter()
        with pytest.raises(ValueError, match="more than a census can index"):
            next(enumerate_frobenius(40))
        assert time.perf_counter() - start < 1

    def test_equals_the_frobenius_keys_of_the_sweep_file(self, tmp_path):
        out = tmp_path / "records.ndjson"
        run_sweep(SweepJob(n_max=8, out=str(out)))
        frobenius = {r["key"] for r in read_ndjson(str(out)) if r["frobenius"]}
        assert len(frobenius) == 1 + 2 + 6 + 14 + 34 + 68 + 150 + 296
        assert {str(g) for n in range(1, 9) for g in enumerate_frobenius(n)} == frobenius


class TestSweepJob:
    def test_defaults(self):
        job = SweepJob()
        assert job.conjecture == "unimodal_2_8"
        assert (job.n_min, job.n_max) == (1, 10)

    def test_validation(self):
        with pytest.raises(ValueError, match="conjecture"):
            SweepJob(conjecture="unimodal")
        with pytest.raises(ValueError, match="bad n range"):
            SweepJob(n_min=0)
        with pytest.raises(ValueError, match="bad n range"):
            SweepJob(n_min=5, n_max=4)
        with pytest.raises(ValueError, match="resume"):
            SweepJob(resume=True)
        with pytest.raises(ValueError, match="k_max and r_max"):
            SweepJob(conjecture="stability_4_17", k_max=0)
        for conjecture in ("stability_4_16", "stability_4_17", "stability_4_18"):
            with pytest.raises(ValueError, match="k_max and r_max"):
                SweepJob(conjecture=conjecture, r_max=0)
        with pytest.raises(ValueError, match="4\\^32 composition pairs"):
            SweepJob(n_max=33)


class TestUnimodalitySweep:
    def test_exhaustive_n6(self, tmp_path):
        out = tmp_path / "records.ndjson"
        summary = run_unimodality_sweep(SweepJob(n_max=6, out=str(out)))
        assert summary["pairs"] == 1365
        assert summary["frobenius"] == 125
        assert summary["resumed"] == 0
        assert summary["engine_invariant_failures"] == 0
        assert summary["counterexamples"] == []
        records = read_ndjson(str(out))
        assert len(records) == 1365
        assert sum(r["frobenius"] for r in records) == 125

    def test_resume_is_idempotent(self, tmp_path):
        out = tmp_path / "records.ndjson"
        first = run_unimodality_sweep(SweepJob(n_max=5, out=str(out)))
        again = run_unimodality_sweep(SweepJob(n_max=5, out=str(out), resume=True))
        assert again["resumed"] == first["pairs"] == 341
        assert again["pairs"] == first["pairs"]
        assert again["frobenius"] == first["frobenius"]
        assert again["counterexamples"] == first["counterexamples"]
        assert len(read_ndjson(str(out))) == 341

    def test_partial_resume_extends_the_file(self, tmp_path):
        out = tmp_path / "records.ndjson"
        run_unimodality_sweep(SweepJob(n_max=4, out=str(out)))
        assert len(read_ndjson(str(out))) == 85
        summary = run_unimodality_sweep(SweepJob(n_max=5, out=str(out), resume=True))
        assert summary["resumed"] == 85
        assert summary["pairs"] == 341
        records = read_ndjson(str(out))
        assert len(records) == 341
        assert len({r["key"] for r in records}) == 341

    def test_serial_runs_give_the_same_bytes(self, tmp_path):
        paths = [tmp_path / name for name in ("first.ndjson", "again.ndjson")]
        for path in paths:
            run_unimodality_sweep(SweepJob(n_max=5, out=str(path)))
        first, again = (path.read_bytes() for path in paths)
        assert first.count(b"\n") == 341
        assert again == first

    @pytest.mark.parametrize("conjecture", ["unimodal_2_8", "none"])
    def test_records_equal_json_dumps_of_the_generic_record(self, tmp_path, conjecture):
        out = tmp_path / "records.ndjson"
        run_sweep(SweepJob(conjecture=conjecture, n_max=6, out=str(out)))
        lines = out.read_text().splitlines(keepends=True)
        expected = []
        for n in range(1, 7):
            tops = [c.parts for c in compositions_of(n)]
            for top in tops:
                for bottom in tops:
                    cycles, paths = meander.component_counts(top, bottom)
                    key = f"{Composition(top)} / {Composition(bottom)}"
                    rec = _pair_record(conjecture, key, top, bottom, 2 * cycles + paths - 1)
                    expected.append(json.dumps(rec) + "\n")
        assert len(lines) == len(expected) == 1365
        assert sum('"frobenius": false' in line for line in expected) == 1365 - 125
        assert lines == expected

    def test_row_is_on_disk_before_its_failure_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(analysis, "is_unbroken_centered_half", lambda s: (False, False))
        out = tmp_path / "records.ndjson"
        with pytest.raises(EngineInvariantError, match="2 / 1\\|1: spectrum support has gaps"):
            run_unimodality_sweep(SweepJob(n_max=2, out=str(out)))
        keys = [r["key"] for r in read_ndjson(str(out))]
        assert keys[0] == "1 / 1"  # empty spectrum: no predicates, no failure
        assert "2 / 1|1" in keys

    def test_counterexample_surfaces_on_resume(self, tmp_path, monkeypatch):
        """No pair in reach breaks unimodality, so the predicates are patched
        to find counterexamples. The records of the rows resume matches are
        made by the run again, so theirs are reported as the rest are."""
        monkeypatch.setattr(analysis, "is_unimodal", lambda s: False)
        monkeypatch.setattr(analysis, "is_log_concave", lambda s: False)
        fresh, lines = fresh_file(tmp_path / "fresh.ndjson", n_max=3)
        assert len(fresh["counterexamples"]) == fresh["frobenius"] - 1 == 8
        path = tmp_path / "cut.ndjson"
        path.write_bytes(b"".join(lines[:10]))
        summary = run_unimodality_sweep(SweepJob(n_max=3, out=str(path), resume=True))
        assert summary == {**fresh, "resumed": 10}
        assert path.read_bytes() == b"".join(lines)

    def test_resumed_record_is_checked(self, tmp_path, monkeypatch):
        path = tmp_path / "records.ndjson"
        _, lines = fresh_file(path, n_max=3)

        def failing(spec, spectrum, fields):
            if spec == "1|2 / 3":
                raise EngineInvariantError(f"{spec}: patched")

        monkeypatch.setattr(sweep, "check_proven_claims", failing)
        with pytest.raises(EngineInvariantError, match=r"^1\|2 / 3: patched$"):
            run_unimodality_sweep(SweepJob(n_max=3, out=str(path), resume=True))
        assert path.read_bytes() == b"".join(lines)

    def test_conjecture_none_still_checks_invariants_only(self):
        summary = run_sweep(SweepJob(conjecture="none", n_max=3))
        assert summary["conjecture"] == "none"
        assert summary["pairs"] == 21
        assert summary["counterexamples"] == []


class TestResumeTornTail:
    @pytest.fixture
    def fresh(self, tmp_path):
        path = tmp_path / "fresh.ndjson"
        run_unimodality_sweep(SweepJob(n_max=5, out=str(path)))
        return path.read_bytes()

    def resume(self, path):
        return run_unimodality_sweep(SweepJob(n_max=5, out=str(path), resume=True))

    def test_line_cut_midway_is_recomputed(self, tmp_path, fresh):
        lines = fresh.splitlines(keepends=True)
        head = b"".join(lines[:200])
        path = tmp_path / "torn.ndjson"
        path.write_bytes(head + lines[200][:17])
        summary = self.resume(path)
        assert summary["resumed"] == 200
        assert summary["frobenius"] == 57
        assert path.read_bytes() == fresh

    def test_valid_last_line_without_newline_is_recomputed(self, tmp_path, fresh):
        path = tmp_path / "torn.ndjson"
        path.write_bytes(fresh[:-1])
        json.loads(fresh[:-1].splitlines()[-1])  # the fragment is a whole record
        summary = self.resume(path)
        assert summary["resumed"] == 340
        assert path.read_bytes() == fresh

    def test_corrupt_middle_line_is_fatal_and_leaves_the_file(self, tmp_path, fresh):
        lines = fresh.splitlines(keepends=True)
        lines[100] = b"garbage\n"
        damaged = b"".join(lines[:300]) + lines[300][:5]
        path = tmp_path / "damaged.ndjson"
        path.write_bytes(damaged)
        with pytest.raises(ParseError, match=r"damaged\.ndjson is not a prefix .* at line 101$"):
            self.resume(path)
        assert path.read_bytes() == damaged


class TestFilesAreClosed:
    """Every file the sweep module opens is closed when the run returns or
    raises; the recorder keeps each file object alive, so an unclosed one
    stays open for the assertion instead of being closed by the collector."""

    @pytest.fixture
    def opened(self, monkeypatch):
        files = []

        def recording_open(*args, **kwargs):
            fh = open(*args, **kwargs)
            files.append(fh)
            return fh

        monkeypatch.setattr(sweep, "open", recording_open, raising=False)
        return files

    def check_all_closed(self, opened, count):
        assert len(opened) == count
        assert all(fh.closed for fh in opened)
        opened.clear()

    def test_fresh_resume_torn_and_corrupt(self, tmp_path, opened):
        path = tmp_path / "records.ndjson"
        job = SweepJob(n_max=4, out=str(path))
        resume = SweepJob(n_max=4, out=str(path), resume=True)

        run_unimodality_sweep(job)
        self.check_all_closed(opened, 1)
        fresh = path.read_bytes()

        run_unimodality_sweep(resume)
        self.check_all_closed(opened, 1)

        with pytest.raises(ParseError, match=r"records\.ndjson is not empty"):
            run_unimodality_sweep(job)
        self.check_all_closed(opened, 1)

        path.write_bytes(fresh[:-9])
        assert run_unimodality_sweep(resume)["resumed"] == 84
        self.check_all_closed(opened, 1)
        assert path.read_bytes() == fresh

        lines = fresh.splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:10]) + b"garbage\n" + b"".join(lines[11:]))
        with pytest.raises(ParseError, match=r"records\.ndjson is not a prefix .* at line 11$"):
            run_unimodality_sweep(resume)
        self.check_all_closed(opened, 1)

        path.write_bytes(fresh + b"\n")
        with pytest.raises(ParseError, match=r"records\.ndjson is not a prefix .* at line 86$"):
            run_unimodality_sweep(resume)
        self.check_all_closed(opened, 1)


class TestExtensionSpecs:
    def test_default_base(self):
        assert str(default_extension_base(1)) == "2|1 / 3"
        assert str(default_extension_base(3)) == "4|3 / 7"

    def test_variant_goldens(self):
        base = parse_seaweed("3|1 / 4")
        assert str(extension_variant_spec(base, 1, 2, "r_blocks")) == "3|2|2 / 4|2|1"
        assert (
            str(extension_variant_spec(base, 1, 2, "r_blocks_plus_k")) == "3|2|2|1 / 4|2|2"
        )
        base = parse_seaweed("4|3 / 7")
        assert str(extension_variant_spec(base, 3, 1, "r_blocks")) == "4|6 / 7|3"

    def test_rejects_mismatched_base(self):
        with pytest.raises(ValueError, match="must end in k=2"):
            extension_variant_spec(parse_seaweed("3|1 / 4"), 2, 1, "r_blocks")

    def test_rejects_unknown_variant(self):
        with pytest.raises(ValueError, match="variant"):
            extension_variant_spec(parse_seaweed("3|1 / 4"), 1, 1, "twice")


class TestStabilitySweeps:
    def test_4_16_default_bases_pass(self, tmp_path):
        out = tmp_path / "records.ndjson"
        summary = run_stability_sweep(
            SweepJob(conjecture="stability_4_16", k_max=3, r_max=3, out=str(out))
        )
        assert summary["checked"] == 18
        assert summary["counterexamples"] == []
        assert summary["base"] == "default per-k bases"
        records = read_ndjson(str(out))
        assert len(records) == 18
        assert all(r["passed"] for r in records)

    def test_4_16_explicit_base(self):
        summary = run_stability_sweep(
            SweepJob(conjecture="stability_4_16", base="3|1 / 4", r_max=4)
        )
        assert summary["checked"] == 8
        assert summary["counterexamples"] == []
        assert summary["base"] == "3|1 / 4"

    def test_4_16_non_frobenius_base_raises(self):
        with pytest.raises(SpectrumUndefinedError):
            run_stability_sweep(SweepJob(conjecture="stability_4_16", base="2|2 / 4"))

    def test_4_17_grid_passes(self):
        summary = run_sweep(SweepJob(conjecture="stability_4_17", k_max=3, r_max=4))
        assert summary["checked"] == 12
        assert summary["counterexamples"] == []

    def test_4_18_grid_passes(self):
        summary = run_sweep(SweepJob(conjecture="stability_4_18", k_max=3, r_max=4))
        assert summary["checked"] == 12
        assert summary["counterexamples"] == []

    def test_4_18_shift_needs_next_k(self):
        # the shift field compares against k+1, so the record set is closed
        # over the grid only because the run's spectrum memo computes
        # k_max+1 on demand
        summary = run_sweep(SweepJob(conjecture="stability_4_18", k_max=1, r_max=2))
        assert summary["counterexamples"] == []

    def test_resume_skips_completed_points(self, tmp_path):
        out = tmp_path / "records.ndjson"
        job = SweepJob(conjecture="stability_4_17", k_max=2, r_max=2, out=str(out))
        first = run_stability_sweep(job)
        job2 = SweepJob(
            conjecture="stability_4_17", k_max=2, r_max=2, out=str(out), resume=True
        )
        second = run_stability_sweep(job2)
        assert first["checked"] == second["checked"] == 4
        assert second["resumed"] == 4
        assert len(read_ndjson(str(out))) == 4

    def test_failure_surfaces_on_resume(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sweep, "is_unimodal", lambda s: False)
        grid = dict(conjecture="stability_4_17", k_max=1, r_max=2)
        summary = resumed_over_first_record(tmp_path, grid)
        assert summary["counterexamples"] == [
            {"spec": "2|1 / 3", "failed": ["unimodal"]},
            {"spec": "2|2|1 / 5", "failed": ["unimodal"]},
        ]

    def test_dispatch_rejects_non_stability(self):
        with pytest.raises(ValueError, match="not a stability conjecture"):
            run_stability_sweep(SweepJob(conjecture="unimodal_2_8"))


# Each stability conjecture's checks, in record order.
STABILITY_CHECKS = {
    "stability_4_16": ("contains_base", "no_new_values", "unimodal_inherited"),
    "stability_4_17": ("support_matches", "unimodal"),
    "stability_4_18": ("support_matches", "log_concave", "shift_matches"),
}

# sha256 of the record file of each job: the three default grids and an
# explicit 4_16 base. The bytes are the sweeps' behaviour, so a change to
# any of them has to be deliberate.
STABILITY_RECORD_SHA256 = [
    (dict(conjecture="stability_4_16"),
     "9af3df777979579efed599ef2cb28f77bcfd995fec672a0bbf145f0061b3660a"),
    (dict(conjecture="stability_4_17"),
     "fe1c348a074efef54fc76f62ccaa4a5be7ba46e763b5451460d10e037edd087f"),
    (dict(conjecture="stability_4_18"),
     "524fd96ac7252c210567c2efe509ddf40b44a8caa68ce85b7f25ec7ca0ef93cb"),
    (dict(conjecture="stability_4_16", base="4|3 / 7", r_max=12),
     "64d2f6096377b9762dc03516ccf99ef2512ff3a5a01a2f0a072a496dfd567324"),
]


# The record file of `sweep --n-max 8 --out F`: its size and sha256.
UNIMODAL_N8_RECORDS = (5_499_653, "bb3887204b7ca2ae4685a3d03f2cad1be2dacf40604d329befd6a793831ecc13")

# The same of `sweep --n-max 9 --out F`, the benchmark's sweep, with its
# line count.
UNIMODAL_N9_RECORDS = (
    87_381, 22_304_413, "3b85a70057d056aacc71cf0d619c7590ff57acb3bc31856fec0c5e58509f0805"
)


class TestOrbitCensus:
    """The sweep reads every pair's index off the census, which is built by
    the winding-down moves with no meander walked, and the records are
    those of running the moves on every pair."""

    def test_record_file_bytes_are_pinned(self, tmp_path, each_kernel):
        out = tmp_path / "records.ndjson"
        run_sweep(SweepJob(n_max=8, out=str(out)))
        data = out.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == UNIMODAL_N8_RECORDS

    def test_resume_over_a_mid_row_cut_gives_the_fresh_bytes(self, tmp_path, each_kernel):
        """The rows before the cut are skipped, so the census rows they
        hold are built by the resumed run itself."""
        fresh = tmp_path / "fresh.ndjson"
        fresh_summary = run_sweep(SweepJob(n_max=8, out=str(fresh)))
        lines = fresh.read_bytes().splitlines(keepends=True)
        keep = (4**7 - 1) // 3 + 77 * 128 + 45  # n <= 7, then 77 rows and 45 pairs of n = 8
        path = tmp_path / "cut.ndjson"
        path.write_bytes(b"".join(lines[:keep]))
        summary = run_sweep(SweepJob(n_max=8, out=str(path), resume=True))
        assert summary == {**fresh_summary, "resumed": keep}
        assert path.read_bytes() == fresh.read_bytes()

    def test_census_equals_the_walk_on_every_pair_through_n9(self, each_kernel):
        """Each census byte is 2C + P of the meander walked by BFS, and is 1
        exactly where the kernel's walk covers all n vertices in one path."""
        census = meander._census(9)
        assert census[0] == b"\x00"
        for n in range(1, 10):
            tops = [c.parts for c in compositions_of(n)]
            pairs = [(top, bottom) for top in tops for bottom in tops]
            walked = bytes(
                2 * cycles + paths
                for top, bottom in pairs
                for cycles, paths in [graph_components(top, bottom)]
            )
            assert census[n] == walked, n
            one_path = bytes(
                int(spectrum_module.kernel.potentials(top, bottom) is not None) for top, bottom in pairs
            )
            assert bytes(byte == 1 for byte in census[n]) == one_path, n

    def test_sweep_and_enumerate_frobenius_walk_no_meander(self, monkeypatch):
        walked = []
        moves = meander.component_counts

        def counting(top, bottom):
            walked.append((top, bottom))
            return moves(top, bottom)

        monkeypatch.setattr(meander, "component_counts", counting)
        assert run_sweep(SweepJob(n_max=8))["pairs"] == 21845
        assert sum(1 for _ in enumerate_frobenius(8)) == 296
        assert walked == []

    @pytest.mark.parametrize("n_min", [1, 5, 8])
    def test_n_min_writes_the_tail_of_the_full_file(self, tmp_path, n_min):
        """A run from n_min builds the census of the n below it too, and
        writes exactly the lines of n >= n_min of the run from 1."""
        full = tmp_path / "full.ndjson"
        run_sweep(SweepJob(n_max=8, out=str(full)))
        below = (4 ** (n_min - 1) - 1) // 3  # the pairs of n < n_min
        tail = b"".join(full.read_bytes().splitlines(keepends=True)[below:])
        out = tmp_path / "tail.ndjson"
        run_sweep(SweepJob(n_min=n_min, n_max=8, out=str(out)))
        assert out.read_bytes() == tail
        # n_min..7, then 77 rows and 45 pairs of n = 8
        keep = (4**7 - 1) // 3 - below + 77 * 128 + 45
        out.write_bytes(b"".join(tail.splitlines(keepends=True)[:keep]))
        summary = run_sweep(SweepJob(n_min=n_min, n_max=8, out=str(out), resume=True))
        assert summary["resumed"] == keep
        assert out.read_bytes() == tail


class TestRowWriter:
    """Each row is one join of the pieces of its pairs' lines, with each
    Frobenius pair's tail cut from its orbit record. A resumed partial row
    takes the same path."""

    def test_n9_file_is_pinned(self, tmp_path, each_kernel):
        out = tmp_path / "records.ndjson"
        run_sweep(SweepJob(n_max=9, out=str(out)))
        data = out.read_bytes()
        assert (data.count(b"\n"), len(data), hashlib.sha256(data).hexdigest()) == (
            UNIMODAL_N9_RECORDS
        )

    def test_frobenius_lines_equal_json_dumps_of_the_record(self, tmp_path, each_kernel):
        out = tmp_path / "records.ndjson"
        run_sweep(SweepJob(n_max=9, out=str(out)))
        lines = out.read_text().splitlines(keepends=True)
        lines = [line for line in lines if '"frobenius": true' in line]
        expected = [
            json.dumps(_pair_record("unimodal_2_8", str(g), g.top.parts, g.bottom.parts, 0)) + "\n"
            for n in range(1, 10)
            for g in enumerate_frobenius(n)
        ]
        assert len(lines) == len(expected) == 1157
        assert lines == expected

    def test_resume_after_every_line_gives_the_fresh_file(self, tmp_path):
        """The n <= 5 file cut after each of its lines: the cuts inside a row
        leave Frobenius bottoms on either side."""
        fresh, lines = fresh_file(tmp_path / "fresh.ndjson", n_max=5)
        assert len(lines) == 341
        path = tmp_path / "cut.ndjson"
        for keep in range(1, len(lines) + 1):
            path.write_bytes(b"".join(lines[:keep]))
            summary = run_unimodality_sweep(SweepJob(n_max=5, out=str(path), resume=True))
            assert summary == {**fresh, "resumed": keep}, keep
            assert path.read_bytes() == b"".join(lines), keep

    def test_resume_after_every_line_replays_under_each_kernel(
        self, tmp_path, unparsed, each_kernel
    ):
        """The test above, under each kernel and with json.loads out of
        reach: every cut of a fresh file is a prefix of it."""
        self.test_resume_after_every_line_gives_the_fresh_file(tmp_path)


@pytest.fixture
def unparsed(monkeypatch):
    """json.loads out of reach: a resume parses no line."""

    def refused(*args, **kwargs):
        raise AssertionError("json.loads was called")

    monkeypatch.setattr(json, "loads", refused)


class TestReplay:
    """A record file this code wrote is a prefix of the records its job
    writes, and resume checks it as one, row by row, parsing no line. Any
    other file stops the run at its first differing line, and is left as it
    was."""

    # Pairs of n <= 5, then 2 rows and 7 pairs of n = 6: Frobenius pairs of
    # that row lie on both sides of the cut.
    MID_ROW = (4**5 - 1) // 3 + 2 * 32 + 7

    @pytest.mark.parametrize("cut", ["empty", "mid-row", "torn", "torn newline", "complete"])
    def test_file_the_writer_made_is_replayed(self, tmp_path, unparsed, each_kernel, cut):
        fresh, lines = fresh_file(tmp_path / "fresh.ndjson", n_max=6)
        row = lines[self.MID_ROW - 7:self.MID_ROW + 25]
        assert all(b'"frobenius": true' in b"".join(side) for side in (row[:7], row[7:]))
        keep, data = {
            "empty": (0, b""),
            "mid-row": (self.MID_ROW, b"".join(lines[:self.MID_ROW])),
            "torn": (self.MID_ROW, b"".join(lines[:self.MID_ROW]) + lines[self.MID_ROW][:40]),
            "torn newline": (len(lines) - 1, b"".join(lines)[:-1]),
            "complete": (len(lines), b"".join(lines)),
        }[cut]
        path = tmp_path / "cut.ndjson"
        path.write_bytes(data)
        summary = run_unimodality_sweep(SweepJob(n_max=6, out=str(path), resume=True))
        assert summary == {**fresh, "resumed": keep}
        assert path.read_bytes() == b"".join(lines)

    def test_smaller_run_file_is_replayed(self, tmp_path, unparsed, each_kernel):
        fresh, lines = fresh_file(tmp_path / "fresh.ndjson", n_max=5)
        path = tmp_path / "small.ndjson"
        fresh_file(path, n_max=4)
        summary = run_unimodality_sweep(SweepJob(n_max=5, out=str(path), resume=True))
        assert summary == {**fresh, "resumed": 85}
        assert path.read_bytes() == b"".join(lines)

    @pytest.mark.parametrize("k", range(85))
    def test_one_byte_edit_is_not_a_prefix(self, tmp_path, capsys, fresh_lines, k):
        """Line k + 1 of the n <= 4 file edited in its first byte, and in its
        last byte before the newline: over the 85 lines, 170 files, each of
        which exits 64, names the edited line and is left as it was."""
        lines = fresh_lines["n4"]
        assert len(lines) == 85
        path = tmp_path / "edited.ndjson"
        argv = ["sweep", "--n-max", "4", "--out", str(path), "--resume"]
        for at in (0, len(lines[k]) - 2):
            edited = bytearray(lines[k])
            edited[at] += 1
            data = b"".join(lines[:k]) + bytes(edited) + b"".join(lines[k + 1:])
            path.write_bytes(data)
            assert (cli.main(argv), *capsys.readouterr()) == (
                64, "",
                f"error: record file {path} is not a prefix of this job's records at line {k + 1}\n",
            ), at
            assert path.read_bytes() == data, at

    def test_resume_memory_stays_below_a_quarter_of_the_file(self, tmp_path):
        path = tmp_path / "records.ndjson"
        run_sweep(SweepJob(n_max=8, out=str(path)))
        size = path.stat().st_size
        assert size == UNIMODAL_N8_RECORDS[0]
        tracemalloc.start()
        try:
            summary = run_sweep(SweepJob(n_max=8, out=str(path), resume=True))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert summary["resumed"] == summary["pairs"] == 21845
        assert peak < size / 4


class TestOrbitMemo:
    """Swapping a pair's compositions, and reversing both, keeps its
    spectrum, so a sweep takes one spectrum per orbit of the two: in a fresh
    run, and across the replay and the rows written after it on resume."""

    # Pairs of n <= 8, then 65 rows and 20 pairs of n = 9: Frobenius pairs of
    # that row lie on both sides of the cut.
    MID_ROW_9 = (4**8 - 1) // 3 + 65 * 256 + 20

    def test_orbit_members_have_one_spectrum_through_n9(self, each_kernel):
        potentials = spectrum_module.kernel.potentials
        spectrum_counts = spectrum_module.kernel.spectrum_counts

        def counts_of(t, b):
            return spectrum_counts(t, b, potentials(t, b))

        frobenius = 0
        for n in range(1, 10):
            for g in enumerate_frobenius(n):
                t, b = g.top.parts, g.bottom.parts
                counts = counts_of(t, b)
                members = [(b, t), (t[::-1], b[::-1]), (b[::-1], t[::-1])]
                assert all(counts_of(*pair) == counts for pair in members), g
                frobenius += 1
        assert frobenius == 1157

    @pytest.fixture
    def spectra(self, monkeypatch):
        """The pairs whose spectrum the kernel is asked for, in order."""
        asked = []
        spectrum_counts = spectrum_module.kernel.spectrum_counts

        def counting(top, bottom, phi):
            asked.append((top, bottom))
            return spectrum_counts(top, bottom, phi)

        monkeypatch.setattr(spectrum_module.kernel, "spectrum_counts", counting)
        return asked

    def test_fresh_n9_sweep_takes_one_spectrum_per_orbit(self, spectra):
        summary = run_sweep(SweepJob(n_max=9))
        assert summary["frobenius"] == 1157
        assert len(spectra) == len(set(spectra)) == 307

    def test_fresh_n9_sweep_walks_once_per_orbit_under_the_pure_kernel(
        self, tmp_path, pure_walks
    ):
        """The sweep walks each pair it takes a spectrum of once, and never
        asks twice for one pair."""
        out = tmp_path / "records.ndjson"
        run_sweep(SweepJob(n_max=9, out=str(out)))
        assert len(pure_walks) == len(set(pure_walks)) == 307
        data = out.read_bytes()
        assert (data.count(b"\n"), len(data), hashlib.sha256(data).hexdigest()) == (
            UNIMODAL_N9_RECORDS
        )

    def test_resume_over_a_mid_row_cut_takes_one_spectrum_per_orbit(self, tmp_path, spectra):
        fresh, lines = fresh_file(tmp_path / "fresh.ndjson", n_max=9)
        spectra.clear()
        path = tmp_path / "cut.ndjson"
        path.write_bytes(b"".join(lines[:self.MID_ROW_9]))
        summary = run_sweep(SweepJob(n_max=9, out=str(path), resume=True))
        assert summary == {**fresh, "resumed": self.MID_ROW_9}
        assert path.read_bytes() == b"".join(lines)
        assert len(spectra) == len(set(spectra)) == 307

    def test_late_edit_is_not_a_prefix_at_its_line(self, tmp_path, spectra):
        """An index digit edited in the last row of the n <= 6 file: every
        row before it is made again, with one spectrum per orbit, and the
        run stops at the edited line with the file as it was."""
        _, lines = fresh_file(tmp_path / "fresh.ndjson", n_max=6)
        spectra.clear()
        at = lines[-5].rindex(b'"index": ') + len(b'"index": ')
        edited = lines[-5][:at] + b"9" + lines[-5][at + 1:]
        data = b"".join(lines[:-5] + [edited] + lines[-4:])
        path = tmp_path / "edited.ndjson"
        path.write_bytes(data)
        line = len(lines) - 4
        with pytest.raises(ParseError, match=f"edited\\.ndjson is not a prefix .* at line {line}$"):
            run_unimodality_sweep(SweepJob(n_max=6, out=str(path), resume=True))
        assert path.read_bytes() == data
        assert spectra and len(spectra) == len(set(spectra))


def resumed_over_first_record(tmp_path, grid):
    """Write a fresh run over grid, cut its file after the first record and
    resume over the cut: the summary is the fresh run's with one record
    resumed, and the file is the fresh one again."""
    out = tmp_path / "records.ndjson"
    fresh = run_stability_sweep(SweepJob(**grid, out=str(out)))
    lines = out.read_bytes().splitlines(keepends=True)
    out.write_bytes(lines[0])
    summary = run_stability_sweep(SweepJob(**grid, out=str(out), resume=True))
    assert summary == {**fresh, "resumed": 1}
    assert out.read_bytes() == b"".join(lines)
    return summary


def failing_check(monkeypatch, conjecture, name):
    """Patch conjecture's grid so that its check name reads false at every
    point."""
    grid, names = sweep._STABILITY[conjecture]

    def patched(job, spectrum_of):
        for g, params, fixed, checks in grid(job, spectrum_of):
            yield g, params, fixed, lambda s, checks=checks: {**checks(s), name: False}

    monkeypatch.setitem(sweep._STABILITY, conjecture, (patched, names))


# The first point of each small grid below.
FIRST_POINT = {
    "stability_4_16": "2|2 / 3|1",
    "stability_4_17": "2|1 / 3",
    "stability_4_18": "2|1 / 1|2",
}


class TestStabilityRecords:
    @pytest.mark.parametrize(
        "grid, digest", STABILITY_RECORD_SHA256,
        ids=["4_16", "4_17", "4_18", "4_16_base_4|3/7"],
    )
    def test_record_file_bytes_are_pinned(self, tmp_path, each_kernel, grid, digest):
        out = tmp_path / "records.ndjson"
        run_stability_sweep(SweepJob(**grid, out=str(out)))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("conjecture", sorted(STABILITY_CHECKS))
    def test_torn_last_line_is_recomputed(self, tmp_path, conjecture):
        path = tmp_path / "records.ndjson"
        fresh_summary = run_stability_sweep(SweepJob(conjecture=conjecture, out=str(path)))
        fresh = path.read_bytes()
        path.write_bytes(fresh[:-40])
        summary = run_stability_sweep(
            SweepJob(conjecture=conjecture, out=str(path), resume=True)
        )
        assert summary == {**fresh_summary, "resumed": fresh_summary["checked"] - 1}
        assert path.read_bytes() == fresh

    def test_4_16_failed_inheritance_surfaces_on_resume(self, tmp_path, monkeypatch):
        failing_check(monkeypatch, "stability_4_16", "unimodal_inherited")
        grid = dict(conjecture="stability_4_16", k_max=1, r_max=1)
        summary = resumed_over_first_record(tmp_path, grid)
        assert summary["counterexamples"] == [
            {"spec": spec, "failed": ["unimodal_inherited"]}
            for spec in ("2|2 / 3|1", "2|2|1 / 3|2")
        ]

    def test_4_16_null_inheritance_passes(self, tmp_path, monkeypatch):
        # No base in reach has a non-unimodal spectrum, so one is faked: the
        # check is then null, and a null check does not fail a point.
        monkeypatch.setattr(sweep, "is_unimodal", lambda s: False)
        out = tmp_path / "records.ndjson"
        summary = run_stability_sweep(
            SweepJob(conjecture="stability_4_16", k_max=2, r_max=2, out=str(out))
        )
        assert summary["counterexamples"] == []
        records = read_ndjson(str(out))
        assert len(records) == 8
        assert all(r["unimodal_inherited"] is None and r["passed"] for r in records)

    def test_4_18_failed_shift_surfaces_on_resume(self, tmp_path, monkeypatch):
        failing_check(monkeypatch, "stability_4_18", "shift_matches")
        grid = dict(conjecture="stability_4_18", k_max=1, r_max=2)
        summary = resumed_over_first_record(tmp_path, grid)
        assert summary["counterexamples"] == [
            {"spec": spec, "failed": ["shift_matches"]} for spec in ("2|1 / 1|2", "2|2|1 / 1|2|2")
        ]

    @pytest.mark.parametrize("conjecture", sorted(STABILITY_CHECKS))
    def test_non_frobenius_point_fails_on_frobenius_alone(self, tmp_path, monkeypatch, conjecture):
        # No grid point is non-Frobenius, so the kernel is patched to find
        # no spectrum for the first one.
        g = parse_seaweed(FIRST_POINT[conjecture])
        potentials = spectrum_module.kernel.potentials

        def not_frobenius(top, bottom):
            if (top, bottom) == (g.top.parts, g.bottom.parts):
                return None
            return potentials(top, bottom)

        monkeypatch.setattr(spectrum_module.kernel, "potentials", not_frobenius)
        grid = dict(conjecture=conjecture, k_max=1, r_max=1 if conjecture.endswith("16") else 2)
        summary = resumed_over_first_record(tmp_path, grid)
        assert summary["counterexamples"] == [{"spec": str(g), "failed": ["frobenius"]}]


def fresh_file(path, conjecture="unimodal_2_8", n_max=7):
    """Write a fresh sweep's records to path; return the summary and the lines."""
    summary = run_sweep(SweepJob(conjecture=conjecture, n_max=n_max, out=str(path)))
    return summary, path.read_bytes().splitlines(keepends=True)


class TestRecordCodec:
    """Every piece of a line is cut from a record _pair_record makes, and a
    resume over any cut of a file gives the fresh file and summary."""

    @pytest.fixture
    def patched_pair_record(self, monkeypatch):
        """_pair_record with a field added at each end, and the line pieces
        cut afresh from it, then again from the real one."""
        real = sweep._pair_record

        def patched(*args):
            return {"schema": 2, **real(*args), "source": "patched"}

        monkeypatch.setattr(sweep, "_pair_record", patched)
        sweep._line_pieces.cache_clear()
        yield patched
        sweep._line_pieces.cache_clear()

    @pytest.mark.parametrize("conjecture", ["unimodal_2_8", "none"])
    def test_lines_follow_a_changed_pair_record(
        self, tmp_path, each_kernel, patched_pair_record, conjecture
    ):
        """The record's fields and their order are stated once: a field added
        to _pair_record reaches every line, plain and Frobenius."""
        _, lines = fresh_file(tmp_path / "f.ndjson", conjecture, n_max=5)
        expected = []
        for n in range(1, 6):
            tops = [c.parts for c in compositions_of(n)]
            for top in tops:
                for bottom in tops:
                    cycles, paths = meander.component_counts(top, bottom)
                    key = f"{Composition(top)} / {Composition(bottom)}"
                    rec = patched_pair_record(conjecture, key, top, bottom, 2 * cycles + paths - 1)
                    expected.append(json.dumps(rec) + "\n")
        assert len(lines) == len(expected) == 341
        assert [line.decode() for line in lines] == expected

    @pytest.mark.parametrize("conjecture", ["unimodal_2_8", "none"])
    @pytest.mark.parametrize("cut", ["empty", "row boundary", "mid-row", "complete"])
    def test_resume_over_a_cut_equals_a_fresh_run(self, tmp_path, capsys, conjecture, cut):
        fresh, lines = fresh_file(tmp_path / "fresh.ndjson", conjecture)
        before_7 = (4**6 - 1) // 3  # pairs of n <= 6
        keep = {
            "empty": 0,
            "row boundary": before_7 + 21 * 64,
            "mid-row": before_7 + 21 * 64 + 17,
            "complete": len(lines),
        }[cut]
        path = tmp_path / "cut.ndjson"
        path.write_bytes(b"".join(lines[:keep]))
        argv = ["sweep", "--conjecture", conjecture, "--n-max", "7", "--out", str(path)]
        code = cli.main(argv + ["--resume"])
        out = capsys.readouterr().out
        assert code == 0
        assert path.read_bytes() == b"".join(lines)
        assert out == json.dumps({**fresh, "resumed": keep}, indent=2) + "\n"


# A fabricated counterexample of 2 / 2. Its shape fields are those of its
# spectrum.
FAKE_COUNTEREXAMPLE = {
    "conjecture": "unimodal_2_8",
    "key": "2 / 2",
    "spec": "2 / 2",
    "index": 0,
    "frobenius": True,
    "unbroken": True,
    "centered_half": True,
    "unimodal": False,
    "log_concave": False,
    "symmetric_about_half": True,
    "spectrum": {"-1": 2, "0": 1, "1": 1, "2": 2},
}


# A fabricated Frobenius record of 2 / 1|1 whose spectrum is not symmetric
# about 1/2, though its flags say it is.
ASYMMETRIC_2_11 = {
    **FAKE_COUNTEREXAMPLE, "key": "2 / 1|1", "spec": "2 / 1|1", "unimodal": True,
    "log_concave": True, "spectrum": {"0": 1, "1": 2},
}


@pytest.fixture(scope="module")
def fresh_lines(tmp_path_factory):
    """The lines of the fresh record files that NOT_A_PREFIX edits, by name."""
    path = tmp_path_factory.mktemp("fresh") / "records.ndjson"
    jobs = {
        "n2": dict(n_max=2),
        "n3": dict(n_max=3),
        "n4": dict(n_max=4),
        "n5": dict(n_max=5),
        "none3": dict(conjecture="none", n_max=3),
        "4_17": dict(conjecture="stability_4_17", k_max=2, r_max=2),
    }
    lines = {}
    for name, job in jobs.items():
        path.unlink(missing_ok=True)
        run_sweep(SweepJob(**job, out=str(path)))
        lines[name] = path.read_bytes().splitlines(keepends=True)
    return lines


def record_line(rec):
    return json.dumps(rec).encode() + b"\n"


STABILITY_4_17 = ["--conjecture", "stability_4_17", "--k-max", "2", "--r-max", "2"]

# Files that are not a prefix of the records of the sweep with these
# arguments: the pieces of each, made from fresh_lines, and the line at
# which it first differs.
NOT_A_PREFIX = [
    pytest.param(["--n-max", "4"], lambda f: f["n4"] + [b" "], 86, id="extra-byte"),
    pytest.param(["--n-max", "4"], lambda f: f["n5"], 86, id="larger-run"),
    pytest.param(["--n-min", "2", "--n-max", "4"], lambda f: f["n4"], 1, id="n-min"),
    pytest.param(
        STABILITY_4_17,
        lambda f: f["4_17"][:1] + [f["4_17"][1].replace(b'"passed": true', b'"passed": false')]
        + f["4_17"][2:],
        2, id="stability-flag",
    ),
    pytest.param(STABILITY_4_17[:3] + ["1"] + STABILITY_4_17[4:], lambda f: f["4_17"], 3,
                 id="stability-larger-grid"),
    pytest.param(STABILITY_4_17, lambda f: f["4_17"][:1] + f["4_17"], 2, id="stability-duplicated"),
    pytest.param(["--n-max", "3"], lambda f: f["n3"][:10] + f["n3"][3:5] + f["n3"][10:], 11,
                 id="duplicated"),
    pytest.param(["--n-max", "3"], lambda f: f["n3"][:4] + f["n3"][5:3:-1] + f["n3"][6:], 5,
                 id="reordered"),
    pytest.param(["--n-max", "3"], lambda f: f["n3"][:10] + [b"\n"] + f["n3"][10:], 11,
                 id="blank"),
    pytest.param(["--n-max", "3"], lambda f: f["n3"][:10] + [b"42\n"] + f["n3"][10:], 11,
                 id="non-object"),
    pytest.param(["--n-max", "2"],
                 lambda f: f["n2"][:3] + [f["n2"][3].replace(b"|", b"\\u007c")] + f["n2"][4:], 4,
                 id="respelled"),
    pytest.param(["--n-max", "2"], lambda f: f["n2"][:1] + [f["n2"][1][:-1] + b"\r\n"] + f["n2"][2:],
                 2, id="crlf"),
    pytest.param(["--n-max", "3"], lambda f: f["none3"], 1, id="other-conjecture"),
    pytest.param(["--n-max", "3"], lambda f: f["n3"][:7] + f["4_17"][:1] + f["n3"][7:], 8,
                 id="mixed"),
    pytest.param(["--n-max", "3"], lambda f: f["n3"][:20] + [b'{"conjecture": "none"'], 21,
                 id="torn-and-different"),
    pytest.param(["--n-max", "2"],
                 lambda f: f["n2"][:1] + [record_line(FAKE_COUNTEREXAMPLE)] + f["n2"][2:], 2,
                 id="hand-written-counterexample"),
    pytest.param(["--n-max", "2"],
                 lambda f: f["n2"][:2] + [record_line(ASYMMETRIC_2_11)] + f["n2"][3:], 3,
                 id="flags-not-spectrum"),
]


class TestResumeSemantics:
    """Every record, resumed or new, is made by the run and consumed as it
    is made, in pair order. A file that is not a prefix of the job's records
    stops the run at its first differing line, before anything is
    appended."""

    def test_records_are_consumed_in_pair_order(self, tmp_path, monkeypatch):
        _, lines = fresh_file(tmp_path / "fresh.ndjson", n_max=4)
        path = tmp_path / "r.ndjson"
        path.write_bytes(b"".join(lines[:30]))  # n <= 3, a row and a line of n = 4
        checked = []
        monkeypatch.setattr(
            sweep, "check_proven_claims", lambda spec, spectrum, fields: checked.append(spec)
        )
        assert run_unimodality_sweep(SweepJob(n_max=4, out=str(path), resume=True))["resumed"] == 30
        # 1 / 1 has an empty spectrum, so no claim to check.
        assert checked == [str(g) for n in range(2, 5) for g in enumerate_frobenius(n)]

    @pytest.mark.parametrize("predicate, result, message", [
        ("is_unbroken_centered_half", (False, False), "spectrum support has gaps"),
        ("is_symmetric_about_half", False, "spectrum is not symmetric about 1/2"),
    ], ids=["gaps", "asymmetric"])
    def test_resumed_record_that_breaks_a_claim_stops_before_appending(
        self, tmp_path, monkeypatch, predicate, result, message
    ):
        """A predicate patched to break a proven claim: the fresh run writes
        the row of 2 / 1|1 and stops there, and a resume over its file
        stops at the same record with nothing appended."""
        monkeypatch.setattr(analysis, predicate, lambda s: result)
        path = tmp_path / "r.ndjson"
        with pytest.raises(EngineInvariantError, match=f"^2 / 1\\|1: {message}"):
            run_unimodality_sweep(SweepJob(n_max=2, out=str(path)))
        data = path.read_bytes()
        assert data.count(b"\n") == 3
        with pytest.raises(EngineInvariantError, match=f"^2 / 1\\|1: {message}"):
            run_unimodality_sweep(SweepJob(n_max=2, out=str(path), resume=True))
        assert path.read_bytes() == data

    @pytest.mark.parametrize("argv, build, line", NOT_A_PREFIX)
    def test_file_that_is_not_a_prefix_exits_64(
        self, tmp_path, capsys, fresh_lines, unparsed, argv, build, line
    ):
        path = tmp_path / "r.ndjson"
        data = b"".join(build(fresh_lines))
        path.write_bytes(data)
        code = cli.main(["sweep", *argv, "--out", str(path), "--resume"])
        assert (code, *capsys.readouterr()) == (
            64, "", f"error: record file {path} is not a prefix of this job's records at line {line}\n"
        )
        assert path.read_bytes() == data
