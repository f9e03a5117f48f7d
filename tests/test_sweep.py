import hashlib
import json
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


class TestEnumerateFrobenius:
    def test_n2_golden(self):
        assert {str(g) for g in enumerate_frobenius(2)} == {"1|1 / 2", "2 / 1|1"}

    def test_counts_through_n12(self):
        assert [sum(1 for _ in enumerate_frobenius(n)) for n in range(1, 13)] == [
            1, 2, 6, 14, 34, 68, 150, 296, 586, 1140, 2182, 4130,
        ]

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
            SweepJob(k_max=0)


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

    def test_fabricated_counterexample_surfaces_on_resume(self, tmp_path):
        out = tmp_path / "records.ndjson"
        fake = {
            "conjecture": "unimodal_2_8",
            "key": "1 / 1",
            "spec": "1 / 1",
            "index": 0,
            "frobenius": True,
            "unbroken": True,
            "centered_half": True,
            "unimodal": False,
            "log_concave": False,
            "symmetric_about_half": True,
            "spectrum": {"-1": 2, "0": 1, "1": 1, "2": 2},
            "elapsed": 0.0,
        }
        out.write_text(json.dumps(fake) + "\n")
        summary = run_unimodality_sweep(
            SweepJob(n_max=1, out=str(out), resume=True)
        )
        assert summary["resumed"] == 1
        assert summary["counterexamples"] == [
            {"spec": "1 / 1", "spectrum": {"-1": 2, "0": 1, "1": 1, "2": 2}}
        ]

    def test_fabricated_engine_failure_raises(self, tmp_path):
        out = tmp_path / "records.ndjson"
        fake = {
            "conjecture": "unimodal_2_8",
            "key": "1 / 1",
            "spec": "1 / 1",
            "index": 0,
            "frobenius": True,
            "unbroken": False,
            "centered_half": False,
            "unimodal": True,
            "log_concave": True,
            "symmetric_about_half": True,
            "spectrum": {"-1": 1, "2": 1},
            "elapsed": 0.0,
        }
        out.write_text(json.dumps(fake) + "\n")
        with pytest.raises(EngineInvariantError, match="support has gaps"):
            run_unimodality_sweep(SweepJob(n_max=1, out=str(out), resume=True))

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
        with pytest.raises(ParseError, match=r"corrupt sweep record at .*damaged\.ndjson:101$"):
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
        self.check_all_closed(opened, 2)

        path.write_bytes(fresh[:-9])
        assert run_unimodality_sweep(resume)["resumed"] == 84
        self.check_all_closed(opened, 2)
        assert path.read_bytes() == fresh

        lines = fresh.splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:10]) + b"garbage\n" + b"".join(lines[11:]))
        with pytest.raises(ParseError, match=r"records\.ndjson:11$"):
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

    def test_fabricated_failure_surfaces_on_resume(self, tmp_path):
        out = tmp_path / "records.ndjson"
        fake = {
            "conjecture": "stability_4_17",
            "key": "2|1 / 3",
            "spec": "2|1 / 3",
            "k": 1,
            "r": 1,
            "frobenius": True,
            "expected_support": [-1, 0, 1, 2],
            "support_matches": False,
            "unimodal": True,
            "spectrum": {"-1": 1, "0": 1, "1": 1},
            "passed": False,
            "elapsed": 0.0,
        }
        out.write_text(json.dumps(fake) + "\n")
        summary = run_stability_sweep(
            SweepJob(conjecture="stability_4_17", k_max=1, r_max=2, out=str(out), resume=True)
        )
        assert summary["checked"] == 2
        assert summary["resumed"] == 1
        assert summary["counterexamples"] == [
            {"spec": "2|1 / 3", "failed": ["support_matches"]}
        ]
        assert len(read_ndjson(str(out))) == 2

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
                int(sweep.kernel.potentials(top, bottom) is not None) for top, bottom in pairs
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
    """Each row is one join of the fixed-shape pieces of its pairs, with each
    Frobenius pair's pieces replaced by its line, formatted from the same
    pieces. A resumed partial row takes the same path."""

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
        self, tmp_path, monkeypatch, each_kernel
    ):
        """The test above, under each kernel and with the loader out of
        reach: every cut of a fresh file is a prefix of it."""
        monkeypatch.setattr(sweep, "_load_completed", fallen_back)
        self.test_resume_after_every_line_gives_the_fresh_file(tmp_path)


def fallen_back(*args, **kwargs):
    raise AssertionError("resume fell back to _load_completed")


class TestReplay:
    """A record file this code wrote is a prefix of the records its job
    writes, and resume checks it as one, row by row, without the loader.
    Any other file falls back to the loader and gives what the loader alone
    gives."""

    # Pairs of n <= 5, then 2 rows and 7 pairs of n = 6: Frobenius pairs of
    # that row lie on both sides of the cut.
    MID_ROW = (4**5 - 1) // 3 + 2 * 32 + 7

    @pytest.mark.parametrize("cut", ["empty", "mid-row", "torn", "torn newline", "complete"])
    def test_file_the_writer_made_is_replayed(self, tmp_path, monkeypatch, each_kernel, cut):
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
        monkeypatch.setattr(sweep, "_load_completed", fallen_back)
        summary = run_unimodality_sweep(SweepJob(n_max=6, out=str(path), resume=True))
        assert summary == {**fresh, "resumed": keep}
        assert path.read_bytes() == b"".join(lines)

    def test_smaller_run_file_is_replayed(self, tmp_path, monkeypatch, each_kernel):
        fresh, lines = fresh_file(tmp_path / "fresh.ndjson", n_max=5)
        path = tmp_path / "small.ndjson"
        fresh_file(path, n_max=4)
        monkeypatch.setattr(sweep, "_load_completed", fallen_back)
        summary = run_unimodality_sweep(SweepJob(n_max=5, out=str(path), resume=True))
        assert summary == {**fresh, "resumed": 85}
        assert path.read_bytes() == b"".join(lines)

    def test_one_byte_edit_falls_back_with_the_loader_result(self, tmp_path, monkeypatch):
        """Each line of the n <= 4 file edited in one byte: the first digit
        of a plain line's index, the last byte inside a Frobenius line's
        spectrum, or the newline turned into a space. Resuming over it gives
        what the loader alone gives: summary, or error type and message, and
        file bytes."""
        _, lines = fresh_file(tmp_path / "fresh.ndjson", n_max=4)
        assert len(lines) == 85
        path = tmp_path / "edited.ndjson"
        job = SweepJob(n_max=4, out=str(path), resume=True)
        replay, load = sweep._replay, sweep._load_completed
        loads = []

        def counted_load(*args):
            loads.append(args)
            return load(*args)

        monkeypatch.setattr(sweep, "_load_completed", counted_load)

        def outcome(data, stub):
            path.write_bytes(data)
            monkeypatch.setattr(sweep, "_replay", (lambda *args: None) if stub else replay)
            try:
                result = run_unimodality_sweep(job)
            except Exception as exc:
                result = (type(exc), str(exc))
            return result, path.read_bytes()

        swap = {ord("9"): ord("0"), ord("{"): ord("[")}
        for k, line in enumerate(lines):
            if b'"frobenius": true' in line:
                at = line.rindex(b"}}") - 1  # the last count, or "{" of an empty spectrum
            else:
                at = line.rindex(b'"index": ') + len(b'"index": ')
            assert line[at:at + 1].isdigit() or line[at:at + 1] == b"{"
            edits = {at: swap.get(line[at], line[at] + 1), len(line) - 1: ord(" ")}
            for at, byte in edits.items():
                edited = bytearray(line)
                edited[at] = byte
                data = b"".join(lines[:k]) + bytes(edited) + b"".join(lines[k + 1:])
                loads.clear()
                assert outcome(data, stub=False) == outcome(data, stub=True), (k, at)
                assert len(loads) == 2, (k, at)

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
        spectrum_counts = sweep.kernel.spectrum_counts
        frobenius = 0
        for n in range(1, 10):
            for g in enumerate_frobenius(n):
                t, b = g.top.parts, g.bottom.parts
                counts = spectrum_counts(t, b)
                members = [(b, t), (t[::-1], b[::-1]), (b[::-1], t[::-1])]
                assert all(spectrum_counts(*pair) == counts for pair in members), g
                frobenius += 1
        assert frobenius == 1157

    @pytest.fixture
    def spectra(self, monkeypatch):
        """The pairs whose spectrum the kernel is asked for, in order."""
        asked = []
        spectrum_counts = sweep.kernel.spectrum_counts

        def counting(top, bottom):
            asked.append((top, bottom))
            return spectrum_counts(top, bottom)

        monkeypatch.setattr(sweep.kernel, "spectrum_counts", counting)
        return asked

    def test_fresh_n9_sweep_takes_one_spectrum_per_orbit(self, spectra):
        summary = run_sweep(SweepJob(n_max=9))
        assert summary["frobenius"] == 1157
        assert len(spectra) == len(set(spectra)) == 307

    def test_resume_over_a_mid_row_cut_takes_one_spectrum_per_orbit(self, tmp_path, spectra):
        fresh, lines = fresh_file(tmp_path / "fresh.ndjson", n_max=9)
        spectra.clear()
        path = tmp_path / "cut.ndjson"
        path.write_bytes(b"".join(lines[:self.MID_ROW_9]))
        summary = run_sweep(SweepJob(n_max=9, out=str(path), resume=True))
        assert summary == {**fresh, "resumed": self.MID_ROW_9}
        assert path.read_bytes() == b"".join(lines)
        assert len(spectra) == len(set(spectra)) == 307

    def test_late_edit_loads_from_the_row_it_is_in(self, tmp_path, monkeypatch):
        """An index digit edited in the last row of the n <= 6 file: the
        loader reads on from the end of the rows before it, with their
        lines counted, and the resume gives what the loader alone gives."""
        fresh, lines = fresh_file(tmp_path / "fresh.ndjson", n_max=6)
        before = len(lines) - 32  # the lines before the last row
        at = lines[-5].rindex(b'"index": ') + len(b'"index": ')
        edited = lines[-5][:at] + b"9" + lines[-5][at + 1:]
        data = b"".join(lines[:-5] + [edited] + lines[-4:])
        path = tmp_path / "edited.ndjson"
        load = sweep._load_completed
        starts = []

        def recording(job, done, slot, acts, fh=None, *rest):
            starts.append((fh.tell(), *rest[1:]))
            return load(job, done, slot, acts, fh, *rest)

        monkeypatch.setattr(sweep, "_load_completed", recording)
        path.write_bytes(data)
        summary = run_unimodality_sweep(SweepJob(n_max=6, out=str(path), resume=True))
        assert starts == [(len(b"".join(lines[:before])), before)]
        assert summary == {**fresh, "resumed": len(lines)}
        assert path.read_bytes() == data

    def test_resumed_record_whose_flags_are_not_its_spectrum_is_corrupt(self, tmp_path, capsys):
        path = tmp_path / "r.ndjson"
        _, lines = fresh_file(path, n_max=2)
        assert json.loads(lines[2])["key"] == "2 / 1|1"
        lines[2] = json.dumps(
            {**ASYMMETRIC_2_11, "symmetric_about_half": True}
        ).encode() + b"\n"
        damaged = b"".join(lines)
        path.write_bytes(damaged)
        code = cli.main(["sweep", "--n-max", "2", "--out", str(path), "--resume"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (64, "")
        assert f"corrupt sweep record at {path}:3" in captured.err
        assert path.read_bytes() == damaged

    @pytest.mark.parametrize("spectrum", [None, [0, 1], {"0": "1", "1": 1}, {"x": 1}])
    def test_resumed_record_whose_spectrum_is_no_multiset_is_corrupt(self, tmp_path, spectrum):
        path = tmp_path / "r.ndjson"
        _, lines = fresh_file(path, n_max=2)
        lines[2] = json.dumps({**json.loads(lines[2]), "spectrum": spectrum}).encode() + b"\n"
        path.write_bytes(b"".join(lines))
        with pytest.raises(ParseError, match=r"r\.ndjson:3$"):
            run_unimodality_sweep(SweepJob(n_max=2, out=str(path), resume=True))


def fabricated_resume(tmp_path, grid, **changes):
    """Write only the first record of a fresh run over grid, with changes and
    passed set to false, then resume over it; return the summary."""
    out = tmp_path / "records.ndjson"
    run_stability_sweep(SweepJob(**grid, out=str(out)))
    first = json.loads(out.read_bytes().splitlines()[0])
    out.write_text(json.dumps({**first, **changes, "passed": False}) + "\n")
    summary = run_stability_sweep(SweepJob(**grid, out=str(out), resume=True))
    assert summary["checked"] == 2
    assert summary["resumed"] == 1
    assert len(read_ndjson(str(out))) == 2
    return first["spec"], summary


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

    def test_4_16_failed_inheritance_surfaces_on_resume(self, tmp_path):
        grid = dict(conjecture="stability_4_16", k_max=1, r_max=1)
        spec, summary = fabricated_resume(tmp_path, grid, unimodal_inherited=False)
        assert summary["counterexamples"] == [{"spec": spec, "failed": ["unimodal_inherited"]}]

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

    def test_4_18_failed_shift_surfaces_on_resume(self, tmp_path):
        grid = dict(conjecture="stability_4_18", k_max=1, r_max=2)
        spec, summary = fabricated_resume(tmp_path, grid, shift_matches=False)
        assert summary["counterexamples"] == [{"spec": spec, "failed": ["shift_matches"]}]

    @pytest.mark.parametrize("conjecture", sorted(STABILITY_CHECKS))
    def test_non_frobenius_point_fails_on_frobenius_alone(self, tmp_path, conjecture):
        # No grid point is non-Frobenius, so only a fabricated record
        # reaches this branch.
        grid = dict(conjecture=conjecture, k_max=1, r_max=1 if conjecture.endswith("16") else 2)
        nulls = dict.fromkeys(STABILITY_CHECKS[conjecture])
        spec, summary = fabricated_resume(
            tmp_path, grid, frobenius=False, spectrum=None, **nulls
        )
        assert summary["counterexamples"] == [{"spec": spec, "failed": ["frobenius"]}]


def fresh_file(path, conjecture="unimodal_2_8", n_max=7):
    """Write a fresh sweep's records to path; return the summary and the lines."""
    summary = run_sweep(SweepJob(conjecture=conjecture, n_max=n_max, out=str(path)))
    return summary, path.read_bytes().splitlines(keepends=True)


def walked(job):
    """The keys job walks, in slot order, the loader's slot of a key, and
    whether the job's consume acts on a record."""
    if job.conjecture in sweep._PAIR_CONJECTURES:
        _, slot = sweep._pair_slots(job)
        keys = [
            f"{a} / {b}"
            for n in range(job.n_min, job.n_max + 1)
            for a in sweep._compositions(n)[1]
            for b in sweep._compositions(n)[1]
        ]
        return keys, slot, sweep._pair_record_acts
    grid, _ = sweep._STABILITY[job.conjecture]
    keys = [str(g) for g, *_ in grid(job, None)]
    where = {key.encode(): k for k, key in enumerate(keys)}
    return keys, lambda top, bottom: where.get(top + b" / " + bottom), lambda rec: not rec["passed"]


def json_path(path, job):
    """What resuming job over path means, by json.loads on every line: the
    keys done that job walks and the keys whose record is kept (last line
    wins)."""
    keys, _, acts = walked(job)
    done, kept = set(), set()
    with open(path, "rb") as fh:
        for line in fh:
            if not line.strip():
                continue
            rec = json.loads(line)
            if rec.get("conjecture") != job.conjecture:
                continue
            done.add(rec["key"])
            if acts(rec):
                kept.add(rec["key"])
            else:
                kept.discard(rec["key"])
    return done & set(keys), kept & set(keys)


def loaded(job):
    """The same two key sets, from the loader's flags and kept slots."""
    keys, slot, acts = walked(job)
    done = bytearray(len(keys))
    kept = sweep._load_completed(job, done, slot, acts)
    return {keys[k] for k, flag in enumerate(done) if flag}, {keys[k] for k in kept}


@pytest.fixture
def parsed(monkeypatch):
    """The lines that reach json.loads through the loader, in order."""
    lines = []
    parse = sweep._parse_record

    def recording(line, path, lineno):
        lines.append(line)
        return parse(line, path, lineno)

    monkeypatch.setattr(sweep, "_parse_record", recording)
    return lines


def plain_line(key, spec=None, index=b"1", conjecture="unimodal_2_8"):
    """A line in the writer's fixed shape, with any of its parts replaced."""
    head = sweep._plain_head(conjecture).encode()
    spec = key if spec is None else spec
    return (
        head + key + sweep._SPEC_SEP.encode() + spec + sweep._INDEX_SEP.encode() + index
        + sweep._PLAIN_TAIL.encode()
    )


class TestRecordCodec:
    """The fixed-shape line is written and recognised by one codec; a line
    that misses it in any part is decoded by json.loads instead, with the
    same result that json.loads gives."""

    def test_writer_emits_the_codec_line(self, tmp_path):
        _, lines = fresh_file(tmp_path / "f.ndjson", n_max=2)
        assert lines[1] == plain_line(b"2 / 2")

    @pytest.mark.parametrize(
        "conjecture, total, fixed_shape, acted_on",
        [
            pytest.param("unimodal_2_8", 5461, 5461 - 275, 275, id="unimodal_2_8"),
            pytest.param("none", 5461, 5461 - 275, 275, id="none"),
            pytest.param("stability_4_17", 48, 0, 0, id="stability_4_17"),
        ],
    )
    def test_fast_path_agrees_with_json_on_every_fresh_line(
        self, tmp_path, conjecture, total, fixed_shape, acted_on
    ):
        summary, lines = fresh_file(tmp_path / "f.ndjson", conjecture)
        job = SweepJob(conjecture=conjecture, n_max=7, out=str(tmp_path / "f.ndjson"), resume=True)
        _, _, acts = walked(job)
        match = sweep._line_pattern(conjecture).fullmatch
        fast = 0
        for line in lines:
            top, bottom, other = match(line).groups()
            rec = json.loads(line)
            if other is None:
                fast += 1
                assert (top + b" / " + bottom).decode() == rec["key"] == rec["spec"]
                assert not acts(rec)
            else:
                assert other == line
                assert rec["frobenius"] and acts(rec) == bool(acted_on)
        assert fast == fixed_shape == len(lines) - summary.get("frobenius", len(lines))
        done, kept = loaded(job)
        assert (done, kept) == json_path(job.out, job)
        assert len(done) == len(lines) == total and len(kept) == acted_on

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

    @pytest.mark.parametrize("block", [64, 4096])
    def test_block_boundaries_change_nothing(self, tmp_path, monkeypatch, block):
        """The file is read back in blocks, each completed to a line end;
        64 bytes is less than one line."""
        monkeypatch.setattr(sweep, "_BLOCK", block)
        fresh, lines = fresh_file(tmp_path / "fresh.ndjson", n_max=5)
        path = tmp_path / "cut.ndjson"
        path.write_bytes(b"".join(lines[:300]) + lines[300][:40])
        summary = run_unimodality_sweep(SweepJob(n_max=5, out=str(path), resume=True))
        assert summary == {**fresh, "resumed": 300}
        assert path.read_bytes() == b"".join(lines)
        damaged = b"".join(lines[:290]) + b"garbage\n" + b"".join(lines[291:])
        path.write_bytes(damaged)
        with pytest.raises(ParseError, match=r"cut\.ndjson:291$"):
            run_unimodality_sweep(SweepJob(n_max=5, out=str(path), resume=True))
        assert path.read_bytes() == damaged

    @pytest.mark.parametrize(
        "line",
        [
            pytest.param(plain_line(b"1|1 / 2", spec=b"2 / 1|1"), id="key-not-spec"),
            pytest.param(plain_line(b"1|1 / 2", index=b"-3"), id="non-digit-index"),
            pytest.param(plain_line(b"1|1 / 2")[:-2] + b" }\n", id="tail-one-byte-off"),
            pytest.param(plain_line(b"1|1 / 2")[:-2] + b"}\r\n", id="crlf"),
            pytest.param(plain_line(b"1\\u007c1 / 2"), id="escaped-key"),
            pytest.param(plain_line(b"1|1 / 2", index=b"0"), id="zero-index"),
        ],
    )
    def test_near_miss_takes_the_json_path(self, tmp_path, parsed, line):
        path = tmp_path / "r.ndjson"
        path.write_bytes(plain_line(b"2 / 2") + line + plain_line(b"1 / 1"))
        job = SweepJob(n_max=2, out=str(path), resume=True)
        assert loaded(job) == json_path(path, job)
        assert parsed == [line]
        assert loaded(job)[0] == {"1 / 1", "1|1 / 2", "2 / 2"}
        summary = run_unimodality_sweep(job)
        assert summary["resumed"] == 3

    @pytest.mark.parametrize("key", [b"1|1 / 1", b"2 / 2|1", b"3 / 3", b"01 / 1", b"1 / 1 / 1"])
    def test_fixed_shape_line_of_no_pair_is_ignored(self, tmp_path, key):
        """Of n out of range, of two n, or not in canonical spelling: json.loads
        would give a key of no pair, so the line counts for nothing."""
        path = tmp_path / "r.ndjson"
        path.write_bytes(plain_line(b"2 / 2") + plain_line(key))
        job = SweepJob(n_max=2, out=str(path), resume=True)
        assert loaded(job) == json_path(path, job) == ({"2 / 2"}, set())
        assert run_unimodality_sweep(job)["resumed"] == 1

    @pytest.mark.parametrize(
        "written, resumed", [("none", "unimodal_2_8"), ("unimodal_2_8", "none")]
    )
    def test_foreign_conjecture_takes_the_json_path(self, tmp_path, parsed, written, resumed):
        path = tmp_path / "r.ndjson"
        _, lines = fresh_file(path, written, n_max=3)
        job = SweepJob(conjecture=resumed, n_max=3, out=str(path), resume=True)
        assert loaded(job) == json_path(path, job) == (set(), set())
        assert parsed == lines
        assert run_sweep(job)["resumed"] == 0
        assert path.read_bytes().count(b"\n") == 42

    def test_leading_zero_index_stays_fatal(self, tmp_path, capsys, parsed):
        path = tmp_path / "r.ndjson"
        bad = plain_line(b"1|1 / 2", index=b"07")
        damaged = plain_line(b"1 / 1") + bad + plain_line(b"2 / 2")[:9]
        path.write_bytes(damaged)
        with pytest.raises(json.JSONDecodeError):
            json.loads(bad)
        code = cli.main(["sweep", "--n-max", "2", "--out", str(path), "--resume"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (64, "")
        assert f"corrupt sweep record at {path}:2" in captured.err
        assert parsed == [bad]
        assert path.read_bytes() == damaged


# A fabricated counterexample. Its shape fields are those of its spectrum, as
# in every record that resume does not reject as corrupt.
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


# A fabricated Frobenius record of 2 / 1|1 whose support has gaps, which a
# proven claim rules out.
GAPS_2_11 = {
    **FAKE_COUNTEREXAMPLE, "key": "2 / 1|1", "spec": "2 / 1|1", "unbroken": False,
    "centered_half": False, "spectrum": {"-2": 2, "-1": 1, "2": 1, "3": 2},
}


# A fabricated Frobenius record of 2 / 1|1 whose spectrum is not symmetric
# about 1/2, which a proven claim rules out; it breaks no other claim.
ASYMMETRIC_2_11 = {
    **FAKE_COUNTEREXAMPLE, "key": "2 / 1|1", "spec": "2 / 1|1", "unimodal": True,
    "log_concave": True, "symmetric_about_half": False, "spectrum": {"0": 1, "1": 2},
}


class TestResumeSemantics:
    def test_last_line_of_a_key_wins(self, tmp_path):
        fake = json.dumps(FAKE_COUNTEREXAMPLE).encode() + b"\n"
        plain = plain_line(b"2 / 2")
        path = tmp_path / "r.ndjson"
        crlf = plain[:-1] + b"\r\n"
        for lines, found in ((fake + plain, []), (fake + crlf, []), (plain + fake, ["2 / 2"])):
            path.write_bytes(lines)
            summary = run_unimodality_sweep(SweepJob(n_max=2, out=str(path), resume=True))
            assert summary["resumed"] == 1
            assert [c["spec"] for c in summary["counterexamples"]] == found
            assert summary["frobenius"] == 3 + len(found)

    def test_kept_records_are_consumed_in_pair_order(self, tmp_path):
        gaps = GAPS_2_11
        off_center = {
            **FAKE_COUNTEREXAMPLE, "centered_half": False, "symmetric_about_half": False,
            "spectrum": {"0": 1, "1": 2, "2": 1, "3": 2},
        }
        path = tmp_path / "r.ndjson"
        path.write_text(
            json.dumps({**gaps, "key": "1|1 / 2", "spec": "1|1 / 2"}) + "\n"
            + json.dumps({**off_center, "key": "2 / 1|1", "spec": "2 / 1|1"}) + "\n"
        )
        # _compositions(2) lists 2 before 1|1, so 2 / 1|1 comes first.
        with pytest.raises(EngineInvariantError, match="^2 / 1\\|1: spectrum endpoints"):
            run_unimodality_sweep(SweepJob(n_max=2, out=str(path), resume=True))

    def test_resumed_record_is_checked_before_any_new_row(self, tmp_path):
        path = tmp_path / "r.ndjson"
        path.write_text(json.dumps(GAPS_2_11) + "\n")
        before = path.read_bytes()
        with pytest.raises(EngineInvariantError, match="^2 / 1\\|1: spectrum support has gaps"):
            run_unimodality_sweep(SweepJob(n_max=2, out=str(path), resume=True))
        assert path.read_bytes() == before

    def test_resumed_record_that_breaks_a_claim_exits_before_appending(self, tmp_path, capsys):
        path = tmp_path / "r.ndjson"
        path.write_text(json.dumps(GAPS_2_11) + "\n")
        before = path.read_bytes()
        code = cli.main(["sweep", "--n-max", "2", "--out", str(path), "--resume"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.count("error:") == 1
        assert captured.err.startswith("error: 2 / 1|1: spectrum support has gaps")
        assert path.read_bytes() == before

    def test_resumed_asymmetric_record_exits_before_appending(self, tmp_path, capsys):
        path = tmp_path / "r.ndjson"
        path.write_text(json.dumps(ASYMMETRIC_2_11) + "\n")
        before = path.read_bytes()
        code = cli.main(["sweep", "--n-max", "2", "--out", str(path), "--resume"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err.count("error:") == 1
        assert captured.err.startswith("error: 2 / 1|1: spectrum is not symmetric about 1/2")
        assert path.read_bytes() == before

    @pytest.mark.parametrize("failing_last, found", [(False, []), (True, ["2|1 / 3"])])
    def test_last_stability_line_of_a_key_wins(self, tmp_path, failing_last, found):
        path = tmp_path / "r.ndjson"
        job = dict(conjecture="stability_4_17", k_max=1, r_max=2)
        fresh = run_stability_sweep(SweepJob(**job, out=str(path)))
        passing = path.read_bytes().splitlines(keepends=True)[0]
        rec = json.loads(passing)
        assert rec["key"] == "2|1 / 3"
        failing = json.dumps({**rec, "support_matches": False, "passed": False}).encode() + b"\n"
        path.write_bytes(passing + failing if failing_last else failing + passing)
        summary = run_stability_sweep(SweepJob(**job, out=str(path), resume=True))
        assert summary["resumed"] == 1
        assert [c["spec"] for c in summary["counterexamples"]] == found
        assert summary["checked"] == fresh["checked"] == 2

    def test_stability_key_of_no_grid_point_is_ignored(self, tmp_path):
        path = tmp_path / "r.ndjson"
        job = dict(conjecture="stability_4_17", k_max=1, r_max=2)
        fresh = run_stability_sweep(SweepJob(**job, out=str(path)))
        first = path.read_bytes().splitlines(keepends=True)[0]
        # 4|1 / 5 is the point k = 2, r = 1: a point of 4_17, not of this grid.
        outside = {**json.loads(first), "key": "4|1 / 5", "spec": "4|1 / 5", "k": 2}
        path.write_bytes(first + json.dumps({**outside, "passed": False}).encode() + b"\n")
        summary = run_stability_sweep(SweepJob(**job, out=str(path), resume=True))
        assert summary == {**fresh, "resumed": 1}

    def test_duplicated_key_counts_once(self, tmp_path):
        path = tmp_path / "r.ndjson"
        fresh, lines = fresh_file(path, n_max=3)
        frobenius = next(line for line in lines if b'"frobenius": true' in line)
        path.write_bytes(b"".join(lines[:10] + lines[3:5] + [frobenius] + lines[10:]))
        summary = run_unimodality_sweep(SweepJob(n_max=3, out=str(path), resume=True))
        assert summary == {**fresh, "resumed": 21}

    def test_non_object_line_is_fatal_and_leaves_the_file(self, tmp_path, capsys):
        path = tmp_path / "r.ndjson"
        _, lines = fresh_file(path, n_max=4)
        damaged = b"".join(lines[:10] + [b"42\n"] + lines[10:])
        path.write_bytes(damaged)
        json.loads(b"42")  # valid JSON, but not a record
        code = cli.main(["sweep", "--n-max", "4", "--out", str(path), "--resume"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (64, "")
        assert f"corrupt sweep record at {path}:11" in captured.err
        assert path.read_bytes() == damaged

    def test_blank_lines_between_records_are_skipped(self, tmp_path):
        path = tmp_path / "r.ndjson"
        fresh, lines = fresh_file(path, n_max=4)
        gaps = (b"\n", b"   \n", b"\t \n")
        spaced = b"".join(gaps[i % 3] + line for i, line in enumerate(lines[:20]))
        path.write_bytes(spaced)
        summary = run_unimodality_sweep(SweepJob(n_max=4, out=str(path), resume=True))
        assert summary == {**fresh, "resumed": 20}
        assert path.read_bytes() == spaced + b"".join(lines[20:])

    def test_keys_outside_the_n_range_are_ignored(self, tmp_path):
        path = tmp_path / "r.ndjson"
        _, lines = fresh_file(path, n_max=4)
        job = SweepJob(n_min=2, n_max=3, out=str(path), resume=True)
        fresh = run_unimodality_sweep(SweepJob(n_min=2, n_max=3))
        assert run_unimodality_sweep(job) == {**fresh, "resumed": 20}
        assert path.read_bytes() == b"".join(lines)
        done, kept = loaded(job)
        assert len(done) == 20
        assert {sum(map(int, key.split(" / ")[0].split("|"))) for key in kept} == {2, 3}

    def test_mixed_file_resumes_under_each_conjecture(self, tmp_path):
        uni, stab = tmp_path / "uni.ndjson", tmp_path / "stab.ndjson"
        fresh_uni, uni_lines = fresh_file(uni, n_max=3)
        stab_job = dict(conjecture="stability_4_17", k_max=2, r_max=2)
        fresh_stab = run_sweep(SweepJob(**stab_job, out=str(stab)))
        stab_lines = stab.read_bytes().splitlines(keepends=True)
        path = tmp_path / "mixed.ndjson"
        mixed = b"".join(uni_lines[:7] + stab_lines[:1] + uni_lines[7:12] + stab_lines[1:3])
        path.write_bytes(mixed)
        summary = run_sweep(SweepJob(n_max=3, out=str(path), resume=True))
        assert summary == {**fresh_uni, "resumed": 12}
        summary = run_sweep(SweepJob(**stab_job, out=str(path), resume=True))
        assert summary == {**fresh_stab, "resumed": 3}
        records = read_ndjson(str(path))
        for conjecture, want in (("unimodal_2_8", uni_lines), ("stability_4_17", stab_lines)):
            got = [json.dumps(r) + "\n" for r in records if r["conjecture"] == conjecture]
            assert sorted(got) == sorted(line.decode() for line in want)
        assert path.read_bytes().startswith(mixed)
