import json

import pytest

from seaweedspec import (
    Composition,
    ParseError,
    SweepJob,
    compositions_of,
    default_extension_base,
    enumerate_frobenius,
    extension_variant_spec,
    parse_seaweed,
    read_records,
    run_stability_sweep,
    run_sweep,
    run_unimodality_sweep,
)
from seaweedspec import sweep
from seaweedspec._engine import kernel
from seaweedspec.sweep import _pair_record
from seaweedspec.analysis import EngineInvariantError
from seaweedspec.spectrum import SpectrumUndefinedError


class TestEnumerateFrobenius:
    def test_n2_golden(self):
        assert {str(g) for g in enumerate_frobenius(2)} == {"1|1 / 2", "2 / 1|1"}

    def test_counts_through_n6(self):
        assert [sum(1 for _ in enumerate_frobenius(n)) for n in range(1, 7)] == [
            1, 2, 6, 14, 34, 68,
        ]


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
        with pytest.raises(ValueError, match="workers"):
            SweepJob(workers=0)
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
        records = read_records(str(out))
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
        assert len(read_records(str(out))) == 341

    def test_partial_resume_extends_the_file(self, tmp_path):
        out = tmp_path / "records.ndjson"
        run_unimodality_sweep(SweepJob(n_max=4, out=str(out)))
        assert len(read_records(str(out))) == 85
        summary = run_unimodality_sweep(SweepJob(n_max=5, out=str(out), resume=True))
        assert summary["resumed"] == 85
        assert summary["pairs"] == 341
        records = read_records(str(out))
        assert len(records) == 341
        assert len({r["key"] for r in records}) == 341

    def test_workers_do_not_change_the_records(self, tmp_path):
        paths = [tmp_path / name for name in ("serial.ndjson", "pooled.ndjson", "again.ndjson")]
        for path, workers in zip(paths, (1, 2, 1)):
            run_unimodality_sweep(SweepJob(n_max=5, out=str(path), workers=workers))
        serial, pooled, again = (path.read_bytes() for path in paths)
        assert serial.count(b"\n") == 341
        assert pooled == serial
        assert again == serial

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
                    cycles, paths = kernel.component_counts(top, bottom)
                    key = f"{Composition(top)} / {Composition(bottom)}"
                    rec = _pair_record(conjecture, key, top, bottom, 2 * cycles + paths - 1)
                    expected.append(json.dumps(rec) + "\n")
        assert len(lines) == len(expected) == 1365
        assert sum('"frobenius": false' in line for line in expected) == 1365 - 125
        assert lines == expected

    def test_row_is_on_disk_before_its_failure_raises(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sweep, "is_unbroken_centered_half", lambda s: (False, False))
        out = tmp_path / "records.ndjson"
        with pytest.raises(EngineInvariantError, match="2 / 1\\|1: spectrum support has gaps"):
            run_unimodality_sweep(SweepJob(n_max=2, out=str(out)))
        keys = [r["key"] for r in read_records(str(out))]
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
            "spectrum": {"0": 1, "1": 2, "2": 1, "3": 2},
            "elapsed": 0.0,
        }
        out.write_text(json.dumps(fake) + "\n")
        summary = run_unimodality_sweep(
            SweepJob(n_max=1, out=str(out), resume=True)
        )
        assert summary["resumed"] == 1
        assert summary["counterexamples"] == [
            {"spec": "1 / 1", "spectrum": {"0": 1, "1": 2, "2": 1, "3": 2}}
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
            "spectrum": {"0": 1, "2": 1},
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


class TestReadRecords:
    def test_corrupt_json_names_the_line(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text('{"key": "1 / 1"}\nnot json\n')
        with pytest.raises(ParseError, match=r"bad\.ndjson:2"):
            read_records(str(path))

    def test_non_record_line_rejected(self, tmp_path):
        path = tmp_path / "bad.ndjson"
        path.write_text("42\n")
        with pytest.raises(ParseError, match=r"bad\.ndjson:1"):
            read_records(str(path))

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "ok.ndjson"
        path.write_text('\n{"key": "a"}\n\n{"key": "b"}\n')
        assert [r["key"] for r in read_records(str(path))] == ["a", "b"]


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
        records = read_records(str(out))
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
        # over the grid only because grid_spectrum computes k_max+1 on demand
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
        assert len(read_records(str(out))) == 4

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
        assert len(read_records(str(out))) == 2

    def test_dispatch_rejects_non_stability(self):
        with pytest.raises(ValueError, match="not a stability conjecture"):
            run_stability_sweep(SweepJob(conjecture="unimodal_2_8"))
