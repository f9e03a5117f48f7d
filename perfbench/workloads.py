"""The four benchmark workloads: seeded inputs, timed operations, exact checks.

Every call into the package goes through ``seaweedspec.cli.main`` or a
function exported from ``seaweedspec``, looked up on the module at call time
(``ss.spectrum(g)``, never a name bound at import), so that the traced run
sees the wrappers ``layers.py`` installs and the untraced run depends on no
private name.

A workload is a list of operations. One pass over the list is a *job*; the
timed loop in ``worker.py`` repeats jobs. Each operation has an untimed
``prepare`` step (file copies), a timed ``run`` step and an untimed
``check`` step that compares the output with an answer known independently
of the code under test.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random
import shutil
from dataclasses import dataclass
from typing import Any, Callable

import seaweedspec as ss
from seaweedspec import cli

#: Frobenius seaweeds among the 4^(n-1) composition pairs of n = 1..10.
FROBENIUS_PER_N = (1, 2, 6, 14, 34, 68, 150, 296, 586, 1140)

VARIANTS = ("as-is", "swapped", "reversed", "swapped+reversed")


class WrongAnswer(Exception):
    """An operation returned, but its output is not the known answer."""


class Failed(Exception):
    """An operation exited non-zero or raised inside the program."""


@dataclass
class Op:
    name: str
    run: Callable[[], Any]
    check: Callable[[Any], None]
    prepare: Callable[[], None] = lambda: None


@dataclass
class Stats:
    """Counts a workload measures from its outputs, outside the timing."""

    records_written: int = 0
    record_bytes: int = 0
    resumed: int = 0
    pairs: int = 0


def expect(got, want, what: str) -> None:
    if got != want:
        raise WrongAnswer(f"{what}: got {_short(got)}, expected {_short(want)}")


def _short(value) -> str:
    text = repr(value)
    return text if len(text) <= 120 else text[:117] + "..."


class _NeverEqual:
    """A deliberately wrong expected answer, used by the self-test."""

    def __eq__(self, other):
        return False

    def __ne__(self, other):
        return True

    def __repr__(self):
        return "<deliberately wrong expected answer>"


def run_cli(argv: list[str]) -> tuple[int, str]:
    """Call the command line in-process; returns (exit code, stdout)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
    if rc != 0:
        raise Failed(f"seaweedspec {' '.join(argv)} exited {rc}: {err.getvalue().strip()}")
    return rc, out.getvalue()


# ----------------------------------------------------------------- families


def _raises(fn) -> bool:
    try:
        fn()
    except ValueError:
        return True
    return False


@dataclass(frozen=True)
class FamilyShape:
    """How a family's n depends on its parameters: n = a*k + c*r + b."""

    family: ss.FamilyId
    needs_k: bool
    needs_r: bool
    odd_k: bool
    a: int
    c: int
    b: int

    @classmethod
    def probe(cls, f: ss.FamilyId) -> "FamilyShape":
        spec = ss.family_spec
        needs_k = _raises(lambda: spec(f, None, 1))
        needs_r = _raises(lambda: spec(f, 3, None))
        odd_k = needs_k and _raises(lambda: spec(f, 4, 1))
        k0 = 3 if needs_k else None
        r0 = 1 if needs_r else None
        n0 = spec(f, k0, r0).n
        a = (spec(f, 5, r0).n - n0) // 2 if needs_k else 0
        c = spec(f, k0, 2).n - n0 if needs_r else 0
        b = n0 - a * (k0 or 0) - c * (r0 or 0)
        return cls(f, needs_k, needs_r, odd_k, a, c, b)

    def draw(self, rng: random.Random, n_target: int) -> tuple[int | None, int | None]:
        """Seeded (k, r) with n in [n_target, n_target + 2%].

        Two-parameter families put 40-60% of n into the r blocks, so the
        cost of a point depends on n and barely on the draw.
        """
        hi = n_target + max(2, n_target // 50)
        for _ in range(1000):
            r = None
            rest = n_target
            if self.needs_r:
                share = rng.uniform(0.4, 0.6) if self.needs_k else 1.0
                r = max(1, round(share * n_target / self.c))
                rest -= self.c * r
            k = None
            if self.needs_k:
                k = max(1, math.ceil((rest - self.b) / self.a))
                k += rng.randint(0, max(0, (hi - n_target) // self.a))
                if self.odd_k and k % 2 == 0:
                    k += 1
            elif self.needs_r:
                r = max(1, math.ceil((n_target - self.b) / self.c))
                r += rng.randint(0, max(0, (hi - n_target) // self.c))
            try:
                n = ss.family_spec(self.family, k, r).n
            except ValueError:
                continue
            if n_target <= n <= hi:
                return k, r
        raise RuntimeError(f"no parameters of {self.family.value} give n near {n_target}")


def _variant(g: ss.SeaweedSpec, variant: str) -> ss.SeaweedSpec:
    if "swapped" in variant:
        g = g.swapped()
    if "reversed" in variant:
        g = g.reversed()
    return g


@dataclass(frozen=True)
class Point:
    """One seeded Frobenius seaweed: a family point, possibly swapped or reversed."""

    family: ss.FamilyId
    k: int | None
    r: int | None
    variant: str
    spec: ss.SeaweedSpec

    @classmethod
    def draw(cls, shape: FamilyShape, rng: random.Random, n_target: int,
             variants=VARIANTS) -> "Point":
        k, r = shape.draw(rng, n_target)
        variant = rng.choice(variants)
        g = _variant(ss.family_spec(shape.family, k, r), variant)
        return cls(shape.family, k, r, variant, g)

    def __str__(self) -> str:
        return f"{self.family.value}(k={self.k}, r={self.r}) {self.variant}, n={self.spec.n}"


# ------------------------------------------------------------------- sweeps


def _pairs(n_max: int) -> int:
    return sum(4 ** (n - 1) for n in range(1, n_max + 1))


def _n_of_key(key: str) -> int:
    return sum(int(p) for p in key.split(" / ")[0].split("|"))


class RecordCheck:
    """Streaming check of a unimodality record file.

    The file must hold one record per composition pair, each key exactly
    once, and the known number of Frobenius records per n. Keys are
    compared as a multiset through a sum of their hashes, so the check
    needs constant memory and does not depend on record order. The
    expected sum is computed in the same process, where str hashes agree.
    """

    MASK = (1 << 64) - 1

    def __init__(self, n_max: int):
        self.n_max = n_max
        self._expected_fingerprint: int | None = None

    def expected_fingerprint(self) -> int:
        if self._expected_fingerprint is None:
            total = 0
            for n in range(1, self.n_max + 1):
                tops = [str(c) for c in ss.compositions_of(n)]
                for top in tops:
                    for bottom in tops:
                        total += hash(f"{top} / {bottom}")
            self._expected_fingerprint = total & self.MASK
        return self._expected_fingerprint

    def __call__(self, path: str) -> tuple[int, int]:
        """Check the file; returns (records, bytes)."""
        count = 0
        fingerprint = 0
        frobenius = [0] * (self.n_max + 1)
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                try:
                    rec = json.loads(line)
                    key = rec["key"]
                    fingerprint += hash(key)
                    if rec["frobenius"] is True:
                        frobenius[_n_of_key(key)] += 1
                except (ValueError, KeyError, TypeError, IndexError):
                    raise WrongAnswer(f"{path}:{lineno} is not a unimodality record "
                                      f"for n <= {self.n_max}") from None
                count += 1
        expect(count, _pairs(self.n_max), "record count")
        expect(fingerprint & self.MASK, self.expected_fingerprint(), "record key multiset fingerprint")
        expect(tuple(frobenius[1:]), FROBENIUS_PER_N[: self.n_max], "Frobenius records per n")
        return count, os.path.getsize(path)


def expected_summary(n_max: int, resumed: int) -> dict:
    return {
        "conjecture": "unimodal_2_8",
        "n_min": 1,
        "n_max": n_max,
        "pairs": _pairs(n_max),
        "resumed": resumed,
        "frobenius": sum(FROBENIUS_PER_N[:n_max]),
        "engine_invariant_failures": 0,
        "counterexamples": [],
    }


def _sweep_argv(n_max: int, out: str, resume: bool) -> list[str]:
    argv = ["sweep", "--n-max", str(n_max), "--out", out]
    return argv + ["--resume"] if resume else argv


def _summary(stdout: str) -> dict:
    try:
        return json.loads(stdout)
    except ValueError:
        raise WrongAnswer(f"sweep printed no JSON summary: {_short(stdout)}") from None


def _remove(path: str) -> None:
    with contextlib.suppress(FileNotFoundError):
        os.remove(path)


class Workload:
    name = ""
    stats: Stats
    wrong: bool = False  # self-test: the first check expects a wrong answer

    def ops(self) -> list[Op]:
        raise NotImplementedError

    def probes(self) -> list[Op]:
        """Operations run once per phase, outside the timing."""
        return []

    def close(self) -> None:
        pass

    def want(self, value):
        if self.wrong:
            self.wrong = False
            return _NeverEqual()
        return value


class SweepFresh(Workload):
    """Exhaustive unimodal_2_8 sweep with --out to a new record file."""

    name = "sweep_fresh"

    def __init__(self, rng: random.Random, workdir: str, tiny: bool):
        self.n_max = 4 if tiny else 9
        self.out = os.path.join(workdir, "fresh.ndjson")
        self.records = RecordCheck(self.n_max)
        self.stats = Stats()

    def ops(self) -> list[Op]:
        return [Op("sweep", prepare=lambda: _remove(self.out),
                   run=lambda: run_cli(_sweep_argv(self.n_max, self.out, False)),
                   check=self._check)]

    def _check(self, result) -> None:
        summary = _summary(result[1])
        expect(summary, self.want(expected_summary(self.n_max, 0)), "sweep summary")
        records, size = self.records(self.out)
        self.stats.records_written += records
        self.stats.record_bytes += size
        self.stats.pairs += summary["pairs"]
        _remove(self.out)

    def close(self) -> None:
        _remove(self.out)


def _copy_lines(src: str, dst: str, lines: int) -> None:
    """Write the first `lines` lines of src to dst."""
    with open(src, "rb") as fin, open(dst, "wb") as fout:
        for _ in range(lines):
            fout.write(fin.readline())


def _line_count(path: str) -> int:
    with open(path, "rb") as fh:
        return sum(1 for _ in fh)


class SweepResume(Workload):
    """The same sweep with --resume over a seeded cut of about half its records.

    Set-up writes the full record file with the code under test and keeps
    its first 49.5-50.5% of lines, cut at a line boundary as Ctrl-C leaves it.
    A second, small file ends in a torn line, as SIGKILL leaves it; resuming
    over it is the torn-tail probe, counted as an operation but not timed.
    """

    name = "sweep_resume"

    def __init__(self, rng: random.Random, workdir: str, tiny: bool):
        self.n_max = 5 if tiny else 9
        self.torn_n_max = 3 if tiny else 6
        self.records = RecordCheck(self.n_max)
        self.torn_records = RecordCheck(self.torn_n_max)
        self.stats = Stats()
        self.partial = os.path.join(workdir, "partial.ndjson")
        self.work = os.path.join(workdir, "resume.ndjson")
        self.torn = os.path.join(workdir, "torn.ndjson")
        self.torn_work = os.path.join(workdir, "torn-resume.ndjson")

        full = os.path.join(workdir, "full.ndjson")
        self.fresh_summary = _summary(run_cli(_sweep_argv(self.n_max, full, False))[1])
        total = _line_count(full)
        self.cut = rng.randint(int(0.495 * total), int(0.505 * total))
        _copy_lines(full, self.partial, self.cut)
        os.remove(full)

        self.torn_fresh_summary = _summary(run_cli(_sweep_argv(self.torn_n_max, full, False))[1])
        with open(full, "rb") as fh:
            lines = fh.readlines()
        os.remove(full)
        self.torn_cut = rng.randint(len(lines) // 4, 3 * len(lines) // 4)
        torn = lines[self.torn_cut]
        with open(self.torn, "wb") as fh:
            fh.writelines(lines[:self.torn_cut])
            # Keep at least one byte and lose at least the closing brace.
            fh.write(torn[:rng.randint(1, len(torn) - 2)])

    def ops(self) -> list[Op]:
        return [Op("resume", prepare=lambda: shutil.copyfile(self.partial, self.work),
                   run=lambda: run_cli(_sweep_argv(self.n_max, self.work, True)),
                   check=self._check)]

    def _check(self, result) -> None:
        summary = _summary(result[1])
        expect({**summary, "resumed": None}, self.want({**self.fresh_summary, "resumed": None}),
               "resumed summary against the fresh summary")
        expect(summary, expected_summary(self.n_max, self.cut), "resumed summary")
        records, size = self.records(self.work)
        self.stats.records_written += records - self.cut
        self.stats.record_bytes += size - os.path.getsize(self.partial)
        self.stats.resumed += summary["resumed"]
        self.stats.pairs += summary["pairs"]
        _remove(self.work)

    def probes(self) -> list[Op]:
        return [Op("torn-tail resume",
                   prepare=lambda: shutil.copyfile(self.torn, self.torn_work),
                   run=lambda: run_cli(_sweep_argv(self.torn_n_max, self.torn_work, True)),
                   check=self._check_torn)]

    def _check_torn(self, result) -> None:
        summary = _summary(result[1])
        expect(summary, expected_summary(self.torn_n_max, self.torn_cut),
               "summary after resuming over a torn last line")
        expect({**summary, "resumed": None}, {**self.torn_fresh_summary, "resumed": None},
               "torn-tail summary against the fresh summary")
        self.torn_records(self.torn_work)
        _remove(self.torn_work)

    def close(self) -> None:
        for path in (self.partial, self.work, self.torn, self.torn_work):
            _remove(path)


# ------------------------------------------------------------------ queries


class QueryLarge(Workload):
    """index_sl, spectrum, extended_spectrum and principal_element on big seaweeds.

    Each job holds eight points of every family at n ~ 100, two of every
    family at n ~ 1000 and one unswapped k2 point at n ~ 4000. One
    operation is all four queries on one point. The counts put the median
    operation well inside the n ~ 100 group and the tail (ten operations
    beyond it) inside the n ~ 1000 group, not at the edge of either, where
    the draw would move them. The single large point costs about as much as
    the rest of the job; fixing its family and orientation (both change its
    cost by up to 30%) keeps the job's cost independent of the seed.
    """

    name = "query_large"

    def __init__(self, rng: random.Random, workdir: str, tiny: bool):
        shapes = [FamilyShape.probe(f) for f in ss.FamilyId]
        k2 = FamilyShape.probe(ss.FamilyId.K2)
        sizes = (20, 40, 60) if tiny else (100, 1000, 4000)
        self.points = [Point.draw(shape, rng, sizes[0])
                       for shape in shapes for _ in range(1 if tiny else 8)]
        self.points += [Point.draw(shape, rng, sizes[1])
                        for shape in shapes for _ in range(1 if tiny else 2)]
        self.points.append(Point.draw(k2, rng, sizes[2], variants=("as-is",)))
        rng.shuffle(self.points)
        self.stats = Stats()

    def ops(self) -> list[Op]:
        return [Op(str(p), run=lambda p=p: self._query(p.spec),
                   check=lambda result, p=p: self._check(p, result))
                for p in self.points]

    @staticmethod
    def _query(g):
        return ss.index_sl(g), ss.spectrum(g), ss.extended_spectrum(g), ss.principal_element(g)

    def _check(self, p: Point, result) -> None:
        index, spec, ext, diag = result
        n = p.spec.n
        expect(index, 0, f"{p}: index")
        expect(spec, self.want(ss.family_spectrum(p.family, p.k, p.r)),
               f"{p}: spectrum against the closed form")
        expect(ext.size, n * n - 1, f"{p}: extended spectrum size")
        expect(all(ext.multiplicity(-v) == c for v, c in ext.items()), True,
               f"{p}: extended spectrum symmetric under e -> -e")
        expect(len(diag), n, f"{p}: principal element length")
        expect(sum(diag), 0, f"{p}: principal element trace")
        arcs = ss.frobenius_form_support(p.spec)
        expect(len(arcs), n - 1, f"{p}: arcs of the Frobenius form")
        bad = [(u, v) for u, v in arcs if diag[u - 1] - diag[v - 1] != 1]
        expect(bad, [], f"{p}: arcs where the principal element does not drop by 1")


# ----------------------------------------------------------------- verifier


def _block_grid(k_max: int, m_max: int) -> list[tuple[int, int, int]]:
    return [(k1, k2, m)
            for k1 in range(1, k_max + 1)
            for k2 in range(1, k_max + 1)
            if math.gcd(k1, k2) == 1
            for m in range(1, m_max + 1)]


class VerifyGrid(Workload):
    """The proven-identity self-checks on the matrix path.

    Each job runs the swap, reverse and skew checks on two points of every
    family at n ~ 50 and one at n ~ 150 and n ~ 250; verify_block_lemmas on
    24 coprime triples with k1, k2 <= 20 and m <= 6; and one verify-family
    point of every family at n ~ 60. The triples are drawn at 24 fixed sizes
    n1 = (m+1)k1 + k2 spread evenly over the grid, so the draw does not move
    the job's cost. The n ~ 50 points put the median operation inside a
    large group of similar cost.
    """

    name = "verify_grid"

    def __init__(self, rng: random.Random, workdir: str, tiny: bool):
        shapes = [FamilyShape.probe(f) for f in ss.FamilyId]
        sizes, triples, k_max, m_max, family_n = (
            ((10, 10, 20), 4, 6, 2, 12) if tiny else ((50, 50, 150, 250), 24, 20, 6, 60))
        self.points = [Point.draw(shape, rng, n) for n in sizes for shape in shapes]
        by_size: dict[int, list] = {}
        for k1, k2, m in _block_grid(k_max, m_max):
            by_size.setdefault((m + 1) * k1 + k2, []).append((k1, k2, m))
        grid = sorted(n1 for n1, ts in by_size.items() for _ in ts)
        self.triples = [rng.choice(by_size[grid[(2 * i + 1) * len(grid) // (2 * triples)]])
                        for i in range(triples)]
        self.family_points = [(s.family, *s.draw(rng, family_n)) for s in shapes]
        self.stats = Stats()

    def ops(self) -> list[Op]:
        ops = []
        for p in self.points:
            for name, fn in (("swap", "verify_swap_lemma"), ("reverse", "verify_reverse_lemma"),
                             ("skew", "verify_skew_symmetry")):
                ops.append(Op(f"{name} {p}", run=lambda p=p, fn=fn: getattr(ss, fn)(p.spec),
                              check=lambda result, what=f"{name} {p}": expect(
                                  result, self.want(True), what)))
        for k1, k2, m in self.triples:
            corners = ["top_left"] + (["bottom_right", "top_right"] if k1 > k2 else [])
            ops.append(Op(f"blocks k1={k1} k2={k2} m={m}",
                          run=lambda t=(k1, k2, m): ss.verify_block_lemmas(*t),
                          check=lambda result, corners=corners, t=(k1, k2, m): expect(
                              result, self.want(corners), f"corner blocks checked at {t}")))
        for family, k, r in self.family_points:
            argv = ["verify-family", family.value, "--format", "json"]
            argv += ["--k", str(k)] if k is not None else []
            argv += ["--r", str(r)] if r is not None else []
            want = {"family": family.value, "results": [{"k": k, "r": r, "ok": True}],
                    "passed": 1, "total": 1}
            ops.append(Op(" ".join(argv), run=lambda argv=argv: run_cli(argv),
                          check=lambda result, want=want, argv=argv: expect(
                              json.loads(result[1]), self.want(want), " ".join(argv))))
        return ops


WORKLOADS = {w.name: w for w in (SweepFresh, SweepResume, QueryLarge, VerifyGrid)}
