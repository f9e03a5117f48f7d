"""Exhaustive and targeted conjecture sweeps.

The unimodality sweep enumerates every pair of compositions of each n in
range, records index and shape data for each, treats any failure of the
proven support properties (unbroken interval, endpoints summing to one) as
an engine bug, and collects unimodality failures as findings. The
stability sweeps walk small parameter grids of the three extension
conjectures instead: one table gives each conjecture's grid and check
names, and one record builder makes every stability record from them.

The unimodality sweep is one serial loop over rows, one row per top
composition: it writes the row's NDJSON records, then checks the row's
Frobenius records. A row's text is one string join of pieces laid out at C
speed, so no Python code runs for a pair of nonzero index: only the
Frobenius pairs of the row are visited (see _row_records).

A record carries no timing, so a record file is a function of its job:
every run writes the same bytes. Both sweeps write through one sink,
_RecordFile, and --resume only changes what it does with them: a file
this code wrote for the job is a prefix of the records the job writes, so
each piece is compared with the file's next bytes until the file ends, and
the rest is appended. No line is parsed and no record is read back: every
record, resumed or new, is made and checked by the run itself, and a file
that is not such a prefix stops the run before anything is appended.

The index of a pair is read off a census (see meander._census): one byte
per pair holding 2C + P, each table copied by slices out of the tables of
smaller n along the winding-down moves, so no meander is walked. A run
builds it for every n up to n_max, including the n below n_min it does not
write, and it lives for that run. The spectrum is taken once per orbit of
the swap (t, b) -> (b, t) and the reversal (t, b) -> (t reversed, b
reversed): they transpose and antitranspose the eigenvalue matrix, so every
pair of an orbit has the same spectrum, shape fields and line tail (see
_row_records).

Both sweeps take every spectrum from spectrum._spectrum_of, on bare part
tuples; no module but spectrum reads the kernel's histograms.
"""

from __future__ import annotations

import contextlib
import json
import os
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterator

from .analysis import (
    SHAPE_FIELDS,
    EngineInvariantError,
    check_proven_claims,
    is_log_concave,
    is_unimodal,
    shape_fields,
)
from .core import (
    Composition,
    IntegerMultiset,
    ParseError,
    SeaweedSpec,
    _check_indexable,
    compositions_of,
    parse_seaweed,
)
from .families import EXTENSION_VARIANTS, default_extension_base, extension_variant_spec
from .meander import _census
from .spectrum import SpectrumUndefinedError, _spectrum_of

CONJECTURES = (
    "unimodal_2_8",
    "stability_4_16",
    "stability_4_17",
    "stability_4_18",
    "none",
)

# The conjectures of the exhaustive sweep over composition pairs.
_PAIR_CONJECTURES = ("unimodal_2_8", "none")


@dataclass
class SweepJob:
    conjecture: str = "unimodal_2_8"
    n_min: int = 1
    n_max: int = 10
    k_max: int = 8
    r_max: int = 6
    base: str | None = None
    out: str | None = None
    resume: bool = False

    def __post_init__(self) -> None:
        if self.conjecture not in CONJECTURES:
            raise ValueError(
                f"conjecture must be one of {CONJECTURES}, got {self.conjecture!r}"
            )
        if self.n_min < 1 or self.n_max < self.n_min:
            raise ValueError(f"bad n range [{self.n_min}, {self.n_max}]")
        if self.k_max < 1 or self.r_max < 1:
            raise ValueError("k_max and r_max must be at least 1")
        if self.resume and not self.out:
            raise ValueError("resume needs an output path to continue")
        if self.base is not None and self.conjecture != "stability_4_16":
            raise ValueError("--base is read only by stability_4_16")


def enumerate_frobenius(n: int) -> Iterator[SeaweedSpec]:
    """All Frobenius seaweeds on n vertices, in composition-pair order."""
    parts, _ = _compositions(n)
    m = len(parts)
    table = _census(n)[n]
    pos = table.find(1)  # 2C + P = 1: index 0
    while pos >= 0:
        i, j = divmod(pos, m)
        yield SeaweedSpec(Composition(parts[i]), Composition(parts[j]))
        pos = table.find(1, pos + 1)


@lru_cache(maxsize=16)
def _compositions(n: int) -> tuple[tuple[tuple[int, ...], ...], tuple[str, ...]]:
    """The parts of each composition of n, and their texts, joined once per
    n. 16 n are more than any sweep of 4^(n-1) pairs per n can reach, so a
    run's n stay cached together."""
    parts = tuple(c.parts for c in compositions_of(n))
    return parts, tuple("|".join(map(str, p)) for p in parts)


@lru_cache(maxsize=16)
def _reversed_ranks(n: int) -> tuple[int, ...]:
    """The rank, in _compositions(n) order, of each composition's reverse."""
    parts, _ = _compositions(n)
    rank = {p: k for k, p in enumerate(parts)}
    return tuple(rank[p[::-1]] for p in parts)


def _pair_record(conjecture: str, key: str, top: tuple, bottom: tuple, index: int) -> dict:
    """The record of one composition pair: its shape fields are those of
    analysis.shape_fields, all null unless the pair is Frobenius. index
    is read off the census; the kernel must agree that a pair of index 0
    has a spectrum."""
    s = None
    if index == 0:
        s = _spectrum_of(top, bottom)
        if s is None:
            raise EngineInvariantError(
                f"{key}: the census gives index 0, but the kernel finds no spectrum"
            )
    return {
        "conjecture": conjecture,
        "key": key,
        "spec": key,
        "index": index,
        "frobenius": index == 0,
        **(dict.fromkeys(SHAPE_FIELDS) if s is None else shape_fields(s)),
        "spectrum": None if s is None else s.to_json_obj(),
    }


# The fixed-shape record line: json.dumps(_pair_record(...)) + "\n" for a
# pair of nonzero index, which is all but a few lines of a sweep. The writer
# formats it, and a Frobenius line (_frobenius_tail), from these pieces. A
# key holds only digits, "|", " " and "/", and the conjecture is one of
# CONJECTURES, so nothing in the line needs escaping.
_SPEC_SEP = '", "spec": "'
_INDEX_SEP = '", "index": '
_PLAIN_TAIL = (
    ', "frobenius": false'
    + "".join(f', "{name}": null' for name in SHAPE_FIELDS)
    + ', "spectrum": null}\n'
)


def _plain_head(conjecture: str) -> str:
    return f'{{"conjecture": "{conjecture}", "key": "'


# The shape fields of a Frobenius line, to be formatted with their JSON
# literals in SHAPE_FIELDS order.
_FROBENIUS_FLAGS = "".join(f', "{name}": {{}}' for name in SHAPE_FIELDS)
_JSON_LITERAL = {True: "true", False: "false", None: "null"}


def _frobenius_tail(rec: dict) -> str:
    """The end of json.dumps(rec) + "\n" for the Frobenius record rec, from
    its index on: the line is the fixed-shape line's key head, bottom, spec
    head and bottom followed by this. The spectrum's keys are decimal
    integers, so they need no escaping either."""
    # A list, not a map: unpacking a map builds a tuple of guessed size and
    # resizes it, which runs the cycle collector more often over a sweep.
    flags = _FROBENIUS_FLAGS.format(*[_JSON_LITERAL[rec[name]] for name in SHAPE_FIELDS])
    spectrum = rec["spectrum"]
    values = ", ".join(map('"{}": {}'.format, spectrum, spectrum.values()))
    return f'{_INDEX_SEP}0, "frobenius": true{flags}, "spectrum": {{{values}}}}}\n'


def _row_records(
    conjecture: str,
    n: int,
    i: int,
    write: bool,
    row: bytes,
    memo: dict,
) -> tuple[str, list[tuple[str, dict]]]:
    """NDJSON text of the i-th top composition of n against every bottom,
    and a (spec, orbit record) pair for each Frobenius pair among them in
    bottom order, with 2C + P read off row, the row's bytes of the census.
    The text is empty unless write is set, since without an output file
    nothing would read it.

    The text is one join of five pieces per pair, laid out by list repeat
    and slice assignment: the fixed-shape line's key head, bottom, spec
    head, bottom, and the tail of the pair's 2C + P. Only the Frobenius
    bottoms (2C + P = 1) are visited, each found by row.find, and each has
    its tail replaced by that of its record's line.

    Swapping a pair's compositions, and reversing both, keeps its spectrum,
    so a Frobenius pair's orbit under the two is keyed by its least member
    in pair order. The first member a run visits takes the spectrum from the
    kernel and leaves its record and line tail in n's orbit memo, and every
    member reuses both. The orbit record keeps the key and spec of its first
    member; only its shape fields and spectrum are read, so each pair's own
    spec goes beside it. memo belongs to n, and every row of n in a run
    shares it; write is the same for every row of a run, so a memo's tails
    are there when they are needed.
    """
    parts, texts = _compositions(n)
    m = len(parts)
    reverse = _reversed_ranks(n)
    top_text = texts[i]
    if write:
        key_head = f"{_plain_head(conjecture)}{top_text} / "
        spec_head = f"{_SPEC_SEP}{top_text} / "
        # The tail of each 2C + P <= n a pair of n can have; that of
        # 2C + P = 1 is always replaced.
        ends = [f"{_INDEX_SEP}{gl - 1}{_PLAIN_TAIL}" for gl in range(n + 1)]
        pieces = [key_head, None, spec_head, None, None] * m
        pieces[1::5] = pieces[3::5] = texts
        pieces[4::5] = map(ends.__getitem__, row)
    frobenius = []
    ri = reverse[i]
    lo = 0
    while (j := row.find(1, lo)) >= 0:
        rj = reverse[j]
        orbit = min(i * m + j, j * m + i, ri * m + rj, rj * m + ri)
        key = f"{top_text} / {texts[j]}"
        if orbit in memo:
            rec, tail = memo[orbit]
        else:
            rec = _pair_record(conjecture, key, parts[i], parts[j], 0)
            tail = _frobenius_tail(rec) if write else None
            memo[orbit] = rec, tail
        frobenius.append((key, rec))
        if write:
            pieces[5 * j + 4] = tail
        lo = j + 1
    return "".join(pieces) if write else "", frobenius


class _RecordFile:
    """The one writer of a sweep's record file, for fresh and resumed runs.

    Without resume the file must be missing or empty, and every piece of
    records is appended. With resume, each piece is first compared with the
    file's next bytes, and its whole lines count as resumed when they
    match; from the piece in which the file ends, the rest is appended. A
    last line cut short by a killed run, its bytes matching, is truncated
    and written again whole. At the first byte that differs, or at any byte
    left over when the run closes the file, the file is not a prefix of the
    job's records: ParseError, naming the line, and nothing appended.
    """

    def __init__(self, path: str, resume: bool) -> None:
        self.path = path
        self.resumed = 0  # whole lines matched
        # "a" creates a missing file, and every write lands at the file's
        # end, which a truncate moves back.
        self._fh = open(path, "a+b" if resume else "ab")
        self._comparing = resume
        if resume:
            self._fh.seek(0)
        elif self._fh.tell():
            self._fh.close()
            raise ParseError(
                f"record file {path} is not empty; pass --resume to continue it"
            )

    def __enter__(self) -> "_RecordFile":
        return self

    def __exit__(self, exc_type, *exc) -> None:
        with self._fh:
            if exc_type is None and self._comparing and self._fh.read(1):
                raise self._not_a_prefix(self.resumed + 1)

    def _not_a_prefix(self, line: int) -> ParseError:
        return ParseError(
            f"record file {self.path} is not a prefix of this job's records at line {line}"
        )

    def write(self, text: str, lines: int) -> None:
        """Write text, which holds lines whole records."""
        data = text.encode()
        if not self._comparing:
            self._fh.write(data)
            return
        start = self._fh.tell()
        got = self._fh.read(len(data))
        if got == data:
            self.resumed += lines
            return
        if not data.startswith(got):
            same = len(os.path.commonprefix((got, data)))
            raise self._not_a_prefix(self.resumed + got.count(b"\n", 0, same) + 1)
        # The file ends inside text: after its last newline, any torn line
        # is cut off, and the rest of text is appended.
        whole = got.rfind(b"\n") + 1
        self.resumed += got.count(b"\n")
        self._fh.seek(start + whole)
        self._fh.truncate()
        self._fh.write(data[whole:])
        self._comparing = False


def run_unimodality_sweep(job: SweepJob) -> dict:
    """Exhaustive sweep over all composition pairs for n in job's range.

    Returns the summary; raises EngineInvariantError if a proven property
    fails. Unimodality failures (conjecture counterexamples) land in the
    summary, not in an exception.
    """
    pairs = 0
    frobenius_count = 0
    counterexamples = []
    collect = job.conjecture == "unimodal_2_8"

    with _RecordFile(job.out, job.resume) if job.out else contextlib.nullcontext() as out:
        census = _census(job.n_max)  # one per run
        for n in range(job.n_min, job.n_max + 1):
            m = len(_compositions(n)[0])
            pairs += m * m
            table = census[n]
            memo = {}  # the orbits of n
            for i in range(m):
                text, frobenius = _row_records(
                    job.conjecture, n, i, out is not None, table[i * m:(i + 1) * m], memo
                )
                # A row reaches the file before its records are checked,
                # so a record that fails a proven claim is on disk.
                if out:
                    out.write(text, m)
                frobenius_count += len(frobenius)
                for spec, rec in frobenius:
                    if rec["spectrum"]:
                        check_proven_claims(spec, rec["spectrum"], rec)
                    if collect and rec["unimodal"] is False:
                        counterexamples.append({"spec": spec, "spectrum": rec["spectrum"]})

    counterexamples.sort(key=lambda c: c["spec"])
    return {
        "conjecture": job.conjecture,
        "n_min": job.n_min,
        "n_max": job.n_max,
        "pairs": pairs,
        "resumed": out.resumed if out else 0,
        "frobenius": frobenius_count,
        "engine_invariant_failures": 0,
        "counterexamples": counterexamples,
    }


def _inheritance_checks(s_base: IntegerMultiset) -> Callable[[IntegerMultiset], dict]:
    """4_16's checks of an extension's spectrum against its base's."""
    base_values = set(s_base.support())
    base_unimodal = is_unimodal(s_base) if s_base else None

    def checks(s: IntegerMultiset) -> dict:
        contains = s.contains(s_base)
        return {
            "contains_base": contains,
            "no_new_values": contains and set((s - s_base).support()) <= base_values,
            "unimodal_inherited": is_unimodal(s) if base_unimodal else None,
        }

    return checks


def _grid_4_16(job: SweepJob, spectrum_of: Callable) -> Iterator[tuple]:
    if job.base is not None:
        base = parse_seaweed(job.base)
        _check_indexable(base.n, "seaweed")
        bases = [(base, base.top.parts[-1])]
    else:
        bases = [(default_extension_base(k), k) for k in range(1, job.k_max + 1)]
    # The largest extension, r_blocks_plus_k at r = r_max from the last
    # base, adds 2k r_max vertices; past what a kernel can index, it is
    # refused before any kernel call.
    base, k = bases[-1]
    _check_indexable(base.n + 2 * k * job.r_max, f"extension at r = {job.r_max}")
    # Every base spectrum is taken now, before the sweep opens its output.
    inherits = []
    for base, k in bases:
        s_base = spectrum_of(base.top.parts, base.bottom.parts)
        if s_base is None:
            raise SpectrumUndefinedError(
                "the --base seaweed is not Frobenius, so it has no spectrum to extend"
            )
        inherits.append((base, k, _inheritance_checks(s_base)))
    return (
        (
            extension_variant_spec(base, k, r, variant),
            {"base": str(base), "k": k, "r": r, "variant": variant}, {}, checks,
        )
        for base, k, checks in inherits
        for r in range(1, job.r_max + 1)
        for variant in EXTENSION_VARIANTS
    )


def _grid_4_17(job: SweepJob, spectrum_of: Callable) -> Iterator[tuple]:
    for k in range(1, job.k_max + 1):
        for r in range(1, job.r_max + 1):
            g = SeaweedSpec(Composition((2 * k,) * r + (1,)), Composition((2 * k * r + 1,)))
            expected = tuple(range(-2 * k + 1, 2 * k + 1) if r % 2 else range(-k, k + 2))

            def checks(s: IntegerMultiset, expected=expected) -> dict:
                return {"support_matches": s.support() == expected, "unimodal": is_unimodal(s)}

            yield g, {"k": k, "r": r}, {"expected_support": list(expected)}, checks


def _parts_4_18(k: int, r: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    return (2 * k,) * r + (1,), (1,) + (2 * k,) * r


def _grid_4_18(job: SweepJob, spectrum_of: Callable) -> Iterator[tuple]:
    for k in range(1, job.k_max + 1):
        expected = tuple(range(-k + 1, k + 1))
        for r in range(1, job.r_max + 1):

            def checks(s: IntegerMultiset, k=k, r=r, expected=expected) -> dict:
                # The shift compares against the (k+1, r) neighbour, which
                # the memo computes on demand, past k_max too.
                s_next = spectrum_of(*_parts_4_18(k + 1, r))
                return {
                    "support_matches": s.support() == expected,
                    "log_concave": is_log_concave(s),
                    "shift_matches": s_next is not None and all(
                        s.multiplicity(i) == s_next.multiplicity(i + 1 if i > 0 else i - 1)
                        for i in expected
                    ),
                }

            top, bottom = _parts_4_18(k, r)
            g = SeaweedSpec(Composition(top), Composition(bottom))
            yield g, {"k": k, "r": r}, {"expected_support": list(expected)}, checks


# Each stability conjecture's grid and its check names, in record order. A
# grid gives an iterator of (seaweed, grid parameters, fixed fields, checks), where
# checks(spectrum) gives the check values of a Frobenius point. See
# run_stability_sweep for the record they make.
_STABILITY = {
    "stability_4_16": (_grid_4_16, ("contains_base", "no_new_values", "unimodal_inherited")),
    "stability_4_17": (_grid_4_17, ("support_matches", "unimodal")),
    "stability_4_18": (_grid_4_18, ("support_matches", "log_concave", "shift_matches")),
}


def run_stability_sweep(job: SweepJob) -> dict:
    """Walk one extension conjecture's parameter grid and collect failures.

    Each point's record is its head, grid parameters, "frobenius", fixed
    fields, checks (null unless Frobenius) and "spectrum"; it has passed
    when it is Frobenius and no check is false.
    """
    if job.conjecture not in _STABILITY:
        raise ValueError(f"not a stability conjecture: {job.conjecture!r}")
    grid, names = _STABILITY[job.conjecture]
    counterexamples = []
    # One kernel walk per seaweed and run.
    spectrum_of = lru_cache(maxsize=None)(_spectrum_of)
    # The grid comes first: 4_16 takes its base spectra here, so a base
    # that is not Frobenius leaves --out as it was.
    points = list(grid(job, spectrum_of))
    with _RecordFile(job.out, job.resume) if job.out else contextlib.nullcontext() as out:
        for g, params, fixed, checks in points:
            key = str(g)
            s = spectrum_of(g.top.parts, g.bottom.parts)
            results = dict.fromkeys(names)
            if s is not None:
                results.update(checks(s))
            rec = {
                "conjecture": job.conjecture,
                "key": key,
                "spec": key,
                **params,
                "frobenius": s is not None,
                **fixed,
                **results,
                "spectrum": None if s is None else s.to_json_obj(),
                "passed": s is not None and all(v is not False for v in results.values()),
            }
            if out:
                out.write(json.dumps(rec) + "\n", 1)
            if not rec["passed"]:
                failed = [name for name in ("frobenius",) + names if rec[name] is False]
                counterexamples.append({"spec": key, "failed": failed})

    counterexamples.sort(key=lambda c: c["spec"])
    summary = {
        "conjecture": job.conjecture,
        "k_max": job.k_max,
        "r_max": job.r_max,
        "checked": len(points),
        "resumed": out.resumed if out else 0,
        "counterexamples": counterexamples,
    }
    if job.conjecture == "stability_4_16":
        summary["base"] = job.base if job.base else "default per-k bases"
    return summary


def run_sweep(job: SweepJob) -> dict:
    """Dispatch on the job's conjecture; returns the summary object."""
    if job.conjecture in _PAIR_CONJECTURES:
        return run_unimodality_sweep(job)
    return run_stability_sweep(job)
