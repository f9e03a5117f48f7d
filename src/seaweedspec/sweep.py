"""Exhaustive and targeted conjecture sweeps.

The unimodality sweep enumerates every pair of compositions of each n in
range, records index and shape data for each, treats any failure of the
proven support properties (unbroken interval, endpoints summing to one) as
an engine bug, and collects unimodality failures as findings. The
stability sweeps walk small parameter grids of the three extension
conjectures instead: one table gives each conjecture's grid and check
names, and one record builder makes every stability record from them.

The unimodality sweep is one serial loop over rows, one row per top
composition: it appends the row's NDJSON records, then checks the row's
Frobenius records. A row's text is one string join of pieces laid out at C
speed, so no Python code runs for a pair of nonzero index: only the
Frobenius pairs of the row are visited (see _row_records). A record carries
no timing, so a record file is a function of the job alone: every run
writes the same bytes, and reruns with --resume skip finished keys.

The unimodality sweep resumes by replaying its writer (see _replay): a file
this code wrote is a prefix of the records the job writes, so each row is
made again and compared with the file's next bytes, and no line is
parsed. A file that differs anywhere, and every stability sweep's file,
goes through one loader, _load_completed. It reads the file once and marks
each finished key as one byte at its slot in a flat bytearray: a pair's
place in pair order (see _pair_slots), or a grid point's index in its grid.
Either way a sweep keeps only the records it acts on, and checks those
before it opens its output, so a resumed record that breaks a proven claim
stops the run before anything is appended.

The index of a pair is read off a census (see meander._census): one byte
per pair holding 2C + P, each table copied by slices out of the tables of
smaller n along the winding-down moves, so no meander is walked. A run
builds it for every n up to n_max, including the n below n_min it does not
write, and it lives for that run. The spectrum is taken once per orbit of
the swap (t, b) -> (b, t) and the reversal (t, b) -> (t reversed, b
reversed): they transpose and antitranspose the eigenvalue matrix, so every
pair of an orbit has the same spectrum, shape fields and line tail (see
_row_records).
"""

from __future__ import annotations

import contextlib
import json
import os
import re
from collections.abc import Hashable
from dataclasses import dataclass
from functools import lru_cache
from typing import BinaryIO, Callable, Iterator

from ._engine import kernel
from .analysis import (
    SHAPE_FIELDS,
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
from .meander import _census
from .spectrum import SpectrumUndefinedError

CONJECTURES = (
    "unimodal_2_8",
    "stability_4_16",
    "stability_4_17",
    "stability_4_18",
    "none",
)

# The conjectures of the exhaustive sweep over composition pairs.
_PAIR_CONJECTURES = ("unimodal_2_8", "none")

EXTENSION_VARIANTS = ("r_blocks", "r_blocks_plus_k")


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
            raise ValueError("resume needs an output path to read back")
        if self.base is not None and self.conjecture != "stability_4_16":
            raise ValueError("--base is read only by stability_4_16")


def _parse_record(line: str | bytes, path: str, lineno: int) -> dict:
    try:
        rec = json.loads(line)
    except json.JSONDecodeError:
        raise ParseError(f"corrupt sweep record at {path}:{lineno}") from None
    if not isinstance(rec, dict) or "key" not in rec:
        raise ParseError(f"corrupt sweep record at {path}:{lineno}")
    return rec


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
    n. The resume loader and the run loop both walk every n of a sweep, so
    a sweep's n stay cached together: 16 n are more than any sweep of
    4^(n-1) pairs per n can reach."""
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
    analysis.shape_fields, all null unless the pair is Frobenius."""
    s = IntegerMultiset._from_histogram(kernel.spectrum_counts(top, bottom)) if index == 0 else None
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
# formats it from these pieces and the loader recognises it by them; the
# writer formats a Frobenius line from the same pieces (_frobenius_tail). A
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


@lru_cache(maxsize=None)
def _line_pattern(conjecture: str) -> re.Pattern:
    """Matches one whole record line at a time, in file order.

    A fixed-shape line of a unimodality conjecture whose spec equals its key
    and whose index is digits without a leading zero gives its top and
    bottom text as groups 1 and 2. Any other line, blank or not, gives
    itself (newline included) as group 3. Stability records have no fixed
    shape: for them the first branch never matches.
    """
    if conjecture in _PAIR_CONJECTURES:
        fixed = "".join((
            re.escape(_plain_head(conjecture)), r"([0-9|]+) / ([0-9|]+)",
            re.escape(_SPEC_SEP), r"\1 / \2",
            re.escape(_INDEX_SEP), "[1-9][0-9]*",
            re.escape(_PLAIN_TAIL),
        ))
    else:
        fixed = "(?!)()()"
    return re.compile(f"^(?:{fixed}|(.*\n))".encode(), re.MULTILINE)


# The fields each kind of sweep reads from a record it resumes over.
_PAIR_READS = frozenset(("spec", "frobenius", *SHAPE_FIELDS, "spectrum"))
_STABILITY_READS = frozenset(("spec", "passed"))

# Bytes read per block. 64 KiB read back the n <= 10 file 11% faster than
# 1 MiB, with 4.6 MB less peak memory.
_BLOCK = 1 << 16


def _load_completed(
    job: SweepJob,
    done: bytearray,
    slot: Callable[[bytes, bytes], int | None],
    acts: Callable[[dict], bool],
    fh: BinaryIO | None = None,
    kept: dict[int, dict] | None = None,
    lineno: int = 0,
) -> dict[int, dict]:
    """Mark the keys already in job.out in done, and return the records
    whose consume acts on them, keyed by slot; the last line of a key
    decides whether its record is kept.

    A stability sweep resumes through this loader alone. The unimodality
    sweep falls back to it when its file is not a prefix of the records it
    writes (see _replay), and passes its own handle on job.out as fh, so the
    file is opened once; without fh, job.out is opened here. The file is
    read from fh's position on: kept holds the records kept from the lineno
    lines before it, and the lines read are numbered on from there.

    slot(top, bottom) is the place in done of the key "top / bottom" (ASCII
    bytes), or None for a key the job does not walk, which is ignored. A
    fixed-shape line of job's conjecture (see _line_pattern) gives top and
    bottom without being decoded, and its record is never kept. Every other
    nonblank line is parsed with json.loads, so a key spelled another way
    that decodes to the same text still counts. A record of job's
    conjecture whose key is unhashable, or that lacks a field its sweep
    reads back, is corrupt; records of other conjectures are ignored. So is
    a record for which acts raises ValueError.
    Every record the sweep writes ends in a newline, so a last line without
    one is the torn tail of a killed run: once the rest has been read, the
    file is truncated back to the last newline and that record is computed
    again. A corrupt line before it is fatal and leaves the file as it was.
    """
    path = job.out
    findall = _line_pattern(job.conjecture).findall
    reads = _PAIR_READS if job.conjecture in _PAIR_CONJECTURES else _STABILITY_READS
    kept = {} if kept is None else kept
    rest = b""
    with open(path, "rb") if fh is None else contextlib.nullcontext(fh) as fh:
        # readline completes the block's last line, so only the block at
        # the end of the file can end in a torn line.
        while block := fh.read(_BLOCK) + fh.readline():
            cut = block.rfind(b"\n") + 1
            rest = block[cut:]
            for lineno, (top, bottom, line) in enumerate(findall(block, 0, cut), lineno + 1):
                if line:
                    if not line.strip():
                        continue
                    rec = _parse_record(line, path, lineno)
                    if rec.get("conjecture") != job.conjecture:
                        continue
                    if not (rec.keys() >= reads and isinstance(rec["key"], Hashable)):
                        raise ParseError(f"corrupt sweep record at {path}:{lineno}")
                    key = rec["key"]
                    if not (isinstance(key, str) and key.isascii()):
                        continue
                    top, _, bottom = key.encode().partition(b" / ")
                k = slot(top, bottom)
                if k is not None:
                    done[k] = 1
                    try:
                        acted = line and acts(rec)
                    except ValueError:
                        raise ParseError(f"corrupt sweep record at {path}:{lineno}") from None
                    if acted:
                        kept[k] = rec
                    else:
                        kept.pop(k, None)
        end = fh.tell() - len(rest)
    if rest:
        os.truncate(path, end)
    return kept


def _pair_slots(job: SweepJob) -> tuple[dict[int, int], Callable[[bytes, bytes], int | None]]:
    """The slots of a unimodality sweep's pairs, in pair order: the pair of
    the i-th top and j-th bottom of the m compositions of n, in
    _compositions(n) order, sits at start[n] + i * m + j. start[n_max + 1]
    is the number of pairs. A key of two n, of n outside [n_min, n_max] or
    not in canonical spelling has no slot."""
    start: dict[int, int] = {}
    where: dict[bytes, tuple[int, int, int]] = {}  # text -> (n, slot of its row, rank)
    size = 0
    for n in range(job.n_min, job.n_max + 1):
        _, texts = _compositions(n)
        m = len(texts)
        start[n] = size
        for rank, text in enumerate(texts):
            where[text.encode()] = (n, size + rank * m, rank)
        size += m * m
    start[job.n_max + 1] = size

    def slot(top: bytes, bottom: bytes) -> int | None:
        t = where.get(top)
        b = where.get(bottom)
        if t is None or b is None or t[0] != b[0]:
            return None
        return t[1] + b[2]

    return start, slot


def _row_records(
    conjecture: str,
    n: int,
    i: int,
    js: list[int] | None,
    write: bool,
    row: bytes,
    memos: dict[int, dict],
) -> tuple[str, dict[int, dict]]:
    """NDJSON text of the i-th top composition of n against the bottoms at
    indices js (all of them when js is None), and the Frobenius records
    among them by their place in js, with 2C + P read off row, the row's
    bytes of the census. The text is empty unless write is set, since
    without an output file nothing would read it.

    The text is one join of five pieces per pair, laid out by list repeat
    and slice assignment: the fixed-shape line's key head, bottom, spec
    head, bottom, and the tail of the pair's 2C + P. Only the Frobenius
    bottoms (2C + P = 1) are visited, each found by row.find, and each has
    its tail replaced by that of its record's line.

    Swapping a pair's compositions, and reversing both, keeps its spectrum,
    so a Frobenius pair's orbit under the two is keyed by its least member
    in pair order. The first member a run visits takes the spectrum from the
    kernel and leaves its record and line tail in n's orbit memo. Every
    other member copies that record with its own key and spec, and reuses
    the tail. memos is the run's, and holds the memo of one n at a time: a
    row of another n drops it. write is the same for every row of a run, so
    a memo's tails are there when they are needed.
    """
    parts, texts = _compositions(n)
    m = len(parts)
    reverse = _reversed_ranks(n)
    memo = memos.get(n)
    if memo is None:
        memos.clear()
        memo = memos[n] = {}
    top_text = texts[i]
    if js is not None:
        texts = list(map(texts.__getitem__, js))
        row = bytes(map(row.__getitem__, js))
    if write:
        key_head = f"{_plain_head(conjecture)}{top_text} / "
        spec_head = f"{_SPEC_SEP}{top_text} / "
        # The tail of each 2C + P <= n a pair of n can have; that of
        # 2C + P = 1 is always replaced.
        ends = [f"{_INDEX_SEP}{gl - 1}{_PLAIN_TAIL}" for gl in range(n + 1)]
        pieces = [key_head, None, spec_head, None, None] * len(row)
        pieces[1::5] = pieces[3::5] = texts
        pieces[4::5] = map(ends.__getitem__, row)
    frobenius = {}
    ri = reverse[i]
    lo = 0
    while (pos := row.find(1, lo)) >= 0:
        j = pos if js is None else js[pos]
        rj = reverse[j]
        orbit = min(i * m + j, j * m + i, ri * m + rj, rj * m + ri)
        key = f"{top_text} / {texts[pos]}"
        if orbit in memo:
            rec, tail = memo[orbit]
            rec = {**rec, "key": key, "spec": key}
        else:
            rec = _pair_record(conjecture, key, parts[i], parts[j], 0)
            tail = _frobenius_tail(rec) if write else None
            memo[orbit] = rec, tail
        frobenius[pos] = rec
        if write:
            pieces[5 * pos + 4] = tail
        lo = pos + 1
    return "".join(pieces) if write else "", frobenius


def _pair_record_acts(rec: dict) -> bool:
    """Whether the unimodality sweep's consume does anything with rec; the
    rest need no keeping on resume. Raises ValueError when rec is acted on
    and its shape fields are not those of its spectrum (null for a null
    spectrum), since consume checks the proven claims on the fields."""
    if not (rec["frobenius"] or rec["unimodal"] is False):
        return False
    spectrum = rec["spectrum"]
    try:
        fields = (
            dict.fromkeys(SHAPE_FIELDS) if spectrum is None
            else shape_fields(IntegerMultiset.from_json_obj(spectrum))
        )
    except (AttributeError, TypeError) as exc:
        raise ValueError("the spectrum is no multiset") from exc
    if any(rec[name] is not fields[name] for name in SHAPE_FIELDS):
        raise ValueError("the shape fields are not those of the spectrum")
    return True


def _replay(
    job: SweepJob, fh: BinaryIO, census: list[bytearray], memos: dict[int, dict]
) -> tuple[int, dict[int, dict], int, bool] | None:
    """Check fh, from its start, against the records job writes: each row,
    in pair order, is made again as the writer makes it (memos is the
    run's, see _row_records) and compared with the file's next bytes, so
    no line is parsed and only one row is held.

    Returns the number of whole lines matched, the Frobenius records among
    them by slot (see _pair_slots; the regenerated records, which equal the
    file's byte for byte), the offset where those lines end, and whether
    the file is a prefix of job's records; any bytes after that offset of a
    prefix are a torn last line. At the first byte that differs, and at any
    byte past the end of job's records, the file is not a prefix, and only
    the whole rows before that byte count as matched; None when there are
    none.
    """
    lines = end = 0
    frobenius: dict[int, dict] = {}
    for n in range(job.n_min, job.n_max + 1):
        m = len(_compositions(n)[0])
        table = census[n]
        for i in range(m):
            row = table[i * m:(i + 1) * m]
            text, recs = _row_records(job.conjecture, n, i, None, True, row, memos)
            want = text.encode()
            got = fh.read(len(want))
            if got != want:
                if not want.startswith(got):
                    return (lines, frobenius, end, False) if lines else None
                # The file ends inside this row.
                whole = got.count(b"\n")
                frobenius.update((lines + j, rec) for j, rec in recs.items() if j < whole)
                return lines + whole, frobenius, end + got.rfind(b"\n") + 1, True
            frobenius.update((lines + j, rec) for j, rec in recs.items())
            lines += m
            end += len(want)
    return lines, frobenius, end, not fh.read(1)


def _resume_pairs(
    job: SweepJob,
    census: list[bytearray],
    memos: dict[int, dict],
    done: bytearray,
    slot: Callable[[bytes, bytes], int | None],
) -> list[dict]:
    """Mark the pairs already in job.out in done, and return the records
    among them that the unimodality sweep's consume acts on, in pair order.

    A file this code wrote is a prefix of the records job writes, and
    _replay checks it as one; a matching torn last line is truncated as
    _load_completed does. Any other file is read by _load_completed over
    the same handle, from the end of the whole rows the replay matched,
    whose flags and records it keeps.
    """
    with open(job.out, "rb") as fh:
        replayed = _replay(job, fh, census, memos)
        lines, frobenius, end, prefix = replayed or (0, {}, 0, False)
        done[:lines] = b"\x01" * lines
        if not prefix:
            fh.seek(end)
            kept = _load_completed(job, done, slot, _pair_record_acts, fh, frobenius, lines)
            return [kept[k] for k in sorted(kept)]
        torn = fh.tell() > end
    if torn:
        os.truncate(job.out, end)
    return list(frobenius.values())


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

    def consume(rec: dict) -> None:
        nonlocal frobenius_count
        if rec["frobenius"] and rec["spectrum"]:
            check_proven_claims(rec["spec"], rec["spectrum"], rec)
        if rec["frobenius"]:
            frobenius_count += 1
        if collect and rec["unimodal"] is False:
            counterexamples.append({"spec": rec["spec"], "spectrum": rec["spectrum"]})

    census = _census(job.n_max)  # one per run
    memos: dict[int, dict] = {}  # one per run, shared by the replay and the rows
    done = None
    if job.resume and os.path.exists(job.out):
        start, slot = _pair_slots(job)
        done = bytearray(start[job.n_max + 1])
        for rec in _resume_pairs(job, census, memos, done, slot):
            consume(rec)
    with open(job.out, "a", encoding="utf-8") if job.out else contextlib.nullcontext() as out:
        for n in range(job.n_min, job.n_max + 1):
            m = len(_compositions(n)[0])
            pairs += m * m
            table = census[n]
            for i in range(m):
                js = None
                if done is not None:
                    row = done[start[n] + i * m:start[n] + (i + 1) * m]
                    resumed = row.count(1)
                    if resumed == m:
                        continue
                    if resumed:
                        js = [j for j in range(m) if not row[j]]
                text, frobenius = _row_records(
                    job.conjecture, n, i, js, out is not None, table[i * m:(i + 1) * m], memos
                )
                # A row reaches the file before its records are checked,
                # so a record that fails a proven claim is on disk.
                if out:
                    out.write(text)
                for rec in frobenius.values():
                    consume(rec)

    counterexamples.sort(key=lambda c: c["spec"])
    return {
        "conjecture": job.conjecture,
        "n_min": job.n_min,
        "n_max": job.n_max,
        "pairs": pairs,
        "resumed": 0 if done is None else done.count(1),
        "frobenius": frobenius_count,
        "engine_invariant_failures": 0,
        "counterexamples": counterexamples,
    }


def default_extension_base(k: int) -> SeaweedSpec:
    """The stock Frobenius base with trailing top part k: (k+1)|k over 2k+1."""
    return SeaweedSpec(Composition((k + 1, k)), Composition((2 * k + 1,)))


def extension_variant_spec(base: SeaweedSpec, k: int, r: int, variant: str) -> SeaweedSpec:
    """The enlarged seaweed: r blocks of 2k appended to a base ending in k.

    "r_blocks" moves the trailing k to the bottom; "r_blocks_plus_k" keeps
    it on top after the new blocks.
    """
    if variant not in EXTENSION_VARIANTS:
        raise ValueError(f"variant must be one of {EXTENSION_VARIANTS}, got {variant!r}")
    a = base.top.parts
    if a[-1] != k:
        raise ValueError(f"base top must end in k={k}, got {base.top}")
    if variant == "r_blocks":
        top = a[:-1] + (2 * k,) * r
        bottom = base.bottom.parts + (2 * k,) * (r - 1) + (k,)
    else:
        top = a[:-1] + (2 * k,) * r + (k,)
        bottom = base.bottom.parts + (2 * k,) * r
    return SeaweedSpec(Composition(top), Composition(bottom))


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
    # Every base spectrum is taken now, before the sweep reads or opens its
    # output: a base that is not Frobenius leaves the file as it was.
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

    @lru_cache(maxsize=None)
    def spectrum_of(top: tuple, bottom: tuple) -> IntegerMultiset | None:
        """The spectrum, or None when the seaweed is not Frobenius: one
        kernel walk per seaweed and run."""
        counts = kernel.spectrum_counts(top, bottom)
        return None if counts is None else IntegerMultiset._from_histogram(counts)

    def consume(rec: dict) -> None:
        if not rec["passed"]:
            failed = [name for name in ("frobenius",) + names if rec.get(name) is False]
            counterexamples.append({"spec": rec["spec"], "failed": failed})

    points = list(grid(job, spectrum_of))  # first: 4_16 takes its base spectra here
    done = None
    if job.resume and os.path.exists(job.out):
        where = {str(g).encode(): k for k, (g, *_) in enumerate(points)}
        done = bytearray(len(points))
        kept = _load_completed(
            job,
            done,
            lambda top, bottom: where.get(top + b" / " + bottom),
            lambda rec: not rec["passed"],
        )
        for k in sorted(kept):
            consume(kept[k])
    with open(job.out, "a", encoding="utf-8") if job.out else contextlib.nullcontext() as out:
        for k, (g, params, fixed, checks) in enumerate(points):
            if done is not None and done[k]:
                continue
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
                out.write(json.dumps(rec) + "\n")
            consume(rec)

    counterexamples.sort(key=lambda c: c["spec"])
    summary = {
        "conjecture": job.conjecture,
        "k_max": job.k_max,
        "r_max": job.r_max,
        "checked": len(points),
        "resumed": 0 if done is None else done.count(1),
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
