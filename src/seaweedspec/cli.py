"""Command-line interface.

Subcommands: index, spectrum, extended, principal, matrix, render,
verify-family, verify-lemmas, sweep. The five query commands (index to
matrix) take a seaweed string like "2|4 / 1|2|3". They and verify-family
take --format {plain,json,csv} and --out; render and verify-lemmas take
--out only. One emitter writes every result but sweep's summary; in CSV,
a None cell is empty, a bool is true or false, and anything else is str.
The same arguments always produce the same bytes.

Exit codes: 0 success, 1 engine invariant violated, 2 conjecture
counterexample found, 3 spectrum requested for a non-Frobenius seaweed,
64 usage or domain error, an --out path the system refuses (a missing
directory, a directory in place of a file), a request that does not fit in
memory, or a sweep records file that holds bytes without --resume or is
not a prefix of the job's records with it, 141 (128 + SIGPIPE) stdout
closed by its reader, as by `| head`.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import fields
from functools import cache, partial
from itertools import product
from math import gcd

from . import __version__
from .analysis import (
    EngineInvariantError,
    verify_block_lemmas,
    verify_reverse_lemma,
    verify_skew_symmetry,
    verify_swap_lemma,
)
from .core import ParseError, _check_indexable, parse_seaweed
from .families import (
    FAMILIES,
    FamilyId,
    family_extended_spectrum,
    family_spec,
    family_spectrum,
)
from .meander import component_counts, index_sl
from .render import render_svg
from .spectrum import (
    SpectrumUndefinedError,
    extended_spectrum,
    extended_spectrum_matrix,
    matrix_text,
    principal_element,
    spectrum,
    spectrum_matrix,
)
from .sweep import CONJECTURES, SweepJob, run_sweep

EXIT_OK = 0
EXIT_ENGINE = 1
EXIT_COUNTEREXAMPLE = 2
EXIT_NOT_FROBENIUS = 3
EXIT_USAGE = 64
EXIT_PIPE = 141

_RANGE = re.compile(r"^(\d+)(?:\.\.(\d+))?(:odd)?$", re.ASCII)
_INT = re.compile(r"-?\d+", re.ASCII)


class _Parser(argparse.ArgumentParser):
    """argparse, but usage problems exit with code 64 instead of 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _err(message) -> None:
    print(f"error: {message}", file=sys.stderr)


def _cell(value) -> str:
    if value is None:
        return ""
    return str(value).lower() if isinstance(value, bool) else str(value)


def _emit(args, plain, obj=None, header=None, rows=None) -> None:
    """Write a command's result to --out, or to stdout. plain, obj and rows
    are callables, so only the format chosen is built: plain gives the text,
    obj the JSON object, and rows the CSV rows, which follow the header line
    if there is one. A command without --format writes plain."""
    fmt = getattr(args, "format", "plain")
    if fmt == "json":
        text = json.dumps(obj(), separators=(",", ":"))
    elif fmt == "csv":
        lines = [] if header is None else [header]
        lines += [",".join(map(_cell, row)) for row in rows()]
        text = "\n".join(lines)
    else:
        text = plain()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        print(text)


def _parse_range(text: str, flag: str) -> list[int]:
    m = _RANGE.match(text.strip())
    if not m:
        raise ParseError(f"bad {flag} range {text!r}: expected A, A..B, or A..B:odd")
    lo = int(m.group(1))
    hi = int(m.group(2)) if m.group(2) else lo
    if hi < lo:
        raise ParseError(f"bad {flag} range {text!r}: {hi} < {lo}")
    # A stepped range, so that listing a huge :odd range fails at once.
    values = range(lo | 1, hi + 1, 2) if m.group(3) else range(lo, hi + 1)
    if not values:
        # An empty grid checks nothing, so it must not report success.
        raise ParseError(f"bad {flag} range {text!r}: it holds no values")
    return list(values)


def _int(text: str) -> int:
    """An integer flag's value: an optional minus sign and ASCII digits."""
    if not _INT.fullmatch(text):
        raise argparse.ArgumentTypeError(f"invalid integer {text!r}: expected ASCII digits")
    return int(text)


def _indexable_seaweed(text: str):
    """parse_seaweed for a command that holds one item per vertex, so n must
    fit a kernel array (core._check_indexable); a larger n is refused before
    any kernel call. index takes parts of any size and parses on its own."""
    g = parse_seaweed(text)
    _check_indexable(g.n, "seaweed")
    return g


def cmd_index(args) -> int:
    g = parse_seaweed(args.seaweed)
    cycles, paths = component_counts(g.top.parts, g.bottom.parts)
    sl, gl = 2 * cycles + paths - 1, 2 * cycles + paths
    _emit(
        args, lambda: str(sl),
        obj=lambda: {"spec": str(g), "index_sl": sl, "index_gl": gl,
                     "paths": paths, "cycles": cycles, "frobenius": sl == 0},
        header="spec,index_sl,index_gl,paths,cycles,frobenius",
        rows=lambda: [(g, sl, gl, paths, cycles, sl == 0)],
    )
    return EXIT_OK


def cmd_spectrum(engine, args) -> int:
    """spectrum and extended: the multiset that engine gives the seaweed."""
    s = engine(_indexable_seaweed(args.seaweed))
    _emit(args, s.to_text, obj=s.to_json_obj, header="eigenvalue,multiplicity", rows=s.items)
    return EXIT_OK


def cmd_principal(args) -> int:
    g = _indexable_seaweed(args.seaweed)
    diag = principal_element(g)
    _emit(
        args, lambda: " ".join(map(str, diag)),
        obj=lambda: {"spec": str(g), "diagonal": list(map(str, diag))},
        header="vertex,value", rows=lambda: enumerate(diag, start=1),
    )
    return EXIT_OK


def cmd_matrix(args) -> int:
    g = _indexable_seaweed(args.seaweed)
    m = extended_spectrum_matrix(g) if args.extended else spectrum_matrix(g)
    _emit(
        args, lambda: matrix_text(m),
        obj=lambda: {"spec": str(g), "extended": args.extended, "rows": list(map(list, m))},
        rows=lambda: m,
    )
    return EXIT_OK


def cmd_render(args) -> int:
    g = _indexable_seaweed(args.seaweed)
    _emit(args, lambda: render_svg(g))
    return EXIT_OK


def cmd_verify_family(args) -> int:
    fam = FamilyId(args.family)
    row = FAMILIES[fam]
    ranges = {"k": args.k, "r": args.r}
    for name, text in ranges.items():
        if name in row.params and not text:
            raise ParseError(f"family {fam.value} needs --{name}")
        if name not in row.params and text is not None:
            raise ParseError(f"family {fam.value} takes no --{name}")
    k_values, r_values = (
        _parse_range(text, f"--{name}") if name in row.params else [None]
        for name, text in ranges.items()
    )

    # A closed form that disagrees with the engine is a failed proven
    # identity, so the first mismatch ends the command; only passing points
    # are ever printed.
    points = list(product(k_values, r_values))
    for k, r in points:
        g = family_spec(fam, k, r)
        _check_indexable(g.n, "seaweed")
        closed = [("spectrum", family_spectrum(fam, k, r), spectrum)]
        if row.extended:
            closed.append(
                ("extended spectrum", family_extended_spectrum(fam, k, r), extended_spectrum)
            )
        for what, want, engine in closed:
            got = engine(g)
            if got != want:
                raise EngineInvariantError(
                    f"family {fam.value} failure at k={k}, r={r}: closed-form {what} "
                    f"{want.to_text()} vs engine {got.to_text()}"
                )

    def plain():
        named = [[f"{p}={v}" for p, v in zip("kr", point) if v is not None] for point in points]
        lines = [" ".join([fam.value, *where, "ok"]) for where in named]
        return "\n".join([*lines, f"{len(points)}/{len(points)} pass"])

    _emit(
        args, plain,
        obj=lambda: {"family": fam.value,
                     "results": [{"k": k, "r": r, "ok": True} for k, r in points],
                     "passed": len(points), "total": len(points)},
        header="family,k,r,ok", rows=lambda: [(fam.value, k, r, True) for k, r in points],
    )
    return EXIT_OK


def cmd_verify_lemmas(args) -> int:
    # An empty grid checks nothing, so it must not report success.
    for flag, bound in (("--max-k", args.max_k), ("--max-m", args.max_m)):
        if bound < 1:
            raise ParseError(f"{flag} must be at least 1, got {bound}")
    lines = []
    if args.seaweed:
        g = _indexable_seaweed(args.seaweed)
        verify_swap_lemma(g)
        verify_reverse_lemma(g)
        verify_skew_symmetry(g)
        lines += [f"{g} {check} ok" for check in ("swap", "reverse", "skew")]
    triples = []
    if args.k1 is not None or args.k2 is not None or args.m is not None:
        if None in (args.k1, args.k2, args.m):
            raise ParseError("--k1, --k2 and --m must be given together")
        triples = [(args.k1, args.k2, args.m)]
    elif not args.seaweed:
        triples = [
            (k1, k2, m)
            for k1 in range(1, args.max_k + 1)
            for k2 in range(1, args.max_k + 1)
            if gcd(k1, k2) == 1
            for m in range(1, args.max_m + 1)
        ]
    for k1, k2, m in triples:
        performed = verify_block_lemmas(k1, k2, m)
        lines.append(f"blocks k1={k1} k2={k2} m={m} ok ({', '.join(performed)})")
    lines.append(f"{len(lines)} checks pass")
    _emit(args, lambda: "\n".join(lines))
    return EXIT_OK


def cmd_sweep(args) -> int:
    summary = run_sweep(SweepJob(**{f.name: getattr(args, f.name) for f in fields(SweepJob)}))
    print(json.dumps(summary, indent=2))
    return EXIT_COUNTEREXAMPLE if summary["counterexamples"] else EXIT_OK


def _command(sub, name, fn, help, *, formats=True, seaweed=True):
    """A subcommand that writes through _emit: its seaweed argument, unless
    seaweed is false, then --format, unless formats is false, and --out."""
    p = sub.add_parser(name, help=help)
    if seaweed:
        p.add_argument("seaweed", help='seaweed string, e.g. "2|4 / 1|2|3"')
    if formats:
        p.add_argument("--format", choices=("plain", "json", "csv"), default="plain")
    p.add_argument("--out", help="write output to this file instead of stdout")
    p.set_defaults(func=fn)
    return p


@cache
def build_parser() -> _Parser:
    """The parser, built once per process: each build leaves a few hundred
    objects in reference cycles for the cycle collector."""
    parser = _Parser(prog="seaweedspec", description=__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    _command(sub, "index", cmd_index, "index of the seaweed from its meander")
    _command(sub, "spectrum", partial(cmd_spectrum, spectrum),
             "eigenvalue multiset of a Frobenius seaweed")
    _command(sub, "extended", partial(cmd_spectrum, extended_spectrum),
             "extended eigenvalue multiset (all n^2 - 1)")
    _command(sub, "principal", cmd_principal, "diagonal of the principal element")
    p = _command(sub, "matrix", cmd_matrix, "eigenvalue matrix, masked or extended")
    p.add_argument("--extended", action="store_true",
                   help="use all n^2 positions instead of the admissible mask")
    _command(sub, "render", cmd_render, "draw the oriented meander as SVG", formats=False)

    p = _command(sub, "verify-family", cmd_verify_family,
                 "closed-form family spectra against the engine", seaweed=False)
    p.add_argument("family", choices=[f.value for f in FamilyId])
    p.add_argument("--k", help="k range: A, A..B, or A..B:odd")
    p.add_argument("--r", help="r range: A or A..B")

    p = _command(sub, "verify-lemmas", cmd_verify_lemmas,
                 "swap/reverse/skew identities and corner-block identities",
                 formats=False, seaweed=False)
    p.add_argument("--spec", dest="seaweed", help="seaweed for the symmetry checks")
    p.add_argument("--k1", type=_int)
    p.add_argument("--k2", type=_int)
    p.add_argument("--m", type=_int)
    p.add_argument("--max-k", type=_int, default=8,
                   help="grid bound for k1 and k2 when no triple is given")
    p.add_argument("--max-m", type=_int, default=4)

    p = sub.add_parser("sweep", help="exhaustive or targeted conjecture sweeps")
    p.add_argument("--conjecture", choices=CONJECTURES, default="unimodal_2_8")
    p.add_argument("--n-min", type=_int, default=1)
    p.add_argument("--n-max", type=_int, default=10)
    p.add_argument("--k-max", type=_int, default=8)
    p.add_argument("--r-max", type=_int, default=6)
    p.add_argument("--base", help="base seaweed for stability_4_16")
    p.add_argument("--out", metavar="RECORDS",
                   help="write NDJSON records to this missing or empty file")
    p.add_argument("--resume", action="store_true",
                   help="continue a records file that holds a prefix of this job's records")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    """Run one command. This is the one place where an error becomes an
    exit code; a spectrum undefined for the command's seaweed argument
    names that seaweed's index."""
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at shutdown
        return code
    except BrokenPipeError:
        # The reader of stdout has left: not an error of the command. The
        # output goes to devnull, so the flush at shutdown cannot raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except OSError as exc:
        # An --out path the system refuses: the command's arguments are at
        # fault, not the engine.
        _err(exc)
        return EXIT_USAGE
    except MemoryError:  # the request is at fault, not the engine
        _err("out of memory: the request is too large for the memory available")
        return EXIT_USAGE
    except EngineInvariantError as exc:
        _err(exc)
        return EXIT_ENGINE
    except SpectrumUndefinedError as exc:
        seaweed = getattr(args, "seaweed", None)
        _err(f"{exc} (index {index_sl(parse_seaweed(seaweed))})" if seaweed else exc)
        return EXIT_NOT_FROBENIUS
    except ValueError as exc:
        _err(exc)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
