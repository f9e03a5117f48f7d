"""seaweedspec benchmark: one workload, end-to-end or per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload sweep_resume --seed 1 --seconds 25 --trace 0

Workloads (see workloads.py for the inputs and the checks):
  sweep_fresh   exhaustive unimodal_2_8 sweep, n <= 9, with --out to a new file
  sweep_resume  the same sweep with --resume over a seeded half-written file,
                plus one untimed resume over a torn last line
  query_large   index_sl, spectrum, extended_spectrum, principal_element at
                n ~ 10^2, 10^3 and 4*10^3
  verify_grid   swap/reverse/skew self-checks, verify_block_lemmas grid,
                verify-family points

Each workload runs in fresh worker processes that import the package from
``src/`` of this checkout. ``setup_s`` is the median, over several worker
starts, of the time from spawning the interpreter to its inputs being ready.
The timed worker then runs whole jobs in a closed loop (one caller, one
operation at a time) for ``--seconds``. Every job runs the same operations,
and each operation is reported at the median of its repeats. All times are
in reference seconds: rescaled by a host speed probe taken next to them, so
that the shared machine's changing speed cancels out (see speed.py).

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the loop
untraced and then traced for half the time each and prints the per-layer
metrics, every one of them per job. The last stdout line is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
``attempted`` counts the workload's distinct operations, however often the
loop repeated them, and ``failed`` those of them that failed at least once,
so both depend only on the inputs and the code, not on the host's speed.
Exit status is 0 when a result was printed, 2 when the package is missing,
1 when a worker failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from time import perf_counter

import speed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sweep_fresh", "sweep_resume", "query_large", "verify_grid")
#: Worker starts whose set-up time is measured in an untraced run.
SETUPS = 5
#: A run must end within this many seconds of starting.
DEADLINE_S = 170


def tail(samples: list[float]) -> tuple[float, float]:
    """(percentile, value): the highest percentile with ten samples beyond it.

    Nearest-rank on the sorted samples; never below the median, so with
    fewer than ~20 samples the tail is reported as the median (p50).
    """
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - 10  # 1-based rank with exactly ten samples above it
    if rank < 1 or ordered[rank - 1] < statistics.median(ordered):
        return 50.0, statistics.median(ordered)
    return 100.0 * rank / n, ordered[rank - 1]


def commit() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or "unknown"


class Worker:
    """A worker process; its set-up time runs from spawn to its `ready` line.

    The set-up time is rescaled to reference seconds with speed probes
    taken right before the spawn and right after the line arrives.
    """

    def __init__(self, args, workdir: str, setup_only: bool):
        argv = [sys.executable, os.path.join(HERE, "worker.py"), "--root", ROOT,
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace),
                "--workdir", workdir]
        argv += ["--setup-only"] if setup_only else []
        argv += ["--tiny"] if args.tiny else []
        argv += ["--wrong-answer"] if args.wrong_answer else []
        before = speed.probe()
        t0 = perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        try:
            line = self.proc.stdout.readline()
            self.setup_s = (perf_counter() - t0) * speed.scale([before, speed.probe()])
            if line.strip() != "ready":
                raise RuntimeError(f"{args.workload} worker failed during set-up")
        except BaseException:
            self.stop()
            raise

    def finish(self, timeout: float) -> str:
        try:
            out, _ = self.proc.communicate(timeout=timeout)
        finally:
            self.stop()
        if self.proc.returncode != 0:
            raise RuntimeError(f"worker exited {self.proc.returncode}")
        return out

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self.proc.stdout.close()


def run_workers(args, workdir: str, started: float) -> tuple[list[float], dict]:
    """Set-up probes (half before, half after the timed worker) and the timed worker.

    Slowdowns on a shared machine come in bursts of seconds, so set-ups
    spread over the run sample more of them than back-to-back ones would.
    """
    def deadline() -> float:
        return max(1.0, started + DEADLINE_S - perf_counter())

    def probe(i: int) -> float:
        worker = Worker(args, os.path.join(workdir, f"setup{i}"), setup_only=True)
        worker.finish(timeout=deadline())
        return worker.setup_s

    speed.warm_up()
    probes = 0 if args.trace else SETUPS - 1
    setups = [probe(i) for i in range(probes // 2)]
    worker = Worker(args, os.path.join(workdir, "main"), setup_only=False)
    setups.append(worker.setup_s)
    report = json.loads(worker.finish(timeout=deadline()).strip().splitlines()[-1])
    setups += [probe(i) for i in range(probes // 2, probes)]
    return setups, report


def factors(phase: dict) -> list[float]:
    """Each segment's factor from raw to reference seconds."""
    return [speed.scale(probes) for probes, _ in phase["segments"]]


def per_op(phase: dict) -> list[float]:
    """Each operation's time in reference seconds: the median of its repeats, one per job."""
    times: list[list[float]] = [[] for _ in range(phase["ops_per_job"])]
    for factor, (_, ops) in zip(factors(phase), phase["segments"]):
        for index, dt in ops:
            times[index].append(dt * factor)
    return [statistics.median(t) for t in times]


def end_to_end(setups: list[float], phase: dict, peak_rss_kib: int) -> tuple[dict, str]:
    ops = per_op(phase)
    pct, tail_s = tail(ops)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(ops), "s"),
        "op_p50_ms": (1000 * statistics.median(ops), "ms"),
        "op_tail_ms": (1000 * tail_s, "ms"),
        "peak_rss_mb": (peak_rss_kib / 1024, "MB"),
    }
    note = (f"times are reference seconds (median host speed factor "
            f"{statistics.median(factors(phase)):.3f}); setup_s is the median of "
            f"{len(setups)} set-ups; each of the {len(ops)} operations of a job is timed at "
            f"its median over its repeats in {phase['jobs']} whole jobs and a part of one; "
            f"wall_s is their sum, op_tail_ms their p{pct:.4g}")
    return metrics, note


def per_layer(report: dict) -> tuple[dict, str]:
    from layers import LAYER_NAMES

    trace = report["trace"]
    jobs = report["traced"]["jobs"]
    # Layer self times are raw; the phase's median factor puts them in reference seconds.
    factor = statistics.median(factors(report["traced"]))
    self_s, calls, counts, stats = trace["self_s"], trace["calls"], trace["counts"], trace["stats"]
    metrics = {}
    for layer in LAYER_NAMES:
        if layer in ("sweep", "cli"):
            metrics[f"{layer}.self_s"] = (factor * self_s.get(layer, 0.0) / jobs, "s")
            continue
        metrics[f"{layer}.s"] = (factor * self_s.get(layer, 0.0) / jobs, "s")
        metrics[f"{layer}.calls"] = (calls.get(layer, 0) / jobs, "count")
        if layer == "kernel.component_counts":
            metrics["kernel.component_counts.vertices"] = (
                counts.get("kernel.component_counts.vertices", 0) / jobs, "count")
            census = calls.get(layer, 0)
            metrics["kernel.frobenius_ratio"] = (
                counts.get("kernel.frobenius", 0) / census if census else 0.0, "ratio")
        if layer == "kernel.spectrum_counts":
            metrics["kernel.spectrum_counts.positions"] = (
                counts.get("kernel.spectrum_counts.positions", 0) / jobs, "count")
        if layer == "sweep.read_records":
            metrics["sweep.records_read"] = (counts.get("sweep.records_read", 0) / jobs, "count")
    metrics["sweep.records_written"] = (stats["records_written"] / jobs, "count")
    metrics["sweep.record_bytes"] = (stats["record_bytes"] / jobs, "B")
    metrics["sweep.resumed_ratio"] = (
        stats["resumed"] / stats["pairs"] if stats["pairs"] else 0.0, "ratio")
    metrics["trace.overhead_s"] = (
        sum(per_op(report["traced"])) - sum(per_op(report["untraced"])), "s")
    metrics["trace.layers_absent"] = (len(trace["absent"]), "count")
    absent = ", ".join(trace["absent"]) or "none"
    return metrics, f"per-layer values are per job, over {jobs} traced jobs; absent layers: {absent}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="also write the result with its metadata to this file")
    parser.add_argument("--tiny", action="store_true", help="self-test sizes")
    parser.add_argument("--wrong-answer", action="store_true",
                        help="self-test: expect a deliberately wrong answer once")
    args = parser.parse_args(argv)
    started = perf_counter()

    if not os.path.isfile(os.path.join(ROOT, "src", "seaweedspec", "__init__.py")):
        print(f"error: no package at {os.path.join(ROOT, 'src', 'seaweedspec')}", file=sys.stderr)
        return 2

    scratch = os.path.join(ROOT, ".perfbench_work")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    try:
        for sub in ("main", *(f"setup{i}" for i in range(SETUPS - 1))):
            os.mkdir(os.path.join(workdir, sub))
        try:
            setups, report = run_workers(args, workdir, started)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass  # another run is still using it

    phases = [report["untraced"]] + ([report["traced"]] if args.trace else [])
    if args.trace:
        metrics, note = per_layer(report)
    else:
        metrics, note = end_to_end(setups, report["untraced"], report["peak_rss_kib"])
    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "tiny": args.tiny, "kernel": report["kernel"],
        "python": platform.python_version(), "nproc": os.cpu_count(), "commit": commit(),
    }
    result = {
        "correct": all(p["wrong"] == 0 for p in phases),
        "attempted": len(set().union(*(p["ops"] for p in phases))),
        "failed": len(set().union(*(p["failed_ops"] for p in phases))),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print("meta " + json.dumps(meta))
    for p in phases:
        for error in p["errors"]:
            print(f"failed op: {error}")
    print(note)
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    if args.save:
        raw = {"setups": setups, **{name: report[name] for name in ("untraced", "traced")
                                     if name in report}}
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump({"meta": meta, "note": note, **result, "raw": raw}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
