"""One workload in a fresh process: set up, run the closed loop, report.

Started by ``run.py``; not meant to be run by hand. It imports the package
from ``<root>/src``, builds the workload's inputs from the seed, prints
``ready`` (the parent times set-up up to that line), and unless
``--setup-only`` is given runs jobs in a closed loop for ``--seconds``: one
caller, each operation starting after the previous one returned. The last
stdout line is a JSON report for the parent.

With ``--trace 1`` the loop runs twice for half the time each: untraced,
then with the layer wrappers of ``layers.py`` installed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import signal
import sys
from time import perf_counter

import speed

#: Timed operations shorter than this share a pair of speed probes.
SEGMENT_S = 0.25
#: Longer operations are also probed this often while they run.
INTERVAL_S = 0.3


def load_package(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import seaweedspec

    where = os.path.dirname(os.path.abspath(seaweedspec.__file__))
    if os.path.dirname(where) != os.path.abspath(src):
        raise SystemExit(f"seaweedspec was imported from {where}, not from {src}")
    return seaweedspec


class Phase:
    """Timings and outcomes of one closed-loop phase.

    Timed operations run in *segments* of about ``SEGMENT_S`` seconds (one
    operation when it is longer), each between two host speed probes. In
    the untraced phase a timer also interrupts an operation every
    ``INTERVAL_S`` to probe the host while it runs, and the probe's time is
    taken out of the operation's; a traced phase skips this, so that no
    layer span holds a probe. The report keeps every probe and the raw time
    of each operation, which ``run.py`` turns into reference seconds (see
    ``speed.py``). An operation is identified by its place in the job; it
    counts once in ``ops`` however often it was repeated, and once in
    ``failed_ops`` if any repeat of it failed.
    """

    def __init__(self, tracer=None):
        from workloads import WrongAnswer

        self.wrong_answer = WrongAnswer
        self.tracer = tracer
        self.jobs = 0
        self.ops_per_job = 0
        # ([probe seconds, ...], [(place in the job, raw seconds), ...])
        self.segments: list[tuple[list[float], list[tuple[int, float]]]] = []
        self.ops: set[str] = set()
        self.failed_ops: set[str] = set()
        self.wrong = 0
        self.errors: list[str] = []
        self._segment: list[tuple[int, float]] = []
        self._probes: list[float] = []
        self._in_op_probe_s = 0.0

    def _probe_in_op(self, signum, frame) -> None:
        t0 = perf_counter()
        self._probes.append(speed.probe())
        self._in_op_probe_s += perf_counter() - t0

    def fail(self, key: str, message: str) -> None:
        if key not in self.failed_ops:
            self.errors.append(message)
        self.failed_ops.add(key)

    def op(self, key: str, op, timed: int | None = None, close: bool = True) -> float:
        """Run one operation; `timed` is its place in the job, None for an untimed probe.

        Returns the operation's raw time. `close` ends the segment after it.
        """
        self.ops.add(key)
        op.prepare()
        if timed is not None and not self._segment:
            self._probes = [speed.probe()]
        tracing = timed is not None and self.tracer is not None
        sampling = timed is not None and self.tracer is None
        self._in_op_probe_s = 0.0
        raised = False
        if sampling:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        t0 = perf_counter()
        try:
            if tracing:
                self.tracer.enabled = True
            result = op.run()
        except Exception as exc:  # any failure inside the program is a failed op
            self.fail(key, f"{op.name}: raised {type(exc).__name__}: {exc}")
            raised = True
        finally:
            if sampling:
                signal.setitimer(signal.ITIMER_REAL, 0)
            dt = perf_counter() - t0 - self._in_op_probe_s
            if tracing:
                self.tracer.enabled = False
            if timed is not None:
                self._segment.append((timed, dt))
                if close or sum(t for _, t in self._segment) >= SEGMENT_S:
                    self._close_segment()
        if raised:
            return dt
        try:
            op.check(result)
        except self.wrong_answer as exc:
            self.wrong += 1
            self.fail(key, f"{op.name}: wrong answer: {exc}")
        except Exception as exc:  # an output the check cannot even read is wrong
            self.wrong += 1
            self.fail(key, f"{op.name}: unreadable output: {type(exc).__name__}: {exc}")
        return dt

    def _close_segment(self) -> None:
        self._probes.append(speed.probe())
        self.segments.append((self._probes, self._segment))
        self._segment = []

    def run(self, workload, seconds: float) -> "Phase":
        """Repeat the job's operations in order until the next would end after the deadline.

        The first job always completes. An untraced run may stop partway
        through a later job, so that the whole run is used; operations early
        in the job then have one repeat more than the rest. A traced run
        stops between jobs, so that its per-job layer counts are exact.
        """
        ops = workload.ops()
        self.ops_per_job = len(ops)
        signal.signal(signal.SIGALRM, self._probe_in_op)
        deadline = perf_counter() + seconds
        last = [0.0] * len(ops)
        while True:
            for i, op in enumerate(ops):
                if self.tracer is None:
                    stop = self.jobs and perf_counter() + last[i] > deadline
                else:
                    stop = self.jobs and i == 0 and perf_counter() + sum(last) > deadline
                if stop:
                    if self._segment:
                        self._close_segment()
                    return self
                last[i] = self.op(str(i), op, timed=i, close=i == len(ops) - 1)
            self.jobs += 1

    def report(self) -> dict:
        return {
            "jobs": self.jobs,
            "ops_per_job": self.ops_per_job,
            "segments": self.segments,
            "ops": sorted(self.ops),
            "failed_ops": sorted(self.failed_ops),
            "wrong": self.wrong,
            "errors": self.errors[:20],
        }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", required=True)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--wrong-answer", action="store_true")
    args = parser.parse_args()

    ss = load_package(args.root)
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](random.Random(args.seed), args.workdir, args.tiny)
    workload.wrong = args.wrong_answer
    print("ready", flush=True)
    if args.setup_only:
        workload.close()
        return 0

    report = {"kernel": ss.kernel_implementation()}
    speed.warm_up()
    try:
        seconds = args.seconds / 2 if args.trace else args.seconds
        phase = Phase().run(workload, seconds)
        report["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        for i, probe in enumerate(workload.probes()):
            phase.op(f"untimed{i}", probe)
        report["untraced"] = phase.report()
        if args.trace:
            from layers import Tracer
            from workloads import Stats

            tracer = Tracer()
            tracer.install()
            workload.stats = Stats()
            report["traced"] = Phase(tracer).run(workload, seconds).report()
            report["trace"] = {
                "self_s": dict(tracer.self_s),
                "calls": dict(tracer.calls),
                "counts": dict(tracer.counts),
                "absent": tracer.absent,
                "stats": vars(workload.stats),
            }
    finally:
        workload.close()
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
