"""Self-test of the benchmark, at tiny sizes. Run from the checkout root:

    python3 perfbench/selftest.py

It checks that every workload prints every metric BENCHMARK.json names,
with its unit, in both modes; that a deliberately wrong expected answer
shows up in `failed`; that `attempted` and `failed` do not depend on the
run's length; that a run outside a checkout fails without a result; that
results from different kernels are never compared; and that the traced run
reports a missing layer as absent.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
from run import WORKLOADS  # noqa: E402  (every workload run.py accepts)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(*extra: str, cwd: str = ROOT, script: str = os.path.join(HERE, "run.py")):
    return subprocess.run([sys.executable, script, "--seconds", "0.5", *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TinyRuns(unittest.TestCase):
    def check_metrics(self, proc, wanted: list[dict]) -> dict:
        result = result_of(proc)
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(set(result["metrics"]), {m["name"] for m in wanted})
        for m in wanted:
            got = result["metrics"][m["name"]]
            self.assertEqual(got["unit"], m["unit"], m["name"])
            self.assertIsInstance(got["value"], (int, float))
            self.assertIn(f"{m['name']} = ", proc.stdout)
        return result

    def test_every_workload_prints_every_metric(self):
        self.assertLessEqual({w["name"] for w in SPEC["workloads"]}, set(WORKLOADS))
        for workload in WORKLOADS:
            for trace, wanted in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
                with self.subTest(workload=workload, trace=trace):
                    proc = bench("--workload", workload, "--seed", "3", "--trace", str(trace),
                                 "--tiny")
                    result = self.check_metrics(proc, wanted)
                    self.assertTrue(result["correct"])
                    if trace == 0:
                        for metric in SPEC["end_to_end"]:
                            self.assertGreater(result["metrics"][metric["name"]]["value"], 0)
                    # The only failure allowed is the torn-tail probe's known defect.
                    failures = [line for line in proc.stdout.splitlines()
                                if line.startswith("failed op:")]
                    self.assertEqual(len(failures), result["failed"])
                    self.assertTrue(all("torn-tail" in line for line in failures), failures)

    def test_wrong_expected_answer_is_counted(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                proc = bench("--workload", workload, "--seed", "3", "--tiny", "--wrong-answer")
                result = result_of(proc)
                self.assertFalse(result["correct"])
                wrong = [line for line in proc.stdout.splitlines()
                         if line.startswith("failed op:") and "deliberately wrong" in line]
                self.assertEqual(len(wrong), 1)
                self.assertGreaterEqual(result["failed"], 1)

    def test_counts_do_not_depend_on_run_length(self):
        # Shorter and longer runs repeat the job a different number of times.
        counts = {(r["attempted"], r["failed"])
                  for r in (result_of(bench("--workload", "sweep_resume", "--seed", "3", "--tiny",
                                            "--seconds", seconds))
                            for seconds in ("0.5", "3"))}
        self.assertEqual(len(counts), 1, counts)

    def test_fails_without_the_package(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            for path in SPEC["paths"]:
                shutil.copytree(os.path.join(ROOT, path), os.path.join(tmp, path),
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", "sweep_fresh", "--seed", "1", "--trace", "0", cwd=tmp,
                         script=os.path.join(tmp, "perfbench", "run.py"))
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)


class Compare(unittest.TestCase):
    def test_refuses_results_from_different_kernels(self):
        import compare

        with tempfile.TemporaryDirectory() as tmp:
            paths = []
            for kernel in ("pure", "compiled"):
                meta = {"workload": "sweep_fresh", "seed": 1, "seconds": 1.0, "trace": 0,
                        "kernel": kernel, "python": "3.11.7", "nproc": 2, "commit": "c"}
                result = {"meta": meta, "correct": True, "attempted": 1, "failed": 0,
                          "metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}
                paths.append(os.path.join(tmp, f"{kernel}.json"))
                with open(paths[-1], "w", encoding="utf-8") as fh:
                    json.dump(result, fh)
            with self.assertRaises(compare.Refused):
                compare.make_entry("mixed", paths)
            pure, compiled = (compare.make_entry(k, [p]) for k, p in zip(("a", "b"), paths))
            with self.assertRaises(compare.Refused):
                compare.diff(pure, compiled)


class Layers(unittest.TestCase):
    def test_missing_name_is_reported_absent(self):
        sys.path.insert(0, os.path.join(ROOT, "src"))
        import layers

        saved = layers.LAYERS
        layers.LAYERS = saved + (("meander.walk", "seaweedspec.meander", "no_such_walk", None),)
        try:
            tracer = layers.Tracer()
            tracer.install()
        finally:
            layers.LAYERS = saved
        self.assertEqual(tracer.absent, ["seaweedspec.meander.no_such_walk"])


if __name__ == "__main__":
    unittest.main()
