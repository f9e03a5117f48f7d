"""Keep the benchmark trajectory and compare two of its entries.

    python3 perfbench/compare.py add LABEL RESULT.json...
    python3 perfbench/compare.py diff OLD_LABEL NEW_LABEL

``add`` folds result files written by ``run.py --save`` into one entry of
``perfbench/trajectory.json``: per workload and metric, the median and
quartiles over the runs, with the machine (nproc, Python, kernel), the
commit and the seeds. ``diff`` compares two entries metric by metric
against the bounds in BENCHMARK.json. Both refuse to mix results whose
kernels (``kernel_implementation()``) differ.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
TRAJECTORY = os.path.join(HERE, "trajectory.json")
BENCHMARK = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")
MACHINE = ("kernel", "python", "nproc")


class Refused(Exception):
    pass


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": len(values)}


def make_entry(label: str, paths: list[str]) -> dict:
    results = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            results.append(json.load(fh))
    machines = {tuple(r["meta"][k] for k in MACHINE) for r in results}
    if len(machines) != 1:
        raise Refused(f"results come from different kernels or machines: {sorted(machines)}")
    commits = {r["meta"]["commit"] for r in results}
    workloads: dict = {}
    for r in results:
        meta = r["meta"]
        w = workloads.setdefault(meta["workload"], {"seeds": [], "attempted": 0, "failed": 0,
                                                    "correct": True, "metrics": {}})
        if not meta["trace"]:
            w["seeds"].append(meta["seed"])
        w["attempted"] += r["attempted"]
        w["failed"] += r["failed"]
        w["correct"] = w["correct"] and r["correct"]
        for name, m in r["metrics"].items():
            w["metrics"].setdefault(name, {"unit": m["unit"], "values": []})["values"].append(m["value"])
    for w in workloads.values():
        for m in w["metrics"].values():
            m.update(summarize(m.pop("values")))
    return {
        "label": label,
        "commit": commits.pop() if len(commits) == 1 else sorted(commits),
        "machine": dict(zip(MACHINE, machines.pop())),
        "seconds": results[0]["meta"]["seconds"],
        "workloads": workloads,
    }


def load_trajectory() -> list[dict]:
    if not os.path.exists(TRAJECTORY):
        return []
    with open(TRAJECTORY, encoding="utf-8") as fh:
        return json.load(fh)


def find(trajectory: list[dict], label: str) -> dict:
    for entry in trajectory:
        if entry["label"] == label:
            return entry
    raise Refused(f"no trajectory entry labelled {label!r}")


def diff(old: dict, new: dict) -> list[str]:
    if old["machine"] != new["machine"]:
        raise Refused(f"entries ran on different kernels or machines: "
                      f"{old['machine']} vs {new['machine']}")
    with open(BENCHMARK, encoding="utf-8") as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    lines = [f"{old['label']} -> {new['label']} on {new['machine']}"]
    for workload, w_new in new["workloads"].items():
        w_old = old["workloads"].get(workload)
        if w_old is None:
            lines.append(f"{workload}: not in {old['label']}")
            continue
        lines.append(f"{workload}: failed {w_old['failed']}/{w_old['attempted']} -> "
                     f"{w_new['failed']}/{w_new['attempted']}")
        for name, m_new in w_new["metrics"].items():
            m_old = w_old["metrics"].get(name)
            if m_old is None:
                continue
            change = (m_new["median"] - m_old["median"]) / m_old["median"] if m_old["median"] else 0.0
            verdict = ""
            if name in bounds:
                bound = bounds[name]["bound"]
                sign = 1 if bounds[name]["better"] == "lower" else -1
                spread = (m_old["q3"] - m_old["q1"]) / m_old["median"]
                if spread > bound:
                    verdict = "unresolved (spread wider than bound)"
                elif sign * change > bound:
                    verdict = "WORSE than bound"
                else:
                    verdict = "within bound" if sign * change >= -bound else "better than bound"
            lines.append(f"  {name:36} {m_old['median']:12.6g} -> {m_new['median']:12.6g} "
                         f"{m_new['unit']:6} {change:+8.1%}  {verdict}")
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("add", help="append an entry built from saved results")
    p.add_argument("label")
    p.add_argument("results", nargs="+")
    p = sub.add_parser("diff", help="compare two trajectory entries")
    p.add_argument("old")
    p.add_argument("new")
    args = parser.parse_args(argv)
    try:
        trajectory = load_trajectory()
        if args.command == "add":
            if any(e["label"] == args.label for e in trajectory):
                raise Refused(f"label {args.label!r} is already in the trajectory")
            trajectory.append(make_entry(args.label, args.results))
            with open(TRAJECTORY, "w", encoding="utf-8") as fh:
                json.dump(trajectory, fh, indent=1)
                fh.write("\n")
        else:
            print("\n".join(diff(find(trajectory, args.old), find(trajectory, args.new))))
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
