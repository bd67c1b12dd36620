#!/usr/bin/env python3
"""Repeat the benchmark over seeds and report each metric's spread.

    python3 perfbench/prove.py --runs 10 [--workloads cut_stream,...]
                               [--trace 0] [--out perfbench/baseline.json --label <commit>]

Runs `run.py --workload W --seed S` for seeds 1..runs on every workload and,
for every metric, prints the median, the first and third quartiles
(statistics.quantiles(values, n=4)) and the spread (q3 - q1) / median next
to the bound BENCHMARK.json fixes. A spread above a third of its bound is
flagged. With --out the medians, quartiles and per-seed values are appended
as one trajectory point to the JSON list in that file (the format of
baseline.json).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    parser.add_argument("--label", default="")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    point = {"label": args.label, "date": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
             "runs": args.runs, "seconds": args.seconds,
             "trace": args.trace, "workloads": {}}
    status = 0
    for workload in args.workloads.split(","):
        values = {}
        units = {}
        walls = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            start = time.monotonic()
            done = subprocess.run(
                [sys.executable, os.path.join(ROOT, "perfbench", "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, cwd=ROOT)
            walls.append(time.monotonic() - start)
            try:
                result = json.loads(done.stdout.strip().splitlines()[-1])
            except (IndexError, ValueError):
                result = {"correct": False, "metrics": {}}
            if done.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: run failed or incorrect")
                status = 1
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
                units[name] = metric["unit"]
        print(f"{workload}: {args.runs} runs, wall {min(walls):.1f}-{max(walls):.1f} s")
        rows = {}
        for name in sorted(values):
            q1, med, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None and spread > bound / 3:
                flag = "  <-- above a third of the bound"
            print(f"  {name:28s} median {med:14.6g} {units[name]:8s} q1 {q1:14.6g} q3 {q3:14.6g}"
                  f" spread {spread:7.4f} bound {bound}{flag}")
            rows[name] = {"unit": units[name], "median": med, "q1": q1, "q3": q3,
                          "spread": spread, "values": values[name]}
        point["workloads"][workload] = rows
    if args.out:
        trajectory = []
        if os.path.exists(args.out):
            with open(args.out) as handle:
                trajectory = json.load(handle)
        trajectory.append(point)
        with open(args.out, "w") as handle:
            json.dump(trajectory, handle, indent=1)
            handle.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
