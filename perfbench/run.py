#!/usr/bin/env python3
"""Build and run facet's benchmark of record.

    python3 perfbench/run.py --workload cut_stream --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

The first form builds the benchmark (Release, into .bench_build/ at the
repository root) from the repository's own sources when needed, then runs one
workload. The benchmark's last stdout line is the JSON result
{correct, attempted, failed, metrics}; its full result file (workload shape,
metrics, per-layer table, spans) lands in .bench_build/results/.

--smoke runs every workload at tiny scale, untraced and traced, with all
oracle checks on: the benchmark's own test. It exits nonzero on any failure.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "facet_perfbench")
WORKLOADS = ("cut_stream", "library_classify")


def build():
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src", "facet"))):
        sys.exit("perfbench: the facet sources (CMakeLists.txt, src/facet) "
                 "are not beside perfbench/")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "--target", "facet_perfbench", "-j", jobs])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            sys.exit("perfbench: build step failed: " + " ".join(step))


def run(workload, seed, seconds, trace, smoke=False, capture=False):
    results = os.path.join(BUILD, "results")
    work = os.path.join(BUILD, "work")
    os.makedirs(results, exist_ok=True)
    os.makedirs(work, exist_ok=True)
    command = [BINARY, "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace),
               "--work-dir", work, "--out-dir", results]
    if smoke:
        command.append("--smoke")
    return subprocess.run(command, stdout=subprocess.PIPE if capture else None,
                          text=True)


def smoke():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)
    expected = {0: {m["name"] for m in spec["end_to_end"]},
                1: {m["name"] for m in spec["per_layer"]}}
    failures = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            done = run(workload, 1, 1, trace, smoke=True, capture=True)
            lines = done.stdout.strip().splitlines()
            try:
                result = json.loads(lines[-1])
            except (IndexError, ValueError):
                result = {}
            names = set(result.get("metrics", {}))
            ok = (done.returncode == 0 and result.get("correct") is True
                  and result.get("failed") == 0 and result.get("attempted", 0) >= 1
                  and names == expected[trace])
            print(f"smoke {workload} trace={trace}: {'ok' if ok else 'FAILED'}")
            if not ok:
                failures.append((workload, trace))
                print(done.stdout[-2000:])
                missing = sorted(expected[trace] - names)
                extra = sorted(names - expected[trace])
                if missing or extra:
                    print(f"  metric names differ: missing {missing}, extra {extra}")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not args.smoke and args.workload is None:
        parser.error("--workload is required (or --smoke)")
    build()
    if args.smoke:
        return smoke()
    return run(args.workload, args.seed, args.seconds, args.trace).returncode


if __name__ == "__main__":
    sys.exit(main())
