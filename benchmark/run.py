#!/usr/bin/env python3
"""Build the PR-DRB benchmark from source and run one workload.

    python3 benchmark/run.py --workload hotspot-deep --seed 1 --seconds 20 --trace 0
    python3 benchmark/run.py --selftest

Run from the repository root. The simulator library is compiled from src/
into .bench_build/ on the first call (CMake, RelWithDebInfo). A run is split
over PARTS measuring processes, started one after the other, each simulating
its share of the workload's input instances for seconds / PARTS: set-up and
run times depend on the memory layout a process happens to get, so one
process alone reads high or low. Each metric is the median of the samples
of all parts (peak_rss_mb is the largest process peak). The last line of
standard output is the result object; see benchmark/NOTES.md.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "prdrb")
OUT = os.path.join(ROOT, ".bench_build", "out")
BINARY = os.path.join(BUILD, "prdrb_bench")
PARTS = 8
RUN_TIMEOUT_S = 170
REDUCE = {"peak_rss_mb": max}


def fail(msg):
    print("benchmark: " + msg, file=sys.stderr)
    sys.exit(1)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("the simulator sources (src/) are not next to " + HERE)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "-j", jobs]]
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    for cmd in steps:
        # Build output goes to stderr: stdout ends with the result line.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(cmd))


def declared_metrics(trace):
    """Metric names BENCHMARK.json promises for this mode, if it is present."""
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def run_part(args, part, deadline):
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds / PARTS), "--trace", str(args.trace),
           "--part", str(part), "--parts", str(PARTS), "--out-dir", OUT]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail("run exceeded %d s" % RUN_TIMEOUT_S)
    try:
        return json.loads(proc.stdout.strip().split("\n")[-1])
    except (json.JSONDecodeError, IndexError):
        fail("part %d printed no result (exit code %d)"
             % (part, proc.returncode))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    if not args.selftest and not args.workload:
        ap.error("--workload is required")

    build()
    if args.selftest:
        sys.exit(subprocess.run([BINARY, "--selftest", "--out-dir", OUT],
                                timeout=RUN_TIMEOUT_S).returncode)

    deadline = time.monotonic() + RUN_TIMEOUT_S
    parts = [run_part(args, p, deadline) for p in range(PARTS)]
    errors = [e for p in parts for e in p["errors"]]
    correct = all(p["correct"] for p in parts) and not errors
    attempted = sum(p["attempted"] for p in parts)
    failed = sum(p["failed"] for p in parts) if correct else attempted
    metrics = {}
    for name in parts[0]["metrics"]:
        samples = [v for p in parts for v in p["metrics"][name]["samples"]]
        metrics[name] = {"value": REDUCE.get(name, statistics.median)(samples),
                         "unit": parts[0]["metrics"][name]["unit"]}

    declared = declared_metrics(args.trace)
    if declared is not None and set(metrics) != set(declared):
        fail("metrics differ from BENCHMARK.json: %s"
             % sorted(set(metrics) ^ set(declared)))
    for name in declared or metrics:
        m = metrics[name]
        print("%s %r %s" % (name, m["value"], m["unit"]))
    for e in errors:
        print("CHECK FAILED: " + e)
    print("packets offered %d, failed %d" % (attempted, failed))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
