#!/usr/bin/env python3
"""Builds the benchmark driver from source and runs one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload websearch_packet --seed 1 \
        --seconds 10 --trace 0

The driver and the simulator libraries are compiled with CMake into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench); later runs
rebuild incrementally. The self-test runs before every measurement. The last
line of stdout is the driver's JSON result, after its metric names and units
have been checked against BENCHMARK.json; per-layer metrics a workload does
not report (its layer does no work there) are filled in as 0. Traced runs (--trace 1) also leave the
per-layer file and a Chrome trace in <build dir>/out.

Exits non-zero, printing no result, when the build, the self-test or the
driver fails.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 175


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def run_quiet(cmd, timeout):
    """Runs cmd with its output sent to stderr; returns True on success."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        log(f"{cmd[0]} failed: {e}")
        return False
    return proc.returncode == 0


def build(build_dir):
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    if not run_quiet(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
        return False
    return run_quiet(["cmake", "--build", build_dir, "-j", jobs],
                     max(1.0, deadline - time.monotonic()))


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    section = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: m["unit"] for m in section}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    build_dir = os.path.abspath(os.path.join(target, "perfbench"))
    if not build(build_dir):
        log("build failed")
        return 1
    started = time.monotonic()
    if not run_quiet([os.path.join(build_dir, "perfbench_selftest")], 60):
        log("self-test failed")
        return 1

    out_dir = os.path.join(build_dir, "out")
    os.makedirs(out_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench_driver"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--out-dir", out_dir]
    budget = RUN_BUDGET_S - (time.monotonic() - started)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              text=True, timeout=budget, check=False)
    except subprocess.TimeoutExpired:
        log(f"driver exceeded {budget:.0f} s")
        return 1
    lines = proc.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    if proc.returncode != 0 or not lines:
        log(f"driver exited with code {proc.returncode}")
        return 1

    result = json.loads(lines[-1])
    want = expected_metrics(args.trace == 1)
    metrics = result["metrics"]
    wrong = sorted(k for k, v in metrics.items() if want.get(k) != v["unit"])
    if wrong or set(result) != {"correct", "attempted", "failed", "metrics"}:
        log(f"result does not match BENCHMARK.json: {wrong}")
        return 1
    if args.trace == 0 and set(metrics) != set(want):
        log(f"missing end-to-end metrics: {sorted(set(want) - set(metrics))}")
        return 1
    # A per-layer metric the workload does not report is a layer that does
    # no work there.
    for name, unit in want.items():
        metrics.setdefault(name, {"value": 0, "unit": unit})
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
