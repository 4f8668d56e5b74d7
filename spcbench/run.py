#!/usr/bin/env python3
"""Builds the spcbench driver from source and runs one workload.

    python3 spcbench/run.py --workload <serve-read|hybrid-update|durable-mixed>
                            --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The build lives in $CARGO_TARGET_DIR
(default .bench_build) under spcbench/, and each run's durability, publish
and trace files live in a directory unique to the run under runs/ there,
removed when the run ends. The driver's output is passed through; its last
line is the result JSON. Exit status: the driver's (0 = every check passed),
or 2 when the build fails, 3 when the result does not name exactly the
metrics BENCHMARK.json lists.
"""

import argparse
import fcntl
import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN_TIMEOUT_S = 170


def build(build_dir):
    """Configures (once) and builds the driver; cmake skips what is current."""
    if not os.path.isfile(os.path.join(ROOT, "src", "dspc", "api", "spc_service.h")):
        print("spcbench: the dspc sources are not in this checkout", file=sys.stderr)
        return False
    os.makedirs(build_dir, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(os.path.join(build_dir, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs build once
        steps = []
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            steps.append(["cmake", "-S", BENCH_DIR, "-B", build_dir,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", build_dir, "-j", jobs,
                      "--target", "spcbench"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
                print("spcbench: build step failed: " + " ".join(cmd), file=sys.stderr)
                return False
    return True


def expected_metrics(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        return None
    with open(path) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    parser.add_argument("--keep-trace", help="copy the span trace (JSON lines) here")
    args = parser.parse_args()

    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.abspath(os.path.join(target, "spcbench"))
    if not build(build_dir):
        return 2
    cmd = [os.path.join(build_dir, "spcbench"),
           "--workload", args.workload, "--seed", args.seed,
           "--seconds", args.seconds, "--trace", args.trace,
           "--run-root", os.path.join(build_dir, "runs")]
    if args.keep_trace:
        cmd += ["--keep-trace", os.path.abspath(args.keep_trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("spcbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 4
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    names = expected_metrics(args.trace == "1")
    lines = proc.stdout.strip().splitlines()
    if names is not None and lines:
        try:
            got = list(json.loads(lines[-1])["metrics"])
        except (ValueError, KeyError):
            got = None
        if got is not None and got != names:
            print("spcbench: result metrics differ from BENCHMARK.json: %s vs %s"
                  % (got, names), file=sys.stderr)
            return 3
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
