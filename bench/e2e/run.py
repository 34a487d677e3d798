#!/usr/bin/env python3
"""Builds hetsched_bench from source and runs one workload of it.

    python3 bench/e2e/run.py --workload fig05 --seed 7 --seconds 10 --trace 0

Run from the root of a checkout. The first run configures and builds
bench/e2e (which pulls in src/) in Release under .bench_build/e2e; later
runs only check that the build is current. The benchmark's own report
line (samples, host, checks) is printed first; the last line of stdout
is the summary:

    {"correct": true, "attempted": 80, "failed": 0,
     "metrics": {"wall_norm_s": {"value": 3.41, "unit": "s"}, ...}}

With --trace 0 the metrics are the end_to_end metrics of BENCHMARK.json,
measured with tracing off; with --trace 1 they are its per_layer metrics,
from the traced pass. Exits non-zero without a summary if the sources
are missing, the build fails or the benchmark does not finish in time.
"""

import argparse
import json
import os
import signal
import subprocess
import sys

BUILD_DIR = os.path.join(".bench_build", "e2e")
BINARY = os.path.join(BUILD_DIR, "hetsched_bench")
# The run must end within 180 s; leave room for the build check.
RUN_TIMEOUT_S = 170


def fail(message):
    print("run.py: " + message, file=sys.stderr)
    sys.exit(2)


def run(cmd, stdout, timeout=None):
    """Runs cmd in its own process group; the whole group is killed if
    this script stops early (timeout, SIGTERM, Ctrl-C)."""
    proc = subprocess.Popen(cmd, stdout=stdout, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=timeout)
        return proc.returncode, out
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", os.path.join("bench", "e2e"), "-B", BUILD_DIR])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        # Build output goes to stderr: stdout carries only results.
        if run(cmd, stdout=sys.stderr)[0] != 0:
            fail("build failed: " + " ".join(cmd))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    # SIGTERM unwinds like Ctrl-C, so run() kills what it started.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if args.seed < 0:
        fail("--seed must be >= 0")

    for path in ("BENCHMARK.json", os.path.join("src", "CMakeLists.txt"),
                 os.path.join("bench", "e2e", "CMakeLists.txt")):
        if not os.path.exists(path):
            fail(path + " not found; run from the root of a full checkout")
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("unknown workload " + args.workload + "; one of " + ", ".join(names))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build()
    cmd = [BINARY, "--workload=" + args.workload, "--seed=%d" % args.seed,
           "--seconds=%d" % args.seconds]
    if args.trace:
        cmd.append("--trace")
    try:
        returncode, out = run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("hetsched_bench did not finish within %d s" % RUN_TIMEOUT_S)
    lines = out.strip().splitlines()
    if not lines:
        fail("hetsched_bench printed no report (exit code %d)" % returncode)
    report = json.loads(lines[-1])
    print(lines[-1])

    measured = report["layers"] if args.trace else report["metrics"]
    metrics = {}
    for m in wanted:
        if m["name"] not in measured:
            fail("report lacks metric " + m["name"])
        metrics[m["name"]] = {"value": measured[m["name"]]["value"], "unit": m["unit"]}
    checks = report["checks"]
    correct = returncode == 0 and checks["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": checks["attempted"],
                      "failed": checks["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
