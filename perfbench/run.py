#!/usr/bin/env python3
"""Runs one fuzzydb benchmark workload and prints its result.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload serve_ram --seed 1 --seconds 25 --trace 0

Builds the harness (perfbench/CMakeLists.txt) from the checkout's sources
into .bench_build/perfbench on first use, runs the workload in its own
process, and prints that process's output. The last line of standard output
is one JSON object with the keys correct, attempted, failed and metrics:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. A traced run also keeps its spans in .bench_build/traces/.

Column files are written under .bench_build/scratch/ and removed when the
run ends, also when it fails. Exits non-zero, printing no result, when the
build or the run fails.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys

WORKLOADS = ("serve_ram", "knn_paged", "serve_paged")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
HARNESS = os.path.join(BUILD_DIR, "perfbench_harness")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures and brings the harness up to date (both near no-ops when
    nothing changed). Serialized by a lock so concurrent runs share one
    build."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no fuzzydb sources at %s/src; run from a full checkout" % ROOT)
    os.makedirs(BUILD_DIR, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    with open(os.path.join(BUILD_ROOT, "build.lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = [["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                  "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_harness", "-j", jobs]]
        for step in steps:
            try:
                done = subprocess.run(step, stdout=subprocess.PIPE,
                                      stderr=subprocess.STDOUT, text=True,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                fail("build timed out: " + " ".join(step))
            if done.returncode != 0:
                sys.stderr.write(done.stdout[-20000:])
                fail("build failed: " + " ".join(step))


def expected_metrics(trace):
    """Metric names and units BENCHMARK.json promises for this mode."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def run(args):
    scratch = os.path.join(BUILD_ROOT, "scratch",
                           "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    os.makedirs(scratch)
    command = [HARNESS, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--scratch", scratch, "--scale", args.scale]
    if args.perturb_reference:
        command.append("--perturb-reference")
    proc = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        if proc.returncode != 0:
            fail("harness exited with %d" % proc.returncode)
        spans = os.path.join(scratch, "spans.json")
        if os.path.isfile(spans):
            traces = os.path.join(BUILD_ROOT, "traces")
            os.makedirs(traces, exist_ok=True)
            shutil.move(spans, os.path.join(
                traces, "%s-seed%d.json" % (args.workload, args.seed)))
    except subprocess.TimeoutExpired:
        proc.terminate()
        try:
            proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        fail("harness timed out after %d s" % RUN_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(scratch, ignore_errors=True)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny: self-test sizes, not the benchmark")
    parser.add_argument("--perturb-reference", action="store_true",
                        help="self-test: corrupt one reference answer")
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        fail("--seed must be >= 0 and --seconds > 0")

    build()
    lines = run(args).rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("harness printed no result line")
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("malformed result keys: %s" % sorted(result))
    units = {name: m["unit"] for name, m in result["metrics"].items()}
    if units != expected_metrics(args.trace):
        fail("metrics differ from BENCHMARK.json: %s" % sorted(units))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
