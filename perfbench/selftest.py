#!/usr/bin/env python3
"""Self-test of the benchmark, at tiny sizes. From the root of a checkout:

    python3 perfbench/selftest.py

Checks, through perfbench/run.py:
  1. every workload, untraced and traced, prints every metric BENCHMARK.json
     names, with its unit, as a finite number, and all its answers check;
  2. a deliberately perturbed reference answer is caught as a failed
     operation on every workload;
  3. on serve_ram, server.submit_ms + server.queue_ms + server.exec_ms falls
     within 10% of the traced p50 (trace.traced_p50_ms). This check runs at
     the benchmark's own size for a few seconds: at tiny sizes most queries
     hit the result cache and skip the queue and execution, so the layer
     medians no longer describe the median query.

Exits 0 when every check passes.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("serve_ram", "knn_paged", "serve_paged")


def run(workload, trace, extra=(), seconds="2", scale="tiny"):
    command = [sys.executable, os.path.join("perfbench", "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", seconds,
               "--trace", str(trace), "--scale", scale] + list(extra)
    done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True, timeout=900)
    if done.returncode != 0:
        raise AssertionError("%s exited %d" % (" ".join(command),
                                               done.returncode))
    return json.loads(done.stdout.strip().split("\n")[-1])


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []

    def check(ok, what):
        print("%s %s" % ("ok  " if ok else "FAIL", what), flush=True)
        if not ok:
            failures.append(what)

    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            result = run(workload, trace)
            metrics = result["metrics"]
            for m in spec[key]:
                got = metrics.get(m["name"])
                check(got is not None and got["unit"] == m["unit"] and
                      isinstance(got["value"], (int, float)) and
                      math.isfinite(got["value"]),
                      "%s trace=%d prints %s [%s]" % (workload, trace,
                                                      m["name"], m["unit"]))
            check(result["correct"] and result["failed"] == 0 and
                  result["attempted"] > 0,
                  "%s trace=%d: %d attempted, %d failed" %
                  (workload, trace, result["attempted"], result["failed"]))

        perturbed = run(workload, 0, ["--perturb-reference"])
        check(not perturbed["correct"] and perturbed["failed"] >= 1,
              "%s: perturbed reference caught (%d failed)" %
              (workload, perturbed["failed"]))

    traced = run("serve_ram", 1, seconds="5", scale="full")["metrics"]
    layers = sum(traced[name]["value"] for name in
                 ("server.submit_ms", "server.queue_ms", "server.exec_ms"))
    p50 = traced["trace.traced_p50_ms"]["value"]
    check(abs(layers - p50) <= 0.10 * p50,
          "serve_ram: submit + queue + exec = %.3f ms vs traced p50 %.3f ms"
          % (layers, p50))

    print("%d check(s) failed" % len(failures) if failures else "all passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
