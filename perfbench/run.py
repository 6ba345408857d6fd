#!/usr/bin/env python3
"""End-to-end benchmark for the Poseidon runtime, planner and simulator.

Builds the benchmark driver (perfbench/CMakeLists.txt) into .bench_build/,
runs one workload for --seconds and prints every metric with its unit,
then, as the last line of stdout, one JSON object:

  {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer metrics. See perfbench/README.md.

  python3 perfbench/run.py --workload ps-deep --seed 1 --seconds 25 --trace 0
"""
import argparse
import json
import math
import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
# A run must end within 180 s once the driver is built.
RUN_DEADLINE_S = 170.0


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configures (once) and builds the driver; exits non-zero on failure."""
    os.makedirs(BUILD_DIR, exist_ok=True)
    log_path = os.path.join(BUILD_DIR, "build.log")
    steps = []
    if not os.path.exists(DRIVER):  # configure again after any failed build
        steps.append(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "perfbench_driver",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (log: %s)" % log_path)


def metric_spec(trace):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))
    return spec["per_layer" if trace else "end_to_end"]


def run_driver(args, timeout_s):
    """Runs the driver; returns its parsed report, or None if it aborted or
    timed out (subprocess.run kills and reaps it on timeout)."""
    cmd = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=timeout_s,
                              universal_newlines=True)
    except subprocess.TimeoutExpired:
        print("perfbench: driver timed out after %.0f s" % timeout_s, file=sys.stderr)
        return None
    if proc.returncode != 0:
        print("perfbench: driver exited with %d" % proc.returncode, file=sys.stderr)
        return None
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, ValueError):
        print("perfbench: driver printed no report", file=sys.stderr)
        return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=["ps-deep", "auto-deep", "wide-int8", "sim-sweep"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seconds < 1:
        fail("--seconds must be at least 1")

    specs = metric_spec(args.trace)
    build()
    started = time.monotonic()
    report = run_driver(args, RUN_DEADLINE_S - (time.monotonic() - started))

    if report is None:
        # An aborted or timed-out run: every operation counts as failed.
        report = {"attempted": 1, "failed": 1, "checks": {"driver_completed": False},
                  "metrics": {}}
    values = report["metrics"]
    metrics = {}
    missing = []
    for spec in specs:
        value = values.get(spec["name"])
        if value is None and args.trace and spec["name"] not in values:
            value = 0.0  # a layer this workload does not run
        if value is None or not math.isfinite(value):
            missing.append(spec["name"])
            value = 0.0
        metrics[spec["name"]] = {"value": value, "unit": spec["unit"]}
    # Every driver metric must be declared, so a misspelt name cannot hide
    # behind the 0 above.
    unknown = sorted(set(values) - set(metrics) - {"iterations"})
    checks = report["checks"]
    correct = (all(checks.values()) and not missing and not unknown
               and report["failed"] == 0)

    print("workload %s  seed %d  seconds %d  trace %d" %
          (args.workload, args.seed, args.seconds, args.trace))
    for spec in specs:
        m = metrics[spec["name"]]
        print("  %-34s %16.6g %-8s (%s is better)" %
              (spec["name"], m["value"], m["unit"], spec["better"]))
    if "iterations" in values:
        print("  timed operations: %d" % values["iterations"])
    for name, ok in sorted(checks.items()):
        print("  check %-34s %s" % (name, "ok" if ok else "FAILED"))
    if missing:
        print("  missing or non-finite metrics: " + ", ".join(missing))
    if unknown:
        print("  metrics not in BENCHMARK.json: " + ", ".join(unknown))
    print("  attempted %d  failed %d  correct %s" %
          (report["attempted"], report["failed"], correct))
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))


if __name__ == "__main__":
    main()
