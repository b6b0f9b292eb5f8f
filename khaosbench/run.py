#!/usr/bin/env python3
"""Repository benchmark: builds khaosbench from source and runs one workload.

    python3 khaosbench/run.py --workload diff-cold --seed 7 --seconds 15 --trace 0

Run it from the root of a checkout. The first call configures and builds
the benchmark package (khaosbench/CMakeLists.txt, which compiles the
library from src/) into .bench_build/khaosbench; later calls only check
that the build is current.

--trace 0 runs the timed mode and prints the end-to-end metrics of
BENCHMARK.json; --trace 1 runs the traced mode and prints the per-layer
metrics, and writes the spans to .bench_build/khaosbench-work/<workload>/
trace.json. diff-warm first runs the `fill` mode, whose median fill time is
its setup_s. --size tiny selects the self-test's small inputs.

Every metric is printed on its own line with its unit, then the last line
of stdout is the JSON result. The exit code is 0 only when every
correctness check passed; a run whose checks failed still prints its
result (with "correct": false) and exits 1. A checkout without the
library sources fails before printing anything.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "khaosbench")
WORK_ROOT = os.path.join(ROOT, ".bench_build", "khaosbench-work")
BINARY = os.path.join(BUILD_DIR, "khaosbench")
WORKLOADS = ("diff-cold", "overhead-cold", "diff-warm")
# A whole run must end within 180 s; its children share this budget.
CHILD_DEADLINE_S = 170.0
# A timed run is at least this many timed children, each measuring this
# share of --seconds; the run reports the children's medians.
MIN_TIMED_CHILDREN = 2
TIMED_CHILD_SHARE = 6


def fail(message):
    print("khaosbench: " + message, file=sys.stderr)
    sys.exit(2)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "harness", "Evaluator.h")):
        fail("library sources (src/) not found next to khaosbench/; "
             "run from the root of a full checkout")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the result.
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build failed: " + " ".join(cmd))


def run_child(args, deadline):
    """Runs the binary; returns its parsed JSON result (None if it printed
    none) and its exit code."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        fail("out of time before " + args[0])
    proc = subprocess.Popen([BINARY] + args, stdout=subprocess.PIPE,
                            stderr=sys.stderr, text=True)
    try:
        out, _ = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        fail(args[0] + " exceeded the run's time limit")
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    lines = out.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return result, proc.returncode


def declared_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return spec["per_layer" if trace else "end_to_end"]


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    a = ap.parse_args()

    build()
    # The deadline covers the measured work, not a first build.
    deadline = time.monotonic() + CHILD_DEADLINE_S

    work = os.path.join(WORK_ROOT, a.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    common = ["--workload", a.workload, "--seed", str(a.seed),
              "--size", a.size, "--work-dir", work]

    results = []
    failed_child = False

    def child(args):
        nonlocal failed_child
        result, code = run_child(args + common, deadline)
        if result is None:
            fail("%s printed no result (exit %d)" % (args[0], code))
        failed_child |= code != 0
        results.append(result)
        return result

    if a.workload == "diff-warm":
        fill = child(["fill"])
    if a.trace:
        traced = child(["traced", "--trace-out",
                        os.path.join(work, "trace.json")])
        merged = dict(traced["metrics"])
    else:
        # Sequential timed children, each measuring a share of the run's
        # seconds, so one process's scheduling luck cannot set the result.
        samples = []
        start = time.monotonic()
        while (len(samples) < MIN_TIMED_CHILDREN
               or time.monotonic() - start < a.seconds):
            samples.append(child(["timed", "--seconds",
                                  str(a.seconds / TIMED_CHILD_SHARE)]))
        merged = {}
        for name, sample in samples[0]["metrics"].items():
            values = [s["metrics"][name]["value"] for s in samples]
            merged[name] = {"value": statistics.median(values),
                            "unit": sample["unit"]}
        merged.update(child(["check"])["metrics"])
        if a.workload == "diff-warm":
            merged["setup_s"] = fill["metrics"]["setup_s"]

    # The tiers are large and per-run; only the trace is kept.
    for entry in os.listdir(work):
        if entry != "trace.json":
            path = os.path.join(work, entry)
            if os.path.isdir(path):
                shutil.rmtree(path, ignore_errors=True)
            else:
                os.remove(path)

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    merged["ok_share"] = {"value": (attempted - failed) / attempted
                          if attempted else 0.0, "unit": "ratio"}

    metrics = {}
    for m in declared_metrics(a.trace):
        name = m["name"]
        if name not in merged:
            fail("metric %s was not measured" % name)
        if merged[name]["unit"] != m["unit"]:
            fail("metric %s measured in %s, declared in %s"
                 % (name, merged[name]["unit"], m["unit"]))
        metrics[name] = merged[name]
        print("%-40s %.6g %s" % (name, metrics[name]["value"],
                                 metrics[name]["unit"]))

    correct = failed == 0 and not failed_child and attempted > 0
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
