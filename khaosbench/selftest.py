#!/usr/bin/env python3
"""Fast self-test of the benchmark (about a minute after the build).

    python3 khaosbench/selftest.py

Runs every workload at the tiny input size through run.py, once timed
(--trace 0) and once traced (--trace 1), and checks that each run exits
0, prints every declared metric with its declared unit, reports no
failure (ok_share 1), and that each traced run's Chrome trace parses and
its "B"/"E" events are balanced per thread, with every span's parent
recorded in the trace. Exits 1 on the first problem.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")
WORKLOADS = ("diff-cold", "overhead-cold", "diff-warm")


def die(message):
    print("selftest: FAILED: " + message, file=sys.stderr)
    sys.exit(1)


def check_trace(path):
    with open(path) as f:
        events = json.load(f)["traceEvents"]
    if not events:
        die("%s has no events" % path)
    ids = {e["args"]["id"] for e in events}
    stacks = {}
    for e in events:
        stack = stacks.setdefault(e["tid"], [])
        if e["ph"] == "B":
            if e["args"]["parent"] and e["args"]["parent"] not in ids:
                die("span %s has an unrecorded parent" % e["name"])
            stack.append(e)
        elif e["ph"] == "E":
            if not stack or stack[-1]["args"]["id"] != e["args"]["id"]:
                die("unbalanced E for %s on thread %s" % (e["name"], e["tid"]))
            if e["ts"] < stack[-1]["ts"]:
                die("span %s ends before it starts" % e["name"])
            stack.pop()
        else:
            die("unexpected phase %r" % e["ph"])
    for tid, stack in stacks.items():
        if stack:
            die("%d spans left open on thread %s" % (len(stack), tid))
    return len(events) // 2


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, RUN, "--workload", workload, "--seed", "3",
                   "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                                  text=True)
            if proc.returncode != 0:
                die("%s exited %d" % (" ".join(cmd), proc.returncode))
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                die("result keys %s" % sorted(result))
            if not result["correct"] or result["failed"] != 0:
                die("%s trace=%d reported failures" % (workload, trace))
            declared = spec["per_layer" if trace else "end_to_end"]
            for m in declared:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    die("%s trace=%d: metric %s missing or wrong unit"
                        % (workload, trace, m["name"]))
                if not any(line.split()[:1] == [m["name"]]
                           and line.split()[-1] == m["unit"]
                           for line in proc.stdout.splitlines()):
                    die("%s: no printed line for %s" % (workload, m["name"]))
            if not trace and result["metrics"]["ok_share"]["value"] != 1:
                die("%s: ok_share below 1" % workload)
            note = ""
            if trace:
                path = os.path.join(ROOT, ".bench_build", "khaosbench-work",
                                    workload, "trace.json")
                note = ", %d balanced spans" % check_trace(path)
            print("selftest: %s trace=%d ok (%d checks%s)"
                  % (workload, trace, result["attempted"], note))
    print("selftest: all passed")


if __name__ == "__main__":
    main()
