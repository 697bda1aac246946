#!/usr/bin/env python3
"""Tiny-scale self-test of the benchmark.

    python3 perfbench/selftest.py

Builds the binary (as run.py does) and runs every workload of
BENCHMARK.json, plus the ungated paper-25k, at --scale tiny, untraced and
traced. Checks that:
  * the last stdout line is the result object, with exactly the metrics
    BENCHMARK.json names for that mode, each with its unit;
  * every world passes the output check, and a perturbed digest counts as
    a failed world;
  * on each traced workload the exclusive-time table is consistent (the
    binary reports correct=false when a phase is missing its parent, is
    nested wrongly or has a negative self time);
  * the bypass predictions hold: transfer.* reads zero on the timeout-mode
    workloads and sweep.* reads zero on the single-world ones.
Exits non-zero on the first failed check.
"""

import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (the build step)

# Runnable but not gated by BENCHMARK.json (see README.md); tested all the same.
UNGATED_WORKLOADS = ["paper-25k"]
TRANSFER_WORKLOADS = {"instant-dsl-5k"}
SWEEP_WORKLOADS = {"fig1-sweep-1500"}


def fail(message):
    sys.stderr.write("selftest: FAIL: %s\n" % message)
    sys.exit(1)


def run_tiny(binary, workload, trace, extra=()):
    cmd = [binary, "--workload", workload, "--seed", "3", "--seconds", "0.2",
           "--trace", str(trace), "--scale", "tiny"] + list(extra)
    done = subprocess.run(cmd, stdout=subprocess.PIPE, universal_newlines=True,
                          timeout=170)
    if done.returncode != 0:
        fail("%s exited with %d" % (" ".join(cmd), done.returncode))
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("%s printed nothing" % " ".join(cmd))
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("%s: result keys %s" % (workload, sorted(result)))
    return result


def check_metrics(workload, trace, result, declared):
    got = result["metrics"]
    if sorted(got) != sorted(m["name"] for m in declared):
        fail("%s trace=%d: metrics %s, declared %s" %
             (workload, trace, sorted(got), sorted(m["name"] for m in declared)))
    for m in declared:
        entry = got[m["name"]]
        if entry.get("unit") != m["unit"]:
            fail("%s: %s has unit %r, declared %r" %
                 (workload, m["name"], entry.get("unit"), m["unit"]))
        if not isinstance(entry.get("value"), (int, float)) or \
                not math.isfinite(entry["value"]):
            fail("%s: %s value %r" % (workload, m["name"], entry.get("value")))


def main():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    binary = run.build()
    for name in [w["name"] for w in bench["workloads"]] + UNGATED_WORKLOADS:
        for trace, declared in ((0, bench["end_to_end"]), (1, bench["per_layer"])):
            result = run_tiny(binary, name, trace)
            check_metrics(name, trace, result, declared)
            if not result["correct"] or result["failed"] != 0 or \
                    result["attempted"] < 1:
                fail("%s trace=%d: output check %s" % (name, trace, result))
            values = {k: v["value"] for k, v in result["metrics"].items()}
            if trace == 1:
                if name not in TRANSFER_WORKLOADS:
                    for k in values:
                        if k.startswith("transfer.") and values[k] != 0:
                            fail("%s: %s = %r, expected 0" % (name, k, values[k]))
                if name not in SWEEP_WORKLOADS:
                    for k in values:
                        if k.startswith("sweep.") and values[k] != 0:
                            fail("%s: %s = %r, expected 0" % (name, k, values[k]))
        for trace in (0, 1):
            result = run_tiny(binary, name, trace, ["--perturb-digest"])
            if result["correct"] or result["failed"] < 1:
                fail("%s trace=%d: a perturbed digest passed the check" %
                     (name, trace))
        print("selftest: %s ok" % name)
    print("selftest: ok")


if __name__ == "__main__":
    main()
