#!/usr/bin/env python3
"""Builds the benchmark binary from source and runs one workload.

    python3 perfbench/run.py --workload paper-25k --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR (relative paths resolve against the
repository root) or else to .bench_build at the root; compiler temporaries
stay inside it. Build output goes to stderr, so the last line of stdout is
the benchmark's JSON result. Exits non-zero, printing no result, when the
build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 175


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build():
    """Configures once, then builds incrementally; returns the binary path."""
    out = build_dir()
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs])
    for cmd in steps:
        done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              env=env)
        if done.returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            sys.exit(done.returncode or 1)
    return os.path.join(out, "perfbench")


def main(argv):
    binary = build()
    sys.stdout.flush()
    try:
        done = subprocess.run([binary] + argv, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
