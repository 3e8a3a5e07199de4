#!/usr/bin/env python3
"""Builds the fdbench binary from the repository sources and runs one workload.

Usage (from the repository root):

    python3 fdbench/run.py --workload serve-inproc --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/fdbench when that variable is set and
to .bench_build/fdbench otherwise; re-running an up-to-date build takes
about a second. All build output goes to stderr, so the last line of
stdout is the fdbench result line. Exits non-zero without a result line
when the build or the run fails.
"""

import os
import subprocess
import sys

RUN_TIMEOUT_S = 175


def main():
    here = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(here)
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "fdbench")
    tmp_dir = os.path.join(build_dir, "tmp")
    os.makedirs(tmp_dir, exist_ok=True)
    env = dict(os.environ, TMPDIR=tmp_dir)

    steps = [
        ["cmake", "-S", here, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", "4"],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, env=env).returncode != 0:
            print("fdbench: build failed", file=sys.stderr)
            return 1

    binary = os.path.join(build_dir, "fdbench")
    try:
        run = subprocess.run([binary] + sys.argv[1:], env=env,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("fdbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
