#!/usr/bin/env python3
"""Build and run the codec/service benchmark from a source checkout.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload serve_small|large_lossless|large_lossy \
        --seed N --seconds S --trace 0|1

Builds the `j2kserved` daemon and the `perfbench` package in release mode
(into $CARGO_TARGET_DIR, default `.bench_build`), then runs the benchmark.
Its last stdout line is the result object. Build output goes to stderr.
Exits nonzero, printing no result, when the build or the run fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170


def build(target_dir):
    steps = [
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(ROOT, "Cargo.toml"), "--bin", "j2kserved"],
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
    ]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir)
    for cmd in steps:
        if not os.path.isfile(cmd[cmd.index("--manifest-path") + 1]):
            sys.stderr.write("perfbench: missing %s\n" % cmd[cmd.index("--manifest-path") + 1])
            return False
        if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
            sys.stderr.write("perfbench: build failed: %s\n" % " ".join(cmd))
            return False
    return True


def main():
    target_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not build(target_dir):
        return 2
    exe = os.path.join(target_dir, "release")
    cmd = [os.path.join(exe, "perfbench")] + sys.argv[1:] + [
        "--daemon", os.path.join(exe, "j2kserved")]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 3


if __name__ == "__main__":
    sys.exit(main())
