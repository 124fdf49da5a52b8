#!/usr/bin/env python3
"""Builds and runs the repository benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload suite-s4 --seed 1 --seconds 20 --trace 0

Builds the `plasticine-run` binary and the `perfbench` harness (release,
offline) into $CARGO_TARGET_DIR (default `.bench_build`), then runs the
harness, which prints every metric and, as its last line, the result
object. Exits non-zero when a build fails or a check does.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build(manifest, *extra):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", manifest, *extra]
    # Build output goes to stderr: stdout carries only the harness report.
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main(argv):
    target = os.path.abspath(os.environ.setdefault(
        "CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")))
    if not build(os.path.join(ROOT, "Cargo.toml"), "--bin", "plasticine-run"):
        print("perfbench: building plasticine-run failed", file=sys.stderr)
        return 1
    if not build(os.path.join(HERE, "Cargo.toml")):
        print("perfbench: building the harness failed", file=sys.stderr)
        return 1
    release = os.path.join(target, "release")
    # Relative, so the daemon's Unix socket path inside it stays short.
    out_dir = os.path.relpath(os.path.join(target, "perfbench-runs"))
    cmd = [os.path.join(release, "perfbench"),
           "--bin", os.path.join(release, "plasticine-run"),
           "--out-dir", out_dir, *argv]
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
