#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one benchmark.

Usage (from the repository root):

    python3 perfbench/run.py --workload serve_mix --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Every argument except --selftest is passed to the perfbench binary, whose
last line of standard output is the JSON result. Build output goes to
standard error. The build lives in $CARGO_TARGET_DIR/perfbench (default
.bench_build/perfbench), relative to the repository root.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def run_quiet(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    proc = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        print("perfbench: build step failed: " + " ".join(cmd), file=sys.stderr)
        sys.exit(2)


def build(target):
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_quiet(cmd)
    run_quiet(["cmake", "--build", out, "--target", target, "-j", "4"])
    return os.path.join(out, target)


def main():
    args = sys.argv[1:]
    if "--selftest" in args:
        binary = build("perfbench_test")
        return subprocess.run([binary], cwd=ROOT).returncode
    binary = build("perfbench")
    env = dict(os.environ, PERFBENCH_OUT=build_dir())
    return subprocess.run([binary] + args, cwd=ROOT, env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
