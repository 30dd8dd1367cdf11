#!/usr/bin/env python3
"""Builds the end-to-end benchmark from source and runs one workload.

Run from the repository root:

    python3 e2ebench/run.py --workload oneshot --seed 1 --seconds 30 --trace 0
    python3 e2ebench/run.py --test        # build and run the oracle tests

The build goes to $CARGO_TARGET_DIR (default .bench_build); traced runs
write their Chrome trace and per-span summary to .bench_out/. Build output
goes to standard error, so the last line of standard output is the
benchmark's JSON result.
"""
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def build(root, target):
    build_root = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(root, build_root, "e2ebench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
             "-DFTA_ROOT=" + root],
            check=True, stdout=sys.stderr)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", target, "-j",
         str(os.cpu_count() or 2)],
        check=True, stdout=sys.stderr)
    return os.path.join(build_dir, target)


def main(argv):
    root = os.getcwd()
    test = "--test" in argv
    try:
        binary = build(root, "oracle_test" if test else "e2ebench")
    except (subprocess.CalledProcessError, OSError) as e:
        print("e2ebench: build failed: %s" % e, file=sys.stderr)
        return 1
    if test:
        return subprocess.run([binary]).returncode
    args = [binary] + argv + ["--repo", root, "--out",
                              os.path.join(root, ".bench_out")]
    return subprocess.run(args).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
