#!/usr/bin/env python3
"""Builds and runs the middleware's wall-clock benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The first call configures and builds this directory's CMake package,
which compiles the middleware from ../src, into the build directory:
$CARGO_TARGET_DIR when set, else .bench_build at the repository root.
Later calls rebuild only what changed.  Build output goes to stderr, so
the last line on stdout is the benchmark's JSON result.  The exit code is
the benchmark's own: 0 only when every output check passed.
"""
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 170  # the measured run alone; a first build may take longer


def build(build_dir):
    configured = any(os.path.exists(os.path.join(build_dir, f))
                     for f in ("build.ninja", "Makefile"))
    if not configured:
        cmd = ["cmake", "-S", HERE, "-B", build_dir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        subprocess.run(cmd, check=True, stdout=sys.stderr)
    jobs = str(min(3, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "--parallel", jobs],
                   check=True, stdout=sys.stderr)


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR")
                                or os.path.join(ROOT, ".bench_build"))
    try:
        build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    test = subprocess.run([os.path.join(build_dir, "perfbench_stats_test")],
                          stdout=sys.stderr)
    if test.returncode != 0:
        print("perfbench: statistics self-test failed", file=sys.stderr)
        return 1

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [os.path.join(build_dir, "perfbench")] + sys.argv[1:]
    cmd += ["--trace-dir", trace_dir]
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
