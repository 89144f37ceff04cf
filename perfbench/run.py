#!/usr/bin/env python3
"""Builds the benchmark harness from source and runs one workload.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sim-suite --seed 1 --seconds 10 --trace 0

The harness (perfbench/harness, built by perfbench/CMakeLists.txt against
the repository's src/) prints every metric by name and unit; the last line
of standard output is the JSON result. Build output goes to standard error.
The build tree is $CARGO_TARGET_DIR/perfbench, or .bench_build/perfbench
when that variable is unset. Every workload runs single-threaded
(SIMTSR_THREADS=1) as a closed loop with one caller.
"""

import argparse
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sim-suite", "compile-gen", "serve-mix")
HARNESS_TIMEOUT_S = 170
BUILD_JOBS = max(1, min(3, os.cpu_count() or 1))


def build_dir() -> Path:
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out: Path) -> Path:
    """Configures (once) and builds the harness; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise RuntimeError(f"no simtsr source tree at {ROOT / 'src'}")
    if not (out / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", str(HERE), "-B", str(out),
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", str(out), "--target", "perfbench_harness",
         "-j", str(BUILD_JOBS)],
        stdout=sys.stderr, check=True)
    return out / "perfbench_harness"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    try:
        harness = build(out)
    except (RuntimeError, OSError, subprocess.CalledProcessError) as err:
        print(f"perfbench: build failed: {err}", file=sys.stderr)
        return 2

    env = dict(os.environ, SIMTSR_THREADS="1")
    cmd = [str(harness), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        cmd += ["--spans-out", str(out / f"spans-{args.workload}.tsv")]
    try:
        result = subprocess.run(cmd, env=env, timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the harness and waits for it before raising.
        print("perfbench: harness timed out", file=sys.stderr)
        return 3
    return result.returncode


if __name__ == "__main__":
    sys.exit(main())
