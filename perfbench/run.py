#!/usr/bin/env python3
"""Build and run the repo benchmark on one workload.

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The script configures and builds
perfbench/ (which compiles the simulator from src/) with CMake in
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench, then runs
the workload once. Build output goes to stderr. The benchmark's own
stdout follows, and its last line is the result JSON. A traced run
(--trace 1) also writes its spans under the build directory's spans/.
The exit code is non-zero, with no result printed, when the build
fails, and non-zero when the correctness gate fails.

Workloads and metrics: perfbench/METRICS.md.
"""

import argparse
import os
import pathlib
import subprocess
import sys

HERE = pathlib.Path(__file__).resolve().parent
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configure once, then build the benchmark binary; False on failure."""
    jobs = str(max(1, min(4, len(os.sched_getaffinity(0)))))
    steps = []
    if not (build_dir / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(build_dir),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(build_dir), "--target", "perfbench",
                  "-j", jobs])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S, check=False)
        except (OSError, subprocess.TimeoutExpired) as e:
            print(f"perfbench: {' '.join(cmd[:2])} failed: {e}",
                  file=sys.stderr)
            return False
        if done.returncode != 0:
            print(f"perfbench: {' '.join(cmd[:2])} exited "
                  f"{done.returncode}", file=sys.stderr)
            return False
    return True


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=("0", "1"))
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    build_dir = (pathlib.Path.cwd() /
                 os.environ.get("CARGO_TARGET_DIR", ".bench_build") /
                 "perfbench")
    if not build(build_dir):
        return 1

    cmd = [str(build_dir / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", f"{args.seconds:g}",
           "--trace", args.trace]
    if args.trace == "1":
        spans = build_dir / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans / f"{args.workload}-seed{args.seed}.json")]
    sys.stdout.flush()
    try:
        done = subprocess.run(cmd, timeout=RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
