#!/usr/bin/env python3
"""Build and run the incident-session benchmark.

Run from the root of a checkout:

    python3 sessbench/run.py --workload capture|search|partial \
        --seed N --seconds S --trace 0|1

The script builds sessbench/main.exe with dune into .bench_build, gives it
a scratch directory under .bench_work for the evidence it persists, runs
it, and removes the scratch directory again. Build output goes to stderr;
the benchmark's report, whose last line is the JSON result, goes to
stdout. The exit code is the benchmark's, or 2 when the build fails.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
EXE = os.path.join(ROOT, BUILD_DIR, "default", "sessbench", "main.exe")
# The whole command must end within 180 s once built.
RUN_LIMIT_S = 175


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        print("sessbench: no dune-project at %s; nothing to build" % ROOT,
              file=sys.stderr)
        return 2
    build = subprocess.run(
        ["dune", "build", "--root", ".", "--build-dir", BUILD_DIR,
         "./sessbench/main.exe"],
        cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr)
    if build.returncode != 0:
        print("sessbench: build failed", file=sys.stderr)
        return 2

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    work = os.path.join(ROOT, ".bench_work", "run-%d" % os.getpid())
    os.makedirs(work, exist_ok=True)
    started = time.monotonic()
    try:
        proc = subprocess.Popen(
            [EXE, "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--nproc", str(nproc), "--work", work],
            cwd=ROOT)
        try:
            return proc.wait(timeout=RUN_LIMIT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            print("sessbench: run exceeded %d s after %.0f s"
                  % (RUN_LIMIT_S, time.monotonic() - started), file=sys.stderr)
            return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
