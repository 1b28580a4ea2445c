#!/usr/bin/env python3
"""Build and run the vltbench harness.

Run from the root of a vltsim checkout:

    python3 vltbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Builds the simulator library and the harness from source into
.bench_build/ (Release, incremental after the first run), then runs one
workload. The harness prints a summary on stderr and, as the last line of
stdout, one JSON object with the keys correct, attempted, failed and
metrics. See vltbench/README.md for what each metric means.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("vector-threads", "lane-threads", "sweep")


def build():
    """Configures and builds the harness; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        sys.exit("vltbench: no simulator sources at %s/src" % ROOT)
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        configure = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs], check=True,
                   stdout=sys.stderr)
    return os.path.join(BUILD_DIR, "vltbench")


def main():
    # Turn SIGTERM into an exception, so subprocess.run kills and reaps the
    # harness and the scratch directory is removed before exiting.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    try:
        harness = build()
    except (OSError, subprocess.CalledProcessError) as e:
        sys.exit("vltbench: build failed: %s" % e)

    scratch = os.path.join(BUILD_DIR, "scratch-%d" % os.getpid())
    cmd = [harness,
           "--workload", args.workload,
           "--seed", str(args.seed),
           "--seconds", str(args.seconds),
           "--trace", str(args.trace),
           "--reference", os.path.join(BENCH_DIR, "reference.json"),
           "--scratch", scratch]
    try:
        code = subprocess.run(cmd).returncode
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
