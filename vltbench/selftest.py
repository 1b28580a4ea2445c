#!/usr/bin/env python3
"""Self-test of the vltbench benchmark.

Run from the root of a vltsim checkout:

    python3 vltbench/selftest.py [--seconds N] [--traced-seconds N]

For every workload it runs the benchmark three times untraced and three
times traced (seed 1, seed 1 again, seed 2) and checks that:

  - every run is correct, with no failed operation, and exits 0;
  - the emitted metric names and units are exactly BENCHMARK.json's
    end_to_end (untraced) or per_layer (traced) lists;
  - model_err_pct and every deterministic count repeat bit for bit
    across the two invocations and the two seeds.

It also checks that the benchmark fails cleanly (non-zero exit, no
result line) in a directory holding only BENCHMARK.json and vltbench/.
Exits 0 when every check passes.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
RUN = os.path.join(BENCH_DIR, "run.py")

# Simulated quantities: they depend only on the cells, never on the host,
# the seed or the cell order, so they must repeat exactly.
DETERMINISTIC = {
    "model_err_pct",
    "engine.ticks_per_kcycle", "engine.scans_per_kcycle",
    "su.commits_per_kcycle", "su.bpred.mispredict_pct", "su.l1d.miss_pct",
    "su.l1i.miss_pct",
    "vu.busy_pct", "vu.stalled_pct", "vu.all_idle_pct", "vu.element_ops",
    "lane.commits_per_kcycle", "lane.icache.miss_pct",
    "l2.accesses", "l2.miss_pct",
    "barrier.arrivals",
    "sim.cycles", "sim.insts",
}

failures = []


def check(ok, what):
    print("%s  %s" % ("ok  " if ok else "FAIL", what), flush=True)
    if not ok:
        failures.append(what)


def run(cwd, workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, RUN, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return proc.returncode, result, proc.stderr


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seconds", type=int, default=None,
                        help="untraced run length (default: BENCHMARK.json's "
                        "run_seconds; shorter runs may have too few samples "
                        "beyond p90 and fail)")
    parser.add_argument("--traced-seconds", type=int, default=2)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    seconds = {0: args.seconds or spec["run_seconds"],
               1: args.traced_seconds}
    declared = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }

    for w in spec["workloads"]:
        name = w["name"]
        for trace in (0, 1):
            runs = []
            for seed in (1, 1, 2):
                code, result, err = run(ROOT, name, seed, seconds[trace],
                                        trace)
                label = "%s trace=%d seed=%d" % (name, trace, seed)
                ok = (code == 0 and result is not None and result["correct"]
                      and result["failed"] == 0 and result["attempted"] >= 1)
                check(ok, label + ": correct, nothing failed, exit 0")
                if not ok:
                    sys.stderr.write(err[-3000:])
                    continue
                units = {k: v["unit"] for k, v in result["metrics"].items()}
                check(units == declared[trace],
                      label + ": metric names and units match BENCHMARK.json")
                runs.append(result["metrics"])
            for metric in sorted(DETERMINISTIC & set(declared[trace])):
                values = [r[metric]["value"] for r in runs if metric in r]
                check(len(values) == 3 and len(set(values)) == 1,
                      "%s trace=%d: %s repeats exactly %s"
                      % (name, trace, metric, values))

    # Without the simulator sources the benchmark must fail, print no
    # result, and stay inside its own directory.
    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(BENCH_DIR, os.path.join(bare, "vltbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "vltbench/run.py", "--workload", "sweep", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180)
    check(proc.returncode != 0 and '"correct"' not in proc.stdout,
          "bare directory: non-zero exit and no result line")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d check(s) failed" % len(failures) if failures
          else "all checks passed")
    sys.exit(1 if failures else 0)


if __name__ == "__main__":
    main()
