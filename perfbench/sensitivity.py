#!/usr/bin/env python3
"""Sensitivity check: does the benchmark catch a slower signer?

    python3 perfbench/sensitivity.py [--seeds 5] [--seconds <run_seconds>]

Run from the repository root. It
  1. builds the benchmark unmodified, and a copy in which every signature
     busy-waits another 50% of the time it took (PERFBENCH_SIGN_SLOWDOWN,
     see src/fleet.cpp), as a slower RSA kernel would: the extra time is
     50% of crypto.sign.us_p50 at the median, in whatever speed state the
     CPU is;
  2. runs nr-invoke on the unmodified build, the slow copy and the
     unmodified build again, alternating per seed, and compares the medians
     of cpu_ms_per_exchange against its bound in BENCHMARK.json.
It passes when the slow copy is worse than the first unmodified set by more
than the bound and the second unmodified set is not. Build directories go
under $CARGO_TARGET_DIR (default .bench_build).
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

from run import build

METRIC = "cpu_ms_per_exchange"
SLOWDOWN = 0.5
WORKLOAD = "nr-invoke"


def run(binary, seed, seconds):
    out = subprocess.run([binary, "--workload", WORKLOAD, "--seed", str(seed), "--seconds",
                          str(seconds), "--trace", "0"],
                         check=True, stdout=subprocess.PIPE, text=True, timeout=170).stdout
    result = json.loads(out.strip().splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"run seed {seed} reported correct=false")
    return result["metrics"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=int, default=5)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    args = ap.parse_args()

    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    bound = next(m["bound"] for m in spec["end_to_end"] if m["name"] == METRIC)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    root = os.getcwd()
    base = build(root, "perfbench", ["-DPERFBENCH_SIGN_SLOWDOWN=0"])
    slow = build(root, "perfbench-slow-signer", [f"-DPERFBENCH_SIGN_SLOWDOWN={SLOWDOWN}"])

    sets = {"unmodified": [], "slow signer": [], "unmodified again": []}
    for seed in range(1, args.seeds + 1):
        for name, binary in (("unmodified", base), ("slow signer", slow),
                             ("unmodified again", base)):
            sets[name].append(run(binary, seed, args.seconds)[METRIC]["value"])
    ref = statistics.median(sets["unmodified"])
    ok = True
    for name, values in sets.items():
        change = statistics.median(values) / ref - 1
        print(f"{name:17s} median {METRIC} {statistics.median(values):.4f} ms "
              f"({change:+.1%} vs unmodified; bound {bound:.0%}) values "
              f"{[round(v, 4) for v in values]}")
        if name == "slow signer":
            ok &= change > bound
        elif name == "unmodified again":
            ok &= change <= bound
    print("sensitivity check", "passed" if ok else "FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
