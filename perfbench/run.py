#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Configures and builds perfbench/ (Release,
which compiles the library from src/) into $CARGO_TARGET_DIR/perfbench,
default .bench_build/perfbench, then runs the benchmark binary and passes
its output through. The last stdout line is the binary's result object;
this script checks that it reports correct evidence and carries exactly the
metrics BENCHMARK.json lists for the mode. It exits non-zero, printing no
result, if the build, the run, the evidence check or the metric check fails.
"""
import argparse
import json
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench/run.py: {msg}", file=sys.stderr)
    sys.exit(1)


def build(root, name="perfbench", cmake_args=()):
    """Builds the benchmark into $CARGO_TARGET_DIR/<name>; returns the binary."""
    for needed in ("perfbench/CMakeLists.txt", "src/CMakeLists.txt"):
        if not os.path.isfile(os.path.join(root, needed)):
            fail(f"missing {needed}: run from the repository root")
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", ".bench_build"), name)
    steps = [
        ["cmake", "-S", "perfbench", "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release",
         *cmake_args],
        ["cmake", "--build", build_dir, "-j", str(min(4, os.cpu_count() or 1)),
         "--target", "perfbench"],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=root, stdout=sys.stderr, stderr=sys.stderr)
        if done.returncode != 0:
            fail(f"build step failed: {' '.join(cmd)}")
    return os.path.join(build_dir, "perfbench")


def expected_metrics(root, trace):
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    root = os.getcwd()
    expected = expected_metrics(root, args.trace)
    binary = build(root)
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        done = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    if done.returncode != 0:
        fail(f"benchmark exited with {done.returncode}")
    lines = done.stdout.strip().splitlines()
    if not lines:
        fail("benchmark printed nothing")
    result = json.loads(lines[-1])
    if not result["correct"]:
        print("\n".join(lines), file=sys.stderr)
        fail("the evidence check failed (correct=false)")
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    if got != expected:
        missing = sorted(set(expected) - set(got))
        extra = sorted(set(got) - set(expected))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, unexpected {extra}, "
             f"or units differ")
    print("\n".join(lines))


if __name__ == "__main__":
    main()
