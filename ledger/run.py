#!/usr/bin/env python3
"""Builds and runs the layer ledger benchmark (see ledger/README.md).

    python3 ledger/run.py --workload solve-rmat1 --seed 1 --seconds 30 --trace 0

Run from the repository root. The first run configures and builds a Release
tree of the library and the benchmark program under .bench_build/ledger; later runs
rebuild incrementally. Build output goes to stderr, so the last line of
stdout is always the result JSON. The exit status is non-zero when the build
fails, an operation fails or its answer is wrong, or the printed metric
names do not match BENCHMARK.json.
"""
import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "ledger")
BINARY = os.path.join(BUILD, "ledger_bench")
WORKLOADS = ("solve-rmat1", "solve-road", "serve-mixed")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def fail(message, code=2):
    print(f"ledger: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("library sources (src/) not found next to ledger/")
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4",
                  "--target", "ledger_bench"])
    for cmd in steps:
        try:
            done = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as e:
            fail(f"build step {cmd[:2]} failed: {e}")
        if done.returncode != 0:
            fail(f"build step {cmd[:2]} exited {done.returncode}")


def commit():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def expected_metrics(trace):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError(f"unexpected result keys {sorted(result)}")
    names = list(result["metrics"])
    want = expected_metrics(trace)
    if sorted(names) != sorted(want):
        raise ValueError(f"metrics {names} do not match BENCHMARK.json {want}")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--corrupt", action="store_true",
                   help="negative control: corrupt one checked answer")
    p.add_argument("--dump-inputs", action="store_true",
                   help="print the seed-derived inputs and exit")
    args = p.parse_args()

    build()
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--commit", commit()]
    if args.corrupt:
        cmd.append("--corrupt")
    if args.dump_inputs:
        cmd.append("--dump-inputs")
    try:
        done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run exceeded {RUN_TIMEOUT_S} s")
    lines = done.stdout.rstrip("\n").splitlines()
    if args.dump_inputs:
        print("\n".join(lines))
        sys.exit(done.returncode)
    if not lines:
        fail(f"no output (exit {done.returncode})")
    try:
        check_result(lines[-1], args.trace)
    except (ValueError, KeyError, OSError) as e:
        print("\n".join(lines[:-1]))
        fail(f"bad result line: {e}")
    print("\n".join(lines), flush=True)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
