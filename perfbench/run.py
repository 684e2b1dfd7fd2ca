#!/usr/bin/env python3
"""Build the benchmark harness from source and run one workload.

    python3 perfbench/run.py --workload serve|solve_seq|solve_par \
        --seed N --seconds S --trace 0|1 [--plant-wrong INDEX]

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench
under the checkout root) and is incremental. Build output goes to stderr; the
last line on stdout is the harness's JSON result. A traced run also writes its
spans as Chrome trace JSON to <build>/traces/<workload>-seed<N>.json.
Exits non-zero, printing no result, when the build or the run fails.
"""
import argparse
import os
import shutil
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN_TIMEOUT_S = 170


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build(out):
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    if not any(os.path.exists(os.path.join(out, f)) for f in ("build.ninja", "Makefile")):
        subprocess.run(configure, stdout=sys.stderr, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                   stdout=sys.stderr, check=True)
    return os.path.join(out, "perfbench")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=["serve", "solve_seq", "solve_par"])
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=float)
    p.add_argument("--trace", required=True, choices=["0", "1"])
    p.add_argument("--plant-wrong", type=int, default=-1,
                   help="self-test: count the answer of this timed operation as wrong")
    a = p.parse_args()

    out = build_dir()
    try:
        binary = build(out)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1

    cmd = [binary, "--workload", a.workload, "--seed", str(a.seed),
           "--seconds", str(a.seconds), "--trace", a.trace,
           "--plant-wrong", str(a.plant_wrong)]
    if a.trace == "1":
        traces = os.path.join(out, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--trace-out", os.path.join(traces, f"{a.workload}-seed{a.seed}.json")]
    try:
        run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run timed out", file=sys.stderr)
        return 1
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines or not lines[-1].startswith("{"):
        print(f"perfbench: run failed (exit {run.returncode})", file=sys.stderr)
        return 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
