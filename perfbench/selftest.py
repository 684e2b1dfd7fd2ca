#!/usr/bin/env python3
"""Self-test of the benchmark: short runs of every workload.

    python3 perfbench/selftest.py [--seconds 3]

For each workload in BENCHMARK.json this checks that
  * an untraced run prints exactly the end-to-end metrics, with their units,
    every value non-zero, and reports zero failed operations;
  * a planted wrong answer (--plant-wrong) is counted as one failed
    operation and makes the run incorrect;
  * a traced run prints exactly the per-layer metrics with their units,
    reports zero failed operations, its layer self-time shares and the
    residual add up to the end-to-end time of the traced operations, the
    residual stays within RESIDUAL_LIMIT, and its span file is valid
    Chrome trace JSON.
Exits non-zero on the first failed check.
"""
import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RESIDUAL_LIMIT = 0.05  # benchmark self time / end-to-end time of traced ops


def run(workload, seconds, trace, plant=-1, seed=7):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--plant-wrong", str(plant)]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                         text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def check(cond, what):
    if not cond:
        raise AssertionError(what)


def check_metrics(result, specs, label):
    got = result["metrics"]
    check(list(got) == [s["name"] for s in specs],
          f"{label}: metric names differ from BENCHMARK.json: {list(got)}")
    for s in specs:
        check(got[s["name"]]["unit"] == s["unit"], f"{label}: unit of {s['name']}")
        check(math.isfinite(got[s["name"]]["value"]), f"{label}: {s['name']} not finite")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seconds", type=float, default=3.0)
    a = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    for w in [x["name"] for x in bench["workloads"]]:
        r = run(w, a.seconds, 0)
        check_metrics(r, bench["end_to_end"], f"{w} untraced")
        check(r["correct"] and r["failed"] == 0 and r["attempted"] > 0,
              f"{w}: {r['failed']} of {r['attempted']} operations failed")
        for name, m in r["metrics"].items():
            check(m["value"] > 0, f"{w}: end-to-end metric {name} is {m['value']}")

        r = run(w, a.seconds, 0, plant=3)
        check(r["failed"] == 1 and not r["correct"],
              f"{w}: planted wrong answer counted as {r['failed']} failures")

        r = run(w, a.seconds, 1)
        check_metrics(r, bench["per_layer"], f"{w} traced")
        check(r["correct"] and r["failed"] == 0, f"{w} traced: operations failed")
        m = {k: v["value"] for k, v in r["metrics"].items()}
        shares = sum(v for k, v in m.items() if k.startswith("self."))
        residual = m["trace.residual_share"]
        check(abs(shares + residual - 1.0) < 1e-6,
              f"{w}: layer shares {shares} + residual {residual} != 1")
        check(residual <= RESIDUAL_LIMIT, f"{w}: residual {residual} > {RESIDUAL_LIMIT}")
        check(m["trace.overhead"] > 0, f"{w}: no trace overhead measured")
        target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
        if not os.path.isabs(target):
            target = os.path.join(ROOT, target)
        with open(os.path.join(target, "perfbench", "traces", f"{w}-seed7.json")) as f:
            events = json.load(f)["traceEvents"]
        check(events and all(e["ph"] == "X" and e["dur"] >= 0 for e in events),
              f"{w}: malformed trace file")
        print(f"{w}: ok (residual {residual:.4f}, trace overhead {m['trace.overhead']:.3f})")
    print("selftest: all checks passed")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (AssertionError, subprocess.CalledProcessError) as e:
        print(f"selftest: FAILED: {e}", file=sys.stderr)
        sys.exit(1)
