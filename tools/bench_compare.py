#!/usr/bin/env python3
"""Perf-regression gate: compare fresh bench_json output against committed
baselines.

Usage:
  bench_compare.py BASELINE_DIR CURRENT_DIR
      [--min-nodes-ratio R]   fail when nodes_per_sec / queries_per_sec of
                              any entry drops below R * baseline (default
                              0.75 — the >25% regression gate)
      [--max-cells-ratio R]   fail when cells_copied_per_expansion of any
                              entry exceeds R * baseline (default 1.0 —
                              any increase fails)
      [--cells-abs-slack S]   absolute cells/expansion slack added on top
                              of the ratio bound (default 2.0), absorbing
                              scheduling jitter in steal-dependent entries
                              whose baseline is near zero
      [--min-seconds S]       skip throughput gates for entries whose
                              baseline run was shorter than S (default
                              0.01): sub-10ms timings are scheduler noise,
                              not signal (cells gates still apply)
      [--skip NAME ...]       baseline files to ignore entirely
      [--throughput-skip NAME ...]
                              baseline files whose nodes/queries-per-sec
                              gates are skipped (client-thread timeslicing
                              noise) but whose latency-percentile gates
                              still apply (e.g. BENCH_service.json)
      [--max-latency-ratio R] fail when a latency_p50/p95/p99_ms field
                              exceeds R * baseline + the absolute slack
                              (default 1.25 — the >25% tail-latency gate;
                              lower-better, so only increases fail)
      [--latency-abs-slack S] absolute ms slack added on top of the
                              latency ratio bound (default 10.0),
                              absorbing scheduler jitter on near-zero
                              cache-hit-dominated baselines
      [--require FILE:KEY:MIN ...]
                              headline summary keys that must be >= MIN in
                              the current run (e.g.
                              BENCH_index.json:fact_lookup_speedup:10.0)

Every BENCH_*.json carries a "host" record (NUMA node count, CPUs per
node, hardware concurrency, CPU model) written by bench_json. The host
record is never gated; when baseline and current hosts disagree the
mismatch is printed as a WARN so cross-machine comparisons are
interpretable instead of silently misleading.

Exit status 0 when every gate holds, 1 otherwise; prints a table either way.
"""

import argparse
import json
import os
import sys


def load(path):
    with open(path) as f:
        return json.load(f)


def check_host(name, base, cur):
    """Warn (never fail) when the two runs came from different hardware."""
    bhost, chost = base.get("host"), cur.get("host")
    if not isinstance(bhost, dict) or not isinstance(chost, dict):
        return
    fields = ("numa_nodes", "cpus_per_node", "hardware_concurrency",
              "cpu_model")
    diffs = [f"{k}: {bhost.get(k)!r} -> {chost.get(k)!r}"
             for k in fields if bhost.get(k) != chost.get(k)]
    if diffs:
        print(f"WARN {name}: host topology mismatch vs baseline "
              f"({'; '.join(diffs)}); throughput ratios may reflect the "
              f"hardware, not the code")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("baseline_dir")
    ap.add_argument("current_dir")
    ap.add_argument("--min-nodes-ratio", type=float, default=0.75)
    ap.add_argument("--max-cells-ratio", type=float, default=1.0)
    ap.add_argument("--cells-abs-slack", type=float, default=2.0)
    ap.add_argument("--min-seconds", type=float, default=0.01)
    ap.add_argument("--skip", action="append", default=[])
    ap.add_argument("--throughput-skip", action="append", default=[])
    ap.add_argument("--max-latency-ratio", type=float, default=1.25)
    ap.add_argument("--latency-abs-slack", type=float, default=10.0)
    ap.add_argument("--require", action="append", default=[])
    args = ap.parse_args()

    failures = []
    checked = 0

    names = sorted(
        n for n in os.listdir(args.baseline_dir)
        if n.startswith("BENCH_") and n.endswith(".json") and n not in args.skip
    )
    if not names:
        print(f"no BENCH_*.json baselines in {args.baseline_dir}", file=sys.stderr)
        return 1

    for name in names:
        base = load(os.path.join(args.baseline_dir, name))
        cur_path = os.path.join(args.current_dir, name)
        if not os.path.exists(cur_path):
            failures.append(f"{name}: missing from current run")
            continue
        cur = load(cur_path)
        check_host(name, base, cur)
        for entry, bvals in base.items():
            if entry == "host" or not isinstance(bvals, dict):
                continue
            cvals = cur.get(entry)
            if not isinstance(cvals, dict):
                failures.append(f"{name}:{entry}: missing from current run")
                continue
            if name not in args.throughput_skip:
                for key in ("nodes_per_sec", "queries_per_sec"):
                    b, c = bvals.get(key), cvals.get(key)
                    if b and c is not None:
                        if bvals.get("seconds",
                                     args.min_seconds) < args.min_seconds:
                            continue  # too short to time meaningfully
                        ratio = c / b
                        ok = ratio >= args.min_nodes_ratio
                        checked += 1
                        print(f"{'OK  ' if ok else 'FAIL'} "
                              f"{name}:{entry}.{key} "
                              f"{c:.0f} vs {b:.0f} (x{ratio:.2f})")
                        if not ok:
                            failures.append(
                                f"{name}:{entry}.{key} regressed to "
                                f"x{ratio:.2f} (< x{args.min_nodes_ratio})")
            # Latency percentiles gate lower-better: only increases beyond
            # ratio * baseline + absolute slack fail.
            for key in ("latency_p50_ms", "latency_p95_ms",
                        "latency_p99_ms"):
                b, c = bvals.get(key), cvals.get(key)
                if b is not None and c is not None:
                    bound = b * args.max_latency_ratio + args.latency_abs_slack
                    ok = c <= bound
                    checked += 1
                    print(f"{'OK  ' if ok else 'FAIL'} {name}:{entry}.{key} "
                          f"{c:.3f}ms vs {b:.3f}ms (bound {bound:.3f}ms)")
                    if not ok:
                        failures.append(
                            f"{name}:{entry}.{key} rose to {c:.3f}ms "
                            f"(> {bound:.3f}ms)")
            key = "cells_copied_per_expansion"
            b, c = bvals.get(key), cvals.get(key)
            if b is not None and c is not None:
                bound = b * args.max_cells_ratio + args.cells_abs_slack
                ok = c <= bound
                checked += 1
                print(f"{'OK  ' if ok else 'FAIL'} {name}:{entry}.{key} "
                      f"{c:.3f} vs {b:.3f} (bound {bound:.3f})")
                if not ok:
                    failures.append(
                        f"{name}:{entry}.{key} rose to {c:.3f} (> {bound:.3f})")

    for req in args.require:
        fname, key, minval = req.rsplit(":", 2)
        cur = load(os.path.join(args.current_dir, fname))
        val = cur.get(key)
        ok = val is not None and float(val) >= float(minval)
        checked += 1
        print(f"{'OK  ' if ok else 'FAIL'} {fname}:{key} = {val} "
              f"(require >= {minval})")
        if not ok:
            failures.append(f"{fname}:{key} = {val} below required {minval}")

    print(f"\n{checked} gates checked, {len(failures)} failed")
    for f in failures:
        print(f"  FAIL: {f}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
