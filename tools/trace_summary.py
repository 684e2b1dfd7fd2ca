#!/usr/bin/env python3
"""Validate and summarize a Chrome trace-event JSON file written by
obs::write_chrome_trace (examples/parallel_search --trace, repl
`:trace dump`).

Usage:
  trace_summary.py TRACE.json [--require-no-drops] [--require-events N]
      [--top-spans K]

Checks (any failure exits 1):
  - the file parses as JSON and has the Chrome trace-event shape
    (traceEvents array; every event carries ph/pid/tid, non-metadata
    events carry name/ts; async spans carry id);
  - per-id "b"/"e" query spans balance;
  - with --require-no-drops, otherData.dropped_events must be 0 — the CI
    gate that the default shard capacity really captures the whole run;
  - with --require-events N, at least N non-metadata events were recorded.

Prints a per-event-kind count table, the per-lane event split, the
steal/spill traffic totals (steals are `steal.take` events; victim scans
that found a target, `steal.attempt`, print as attempts), and the
--top-spans longest query spans.
"""

import argparse
import collections
import json
import sys


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("trace")
    ap.add_argument("--require-no-drops", action="store_true")
    ap.add_argument("--require-events", type=int, default=0)
    ap.add_argument("--top-spans", type=int, default=5)
    args = ap.parse_args()

    try:
        with open(args.trace) as f:
            root = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{args.trace}: {e}")

    if not isinstance(root, dict) or not isinstance(
            root.get("traceEvents"), list):
        fail("not a Chrome trace: top-level traceEvents array missing")
    events = root["traceEvents"]

    by_name = collections.Counter()
    by_lane = collections.Counter()
    lane_names = {}
    span_begin = {}  # query id -> begin ts (us)
    spans = []       # (duration_us, id, begin_ts)
    recorded = 0

    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            fail(f"traceEvents[{i}] is not an object")
        for key in ("ph", "pid"):
            if key not in ev:
                fail(f"traceEvents[{i}] missing '{key}'")
        ph = ev["ph"]
        if ph == "M":
            # process_name metadata is process-scoped (no tid); thread
            # metadata must carry one.
            if ev.get("name") == "thread_name":
                if "tid" not in ev:
                    fail(f"traceEvents[{i}]: thread_name without tid")
                lane_names[ev["tid"]] = ev.get("args", {}).get("name", "?")
            continue
        if "tid" not in ev:
            fail(f"traceEvents[{i}] missing 'tid'")
        if "name" not in ev or "ts" not in ev:
            fail(f"traceEvents[{i}] ({ph}) missing name/ts")
        recorded += 1
        by_name[ev["name"]] += 1
        by_lane[ev["tid"]] += 1
        if ph == "b":
            if "id" not in ev:
                fail(f"traceEvents[{i}]: async begin without id")
            span_begin[ev["id"]] = ev["ts"]
        elif ph == "e":
            if "id" not in ev:
                fail(f"traceEvents[{i}]: async end without id")
            begin = span_begin.pop(ev["id"], None)
            if begin is None:
                fail(f"query span id={ev['id']} ends without a begin")
            spans.append((ev["ts"] - begin, ev["id"], begin))
        elif ph != "i":
            fail(f"traceEvents[{i}]: unexpected phase {ph!r}")

    if span_begin:
        fail(f"unbalanced query spans, never ended: "
             f"{sorted(span_begin)[:10]}")

    other = root.get("otherData", {})
    dropped = other.get("dropped_events")
    if args.require_no_drops:
        if dropped is None:
            fail("otherData.dropped_events missing")
        if dropped != 0:
            fail(f"{dropped} events dropped — raise the shard capacity")
    if recorded < args.require_events:
        fail(f"only {recorded} events recorded (need >= "
             f"{args.require_events})")

    print(f"{args.trace}: {recorded} events on {len(by_lane)} lanes, "
          f"{len(spans)} query spans, dropped={dropped}")
    print("\nevents by kind:")
    for name, n in by_name.most_common():
        print(f"  {n:8d}  {name}")
    print("\nevents by lane:")
    for tid in sorted(by_lane):
        print(f"  {by_lane[tid]:8d}  tid {tid} ({lane_names.get(tid, '?')})")
    spills = sum(n for name, n in by_name.items()
                 if name.startswith("spill."))
    print(f"\nsteals: {by_name['steal.take']}   steal attempts: "
          f"{by_name['steal.attempt']}   spill events: {spills}")
    if spans:
        spans.sort(reverse=True)
        print(f"\ntop {min(args.top_spans, len(spans))} longest query spans:")
        for dur, qid, begin in spans[:args.top_spans]:
            print(f"  id {qid}: {dur / 1000.0:.3f} ms (start "
                  f"{begin / 1000.0:.3f} ms)")
    print("\nOK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
