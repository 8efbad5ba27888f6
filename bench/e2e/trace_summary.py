#!/usr/bin/env python3
"""Reduce a traced bench_e2e run's Chrome trace to a per-layer time budget.

  python3 bench/e2e/trace_summary.py TRACE.json [TRACE.json ...]

For each trace (one per workload) it prints, per layer, the span count, the
total span time and the self time, in thread-seconds.  A span's layer is
the module it times: a `bench.<layer>.<call>` span is the benchmark's own
wrapper around a public call, and the library's own spans map by their
first name segment (engine -> exec, halo -> dist, snapshot -> io,
sched -> batch, serve -> serve).  Self time is a span's duration minus the
time its child spans on the same thread cover.

Exits 1 when the tracer dropped events or a span cuts into another.
"""
import json
import sys
from collections import defaultdict
from pathlib import Path

LIBRARY_LAYERS = {"engine": "exec", "halo": "dist", "snapshot": "io",
                  "sched": "batch", "serve": "serve"}


class TraceError(Exception):
    pass


def layer_of(name):
    parts = name.split(".")
    if parts[0] == "bench" and len(parts) > 2:
        return parts[1]
    return LIBRARY_LAYERS.get(parts[0], parts[0])


def summarize(path):
    """{layer: {"count", "total_s", "self_s"}} of one trace file."""
    doc = json.loads(Path(path).read_text())
    other = doc.get("otherData", {})
    if other.get("dropped", 0):
        raise TraceError(f"{path}: the tracer dropped {other['dropped']} events")
    if other.get("nesting_ok") is False:
        raise TraceError(f"{path}: the tracer reports spans that do not nest")

    threads = defaultdict(list)
    for ev in doc["traceEvents"]:
        if ev.get("ph") != "X":
            continue
        # ts and dur are microseconds with three decimals, i.e. exact ns.
        start = round(ev["ts"] * 1000)
        threads[ev["tid"]].append([start, start + round(ev["dur"] * 1000), ev["name"], 0])

    layers = defaultdict(lambda: {"count": 0, "total_s": 0.0, "self_s": 0.0})
    for tid, spans in threads.items():
        spans.sort(key=lambda s: (s[0], -s[1]))
        stack = []
        for span in spans:
            start, end, name, _ = span
            while stack and stack[-1][1] <= start:
                stack.pop()
            if stack:
                parent = stack[-1]
                if end > parent[1]:
                    raise TraceError(f"{path}: thread {tid}: {name} cuts into {parent[2]}")
                parent[3] += end - start  # children of one parent are disjoint
            stack.append(span)
        for start, end, name, child_ns in spans:
            entry = layers[layer_of(name)]
            entry["count"] += 1
            entry["total_s"] += (end - start) / 1e9
            entry["self_s"] += (end - start - child_ns) / 1e9
    return dict(layers)


def main(argv):
    if not argv or argv[0] in ("-h", "--help"):
        print(__doc__.strip())
        return 0 if argv else 2
    status = 0
    for path in argv:
        try:
            layers = summarize(path)
        except (TraceError, OSError, ValueError, KeyError) as e:
            print(f"trace_summary: {e}", file=sys.stderr)
            status = 1
            continue
        print(f"{path}")
        print(f"  {'layer':8s} {'count':>7s} {'total_s':>12s} {'self_s':>12s}")
        for layer, s in sorted(layers.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"  {layer:8s} {s['count']:7d} {s['total_s']:12.6f} {s['self_s']:12.6f}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
