#!/usr/bin/env python3
"""Compare two sets of benchmark runs, metric by metric and workload by workload.

  python3 bench/e2e/compare.py A B
  python3 bench/e2e/compare.py --summarize RUNS > bench/e2e/BASELINE.json

A (the parent) and B (the change) each name run.py result files: one file,
a directory of them, or a summary written by --summarize, such as
bench/e2e/BASELINE.json.  For every pair of an end-to-end metric of
BENCHMARK.json and a workload, it prints each side's median and quartiles
(statistics.quantiles, n=4) and a verdict by the bound BENCHMARK.json fixes
for the metric:

  unresolved  a side's quartile spread, as a share of its median, is wider
              than the bound, and not every B run beats every A run (if
              every one does, the verdict is improved)
  regressed   B's median is worse than A's by more than the bound
  improved    B beats A in at least 9 of 10 runs paired in order (ties count
              for neither), and the medians differ by more than A's
              quartile spread
  same        otherwise

Exits 1 when any pair is regressed or unresolved.
"""
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load(path):
    """The run documents behind `path`."""
    p = Path(path)
    if p.is_dir():
        return [run for f in sorted(p.glob("*.json")) for run in load(f)]
    doc = json.loads(p.read_text())
    return doc["runs"] if "runs" in doc else [doc]


def values(runs, workload, metric):
    out = []
    for run in runs:
        m = run["workloads"].get(workload, {}).get("metrics", {}).get(metric)
        if m is not None:
            out.append(m["value"])
    return out


def quartiles(v):
    """(q1, median, q3) as the benchmark's acceptance reads them."""
    if len(v) < 2:
        return v[0], v[0], v[0]
    q1, _, q3 = statistics.quantiles(v, n=4)
    return q1, statistics.median(v), q3


def verdict(a, b, better, bound):
    sign = 1.0 if better == "lower" else -1.0

    def worse(x, ref):  # > 0 when x is worse than ref, as a share of ref
        return sign * (x - ref) / (abs(ref) or 1e-300)

    qa, qb = quartiles(a), quartiles(b)
    spread = max((qa[2] - qa[0]) / (abs(qa[1]) or 1e-300),
                 (qb[2] - qb[0]) / (abs(qb[1]) or 1e-300))
    if spread > bound:
        return "improved" if all(worse(y, x) < 0 for x in a for y in b) else "unresolved"
    change = worse(qb[1], qa[1])
    if change > bound:
        return "regressed"
    pairs = list(zip(a, b))
    wins = sum(worse(y, x) < 0 for x, y in pairs)
    if change < 0 and wins >= 0.9 * len(pairs) and abs(qb[1] - qa[1]) > qa[2] - qa[0]:
        return "improved"
    return "same"


def workloads_of(runs):
    names = []
    for run in runs:
        names += [w for w in run["workloads"] if w not in names]
    return names


def compare(a_runs, b_runs, metrics):
    print(f"{'workload':14s} {'metric':14s} {'unit':7s} {'A median [q1, q3]':>34s} "
          f"{'B median [q1, q3]':>34s} {'change':>8s}  verdict")
    bad = False
    for w in workloads_of(a_runs):
        for spec in metrics:
            a = values(a_runs, w, spec["name"])
            b = values(b_runs, w, spec["name"])
            if not a or not b:
                continue
            qa, qb = quartiles(a), quartiles(b)
            v = verdict(a, b, spec["better"], spec["bound"])
            bad = bad or v in ("regressed", "unresolved")
            print(f"{w:14s} {spec['name']:14s} {spec['unit']:7s} "
                  f"{qa[1]:10.5g} [{qa[0]:9.5g}, {qa[2]:9.5g}] "
                  f"{qb[1]:10.5g} [{qb[0]:9.5g}, {qb[2]:9.5g}] "
                  f"{(qb[1] - qa[1]) / qa[1]:+8.2%}  {v} (n={len(a)}/{len(b)})")
    return 1 if bad else 0


def summarize(runs):
    """Every run plus, per workload and metric, the median and quartiles."""
    summary = {}
    for w in workloads_of(runs):
        metrics = {}
        for run in runs:
            for name, m in run["workloads"].get(w, {}).get("metrics", {}).items():
                metrics.setdefault(name, m["unit"])
        summary[w] = {}
        for name, unit in sorted(metrics.items()):
            v = values(runs, w, name)
            q1, med, q3 = quartiles(v)
            summary[w][name] = {"median": med, "q1": q1, "q3": q3, "unit": unit, "runs": len(v)}
    return {"runs": runs, "summary": summary}


def main(argv):
    if len(argv) == 2 and argv[0] == "--summarize":
        print(json.dumps(summarize(load(argv[1])), indent=1))
        return 0
    if len(argv) != 2 or argv[0].startswith("-"):
        print(__doc__.strip(), file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return compare(load(argv[0]), load(argv[1]), bench["end_to_end"])


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
