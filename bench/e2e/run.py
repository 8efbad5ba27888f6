#!/usr/bin/env python3
"""The repository benchmark: build bench_e2e, run workloads, print metrics.

  python3 bench/e2e/run.py --build build --seed 1        # all four workloads
  python3 bench/e2e/run.py --workload sweep_cells --seed 3 --seconds 10
  python3 bench/e2e/run.py --trace --seed 1              # per-layer metrics

The program is built from source into <build>/bench-e2e, a CMake tree of
its own; --build (default .bench_build at the repository root) may be the
repository's build tree.  Each workload runs in a fresh bench_e2e process
for a timed window of --seconds, then checks its outputs.  Every metric is
printed as `workload metric value unit n=<samples>`, and the run is written
to one JSON result file (--out).  The last line of standard output is one
JSON object with `correct`, `attempted`, `failed` and `metrics`: the
end-to-end metrics of BENCHMARK.json, or with --trace its per-layer metrics,
which come from a traced re-run of each workload.  With more than one
workload the metric keys are `<workload>/<metric>`.  Exits 1 when an output
check fails.

Workloads and metrics are defined in bench/e2e/README.md.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import trace_summary  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
WORKLOADS = ["solve_large", "sweep_cells", "serve_clients", "sharded_ckpt"]
LAYERS = ["kernels", "exec", "tune", "thiim", "em", "batch", "serve", "dist", "io"]
PROCESS_TIMEOUT_S = 175


def fail(message, code=2):
    print(f"run.py: {message}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"the emwd sources are not under {ROOT}; run from a full checkout")
    try:
        return json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")


def build(tree):
    """Configure `tree` once, then build bench_e2e incrementally; returns its path."""
    if not (tree / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(tree), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(tree), "--target", "bench_e2e",
           "-j", str(os.cpu_count() or 1)]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        fail("build failed")
    return tree / "bench_e2e"


def commit():
    if not (ROOT / ".git").exists():  # an exported checkout; never ask a parent repository
        return "unknown"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def run_workload(exe, tree, workload, seed, seconds, traced):
    """One bench_e2e process; returns its result document."""
    work = tree / "work" / workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    out = work / "result.json"
    cmd = [str(exe), f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}",
           f"--out={out}"]
    if traced:
        cmd.append(f"--trace-out={work / 'trace.json'}")
    try:
        proc = subprocess.run(cmd, cwd=work, stdout=sys.stderr, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload}: bench_e2e did not finish within {PROCESS_TIMEOUT_S} s", 1)
    if proc.returncode != 0:
        fail(f"{workload}: bench_e2e exited with {proc.returncode}", 1)
    result = json.loads(out.read_text())
    if traced:
        try:
            layers = trace_summary.summarize(work / "trace.json")
        except trace_summary.TraceError as e:
            fail(str(e), 1)
        for layer in LAYERS:
            spans = layers.get(layer, {"count": 0, "self_s": 0.0})
            result["metrics"][f"{layer}.self_s"] = {
                "value": spans["self_s"], "unit": "s", "n": spans["count"]}
    return result


def baseline_spread(workload, metric):
    """The quartile spread of `metric` over its median in BASELINE.json."""
    try:
        s = json.loads((HERE / "BASELINE.json").read_text())["summary"][workload][metric]
        return (s["q3"] - s["q1"]) / s["median"]
    except (OSError, ValueError, KeyError, ZeroDivisionError):
        return None


def measure(exe, tree, workload, seed, seconds, traced):
    """The untraced run, plus with `traced` a traced re-run whose per-layer
    metrics replace the untraced ones and whose cost is obs.overhead_frac.
    One pair of runs cannot resolve an overhead smaller than the run-to-run
    spread of run_mlups, so the result says whether it is resolved."""
    result = run_workload(exe, tree, workload, seed, seconds, False)
    if traced:
        plain = result["metrics"]["run_mlups"]["value"]
        result = run_workload(exe, tree, workload, seed, seconds, True)
        overhead = 1.0 - result["metrics"]["run_mlups"]["value"] / plain
        spread = baseline_spread(workload, "run_mlups")
        result["metrics"]["obs.overhead_frac"] = {"value": overhead, "unit": "frac", "n": 1}
        result["overhead"] = {
            "resolved": spread is not None and abs(overhead) > spread,
            "run_mlups_spread": spread}
    m = result["metrics"]
    m["failed_frac"] = {"value": result["failed"] / result["attempted"], "unit": "frac",
                        "n": result["attempted"]}
    return result


def headline(result, specs, workload, bypassed_ok):
    """The metrics of BENCHMARK.json that the last line reports.  A per-layer
    metric of a layer the workload bypasses reads 0 with n=0."""
    out = {}
    for spec in specs:
        m = result["metrics"].get(spec["name"])
        if m is None:
            if not bypassed_ok:
                fail(f"{workload}: bench_e2e did not report {spec['name']}", 1)
            m = {"value": 0.0, "unit": spec["unit"], "n": 0}
            result["metrics"][spec["name"]] = m
        if m["unit"] != spec["unit"]:
            fail(f"{workload}: {spec['name']} is in {m['unit']}, BENCHMARK.json says "
                 f"{spec['unit']}", 1)
        out[spec["name"]] = {"value": m["value"], "unit": m["unit"]}
    return out


def main():
    bench = load_benchmark()
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=[0, 1])
    ap.add_argument("--build", type=Path, default=ROOT / ".bench_build",
                    help="directory for the bench-e2e build tree (may be the repository's build/)")
    ap.add_argument("--out", type=Path, help="result JSON (default: under --build)")
    args = ap.parse_args()
    workloads = args.workload or WORKLOADS
    tree = args.build.resolve() / "bench-e2e"

    exe = build(tree)
    started = time.time()
    specs = bench["per_layer"] if args.trace else bench["end_to_end"]
    doc = {"seed": args.seed, "seconds": args.seconds, "trace": args.trace,
           "commit": commit(), "workloads": {}}
    last = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for w in workloads:
        result = measure(exe, tree, w, args.seed, args.seconds, args.trace)
        picked = headline(result, specs, w, bypassed_ok=bool(args.trace))
        result["provenance"]["commit"] = doc["commit"]
        doc["workloads"][w] = result
        for name, m in sorted(result["metrics"].items()):
            print(f"{w} {name} {m['value']:.6g} {m['unit']} n={m['n']}")
        if "overhead" in result:
            o = result["overhead"]
            within = ("no BASELINE.json spread to compare with" if o["run_mlups_spread"] is None
                      else f"run-to-run spread of run_mlups in BASELINE.json: "
                           f"{o['run_mlups_spread']:.3f}")
            print(f"{w} obs.overhead_frac {'resolved' if o['resolved'] else 'unresolved'} "
                  f"({within})")
        for check in result["checks"]:
            print(f"{w} check {'ok' if check['ok'] else 'FAILED'}: {check['name']} "
                  f"({check['detail']})")
        last["correct"] = last["correct"] and result["correct"]
        last["attempted"] += result["attempted"]
        last["failed"] += result["failed"]
        for name, m in picked.items():
            last["metrics"][name if len(workloads) == 1 else f"{w}/{name}"] = m
    doc["wall_seconds"] = time.time() - started

    out = args.out or tree / "results" / (
        f"{'+'.join(workloads)}-seed{args.seed}{'-trace' if args.trace else ''}"
        f"-{int(started)}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"result: {out}")
    print(json.dumps(last))
    return 0 if last["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
