#!/usr/bin/env python3
"""Gate the observability smoke run (see .github/workflows/ci.yml).

Three independent gates over src/obs/:

  1. Trace export: run a sharded spectrum_sweep with --trace and validate
     the Chrome trace-event JSON — schema (ph/ts/name/tid on every event,
     dur on every "X"), per-thread span pairing/nesting by interval
     containment, and presence of every expected layer (engine spans,
     halo spans when sharded, scheduler job spans with correlation ids).

  2. Daemon metrics: start emwdd, run a small sweep, scrape the metrics
     op through emwd-client --metrics, and assert the Prometheus text
     parses, carries the expected emwd_* families (the status mirror, the
     fault bridge and the process-wide registry), and agrees EXACTLY
     with the status document embedded in the same metrics reply (the
     one-snapshot identity), including the scheduler accounting identity.

  3. Overhead (optional, --bench): run bench_micro's BM_ObsSpanDisabled
     and hold the disarmed-span cost under --max-span-ns.

Artifacts written for upload: OBS_trace.json, OBS_metrics.prom,
OBS_metrics.json, OBS_daemon.log, OBS_span_bench.json (with --bench).

Exit code 0 = all gates passed.
"""

import argparse
import json
import os
import subprocess
import sys
import time


def fail(msg):
    print(f"FAIL: {msg}", file=sys.stderr)
    sys.exit(1)


# ------------------------------------------------------------------ gate 1

def check_trace(sweep_bin, trace_path):
    cmd = [
        sweep_bin, "--nx=12", "--nz=32", "--lambdas=4", "--steps=40",
        "--jobs=2", "--threads=2",
        "--engine=sharded(shards=2,interval=1,inner=naive)",
        f"--trace={trace_path}",
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")

    try:
        with open(trace_path) as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"trace not loadable JSON: {e}")

    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        fail("trace has no traceEvents array")

    spans_by_tid = {}
    for ev in events:
        for key in ("name", "ph", "ts", "pid", "tid"):
            if key not in ev:
                fail(f"event missing {key}: {ev}")
        if ev["ph"] not in ("X", "i"):
            fail(f"unexpected phase {ev['ph']}: {ev}")
        if ev["ph"] == "X":
            if "dur" not in ev or ev["dur"] < 0:
                fail(f"complete event without a valid dur: {ev}")
            spans_by_tid.setdefault(ev["tid"], []).append(ev)

    # Pairing/nesting: spans are emitted at scope exit, so per thread they
    # are ordered by end time and every span must either contain or fully
    # precede each earlier-ended span (proper stack nesting).
    for tid, spans in spans_by_tid.items():
        done = []  # (begin, end) of earlier-ended spans
        for ev in spans:
            begin, end = ev["ts"], ev["ts"] + ev["dur"]
            while done and done[-1][0] >= begin - 1e-6:
                if done[-1][1] > end + 1e-6:
                    fail(f"tid {tid}: span nesting broken at {ev['name']}")
                done.pop()
            if done and done[-1][1] > begin + 1e-6:
                fail(f"tid {tid}: overlapping spans at {ev['name']}")
            done.append((begin, end))

    names = {ev["name"] for ev in events}
    for required in ("engine.run", "halo.post", "halo.wait", "sched.job"):
        if required not in names:
            fail(f"trace lacks {required} spans (layers present: "
                 f"{sorted({n.split('.')[0] for n in names})})")

    # Scheduler jobs stamp correlation ids that the engine layer inherits.
    jobs_in_engine_spans = {
        ev.get("args", {}).get("job")
        for ev in events
        if ev["name"].startswith("engine.") and ev.get("args", {}).get("job") is not None
    }
    if not jobs_in_engine_spans:
        fail("no engine span carries a scheduler correlation id (args.job)")

    span_count = sum(len(s) for s in spans_by_tid.values())
    print(f"OK: trace has {len(events)} events, {span_count} paired spans on "
          f"{len(spans_by_tid)} threads, layers {sorted({n.split('.')[0] for n in names})}, "
          f"{len(jobs_in_engine_spans)} correlated job(s)")


# ------------------------------------------------------------------ gate 2

def parse_prometheus(text):
    samples = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        if not key:
            fail(f"unparseable prometheus line: {line!r}")
        try:
            samples[key] = float(value)
        except ValueError:
            fail(f"non-numeric prometheus sample: {line!r}")
    return samples


def run_client(client, socket, extra, timeout=300):
    cmd = [client, f"--socket={socket}"] + extra
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def check_daemon_metrics(emwdd, client, socket, prefix):
    if os.path.exists(socket):
        os.unlink(socket)
    daemon_log = open(f"{prefix}_daemon.log", "w")
    daemon = subprocess.Popen(
        [emwdd, f"--socket={socket}", "--concurrency=2", "--no-pin"],
        stdout=daemon_log, stderr=subprocess.STDOUT)
    try:
        for _ in range(100):
            if os.path.exists(socket):
                break
            if daemon.poll() is not None:
                fail(f"emwdd exited early with {daemon.returncode} "
                     f"(see {prefix}_daemon.log)")
            time.sleep(0.1)
        else:
            fail("daemon socket never appeared")

        run_client(client, socket,
                   ["--sweep=scene=layered;grid=12x12x24;lambda=16,20;steps=30;"
                    "threads=2;engine=naive;pml=3"])

        prom_text = run_client(client, socket, ["--metrics"])
        with open(f"{prefix}_metrics.prom", "w") as fh:
            fh.write(prom_text)
        samples = parse_prometheus(prom_text)
        # The reply's own mirror of the status snapshot, the fault bridge
        # (emwd_fault_armed) and the process-wide registry's metrics counted
        # at their site (emwd_serve_request_seconds_count) all ride in one
        # scrape.
        for family in ("emwd_sched_jobs_submitted", "emwd_sched_jobs_completed",
                       "emwd_queue_admitted", "emwd_serve_requests",
                       "emwd_serve_results_streamed", "emwd_engine_steps",
                       "emwd_fault_armed", "emwd_serve_request_seconds_count"):
            if family not in samples:
                fail(f"prometheus text lacks {family}")

        # The one-snapshot identity: the metrics op's embedded status and
        # its Prometheus rendering must agree exactly, counter for counter.
        status_text = run_client(client, socket, ["--status"])
        with open(f"{prefix}_metrics.json", "w") as fh:
            fh.write(status_text)
        status = json.loads(status_text)
        sched = status["scheduler"]
        accounted = (sched["completed"] + sched["failed"] + sched["cancelled"]
                     + sched["queued"] + sched["running"])
        if accounted != sched["submitted"]:
            fail(f"scheduler accounting identity broken: {sched}")
        # The sweep is drained before both scrapes, so the monotonic job
        # counters agree between the metrics op and a later status op.
        for prom_key, value in (
                ("emwd_sched_jobs_submitted", sched["submitted"]),
                ("emwd_sched_jobs_completed", sched["completed"]),
                ("emwd_queue_admitted", status["queue"]["admitted"]),
                ("emwd_queue_dispatched", status["queue"]["dispatched"])):
            if samples[prom_key] != value:
                fail(f"{prom_key}={samples[prom_key]} disagrees with status {value}")
        if sched["completed"] != 2:
            fail(f"expected 2 completed jobs, got {sched['completed']}")
        # Satellite (a): the status document embeds canonical EngineStats.
        engine = sched.get("engine")
        if not isinstance(engine, dict) or "steps" not in engine:
            fail(f"scheduler.engine is not a canonical EngineStats object: {engine}")
        if samples["emwd_engine_steps"] != engine["steps"]:
            fail("emwd_engine_steps disagrees with status scheduler.engine.steps")

        run_client(client, socket, ["--shutdown"])
        try:
            rc = daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            fail("daemon did not exit within 30 s of the shutdown op")
        if rc != 0:
            fail(f"daemon exited {rc} after shutdown op")
        print(f"OK: metrics op serves {len(samples)} prometheus samples that "
              "match the status document; accounting identity holds")
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        daemon_log.close()


# ------------------------------------------------------------------ gate 3

def check_span_overhead(bench, max_span_ns, out_path):
    # Plain double (seconds): the "0.2s" suffix form needs benchmark >= 1.8.
    cmd = [bench, "--benchmark_filter=BM_ObsSpanDisabled",
           "--benchmark_format=json", "--benchmark_min_time=0.2"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        fail(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    with open(out_path, "w") as fh:
        fh.write(proc.stdout)
    doc = json.loads(proc.stdout)
    runs = [b for b in doc.get("benchmarks", [])
            if b.get("name", "").startswith("BM_ObsSpanDisabled")]
    if not runs:
        fail("bench_micro produced no BM_ObsSpanDisabled result")
    ns = min(b["real_time"] for b in runs)  # time_unit is ns by default
    if ns > max_span_ns:
        fail(f"disarmed OBS_SPAN costs {ns:.2f} ns > budget {max_span_ns} ns")
    print(f"OK: disarmed OBS_SPAN costs {ns:.2f} ns (budget {max_span_ns} ns)")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sweep-bin", default="./build/spectrum_sweep")
    ap.add_argument("--emwdd", default="./build/emwdd")
    ap.add_argument("--client", default="./build/emwd-client")
    ap.add_argument("--bench", default="",
                    help="bench_micro binary; empty skips the overhead gate")
    ap.add_argument("--max-span-ns", type=float, default=2.0,
                    help="disarmed OBS_SPAN budget in nanoseconds")
    ap.add_argument("--socket", default="/tmp/emwdd-obs-ci.sock")
    ap.add_argument("--prefix", default="OBS", help="artifact file prefix")
    args = ap.parse_args()

    check_trace(args.sweep_bin, f"{args.prefix}_trace.json")
    check_daemon_metrics(args.emwdd, args.client, args.socket, args.prefix)
    if args.bench:
        check_span_overhead(args.bench, args.max_span_ns,
                            f"{args.prefix}_span_bench.json")
    return 0


if __name__ == "__main__":
    sys.exit(main())
