#!/usr/bin/env python3
"""Gate the checkpoint/restart smoke run (see .github/workflows/ci.yml).

The property under test is the tentpole contract of src/io/README.md: a
sweep that is checkpointed, KILLED mid-flight (SIGKILL, no cleanup) and
resumed from its snapshot files produces observables byte-identical to an
uninterrupted run.  Sequence:

  1. baseline:  spectrum_sweep writes its observables-only CSV, no
     checkpointing;
  2. kill run:  the same sweep with --checkpoint-every/--checkpoint-dir;
     the script polls the checkpoint dir and SIGKILLs the process as soon
     as snapshot files exist;
  3. resume:    the same sweep again with --resume; jobs restore from
     their job<index>.ckpt and run only the remaining steps;
  4. gate:      the resumed CSV must be byte-for-byte identical to the
     baseline CSV (the CSV carries only run-deterministic columns).

Optionally (--bench), measures the overhead of asynchronous snapshot
writing: bench_shard_scaling with --checkpoint-every at ~1/10 of the run
vs. without.  Gated strictly on the engine-side capture stall
(--max-capture-pct, default 5%) and leniently on total wall overhead
(--max-overhead-pct), which also absorbs the background writer's CPU time
on runners without a spare core.

Exit code 0 = gate passed.
"""

import argparse
import glob
import os
import signal
import subprocess
import sys
import time


def sweep_args(exe, args, out_csv, ckpt_dir=None, resume=False):
    cmd = [
        exe,
        f"--nx={args.nx}", f"--nz={args.nz}",
        f"--lambdas={args.lambdas}", f"--steps={args.steps}",
        f"--jobs={args.jobs}", f"--engine={args.engine}",
        f"--csv-observables={out_csv}",
    ]
    if ckpt_dir is not None:
        cmd += [f"--checkpoint-every={args.checkpoint_every}",
                f"--checkpoint-dir={ckpt_dir}"]
    if resume:
        cmd += ["--resume"]
    return cmd


def run_to_completion(cmd, log_path):
    with open(log_path, "w") as log:
        rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT)
    if rc != 0:
        sys.exit(f"FAIL: {' '.join(cmd)} exited {rc} (log: {log_path})")


def run_and_kill(cmd, ckpt_dir, log_path, min_ckpts, timeout_s):
    """Start the sweep, SIGKILL it once >= min_ckpts snapshot files exist.

    Returns the number of snapshot files present at kill time.  Fails if
    the process finishes before enough snapshots land (the smoke must
    actually interrupt work to prove anything) or never produces them.
    """
    with open(log_path, "w") as log:
        proc = subprocess.Popen(cmd, stdout=log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + timeout_s
        try:
            while time.monotonic() < deadline:
                ckpts = glob.glob(os.path.join(ckpt_dir, "job*.ckpt"))
                if len(ckpts) >= min_ckpts:
                    proc.send_signal(signal.SIGKILL)
                    proc.wait()
                    return len(ckpts)
                if proc.poll() is not None:
                    sys.exit(
                        f"FAIL: kill run finished (rc={proc.returncode}) before "
                        f"{min_ckpts} checkpoint(s) appeared — raise --steps or "
                        f"lower --checkpoint-every so the kill lands mid-run")
                time.sleep(0.02)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    sys.exit(f"FAIL: no checkpoint files in {ckpt_dir} after {timeout_s}s")


def gate_bench_overhead(args):
    """Run bench_shard_scaling with and without checkpointing at a cadence
    of 1/10 of the run, then gate two numbers:

      * capture stall / checkpointed wall < --max-capture-pct (strict):
        the engine-side cost of snapshotting — the parallel copy into a
        staging buffer plus any wait for a free one.  One staging buffer
        plus one on demand is supposed to keep this tiny, on any host.
      * total wall overhead < --max-overhead-pct (lenient): also includes
        the background serialize+write thread competing for cores — near
        zero with a spare core, but on 1-2 vCPU runners the writer's CPU
        time lands on wall time, so the bound must absorb that.
    """
    import csv as csvmod
    import re

    def run_bench(csv_path, extra):
        cmd = [args.bench, "--nz=64", f"--steps={args.bench_steps}",
               "--shards=1,2", "--engine=naive", "--repeats=2",
               f"--csv={csv_path}"] + extra
        run_to_completion(cmd, csv_path + ".log")
        with open(csv_path, newline="") as fh:
            rows = list(csvmod.DictReader(fh))
        return {(r["inner"], r["shards"], r["transport"]): float(r["seconds"])
                for r in rows}

    every = max(1, args.bench_steps // 10)
    plain = run_bench("CKPT_bench_plain.csv", [])
    ckpt = run_bench("CKPT_bench_ckpt.csv",
                     [f"--checkpoint-every={every}",
                      "--checkpoint-dir=" + args.workdir])
    if set(plain) != set(ckpt):
        sys.exit("FAIL: bench rows differ between plain and checkpointed runs")
    total_plain = sum(plain.values())
    total_ckpt = sum(ckpt.values())
    overhead = 100.0 * (total_ckpt - total_plain) / total_plain

    with open("CKPT_bench_ckpt.csv.log") as fh:
        m = re.search(r"engine stalled ([0-9.eE+-]+) s in capture", fh.read())
    if not m:
        sys.exit("FAIL: checkpointed bench printed no capture-stall summary")
    capture_pct = 100.0 * float(m.group(1)) / total_ckpt

    print(f"checkpoint overhead: {total_plain:.4f}s plain vs {total_ckpt:.4f}s "
          f"checkpointed (every {every} of {args.bench_steps} steps) = "
          f"{overhead:+.1f}% wall, {capture_pct:.1f}% engine capture stall")
    if capture_pct > args.max_capture_pct:
        sys.exit(f"FAIL: engine capture stall {capture_pct:.1f}% exceeds "
                 f"{args.max_capture_pct}%")
    if overhead > args.max_overhead_pct:
        sys.exit(f"FAIL: snapshot overhead {overhead:.1f}% exceeds "
                 f"{args.max_overhead_pct}%")


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sweep", required=True, help="path to spectrum_sweep")
    ap.add_argument("--workdir", default="ckpt_smoke",
                    help="scratch dir for snapshots")
    ap.add_argument("--nx", type=int, default=16)
    ap.add_argument("--nz", type=int, default=48)
    ap.add_argument("--lambdas", type=int, default=4)
    ap.add_argument("--steps", type=int, default=400)
    ap.add_argument("--jobs", type=int, default=2)
    ap.add_argument("--engine", default="mwd(dw=4,bz=2)")
    ap.add_argument("--checkpoint-every", type=int, default=20)
    ap.add_argument("--min-ckpts", type=int, default=1,
                    help="snapshot files required before the kill")
    ap.add_argument("--timeout", type=float, default=300.0)
    ap.add_argument("--bench", default=None,
                    help="path to bench_shard_scaling; enables the overhead gate")
    ap.add_argument("--bench-steps", type=int, default=300)
    ap.add_argument("--max-capture-pct", type=float, default=5.0,
                    help="strict bound on engine capture stall as %% of "
                         "checkpointed wall time")
    ap.add_argument("--max-overhead-pct", type=float, default=40.0,
                    help="lenient bound on total wall overhead (absorbs the "
                         "background writer's CPU time on 1-2 vCPU runners)")
    args = ap.parse_args()

    os.makedirs(args.workdir, exist_ok=True)
    for stale in glob.glob(os.path.join(args.workdir, "job*.ckpt")):
        os.remove(stale)

    # 1. Uninterrupted baseline.
    run_to_completion(sweep_args(args.sweep, args, "CKPT_baseline.csv"),
                      "CKPT_baseline.log")

    # 2. Checkpointed run, killed as soon as snapshots exist.
    n = run_and_kill(
        sweep_args(args.sweep, args, "CKPT_killed.csv", ckpt_dir=args.workdir),
        args.workdir, "CKPT_kill.log", args.min_ckpts, args.timeout)
    print(f"killed the sweep with {n} snapshot file(s) on disk")

    # 3. Resume from the snapshots left by the killed process.
    run_to_completion(
        sweep_args(args.sweep, args, "CKPT_resumed.csv",
                   ckpt_dir=args.workdir, resume=True),
        "CKPT_resume.log")

    # 4. Byte-identical observables.
    with open("CKPT_baseline.csv", "rb") as fh:
        baseline = fh.read()
    with open("CKPT_resumed.csv", "rb") as fh:
        resumed = fh.read()
    if baseline != resumed:
        sys.exit("FAIL: resumed sweep CSV differs from the uninterrupted "
                 "baseline (CKPT_baseline.csv vs CKPT_resumed.csv)")
    if b",ok," not in baseline:
        sys.exit("FAIL: baseline CSV carries no ok rows — sweep misconfigured?")
    print(f"resume gate passed: {len(baseline)} bytes byte-identical "
          f"across kill/resume")

    if args.bench:
        gate_bench_overhead(args)

    print("PASS")


if __name__ == "__main__":
    main()
