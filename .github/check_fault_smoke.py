#!/usr/bin/env python3
"""Gate the fault-injection chaos smoke run (see .github/workflows/ci.yml).

The property under test is the tentpole contract of src/fault/README.md
and src/batch/README.md "Failure semantics": a sweep bombarded with
injected faults — engine-step throws and snapshot-writer failures — must,
through retries and checkpoint auto-recovery, produce an observables CSV
byte-identical to the fault-free run.  Recovery only ever resumes from a
CRC-valid snapshot or from scratch, so determinism survives any fault
timing.  Sequence:

  1. baseline:  spectrum_sweep writes its observables-only CSV, no
     faults;
  2. chaos run: the same sweep with EMWD_FAULTS arming engine.step and
     snapshot.writer, --retries so every injected failure is retried,
     checkpointing on so recovery has material; must exit 0;
  3. gates:     chaos CSV byte-identical to baseline; the FAULT report
     shows fires > 0 (the run was genuinely faulted); the recovery
     summary shows retries > 0 (the failure policies actually ran);
  4. corrupt:   flip a byte mid-file in one checkpoint left by the chaos
     run, re-run with --resume: the corpse must be quarantined as
     job<i>.ckpt.bad, the job restarted from scratch, and the CSV again
     byte-identical;
  5. shm sweep: the same sweep over the shared-memory ring transport
     (transport=shm), no faults: the CSV is observables-only, so it must be
     byte-identical to the baseline;
  6. shm chaos: the shm sweep bombarded with transport faults
     (transport.stage throws mid-protocol, transport.shm.torn simulates a
     torn ring slot) plus retries and checkpointing: must exit 0 with
     fires > 0 and, again, a byte-identical CSV.

Exit code 0 = gate passed.
"""

import argparse
import glob
import os
import re
import shutil
import subprocess
import sys


def sweep_cmd(args, out_csv, ckpt_dir=None, resume=False, retries=1,
              engine=None):
    cmd = [
        args.sweep,
        f"--nx={args.nx}", f"--nz={args.nz}",
        f"--lambdas={args.lambdas}", f"--steps={args.steps}",
        f"--jobs={args.jobs}", f"--engine={engine or args.engine}",
        f"--csv-observables={out_csv}",
    ]
    if ckpt_dir is not None:
        cmd += [f"--checkpoint-every={args.checkpoint_every}",
                f"--checkpoint-dir={ckpt_dir}"]
    if resume:
        cmd += ["--resume"]
    if retries > 1:
        cmd += [f"--retries={retries}"]
    return cmd


def run(cmd, log_path, env=None):
    full_env = dict(os.environ)
    if env:
        full_env.update(env)
    with open(log_path, "w") as log:
        rc = subprocess.call(cmd, stdout=log, stderr=subprocess.STDOUT,
                             env=full_env)
    if rc != 0:
        sys.exit(f"FAIL: {' '.join(cmd)} exited {rc} (log: {log_path})")


def require_identical(a, b, what):
    with open(a, "rb") as fa, open(b, "rb") as fb:
        if fa.read() != fb.read():
            sys.exit(f"FAIL: {what}: {a} and {b} differ — fault recovery "
                     f"perturbed the observables")
    print(f"OK: {what}: {a} == {b} (byte-identical)")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--sweep", default="./build/spectrum_sweep")
    ap.add_argument("--nx", type=int, default=12)
    ap.add_argument("--nz", type=int, default=32)
    ap.add_argument("--lambdas", type=int, default=4)
    ap.add_argument("--steps", type=int, default=60)
    ap.add_argument("--jobs", type=int, default=2)
    # The sharded engine runs the most threads and the most teardown-
    # sensitive state, so it is the one to chaos-test.
    ap.add_argument("--engine", default="sharded(shards=2,interval=2,inner=naive)")
    ap.add_argument("--checkpoint-every", type=int, default=20)
    ap.add_argument("--workdir", default="FAULT_ckpts")
    # engine.step throws spread across the fleet (3 total, so no job can
    # exhaust --retries=4); snapshot.writer kills one background write.
    ap.add_argument("--faults",
                    default="engine.step=every:7*3;snapshot.writer=once:2")
    # Phase 5/6: the zero-copy shared-memory ring transport, whose staged
    # protocol (and its injected torn-slot/stage failures) must also leave
    # the observables byte-identical.  tps=1 pins a per-shard thread budget,
    # opting out of the builder's shards<=threads clamp: on a 1-2 vCPU
    # runner the jobs' slots may offer a single core, and without tps the
    # engine would silently collapse to one shard and stage nothing —
    # making phase 6 vacuous.
    ap.add_argument("--shm-engine",
                    default="sharded(shards=2,interval=2,tps=1,"
                            "transport=shm,inner=naive)")
    ap.add_argument("--shm-faults",
                    default="transport.stage=every:6*2;"
                            "transport.shm.torn=once:3")
    ap.add_argument("--seed", default="42")
    args = ap.parse_args()

    if os.path.isdir(args.workdir):
        shutil.rmtree(args.workdir)
    os.makedirs(args.workdir)

    # 1. Fault-free baseline.
    run(sweep_cmd(args, "FAULT_baseline.csv"), "FAULT_baseline.log")

    # 2. Chaos run: armed faults, retries, checkpointing.
    run(sweep_cmd(args, "FAULT_chaos.csv", ckpt_dir=args.workdir, retries=4),
        "FAULT_chaos.log",
        env={"EMWD_FAULTS": args.faults, "EMWD_FAULT_SEED": args.seed})

    # 3. Gates on the chaos run.
    require_identical("FAULT_baseline.csv", "FAULT_chaos.csv",
                      "chaos vs baseline")
    with open("FAULT_chaos.log") as fh:
        log = fh.read()
    fires = sum(int(m) for m in re.findall(r"^FAULT \S+ hits=\d+ fires=(\d+)$",
                                           log, re.M))
    if not re.search(r"^FAULT ", log, re.M):
        sys.exit("FAIL: chaos run printed no FAULT report — EMWD_FAULTS "
                 "was not picked up")
    if fires == 0:
        sys.exit("FAIL: chaos run fired no faults — the gate proved nothing "
                 "(tune --faults against the configured steps/lambdas)")
    m = re.search(r"fault recovery: (\d+) retried attempt\(s\)", log)
    if not m or int(m.group(1)) == 0:
        sys.exit("FAIL: chaos run reported no retried attempts — the "
                 "failure policies never ran")
    print(f"OK: chaos run survived {fires} injected fault(s) with "
          f"{m.group(1)} retried attempt(s)")

    # 4. Corrupt-checkpoint recovery: damage one file the chaos run left
    # behind, resume, and require quarantine + identical observables.
    ckpts = sorted(glob.glob(os.path.join(args.workdir, "job*.ckpt")))
    if not ckpts:
        sys.exit(f"FAIL: chaos run left no checkpoint files in {args.workdir}")
    victim = ckpts[0]
    with open(victim, "r+b") as fh:
        fh.seek(os.path.getsize(victim) // 2)
        byte = fh.read(1)
        fh.seek(-1, os.SEEK_CUR)
        fh.write(bytes([byte[0] ^ 0x01]))
    run(sweep_cmd(args, "FAULT_resumed.csv", ckpt_dir=args.workdir,
                  resume=True),
        "FAULT_resume.log")
    require_identical("FAULT_baseline.csv", "FAULT_resumed.csv",
                      "corrupt-resume vs baseline")
    if not os.path.exists(victim + ".bad"):
        sys.exit(f"FAIL: corrupt checkpoint {victim} was not quarantined "
                 f"as {victim}.bad")
    with open("FAULT_resume.log") as fh:
        if not re.search(r"fault recovery: \d+ retried attempt\(s\), [1-9]\d* "
                         r"snapshot\(s\) quarantined", fh.read()):
            sys.exit("FAIL: resume run did not report the quarantine")
    print(f"OK: corrupt {victim} quarantined, job restarted from scratch, "
          f"observables intact")

    # 5. shm transport, no faults: must reproduce the baseline observables
    # byte-for-byte.
    run(sweep_cmd(args, "FAULT_shm.csv", engine=args.shm_engine),
        "FAULT_shm.log")
    require_identical("FAULT_baseline.csv", "FAULT_shm.csv",
                      "shm vs baseline")

    # 6. shm chaos: transport.stage throws mid-protocol and
    # transport.shm.torn fires inside unstage; retries plus checkpoint
    # recovery must still land on the identical CSV.
    shm_workdir = args.workdir + "_shm"
    if os.path.isdir(shm_workdir):
        shutil.rmtree(shm_workdir)
    os.makedirs(shm_workdir)
    run(sweep_cmd(args, "FAULT_shm_chaos.csv", ckpt_dir=shm_workdir,
                  retries=4, engine=args.shm_engine),
        "FAULT_shm_chaos.log",
        env={"EMWD_FAULTS": args.shm_faults, "EMWD_FAULT_SEED": args.seed})
    require_identical("FAULT_baseline.csv", "FAULT_shm_chaos.csv",
                      "shm chaos vs baseline")
    with open("FAULT_shm_chaos.log") as fh:
        log = fh.read()
    fires = sum(int(m) for m in re.findall(r"^FAULT \S+ hits=\d+ fires=(\d+)$",
                                           log, re.M))
    if fires == 0:
        sys.exit("FAIL: shm chaos run fired no transport faults — the gate "
                 "proved nothing (tune --shm-faults)")
    m = re.search(r"fault recovery: (\d+) retried attempt\(s\)", log)
    if not m or int(m.group(1)) == 0:
        sys.exit("FAIL: shm chaos run reported no retried attempts")
    print(f"OK: shm chaos run survived {fires} injected transport fault(s) "
          f"with {m.group(1)} retried attempt(s)")
    print("PASS: fault smoke")
    return 0


if __name__ == "__main__":
    sys.exit(main())
