#!/usr/bin/env python3
"""Gate the service-mode smoke run (see .github/workflows/ci.yml).

Launches the emwdd daemon on a scratch Unix socket, runs the same sweep
twice through emwd-client — once against the daemon and once --inprocess
(batch::run_sweep, no daemon) — and asserts:

  * the two CSVs are BYTE-IDENTICAL: the daemon path (wire protocol, JSON
    round trip, fair-share queue, scheduler pooling) must not perturb a
    single observable bit — both paths expand jobs through the shared
    batch::expand_sweep_jobs and print only run-deterministic columns;
  * every job row reports status ok;
  * the daemon's status JSON is well-formed and self-consistent (scheduler
    accounting identity, every admitted job dispatched and streamed);
  * a client `shutdown` op stops the daemon cleanly (exit code 0) and the
    daemon removes its socket file.

Artifacts written for upload: <prefix>_daemon.csv, <prefix>_inprocess.csv,
<prefix>_status.json, <prefix>_daemon.log.

Exit code 0 = gate passed.
"""

import argparse
import json
import os
import subprocess
import sys
import time


def run_client(client, socket, extra, timeout=300):
    cmd = [client, f"--socket={socket}"] + extra
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.exit(f"FAIL: {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return proc.stdout


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--emwdd", default="./build/emwdd", help="daemon binary")
    ap.add_argument("--client", default="./build/emwd-client", help="client binary")
    ap.add_argument("--socket", default="/tmp/emwdd-ci.sock")
    ap.add_argument(
        "--spec",
        default="scene=layered;grid=12x12x24;lambda=16,20,24;steps=40;"
                "threads=2;engine=mwd(dw=4,bz=2);pml=3",
        help="sweep spec run through both paths")
    ap.add_argument("--rows", type=int, default=3,
                    help="expected per-job CSV rows (== lambda count)")
    ap.add_argument("--prefix", default="SERVE", help="artifact file prefix")
    args = ap.parse_args()

    if os.path.exists(args.socket):
        os.unlink(args.socket)
    daemon_log = open(f"{args.prefix}_daemon.log", "w")
    daemon = subprocess.Popen(
        [args.emwdd, f"--socket={args.socket}", "--concurrency=2", "--no-pin"],
        stdout=daemon_log, stderr=subprocess.STDOUT)
    try:
        for _ in range(100):
            if os.path.exists(args.socket):
                break
            if daemon.poll() is not None:
                sys.exit(f"FAIL: emwdd exited early with {daemon.returncode} "
                         f"(see {args.prefix}_daemon.log)")
            time.sleep(0.1)
        else:
            sys.exit("FAIL: daemon socket never appeared")

        remote_csv = run_client(args.client, args.socket, [f"--sweep={args.spec}"])
        with open(f"{args.prefix}_daemon.csv", "w") as fh:
            fh.write(remote_csv)
        local_csv = run_client(args.client, args.socket,
                               ["--inprocess", f"--sweep={args.spec}"])
        with open(f"{args.prefix}_inprocess.csv", "w") as fh:
            fh.write(local_csv)

        status_text = run_client(args.client, args.socket, ["--status"])
        with open(f"{args.prefix}_status.json", "w") as fh:
            fh.write(status_text)

        failures = []
        if remote_csv != local_csv:
            failures.append("daemon CSV differs from --inprocess CSV "
                            "(bit-exactness broken)")
        lines = remote_csv.strip().splitlines()
        if len(lines) != args.rows + 1:  # header + per-job rows
            failures.append(f"expected {args.rows} job rows, got {len(lines) - 1}")
        for line in lines[1:]:
            cells = line.split(",")
            if len(cells) < 3 or cells[2] != "ok":
                failures.append(f"job row not ok: {line}")

        try:
            status = json.loads(status_text)
        except json.JSONDecodeError as e:
            failures.append(f"status JSON unparseable: {e}")
            status = {}
        sched = status.get("scheduler", {})
        queue = status.get("queue", {})
        if sched:
            accounted = (sched["completed"] + sched["failed"] + sched["cancelled"]
                         + sched["queued"] + sched["running"])
            if accounted != sched["submitted"]:
                failures.append(f"scheduler accounting identity broken: {sched}")
            if sched["completed"] != args.rows:
                failures.append(
                    f"expected {args.rows} completed jobs, got {sched['completed']}")
        if queue and queue.get("admitted") != queue.get("dispatched"):
            failures.append(f"admitted != dispatched in queue stats: {queue}")

        run_client(args.client, args.socket, ["--shutdown"])
        try:
            rc = daemon.wait(timeout=30)
        except subprocess.TimeoutExpired:
            failures.append("daemon did not exit within 30 s of the shutdown op")
            rc = None
        if rc is not None and rc != 0:
            failures.append(f"daemon exited {rc} after shutdown op")
        if rc is not None and os.path.exists(args.socket):
            failures.append(f"daemon left its socket file {args.socket} behind")

        if failures:
            print("FAIL:", file=sys.stderr)
            for f in failures:
                print(f"  - {f}", file=sys.stderr)
            return 1
        print(f"OK: {args.rows} jobs bit-exact over the wire, status "
              "self-consistent, clean shutdown")
        return 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.wait()
        daemon_log.close()


if __name__ == "__main__":
    sys.exit(main())
