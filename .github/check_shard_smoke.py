#!/usr/bin/env python3
"""Gate the shard-scaling smoke CSV written by bench_shard_scaling --csv.

Two checks:

1. Redundant-LUP regression.  With K shards and exchange interval T, every
   interior cut adds 2*T ghost planes of recompute per round, so the
   expected redundant-LUP fraction for the CI smoke (nz=64, K=2, T=1) is
   ~3.1% per inner engine.  A jump past the threshold means the overlap
   bookkeeping regressed — shards stepping more ghost planes than the
   exchange interval requires — which exit-status-only checks would never
   catch.

2. Transport coverage (--require-transport NAME).  Rows must exist for the
   named halo transport, and every multi-shard row of it must have moved a
   nonzero staged payload through the transport's stage path.

The bench emits one row per (inner, K, transport); every multi-shard row
runs the one post/wait exchange protocol, so there is no second protocol to
compare against.
"""
import argparse
import csv
import sys


def check_redundant(rows, shards, max_redundant_pct):
    checked = 0
    worst = 0.0
    for row in rows:
        if int(row["shards"]) != shards:
            continue
        pct = float(row["redundant LUP %"])
        checked += 1
        worst = max(worst, pct)
        print(
            f"{row['inner']}: K={row['shards']} transport={row.get('transport', 'local')} "
            f"redundant LUP {pct:.3f}% (threshold {max_redundant_pct}%)"
        )
        if pct > max_redundant_pct:
            print("FAIL: redundant-LUP fraction regressed", file=sys.stderr)
            return False
    if not checked:
        print(f"FAIL: no rows with shards == {shards}", file=sys.stderr)
        return False
    print(f"OK: {checked} redundant-LUP row(s) checked, worst {worst:.3f}%")
    return True


def check_transport(rows, name):
    """Require rows for the named halo transport and, on its multi-shard
    rows, nonzero staged payload — proof the bytes actually went through
    the transport's stage path rather than silently falling back."""
    seen = 0
    multi_shard_rows = 0
    ok = True
    for row in rows:
        if row.get("transport", "local") != name:
            continue
        seen += 1
        if int(row["shards"]) <= 1:
            continue
        multi_shard_rows += 1
        staged_mb = float(row.get("staged MB", "0") or "0")
        print(
            f"{row['inner']}: K={row['shards']} transport={name} "
            f"staged {staged_mb:.3f} MiB, stage {row.get('halo stage s', '?')}s, "
            f"unstage {row.get('halo unstage s', '?')}s"
        )
        if staged_mb <= 0.0:
            print(
                f"FAIL: transport={name} multi-shard row staged no bytes",
                file=sys.stderr,
            )
            ok = False
    if seen == 0:
        print(f"FAIL: no rows ran transport={name}", file=sys.stderr)
        return False
    if multi_shard_rows == 0:
        print(f"FAIL: no multi-shard rows ran transport={name}", file=sys.stderr)
        return False
    if ok:
        print(
            f"OK: {multi_shard_rows} multi-shard row(s) moved bytes over "
            f"transport={name}"
        )
    return ok


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("csv_path", help="CSV written by bench_shard_scaling --csv")
    ap.add_argument("--shards", type=int, default=2, help="shard-count rows to check")
    ap.add_argument("--max-redundant-pct", type=float, default=10.0)
    ap.add_argument(
        "--require-transport",
        default="",
        metavar="NAME",
        help="require rows that ran this halo transport, with nonzero staged "
        "bytes on its multi-shard rows (e.g. shm)",
    )
    args = ap.parse_args()

    with open(args.csv_path, newline="") as f:
        rows = list(csv.DictReader(f))

    ok = check_redundant(rows, args.shards, args.max_redundant_pct)
    if args.require_transport:
        ok = check_transport(rows, args.require_transport) and ok
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
