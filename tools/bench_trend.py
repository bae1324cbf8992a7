#!/usr/bin/env python3
"""Diff two BENCH_micro_hetcomm.json artifacts (google-benchmark JSON with
the hetcomm.bench_stamp.v1 provenance stamp injected by micro_hetcomm
--json).

Usage:
    tools/bench_trend.py BASELINE.json CURRENT.json [--threshold PCT] [--force]

Numbers from different hosts do not compare, so two artifacts whose stamps
name different hostnames are refused (exit 2) unless --force is given.
Prints the provenance of both artifacts, then one line per benchmark
series present in both files with the throughput delta.  Series are
compared on items_per_second when the benchmark reports it (the engine /
measure series do), falling back to real_time otherwise (where *lower* is
better, so the sign is flipped to keep "+" meaning "got faster").

Exit codes: 0 on success, 1 when any series regressed by more than
--threshold percent (default: report-only, never fails), 2 on usage or
file-format errors and on a refused cross-host diff.  Stdlib only -- CI
runs this with a bare python3.
"""

from __future__ import annotations

import argparse
import json
import re
import sys


def load(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        sys.exit(f"bench_trend: cannot read {path}: {e}")
    if "benchmarks" not in doc:
        sys.exit(f"bench_trend: {path} has no 'benchmarks' array "
                 "(not a google-benchmark JSON file?)")
    return doc


def describe_stamp(path: str, doc: dict) -> None:
    stamp = doc.get("hetcomm_stamp")
    if not isinstance(stamp, dict):
        print(f"  {path}: no hetcomm_stamp (pre-stamp artifact)")
        return
    print(f"  {path}: {stamp.get('git_sha', 'unknown')[:12]}"
          f" @ {stamp.get('utc', '?')}"
          f" on {stamp.get('hostname', '?')}"
          f" (jobs={stamp.get('jobs', '?')})")


def hostname(doc: dict) -> str | None:
    stamp = doc.get("hetcomm_stamp")
    return stamp.get("hostname") if isinstance(stamp, dict) else None


def series(doc: dict) -> dict[str, tuple[float, str]]:
    """name -> (value, metric); aggregate rows (mean/median/...) skipped."""
    out: dict[str, tuple[float, str]] = {}
    for row in doc["benchmarks"]:
        if row.get("run_type") == "aggregate":
            continue
        name = row.get("name")
        if not name:
            continue
        if "items_per_second" in row:
            out[name] = (float(row["items_per_second"]), "items/s")
        elif "real_time" in row:
            out[name] = (float(row["real_time"]), "real_time")
    return out


def main() -> int:
    ap = argparse.ArgumentParser(
        description="diff two stamped micro_hetcomm benchmark artifacts")
    ap.add_argument("baseline")
    ap.add_argument("current")
    ap.add_argument("--threshold", type=float, default=None, metavar="PCT",
                    help="exit 1 when any series slows down by more than "
                         "PCT percent (default: report only)")
    ap.add_argument("--filter", default=None, metavar="REGEX",
                    help="only compare series whose name matches REGEX "
                         "(re.search), e.g. --filter '^BM_Rep' for the "
                         "repetition-throughput gate")
    ap.add_argument("--force", action="store_true",
                    help="diff artifacts stamped on different hosts")
    args = ap.parse_args()

    base_doc = load(args.baseline)
    cur_doc = load(args.current)
    print("provenance:")
    describe_stamp(args.baseline, base_doc)
    describe_stamp(args.current, cur_doc)
    print()
    base_host, cur_host = hostname(base_doc), hostname(cur_doc)
    if base_host and cur_host and base_host != cur_host and not args.force:
        print(f"bench_trend: refusing to diff {base_host!r} against "
              f"{cur_host!r}: numbers from different hosts do not compare "
              "(pass --force to diff anyway)", file=sys.stderr)
        return 2

    base = series(base_doc)
    cur = series(cur_doc)
    if args.filter is not None:
        try:
            pat = re.compile(args.filter)
        except re.error as e:
            sys.exit(f"bench_trend: bad --filter regex: {e}")
        base = {n: v for n, v in base.items() if pat.search(n)}
        cur = {n: v for n, v in cur.items() if pat.search(n)}
    shared = [n for n in base if n in cur]
    if not shared:
        sys.exit("bench_trend: the two artifacts share no benchmark series"
                 + (f" matching --filter {args.filter!r}" if args.filter
                    else ""))

    width = max(len(n) for n in shared)
    regressions = []
    for name in shared:
        b_val, b_metric = base[name]
        c_val, c_metric = cur[name]
        if b_metric != c_metric or b_val <= 0:
            print(f"  {name:<{width}}  (metric changed, not comparable)")
            continue
        if b_metric == "items/s":
            delta = (c_val / b_val - 1.0) * 100.0  # higher is better
        else:
            delta = (b_val / c_val - 1.0) * 100.0  # lower is better
        print(f"  {name:<{width}}  {delta:+7.2f}%  "
              f"({b_val:.6g} -> {c_val:.6g} {b_metric})")
        if args.threshold is not None and delta < -args.threshold:
            regressions.append((name, delta))

    only_base = sorted(set(base) - set(cur))
    only_cur = sorted(set(cur) - set(base))
    if only_base:
        print(f"\nonly in {args.baseline}: {', '.join(only_base)}")
    if only_cur:
        print(f"only in {args.current}: {', '.join(only_cur)}")

    if regressions:
        print(f"\nbench_trend: {len(regressions)} series regressed beyond "
              f"{args.threshold}%:")
        for name, delta in regressions:
            print(f"  {name}: {delta:+.2f}%")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
