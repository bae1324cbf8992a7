#!/usr/bin/env python3
"""Compare two sets of ladder artifacts against the BENCHMARK.json bounds.

Usage:
    python3 bench/ladder/compare.py BASE CHANGE [--benchmark FILE] [--force]
                                    [--layers]

BASE and CHANGE are each a hetcomm.bench_ladder.v1 artifact or a directory
of them (run.py writes them to build-ladder/artifacts/).  Runs are paired
by (workload, seed); run the two sides alternately, seed by seed, so that
both runs of a pair meet the same host.  For every end-to-end metric of
every workload the table gives each side's median and quartiles
(statistics.quantiles, n=4) and spread (quartile distance over median), and
the shift: the median over pairs of the change's relative loss against its
own base run, positive = worse.  Verdicts:

    REGRESSED   the shift exceeds the metric's bound
    improved    the change wins at least 9 of 10 pairs and its median
                differs from the base's by more than the base's own
                quartile distance
    unresolved  a side's spread exceeds the bound (unless every change run
                beats every base run)
    unchanged   otherwise

A workload whose change runs failed more operations than its base runs, or
include a run with correct = false, is reported FAILED and never improved.

--layers adds the per-layer metrics of traced runs (medians only; they
carry no bound).  Artifacts whose provenance stamp names a different
host, CPU count or CPU model are refused unless --force is given.

Exit status: 0; 1 when a metric regressed or a workload FAILED; 2 on bad
input or a refused comparison.  Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SCHEMA = "hetcomm.bench_ladder.v1"
DEFAULT_BENCHMARK = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def fail(msg: str) -> None:
    print(f"compare.py: {msg}", file=sys.stderr)
    sys.exit(2)


def load_set(path: str) -> list[dict]:
    p = Path(path)
    files = sorted(p.glob("*.json")) if p.is_dir() else [p]
    runs = []
    for f in files:
        try:
            doc = json.loads(f.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as e:
            fail(f"cannot read {f}: {e}")
        if doc.get("schema") == SCHEMA:
            runs.append(doc)
    if not runs:
        fail(f"no {SCHEMA} artifacts in {path}")
    return runs


def host_key(run: dict) -> tuple:
    stamp = run.get("stamp", {})
    return (stamp.get("hostname"), stamp.get("nproc"), stamp.get("cpu_model"))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def loss(base: float, change: float, better: str) -> float:
    """Relative loss of `change` against `base` (positive = worse)."""
    if base == 0:
        return 0.0
    delta = (change - base) / abs(base)
    return delta if better == "lower" else -delta


def verdict(base: dict[int, float], change: dict[int, float],
            metric: dict) -> tuple[str, float, int, int]:
    """(verdict, shift, wins, pairs) for one metric of one workload."""
    bound = metric["bound"]
    better = metric["better"]
    pairs = sorted(set(base) & set(change))
    shift = statistics.median(loss(base[s], change[s], better) for s in pairs)
    wins = sum(1 for s in pairs if loss(base[s], change[s], better) < 0)
    b = list(base.values())
    c = list(change.values())
    all_better = (max(c) < min(b)) if better == "lower" else (min(c) > max(b))
    if spread(b) > bound or spread(c) > bound:
        return ("better (every run)" if all_better else "unresolved",
                shift, wins, len(pairs))
    if shift > bound:
        return "REGRESSED", shift, wins, len(pairs)
    q1, _, q3 = quartiles(b)
    gap = abs(statistics.median(c) - statistics.median(b))
    if wins >= 0.9 * len(pairs) and gap > q3 - q1:
        return "improved", shift, wins, len(pairs)
    return "unchanged", shift, wins, len(pairs)


def by_workload(runs: list[dict], trace: int) -> dict[str, dict[int, dict]]:
    out: dict[str, dict[int, dict]] = {}
    for r in runs:
        if r.get("trace") == trace:
            out.setdefault(r["workload"], {})[r["seed"]] = r
    return out


def failures(runs: dict[int, dict]) -> tuple[int, int]:
    """(summed failed operations, runs with correct = false)."""
    return (sum(r.get("failed", 0) for r in runs.values()),
            sum(1 for r in runs.values() if not r.get("correct", False)))


def fmt(x: float) -> str:
    return f"{x:.6g}"


def main() -> int:
    ap = argparse.ArgumentParser(
        description="Compare two sets of ladder artifacts.")
    ap.add_argument("base")
    ap.add_argument("change")
    ap.add_argument("--benchmark", default=str(DEFAULT_BENCHMARK))
    ap.add_argument("--force", action="store_true",
                    help="compare artifacts from different hosts")
    ap.add_argument("--layers", action="store_true",
                    help="also list per-layer medians of traced runs")
    args = ap.parse_args()

    try:
        bench = json.loads(Path(args.benchmark).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {args.benchmark}: {e}")
    base_runs = load_set(args.base)
    change_runs = load_set(args.change)

    hosts = {host_key(r) for r in base_runs + change_runs}
    if len(hosts) > 1:
        listing = "; ".join(f"host={h[0]} nproc={h[1]} cpu={h[2]}"
                            for h in sorted(hosts, key=str))
        if not args.force:
            fail(f"refusing to compare across hosts ({listing});"
                 " rerun both sides on one host or pass --force")
        print(f"warning: comparing across hosts ({listing})")

    bad = False
    base_w = by_workload(base_runs, 0)
    change_w = by_workload(change_runs, 0)
    print(f"{'workload':18} {'metric':18} {'base med [q1 q3]':>34} "
          f"{'change med [q1 q3]':>34} {'shift':>8} {'bound':>6} "
          f"{'wins':>6}  verdict")
    for wl in bench["workloads"]:
        name = wl["name"]
        b_runs = base_w.get(name, {})
        c_runs = change_w.get(name, {})
        if not set(b_runs) & set(c_runs):
            print(f"{name:18} no seed was run on both sides")
            continue
        b_failed, b_incorrect = failures(b_runs)
        c_failed, c_incorrect = failures(c_runs)
        failed = c_incorrect > 0 or c_failed > b_failed
        if failed or b_incorrect:
            print(f"{name:18} {'FAILED' if failed else 'base failed'}: "
                  f"failed operations {b_failed} -> {c_failed}, incorrect "
                  f"runs {b_incorrect} -> {c_incorrect}")
        bad |= failed
        for metric in bench["end_to_end"]:
            m = metric["name"]
            b = {s: r["metrics"][m]["value"] for s, r in b_runs.items()
                 if m in r["metrics"]}
            c = {s: r["metrics"][m]["value"] for s, r in c_runs.items()
                 if m in r["metrics"]}
            if not set(b) & set(c):
                print(f"{name:18} {m:18} missing on one side")
                continue
            v, shift, wins, pairs = verdict(b, c, metric)
            if failed and v == "improved":
                v = "unchanged (FAILED)"
            bad |= v == "REGRESSED"
            bq = quartiles(list(b.values()))
            cq = quartiles(list(c.values()))
            base_col = f"{fmt(bq[1])} [{fmt(bq[0])} {fmt(bq[2])}]"
            change_col = f"{fmt(cq[1])} [{fmt(cq[0])} {fmt(cq[2])}]"
            print(f"{name:18} {m:18} {base_col:>34} {change_col:>34} "
                  f"{shift:+8.3f} {metric['bound']:6.3f} {wins:>3}/{pairs:<2}"
                  f"  {v} (n={len(b)}/{len(c)}, spread "
                  f"{spread(list(b.values())):.3f}/"
                  f"{spread(list(c.values())):.3f})")

    if args.layers:
        base_t = by_workload(base_runs, 1)
        change_t = by_workload(change_runs, 1)
        print("\nper-layer medians (traced runs; no bounds)")
        for wl in bench["workloads"]:
            name = wl["name"]
            for metric in bench["per_layer"]:
                m = metric["name"]
                b = [r["metrics"][m]["value"]
                     for r in base_t.get(name, {}).values()
                     if m in r["metrics"]]
                c = [r["metrics"][m]["value"]
                     for r in change_t.get(name, {}).values()
                     if m in r["metrics"]]
                if b and c:
                    print(f"{name:18} {m:34} {fmt(statistics.median(b)):>12}"
                          f" {fmt(statistics.median(c)):>12} {metric['unit']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
