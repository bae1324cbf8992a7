#!/usr/bin/env python3
"""Smoke test of the ladder benchmark (run by ctest in the ladder build).

Runs every workload named in BENCHMARK.json for one second, untraced and
traced, the serve workloads at 50 requests/s, and checks that:
  * each run exits 0 and its last line is the result object with
    correct = true and failed = 0;
  * the untraced run reports exactly the end-to-end metrics and the traced
    run exactly the per-layer metrics, each with its declared unit;
  * the artifact carries the same metrics and failed_share 0;
  * the traced run's hetcomm.trace.v1 file passes validate_trace.
Stdlib only.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path


def run_one(args, workload: str, trace: int, expected: dict[str, str]
            ) -> list[str]:
    workdir = Path(args.workdir)
    tag = f"{workload}_trace{trace}"
    artifact = workdir / f"{tag}.json"
    trace_file = workdir / f"{tag}.trace.json"
    cmd = [args.ladder, "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--json", str(artifact),
           "--benchmark", args.benchmark]
    if trace:
        cmd += ["--trace-file", str(trace_file)]
    if workload.startswith("serve_"):
        cmd += ["--rate", "50"]
    done = subprocess.run(cmd, cwd=workdir, capture_output=True, text=True,
                          timeout=180)
    errors = []
    if done.returncode != 0:
        errors.append(f"exit {done.returncode}: {done.stderr[-1000:]}")
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return errors + ["last stdout line is not a JSON object"]
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        errors.append(f"result keys {sorted(result)}")
    if result.get("correct") is not True or result.get("failed") != 0:
        errors.append(f"correct={result.get('correct')} "
                      f"failed={result.get('failed')}")
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        errors.append(f"attempted={result.get('attempted')}")
    metrics = result.get("metrics", {})
    if set(metrics) != set(expected):
        errors.append("metrics differ from BENCHMARK.json: missing "
                      f"{sorted(set(expected) - set(metrics))}, extra "
                      f"{sorted(set(metrics) - set(expected))}")
    for name, unit in expected.items():
        got = metrics.get(name, {})
        if got.get("unit") != unit or not isinstance(got.get("value"),
                                                     (int, float)):
            errors.append(f"{name}: {got} (unit should be {unit})")
    try:
        doc = json.loads(artifact.read_text(encoding="utf-8"))
        if set(doc["metrics"]) != set(expected):
            errors.append("artifact metrics differ from the result line")
        if doc["failed_share"] != 0:
            errors.append(f"artifact failed_share {doc['failed_share']}")
    except (OSError, KeyError, json.JSONDecodeError) as e:
        errors.append(f"artifact: {e}")
    if trace:
        check = subprocess.run([args.validate_trace, str(trace_file)],
                               capture_output=True, text=True, timeout=120)
        if check.returncode != 0:
            errors.append("validate_trace: " +
                          (check.stderr or check.stdout).strip()[-500:])
    return errors


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--ladder", required=True)
    ap.add_argument("--validate-trace", required=True)
    ap.add_argument("--benchmark", required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    Path(args.workdir).mkdir(parents=True, exist_ok=True)
    bench = json.loads(Path(args.benchmark).read_text(encoding="utf-8"))
    end_to_end = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in bench["per_layer"]}

    failures = 0
    for wl in bench["workloads"]:
        for trace, expected in ((0, end_to_end), (1, per_layer)):
            errors = run_one(args, wl["name"], trace, expected)
            status = "ok" if not errors else "FAILED"
            print(f"{wl['name']} trace={trace}: {status}")
            for e in errors:
                print(f"  {e}")
            failures += bool(errors)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
