#!/usr/bin/env python3
"""Smoke test of the repository benchmark.

    python3 perfbench/smoke_test.py

Builds the benchmark binary, runs every workload at minimal length,
untraced and traced, with seed 1, and fails unless: no unit fails
(fail_rate = 0); every exact work count equals the one recorded in
perfbench/expected.json; every end-to-end metric and every per-layer metric
homed on the workload is measured; and BENCHMARK.json agrees with
perfbench/metrics.json, with each unit the one its metric name fixes.
"""

import math
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run  # noqa: E402

LAYERS = {"core", "sim", "obs", "storage", "consensus", "scenario", "mc", "bench"}
SEED = 1


def check_catalogue(bench, cat):
    problems = []
    names = [w["name"] for w in bench["workloads"]]
    if names != list(run.WORKLOADS) or names != list(cat["workloads"]):
        problems.append(f"workloads differ: {names}")
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    if list(e2e) != list(cat["end_to_end"]):
        problems.append("end_to_end names differ from metrics.json")
    setup = e2e.get("setup_s", {})
    if setup.get("unit") != "s" or setup.get("better") != "lower" or \
            setup.get("bound") != max(m["bound"] for m in e2e.values()):
        problems.append("setup_s must be in s, lower-better, with the largest bound")
    known = set(e2e) | set(cat["workload_metrics"])
    if [m["name"] for m in bench["per_layer"]] != list(cat["metrics"]):
        problems.append("per_layer names differ from metrics.json")
    for m in bench["end_to_end"] + bench["per_layer"]:
        if m["unit"] != run.unit_of(m["name"]):
            problems.append(f"{m['name']}: unit {m['unit']}, name fixes {run.unit_of(m['name'])}")
    for name, info in cat["metrics"].items():
        if info["layer"] not in LAYERS or not set(info["workloads"]) <= set(names) or \
                not set(info["moves"]) <= known:
            problems.append(f"{name}: bad layer, workloads or moves")
    for name, info in cat["workload_metrics"].items():
        if not set(info["workloads"]) <= set(names):
            problems.append(f"{name}: bad workloads")
    return problems


def check_run(binary, workload, trace, bench, cat, expected):
    rep = run.run_binary(binary, workload, SEED, 0.01, trace)
    problems = [f"{workload}: {f}" for f in rep["failures"]]
    if rep["attempted"] < 1 or rep["failed"] != 0:
        problems.append(f"{workload}: {rep['failed']} of {rep['attempted']} units failed")
    for name, was, now in run.count_changes(workload, SEED, rep["counts"], expected):
        problems.append(f"{workload}: count {name} recorded {was}, measured {now}")
    if trace:
        wanted = [m["name"] for m in bench["per_layer"]
                  if workload in cat["metrics"][m["name"]]["workloads"]]
    else:
        wanted = [m["name"] for m in bench["end_to_end"]]
    for name in wanted:
        value = rep["metrics"].get(name)
        if value is None and name in rep["counts"]:
            value = float(rep["counts"][name])
        if value is None or not math.isfinite(value) or (not trace and value <= 0):
            problems.append(f"{workload} trace={trace}: {name} not measured ({value})")
    return problems


def main():
    bench = run.load_json(run.ROOT / "BENCHMARK.json")
    cat = run.load_json(run.HERE / "metrics.json")
    expected = run.load_json(run.HERE / "expected.json")
    problems = check_catalogue(bench, cat)
    binary = run.build()
    for workload in run.WORKLOADS:
        for trace in (0, 1):
            problems += check_run(binary, workload, trace, bench, cat, expected)
    for p in problems:
        print("FAIL:", p)
    print("smoke test:", "FAIL" if problems else "pass")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
