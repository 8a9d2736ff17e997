#!/usr/bin/env python3
"""Repository benchmark: builds the libraries and the benchmark binary from
source, runs one workload and prints its metrics.

    python3 perfbench/run.py --workload ladder|swarm|mc-fig1|check-sweep \
        --seed N --seconds S --trace 0|1

Run it from the repository root. The build goes to .bench_build/ (or
$CARGO_TARGET_DIR when set). Every metric is printed by name with its
unit, the seed is echoed, the exact work counts are compared with the ones
recorded in perfbench/expected.json, and the last line of standard output
is one JSON object: {"correct", "attempted", "failed", "metrics"}.

--trace 0 measures the named workload untraced and reports the
end-to-end metrics of BENCHMARK.json. --trace 1 reports every per-layer
metric: the named workload runs traced for S seconds, and each other
workload runs one traced pass pair, so that every layer's metrics are
measured in every traced run; each metric is taken from the named
workload when it measures it, else from its home workload (metrics.json).
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("ladder", "swarm", "mc-fig1", "check-sweep")
# Seconds given to each workload other than the named one in a traced run.
TOUR_SECONDS = 0.5
# Wall-clock limit of one benchmark process.
RUN_TIMEOUT_S = 170


def unit_of(name):
    """The unit a metric name fixes by its suffix."""
    for suffix, unit in (("_per_s", "1/s"), ("_s", "s"), ("_us", "us"), ("_ns", "ns"),
                         ("_mib", "MiB"), ("_share", "ratio"), ("_scaling", "ratio"),
                         ("_overhead", "ratio"), ("_rate", "ratio")):
        if name.endswith(suffix):
            return unit
    return "count"


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def build_dir():
    return Path(os.environ.get("CARGO_TARGET_DIR") or ROOT / ".bench_build")


def build():
    """Configures (once) and builds the benchmark binary; returns its path."""
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log_path = out / "build.log"
    with open(log_path, "w", encoding="utf-8") as log:
        steps = []
        if not ((out / "Makefile").exists() or (out / "build.ninja").exists()):
            steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(out), "--target", "rqs_perfbench",
                      "-j", "4"])
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT).returncode != 0:
                log.flush()
                sys.stderr.write(log_path.read_text(encoding="utf-8", errors="replace")[-4000:])
                raise SystemExit(f"perfbench: build failed ({' '.join(cmd[:2])}); see {log_path}")
    return out / "rqs_perfbench"


def run_binary(binary, workload, seed, seconds, trace):
    """Runs one workload in the benchmark binary; returns its JSON report."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        cmd += ["--spans", str(build_dir() / f"spans-{workload}-{seed}.json")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S, text=True)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"perfbench: {workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"perfbench: {workload} exited with code {proc.returncode}")
    report = json.loads(lines[-1])
    overhead = report["metrics"].pop("trace_overhead", None)
    if overhead is not None:
        report["metrics"][f"{workload}.trace_overhead"] = overhead
    return report


def count_changes(workload, seed, counts, expected):
    """(name, recorded, measured) for every recorded count that differs."""
    recorded = expected.get(workload, {})
    if workload == "swarm":  # swarm inputs depend on the seed
        recorded = recorded.get(str(seed), {})
    return [(k, v, counts.get(k)) for k, v in sorted(recorded.items()) if counts.get(k) != v]


def number(v):
    return v is not None and isinstance(v, (int, float)) and math.isfinite(v)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")

    bench = load_json(ROOT / "BENCHMARK.json")
    catalogue = load_json(HERE / "metrics.json")
    expected = load_json(HERE / "expected.json")
    binary = build()

    order = [args.workload] + ([w for w in WORKLOADS if w != args.workload] if args.trace else [])
    reports = {}
    for w in order:
        seconds = args.seconds if w == args.workload else TOUR_SECONDS
        reports[w] = run_binary(binary, w, args.seed, seconds, args.trace)

    main_report = reports[args.workload]
    print(f"perfbench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    attempted = sum(r["attempted"] for r in reports.values())
    failed = sum(r["failed"] for r in reports.values())
    correct = attempted >= 1 and failed == 0
    for w, r in reports.items():
        fail_rate = r["failed"] / r["attempted"] if r["attempted"] else 1.0
        print(f"  {w}: {r['attempted']} units attempted, {r['failed']} failed, "
              f"fail_rate {fail_rate:.6g} ratio")
        for f in r["failures"]:
            print(f"    FAILED: {f}")
        changes = count_changes(w, args.seed, r["counts"], expected)
        for name, was, now in changes:
            print(f"    WORK COUNT CHANGED: {name} recorded {was}, measured {now}")
        if not changes:
            recorded = "all recorded ones match" if count_changes(w, args.seed, {}, expected) \
                else "none recorded for this seed"
            print(f"    work counts: {len(r['counts'])} measured, {recorded}")

    if args.trace == 0:
        wanted = bench["end_to_end"]
        sources = {m["name"]: args.workload for m in wanted}
        print("  workload metrics (untraced):")
        for name, info in catalogue["workload_metrics"].items():
            if args.workload in info["workloads"] and name in main_report["metrics"]:
                print(f"    {name:34s} {main_report['metrics'][name]:.6g} {unit_of(name)}"
                      f"  (n={main_report['samples'].get(name, '-')})")
    else:
        wanted = bench["per_layer"]
        sources = {}
        for m in wanted:
            homes = catalogue["metrics"][m["name"]]["workloads"]
            sources[m["name"]] = args.workload if args.workload in homes else homes[0]
        print("  layer self time, share of traced time:")
        for name, v in sorted(main_report["metrics"].items()):
            if name.endswith(".self_share"):
                print(f"    {name:34s} {v:.4f} ratio")

    metrics = {}
    print("  metrics:")
    for m in wanted:
        name, unit = m["name"], m["unit"]
        source = reports[sources[name]]
        value = source["metrics"].get(name)
        if value is None and name in source["counts"]:
            value = float(source["counts"][name])
        if not number(value):
            print(f"    MISSING: {name} from {sources[name]}")
            correct = False
            continue
        n = source["samples"].get(name)
        print(f"    {name:40s} {value:.6g} {unit}  [{sources[name]}"
              f"{'' if n is None else f', n={n}'}]")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
