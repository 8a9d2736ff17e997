#!/usr/bin/env python3
"""Schema validation for the BENCH_*.json files run_benchmarks.sh ships.

`python3 -m json.tool` only proved the files parsed; a benchmark binary
that crashed mid-write, a bench renamed without its consumers, or a
google-benchmark flag typo producing an empty run all still produced
"valid JSON". This checks the shape EXPERIMENTS.md and downstream tooling
actually rely on:

  * top level: objects `context` and non-empty array `benchmarks`
  * context: executable, num_cpus >= 1, date
  * every benchmark entry: a non-empty name, run_type, numeric
    iterations >= 1, finite numeric real_time/cpu_time >= 0, and a
    time_unit from the google-benchmark set
  * error entries (error_occurred) fail validation loudly
  * no duplicate (name, repetition_index) pairs
  * no counter named like `sim_..._us`: simulated time is counted in sim
    ticks, never in microseconds, so such a name mislabels its unit
    (name sim-time counters `..._ticks`)

Usage: check_bench_json.py FILE [FILE...]   — exit 1 on the first bad file.
"""

from __future__ import annotations

import json
import math
import re
import sys
from pathlib import Path

TIME_UNITS = {"ns", "us", "ms", "s"}
# A sim-time counter with a microsecond suffix: sim time is in ticks.
SIM_TIME_AS_US = re.compile(r"sim_.*_us$")


def fail(path: Path, msg: str) -> None:
    raise SystemExit(f"check_bench_json: {path}: {msg}")


def check_number(path: Path, entry_name: str, obj: dict, key: str,
                 minimum: float) -> None:
    v = obj.get(key)
    if not isinstance(v, (int, float)) or isinstance(v, bool):
        fail(path, f"benchmark '{entry_name}': {key} missing or non-numeric")
    if not math.isfinite(v) or v < minimum:
        fail(path, f"benchmark '{entry_name}': {key}={v!r} out of range "
                   f"(>= {minimum} required)")


def check_file(path: Path) -> int:
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        fail(path, f"unreadable or invalid JSON: {e}")
    if not isinstance(doc, dict):
        fail(path, "top level must be an object")

    ctx = doc.get("context")
    if not isinstance(ctx, dict):
        fail(path, "missing 'context' object")
    if not isinstance(ctx.get("executable"), str) or not ctx["executable"]:
        fail(path, "context.executable missing or empty")
    if not isinstance(ctx.get("date"), str) or not ctx["date"]:
        fail(path, "context.date missing or empty")
    num_cpus = ctx.get("num_cpus")
    if not isinstance(num_cpus, int) or num_cpus < 1:
        fail(path, f"context.num_cpus={num_cpus!r} invalid")

    benches = doc.get("benchmarks")
    if not isinstance(benches, list) or not benches:
        fail(path, "'benchmarks' missing or empty — the binary produced no "
                   "measurements (crashed mid-run? bad filter flag?)")

    seen: set[tuple[str, object]] = set()
    for entry in benches:
        if not isinstance(entry, dict):
            fail(path, "benchmark entry is not an object")
        name = entry.get("name")
        if not isinstance(name, str) or not name:
            fail(path, "benchmark entry with missing/empty name")
        if entry.get("error_occurred"):
            fail(path, f"benchmark '{name}' recorded an error: "
                       f"{entry.get('error_message', '<no message>')!r}")
        if entry.get("run_type") not in ("iteration", "aggregate"):
            fail(path, f"benchmark '{name}': unknown run_type "
                       f"{entry.get('run_type')!r}")
        if entry.get("run_type") == "iteration":
            check_number(path, name, entry, "iterations", 1)
        check_number(path, name, entry, "real_time", 0.0)
        check_number(path, name, entry, "cpu_time", 0.0)
        if entry.get("time_unit") not in TIME_UNITS:
            fail(path, f"benchmark '{name}': time_unit "
                       f"{entry.get('time_unit')!r} not in {sorted(TIME_UNITS)}")
        for counter in entry:
            if SIM_TIME_AS_US.search(counter):
                fail(path, f"benchmark '{name}': counter '{counter}' labels "
                           f"sim ticks as microseconds (name it '..._ticks')")
        key = (name, entry.get("repetition_index"))
        if key in seen:
            fail(path, f"duplicate benchmark entry {key!r}")
        seen.add(key)
    return len(benches)


def main(argv: list[str]) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    total = 0
    for arg in argv:
        total += check_file(Path(arg))
    print(f"check_bench_json: {len(argv)} file(s), {total} benchmark "
          f"entries — OK")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
