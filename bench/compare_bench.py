#!/usr/bin/env python3
"""Compares two google-benchmark runs and fails on a slowdown past noise.

    compare_bench.py BASE HEAD

BASE and HEAD are two google-benchmark JSON files, or two directories of
BENCH_*.json files (matched by file name). Benchmarks are matched by
run_name; in directory mode the file name is part of the key.

Each side's value for a benchmark is its median real_time over its
repetitions, in ns: the `median` aggregate when the file has one, else the
median of its iteration rows. Each side's relative spread is
(max - min) / median over its iteration rows, or 2 * stddev / median from
the `stddev` aggregate when there are no iteration rows, and 0 for a single
run. The noise band of a benchmark is the sum of both spreads, and never
less than MIN_BAND (5%): a file of single runs has no spread to read. A
benchmark is slower when HEAD / BASE > 1 + band, faster when it is
< 1 - band.

Prints one row per benchmark. Exits 1 when some benchmark is slower, 2 on
unusable input, 0 otherwise. A benchmark found on one side only, or with an
error on either, is listed and does not fail the comparison.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

TO_NS = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
MIN_BAND = 0.05


def die(msg: str) -> None:
    print(f"compare_bench: {msg}", file=sys.stderr)
    sys.exit(2)


class Sample:
    """One benchmark's rows on one side."""

    def __init__(self) -> None:
        self.runs: list[float] = []
        self.median: float | None = None
        self.stddev: float | None = None
        self.error = False

    def value(self) -> float | None:
        if self.median is not None:
            return self.median
        return statistics.median(self.runs) if self.runs else None

    def spread(self) -> float:
        mid = self.value()
        if not mid:
            return 0.0
        if len(self.runs) >= 2:
            return (max(self.runs) - min(self.runs)) / mid
        if self.stddev is not None:
            return 2.0 * self.stddev / mid
        return 0.0


def load_file(path: Path, prefix: str, out: dict[str, Sample]) -> None:
    try:
        with open(path, encoding="utf-8") as f:
            rows = json.load(f)["benchmarks"]
    except (OSError, ValueError, KeyError, TypeError) as e:
        die(f"{path}: not a google-benchmark file ({e})")
    for row in rows:
        name = row.get("run_name") or row.get("name")
        if not name:
            continue
        sample = out.setdefault(prefix + name, Sample())
        if row.get("error_occurred"):
            sample.error = True
            continue
        unit = TO_NS.get(row.get("time_unit", "ns"))
        time = row.get("real_time")
        if unit is None or not isinstance(time, (int, float)):
            continue
        ns = float(time) * unit
        if row.get("run_type") == "aggregate":
            if row.get("aggregate_name") == "median":
                sample.median = ns
            elif row.get("aggregate_name") == "stddev":
                sample.stddev = ns
        else:
            sample.runs.append(ns)


def load(path: Path) -> dict[str, Sample]:
    out: dict[str, Sample] = {}
    if path.is_dir():
        files = sorted(path.glob("BENCH_*.json"))
        if not files:
            die(f"{path}: no BENCH_*.json files")
        for f in files:
            load_file(f, f.stem + ":", out)
    else:
        load_file(path, "", out)
    return out


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("base", type=Path)
    ap.add_argument("head", type=Path)
    args = ap.parse_args(argv)
    if args.base.is_dir() != args.head.is_dir():
        die("BASE and HEAD must both be files or both directories")
    base, head = load(args.base), load(args.head)

    slower = 0
    width = max((len(n) for n in base.keys() | head.keys()), default=4)
    print(f"{'benchmark':<{width}}  {'base_ns':>12}  {'head_ns':>12}  "
          f"{'ratio':>7}  {'band':>6}  verdict")
    for name in sorted(base.keys() | head.keys()):
        b, h = base.get(name), head.get(name)
        if b is None or h is None:
            side = "base" if h is None else "head"
            print(f"{name:<{width}}  only in {side}")
            continue
        bv, hv = b.value(), h.value()
        if b.error or h.error or not bv or hv is None:
            print(f"{name:<{width}}  no time to compare (error or empty)")
            continue
        ratio = hv / bv
        band = max(MIN_BAND, b.spread() + h.spread())
        if ratio > 1 + band:
            verdict = "SLOWER"
            slower += 1
        elif ratio < 1 - band:
            verdict = "faster"
        else:
            verdict = "same"
        print(f"{name:<{width}}  {bv:>12.4g}  {hv:>12.4g}  {ratio:>7.3f}  "
              f"{band:>6.3f}  {verdict}")
    print(f"compare_bench: {slower} slower past the noise band")
    return 1 if slower else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
