#!/usr/bin/env bash
# Run every google-benchmark binary and write BENCH_<name>.json at the repo
# root (one file per binary, clean JSON via --benchmark_out even though the
# binaries print their experiment tables to stdout first).
#
# Usage: bench/run_benchmarks.sh [BUILD_DIR]
#   BUILD_DIR            defaults to <repo>/build
#   BENCH_MIN_TIME=0.05  optional override for --benchmark_min_time (seconds)
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
BUILD_DIR="${1:-$ROOT/build}"
BENCH_DIR="$BUILD_DIR/bench"

if [[ ! -d "$BENCH_DIR" ]]; then
  echo "error: $BENCH_DIR not found — build first:" >&2
  echo "  cmake -B build -S . && cmake --build build -j" >&2
  exit 1
fi

EXTRA_ARGS=()
if [[ -n "${BENCH_MIN_TIME:-}" ]]; then
  EXTRA_ARGS+=("--benchmark_min_time=${BENCH_MIN_TIME}")
fi

if ! command -v python3 >/dev/null 2>&1; then
  echo "warning: python3 not found — skipping schema validation of BENCH_*.json" >&2
fi

BENCHES=(
  bench_availability
  bench_fig1_fast_crash
  bench_graceful_degradation
  bench_loss_recovery
  bench_obs_overhead
  bench_resilience_sweep
  bench_rqs_enumeration
  bench_rqs_scale
  bench_rqs_verify
  bench_scenario_swarm
  bench_sim_hotpath
  bench_storage_baselines
  bench_storage_scale
  bench_threshold_bounds
)

status=0
for bench in "${BENCHES[@]}"; do
  bin="$BENCH_DIR/$bench"
  out="$ROOT/BENCH_${bench#bench_}.json"
  if [[ ! -x "$bin" ]]; then
    echo "error: missing benchmark binary $bin" >&2
    status=1
    continue
  fi
  echo "== $bench -> ${out##*/}"
  # ${arr[@]+...} guards the empty-array expansion against set -u on bash 3.2.
  "$bin" --benchmark_format=json \
         --benchmark_out="$out" --benchmark_out_format=json \
         ${EXTRA_ARGS[@]+"${EXTRA_ARGS[@]}"} >/dev/null
  # Schema validation, not just parseability: a bench that crashed mid-run
  # or produced zero measurements must fail here, not ship a hollow file.
  if command -v python3 >/dev/null 2>&1; then
    python3 "$ROOT/bench/check_bench_json.py" "$out" || { echo "error: $out failed schema validation" >&2; status=1; }
  fi
done

exit $status
