#!/usr/bin/env bash
# Run the RSMI benchmark drivers.
#
# Usage:
#   tools/run_benches.sh [--smoke] [--build-dir DIR] [--out DIR] [FILTER]
#   tools/run_benches.sh [--build-dir DIR] --regression-out DIR
#
#   --smoke       Tiny configuration (RSMI_BENCH_N=2000, 20 queries,
#                 min benchmark time 0.01s) — the same setup CI uses via
#                 the `bench_smoke` ctest label. Seconds per bench.
#   --build-dir   Build tree containing bench/ binaries (default: build).
#   --out         Write one JSON file per bench into DIR
#                 (--benchmark_out, format json).
#   --regression-out  Run the pinned perf-regression micro-benches at
#                 smoke scale, 3 repetitions each, and write one JSON file
#                 per bench into DIR — the exact invocation of the CI
#                 bench-regression gate. tools/check_bench_regression.py
#                 --dir DIR reads them (plus DIR/serve/loadgen.json from
#                 the serve smoke), gates against the committed
#                 bench/BENCH_BASELINE.json, or regenerates it with
#                 --write-baseline.
#   FILTER        Only run benches whose name contains this substring.
#
# The benches run are the bench/bench_*.cc sources — the set CMake
# builds — so a binary whose source was deleted never runs from a stale
# build tree.
set -euo pipefail

build_dir=build
out_dir=""
smoke=0
filter=""
regression_out=""

while [[ $# -gt 0 ]]; do
  case "$1" in
    --smoke) smoke=1; shift ;;
    --build-dir) build_dir="$2"; shift 2 ;;
    --out) out_dir="$2"; shift 2 ;;
    --regression-out) regression_out="$2"; shift 2 ;;
    -h|--help) grep '^#' "$0" | sed 's/^# \{0,1\}//'; exit 0 ;;
    *) filter="$1"; shift ;;
  esac
done

src_dir="$(cd "$(dirname "$0")/.." && pwd)/bench"
bench_dir="$build_dir/bench"
if [[ ! -d "$bench_dir" ]]; then
  echo "error: $bench_dir not found — build first (cmake -B $build_dir -S . && cmake --build $build_dir -j)" >&2
  exit 1
fi

require_built() {
  if [[ ! -x "$bench_dir/$1" ]]; then
    echo "error: $bench_dir/$1 not found (Google Benchmark installed?)" >&2
    exit 1
  fi
}

if [[ -n "$regression_out" ]]; then
  # The pinned configuration of the CI bench-regression gate. Everything
  # here — scale knobs, filters, repetition count — is part of the
  # contract with the committed baseline: change it and the baseline
  # must be regenerated. The filtered benches run only Iterations(1)
  # cells, on which --benchmark_min_time has no effect.
  export RSMI_BENCH_SCALE=small RSMI_BENCH_N=2000 RSMI_BENCH_QUERIES=20
  export RSMI_BENCH_BUILD_THREADS=1
  mkdir -p "$regression_out"
  pinned=(
    # binary             output file             cell filter
    "bench_inference     bench_inference.json    ."
    "bench_paper         bench_point.json        ^Fig08/PointQueryScale/n2000/(RSMI|ZM)/"
    "bench_shard_scale   bench_shard.json        Shard/(Build|Point)/RSMI"
    "bench_persistence   bench_persistence.json  ."
    "bench_mixed_updates bench_updates.json      /w(00|10)/t1"
    "bench_observability bench_obs.json          ."
    "bench_beyond_ram    bench_xmem.json         ."
  )
  for row in "${pinned[@]}"; do
    read -r b _ _ <<< "$row"
    require_built "$b"
  done
  for row in "${pinned[@]}"; do
    read -r b out cells <<< "$row"
    echo "=== $b (pinned) -> $regression_out/$out ===" >&2
    "$bench_dir/$b" --benchmark_filter="$cells" \
      --benchmark_min_time=0.05 --benchmark_repetitions=3 \
      --benchmark_report_aggregates_only=false \
      --benchmark_out="$regression_out/$out" --benchmark_out_format=json
  done
  exit 0
fi

extra_args=()
if [[ $smoke -eq 1 ]]; then
  export RSMI_BENCH_SCALE=small RSMI_BENCH_N=2000 RSMI_BENCH_QUERIES=20
  extra_args+=(--benchmark_min_time=0.01 --benchmark_repetitions=1)
fi
[[ -n "$out_dir" ]] && mkdir -p "$out_dir"

status=0
for src in "$src_dir"/bench_*.cc; do
  name="$(basename "$src" .cc)"
  [[ -n "$filter" && "$name" != *"$filter"* ]] && continue
  require_built "$name"
  echo "=== $name ==="
  # ${arr[@]+...} guards empty-array expansion under `set -u` on bash < 4.4.
  args=(${extra_args[@]+"${extra_args[@]}"})
  [[ -n "$out_dir" ]] && args+=(--benchmark_out="$out_dir/$name.json" --benchmark_out_format=json)
  if ! "$bench_dir/$name" ${args[@]+"${args[@]}"}; then
    echo "FAILED: $name" >&2
    status=1
  fi
done
exit $status
