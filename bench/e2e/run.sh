#!/usr/bin/env bash
# The end-to-end benchmark in one command. Builds rsmi_e2e and rsmi_cli
# in Release under .bench_build/ at the repository root, then runs
# rsmi_e2e; arguments pass through to it:
#
#   bash bench/e2e/run.sh                      # all workloads, both runs
#   bash bench/e2e/run.sh --workload point-osm --seed 3 --seconds 10 --trace 0
#
# Build output goes to stderr; stdout carries the metrics, and its last
# line is one JSON object (see README.md).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(cd "${here}/../.." && pwd)"
build="${root}/.bench_build/e2e"

cmake -S "${here}" -B "${build}" -DCMAKE_BUILD_TYPE=Release >&2
cmake --build "${build}" -j "$(nproc)" --target rsmi_e2e rsmi_cli >&2

commit="$(git -C "${root}" rev-parse HEAD 2>/dev/null || echo unknown)"
exec "${build}/rsmi_e2e" \
  --cli "${build}/rsmi/tools/rsmi_cli" \
  --out "${root}/.bench_build/e2e-results" \
  --work "${root}/.bench_build/e2e-work" \
  --commit "${commit}" "$@"
