#!/usr/bin/env bash
# End-to-end beyond-RAM smoke over rsmi_cli: build a sharded<2>:rsmi
# container, query it through the mmap-backed external-memory path with
# --rss-budget-mb=1, and require every answer to be byte-identical to the
# eagerly loaded twin — with prefetch on AND off. The container (about
# 177 KiB) fits that budget, so this checks the flag plumbing and parity;
# eviction under a budget the file exceeds is covered by xmem_test.
# Then checks `stats --mmap` surfaces the xmem_* residency counters and
# that `info` on a sparse 1 GiB container returns promptly (the lazy
# header path never reads the whole file). Registered with ctest (label
# "beyond_ram") so it runs in the Release and Debug CI legs; outputs
# land in OUT_DIR for CI to upload.
#
# Usage: beyond_ram_smoke.sh RSMI_CLI OUT_DIR
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 RSMI_CLI OUT_DIR" >&2
  exit 2
fi
cli="$1"
out_dir="$2"
mkdir -p "$out_dir"
data="$out_dir/points.csv"
idx="$out_dir/sharded2_rsmi.idx"

fail() { echo "FAIL: $1" >&2; exit 1; }

"$cli" generate --n=5000 --dist=skewed --seed=11 --out="$data"
"$cli" build --data="$data" --index="$idx" \
  --shards=2 --shard-inner=rsmi --block=20 --threshold=400 --epochs=40 \
  --build-threads=2 > "$out_dir/build.txt"

# Eager twin answers: the ground truth every mmap variant must match.
"$cli" window --index="$idx" --rect=0.2,0.2,0.6,0.6 2>/dev/null \
  > "$out_dir/window_eager.txt"
"$cli" knn --index="$idx" --x=0.5 --y=0.5 --k=10 2>/dev/null \
  > "$out_dir/knn_eager.txt"
first="$(head -1 "$out_dir/window_eager.txt")"
[[ -n "$first" ]] || fail "eager window returned nothing"
x="${first%,*}"
y="${first#*,}"
"$cli" point --index="$idx" --x="$x" --y="$y" > "$out_dir/point_eager.txt"
grep -q 'id=' "$out_dir/point_eager.txt" \
  || fail "eager load cannot find a stored point"

# The mmap path with a budget flag, prefetch on and off: bit-identical
# output or bust.
for variant in on off; do
  mmap_args=(--mmap --rss-budget-mb=1)
  if [[ "$variant" == off ]]; then mmap_args+=(--no-prefetch); fi
  "$cli" window --index="$idx" "${mmap_args[@]}" \
    --rect=0.2,0.2,0.6,0.6 2>/dev/null > "$out_dir/window_mmap_$variant.txt"
  diff "$out_dir/window_eager.txt" "$out_dir/window_mmap_$variant.txt" \
    || fail "mmap window (prefetch $variant) diverged from eager load"
  "$cli" knn --index="$idx" "${mmap_args[@]}" \
    --x=0.5 --y=0.5 --k=10 2>/dev/null > "$out_dir/knn_mmap_$variant.txt"
  diff "$out_dir/knn_eager.txt" "$out_dir/knn_mmap_$variant.txt" \
    || fail "mmap knn (prefetch $variant) diverged from eager load"
  "$cli" point --index="$idx" "${mmap_args[@]}" \
    --x="$x" --y="$y" > "$out_dir/point_mmap_$variant.txt"
  diff "$out_dir/point_eager.txt" "$out_dir/point_mmap_$variant.txt" \
    || fail "mmap point (prefetch $variant) diverged from eager load"
done

"$cli" stats --index="$idx" --mmap --rss-budget-mb=1 \
  > "$out_dir/stats_mmap.txt"
grep -q 'xmem_budget_mb' "$out_dir/stats_mmap.txt" \
  || fail "stats --mmap does not surface the xmem residency counters"

# info on a sparse multi-GiB container: the lazy header walk must parse
# the spec without reading the (mostly hole) payload — a whole-file read
# of 1 GiB would blow the timeout on any CI runner class.
sparse="$out_dir/sparse.idx"
cp "$idx" "$sparse"
truncate -s 1G "$sparse"
timeout 30 "$cli" info "$sparse" > "$out_dir/info_sparse.txt" \
  || fail "info on a sparse 1 GiB container did not return promptly"
grep -q 'sharded<2>:rsmi' "$out_dir/info_sparse.txt" \
  || fail "info on the sparse container lost the embedded spec"
rm -f "$sparse"

echo "PASS: mmap-backed queries bit-identical to eager load with a 1 MB budget via $idx"
