#!/usr/bin/env python3
"""CI perf-regression gate over the pinned micro-benches.

Reads one directory: what `tools/run_benches.sh --regression-out DIR`
writes (Google Benchmark JSON, one file per bench), plus
`serve/loadgen.json` from the serve smoke
(`tools/serve_smoke.sh build/tools/rsmi_cli DIR/serve`). Every metric
is one row of METRICS or RATIOS: the key it is recorded under, the file
and cell-name prefix it is read from, the counter, and whether the best
repetition is the min or the max. All of them go into --metrics-out;
four gates then compare some of them against the committed snapshot
`bench/BENCH_BASELINE.json`:

- Normalized point cost. Machines differ, so absolute latencies are
  never compared across runs. Every run carries its own calibration:
  the scalar ns/op of the RSMI-leaf MLP forward pass
  (`Inference/Scalar/RsmiLeaf_in2_h51`), the arithmetic the point-query
  descent spends its time in. The gated metric is

      normalized = point-query us/query * 1000 / scalar ns/op

  which is stable across machine speeds but rises when the query path
  itself regresses. It may exceed the baseline by at most 25%.
- Batched inference must keep a 1.5x speedup over looped scalar
  inference whenever the AVX2 kernel is active (the committed baseline
  records the >=2x acceptance measurement; 1.5x absorbs shared-runner
  noise).
- The Inference/Spec cells time the shape-specialized kernels against
  the generic AVX2 kernel interleaved in one process (immune to
  cross-run drift). The headroom is hardware-dependent —
  divider-throughput-bound cores with per-double-equal ymm/zmm divide
  and one 512-bit FMA port cap it at ~1.05-1.13x, while dual-FMA-port
  parts clear 1.3x — so the floor adapts to the committed baseline
  host: 1.3x when the baseline records >=1.3x, otherwise no more than
  15% below the baseline's best ratio. Skipped when the specialized
  kernels are inactive (forced generic/scalar, or a non-SIMD host).
- Obs/PointReplay replays one point workload with the metrics registry
  disabled and enabled, interleaved in one process; the untraced
  instrumentation overhead may not exceed 5%.

The files the gates read are required. The others are recorded only,
and skipped when absent: they are too noisy on shared runners for a
threshold (filesystem-bound save/load, loopback serving, page-cache
cold faults) or need more runner generations of data first (sharded vs
monolithic); num_cpus rides along to interpret them (1-vCPU runners
serialize readers, writers and prefetch workers).

Regenerate the snapshot after intentional perf changes:

    tools/run_benches.sh --regression-out /tmp/reg
    tools/check_bench_regression.py --dir /tmp/reg \\
        --write-baseline bench/BENCH_BASELINE.json
"""

import argparse
import json
import os
import sys

INFERENCE = "bench_inference.json"
POINT = "bench_point.json"
OBS = "bench_obs.json"
SHARD = "bench_shard.json"
PERSISTENCE = "bench_persistence.json"
UPDATES = "bench_updates.json"
XMEM = "bench_xmem.json"
SERVE = "serve/loadgen.json"
GATED_FILES = (INFERENCE, POINT, OBS)

CALIBRATION_SCALAR = "Inference/Scalar/RsmiLeaf_in2_h51"
CALIBRATION_BATCH = "Inference/Batch/RsmiLeaf_in2_h51"
POINT_PREFIX = "Fig08/PointQueryScale/n2000/"
POINT_INDICES = ("RSMI", "ZM")
SPEC_PREFIX = "Inference/Spec/"
OBS_REPLAY = "Obs/PointReplay"
OBS_SERVER = "Obs/ServerTraced"
XMEM_POINT_ON = "BeyondRam/ColdPoint/PrefetchOn"
# Cells a host may not produce: the traced server cells are skipped when
# the loopback server cannot run.
OPTIONAL_PREFIXES = (OBS_SERVER,)

POINT_THRESHOLD = 0.25
AVX2_MIN_SPEEDUP = 1.5
SPEC_MIN_SPEEDUP = 1.3
SPEC_TOLERANCE = 0.15
OBS_MAX_OVERHEAD_PCT = 5.0

# (output key, file, cell-name prefix, counter, best of the repetitions).
# "flag" is true when every repetition reports the counter as set.
METRICS = [
    ("scalar_ns_per_op", INFERENCE, CALIBRATION_SCALAR, "ns_per_op", "min"),
    ("batch_ns_per_op", INFERENCE, CALIBRATION_BATCH, "ns_per_op", "min"),
    ("avx2", INFERENCE, CALIBRATION_BATCH, "avx2", "flag"),
] + [
    (f"point_us_per_query.{idx}", POINT, POINT_PREFIX + idx, "us_per_query",
     "min")
    for idx in POINT_INDICES
] + [
    # bench_shard_scale; K1 is the monolithic reference (with one shard
    # the sharded path is bit-identical to the inner index).
    ("sharded.point_us_mono", SHARD, "Shard/Point/RSMI/K1", "us_per_query",
     "min"),
    ("sharded.point_us_sharded_k4", SHARD, "Shard/Point/RSMI/K4",
     "us_per_query", "min"),
    # SaveIndex/LoadIndex through the index-container format; best
    # repetition, like a steady-state disk.
    ("persistence.save_mb_per_s_rsmi", PERSISTENCE, "Persist/Save/RSMI",
     "mb_per_s", "max"),
    ("persistence.load_mb_per_s_rsmi", PERSISTENCE, "Persist/Load/RSMI",
     "mb_per_s", "max"),
    ("persistence.save_mb_per_s_sharded4_rsmi", PERSISTENCE,
     "Persist/Save/Sharded4RSMI", "mb_per_s", "max"),
    ("persistence.load_mb_per_s_sharded4_rsmi", PERSISTENCE,
     "Persist/Load/Sharded4RSMI", "mb_per_s", "max"),
    ("persistence.file_mb_sharded4_rsmi", PERSISTENCE,
     "Persist/Save/Sharded4RSMI", "file_mb", "max"),
    # Mixed read/write: delta-buffered vs exclusive-writer read p99 at a
    # 10% write mix, against the read-only baseline.
    ("updates.read_p99_us_read_only", UPDATES, "MixedUpdates/Buffered/w00/t1",
     "p99_read_us", "min"),
    ("updates.read_p99_us_buffered_w10", UPDATES,
     "MixedUpdates/Buffered/w10/t1", "p99_read_us", "min"),
    ("updates.read_p99_us_exclusive_w10", UPDATES,
     "MixedUpdates/Exclusive/w10/t1", "p99_read_us", "min"),
    ("updates.throughput_qps_buffered_w10", UPDATES,
     "MixedUpdates/Buffered/w10/t1", "throughput_qps", "min"),
    ("updates.throughput_qps_exclusive_w10", UPDATES,
     "MixedUpdates/Exclusive/w10/t1", "throughput_qps", "min"),
    # Beyond-RAM cold queries through the mmap backend; the bench itself
    # fails on any mmap-vs-eager parity violation.
    ("xmem.cold_point_ms_prefetch_on", XMEM, XMEM_POINT_ON, "real_time",
     "min"),
    ("xmem.cold_point_ms_prefetch_off", XMEM,
     "BeyondRam/ColdPoint/PrefetchOff", "real_time", "min"),
    ("xmem.cold_window_ms_prefetch_on", XMEM,
     "BeyondRam/ColdWindow/PrefetchOn", "real_time", "min"),
    ("xmem.cold_window_ms_prefetch_off", XMEM,
     "BeyondRam/ColdWindow/PrefetchOff", "real_time", "min"),
    ("xmem.file_mb", XMEM, XMEM_POINT_ON, "file_mb", "max"),
    ("xmem.budget_mb", XMEM, XMEM_POINT_ON, "budget_mb", "max"),
    ("xmem.faults", XMEM, XMEM_POINT_ON, "faults", "max"),
    ("xmem.prefetch_hits", XMEM, XMEM_POINT_ON, "prefetch_hits", "max"),
    # Registry disabled vs enabled; the min over repetitions is the
    # honest overhead (everything above it is scheduler noise). Tracing
    # is opt-in per request, so its server round trip is recorded only.
    ("observability.untraced_overhead_pct", OBS, OBS_REPLAY, "overhead_pct",
     "min"),
    ("observability.us_per_query_disabled", OBS, OBS_REPLAY,
     "us_per_query_disabled", "min"),
    ("observability.us_per_query_enabled", OBS, OBS_REPLAY,
     "us_per_query_enabled", "min"),
    ("observability.traced_overhead_pct", OBS, OBS_SERVER,
     "traced_overhead_pct", "min"),
    ("observability.us_per_query_untraced", OBS, OBS_SERVER,
     "us_per_query_untraced", "min"),
    ("observability.us_per_query_traced", OBS, OBS_SERVER,
     "us_per_query_traced", "min"),
]

# (output key, file, numerator prefix, denominator prefix, counter,
# best): the ratio of the two cells' best values, 0 if the denominator
# is 0.
RATIOS = [
    ("batch_speedup", INFERENCE, CALIBRATION_SCALAR, CALIBRATION_BATCH,
     "ns_per_op", "min"),
    # > 1: a point query routed through K=4 shards costs more than the
    # monolithic lookup.
    ("sharded.sharded_point_ratio", SHARD, "Shard/Point/RSMI/K4",
     "Shard/Point/RSMI/K1", "us_per_query", "min"),
    ("sharded.parallel_build_speedup", SHARD, "Shard/Build/RSMI/mono",
     "Shard/Build/RSMI/K4/t4", "build_seconds", "min"),
    # < 1: buffered writes kept read tail latency below the
    # exclusive-writer path.
    ("updates.read_p99_ratio", UPDATES, "MixedUpdates/Buffered/w10/t1",
     "MixedUpdates/Exclusive/w10/t1", "p99_read_us", "min"),
    # > 1: model-predicted prefetch beat demand faulting alone (needs real
    # parallelism and a data set that misses the page cache).
    ("xmem.prefetch_speedup", XMEM, "BeyondRam/ColdPoint/PrefetchOff",
     XMEM_POINT_ON, "real_time", "min"),
]

# (output key, file, Google Benchmark context field).
CONTEXT = [
    ("host.num_cpus", INFERENCE, "num_cpus"),
    ("host.mhz_per_cpu", INFERENCE, "mhz_per_cpu"),
    ("host.date", INFERENCE, "date"),
    ("sharded.num_cpus", SHARD, "num_cpus"),
    ("updates.num_cpus", UPDATES, "num_cpus"),
    ("xmem.num_cpus", XMEM, "num_cpus"),
]

SERVE_KEYS = ("achieved_qps", "received", "p50_us", "p99_us", "p999_us")
BASELINE_KEYS = ("scalar_ns_per_op", "batch_ns_per_op", "batch_speedup",
                 "avx2", "point_us_per_query", "normalized_point_cost",
                 "specialized_kernels", "host")


class Inputs:
    """The JSON files of one regression directory, loaded once each."""

    def __init__(self, directory):
        self.dir = directory
        self.docs = {}

    def present(self, name):
        return os.path.exists(os.path.join(self.dir, name))

    def doc(self, name):
        if name not in self.docs:
            path = os.path.join(self.dir, name)
            if not os.path.exists(path):
                raise SystemExit(f"error: {path} is missing — the gates "
                                 f"need it (run_benches.sh --regression-out)")
            with open(path) as f:
                self.docs[name] = json.load(f)
        return self.docs[name]

    def entries(self, name, prefix):
        # Plain iteration entries only (aggregates like _mean/_cv are
        # reported with run_type == "aggregate").
        return [
            b for b in self.doc(name).get("benchmarks", [])
            if b.get("run_type") == "iteration"
            and b["name"].startswith(prefix)
        ]

    def values(self, name, prefix, counter):
        return [float(b[counter]) for b in self.entries(name, prefix)
                if counter in b]

    def best(self, name, prefix, counter, how):
        values = self.values(name, prefix, counter)
        if not values:
            if prefix in OPTIONAL_PREFIXES:
                return None
            raise SystemExit(
                f"error: no benchmark entries matching {prefix!r} with "
                f"counter {counter!r} in {name} — wrong input file or "
                f"filter?")
        if how == "max":
            return max(values)
        if how == "flag":
            return min(values) > 0.5
        return min(values)


def put(metrics, key, value):
    *path, leaf = key.split(".")
    for part in path:
        metrics = metrics.setdefault(part, {})
    metrics[leaf] = value


def collect(inputs):
    metrics = {}

    def wanted(name):
        # A recorded file that is absent is skipped; gated files must exist.
        return name in GATED_FILES or inputs.present(name)

    for key, name, prefix, counter, how in METRICS:
        if wanted(name):
            value = inputs.best(name, prefix, counter, how)
            if value is not None:
                put(metrics, key, value)
    for key, name, num, den, counter, how in RATIOS:
        if wanted(name):
            a = inputs.best(name, num, counter, how)
            b = inputs.best(name, den, counter, how)
            put(metrics, key, a / b if b > 0 else 0.0)
    for key, name, field in CONTEXT:
        if wanted(name):
            put(metrics, key, inputs.doc(name).get("context", {}).get(field))

    scalar_ns = metrics["scalar_ns_per_op"]
    metrics["normalized_point_cost"] = {
        idx: us * 1000.0 / scalar_ns
        for idx, us in metrics["point_us_per_query"].items()
    }
    shapes = sorted({
        b["name"][len(SPEC_PREFIX):]
        for b in inputs.entries(INFERENCE, SPEC_PREFIX)
        if "speedup_vs_generic_avx2" in b
    })
    if shapes:
        # Best repetition per shape: the interleaved A/B already cancels
        # machine drift within a repetition; min-of-noise across reps.
        ratios = {
            shape: inputs.best(INFERENCE, SPEC_PREFIX + shape,
                               "speedup_vs_generic_avx2", "max")
            for shape in shapes
        }
        best_shape = max(ratios, key=lambda s: ratios[s])
        metrics["specialized_kernels"] = {
            "active": inputs.best(INFERENCE, SPEC_PREFIX, "specialized",
                                  "flag"),
            "avx512": inputs.best(INFERENCE, SPEC_PREFIX, "avx512", "flag"),
            "speedup_vs_generic_avx2": ratios,
            "best_shape": best_shape,
            "best_speedup": ratios[best_shape],
        }
    if inputs.present(SERVE):
        # The loadgen report is already the artifact shape.
        report = inputs.doc(SERVE)
        for key in SERVE_KEYS:
            if key not in report:
                raise SystemExit(f"error: {SERVE} is missing {key!r} — "
                                 f"not a loadgen JSON?")
        metrics["serving"] = report
    return metrics


def gate(current, baseline):
    """Returns the failure messages of the four gates."""
    failures = []
    for idx in POINT_INDICES:
        base = baseline["normalized_point_cost"][idx]
        cur = current["normalized_point_cost"][idx]
        limit = base * (1.0 + POINT_THRESHOLD)
        verdict = "OK" if cur <= limit else "REGRESSION"
        print(f"{idx}: normalized point cost {cur:.1f} vs baseline "
              f"{base:.1f} (limit {limit:.1f}) -> {verdict}")
        if cur > limit:
            failures.append(f"{idx} point-query cost regressed "
                            f"{cur / base - 1.0:+.0%} "
                            f"(> {POINT_THRESHOLD:.0%} allowed)")

    if current["avx2"]:
        speedup = current["batch_speedup"]
        print(f"batched-inference speedup (avx2): {speedup:.2f}x "
              f"(floor {AVX2_MIN_SPEEDUP}x; baseline recorded "
              f"{baseline.get('batch_speedup', 0.0):.2f}x)")
        if speedup < AVX2_MIN_SPEEDUP:
            failures.append(f"batched inference speedup {speedup:.2f}x fell "
                            f"below the {AVX2_MIN_SPEEDUP}x floor")
    else:
        print("avx2 kernel inactive: speedup gate skipped")

    spec = current.get("specialized_kernels")
    if spec is None or not spec["active"]:
        print("specialized kernels inactive: specialized gate skipped")
    else:
        base_best = float(
            baseline.get("specialized_kernels", {}).get("best_speedup", 0.0))
        cur_best = spec["best_speedup"]
        if base_best >= SPEC_MIN_SPEEDUP:
            floor = SPEC_MIN_SPEEDUP
            regime = f"hard {SPEC_MIN_SPEEDUP}x floor"
        else:
            floor = base_best * (1.0 - SPEC_TOLERANCE)
            regime = (f"no-regression vs baseline {base_best:.2f}x "
                      f"(-{SPEC_TOLERANCE:.0%})")
        verdict = "OK" if cur_best >= floor else "REGRESSION"
        print(f"specialized kernel speedup: {cur_best:.2f}x on "
              f"{spec['best_shape']} vs generic avx2 ({regime}) -> {verdict}")
        if cur_best < floor:
            failures.append(f"specialized kernel speedup {cur_best:.2f}x fell "
                            f"below {floor:.2f}x ({regime})")

    overhead = current["observability"]["untraced_overhead_pct"]
    verdict = "OK" if overhead <= OBS_MAX_OVERHEAD_PCT else "REGRESSION"
    print(f"observability: untraced overhead {overhead:+.2f}% (limit "
          f"{OBS_MAX_OVERHEAD_PCT:.0f}%) -> {verdict}")
    if overhead > OBS_MAX_OVERHEAD_PCT:
        failures.append(f"untraced instrumentation overhead {overhead:.2f}% "
                        f"exceeds the {OBS_MAX_OVERHEAD_PCT:.0f}% ceiling")
    return failures


def main():
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--dir", required=True,
                    help="the run_benches.sh --regression-out directory")
    ap.add_argument("--baseline",
                    help="committed BENCH_BASELINE.json to gate against")
    ap.add_argument("--metrics-out",
                    help="also write the collected metrics JSON here")
    ap.add_argument("--write-baseline",
                    help="write the gated metrics as a new baseline and exit")
    args = ap.parse_args()

    current = collect(Inputs(args.dir))
    print("current metrics:")
    print(json.dumps(current, indent=2))
    if args.metrics_out:
        with open(args.metrics_out, "w") as f:
            json.dump(current, f, indent=2)
            f.write("\n")
    if args.write_baseline:
        with open(args.write_baseline, "w") as f:
            json.dump({k: current[k] for k in BASELINE_KEYS if k in current},
                      f, indent=2)
            f.write("\n")
        print(f"wrote baseline -> {args.write_baseline}")
        return 0
    if not args.baseline:
        raise SystemExit("error: pass --baseline (or --write-baseline)")
    with open(args.baseline) as f:
        baseline = json.load(f)

    failures = gate(current, baseline)
    if failures:
        print("\nFAIL:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nPASS: no perf regression")
    return 0


if __name__ == "__main__":
    sys.exit(main())
