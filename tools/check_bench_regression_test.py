#!/usr/bin/env python3
"""Tests for check_bench_regression.py: the four gates, the metrics it
records, and which missing inputs are errors.

Each test writes a synthetic regression directory (Google Benchmark
JSON, as tools/run_benches.sh --regression-out leaves it) and a
baseline into a temp dir, runs the checker on it, and reads its exit
code, messages and metrics.json. Run directly or through ctest.
"""

import json
import os
import subprocess
import sys
import tempfile
import unittest

CHECKER = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "check_bench_regression.py")

SCALAR_NS = 300.0
POINT_US = {"RSMI": 0.6, "ZM": 0.66}


def cell(name, **counters):
    return dict(name=name, run_type="iteration", iterations=1,
                real_time=1.0, cpu_time=1.0, time_unit="ms", **counters)


def doc(*cells):
    return {"context": {"num_cpus": 4, "mhz_per_cpu": 2100,
                        "date": "2026-01-01T00:00:00+00:00"},
            "benchmarks": list(cells)}


def passing_dir():
    """File name -> JSON document of a run that passes every gate."""
    return {
        "bench_inference.json": doc(
            cell("Inference/Scalar/RsmiLeaf_in2_h51", ns_per_op=SCALAR_NS),
            cell("Inference/Batch/RsmiLeaf_in2_h51", ns_per_op=75.0,
                 avx2=1),
            cell("Inference/Spec/RsmiLeaf_in2_h51",
                 speedup_vs_generic_avx2=1.25, specialized=1, avx512=1),
            cell("Inference/Spec/ZmLeaf_in1_h50",
                 speedup_vs_generic_avx2=1.05, specialized=1, avx512=1)),
        "bench_point.json": doc(*[
            cell(f"Fig08/PointQueryScale/n2000/{idx}/iterations:1",
                 us_per_query=us, blocks_per_query=1.0)
            for idx, us in POINT_US.items()
        ]),
        "bench_obs.json": doc(
            cell("Obs/PointReplay", overhead_pct=1.0,
                 us_per_query_disabled=1.00, us_per_query_enabled=1.01)),
        "bench_shard.json": doc(
            cell("Shard/Point/RSMI/K1", us_per_query=1.0),
            cell("Shard/Point/RSMI/K4", us_per_query=1.5),
            cell("Shard/Build/RSMI/mono", build_seconds=2.0),
            cell("Shard/Build/RSMI/K4/t4", build_seconds=1.0)),
        "serve/loadgen.json": {"achieved_qps": 1000.0, "received": 5000,
                               "p50_us": 90.0, "p99_us": 300.0,
                               "p999_us": 900.0},
    }


def baseline(spec_best=1.2):
    return {
        "batch_speedup": 4.0,
        "normalized_point_cost": {
            idx: us * 1000.0 / SCALAR_NS for idx, us in POINT_US.items()
        },
        "specialized_kernels": {"best_speedup": spec_best},
    }


def set_counter(files, file_name, prefix, counter, value):
    for b in files[file_name]["benchmarks"]:
        if b["name"].startswith(prefix):
            b[counter] = value


class CheckerTest(unittest.TestCase):

    def run_checker(self, files, base=None, *extra):
        with tempfile.TemporaryDirectory() as tmp:
            reg = os.path.join(tmp, "reg")
            for name, content in files.items():
                path = os.path.join(reg, name)
                os.makedirs(os.path.dirname(path), exist_ok=True)
                with open(path, "w") as f:
                    json.dump(content, f)
            base_path = os.path.join(tmp, "baseline.json")
            with open(base_path, "w") as f:
                json.dump(base if base is not None else baseline(), f)
            metrics_path = os.path.join(tmp, "metrics.json")
            proc = subprocess.run(
                [sys.executable, CHECKER, "--dir", reg, "--baseline",
                 base_path, "--metrics-out", metrics_path, *extra],
                capture_output=True, text=True)
            metrics = None
            if os.path.exists(metrics_path):
                with open(metrics_path) as f:
                    metrics = json.load(f)
            return proc, metrics

    def assert_fails_alone(self, proc, message):
        self.assertEqual(proc.returncode, 1, proc.stdout + proc.stderr)
        failures = [line for line in proc.stderr.splitlines()
                    if line.startswith("  - ")]
        self.assertEqual(len(failures), 1, proc.stderr)
        self.assertIn(message, failures[0])

    def test_passing_dir_records_every_metric(self):
        proc, metrics = self.run_checker(passing_dir())
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertIn("PASS", proc.stdout)
        self.assertEqual(
            set(metrics),
            {"scalar_ns_per_op", "batch_ns_per_op", "batch_speedup", "avx2",
             "point_us_per_query", "normalized_point_cost",
             "specialized_kernels", "host", "observability", "sharded",
             "serving"})
        self.assertEqual(metrics["batch_speedup"], 4.0)
        self.assertIs(metrics["avx2"], True)
        self.assertAlmostEqual(metrics["normalized_point_cost"]["RSMI"], 2.0)
        self.assertEqual(metrics["specialized_kernels"]["best_shape"],
                         "RsmiLeaf_in2_h51")
        self.assertEqual(metrics["host"]["num_cpus"], 4)
        self.assertEqual(metrics["sharded"]["sharded_point_ratio"], 1.5)
        self.assertEqual(metrics["sharded"]["parallel_build_speedup"], 2.0)
        self.assertEqual(metrics["serving"]["p99_us"], 300.0)
        # The server cells are optional: absent here, so not recorded.
        self.assertEqual(set(metrics["observability"]),
                         {"untraced_overhead_pct", "us_per_query_disabled",
                          "us_per_query_enabled"})

    def test_point_cost_gate(self):
        for idx in POINT_US:
            files = passing_dir()
            set_counter(files, "bench_point.json",
                        f"Fig08/PointQueryScale/n2000/{idx}/",
                        "us_per_query", POINT_US[idx] * 1.26)
            proc, _ = self.run_checker(files)
            self.assert_fails_alone(proc, f"{idx} point-query cost regressed")

    def test_avx2_batch_speedup_gate(self):
        files = passing_dir()
        set_counter(files, "bench_inference.json", "Inference/Batch/",
                    "ns_per_op", SCALAR_NS / 1.4)
        proc, _ = self.run_checker(files)
        self.assert_fails_alone(proc, "batched inference speedup 1.40x")

    def test_specialized_gate_hard_floor(self):
        # The baseline host demonstrated >= 1.3x: 1.25x now fails.
        proc, _ = self.run_checker(passing_dir(), baseline(spec_best=1.35))
        self.assert_fails_alone(
            proc, "specialized kernel speedup 1.25x fell below 1.30x "
                  "(hard 1.3x floor)")

    def test_specialized_gate_no_regression_regime(self):
        # The baseline host stayed below 1.3x (1.2x): the floor is 15%
        # under it, 1.02x.
        files = passing_dir()
        set_counter(files, "bench_inference.json",
                    "Inference/Spec/RsmiLeaf", "speedup_vs_generic_avx2",
                    1.0)
        set_counter(files, "bench_inference.json",
                    "Inference/Spec/ZmLeaf", "speedup_vs_generic_avx2", 1.0)
        proc, _ = self.run_checker(files, baseline(spec_best=1.2))
        self.assert_fails_alone(
            proc, "specialized kernel speedup 1.00x fell below 1.02x "
                  "(no-regression vs baseline 1.20x")

    def test_untraced_overhead_gate(self):
        files = passing_dir()
        set_counter(files, "bench_obs.json", "Obs/PointReplay",
                    "overhead_pct", 5.1)
        proc, _ = self.run_checker(files)
        self.assert_fails_alone(
            proc, "untraced instrumentation overhead 5.10% exceeds")

    def test_missing_gated_input_is_an_error(self):
        for name in ("bench_inference.json", "bench_point.json",
                     "bench_obs.json"):
            files = passing_dir()
            del files[name]
            proc, _ = self.run_checker(files)
            self.assertNotEqual(proc.returncode, 0, name)
            self.assertIn(f"{name} is missing", proc.stderr)

    def test_missing_recorded_input_is_skipped(self):
        files = passing_dir()
        del files["bench_shard.json"]
        del files["serve/loadgen.json"]
        proc, metrics = self.run_checker(files)
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        self.assertNotIn("sharded", metrics)
        self.assertNotIn("serving", metrics)

    def test_write_baseline_keeps_only_the_gated_keys(self):
        with tempfile.TemporaryDirectory() as tmp:
            out = os.path.join(tmp, "new_baseline.json")
            proc, _ = self.run_checker(passing_dir(), None,
                                       "--write-baseline", out)
            self.assertEqual(proc.returncode, 0, proc.stderr)
            with open(out) as f:
                written = json.load(f)
        self.assertEqual(
            set(written),
            {"scalar_ns_per_op", "batch_ns_per_op", "batch_speedup", "avx2",
             "point_us_per_query", "normalized_point_cost",
             "specialized_kernels", "host"})


if __name__ == "__main__":
    unittest.main()
