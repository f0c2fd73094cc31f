// Sharded-index scaling: shards x build-threads x index type on the
// Uniform dataset. Build cells measure the parallel space-partitioned
// build against the monolithic build of the same inner kind (the shard
// builds are independent, so on a multi-core machine the sharded build
// should win clearly; on a 1-vCPU container it only measures overhead —
// num_cpus is recorded on every cell so the JSON stays interpretable).
// Query cells measure routed point lookups (batched per shard through
// PointQueryBatch), window/kNN fan-out with region pruning, and the
// mixed-workload engine throughput. K1 cells are the monolithic
// reference for latency ratios: with one shard the sharded path is
// bit-identical to the inner index, so K>1 vs K1 isolates the cost (or
// win) of fan-out. tools/check_bench_regression.py records the
// sharded-vs-monolithic point-latency ratio from this JSON (non-gating).
#include <benchmark/benchmark.h>

#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "exec/batch_query_engine.h"

namespace rsmi {
namespace bench {
namespace {

const std::vector<std::string> kInners = {"rsmi", "grid", "zm"};
const std::vector<int> kShardSweep = {1, 2, 4, 8};
const std::vector<int> kBuildThreadSweep = {1, 4};
const std::vector<int> kEngineThreadSweep = {1, 4};

double NumCpus() {
  return static_cast<double>(std::thread::hardware_concurrency());
}

std::string ShardSpec(const std::string& inner, int shards) {
  return "sharded<" + std::to_string(shards) + ">:" + inner;
}

/// Display name of an inner spec ("rsmi" -> "RSMI").
std::string InnerLabel(const std::string& inner) {
  IndexKind kind;
  return ParseIndexKind(inner, &kind) ? IndexKindName(kind) : inner;
}

/// Query-side index cache: one build per (spec, n) across all cells.
SpatialIndex* CachedIndex(const std::string& spec, size_t n) {
  static std::map<std::pair<std::string, size_t>,
                  std::unique_ptr<SpatialIndex>>
      cache;
  const auto key = std::make_pair(spec, n);
  auto it = cache.find(key);
  if (it == cache.end()) {
    const auto& data = Context::Get().Dataset(Distribution::kUniform, n);
    it = cache.emplace(key, MakeIndexFromSpec(spec, data, BuildConfig()))
             .first;
  }
  return it->second.get();
}

/// Build-time cells: a fresh build per iteration (nothing cached).
void BuildBench(benchmark::State& state, const std::string& spec,
                int build_threads) {
  const size_t n = GetScale().default_n;
  const auto& data = Context::Get().Dataset(Distribution::kUniform, n);
  IndexBuildConfig cfg = BuildConfig();
  cfg.build_threads = build_threads;
  double seconds = 0.0;
  for (auto _ : state) {
    WallTimer t;
    auto index = MakeIndexFromSpec(spec, data, cfg);
    seconds = t.ElapsedSeconds();
    benchmark::DoNotOptimize(index);
  }
  state.counters["build_seconds"] = seconds;
  state.counters["build_threads"] = build_threads;
  state.counters["num_cpus"] = NumCpus();
  state.counters["n"] = static_cast<double>(n);
}

void PointBench(benchmark::State& state, const std::string& spec) {
  const Scale& sc = GetScale();
  const size_t n = sc.default_n;
  SpatialIndex* index = CachedIndex(spec, n);
  const auto& data = Context::Get().Dataset(Distribution::kUniform, n);
  const auto qs =
      GenerateQueryPoints(data, std::min(sc.point_queries, n), kQuerySeed);
  std::vector<std::optional<PointEntry>> hits(qs.size());
  std::vector<QueryContext> ctxs(qs.size());

  double us = 0.0;
  for (auto _ : state) {
    std::fill(ctxs.begin(), ctxs.end(), QueryContext{});
    WallTimer t;
    index->PointQueryBatch(qs.data(), qs.size(), ctxs.data(), hits.data());
    us = t.ElapsedMicros() / static_cast<double>(qs.size());
  }
  QueryContext ctx;
  for (const QueryContext& c : ctxs) ctx.MergeFrom(c);
  state.counters["us_per_query"] = us;
  state.counters["blocks_per_query"] =
      static_cast<double>(ctx.block_accesses) /
      static_cast<double>(qs.size());
  state.counters["num_cpus"] = NumCpus();
}

void WindowBench(benchmark::State& state, const std::string& spec) {
  const Scale& sc = GetScale();
  const size_t n = sc.default_n;
  SpatialIndex* index = CachedIndex(spec, n);
  const auto& data = Context::Get().Dataset(Distribution::kUniform, n);
  const auto windows = GenerateWindowQueries(
      data, sc.queries, kDefaultWindowArea, kDefaultAspect, kQuerySeed);

  QueryContext ctx;
  double us = 0.0;
  uint64_t results = 0;
  for (auto _ : state) {
    ctx = QueryContext{};
    results = 0;
    WallTimer t;
    for (const Rect& w : windows) {
      results += index->WindowQuery(w, ctx).size();
    }
    us = t.ElapsedMicros() / static_cast<double>(windows.size());
  }
  state.counters["us_per_query"] = us;
  state.counters["results"] = static_cast<double>(results);
  state.counters["blocks_per_query"] =
      static_cast<double>(ctx.block_accesses) /
      static_cast<double>(windows.size());
}

void KnnBench(benchmark::State& state, const std::string& spec) {
  const Scale& sc = GetScale();
  const size_t n = sc.default_n;
  SpatialIndex* index = CachedIndex(spec, n);
  const auto& data = Context::Get().Dataset(Distribution::kUniform, n);
  const auto centers = GenerateQueryPoints(data, sc.queries, kQuerySeed);

  QueryContext ctx;
  double us = 0.0;
  for (auto _ : state) {
    ctx = QueryContext{};
    WallTimer t;
    for (const Point& q : centers) {
      benchmark::DoNotOptimize(index->KnnQuery(q, kDefaultK, ctx));
    }
    us = t.ElapsedMicros() / static_cast<double>(centers.size());
  }
  state.counters["us_per_query"] = us;
  state.counters["blocks_per_query"] =
      static_cast<double>(ctx.block_accesses) /
      static_cast<double>(centers.size());
}

void MixedBench(benchmark::State& state, const std::string& spec,
                int threads) {
  const Scale& sc = GetScale();
  const size_t n = sc.default_n;
  SpatialIndex* index = CachedIndex(spec, n);
  const auto& data = Context::Get().Dataset(Distribution::kUniform, n);
  WorkloadMix mix;
  mix.k = kDefaultK;
  mix.window_area = kDefaultWindowArea;
  const auto ops = BuildMixedWorkload(data, std::min(sc.point_queries, n),
                                      mix, kQuerySeed);

  BatchQueryEngine engine(threads);
  BatchQueryStats st;
  for (auto _ : state) {
    st = engine.Run(*index, ops);
  }
  state.counters["throughput_qps"] = st.throughput_qps;
  state.counters["p50_us"] = st.p50_us;
  state.counters["p99_us"] = st.p99_us;
  state.counters["threads"] = threads;
  state.counters["num_cpus"] = NumCpus();
}

}  // namespace
}  // namespace bench
}  // namespace rsmi

int main(int argc, char** argv) {
  using namespace rsmi;
  using namespace rsmi::bench;
  for (const std::string& inner : kInners) {
    const std::string label = InnerLabel(inner);
    RegisterNamed("Shard/Build/" + label + "/mono",
                  [inner](benchmark::State& s) {
                    BuildBench(s, inner, BuildConfig().build_threads);
                  })
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
    for (int k : kShardSweep) {
      if (k == 1) continue;
      for (int t : kBuildThreadSweep) {
        RegisterNamed("Shard/Build/" + label + "/K" + std::to_string(k) +
                          "/t" + std::to_string(t),
                      [inner, k, t](benchmark::State& s) {
                        BuildBench(s, ShardSpec(inner, k), t);
                      })
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond)
            ->UseRealTime();
      }
    }
    for (int k : kShardSweep) {
      const std::string suffix = label + "/K" + std::to_string(k);
      const std::string spec = ShardSpec(inner, k);
      RegisterNamed("Shard/Point/" + suffix,
                    [spec](benchmark::State& s) { PointBench(s, spec); })
          ->Unit(benchmark::kMillisecond)
          ->UseRealTime();
      RegisterNamed("Shard/Window/" + suffix,
                    [spec](benchmark::State& s) { WindowBench(s, spec); })
          ->Unit(benchmark::kMillisecond)
          ->UseRealTime();
      RegisterNamed("Shard/Knn/" + suffix,
                    [spec](benchmark::State& s) { KnnBench(s, spec); })
          ->Unit(benchmark::kMillisecond)
          ->UseRealTime();
      for (int t : kEngineThreadSweep) {
        RegisterNamed("Shard/Mixed/" + suffix + "/t" + std::to_string(t),
                      [spec, t](benchmark::State& s) {
                        MixedBench(s, spec, t);
                      })
            ->Iterations(1)
            ->Unit(benchmark::kMillisecond)
            ->MeasureProcessCPUTime()
            ->UseRealTime();
      }
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
