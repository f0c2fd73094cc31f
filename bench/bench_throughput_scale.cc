// Throughput under concurrent batched query load: BatchQueryEngine worker
// threads × index type on the Uniform dataset, mixed point/window/kNN
// workload. Expected shape: near-linear throughput scaling up to the
// physical core count for every index, because the QueryContext read path
// shares no mutable state (this bench is the evidence for the >= 4x at 8
// threads acceptance bar).
#include <benchmark/benchmark.h>

#include <map>

#include "bench_common.h"
#include "exec/batch_query_engine.h"

namespace rsmi {
namespace bench {
namespace {

const std::vector<IndexKind> kKinds = {
    IndexKind::kGrid, IndexKind::kHrr,  IndexKind::kKdb,
    IndexKind::kRstar, IndexKind::kRsmi, IndexKind::kZm};

const std::vector<int> kThreadSweep = {1, 2, 4, 8};

/// Workload cache: one mixed op stream per size, shared by every (kind,
/// threads) cell so all cells replay identical queries.
const std::vector<Request>& MixedWorkload(const std::vector<Point>& data,
                                          size_t count) {
  static std::map<size_t, std::vector<Request>> cache;
  auto it = cache.find(count);
  if (it == cache.end()) {
    WorkloadMix mix;
    mix.k = kDefaultK;
    mix.window_area = kDefaultWindowArea;
    mix.window_aspect = kDefaultAspect;
    it = cache.emplace(count, BuildMixedWorkload(data, count, mix, kQuerySeed))
             .first;
  }
  return it->second;
}

void ThroughputBench(benchmark::State& state, IndexKind kind, int threads) {
  Context& ctx = Context::Get();
  const Scale& sc = GetScale();
  const size_t n = sc.default_n;
  SpatialIndex* index = ctx.Index(kind, Distribution::kUniform, n);
  const auto& data = ctx.Dataset(Distribution::kUniform, n);
  const auto& ops = MixedWorkload(data, std::min(sc.point_queries, n));

  BatchQueryEngine engine(threads);
  BatchQueryStats st;
  for (auto _ : state) {
    st = engine.Run(*index, ops);
  }
  state.counters["throughput_qps"] = st.throughput_qps;
  state.counters["p50_us"] = st.p50_us;
  state.counters["p99_us"] = st.p99_us;
  state.counters["threads"] = threads;
  state.counters["queries"] = static_cast<double>(st.queries);
  state.counters["total_results"] = static_cast<double>(st.total_results);
  state.counters["blocks_per_query"] =
      st.queries == 0 ? 0.0
                      : static_cast<double>(st.cost.block_accesses) /
                            static_cast<double>(st.queries);
}

}  // namespace
}  // namespace bench
}  // namespace rsmi

int main(int argc, char** argv) {
  using namespace rsmi;
  using namespace rsmi::bench;
  const size_t n = GetScale().default_n;
  for (IndexKind k : kKinds) {
    for (int threads : kThreadSweep) {
      RegisterNamed(
          BenchName("Throughput", "Mixed/n" + std::to_string(n),
                    IndexKindName(k), "t" + std::to_string(threads)),
          [k, threads](benchmark::State& s) {
            ThroughputBench(s, k, threads);
          })
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond)
          ->MeasureProcessCPUTime()
          ->UseRealTime();
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
