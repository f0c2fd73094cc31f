// Observability overhead bench. Two interleaved A/B cells (both sides of
// each comparison run in the same process and iteration, so machine
// drift cancels):
//
//  - Obs/PointReplay times a point-query replay through BatchQueryEngine
//    with the global metrics registry disabled vs enabled and reports
//    `overhead_pct`, the untraced instrumentation cost. This is the
//    gated number: tools/check_bench_regression.py --obs fails hard when
//    it exceeds 5% (the observability contract's perf half — counters on
//    the hot path must stay invisible).
//  - Obs/ServerTraced drives point lookups through an in-process
//    SpatialServer over loopback, untraced vs traced, and reports
//    `traced_overhead_pct` (recorded for trend-watching, never gated:
//    tracing is opt-in per request, so its cost is a documented price,
//    not a regression). Each Call times a real loopback round trip
//    (about 40 us untraced on a 4-vCPU x86 host). Before replies went
//    out as one write under TCP_NODELAY, every Call waited about 43 ms
//    for the client's delayed ACK instead, which hid the tracing cost:
//    `traced_overhead_pct` read about 1%.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench_common.h"
#include "common/timer.h"
#include "exec/batch_query_engine.h"
#include "exec/request.h"
#include "io/index_container.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/spatial_server.h"

namespace rsmi {
namespace bench {
namespace {

/// Fixed replay size, independent of RSMI_BENCH_QUERIES: overhead_pct is
/// a ratio of two wall times, and at smoke-scale query counts the
/// numerator would be all scheduler noise.
constexpr size_t kReplayQueries = 4000;
constexpr int kServerCallsPerMode = 128;

std::vector<Request> PointWorkload(const std::vector<Point>& data,
                                   size_t count) {
  WorkloadMix mix;
  mix.point_frac = 1.0;
  mix.window_frac = 0.0;
  return BuildMixedWorkload(data, count, mix, /*seed=*/17);
}

void PointReplayBench(benchmark::State& state) {
  const auto data =
      GenerateDataset(Distribution::kSkewed, GetScale().default_n, 42);
  auto index = MakeIndexFromSpec("grid", data, BuildConfig());
  if (index == nullptr) {
    state.SkipWithError("index build failed");
    return;
  }
  const auto reqs = PointWorkload(data, kReplayQueries);
  BatchQueryEngine engine(2);
  MetricsRegistry& global = MetricsRegistry::Global();
  double sec_off = 0.0;
  double sec_on = 0.0;
  WallTimer t;
  for (auto _ : state) {
    global.set_enabled(false);
    t.Reset();
    const BatchQueryStats off = engine.Run(*index, reqs);
    sec_off += t.ElapsedSeconds();
    global.set_enabled(true);
    t.Reset();
    const BatchQueryStats on = engine.Run(*index, reqs);
    sec_on += t.ElapsedSeconds();
    benchmark::DoNotOptimize(off.total_results + on.total_results);
  }
  global.set_enabled(true);
  const double denom = static_cast<double>(state.iterations()) *
                       static_cast<double>(reqs.size());
  state.counters["us_per_query_disabled"] = 1e6 * sec_off / denom;
  state.counters["us_per_query_enabled"] = 1e6 * sec_on / denom;
  state.counters["overhead_pct"] =
      sec_off > 0.0 ? 100.0 * (sec_on - sec_off) / sec_off : 0.0;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * reqs.size()));
}

void ServerTracedBench(benchmark::State& state) {
  const auto data =
      GenerateDataset(Distribution::kSkewed, GetScale().default_n, 43);
  auto index = MakeIndexFromSpec("grid", data, BuildConfig());
  if (index == nullptr) {
    state.SkipWithError("index build failed");
    return;
  }
  const std::string path = "/tmp/rsmi_bench_obs.idx";
  std::string err;
  if (!SaveIndex(*index, path, &err)) {
    state.SkipWithError("save failed");
    return;
  }
  ServerOptions opts;
  opts.index_path = path;
  opts.threads = 2;
  auto server = SpatialServer::Start(opts, &err);
  if (server == nullptr) {
    state.SkipWithError("server start failed");
    return;
  }
  auto client = ServerClient::Connect("127.0.0.1", server->port(), &err);
  if (client == nullptr) {
    state.SkipWithError("connect failed");
    server->Stop();
    return;
  }
  double sec_plain = 0.0;
  double sec_traced = 0.0;
  WallTimer t;
  uint64_t id = 0;
  bool io_error = false;
  for (auto _ : state) {
    t.Reset();
    for (int i = 0; i < kServerCallsPerMode && !io_error; ++i) {
      Response resp;
      io_error = !client->Call(
          Request::PointLookup(data[id % data.size()], id), &resp);
      ++id;
    }
    sec_plain += t.ElapsedSeconds();
    t.Reset();
    for (int i = 0; i < kServerCallsPerMode && !io_error; ++i) {
      Request req = Request::PointLookup(data[id % data.size()], id);
      req.trace = true;
      Response resp;
      io_error = !client->Call(req, &resp);
      ++id;
    }
    sec_traced += t.ElapsedSeconds();
  }
  client.reset();
  server->Stop();
  std::remove(path.c_str());
  if (io_error) {
    state.SkipWithError("server call failed");
    return;
  }
  const double denom = static_cast<double>(state.iterations()) *
                       static_cast<double>(kServerCallsPerMode);
  state.counters["us_per_query_untraced"] = 1e6 * sec_plain / denom;
  state.counters["us_per_query_traced"] = 1e6 * sec_traced / denom;
  state.counters["traced_overhead_pct"] =
      sec_plain > 0.0 ? 100.0 * (sec_traced - sec_plain) / sec_plain : 0.0;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(2 * kServerCallsPerMode));
}

}  // namespace
}  // namespace bench
}  // namespace rsmi

int main(int argc, char** argv) {
  using namespace rsmi::bench;
  benchmark::RegisterBenchmark("Obs/PointReplay", PointReplayBench);
  benchmark::RegisterBenchmark("Obs/ServerTraced", ServerTracedBench);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
