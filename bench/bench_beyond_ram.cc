// Beyond-RAM ablation (src/xmem/), two families of cells:
//
//  - BeyondRam/Cold*: query latency through the mmap-backed lazy
//    container against a dataset whose on-disk footprint is 4x the RSS
//    budget, cold (every iteration starts with the payload evicted) so
//    the cost of refaulting is what's measured, with the model-predicted
//    prefetcher on vs off.
//  - BeyondRam/BudgetWindow/*: the external-memory regime the paper's
//    "# block accesses" metric is a proxy for (Section 3 storage model):
//    window queries at steady state under an RSS budget of 1/5/25/100%
//    of the container, reporting logical faults per query, evictions,
//    blocks per query and time per query.
//
// Gated only on parity: each cell first checks the mmap path answers
// bit-identically to the eagerly loaded twin and skips with an error
// otherwise; the latency numbers themselves are recorded (NOT gated) via
// check_bench_regression.py --xmem, because cold-fault timings on shared
// CI runners are dominated by the page cache and the filesystem.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "io/index_container.h"
#include "io/mapped_file.h"
#include "xmem/external_index.h"
#include "xmem/mapped_container.h"

namespace rsmi {
namespace bench {
namespace {

std::string TempIndexPath() {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/bench_xmem.idx";
}

/// One saved container + one eager twin shared across all cells.
struct Fixture {
  std::string path;
  size_t file_bytes = 0;
  std::unique_ptr<SpatialIndex> eager;
  std::vector<Point> probes;
  std::vector<Rect> windows;
};

Fixture& GetFixture() {
  static Fixture fx = [] {
    Fixture f;
    const size_t n = GetScale().default_n;
    const auto& data = Context::Get().Dataset(Distribution::kUniform, n);
    auto built = MakeIndexFromSpec("rsmi", data, BuildConfig());
    f.path = TempIndexPath();
    std::string err;
    if (!SaveIndex(*built, f.path, &err)) {
      std::fprintf(stderr, "bench_beyond_ram: SaveIndex failed: %s\n",
                   err.c_str());
      std::exit(1);
    }
    IndexContainerInfo info;
    if (ReadIndexContainerInfo(f.path, &info, &err)) {
      f.file_bytes = info.file_bytes;
    }
    f.eager = LoadIndex(f.path, &err);
    if (f.eager == nullptr) {
      std::fprintf(stderr, "bench_beyond_ram: LoadIndex failed: %s\n",
                   err.c_str());
      std::exit(1);
    }
    for (size_t i = 0; i < data.size(); i += 7) f.probes.push_back(data[i]);
    f.windows = GenerateWindowQueries(data, 50, 0.0001, 1.0, 11);
    return f;
  }();
  return fx;
}

xmem::XmemOptions BenchOptions(bool prefetch) {
  xmem::XmemOptions opts;
  opts.apply_env_overrides = false;
  opts.governor_interval_ms = 0;  // enforcement timing stays out of cells
  opts.write_behind = false;
  opts.prefetch = prefetch;
  return opts;
}

std::unique_ptr<xmem::ExternalIndex> OpenMapped(bool prefetch,
                                                std::string* err) {
  Fixture& fx = GetFixture();
  xmem::XmemOptions opts = BenchOptions(prefetch);
  // The acceptance shape: the dataset does not fit — budget is a quarter
  // of the on-disk footprint (at least one chunk so the clock can turn).
  opts.rss_budget_bytes =
      std::max<size_t>(fx.file_bytes / 4, opts.chunk_bytes);
  return xmem::ExternalIndex::Open(fx.path, opts, err);
}

/// The parity gate: the lazy path must answer exactly like the eager
/// twin before any latency is worth recording.
bool ParityHolds(SpatialIndex* mapped, std::string* why) {
  Fixture& fx = GetFixture();
  std::vector<QueryContext> ectxs(fx.probes.size());
  std::vector<QueryContext> mctxs(fx.probes.size());
  std::vector<std::optional<PointEntry>> ehits(fx.probes.size());
  std::vector<std::optional<PointEntry>> mhits(fx.probes.size());
  fx.eager->PointQueryBatch(fx.probes.data(), fx.probes.size(), ectxs.data(),
                            ehits.data());
  mapped->PointQueryBatch(fx.probes.data(), fx.probes.size(), mctxs.data(),
                          mhits.data());
  QueryContext ec;
  QueryContext mc;
  for (size_t i = 0; i < fx.probes.size(); ++i) {
    ec.MergeFrom(ectxs[i]);
    mc.MergeFrom(mctxs[i]);
    const bool same = ehits[i].has_value() == mhits[i].has_value() &&
                      (!ehits[i].has_value() ||
                       (ehits[i]->id == mhits[i]->id &&
                        ehits[i]->pt.x == mhits[i]->pt.x &&
                        ehits[i]->pt.y == mhits[i]->pt.y));
    if (!same) {
      *why = "point parity violation at probe " + std::to_string(i);
      return false;
    }
  }
  for (const Rect& w : fx.windows) {
    const auto ew = fx.eager->WindowQuery(w, ec);
    const auto mw = mapped->WindowQuery(w, mc);
    if (ew.size() != mw.size()) {
      *why = "window parity violation";
      return false;
    }
    for (size_t j = 0; j < ew.size(); ++j) {
      if (ew[j].x != mw[j].x || ew[j].y != mw[j].y) {
        *why = "window parity violation";
        return false;
      }
    }
  }
  if (ec.block_accesses != mc.block_accesses ||
      ec.model_invocations != mc.model_invocations) {
    *why = "counter parity violation";
    return false;
  }
  return true;
}

/// Drops the whole payload from RSS so the next iteration faults cold.
void EvictAll(xmem::ExternalIndex* ext) {
  const MappedFile& map = ext->container().map();
  map.Evict(0, map.size());
}

void ColdPointBench(benchmark::State& state, bool prefetch) {
  Fixture& fx = GetFixture();
  std::string err;
  auto ext = OpenMapped(prefetch, &err);
  if (ext == nullptr) {
    state.SkipWithError(("open failed: " + err).c_str());
    return;
  }
  if (!ParityHolds(ext.get(), &err)) {
    state.SkipWithError(err.c_str());
    return;
  }
  std::vector<std::optional<PointEntry>> hits(fx.probes.size());
  std::vector<QueryContext> ctxs(fx.probes.size());
  for (auto _ : state) {
    state.PauseTiming();
    ext->DrainPrefetch();
    EvictAll(ext.get());
    state.ResumeTiming();
    ext->PointQueryBatch(fx.probes.data(), fx.probes.size(), ctxs.data(),
                         hits.data());
    benchmark::DoNotOptimize(hits.data());
  }
  ext->DrainPrefetch();
  state.counters["file_mb"] = fx.file_bytes / 1048576.0;
  state.counters["budget_mb"] =
      ext->governor().budget_bytes() / 1048576.0;
  state.counters["queries"] = static_cast<double>(fx.probes.size());
  state.counters["faults"] =
      static_cast<double>(ext->governor().first_touches());
  state.counters["prefetch_hits"] =
      static_cast<double>(ext->governor().prefetch_hits());
}

void ColdWindowBench(benchmark::State& state, bool prefetch) {
  Fixture& fx = GetFixture();
  std::string err;
  auto ext = OpenMapped(prefetch, &err);
  if (ext == nullptr) {
    state.SkipWithError(("open failed: " + err).c_str());
    return;
  }
  if (!ParityHolds(ext.get(), &err)) {
    state.SkipWithError(err.c_str());
    return;
  }
  for (auto _ : state) {
    state.PauseTiming();
    ext->DrainPrefetch();
    EvictAll(ext.get());
    state.ResumeTiming();
    QueryContext ctx;
    size_t total = 0;
    for (const Rect& w : fx.windows) total += ext->WindowQuery(w, ctx).size();
    benchmark::DoNotOptimize(total);
  }
  state.counters["file_mb"] = fx.file_bytes / 1048576.0;
  state.counters["queries"] = static_cast<double>(fx.windows.size());
}

/// Steady-state window queries under an RSS budget of `budget_fraction`
/// of the container. The budget is enforced after every query, so each
/// query starts within it; page-sized chunks make the budget page-
/// granular. The parity pass doubles as the warm-up, so the counters
/// (deltas over the timed iterations) describe steady state, not the
/// cold start.
void BudgetWindowBench(benchmark::State& state, double budget_fraction) {
  Fixture& fx = GetFixture();
  xmem::XmemOptions opts = BenchOptions(/*prefetch=*/false);
  opts.chunk_bytes = MappedFile::PageSize();
  opts.rss_budget_bytes = std::max<size_t>(
      static_cast<size_t>(budget_fraction * fx.file_bytes), opts.chunk_bytes);
  std::string err;
  auto ext = xmem::ExternalIndex::Open(fx.path, opts, &err);
  if (ext == nullptr) {
    state.SkipWithError(("open failed: " + err).c_str());
    return;
  }
  if (!ParityHolds(ext.get(), &err)) {
    state.SkipWithError(err.c_str());
    return;
  }
  ext->EnforceBudget();
  const xmem::ResidencyGovernor& gov = ext->governor();
  const uint64_t faults0 = gov.first_touches();
  const uint64_t evictions0 = gov.evictions();
  QueryContext ctx;
  uint64_t queries = 0;
  double us = 0.0;
  for (auto _ : state) {
    WallTimer t;
    size_t total = 0;
    for (const Rect& w : fx.windows) {
      total += ext->WindowQuery(w, ctx).size();
      ext->EnforceBudget();
    }
    us += t.ElapsedMicros();
    queries += fx.windows.size();
    benchmark::DoNotOptimize(total);
  }
  const double nq = static_cast<double>(std::max<uint64_t>(queries, 1));
  state.counters["file_mb"] = fx.file_bytes / 1048576.0;
  state.counters["budget_mb"] = gov.budget_bytes() / 1048576.0;
  state.counters["faults_per_query"] =
      static_cast<double>(gov.first_touches() - faults0) / nq;
  state.counters["evictions"] =
      static_cast<double>(gov.evictions() - evictions0);
  state.counters["blocks_per_query"] =
      static_cast<double>(ctx.block_accesses) / nq;
  state.counters["ms_per_query"] = us / 1000.0 / nq;
}

}  // namespace
}  // namespace bench
}  // namespace rsmi

int main(int argc, char** argv) {
  using namespace rsmi::bench;
  for (const bool prefetch : {true, false}) {
    const std::string tag = prefetch ? "PrefetchOn" : "PrefetchOff";
    RegisterNamed("BeyondRam/ColdPoint/" + tag,
                  [prefetch](benchmark::State& s) {
                    ColdPointBench(s, prefetch);
                  })
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
    RegisterNamed("BeyondRam/ColdWindow/" + tag,
                  [prefetch](benchmark::State& s) {
                    ColdWindowBench(s, prefetch);
                  })
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }
  for (const int pct : {1, 5, 25, 100}) {
    RegisterNamed("BeyondRam/BudgetWindow/budget" + std::to_string(pct) +
                      "pct",
                  [pct](benchmark::State& s) {
                    BudgetWindowBench(s, pct / 100.0);
                  })
        ->Unit(benchmark::kMillisecond)
        ->UseRealTime();
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::remove(rsmi::bench::GetFixture().path.c_str());
  return 0;
}
