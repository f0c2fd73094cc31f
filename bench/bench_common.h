#ifndef RSMI_BENCH_BENCH_COMMON_H_
#define RSMI_BENCH_BENCH_COMMON_H_

#include <map>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/factory.h"
#include "common/env.h"
#include "common/timer.h"
#include "core/rsmi_index.h"
#include "data/generators.h"
#include "data/ground_truth.h"
#include "data/workloads.h"

namespace rsmi {
namespace bench {

/// Laptop-scale stand-ins for the paper's 1M-128M sweeps (DESIGN.md
/// substitution #2). Override with RSMI_BENCH_SCALE=small|medium|large,
/// RSMI_BENCH_N=<points> and RSMI_BENCH_QUERIES=<count>.
struct Scale {
  size_t default_n;
  std::vector<size_t> sweep_n;
  size_t queries;
  size_t point_queries;
};

inline const Scale& GetScale() {
  static const Scale scale = [] {
    Scale s;
    const std::string name = GetEnvString("RSMI_BENCH_SCALE", "small");
    if (name == "large") {
      s.default_n = 400000;
      s.sweep_n = {50000, 100000, 200000, 400000, 800000};
      s.queries = 500;
      s.point_queries = 20000;
    } else if (name == "medium") {
      s.default_n = 200000;
      s.sweep_n = {25000, 50000, 100000, 200000, 400000};
      s.queries = 300;
      s.point_queries = 10000;
    } else {
      s.default_n = 100000;
      s.sweep_n = {20000, 40000, 80000, 160000, 320000};
      s.queries = 200;
      s.point_queries = 5000;
    }
    const int64_t n = GetEnvInt64("RSMI_BENCH_N", 0);
    if (n > 0) {
      // An explicit point count also rescales the sweep (capped at n) so
      // that smoke runs (tiny RSMI_BENCH_N) keep the scale benches tiny.
      s.default_n = static_cast<size_t>(n);
      s.sweep_n.clear();
      if (s.default_n / 2 > 0) s.sweep_n.push_back(s.default_n / 2);
      s.sweep_n.push_back(s.default_n);
    }
    const int64_t q = GetEnvInt64("RSMI_BENCH_QUERIES", 0);
    if (q > 0) s.queries = static_cast<size_t>(q);
    return s;
  }();
  return scale;
}

/// Paper-default build parameters (B=100, N=10000, Section 6.1). RSMI
/// builds use RSMI_BENCH_BUILD_THREADS workers (default 8) — the result
/// is bit-identical to a sequential build (parallel_build_test), only
/// faster; bench_ablation_build_threads records the thread scaling curve
/// including the sequential build time.
inline IndexBuildConfig BuildConfig() {
  IndexBuildConfig cfg;
  cfg.block_capacity = 100;
  cfg.partition_threshold = 10000;
  cfg.build_threads =
      static_cast<int>(GetEnvInt64("RSMI_BENCH_BUILD_THREADS", 8));
  return cfg;
}

/// The five distributions in paper order (Tiger/OSM are the synthetic
/// stand-ins, DESIGN.md substitution #1).
inline const std::vector<Distribution>& BenchDistributions() {
  return AllDistributions();
}

/// Default sweep values (Table 2, defaults in bold): window size 0.01% of
/// the space, aspect ratio 1, k = 25, Skewed distribution for size sweeps.
constexpr double kDefaultWindowArea = 0.0001;
constexpr double kDefaultAspect = 1.0;
constexpr size_t kDefaultK = 25;
constexpr Distribution kSweepDistribution = Distribution::kSkewed;
constexpr uint64_t kDataSeed = 42;
constexpr uint64_t kQuerySeed = 4242;

/// Process-wide caches so each binary builds every (kind, dist, n) index
/// at most once across all registered benchmarks.
class Context {
 public:
  static Context& Get() {
    static Context ctx;
    return ctx;
  }

  const std::vector<Point>& Dataset(Distribution d, size_t n) {
    auto key = std::make_pair(d, n);
    auto it = datasets_.find(key);
    if (it == datasets_.end()) {
      it = datasets_.emplace(key, GenerateDataset(d, n, kDataSeed)).first;
    }
    return it->second;
  }

  /// Cached index; `build_seconds` (optional) receives the build time
  /// recorded when the index was first constructed.
  SpatialIndex* Index(IndexKind kind, Distribution d, size_t n,
                      double* build_seconds = nullptr) {
    auto key = std::make_tuple(kind, d, n);
    auto it = indices_.find(key);
    if (it == indices_.end()) {
      const auto& data = Dataset(d, n);
      Entry e;
      if (kind == IndexKind::kRsmi || kind == IndexKind::kRsmia) {
        // RSMI and RSMIa share one build, like in the paper.
        auto shared_key = std::make_pair(d, n);
        auto sit = rsmi_shared_.find(shared_key);
        if (sit == rsmi_shared_.end()) {
          RsmiConfig rc;
          const IndexBuildConfig bc = BuildConfig();
          rc.block_capacity = bc.block_capacity;
          rc.partition_threshold = bc.partition_threshold;
          rc.train = bc.train;
          rc.internal_sample_cap = bc.internal_sample_cap;
          rc.build_threads = bc.build_threads;
          WallTimer t;
          auto impl = std::make_shared<RsmiIndex>(data, rc);
          sit = rsmi_shared_
                    .emplace(shared_key,
                             SharedRsmi{impl, t.ElapsedSeconds()})
                    .first;
        }
        e.build_seconds = sit->second.build_seconds;
        e.index = kind == IndexKind::kRsmia ? MakeRsmiaView(sit->second.impl)
                                            : MakeRsmiView(sit->second.impl);
      } else {
        WallTimer t;
        e.index = MakeIndex(kind, data, BuildConfig());
        e.build_seconds = t.ElapsedSeconds();
      }
      it = indices_.emplace(key, std::move(e)).first;
    }
    if (build_seconds != nullptr) *build_seconds = it->second.build_seconds;
    return it->second.index.get();
  }

  /// The shared RsmiIndex behind Index(kRsmi/kRsmia, d, n).
  RsmiIndex* Rsmi(Distribution d, size_t n) {
    Index(IndexKind::kRsmi, d, n);
    return rsmi_shared_.at(std::make_pair(d, n)).impl.get();
  }

 private:
  struct Entry {
    std::unique_ptr<SpatialIndex> index;
    double build_seconds = 0.0;
  };
  struct SharedRsmi {
    std::shared_ptr<RsmiIndex> impl;
    double build_seconds = 0.0;
  };

  std::map<std::pair<Distribution, size_t>, std::vector<Point>> datasets_;
  std::map<std::tuple<IndexKind, Distribution, size_t>, Entry> indices_;
  std::map<std::pair<Distribution, size_t>, SharedRsmi> rsmi_shared_;
};

/// Per-workload metrics, paper units: µs for point queries, ms for window
/// and kNN queries, block accesses and recall per query.
struct QueryMetrics {
  double time_us_per_query = 0.0;
  double blocks_per_query = 0.0;
  double recall = 1.0;
  double results_per_query = 0.0;
};

inline QueryMetrics RunPointQueries(SpatialIndex* index,
                                    const std::vector<Point>& queries) {
  QueryMetrics m;
  QueryContext ctx;
  size_t found = 0;
  WallTimer t;
  for (const auto& q : queries) {
    if (index->PointQuery(q, ctx).has_value()) ++found;
  }
  m.time_us_per_query = t.ElapsedMicros() / queries.size();
  m.blocks_per_query =
      static_cast<double>(ctx.block_accesses) / queries.size();
  m.recall = static_cast<double>(found) / queries.size();
  return m;
}

inline QueryMetrics RunWindowQueries(SpatialIndex* index,
                                     const std::vector<Rect>& windows,
                                     const std::vector<Point>* truth_data) {
  QueryMetrics m;
  QueryContext ctx;
  std::vector<size_t> result_sizes(windows.size());
  WallTimer t;
  for (size_t i = 0; i < windows.size(); ++i) {
    result_sizes[i] = index->WindowQuery(windows[i], ctx).size();
  }
  m.time_us_per_query = t.ElapsedMicros() / windows.size();
  m.blocks_per_query =
      static_cast<double>(ctx.block_accesses) / windows.size();
  if (truth_data != nullptr) {
    // Learned-index answers have no false positives, so recall reduces to
    // |result| / |truth| (Section 6.2.3); exact indices score 1.
    double recall_sum = 0.0;
    for (size_t i = 0; i < windows.size(); ++i) {
      const size_t truth = BruteForceWindow(*truth_data, windows[i]).size();
      recall_sum += truth == 0
                        ? 1.0
                        : std::min(1.0, static_cast<double>(result_sizes[i]) /
                                            truth);
      m.results_per_query += result_sizes[i];
    }
    m.recall = recall_sum / windows.size();
    m.results_per_query /= windows.size();
  }
  return m;
}

inline QueryMetrics RunKnnQueries(SpatialIndex* index,
                                  const std::vector<Point>& queries, size_t k,
                                  const std::vector<Point>* truth_data) {
  QueryMetrics m;
  QueryContext ctx;
  std::vector<std::vector<Point>> results(queries.size());
  WallTimer t;
  for (size_t i = 0; i < queries.size(); ++i) {
    results[i] = index->KnnQuery(queries[i], k, ctx);
  }
  m.time_us_per_query = t.ElapsedMicros() / queries.size();
  m.blocks_per_query =
      static_cast<double>(ctx.block_accesses) / queries.size();
  if (truth_data != nullptr) {
    double recall_sum = 0.0;
    for (size_t i = 0; i < queries.size(); ++i) {
      const auto truth = BruteForceKnn(*truth_data, queries[i], k);
      recall_sum += RecallOf(results[i], truth);
    }
    m.recall = recall_sum / queries.size();
  }
  return m;
}

/// Benchmark-name helper: "Fig06/PointQuery/Skewed/RSMI".
inline std::string BenchName(const std::string& fig, const std::string& what,
                             const std::string& a, const std::string& b) {
  return fig + "/" + what + "/" + a + "/" + b;
}

/// RegisterBenchmark shim: the packaged google-benchmark only accepts
/// `const char*` names (it copies the string internally).
template <typename Lambda>
inline ::benchmark::internal::Benchmark* RegisterNamed(
    const std::string& name, Lambda&& fn) {
  return ::benchmark::RegisterBenchmark(name.c_str(),
                                        std::forward<Lambda>(fn));
}

}  // namespace bench
}  // namespace rsmi

#endif  // RSMI_BENCH_BENCH_COMMON_H_
