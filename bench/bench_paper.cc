// The paper's evaluation (Section 6: Figs. 6-19, Tables 3-4) and the
// design ablations, in one benchmark binary. Every figure is one row of
// Figures(): its cell-name prefix, the swept axis and its values, the
// index kinds (or RSMI config variants) it compares, the cell function
// that measures one (setting, kind) pair, and the time unit. A cell is
// named <prefix>/<setting>/<kind>; update-stream cells are named
// <prefix>/<kind>/pct<p>. Run one figure with
// --benchmark_filter='^Fig08/'.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "baselines/zm_index.h"
#include "bench_common.h"
#include "common/rng.h"
#include "data/ground_truth.h"
#include "rank/rank_space.h"

namespace rsmi {
namespace bench {
namespace {

/// Everything a cell varies. The defaults are the paper's (Table 2 in
/// bold): Skewed data of the default size, 0.01% windows of aspect 1,
/// k = 25, and the RSMI that MakeIndex builds.
struct Params {
  Distribution dist = kSweepDistribution;
  size_t n = GetScale().default_n;
  double area = kDefaultWindowArea;
  double aspect = kDefaultAspect;
  size_t k = kDefaultK;
  IndexKind kind = IndexKind::kRsmi;
  RsmiConfig rsmi = RsmiConfigFor(BuildConfig());
  /// Update streams (Section 6.2.5): the share of n inserted (or, with
  /// `deletes`, deleted) before the cell queries; 0 for static data.
  int pct = 0;
  bool deletes = false;
  bool rebuild = false;  ///< RSMIr: rebuild overflowing subtrees per batch
  std::string stream;    ///< the stream's key: figure prefix + kind
};

/// One value of an axis, or one kind: a cell-name part and its effect.
struct Setting {
  std::string label;
  std::function<void(Params&)> apply;
};

using CellFn = void (*)(benchmark::State&, const Params&);

struct Figure {
  std::string prefix;
  std::vector<Setting> axis;
  std::vector<Setting> kinds;
  CellFn cell;
  benchmark::TimeUnit unit;
};

// ---------------------------------------------------------------------
// One measuring function per query kind. Paper units: µs for point
// queries, ms for window and kNN queries; block accesses and recall per
// query. Learned-index answers have no false positives, so window recall
// reduces to |result| / |truth| (Section 6.2.3); exact indices score 1.

struct QueryMetrics {
  double time_us_per_query = 0.0;
  double blocks_per_query = 0.0;
  double recall = 1.0;
  double results_per_query = 0.0;
};

/// "We use all data points in each data set as the query points"
/// (Section 6.2.2) — sampled at laptop scale.
std::vector<Point> PointQueries(const std::vector<Point>& data,
                                uint64_t seed) {
  return GenerateQueryPoints(
      data, std::min(GetScale().point_queries, data.size()), seed);
}

std::vector<Rect> WindowQueries(const std::vector<Point>& data,
                                const Params& p, uint64_t seed) {
  return GenerateWindowQueries(data, GetScale().queries, p.area, p.aspect,
                               seed);
}

std::vector<Point> KnnQueries(const std::vector<Point>& data, uint64_t seed) {
  return GenerateQueryPoints(data, GetScale().queries, seed,
                             /*perturb=*/1e-4);
}

QueryMetrics RunPointQueries(const SpatialIndex& index,
                             const std::vector<Point>& queries) {
  QueryMetrics m;
  QueryContext ctx;
  size_t found = 0;
  WallTimer t;
  for (const auto& q : queries) {
    if (index.PointQuery(q, ctx).has_value()) ++found;
  }
  m.time_us_per_query = t.ElapsedMicros() / queries.size();
  m.blocks_per_query =
      static_cast<double>(ctx.block_accesses) / queries.size();
  m.recall = static_cast<double>(found) / queries.size();
  return m;
}

QueryMetrics RunWindowQueries(const SpatialIndex& index,
                              const std::vector<Rect>& windows,
                              const std::vector<Point>& truth_data) {
  QueryMetrics m;
  QueryContext ctx;
  std::vector<size_t> result_sizes(windows.size());
  WallTimer t;
  for (size_t i = 0; i < windows.size(); ++i) {
    result_sizes[i] = index.WindowQuery(windows[i], ctx).size();
  }
  m.time_us_per_query = t.ElapsedMicros() / windows.size();
  m.blocks_per_query =
      static_cast<double>(ctx.block_accesses) / windows.size();
  double recall_sum = 0.0;
  for (size_t i = 0; i < windows.size(); ++i) {
    const size_t truth = BruteForceWindow(truth_data, windows[i]).size();
    recall_sum +=
        truth == 0
            ? 1.0
            : std::min(1.0, static_cast<double>(result_sizes[i]) / truth);
    m.results_per_query += result_sizes[i];
  }
  m.recall = recall_sum / windows.size();
  m.results_per_query /= windows.size();
  return m;
}

QueryMetrics RunKnnQueries(const SpatialIndex& index,
                           const std::vector<Point>& queries, size_t k,
                           const std::vector<Point>& truth_data) {
  QueryMetrics m;
  QueryContext ctx;
  std::vector<std::vector<Point>> results(queries.size());
  WallTimer t;
  for (size_t i = 0; i < queries.size(); ++i) {
    results[i] = index.KnnQuery(queries[i], k, ctx);
  }
  m.time_us_per_query = t.ElapsedMicros() / queries.size();
  m.blocks_per_query =
      static_cast<double>(ctx.block_accesses) / queries.size();
  double recall_sum = 0.0;
  for (size_t i = 0; i < queries.size(); ++i) {
    recall_sum +=
        RecallOf(results[i], BruteForceKnn(truth_data, queries[i], k));
  }
  m.recall = recall_sum / queries.size();
  return m;
}

// ---------------------------------------------------------------------
// The update experiments (Section 6.2.5) start from the default data set
// and write 10%..50% n points in batches: new points drawn from the same
// distribution, or (deletion ablation) stored points in random order.
// Each figure keeps one stream per kind, and its cells run in ascending
// pct, so every cell applies exactly one further batch. Keying by figure
// keeps one figure's writes out of another's queries.

struct Stream {
  std::unique_ptr<SpatialIndex> index;
  bool deletes = false;
  bool rebuild = false;
  std::vector<Point> live;  ///< ground truth of the live points
  std::vector<Point> ops;   ///< inserts: n/2 new points; deletes: the data
  size_t next = 0;          ///< ops applied so far
  double us_per_op = 0.0;   ///< amortized cost of the newest batch
};

std::unique_ptr<SpatialIndex> BuildIndex(const Params& p,
                                         const std::vector<Point>& data) {
  if (p.kind != IndexKind::kRsmi && p.kind != IndexKind::kRsmia) {
    return MakeIndex(p.kind, data, BuildConfig());
  }
  auto impl = std::make_shared<RsmiIndex>(data, p.rsmi);
  return p.kind == IndexKind::kRsmia ? MakeRsmiaView(std::move(impl))
                                     : MakeRsmiView(std::move(impl));
}

Stream& GetStream(const Params& p) {
  static std::map<std::string, Stream> streams;
  auto it = streams.find(p.stream);
  if (it != streams.end()) return it->second;
  Stream st;
  st.deletes = p.deletes;
  st.rebuild = p.rebuild;
  const auto data = GenerateDataset(p.dist, p.n, kDataSeed);
  if (p.deletes) {
    st.ops = data;
    Rng rng(kQuerySeed);
    std::shuffle(st.ops.begin(), st.ops.end(), rng.gen());
    st.live = st.ops;
  } else {
    // Same distribution, disjoint seed (inserts follow the data).
    st.ops = GenerateDataset(p.dist, p.n / 2, kDataSeed + 77);
    st.live = data;
  }
  st.index = BuildIndex(p, data);
  return streams.emplace(p.stream, std::move(st)).first->second;
}

/// Applies ops until `pct` of n has been written; times the newest batch
/// per op (including the RSMIr rebuild).
void Advance(Stream* st, int pct) {
  const size_t target =
      st->ops.size() * static_cast<size_t>(pct) / (st->deletes ? 100 : 50);
  if (st->next >= target) return;
  const size_t first = st->next;
  WallTimer t;
  for (; st->next < target; ++st->next) {
    if (st->deletes) {
      st->index->Delete(st->ops[st->next]);
    } else {
      st->index->Insert(st->ops[st->next]);
    }
  }
  if (st->rebuild) UnwrapRsmi(st->index.get())->RebuildOverflowingSubtrees();
  st->us_per_op = t.ElapsedMicros() / (st->next - first);
  if (st->deletes) {
    const auto batch = static_cast<std::ptrdiff_t>(st->next - first);
    st->live.erase(st->live.begin(), st->live.begin() + batch);
  } else {
    st->live.insert(st->live.end(), st->ops.begin() + first,
                    st->ops.begin() + st->next);
  }
}

/// What a query cell runs against: a cached index over static data, or a
/// figure's stream after its batch for `pct`.
struct Subject {
  const SpatialIndex* index;
  const std::vector<Point>* data;
  uint64_t seed;
};

Subject Resolve(const Params& p) {
  if (p.pct > 0) {
    Stream& st = GetStream(p);
    Advance(&st, p.pct);
    return {st.index.get(), &st.live, kQuerySeed + p.pct};
  }
  Context& ctx = Context::Get();
  return {ctx.Index(p.kind, p.dist, p.n), &ctx.Dataset(p.dist, p.n),
          kQuerySeed};
}

// ---------------------------------------------------------------------
// Cells: one per op.

void PointCell(benchmark::State& state, const Params& p) {
  const Subject s = Resolve(p);
  const auto queries = PointQueries(*s.data, s.seed);
  QueryMetrics m;
  for (auto _ : state) {
    m = RunPointQueries(*s.index, queries);
  }
  state.counters["us_per_query"] = m.time_us_per_query;
  state.counters["blocks_per_query"] = m.blocks_per_query;
  state.counters["found"] = m.recall;
}

void WindowCell(benchmark::State& state, const Params& p) {
  const Subject s = Resolve(p);
  const auto windows = WindowQueries(*s.data, p, s.seed);
  QueryMetrics m;
  for (auto _ : state) {
    m = RunWindowQueries(*s.index, windows, *s.data);
  }
  state.counters["ms_per_query"] = m.time_us_per_query / 1000.0;
  state.counters["blocks_per_query"] = m.blocks_per_query;
  state.counters["recall"] = m.recall;
  state.counters["results_per_query"] = m.results_per_query;
}

void KnnCell(benchmark::State& state, const Params& p) {
  const Subject s = Resolve(p);
  const auto queries = KnnQueries(*s.data, s.seed);
  QueryMetrics m;
  for (auto _ : state) {
    m = RunKnnQueries(*s.index, queries, p.k, *s.data);
  }
  state.counters["ms_per_query"] = m.time_us_per_query / 1000.0;
  state.counters["blocks_per_query"] = m.blocks_per_query;
  state.counters["recall"] = m.recall;
}

void SizeBuildCell(benchmark::State& state, const Params& p) {
  double build_s = 0.0;
  const SpatialIndex* index =
      Context::Get().Index(p.kind, p.dist, p.n, &build_s);
  for (auto _ : state) {
    benchmark::DoNotOptimize(index->Stats().size_bytes);
  }
  const IndexStats s = index->Stats();
  state.counters["size_MB"] = static_cast<double>(s.size_bytes) / 1048576.0;
  state.counters["build_s"] = build_s;
  state.counters["height"] = s.height;
}

/// The batch that reaches `pct` is the timed region; then point queries
/// over the live points.
void UpdateCell(benchmark::State& state, const Params& p) {
  Stream& st = GetStream(p);
  for (auto _ : state) {
    Advance(&st, p.pct);
  }
  const QueryMetrics m =
      RunPointQueries(*st.index, PointQueries(st.live, kQuerySeed + p.pct));
  state.counters[p.deletes ? "delete_us" : "insert_us"] = st.us_per_op;
  state.counters["pq_us_per_query"] = m.time_us_per_query;
  state.counters["pq_blocks"] = m.blocks_per_query;
  state.counters["pq_found"] = m.recall;
}

/// Point and window queries after the insert batch, on an RSMI whose
/// config picks the update strategy.
void UpdateStrategyCell(benchmark::State& state, const Params& p) {
  Stream& st = GetStream(p);
  Advance(&st, p.pct);
  const auto points = PointQueries(st.live, kQuerySeed);
  const auto windows = WindowQueries(st.live, p, kQuerySeed);
  QueryMetrics pm;
  QueryMetrics wm;
  for (auto _ : state) {
    pm = RunPointQueries(*st.index, points);
    wm = RunWindowQueries(*st.index, windows, st.live);
  }
  state.counters["insert_us"] = st.us_per_op;
  state.counters["pq_us"] = pm.time_us_per_query;
  state.counters["pq_blocks"] = pm.blocks_per_query;
  state.counters["win_ms"] = wm.time_us_per_query / 1000.0;
  state.counters["win_recall"] = wm.recall;
  state.counters["num_blocks"] = static_cast<double>(
      UnwrapRsmi(st.index.get())->block_store().NumBlocks());
}

/// Builds an RsmiIndex from the cell's config variant (timed), then runs
/// point, window and kNN queries over it.
void RsmiVariantCell(benchmark::State& state, const Params& p) {
  const auto& data = Context::Get().Dataset(p.dist, p.n);
  WallTimer build_timer;
  const RsmiIndex index(data, p.rsmi);
  const double build_s = build_timer.ElapsedSeconds();
  const auto points = PointQueries(data, kQuerySeed);
  const auto windows = WindowQueries(data, p, kQuerySeed);
  const auto knn = KnnQueries(data, kQuerySeed);
  QueryMetrics pm;
  QueryMetrics wm;
  QueryMetrics km;
  for (auto _ : state) {
    pm = RunPointQueries(index, points);
    wm = RunWindowQueries(index, windows, data);
    km = RunKnnQueries(index, knn, p.k, data);
  }
  const IndexStats s = index.Stats();
  state.counters["build_s"] = build_s;
  state.counters["height"] = s.height;
  state.counters["size_MB"] = static_cast<double>(s.size_bytes) / 1048576.0;
  state.counters["err_l"] = index.MaxErrBelow();
  state.counters["err_a"] = index.MaxErrAbove();
  state.counters["hw_threads"] =
      static_cast<double>(std::thread::hardware_concurrency());
  state.counters["us_per_query"] = pm.time_us_per_query;
  state.counters["pq_us"] = pm.time_us_per_query;  // the ablations' name
  state.counters["blocks_per_query"] = pm.blocks_per_query;
  state.counters["win_ms"] = wm.time_us_per_query / 1000.0;
  state.counters["win_recall"] = wm.recall;
  state.counters["knn_ms"] = km.time_us_per_query / 1000.0;
  state.counters["knn_recall"] = km.recall;
}

void ErrorBoundsCell(benchmark::State& state, const Params& p) {
  Context& ctx = Context::Get();
  const IndexBuildConfig bc = BuildConfig();
  ZmConfig zc;
  zc.block_capacity = bc.block_capacity;
  zc.train = bc.train;
  zc.sample_cap = bc.internal_sample_cap;
  const ZmIndex zm(ctx.Dataset(p.dist, p.n), zc);
  const RsmiIndex* rsmi = UnwrapRsmi(ctx.Index(IndexKind::kRsmi, p.dist, p.n));
  for (auto _ : state) {
    benchmark::DoNotOptimize(zm.MaxErrBelow());
  }
  state.counters["zm_err_l"] = zm.MaxErrBelow();
  state.counters["zm_err_a"] = zm.MaxErrAbove();
  state.counters["rsmi_err_l"] = rsmi->MaxErrBelow();
  state.counters["rsmi_err_a"] = rsmi->MaxErrAbove();
}

struct GapStats {
  double cv2 = 0.0;      // Var(gap) / Mean(gap)^2
  double max_gap = 0.0;  // largest gap / mean gap
};

GapStats ComputeGapStats(std::vector<uint64_t> sorted) {
  GapStats out;
  if (sorted.size() < 2) return out;
  double mean = 0.0;
  std::vector<double> gaps;
  gaps.reserve(sorted.size() - 1);
  for (size_t i = 1; i < sorted.size(); ++i) {
    gaps.push_back(static_cast<double>(sorted[i] - sorted[i - 1]));
    mean += gaps.back();
  }
  mean /= gaps.size();
  double var = 0.0;
  double max_gap = 0.0;
  for (double g : gaps) {
    var += (g - mean) * (g - mean);
    max_gap = std::max(max_gap, g);
  }
  out.cv2 = var / gaps.size() / (mean * mean);
  out.max_gap = max_gap / mean;
  return out;
}

void RankSpaceCell(benchmark::State& state, const Params& p) {
  const auto& data = Context::Get().Dataset(p.dist, p.n);
  const CurveType curve = p.rsmi.curve;
  GapStats rank_stats;
  GapStats raw_stats;
  for (auto _ : state) {
    // Rank-space ordering (RSMI / HRR). The paper's rank space is exactly
    // n x n; a power-of-two SFC grid leaves up to 2x slack whose empty
    // rows/columns would create artificial curve-value deserts, so the
    // ranks are scaled onto the full grid for a faithful comparison.
    const auto rs = ComputeRankSpaceOrdering(data, curve);
    const uint64_t side = 1ull << rs.grid_order;
    const size_t n = data.size();
    std::vector<uint64_t> rank_cvs(n);
    for (size_t i = 0; i < n; ++i) {
      const auto sx = static_cast<uint32_t>(
          static_cast<uint64_t>(rs.rank_x[i]) * side / n);
      const auto sy = static_cast<uint32_t>(
          static_cast<uint64_t>(rs.rank_y[i]) * side / n);
      rank_cvs[i] = CurveEncode(curve, sx, sy, rs.grid_order);
    }
    std::sort(rank_cvs.begin(), rank_cvs.end());
    rank_stats = ComputeGapStats(std::move(rank_cvs));

    // Raw ordering on a fixed 2^16 grid (the ZM approach).
    const int order = 16;
    std::vector<uint64_t> raw(data.size());
    for (size_t i = 0; i < data.size(); ++i) {
      const auto gx =
          static_cast<uint32_t>(data[i].x * ((1u << order) - 1));
      const auto gy =
          static_cast<uint32_t>(data[i].y * ((1u << order) - 1));
      raw[i] = CurveEncode(curve, gx, gy, order);
    }
    std::sort(raw.begin(), raw.end());
    raw_stats = ComputeGapStats(std::move(raw));
  }
  state.counters["rank_gap_cv2"] = rank_stats.cv2;
  state.counters["raw_gap_cv2"] = raw_stats.cv2;
  state.counters["rank_maxgap"] = rank_stats.max_gap;
  state.counters["raw_maxgap"] = raw_stats.max_gap;
}

// ---------------------------------------------------------------------
// Axes and kinds.

std::vector<Setting> Distributions() {
  std::vector<Setting> out;
  for (Distribution d : AllDistributions()) {
    out.push_back({DistributionName(d), [d](Params& p) { p.dist = d; }});
  }
  return out;
}

/// Just the sweep distribution, for the ablations that vary only the kind.
std::vector<Setting> SweepDistribution() {
  return {{DistributionName(kSweepDistribution), [](Params&) {}}};
}

std::vector<Setting> Sizes() {
  std::vector<Setting> out;
  for (size_t n : GetScale().sweep_n) {
    out.push_back({"n" + std::to_string(n), [n](Params& p) { p.n = n; }});
  }
  return out;
}

/// Window sizes as fractions of the unit space, labelled with the
/// paper's percentages.
std::vector<Setting> WindowAreas(const std::vector<double>& areas) {
  std::vector<Setting> out;
  for (double area : areas) {
    char label[32];
    std::snprintf(label, sizeof(label), "area%.4f%%", area * 100.0);
    out.push_back({label, [area](Params& p) { p.area = area; }});
  }
  return out;
}

std::vector<Setting> Aspects(const std::vector<double>& aspects) {
  std::vector<Setting> out;
  for (double aspect : aspects) {
    char label[32];
    std::snprintf(label, sizeof(label), "aspect%.2f", aspect);
    out.push_back({label, [aspect](Params& p) { p.aspect = aspect; }});
  }
  return out;
}

std::vector<Setting> Ks(const std::vector<size_t>& ks) {
  std::vector<Setting> out;
  for (size_t k : ks) {
    out.push_back({"k" + std::to_string(k), [k](Params& p) { p.k = k; }});
  }
  return out;
}

/// The update-stream axis: 10%..50% n inserted, or deleted.
std::vector<Setting> Pcts(bool deletes) {
  std::vector<Setting> out;
  for (int pct : {10, 20, 30, 40, 50}) {
    out.push_back({"pct" + std::to_string(pct), [pct, deletes](Params& p) {
                     p.pct = pct;
                     p.deletes = deletes;
                   }});
  }
  return out;
}

/// Table 3 times a sequential build, as the paper does.
std::vector<Setting> PartitionThresholds() {
  std::vector<Setting> out;
  for (int threshold : {2500, 5000, 10000, 20000, 40000}) {
    out.push_back({"N" + std::to_string(threshold), [threshold](Params& p) {
                     p.rsmi.partition_threshold = threshold;
                     p.rsmi.build_threads = 1;
                   }});
  }
  return out;
}

std::vector<Setting> Kinds(const std::vector<IndexKind>& kinds) {
  std::vector<Setting> out;
  for (IndexKind k : kinds) {
    out.push_back({IndexKindName(k), [k](Params& p) { p.kind = k; }});
  }
  return out;
}

/// The six indices of the paper (no RSMIa).
std::vector<Setting> PaperKinds() {
  return Kinds({IndexKind::kGrid, IndexKind::kHrr, IndexKind::kKdb,
                IndexKind::kRstar, IndexKind::kRsmi, IndexKind::kZm});
}

/// Fig. 17's kinds: the six plus RSMIr, the RSMI with periodic rebuilds.
std::vector<Setting> InsertKinds() {
  std::vector<Setting> out = PaperKinds();
  out.insert(out.end() - 1, {"RSMIr", [](Params& p) {
                               p.kind = IndexKind::kRsmi;
                               p.rebuild = true;
                             }});
  return out;
}

std::vector<Setting> Curves(const std::vector<CurveType>& curves) {
  std::vector<Setting> out;
  for (CurveType c : curves) {
    out.push_back({CurveName(c), [c](Params& p) { p.rsmi.curve = c; }});
  }
  return out;
}

/// The paper trains every sub-model with SGD, lr = 0.01, 500 epochs;
/// this repo defaults to mini-batch Adam with a cosine schedule and a wide
/// first-layer init (RsmiConfig::model_init_scale).
std::vector<Setting> TrainingRecipes() {
  return {
      {"adam-wide-init", [](Params&) {}},
      {"adam-xavier", [](Params& p) { p.rsmi.model_init_scale = 0.0; }},
      {"paper-sgd500",
       [](Params& p) {
         p.rsmi.train.use_adam = false;
         p.rsmi.train.epochs = 500;
         p.rsmi.train.batch_size = 0;  // full batch
         p.rsmi.train.learning_rate = 0.01;
         p.rsmi.train.final_learning_rate = 0.01;  // constant, as in the paper
         p.rsmi.train.early_stop_tol = 0.0;
         p.rsmi.model_init_scale = 0.0;  // Xavier
       }},
  };
}

std::vector<Setting> BuildThreads() {
  std::vector<Setting> out;
  for (int threads : {1, 2, 4, 8, 16}) {
    out.push_back({"threads" + std::to_string(threads),
                   [threads](Params& p) { p.rsmi.build_threads = threads; }});
  }
  return out;
}

std::vector<Setting> UpdateStrategies() {
  return {
      {"overflow-chain", [](Params&) {}},  // the paper's scheme
      {"leaf-buffer",
       [](Params& p) {
         p.rsmi.update_strategy = UpdateStrategy::kLeafBuffer;
       }},
      {"gapped-80pct", [](Params& p) { p.rsmi.build_fill_factor = 0.8; }},
  };
}

// ---------------------------------------------------------------------

const std::vector<Figure>& Figures() {
  using benchmark::kMicrosecond;
  using benchmark::kMillisecond;
  using benchmark::kNanosecond;
  static const std::vector<Figure> figures = {
      // Fig. 6: point query time (a) and block accesses (b) vs data
      // distribution, for all six indices. Expected shape: RSMI fastest
      // with the fewest block accesses; Grid competitive on Uniform only
      // and worst in block accesses under skew.
      {"Fig06/PointQuery", Distributions(), PaperKinds(), PointCell,
       kMicrosecond},
      // Fig. 7: index size (a) and construction time (b) vs data
      // distribution. Expected shape: learned indices smallest; RR*
      // largest and slowest to build (tuple-at-a-time); HRR larger than
      // RSMI due to its two B+-trees; Grid/KDB build fastest.
      {"Fig07/SizeBuild", Distributions(), PaperKinds(), SizeBuildCell,
       kNanosecond},
      // Fig. 8: point query time (a) and block accesses (b) vs data set
      // size on Skewed data. Expected shape: costs grow with n; RSMI
      // lowest throughout.
      {"Fig08/PointQueryScale", Sizes(), PaperKinds(), PointCell,
       kMicrosecond},
      // Fig. 9: index size (a) and construction time (b) vs data set size
      // on Skewed data. Expected shape: both grow roughly linearly; RSMI
      // stays small; RR*'s insertion-based construction is the slowest.
      {"Fig09/SizeBuildScale", Sizes(), PaperKinds(), SizeBuildCell,
       kNanosecond},
      // Fig. 10: window query time (a) and recall (b) vs data
      // distribution, including RSMIa. Expected shape: RSMI fastest
      // except on Uniform where Grid is competitive; RSMI recall
      // consistently above ~0.9; RSMIa and all traditional indices exact.
      {"Fig10/WindowQuery", Distributions(), Kinds(AllIndexKinds()),
       WindowCell, kMillisecond},
      // Fig. 11: window query time (a) and recall (b) vs data set size
      // (Skewed), including RSMIa. Expected shape: times grow with n;
      // RSMI fastest at larger n; recall dips slightly with n but stays
      // high.
      {"Fig11/WindowQueryScale", Sizes(), Kinds(AllIndexKinds()), WindowCell,
       kMillisecond},
      // Fig. 12: window query time (a) and recall (b) vs query window size
      // (0.0006% to 0.16% of the data space, Table 2). Expected shape:
      // times grow with the window size; RSMI fastest with recall above
      // ~0.9.
      {"Fig12/WindowQuerySize",
       WindowAreas({0.000006, 0.000025, 0.0001, 0.0004, 0.0016}),
       Kinds(AllIndexKinds()), WindowCell, kMillisecond},
      // Fig. 13: window query time (a) and recall (b) vs query window
      // aspect ratio (0.25 to 4, Table 2). Expected shape: aspect ratio
      // matters far less than window size; RSMI fastest with recall above
      // ~0.89.
      {"Fig13/WindowQueryAspect", Aspects({0.25, 0.5, 1.0, 2.0, 4.0}),
       Kinds(AllIndexKinds()), WindowCell, kMillisecond},
      // Fig. 14: kNN query time (a) and recall (b) vs data distribution
      // (k = 25), including RSMIa. Expected shape: RSMI fastest (it
      // reuses its fast window queries); ZM much slower despite using the
      // same kNN algorithm; RSMI recall above ~0.9.
      {"Fig14/KnnQuery", Distributions(), Kinds(AllIndexKinds()), KnnCell,
       kMillisecond},
      // Fig. 15: kNN query time (a) and recall (b) vs data set size
      // (Skewed, k = 25), including RSMIa. Expected shape: times grow with
      // n; RSMI fastest; recall decreases slightly with n but stays high.
      {"Fig15/KnnQueryScale", Sizes(), Kinds(AllIndexKinds()), KnnCell,
       kMillisecond},
      // Fig. 16: kNN query time (a) and recall (b) vs k (1 to 625, Table
      // 2), including RSMIa. Expected shape: costs grow with k; RSMI stays
      // fastest with recall between ~0.89 and ~0.97.
      {"Fig16/KnnQueryK", Ks({1, 5, 25, 125, 625}), Kinds(AllIndexKinds()),
       KnnCell, kMillisecond},
      // Fig. 17: insertion time (a) and point query time after insertions
      // (b) for 10%..50% n inserted points (Skewed), including RSMIr
      // (periodic rebuild). Expected shape: insertion times grow slowly;
      // learned indices degrade most on queries but RSMI stays fastest;
      // RSMIr restores query performance at a bounded amortized insertion
      // cost.
      {"Fig17/Insertions", Pcts(false), InsertKinds(), UpdateCell,
       kMicrosecond},
      // Fig. 18: window query time (a) and recall (b) after 10%..50% n
      // insertions (Skewed), including RSMIa. Expected shape: RR*/HRR
      // close to RSMI as insertions accumulate; RSMI recall stays above
      // ~0.87.
      {"Fig18/WindowAfterInsert", Pcts(false), Kinds(AllIndexKinds()),
       WindowCell, kMillisecond},
      // Fig. 19: kNN query time (a) and recall (b) after 10%..50% n
      // insertions (Skewed, k = 25), including RSMIa. Expected shape: RSMI
      // retains the fastest query time (denser data shrinks its initial
      // search region); recall stays above ~0.87.
      {"Fig19/KnnAfterInsert", Pcts(false), Kinds(AllIndexKinds()), KnnCell,
       kMillisecond},
      // Table 3: impact of the RSMI partition threshold N — construction
      // time, height, index size, point-query block accesses and time.
      {"Table3/ImpactOfN", PartitionThresholds(), Kinds({IndexKind::kRsmi}),
       RsmiVariantCell, kMicrosecond},
      // Table 4: maximum prediction error bounds (err_l, err_a) of ZM vs
      // RSMI on every distribution. The paper reports ZM bounds on the
      // order of 10^4 blocks vs double-digit bounds for RSMI; the shape to
      // reproduce is "ZM's bounds dwarf RSMI's, increasingly so under
      // skew".
      {"Table4/ErrorBounds", Distributions(), {{"ZMvsRSMI", [](Params&) {}}},
       ErrorBoundsCell, kNanosecond},
      // Build parallelization ablation: RSMI construction time vs worker
      // threads. The rank-space packing technique RSMI builds on was
      // designed for "strong parallelizability" [37, 38]; in RSMI the
      // per-leaf model training dominates the build and parallelizes
      // embarrassingly, while the result stays bit-identical
      // (tests/parallel_build_test.cc).
      {"AblationBuildThreads/Build", SweepDistribution(), BuildThreads(),
       RsmiVariantCell, kNanosecond},
      // Design ablation (Section 6.1): "RSMI uses Hilbert-curves for
      // ordering as these yield better query performance than Z-curves."
      // Builds RSMI with both curves and compares point/window/kNN time
      // and recall.
      {"AblationCurve/RsmiCurve", Distributions(),
       Curves({CurveType::kHilbert, CurveType::kZ}), RsmiVariantCell,
       kNanosecond},
      // Section 6.2.5 (text): "We also studied the impact of deletions ...
      // they replicate the performance figures of insertions." Deletes
      // 10%..50% n points and measures deletion time plus point query time
      // afterwards, mirroring Fig. 17 for deletions.
      {"AblationDel/Deletions", Pcts(true), PaperKinds(), UpdateCell,
       kMicrosecond},
      // Design ablation (Section 3.1, Figs. 2 vs 3): the rank-space
      // ordering produces far more even gaps between consecutive curve
      // values than applying the curve to raw coordinates — the property
      // that makes the learned CDF simple. Reports the squared coefficient
      // of variation of the gaps plus the min/max gap ratio for both
      // orderings on every distribution.
      {"AblationRank/GapEvenness", Distributions(),
       Curves({CurveType::kZ, CurveType::kHilbert}), RankSpaceCell,
       kNanosecond},
      // Training-recipe ablation (DESIGN.md substitution #3): the same RSMI
      // under the paper's recipe and this repo's, reporting build time,
      // error bounds, and point-query cost. The default fits the
      // rank-space curve targets far better per unit of build time.
      {"AblationTraining/PointQuery", SweepDistribution(), TrainingRecipes(),
       RsmiVariantCell, kNanosecond},
      // Update-strategy ablation (Section 5 vs. the Section 2
      // alternatives): the paper's overflow-chain insertions against
      // FITing-tree-style per-leaf insert buffers [14] and ALEX-style
      // build-time gapping [9] on the same insert stream. Reports
      // per-insert cost and point/window query cost after 10%..50% n
      // insertions, mirroring Fig. 17/18's protocol.
      {"AblationUpdateStrategy/AfterInserts", Pcts(false),
       UpdateStrategies(), UpdateStrategyCell, kNanosecond},
  };
  return figures;
}

}  // namespace
}  // namespace bench
}  // namespace rsmi

int main(int argc, char** argv) {
  using namespace rsmi::bench;
  for (const Figure& fig : Figures()) {
    // Stream rows loop (and name their cells) kind first, so each kind's
    // stream sees its batches in ascending pct.
    Params probe;
    fig.axis.front().apply(probe);
    const bool stream = probe.pct > 0;
    const auto& outer = stream ? fig.kinds : fig.axis;
    const auto& inner = stream ? fig.axis : fig.kinds;
    for (const Setting& a : outer) {
      for (const Setting& b : inner) {
        Params p;
        a.apply(p);
        b.apply(p);
        p.stream = fig.prefix + "/" + a.label;
        RegisterNamed(fig.prefix + "/" + a.label + "/" + b.label,
                      [cell = fig.cell, p](benchmark::State& s) {
                        cell(s, p);
                      })
            ->Iterations(1)
            ->Unit(fig.unit);
      }
    }
  }
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
