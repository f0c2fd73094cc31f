// ShardedIndex correctness: routed/fan-out queries must answer exactly
// like an unsharded index over the same data. With one shard the whole
// sharded path (routing included) must be bit-identical to the plain
// inner index — results AND counted costs — and with K shards the exact
// inner indices must reproduce the monolithic result sets for point,
// window, and kNN queries, including after inserts and deletes. Also
// covers the partitioner (balance, determinism, serialization), stats
// and size aggregation, spec-string parsing, and QueryContext::MergeFrom.
#include "shard/sharded_index.h"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "baselines/factory.h"
#include "data/generators.h"
#include "data/ground_truth.h"
#include "data/workloads.h"
#include "exec/batch_query_engine.h"
#include "io/serializer.h"
#include "gtest/gtest.h"
#include "shard/shard_partitioner.h"

namespace rsmi {
namespace {

constexpr size_t kPoints = 3000;

IndexBuildConfig TestConfig() {
  IndexBuildConfig cfg;
  cfg.block_capacity = 20;
  cfg.partition_threshold = 400;
  cfg.train.epochs = 40;
  cfg.train.batch_size = 128;
  cfg.internal_sample_cap = 2048;
  return cfg;
}

std::vector<std::pair<double, double>> SortedXY(
    const std::vector<Point>& pts) {
  std::vector<std::pair<double, double>> out;
  out.reserve(pts.size());
  for (const Point& p : pts) out.emplace_back(p.x, p.y);
  std::sort(out.begin(), out.end());
  return out;
}

/// Point-query battery: data hits interleaved with nearby misses.
std::vector<Point> PointProbes(const std::vector<Point>& data) {
  std::vector<Point> qs;
  for (size_t i = 0; i < data.size(); i += 3) qs.push_back(data[i]);
  for (size_t i = 1; i < data.size(); i += 11) {
    qs.push_back(Point{data[i].x + 1e-4, data[i].y - 1e-4});
  }
  return qs;
}

// --- ShardPartitioner ---

TEST(ShardPartitionerTest, BalancedNonEmptyShardsAndDeterministicRouting) {
  const auto data = GenerateDataset(Distribution::kUniform, 4000, 42);
  ShardPartitionerConfig cfg;
  cfg.num_shards = 8;
  const ShardPartitioner part(data, cfg);
  ASSERT_EQ(part.num_shards(), 8);
  EXPECT_TRUE(part.Validate(nullptr));

  std::vector<size_t> count(8, 0);
  for (const Point& p : data) {
    const int s = part.ShardOf(p);
    ASSERT_GE(s, 0);
    ASSERT_LT(s, 8);
    ++count[static_cast<size_t>(s)];
  }
  // Quantile splits over a full sample: every shard is populated and no
  // shard holds more than 2x its fair share on uniform data.
  for (size_t s = 0; s < count.size(); ++s) {
    EXPECT_GT(count[s], 0u) << "shard " << s;
    EXPECT_LT(count[s], 2 * data.size() / 8) << "shard " << s;
  }

  const ShardPartitioner again(data, cfg);
  for (const Point& p : data) {
    EXPECT_EQ(part.ShardOf(p), again.ShardOf(p));
  }
}

TEST(ShardPartitionerTest, SerializationRoundTripPreservesRouting) {
  const auto data = GenerateDataset(Distribution::kSkewed, 2000, 7);
  ShardPartitionerConfig cfg;
  cfg.num_shards = 5;
  cfg.sample_cap = 512;  // sampled build path
  const ShardPartitioner part(data, cfg);

  Serializer out;
  part.WriteTo(out);

  ShardPartitioner loaded;
  Deserializer in(out.buffer());
  ASSERT_TRUE(loaded.ReadFrom(in));
  EXPECT_EQ(in.remaining(), 0u);

  EXPECT_EQ(loaded.num_shards(), part.num_shards());
  EXPECT_EQ(loaded.splits(), part.splits());
  EXPECT_TRUE(loaded.Validate(nullptr));
  for (const Point& p : data) {
    EXPECT_EQ(loaded.ShardOf(p), part.ShardOf(p));
  }
}

TEST(ShardPartitionerTest, DegenerateInputsClampTheShardCount) {
  ShardPartitionerConfig cfg;
  cfg.num_shards = 8;
  const ShardPartitioner empty({}, cfg);
  EXPECT_EQ(empty.num_shards(), 1);
  EXPECT_EQ(empty.ShardOf(Point{0.5, 0.5}), 0);

  // More shards than distinct routing-grid cells: the effective count
  // shrinks instead of leaving shards empty.
  const std::vector<Point> two = {{0.25, 0.25}, {0.75, 0.75}};
  const ShardPartitioner tiny(two, cfg);
  EXPECT_LE(tiny.num_shards(), 2);
  EXPECT_GE(tiny.num_shards(), 1);
  for (const Point& p : two) {
    const int s = tiny.ShardOf(p);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, tiny.num_shards());
  }
}

// --- spec strings ---

TEST(IndexSpecTest, ParsesKindsShardedAndNestedSpecs) {
  const auto data = GenerateDataset(Distribution::kUniform, 2000, 42);
  const IndexBuildConfig cfg = TestConfig();

  IndexKind kind;
  EXPECT_TRUE(ParseIndexKind("rsmi", &kind));
  EXPECT_EQ(kind, IndexKind::kRsmi);
  EXPECT_TRUE(ParseIndexKind("RR*", &kind));
  EXPECT_EQ(kind, IndexKind::kRstar);
  EXPECT_TRUE(ParseIndexKind("rstar", &kind));
  EXPECT_EQ(kind, IndexKind::kRstar);
  EXPECT_FALSE(ParseIndexKind("bogus", &kind));

  const auto plain = MakeIndexFromSpec("grid", data, cfg);
  ASSERT_NE(plain, nullptr);
  EXPECT_EQ(plain->Name(), "Grid");

  const auto sharded = MakeIndexFromSpec("sharded<4>:grid", data, cfg);
  ASSERT_NE(sharded, nullptr);
  EXPECT_EQ(sharded->Name(), "Sharded<4>[Grid]");

  const auto nested = MakeIndexFromSpec("sharded<2>:sharded<2>:grid", data,
                                        cfg);
  ASSERT_NE(nested, nullptr);
  EXPECT_EQ(nested->Name(), "Sharded<2>[Sharded<2>[Grid]]");

  EXPECT_EQ(MakeIndexFromSpec("bogus", data, cfg), nullptr);
  EXPECT_EQ(MakeIndexFromSpec("sharded<4>:bogus", data, cfg), nullptr);
  EXPECT_EQ(MakeIndexFromSpec("sharded<0>:grid", data, cfg), nullptr);
  EXPECT_EQ(MakeIndexFromSpec("sharded<4>grid", data, cfg), nullptr);
}

// --- QueryContext::MergeFrom ---

TEST(QueryContextTest, MergeFromFoldsEveryCounter) {
  QueryContext a;
  a.block_accesses = 3;
  a.model_invocations = 5;
  a.descents = 2;
  a.nodes_visited = 7;
  QueryContext b;
  b.block_accesses = 10;
  b.model_invocations = 20;
  b.descents = 30;
  b.nodes_visited = 40;
  b.MergeFrom(a);
  EXPECT_EQ(b.block_accesses, 13u);
  EXPECT_EQ(b.model_invocations, 25u);
  EXPECT_EQ(b.descents, 32u);
  EXPECT_EQ(b.nodes_visited, 47u);
}

// --- exactness vs the unsharded same-inner index ---

/// One shard: routing must be a bit-identical no-op. Results and every
/// counted cost of point/window/kNN queries match the plain inner index
/// (the sharded-vs-monolithic count-parity proof: the shard layer adds
/// no hidden block accesses or model invocations).
TEST(ShardedIndexTest, SingleShardRsmiBitIdenticalToPlainRsmiInclCosts) {
  for (const Distribution dist :
       {Distribution::kUniform, Distribution::kSkewed}) {
    const auto data = GenerateDataset(dist, kPoints, 42);
    const IndexBuildConfig cfg = TestConfig();
    const auto plain = MakeIndexFromSpec("rsmi", data, cfg);
    const auto sharded = MakeIndexFromSpec("sharded<1>:rsmi", data, cfg);
    ASSERT_NE(plain, nullptr);
    ASSERT_NE(sharded, nullptr);

    for (const Point& q : PointProbes(data)) {
      QueryContext pc;
      QueryContext sc;
      const auto want = plain->PointQuery(q, pc);
      const auto got = sharded->PointQuery(q, sc);
      ASSERT_EQ(got.has_value(), want.has_value());
      if (want.has_value()) {
        EXPECT_EQ(got->pt.x, want->pt.x);
        EXPECT_EQ(got->pt.y, want->pt.y);
        EXPECT_EQ(got->id, want->id);
      }
      EXPECT_EQ(sc.block_accesses, pc.block_accesses);
      EXPECT_EQ(sc.model_invocations, pc.model_invocations);
      EXPECT_EQ(sc.descents, pc.descents);
      EXPECT_EQ(sc.nodes_visited, pc.nodes_visited);
    }

    const auto windows = GenerateWindowQueries(data, 50, 0.001, 1.0, 99);
    for (const Rect& w : windows) {
      QueryContext pc;
      QueryContext sc;
      const auto want = plain->WindowQuery(w, pc);
      const auto got = sharded->WindowQuery(w, sc);
      EXPECT_EQ(SortedXY(got), SortedXY(want));
      EXPECT_EQ(sc.block_accesses, pc.block_accesses);
      EXPECT_EQ(sc.model_invocations, pc.model_invocations);
    }

    const auto centers = GenerateQueryPoints(data, 50, 123);
    for (const Point& q : centers) {
      QueryContext pc;
      QueryContext sc;
      const auto want = plain->KnnQuery(q, 10, pc);
      const auto got = sharded->KnnQuery(q, 10, sc);
      EXPECT_EQ(SortedXY(got), SortedXY(want));
      EXPECT_EQ(sc.block_accesses, pc.block_accesses);
      EXPECT_EQ(sc.model_invocations, pc.model_invocations);
    }
  }
}

/// K shards over an exact inner index: fan-out answers must equal the
/// monolithic result sets — before and after a batch of inserts and
/// deletes applied identically to both.
class ShardedExactnessTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(ShardedExactnessTest, FanOutMatchesMonolithicInclAfterUpdates) {
  for (const Distribution dist :
       {Distribution::kUniform, Distribution::kSkewed}) {
    auto data = GenerateDataset(dist, kPoints, 42);
    const IndexBuildConfig cfg = TestConfig();
    const std::string inner = GetParam();
    const auto mono = MakeIndexFromSpec(inner, data, cfg);
    const auto sharded =
        MakeIndexFromSpec("sharded<4>:" + inner, data, cfg);
    ASSERT_NE(mono, nullptr);
    ASSERT_NE(sharded, nullptr);

    const auto check = [&](const std::vector<Point>& live) {
      for (const Point& q : PointProbes(live)) {
        QueryContext ctx;
        const auto want = mono->PointQuery(q, ctx);
        const auto got = sharded->PointQuery(q, ctx);
        ASSERT_EQ(got.has_value(), want.has_value());
        if (want.has_value()) {
          EXPECT_EQ(got->pt.x, want->pt.x);
          EXPECT_EQ(got->pt.y, want->pt.y);
        }
      }
      QueryContext ctx;
      for (const Rect& w : GenerateWindowQueries(live, 40, 0.002, 1.0, 99)) {
        EXPECT_EQ(SortedXY(sharded->WindowQuery(w, ctx)),
                  SortedXY(mono->WindowQuery(w, ctx)));
      }
      for (const Point& q : GenerateQueryPoints(live, 40, 123)) {
        EXPECT_EQ(SortedXY(sharded->KnnQuery(q, 10, ctx)),
                  SortedXY(mono->KnnQuery(q, 10, ctx)));
      }
    };

    check(data);

    // Updates route through the partitioner; answers must stay aligned.
    const auto extra = GenerateDataset(dist, 300, 4242);
    for (const Point& p : extra) {
      mono->Insert(p);
      sharded->Insert(p);
    }
    std::vector<Point> live = data;
    live.insert(live.end(), extra.begin(), extra.end());
    std::vector<Point> kept;
    for (size_t i = 0; i < data.size(); ++i) {
      if (i % 3 == 0) {
        EXPECT_TRUE(mono->Delete(data[i]));
        EXPECT_TRUE(sharded->Delete(data[i]));
      } else {
        kept.push_back(data[i]);
      }
    }
    kept.insert(kept.end(), extra.begin(), extra.end());
    check(kept);

    EXPECT_EQ(sharded->Stats().num_points, mono->Stats().num_points);
    EXPECT_TRUE(sharded->ValidateStructure(nullptr));
  }
}

INSTANTIATE_TEST_SUITE_P(ExactInners, ShardedExactnessTest,
                         ::testing::Values("grid", "rstar"),
                         [](const auto& info) { return info.param; });

/// Sharded RSMIa (exact learned variant): window and kNN fan-out over
/// the learned shards reproduces the monolithic exact answers.
TEST(ShardedIndexTest, ShardedRsmiaMatchesMonolithicRsmiaExactly) {
  const auto data = GenerateDataset(Distribution::kSkewed, kPoints, 42);
  const IndexBuildConfig cfg = TestConfig();
  const auto mono = MakeIndexFromSpec("rsmia", data, cfg);
  const auto sharded = MakeIndexFromSpec("sharded<4>:rsmia", data, cfg);
  ASSERT_NE(mono, nullptr);
  ASSERT_NE(sharded, nullptr);

  QueryContext ctx;
  for (const Rect& w : GenerateWindowQueries(data, 60, 0.002, 1.0, 99)) {
    EXPECT_EQ(SortedXY(sharded->WindowQuery(w, ctx)),
              SortedXY(mono->WindowQuery(w, ctx)));
  }
  for (const Point& q : GenerateQueryPoints(data, 60, 123)) {
    EXPECT_EQ(SortedXY(sharded->KnnQuery(q, 12, ctx)),
              SortedXY(mono->KnnQuery(q, 12, ctx)));
  }
}

/// Sharded plain RSMI: point queries are exact, so they must match the
/// monolithic RSMI bit-for-bit; the batched path must match the scalar
/// path result-for-result and counter-for-counter; window fan-out keeps
/// the no-false-positives guarantee.
TEST(ShardedIndexTest, ShardedRsmiPointExactBatchedCountParity) {
  const auto data = GenerateDataset(Distribution::kSkewed, kPoints, 42);
  const IndexBuildConfig cfg = TestConfig();
  const auto mono = MakeIndexFromSpec("rsmi", data, cfg);
  const auto sharded = MakeIndexFromSpec("sharded<4>:rsmi", data, cfg);
  ASSERT_NE(mono, nullptr);
  ASSERT_NE(sharded, nullptr);

  const auto qs = PointProbes(data);
  QueryContext scalar_ctx;
  std::vector<std::optional<PointEntry>> scalar(qs.size());
  for (size_t i = 0; i < qs.size(); ++i) {
    scalar[i] = sharded->PointQuery(qs[i], scalar_ctx);
    QueryContext mc;
    const auto want = mono->PointQuery(qs[i], mc);
    ASSERT_EQ(scalar[i].has_value(), want.has_value()) << i;
    if (want.has_value()) {
      EXPECT_EQ(scalar[i]->pt.x, want->pt.x);
      EXPECT_EQ(scalar[i]->pt.y, want->pt.y);
    }
  }

  std::vector<QueryContext> batch_ctxs(qs.size());
  std::vector<std::optional<PointEntry>> batched(qs.size());
  sharded->PointQueryBatch(qs.data(), qs.size(), batch_ctxs.data(),
                           batched.data());
  QueryContext batch_ctx;
  for (const QueryContext& c : batch_ctxs) batch_ctx.MergeFrom(c);
  for (size_t i = 0; i < qs.size(); ++i) {
    ASSERT_EQ(batched[i].has_value(), scalar[i].has_value()) << i;
    if (scalar[i].has_value()) {
      EXPECT_EQ(batched[i]->pt.x, scalar[i]->pt.x);
      EXPECT_EQ(batched[i]->pt.y, scalar[i]->pt.y);
      EXPECT_EQ(batched[i]->id, scalar[i]->id);
    }
  }
  EXPECT_EQ(batch_ctx.block_accesses, scalar_ctx.block_accesses);
  EXPECT_EQ(batch_ctx.model_invocations, scalar_ctx.model_invocations);
  EXPECT_EQ(batch_ctx.descents, scalar_ctx.descents);
  EXPECT_EQ(batch_ctx.nodes_visited, scalar_ctx.nodes_visited);

  // Approximate window answers keep "no false positives" under fan-out.
  const auto truth_sorted = SortedXY(data);
  QueryContext ctx;
  for (const Rect& w : GenerateWindowQueries(data, 40, 0.002, 1.0, 99)) {
    for (const Point& p : sharded->WindowQuery(w, ctx)) {
      EXPECT_TRUE(w.Contains(p));
      EXPECT_TRUE(std::binary_search(truth_sorted.begin(),
                                     truth_sorted.end(),
                                     std::make_pair(p.x, p.y)));
    }
  }
}

// --- aggregation: stats, size, engine ---

TEST(ShardedIndexTest, StatsAggregateAcrossShardsWithDirectoryOverhead) {
  const auto data = GenerateDataset(Distribution::kUniform, kPoints, 42);
  const auto index = MakeIndexFromSpec("sharded<4>:rsmi", data, TestConfig());
  ASSERT_NE(index, nullptr);
  const auto* sharded = dynamic_cast<const ShardedIndex*>(index.get());
  ASSERT_NE(sharded, nullptr);
  ASSERT_EQ(sharded->num_shards(), 4);

  size_t inner_points = 0;
  size_t inner_bytes = 0;
  size_t inner_models = 0;
  int inner_height = 0;
  for (int i = 0; i < sharded->num_shards(); ++i) {
    const IndexStats st = sharded->shard(i).Stats();
    EXPECT_GT(st.num_points, 0u) << "shard " << i;
    inner_points += st.num_points;
    inner_bytes += st.size_bytes;
    inner_models += st.num_models;
    inner_height = std::max(inner_height, st.height);
  }
  const IndexStats st = index->Stats();
  EXPECT_EQ(st.num_points, data.size());
  EXPECT_EQ(inner_points, data.size());
  EXPECT_EQ(st.num_models, inner_models);
  EXPECT_EQ(st.height, inner_height + 1);
  // The directory overhead (partitioner + region table) is counted on
  // top of the shard footprints.
  EXPECT_GT(st.size_bytes, inner_bytes);
  EXPECT_GE(st.size_bytes,
            inner_bytes + sharded->partitioner().SizeBytes());
}

TEST(ShardedIndexTest, RegionsRouteAndGrowOnOutOfBoundsInsert) {
  const auto data = GenerateDataset(Distribution::kUniform, 2000, 42);
  const auto index = MakeIndexFromSpec("sharded<4>:grid", data, TestConfig());
  ASSERT_NE(index, nullptr);

  // Inserted points outside the build bounds clamp onto the routing grid
  // but must stay queryable (the shard region grows to cover them).
  const Point outside{1.5, 1.5};
  index->Insert(outside);
  QueryContext ctx;
  const auto hit = index->PointQuery(outside, ctx);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->pt.x, outside.x);
  EXPECT_EQ(hit->pt.y, outside.y);
  const auto knn = index->KnnQuery(Point{1.4, 1.4}, 1, ctx);
  ASSERT_EQ(knn.size(), 1u);
  EXPECT_EQ(knn[0].x, outside.x);
  EXPECT_TRUE(index->Delete(outside));
  EXPECT_FALSE(index->PointQuery(outside, ctx).has_value());
  EXPECT_TRUE(index->ValidateStructure(nullptr));
}

TEST(ShardedIndexTest, BatchQueryEngineTotalsMatchSingleThreadedReplay) {
  const auto data = GenerateDataset(Distribution::kSkewed, kPoints, 42);
  const auto index = MakeIndexFromSpec("sharded<4>:rsmi", data, TestConfig());
  ASSERT_NE(index, nullptr);

  WorkloadMix mix;
  mix.point_frac = 0.5;
  mix.window_frac = 0.3;
  mix.window_area = 0.001;
  mix.k = 10;
  const auto ops = BuildMixedWorkload(data, 600, mix, 77);

  QueryContext truth_cost;
  uint64_t truth_results = 0;
  for (const Request& req : ops) {
    const Response resp = ExecuteReadRequest(*index, req);
    truth_results += resp.ResultCount();
    truth_cost.MergeFrom(resp.cost);
  }

  BatchQueryEngine engine(4);
  const BatchQueryStats st = engine.Run(*index, ops);
  EXPECT_EQ(st.queries, ops.size());
  EXPECT_EQ(st.total_results, truth_results);
  EXPECT_EQ(st.cost.block_accesses, truth_cost.block_accesses);
  EXPECT_EQ(st.cost.model_invocations, truth_cost.model_invocations);
}

TEST(ShardedIndexTest, ParallelBuildMatchesSequentialBuild) {
  const auto data = GenerateDataset(Distribution::kSkewed, kPoints, 42);
  IndexBuildConfig seq_cfg = TestConfig();
  seq_cfg.build_threads = 1;
  IndexBuildConfig par_cfg = TestConfig();
  par_cfg.build_threads = 4;
  const auto seq = MakeIndexFromSpec("sharded<4>:rsmi", data, seq_cfg);
  const auto par = MakeIndexFromSpec("sharded<4>:rsmi", data, par_cfg);
  ASSERT_NE(seq, nullptr);
  ASSERT_NE(par, nullptr);

  // Shards build independently, so the worker count cannot change the
  // index: every query answers identically at identical counted cost.
  for (const Point& q : PointProbes(data)) {
    QueryContext sc;
    QueryContext pc;
    const auto a = seq->PointQuery(q, sc);
    const auto b = par->PointQuery(q, pc);
    ASSERT_EQ(a.has_value(), b.has_value());
    if (a.has_value()) {
      EXPECT_EQ(a->pt.x, b->pt.x);
      EXPECT_EQ(a->pt.y, b->pt.y);
    }
    EXPECT_EQ(sc.block_accesses, pc.block_accesses);
    EXPECT_EQ(sc.model_invocations, pc.model_invocations);
  }
  QueryContext ctx;
  for (const Rect& w : GenerateWindowQueries(data, 30, 0.002, 1.0, 99)) {
    EXPECT_EQ(SortedXY(seq->WindowQuery(w, ctx)),
              SortedXY(par->WindowQuery(w, ctx)));
  }
  const IndexStats sa = seq->Stats();
  const IndexStats sb = par->Stats();
  EXPECT_EQ(sa.size_bytes, sb.size_bytes);
  EXPECT_EQ(sa.num_models, sb.num_models);
  EXPECT_EQ(sa.height, sb.height);
}

}  // namespace
}  // namespace rsmi
