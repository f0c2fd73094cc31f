#include "core/rsmi_index.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "data/ground_truth.h"
#include "data/workloads.h"
#include "gtest/gtest.h"

namespace rsmi {
namespace {

/// Small-scale config: forces multi-level trees at test sizes and keeps
/// model training fast. Semantics identical to the paper defaults.
RsmiConfig TestConfig() {
  RsmiConfig cfg;
  cfg.block_capacity = 20;
  cfg.partition_threshold = 400;
  cfg.train.epochs = 60;
  cfg.train.batch_size = 128;
  cfg.internal_sample_cap = 2048;
  return cfg;
}

std::vector<double> SortedDistances(const std::vector<Point>& pts,
                                    const Point& q) {
  std::vector<double> d;
  d.reserve(pts.size());
  for (const auto& p : pts) d.push_back(Dist(p, q));
  std::sort(d.begin(), d.end());
  return d;
}

class RsmiParamTest : public ::testing::TestWithParam<
                          std::tuple<Distribution, CurveType>> {
 protected:
  void Build(size_t n) {
    const auto [dist, curve] = GetParam();
    data_ = GenerateDataset(dist, n, 42);
    RsmiConfig cfg = TestConfig();
    cfg.curve = curve;
    index_ = std::make_unique<RsmiIndex>(data_, cfg);
  }
  std::vector<Point> data_;
  std::unique_ptr<RsmiIndex> index_;
};

TEST_P(RsmiParamTest, PointQueryFindsEveryIndexedPoint) {
  QueryContext ctx;
  Build(3000);
  // Zero false negatives for indexed points: the learned grouping at build
  // time is reproduced exactly at query time, and the error bounds cover
  // every leaf prediction error (DESIGN.md key decision #1/#2).
  for (const auto& p : data_) {
    const auto found = index_->PointQuery(p, ctx);
    ASSERT_TRUE(found.has_value()) << "lost point " << p.x << "," << p.y;
    EXPECT_TRUE(SamePosition(found->pt, p));
  }
}

TEST_P(RsmiParamTest, PointQueryRejectsNonIndexedPositions) {
  QueryContext ctx;
  Build(2000);
  const auto probes = GenerateQueryPoints(data_, 200, 7, /*perturb=*/1e-5);
  for (const auto& q : probes) {
    if (BruteForceContains(data_, q)) continue;
    EXPECT_FALSE(index_->PointQuery(q, ctx).has_value());
  }
}

TEST_P(RsmiParamTest, WindowQueryHasNoFalsePositivesAndGoodRecall) {
  QueryContext ctx;
  Build(4000);
  const auto windows = GenerateWindowQueries(data_, 40, 0.001, 1.0, 11);
  double recall_sum = 0.0;
  for (const auto& w : windows) {
    const auto result = index_->WindowQuery(w, ctx);
    for (const auto& p : result) {
      EXPECT_TRUE(w.Contains(p));  // "no false positives" (Section 4.2)
    }
    const auto truth = BruteForceWindow(data_, w);
    recall_sum += RecallOf(result, truth);
  }
  // Paper reports recall consistently above 87% at much larger scale;
  // allow a touch of slack at unit-test scale.
  EXPECT_GT(recall_sum / windows.size(), 0.85);
}

TEST_P(RsmiParamTest, WindowQueryExactMatchesBruteForce) {
  QueryContext ctx;
  Build(3000);
  const auto windows = GenerateWindowQueries(data_, 30, 0.002, 2.0, 13);
  for (const auto& w : windows) {
    auto result = index_->WindowQueryExact(w, ctx);
    auto truth = BruteForceWindow(data_, w);
    ASSERT_EQ(result.size(), truth.size());
    auto cmp = [](const Point& a, const Point& b) {
      return LessByXThenY{}(a, b);
    };
    std::sort(result.begin(), result.end(), cmp);
    std::sort(truth.begin(), truth.end(), cmp);
    for (size_t i = 0; i < truth.size(); ++i) {
      EXPECT_TRUE(SamePosition(result[i], truth[i]));
    }
  }
}

TEST_P(RsmiParamTest, KnnExactMatchesBruteForce) {
  QueryContext ctx;
  Build(2500);
  const auto queries = GenerateQueryPoints(data_, 25, 17, 1e-4);
  for (const auto& q : queries) {
    for (size_t k : {1, 5, 25}) {
      const auto result = index_->KnnQueryExact(q, k, ctx);
      const auto truth = BruteForceKnn(data_, q, k);
      ASSERT_EQ(result.size(), truth.size());
      // Compare by distance (ties may resolve differently).
      const auto rd = SortedDistances(result, q);
      const auto td = SortedDistances(truth, q);
      for (size_t i = 0; i < td.size(); ++i) {
        EXPECT_NEAR(rd[i], td[i], 1e-12);
      }
    }
  }
}

TEST_P(RsmiParamTest, KnnApproximateHasGoodRecall) {
  QueryContext ctx;
  Build(4000);
  const auto queries = GenerateQueryPoints(data_, 30, 19, 1e-4);
  double recall_sum = 0.0;
  size_t trials = 0;
  for (const auto& q : queries) {
    for (size_t k : {5, 25}) {
      const auto result = index_->KnnQuery(q, k, ctx);
      const auto truth = BruteForceKnn(data_, q, k);
      recall_sum += RecallOf(result, truth);
      ++trials;
      // Results must be sorted by distance.
      const auto rd = SortedDistances(result, q);
      for (size_t i = 0; i < result.size(); ++i) {
        EXPECT_NEAR(Dist(result[i], q), rd[i], 1e-12);
      }
    }
  }
  EXPECT_GT(recall_sum / trials, 0.85);
}

TEST_P(RsmiParamTest, ApproximateWindowIsSubsetOfExact) {
  QueryContext ctx;
  Build(3000);
  // The approximate answer misses points but never invents them, so it
  // must be a subset of the exact (RSMIa) answer on every window.
  const auto windows = GenerateWindowQueries(data_, 25, 0.001, 0.5, 41);
  for (const auto& w : windows) {
    const auto approx = index_->WindowQuery(w, ctx);
    const auto exact = index_->WindowQueryExact(w, ctx);
    EXPECT_LE(approx.size(), exact.size());
    for (const auto& p : approx) {
      bool in_exact = false;
      for (const auto& e : exact) {
        if (SamePosition(p, e)) {
          in_exact = true;
          break;
        }
      }
      EXPECT_TRUE(in_exact);
    }
  }
}

TEST_P(RsmiParamTest, KnnApproxNeverBeatsExactDistance) {
  QueryContext ctx;
  Build(2000);
  // The k-th approximate neighbor can only be at >= the true k-th
  // distance (the approximate answer draws from the same point set).
  const auto queries = GenerateQueryPoints(data_, 20, 43, 1e-4);
  for (const auto& q : queries) {
    const auto approx = index_->KnnQuery(q, 10, ctx);
    const auto exact = index_->KnnQueryExact(q, 10, ctx);
    ASSERT_EQ(approx.size(), exact.size());
    EXPECT_GE(Dist(approx.back(), q), Dist(exact.back(), q) - 1e-12);
  }
}

TEST_P(RsmiParamTest, InsertedPointsAreFindable) {
  QueryContext ctx;
  Build(2000);
  const auto [dist, curve] = GetParam();
  const auto extra = GenerateDataset(dist, 400, 101);
  for (const auto& p : extra) {
    if (BruteForceContains(data_, p)) continue;
    index_->Insert(p);
    const auto found = index_->PointQuery(p, ctx);
    ASSERT_TRUE(found.has_value());
  }
  // Pre-existing points are unaffected.
  for (size_t i = 0; i < data_.size(); i += 7) {
    EXPECT_TRUE(index_->PointQuery(data_[i], ctx).has_value());
  }
}

TEST_P(RsmiParamTest, WindowExactStaysCorrectAfterInserts) {
  QueryContext ctx;
  Build(1500);
  const auto [dist, curve] = GetParam();
  auto extra = GenerateDataset(dist, 750, 103);  // +50% insertions
  std::vector<Point> all = data_;
  for (const auto& p : extra) {
    if (BruteForceContains(all, p)) continue;
    index_->Insert(p);
    all.push_back(p);
  }
  const auto windows = GenerateWindowQueries(all, 20, 0.002, 1.0, 23);
  for (const auto& w : windows) {
    auto result = index_->WindowQueryExact(w, ctx);
    const auto truth = BruteForceWindow(all, w);
    EXPECT_EQ(result.size(), truth.size());
  }
  // Approximate windows still return no false positives.
  for (const auto& w : windows) {
    for (const auto& p : index_->WindowQuery(w, ctx)) {
      EXPECT_TRUE(w.Contains(p));
    }
  }
}

TEST_P(RsmiParamTest, DeleteRemovesPoints) {
  QueryContext ctx;
  Build(2000);
  // Delete every third point.
  std::vector<Point> deleted;
  std::vector<Point> kept;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (i % 3 == 0) {
      EXPECT_TRUE(index_->Delete(data_[i]));
      deleted.push_back(data_[i]);
    } else {
      kept.push_back(data_[i]);
    }
  }
  for (size_t i = 0; i < deleted.size(); i += 5) {
    EXPECT_FALSE(index_->PointQuery(deleted[i], ctx).has_value());
    EXPECT_FALSE(index_->Delete(deleted[i]));  // double delete
  }
  for (size_t i = 0; i < kept.size(); i += 5) {
    EXPECT_TRUE(index_->PointQuery(kept[i], ctx).has_value());
  }
  // Exact window query reflects the deletions.
  const auto windows = GenerateWindowQueries(kept, 15, 0.002, 1.0, 29);
  for (const auto& w : windows) {
    const auto result = index_->WindowQueryExact(w, ctx);
    const auto truth = BruteForceWindow(kept, w);
    EXPECT_EQ(result.size(), truth.size());
  }
}

TEST_P(RsmiParamTest, DeletedSlotsAreReusedByInserts) {
  QueryContext ctx;
  Build(1000);
  const size_t blocks_before = index_->Stats().size_bytes;
  for (size_t i = 0; i < data_.size(); i += 2) index_->Delete(data_[i]);
  // Re-insert the same points. Insertions go to the *predicted* block
  // (Section 5), which is not necessarily where the deleted twin lived
  // and predictions concentrate on a few blocks per leaf, so reuse is
  // partial — but the index must stay far below doubling.
  for (size_t i = 0; i < data_.size(); i += 2) index_->Insert(data_[i]);
  const size_t blocks_after = index_->Stats().size_bytes;
  EXPECT_LE(blocks_after, blocks_before + blocks_before / 2);
  for (size_t i = 0; i < data_.size(); i += 2) {
    EXPECT_TRUE(index_->PointQuery(data_[i], ctx).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(
    DistributionsAndCurves, RsmiParamTest,
    ::testing::Combine(::testing::Values(Distribution::kUniform,
                                         Distribution::kNormal,
                                         Distribution::kSkewed,
                                         Distribution::kTiger,
                                         Distribution::kOsm),
                       ::testing::Values(CurveType::kHilbert, CurveType::kZ)),
    [](const ::testing::TestParamInfo<std::tuple<Distribution, CurveType>>&
           info) {
      return DistributionName(std::get<0>(info.param)) +
             CurveName(std::get<1>(info.param));
    });

// --- non-parameterized structural tests ---

TEST(RsmiStructureTest, StatsReflectRecursivePartitioning) {
  const auto data = GenerateUniform(5000, 3);
  RsmiConfig cfg = TestConfig();
  RsmiIndex index(data, cfg);
  const IndexStats s = index.Stats();
  EXPECT_EQ(s.name, "RSMI");
  EXPECT_EQ(s.num_points, data.size());
  EXPECT_GE(s.height, 2);      // 5000 > N=400 forces at least one split
  EXPECT_GT(s.num_models, 1u);
  EXPECT_GT(s.size_bytes, data.size() * sizeof(PointEntry) / 2);
  // The query's context records its depth (Section 6.2.2): one descent
  // through at least one internal sub-model and the leaf model.
  QueryContext ctx;
  index.PointQuery(data[0], ctx);
  EXPECT_EQ(ctx.descents, 1u);
  EXPECT_GE(ctx.model_invocations, 2u);
}

TEST(RsmiStructureTest, SingleLeafWhenSmall) {
  QueryContext ctx;
  const auto data = GenerateUniform(100, 4);
  RsmiConfig cfg = TestConfig();
  RsmiIndex index(data, cfg);
  EXPECT_EQ(index.Stats().height, 1);
  EXPECT_EQ(index.Stats().num_models, 1u);
  for (const auto& p : data) {
    EXPECT_TRUE(index.PointQuery(p, ctx).has_value());
  }
}

TEST(RsmiStructureTest, ErrorBoundsAreReported) {
  const auto data = GenerateSkewed(3000, 5);
  RsmiIndex index(data, TestConfig());
  EXPECT_GE(index.MaxErrBelow(), 0);
  EXPECT_GE(index.MaxErrAbove(), 0);
  // Bounds are tight enough to be useful: far below the leaf block count.
  EXPECT_LT(index.MaxErrBelow(), 400 / 20);
  EXPECT_LT(index.MaxErrAbove(), 400 / 20);
}

TEST(RsmiStructureTest, EmptyIndex) {
  QueryContext ctx;
  RsmiIndex index({}, TestConfig());
  EXPECT_FALSE(index.PointQuery(Point{0.5, 0.5}, ctx).has_value());
  EXPECT_TRUE(index.WindowQuery(Rect::UnitSquare(), ctx).empty());
  EXPECT_TRUE(index.WindowQueryExact(Rect::UnitSquare(), ctx).empty());
  EXPECT_TRUE(index.KnnQuery(Point{0.5, 0.5}, 5, ctx).empty());
  EXPECT_TRUE(index.KnnQueryExact(Point{0.5, 0.5}, 5, ctx).empty());
  EXPECT_FALSE(index.Delete(Point{0.5, 0.5}));
}

TEST(RsmiStructureTest, TinyDatasets) {
  QueryContext ctx;
  for (size_t n : {1u, 19u, 20u, 21u, 41u}) {
    const auto data = GenerateUniform(n, 6 + n);
    RsmiIndex index(data, TestConfig());
    for (const auto& p : data) {
      EXPECT_TRUE(index.PointQuery(p, ctx).has_value());
    }
    const auto knn = index.KnnQueryExact(Point{0.5, 0.5}, 5, ctx);
    EXPECT_EQ(knn.size(), std::min<size_t>(5, n));
  }
}

TEST(RsmiStructureTest, KnnLargerThanDataset) {
  QueryContext ctx;
  const auto data = GenerateUniform(50, 8);
  RsmiIndex index(data, TestConfig());
  EXPECT_EQ(index.KnnQueryExact(Point{0.1, 0.9}, 100, ctx).size(), 50u);
  EXPECT_EQ(index.KnnQuery(Point{0.1, 0.9}, 100, ctx).size(), 50u);
}

TEST(RsmiStructureTest, DeterministicBuildAndQueries) {
  QueryContext ctx;
  const auto data = GenerateOsmLike(2000, 12);
  RsmiConfig cfg = TestConfig();
  RsmiIndex a(data, cfg);
  RsmiIndex b(data, cfg);
  EXPECT_EQ(a.Stats().num_models, b.Stats().num_models);
  EXPECT_EQ(a.Stats().size_bytes, b.Stats().size_bytes);
  EXPECT_EQ(a.MaxErrBelow(), b.MaxErrBelow());
  const auto windows = GenerateWindowQueries(data, 10, 0.001, 1.0, 31);
  for (const auto& w : windows) {
    EXPECT_EQ(a.WindowQuery(w, ctx).size(), b.WindowQuery(w, ctx).size());
  }
}

TEST(RsmiStructureTest, BlockAccessCountingWorks) {
  const auto data = GenerateUniform(3000, 14);
  RsmiIndex index(data, TestConfig());
  QueryContext pctx;
  index.PointQuery(data[123], pctx);
  const uint64_t after_point = pctx.block_accesses;
  EXPECT_GE(after_point, 1u);
  // A point query touches at most err_below + err_above + 1 blocks.
  EXPECT_LE(after_point,
            static_cast<uint64_t>(index.MaxErrBelow() + index.MaxErrAbove() +
                                  1));
  // The descent is charged too: one completed descent, >= 1 sub-model.
  EXPECT_EQ(pctx.descents, 1u);
  EXPECT_GE(pctx.model_invocations, 1u);
  QueryContext wctx;
  index.WindowQuery(Rect{{0.4, 0.4}, {0.6, 0.6}}, wctx);
  EXPECT_GT(wctx.block_accesses, 0u);
}

TEST(RsmiRebuildTest, RebuildRestoresThresholdAndCorrectness) {
  QueryContext ctx;
  auto data = GenerateUniform(1200, 21);
  RsmiConfig cfg = TestConfig();
  RsmiIndex index(data, cfg);

  // Hammer one hotspot with insertions to overflow a leaf.
  Rng rng(77);
  std::vector<Point> all = data;
  for (int i = 0; i < 1500; ++i) {
    const Point p{0.25 + rng.Uniform() * 0.01, 0.25 + rng.Uniform() * 0.01};
    index.Insert(p);
    all.push_back(p);
  }
  const int rebuilt = index.RebuildOverflowingSubtrees();
  EXPECT_GE(rebuilt, 1);

  // Everything remains findable after the splice-in-place rebuild.
  for (size_t i = 0; i < all.size(); i += 3) {
    ASSERT_TRUE(index.PointQuery(all[i], ctx).has_value())
        << "lost point " << i << " after rebuild";
  }
  // Exact window query equals brute force across the rebuilt region.
  const Rect hot{{0.24, 0.24}, {0.27, 0.27}};
  EXPECT_EQ(index.WindowQueryExact(hot, ctx).size(),
            BruteForceWindow(all, hot).size());
  // Approximate window query across the whole space keeps working.
  const auto res = index.WindowQuery(Rect{{0.2, 0.2}, {0.3, 0.3}}, ctx);
  for (const auto& p : res) {
    EXPECT_TRUE((Rect{{0.2, 0.2}, {0.3, 0.3}}).Contains(p));
  }
  // A second call finds nothing else to rebuild.
  EXPECT_EQ(index.RebuildOverflowingSubtrees(), 0);
}

TEST(RsmiRebuildTest, RebuildOfRootLeaf) {
  QueryContext ctx;
  auto data = GenerateUniform(300, 22);
  RsmiConfig cfg = TestConfig();  // N=400: single leaf
  RsmiIndex index(data, cfg);
  ASSERT_EQ(index.Stats().height, 1);
  Rng rng(5);
  std::vector<Point> all = data;
  for (int i = 0; i < 300; ++i) {
    const Point p{rng.Uniform(), rng.Uniform()};
    index.Insert(p);
    all.push_back(p);
  }
  EXPECT_EQ(index.RebuildOverflowingSubtrees(), 1);
  EXPECT_GE(index.Stats().height, 2);  // grew past N: now recursive
  for (size_t i = 0; i < all.size(); i += 2) {
    EXPECT_TRUE(index.PointQuery(all[i], ctx).has_value());
  }
}

}  // namespace
}  // namespace rsmi
