// Update-strategy extensions: FITing-tree-style per-leaf insert buffers
// (UpdateStrategy::kLeafBuffer) and ALEX-style build-time gapping
// (build_fill_factor), compared for correctness against the paper's
// overflow-chain scheme (Section 5) and brute force.
#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/rsmi_index.h"
#include "data/generators.h"
#include "data/ground_truth.h"
#include "data/workloads.h"
#include "gtest/gtest.h"
#include "io/index_container.h"

namespace rsmi {
namespace {

RsmiConfig BaseConfig() {
  RsmiConfig cfg;
  cfg.block_capacity = 20;
  cfg.partition_threshold = 400;
  cfg.train.epochs = 60;
  return cfg;
}

std::vector<Point> InsertStream(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<Point> pts(count);
  for (auto& p : pts) p = Point{rng.Uniform(), rng.Uniform()};
  return pts;
}

class UpdateStrategyTest : public ::testing::TestWithParam<UpdateStrategy> {
 protected:
  RsmiConfig Config() const {
    RsmiConfig cfg = BaseConfig();
    cfg.update_strategy = GetParam();
    return cfg;
  }
};

TEST_P(UpdateStrategyTest, InsertedPointsAreFindable) {
  QueryContext ctx;
  const auto data = GenerateDataset(Distribution::kSkewed, 2000, 3);
  RsmiIndex index(data, Config());
  const auto stream = InsertStream(500, 77);
  for (const auto& p : stream) index.Insert(p);
  for (const auto& p : stream) {
    EXPECT_TRUE(index.PointQuery(p, ctx).has_value());
  }
  // Original points remain findable too.
  for (size_t i = 0; i < data.size(); i += 7) {
    EXPECT_TRUE(index.PointQuery(data[i], ctx).has_value());
  }
}

TEST_P(UpdateStrategyTest, WindowQueriesSeeInsertedPoints) {
  QueryContext ctx;
  const auto data = GenerateDataset(Distribution::kNormal, 2000, 4);
  RsmiIndex index(data, Config());
  const auto stream = InsertStream(600, 78);
  for (const auto& p : stream) index.Insert(p);

  std::vector<Point> all = data;
  all.insert(all.end(), stream.begin(), stream.end());
  const auto windows = GenerateWindowQueries(all, 25, 0.002, 1.0, 11);
  for (const Rect& w : windows) {
    const auto got = index.WindowQueryExact(w, ctx);
    const auto want = BruteForceWindow(all, w);
    EXPECT_EQ(got.size(), want.size());
    // The approximate window query must not return false positives and
    // must see at least the buffered points it is responsible for.
    for (const Point& p : index.WindowQuery(w, ctx)) {
      EXPECT_TRUE(w.Contains(p));
    }
  }
}

TEST_P(UpdateStrategyTest, KnnSeesInsertedPoints) {
  QueryContext ctx;
  const auto data = GenerateDataset(Distribution::kUniform, 1500, 5);
  RsmiIndex index(data, Config());
  const auto stream = InsertStream(400, 79);
  for (const auto& p : stream) index.Insert(p);

  std::vector<Point> all = data;
  all.insert(all.end(), stream.begin(), stream.end());
  const auto queries = GenerateQueryPoints(all, 40, 13, 1e-4);
  for (const auto& q : queries) {
    const auto exact = index.KnnQueryExact(q, 10, ctx);
    const auto truth = BruteForceKnn(all, q, 10);
    ASSERT_EQ(exact.size(), truth.size());
    for (size_t i = 0; i < exact.size(); ++i) {
      EXPECT_NEAR(Dist(q, exact[i]), Dist(q, truth[i]), 1e-12);
    }
    // Approximate kNN: recall against the updated data set stays high.
    const auto approx = index.KnnQuery(q, 10, ctx);
    EXPECT_GE(RecallOf(approx, truth), 0.5);
  }
}

TEST_P(UpdateStrategyTest, DeleteRemovesInsertedAndBuiltPoints) {
  QueryContext ctx;
  const auto data = GenerateDataset(Distribution::kTiger, 1200, 6);
  RsmiIndex index(data, Config());
  const auto stream = InsertStream(300, 80);
  for (const auto& p : stream) index.Insert(p);

  // Delete every 3rd inserted and every 5th built point.
  size_t deleted = 0;
  for (size_t i = 0; i < stream.size(); i += 3) {
    EXPECT_TRUE(index.Delete(stream[i]));
    ++deleted;
  }
  for (size_t i = 0; i < data.size(); i += 5) {
    EXPECT_TRUE(index.Delete(data[i]));
    ++deleted;
  }
  EXPECT_EQ(index.Stats().num_points, data.size() + stream.size() - deleted);

  for (size_t i = 0; i < stream.size(); i += 3) {
    EXPECT_FALSE(index.PointQuery(stream[i], ctx).has_value());
  }
  for (size_t i = 0; i < data.size(); i += 5) {
    EXPECT_FALSE(index.PointQuery(data[i], ctx).has_value());
  }
  // Deleting twice fails cleanly.
  EXPECT_FALSE(index.Delete(stream[0]));
}

TEST_P(UpdateStrategyTest, SaveLoadPreservesPendingInserts) {
  QueryContext ctx;
  const auto data = GenerateDataset(Distribution::kOsm, 1500, 7);
  RsmiIndex index(data, Config());
  const auto stream = InsertStream(250, 81);
  for (const auto& p : stream) index.Insert(p);

  const std::string path =
      ::testing::TempDir() + "/update_strategy_" +
      std::to_string(static_cast<int>(GetParam())) + ".idx";
  ASSERT_TRUE(SaveIndex(index, path));
  auto loaded = LoadIndex(path);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->Stats().num_points, index.Stats().num_points);
  for (const auto& p : stream) {
    EXPECT_TRUE(loaded->PointQuery(p, ctx).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(AllStrategies, UpdateStrategyTest,
                         ::testing::Values(UpdateStrategy::kOverflowChain,
                                           UpdateStrategy::kLeafBuffer),
                         [](const auto& info) {
                           return info.param == UpdateStrategy::kOverflowChain
                                      ? "OverflowChain"
                                      : "LeafBuffer";
                         });

TEST(LeafBufferTest, BufferMergesWhenFull) {
  QueryContext ctx;
  const auto data = GenerateDataset(Distribution::kUniform, 1000, 8);
  RsmiConfig cfg = BaseConfig();
  cfg.update_strategy = UpdateStrategy::kLeafBuffer;
  cfg.leaf_buffer_capacity = 16;
  RsmiIndex index(data, cfg);
  const size_t blocks_before = index.block_store().NumBlocks();

  // Insert enough points into one small area that some leaf's buffer must
  // fill and merge: a merge re-packs blocks, so the store grows.
  Rng rng(9);
  for (int i = 0; i < 400; ++i) {
    index.Insert(Point{0.4 + 0.01 * rng.Uniform(), 0.4 + 0.01 * rng.Uniform()});
  }
  EXPECT_GT(index.block_store().NumBlocks(), blocks_before);

  // Everything is findable after the merges.
  Rng rng2(9);
  for (int i = 0; i < 400; ++i) {
    const Point p{0.4 + 0.01 * rng2.Uniform(), 0.4 + 0.01 * rng2.Uniform()};
    EXPECT_TRUE(index.PointQuery(p, ctx).has_value());
  }
}

TEST(LeafBufferTest, NoOverflowBlocksCreated) {
  // Under kLeafBuffer, insertions never splice overflow blocks; growth
  // happens only through merges (rebuilds), which create regular blocks.
  const auto data = GenerateDataset(Distribution::kSkewed, 1500, 10);
  RsmiConfig cfg = BaseConfig();
  cfg.update_strategy = UpdateStrategy::kLeafBuffer;
  RsmiIndex index(data, cfg);
  for (const auto& p : InsertStream(800, 82)) index.Insert(p);
  const BlockStore& store = index.block_store();
  for (size_t id = 0; id < store.NumBlocks(); ++id) {
    EXPECT_FALSE(store.Peek(static_cast<int>(id)).inserted);
  }
}

TEST(FillFactorTest, GapsAbsorbInsertsWithoutOverflowBlocks) {
  QueryContext ctx;
  const auto data = GenerateDataset(Distribution::kUniform, 2000, 11);

  auto count_overflow = [](const RsmiIndex& index) {
    const BlockStore& store = index.block_store();
    size_t n = 0;
    for (size_t id = 0; id < store.NumBlocks(); ++id) {
      n += store.Peek(static_cast<int>(id)).inserted;
    }
    return n;
  };

  RsmiConfig dense = BaseConfig();
  RsmiIndex dense_index(data, dense);
  RsmiConfig gapped = BaseConfig();
  gapped.build_fill_factor = 0.7;
  RsmiIndex gapped_index(data, gapped);

  const auto stream = InsertStream(500, 83);
  for (const auto& p : stream) {
    dense_index.Insert(p);
    gapped_index.Insert(p);
  }
  // Dense packing must overflow (every block was full); gapping absorbs
  // most insertions in place.
  EXPECT_GT(count_overflow(dense_index), 0u);
  EXPECT_LT(count_overflow(gapped_index), count_overflow(dense_index));

  // Identical answers from both layouts.
  for (const auto& p : stream) {
    EXPECT_TRUE(gapped_index.PointQuery(p, ctx).has_value());
  }
  std::vector<Point> all = data;
  all.insert(all.end(), stream.begin(), stream.end());
  const auto windows = GenerateWindowQueries(all, 20, 0.002, 1.0, 15);
  for (const Rect& w : windows) {
    EXPECT_EQ(gapped_index.WindowQueryExact(w, ctx).size(),
              BruteForceWindow(all, w).size());
  }
}

TEST(FillFactorTest, GappedBuildUsesMoreBlocks) {
  QueryContext ctx;
  const auto data = GenerateDataset(Distribution::kNormal, 2000, 12);
  RsmiConfig dense = BaseConfig();
  RsmiConfig gapped = BaseConfig();
  gapped.build_fill_factor = 0.5;
  RsmiIndex dense_index(data, dense);
  RsmiIndex gapped_index(data, gapped);
  // Half-full blocks => roughly twice as many of them.
  EXPECT_GT(gapped_index.block_store().NumBlocks(),
            dense_index.block_store().NumBlocks() * 3 / 2);
  // Queries stay correct on the gapped layout.
  for (size_t i = 0; i < data.size(); i += 9) {
    EXPECT_TRUE(gapped_index.PointQuery(data[i], ctx).has_value());
  }
}

TEST(FillFactorTest, RsmirRebuildKeepsStrategySemantics) {
  // RSMIr periodic rebuild under kLeafBuffer drains buffers; overflowing
  // leaves disappear and all points stay reachable.
  QueryContext ctx;
  const auto data = GenerateDataset(Distribution::kSkewed, 1500, 13);
  RsmiConfig cfg = BaseConfig();
  cfg.update_strategy = UpdateStrategy::kLeafBuffer;
  RsmiIndex index(data, cfg);
  const auto stream = InsertStream(700, 84);
  for (const auto& p : stream) index.Insert(p);
  index.RebuildOverflowingSubtrees();
  for (const auto& p : stream) {
    EXPECT_TRUE(index.PointQuery(p, ctx).has_value());
  }
  for (size_t i = 0; i < data.size(); i += 11) {
    EXPECT_TRUE(index.PointQuery(data[i], ctx).has_value());
  }
}

}  // namespace
}  // namespace rsmi
