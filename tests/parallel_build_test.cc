// Parallel bulk load (RsmiConfig::build_threads): any thread count must
// produce a bit-identical index — same structure, same error bounds, same
// answers — because blocks are packed sequentially and every model's seed
// is fixed at pack time.
#include <memory>
#include <stdexcept>
#include <vector>

#include "baselines/grid_file.h"
#include "core/rsmi_index.h"
#include "data/generators.h"
#include "data/workloads.h"
#include "gtest/gtest.h"
#include "io/index_container.h"
#include "shard/sharded_index.h"

namespace rsmi {
namespace {

RsmiConfig ConfigWithThreads(int threads) {
  RsmiConfig cfg;
  cfg.block_capacity = 20;
  cfg.partition_threshold = 400;
  cfg.train.epochs = 60;
  cfg.build_threads = threads;
  return cfg;
}

class ParallelBuildTest : public ::testing::TestWithParam<int> {};

TEST_P(ParallelBuildTest, BitIdenticalToSequentialBuild) {
  QueryContext ctx;
  const auto data = GenerateDataset(Distribution::kOsm, 4000, 51);
  RsmiIndex sequential(data, ConfigWithThreads(1));
  RsmiIndex parallel(data, ConfigWithThreads(GetParam()));

  // Identical structure and bounds.
  const IndexStats a = sequential.Stats();
  const IndexStats b = parallel.Stats();
  EXPECT_EQ(a.height, b.height);
  EXPECT_EQ(a.num_models, b.num_models);
  EXPECT_EQ(a.size_bytes, b.size_bytes);
  EXPECT_EQ(sequential.MaxErrBelow(), parallel.MaxErrBelow());
  EXPECT_EQ(sequential.MaxErrAbove(), parallel.MaxErrAbove());
  EXPECT_EQ(sequential.block_store().NumBlocks(),
            parallel.block_store().NumBlocks());

  // Identical block layout.
  for (size_t id = 0; id < sequential.block_store().NumBlocks(); ++id) {
    const Block& ba = sequential.block_store().Peek(static_cast<int>(id));
    const Block& bb = parallel.block_store().Peek(static_cast<int>(id));
    ASSERT_EQ(ba.entries.size(), bb.entries.size()) << "block " << id;
    for (size_t i = 0; i < ba.entries.size(); ++i) {
      ASSERT_TRUE(SamePosition(ba.entries[i].pt, bb.entries[i].pt));
      ASSERT_EQ(ba.entries[i].id, bb.entries[i].id);
    }
  }

  // Identical answers (point, window, kNN) on shared workloads.
  const auto windows = GenerateWindowQueries(data, 20, 0.002, 1.0, 52);
  for (const Rect& w : windows) {
    const auto wa = sequential.WindowQuery(w, ctx);
    const auto wb = parallel.WindowQuery(w, ctx);
    ASSERT_EQ(wa.size(), wb.size());
    for (size_t i = 0; i < wa.size(); ++i) {
      ASSERT_TRUE(SamePosition(wa[i], wb[i]));
    }
  }
  const auto queries = GenerateQueryPoints(data, 50, 53, 1e-4);
  for (const auto& q : queries) {
    const auto ka = sequential.KnnQuery(q, 10, ctx);
    const auto kb = parallel.KnnQuery(q, 10, ctx);
    ASSERT_EQ(ka.size(), kb.size());
    for (size_t i = 0; i < ka.size(); ++i) {
      ASSERT_TRUE(SamePosition(ka[i], kb[i]));
    }
  }
  for (size_t i = 0; i < data.size(); i += 13) {
    ASSERT_EQ(sequential.PointQuery(data[i], ctx).has_value(),
              parallel.PointQuery(data[i], ctx).has_value());
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ParallelBuildTest,
                         ::testing::Values(2, 4, 8, 16),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

TEST(ParallelBuildTest, UpdatesWorkAfterParallelBuild) {
  QueryContext ctx;
  const auto data = GenerateDataset(Distribution::kSkewed, 3000, 54);
  RsmiIndex index(data, ConfigWithThreads(4));
  for (int i = 0; i < 200; ++i) {
    const Point p{0.1 + i * 0.004, 0.2 + i * 0.003};
    index.Insert(p);
    ASSERT_TRUE(index.PointQuery(p, ctx).has_value());
  }
  // Rebuild (sequential path) after a parallel build.
  index.RebuildOverflowingSubtrees();
  for (int i = 0; i < 200; ++i) {
    const Point p{0.1 + i * 0.004, 0.2 + i * 0.003};
    ASSERT_TRUE(index.PointQuery(p, ctx).has_value());
  }
}

TEST(ParallelBuildTest, SaveLoadOfParallelBuiltIndex) {
  QueryContext ctx;
  const auto data = GenerateDataset(Distribution::kNormal, 2500, 55);
  RsmiIndex index(data, ConfigWithThreads(4));
  const std::string path = ::testing::TempDir() + "/parallel_built.idx";
  ASSERT_TRUE(SaveIndex(index, path));
  auto loaded = LoadIndex(path);
  ASSERT_NE(loaded, nullptr);
  for (size_t i = 0; i < data.size(); i += 17) {
    EXPECT_TRUE(loaded->PointQuery(data[i], ctx).has_value());
  }
}

TEST(ParallelBuildTest, MoreThreadsThanLeavesIsFine) {
  QueryContext ctx;
  const auto data = GenerateDataset(Distribution::kUniform, 300, 56);
  RsmiConfig cfg = ConfigWithThreads(64);
  RsmiIndex index(data, cfg);
  for (size_t i = 0; i < data.size(); i += 5) {
    EXPECT_TRUE(index.PointQuery(data[i], ctx).has_value());
  }
}

// A shard build that fails on a worker thread must fail the ShardedIndex
// constructor on the calling thread, exactly as on one thread — never
// std::terminate the process.
class ShardBuildFailureTest : public ::testing::TestWithParam<int> {
 protected:
  std::unique_ptr<ShardedIndex> Build(const ShardBuilder& builder) const {
    ShardedIndexConfig cfg;
    cfg.num_shards = 4;
    cfg.build_threads = GetParam();
    return std::make_unique<ShardedIndex>(
        GenerateDataset(Distribution::kUniform, 2000, 57), cfg, builder);
  }
};

TEST_P(ShardBuildFailureTest, BuilderExceptionReachesTheCaller) {
  const ShardBuilder builder = [](const std::vector<Point>& pts, int shard)
      -> std::unique_ptr<SpatialIndex> {
    if (shard == 2) throw std::invalid_argument("shard 2 failed");
    return std::make_unique<GridFile>(pts, GridConfig{});
  };
  try {
    Build(builder);
    ADD_FAILURE() << "the constructor returned";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "shard 2 failed");
  }
}

TEST_P(ShardBuildFailureTest, NullShardThrowsRuntimeError) {
  const ShardBuilder builder = [](const std::vector<Point>& pts, int shard)
      -> std::unique_ptr<SpatialIndex> {
    if (shard == 1) return nullptr;
    return std::make_unique<GridFile>(pts, GridConfig{});
  };
  EXPECT_THROW(Build(builder), std::runtime_error);
}

INSTANTIATE_TEST_SUITE_P(BuildThreads, ShardBuildFailureTest,
                         ::testing::Values(1, 4),
                         [](const auto& info) {
                           return "threads" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace rsmi
