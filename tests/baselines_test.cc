#include "baselines/factory.h"

#include <algorithm>
#include <cctype>
#include <memory>
#include <vector>

#include "baselines/bptree.h"
#include "baselines/zm_index.h"

#include "data/generators.h"
#include "data/ground_truth.h"
#include "data/workloads.h"
#include "gtest/gtest.h"

namespace rsmi {
namespace {

/// Small-scale build config shared by all conformance tests.
IndexBuildConfig TestConfig() {
  IndexBuildConfig cfg;
  cfg.block_capacity = 20;
  cfg.partition_threshold = 400;
  cfg.train.epochs = 60;
  cfg.train.batch_size = 128;
  cfg.internal_sample_cap = 2048;
  return cfg;
}

/// Conformance suite: every index kind, against brute force, on skewed
/// and clustered data.
class IndexConformance : public ::testing::TestWithParam<
                             std::tuple<IndexKind, Distribution>> {
 protected:
  void Build(size_t n) {
    const auto [kind, dist] = GetParam();
    kind_ = kind;
    data_ = GenerateDataset(dist, n, 42);
    index_ = MakeIndex(kind, data_, TestConfig());
    ASSERT_NE(index_, nullptr);
  }
  IndexKind kind_ = IndexKind::kGrid;
  std::vector<Point> data_;
  std::unique_ptr<SpatialIndex> index_;
};

TEST_P(IndexConformance, PointQueryFindsEveryIndexedPoint) {
  QueryContext ctx;
  Build(2500);
  for (size_t i = 0; i < data_.size(); ++i) {
    const auto found = index_->PointQuery(data_[i], ctx);
    ASSERT_TRUE(found.has_value()) << index_->Name() << " lost point " << i;
    EXPECT_TRUE(SamePosition(found->pt, data_[i]));
  }
}

TEST_P(IndexConformance, PointQueryRejectsNonIndexed) {
  QueryContext ctx;
  Build(1500);
  const auto probes = GenerateQueryPoints(data_, 150, 7, 1e-5);
  for (const auto& q : probes) {
    if (BruteForceContains(data_, q)) continue;
    EXPECT_FALSE(index_->PointQuery(q, ctx).has_value()) << index_->Name();
  }
}

TEST_P(IndexConformance, WindowQueryAgainstBruteForce) {
  QueryContext ctx;
  Build(3000);
  const auto windows = GenerateWindowQueries(data_, 25, 0.001, 1.0, 11);
  double recall_sum = 0.0;
  for (const auto& w : windows) {
    const auto result = index_->WindowQuery(w, ctx);
    for (const auto& p : result) {
      EXPECT_TRUE(w.Contains(p)) << index_->Name() << " false positive";
    }
    const auto truth = BruteForceWindow(data_, w);
    if (!HasApproximateQueries(kind_)) {
      EXPECT_EQ(result.size(), truth.size()) << index_->Name();
    }
    recall_sum += RecallOf(result, truth);
  }
  const double avg_recall = recall_sum / windows.size();
  if (HasApproximateQueries(kind_)) {
    EXPECT_GT(avg_recall, 0.85) << index_->Name();
  } else {
    EXPECT_DOUBLE_EQ(avg_recall, 1.0) << index_->Name();
  }
}

TEST_P(IndexConformance, KnnQueryAgainstBruteForce) {
  QueryContext ctx;
  Build(2000);
  const auto queries = GenerateQueryPoints(data_, 20, 17, 1e-4);
  double recall_sum = 0.0;
  size_t trials = 0;
  for (const auto& q : queries) {
    for (size_t k : {1, 10, 50}) {
      const auto result = index_->KnnQuery(q, k, ctx);
      const auto truth = BruteForceKnn(data_, q, k);
      ASSERT_EQ(result.size(), truth.size()) << index_->Name();
      if (!HasApproximateQueries(kind_)) {
        // Exact: distances must match the ground truth one by one.
        for (size_t i = 0; i < truth.size(); ++i) {
          EXPECT_NEAR(Dist(result[i], q), Dist(truth[i], q), 1e-12)
              << index_->Name() << " k=" << k << " i=" << i;
        }
      }
      recall_sum += RecallOf(result, truth);
      ++trials;
    }
  }
  const double avg_recall = recall_sum / trials;
  if (HasApproximateQueries(kind_)) {
    EXPECT_GT(avg_recall, 0.85) << index_->Name();
  } else {
    EXPECT_DOUBLE_EQ(avg_recall, 1.0) << index_->Name();
  }
}

TEST_P(IndexConformance, InsertionsAreFindableAndQueriesStayConsistent) {
  QueryContext ctx;
  Build(1200);
  const auto [kind, dist] = GetParam();
  const auto extra = GenerateDataset(dist, 600, 103);  // +50%
  std::vector<Point> all = data_;
  for (const auto& p : extra) {
    if (BruteForceContains(all, p)) continue;
    index_->Insert(p);
    all.push_back(p);
  }
  for (size_t i = data_.size(); i < all.size(); i += 3) {
    EXPECT_TRUE(index_->PointQuery(all[i], ctx).has_value())
        << index_->Name() << " lost inserted point";
  }
  const auto windows = GenerateWindowQueries(all, 15, 0.002, 1.0, 23);
  for (const auto& w : windows) {
    const auto result = index_->WindowQuery(w, ctx);
    for (const auto& p : result) {
      EXPECT_TRUE(w.Contains(p)) << index_->Name();
    }
    if (!HasApproximateQueries(kind_)) {
      EXPECT_EQ(result.size(), BruteForceWindow(all, w).size())
          << index_->Name();
    }
  }
}

TEST_P(IndexConformance, DeletionsTakeEffect) {
  QueryContext ctx;
  Build(1200);
  std::vector<Point> kept;
  for (size_t i = 0; i < data_.size(); ++i) {
    if (i % 4 == 0) {
      EXPECT_TRUE(index_->Delete(data_[i])) << index_->Name();
    } else {
      kept.push_back(data_[i]);
    }
  }
  for (size_t i = 0; i < data_.size(); i += 4) {
    EXPECT_FALSE(index_->PointQuery(data_[i], ctx).has_value())
        << index_->Name();
    EXPECT_FALSE(index_->Delete(data_[i])) << index_->Name();
  }
  for (size_t i = 1; i < data_.size(); i += 4) {
    EXPECT_TRUE(index_->PointQuery(data_[i], ctx).has_value())
        << index_->Name();
  }
  if (!HasApproximateQueries(kind_)) {
    const auto windows = GenerateWindowQueries(kept, 10, 0.002, 1.0, 29);
    for (const auto& w : windows) {
      EXPECT_EQ(index_->WindowQuery(w, ctx).size(),
                BruteForceWindow(kept, w).size())
          << index_->Name();
    }
  }
}

TEST_P(IndexConformance, StatsAndCountersAreSane) {
  Build(2000);
  const IndexStats s = index_->Stats();
  EXPECT_EQ(s.name, index_->Name());
  EXPECT_EQ(s.num_points, data_.size());
  EXPECT_GT(s.size_bytes, 0u);
  // A query charges its cost to the caller's context.
  QueryContext ctx;
  index_->PointQuery(data_[0], ctx);
  EXPECT_GT(ctx.block_accesses, 0u);
}

std::string ParamName(
    const ::testing::TestParamInfo<std::tuple<IndexKind, Distribution>>&
        info) {
  std::string name = IndexKindName(std::get<0>(info.param)) +
                     DistributionName(std::get<1>(info.param));
  // Sanitize "RR*".
  std::string out;
  for (char c : name) {
    if (std::isalnum(static_cast<unsigned char>(c))) out.push_back(c);
  }
  return out;
}

INSTANTIATE_TEST_SUITE_P(
    AllIndices, IndexConformance,
    ::testing::Combine(::testing::ValuesIn(AllIndexKinds()),
                       ::testing::Values(Distribution::kSkewed,
                                         Distribution::kOsm)),
    ParamName);

// --- structure-specific behaviour ---

TEST(FactoryTest, NamesAndApproximationFlags) {
  EXPECT_EQ(AllIndexKinds().size(), 7u);
  EXPECT_TRUE(HasApproximateQueries(IndexKind::kRsmi));
  EXPECT_TRUE(HasApproximateQueries(IndexKind::kZm));
  EXPECT_FALSE(HasApproximateQueries(IndexKind::kRsmia));
  EXPECT_FALSE(HasApproximateQueries(IndexKind::kHrr));
  const auto data = GenerateUniform(500, 1);
  for (IndexKind kind : AllIndexKinds()) {
    const auto idx = MakeIndex(kind, data, TestConfig());
    EXPECT_EQ(idx->Name(), IndexKindName(kind));
  }
}

TEST(HrrStructureTest, LargerThanRsmiDueToBTrees) {
  // Fig. 7a: "HRR is also larger than RSMI because it uses two extra
  // B-trees for its rank space mapping."
  const auto data = GenerateSkewed(5000, 3);
  const auto cfg = TestConfig();
  const auto hrr = MakeIndex(IndexKind::kHrr, data, cfg);
  const auto rsmi = MakeIndex(IndexKind::kRsmi, data, cfg);
  EXPECT_GT(hrr->Stats().size_bytes, rsmi->Stats().size_bytes);
}

TEST(ZmStructureTest, ErrorBoundsGrowWithSkew) {
  // Table 4: ZM's error bounds dwarf RSMI's on the same data.
  const auto data = GenerateSkewed(6000, 5);
  IndexBuildConfig cfg = TestConfig();
  ZmConfig zc;
  zc.block_capacity = cfg.block_capacity;
  zc.train = cfg.train;
  ZmIndex zm(data, zc);
  RsmiConfig rc;
  rc.block_capacity = cfg.block_capacity;
  rc.partition_threshold = cfg.partition_threshold;
  rc.train = cfg.train;
  RsmiIndex rsmi(data, rc);
  EXPECT_GT(zm.MaxErrBelow() + zm.MaxErrAbove(),
            rsmi.MaxErrBelow() + rsmi.MaxErrAbove());
}

TEST(KdbStructureTest, RegionsTileTheSpaceAfterInserts) {
  // Point queries must keep following a unique region path even after
  // many page splits.
  QueryContext ctx;
  auto data = GenerateOsmLike(800, 9);
  IndexBuildConfig cfg = TestConfig();
  auto kdb = MakeIndex(IndexKind::kKdb, data, cfg);
  auto extra = GenerateOsmLike(2400, 10);  // 3x build size: deep splits
  std::vector<Point> all = data;
  for (const auto& p : extra) {
    if (BruteForceContains(all, p)) continue;
    kdb->Insert(p);
    all.push_back(p);
  }
  for (size_t i = 0; i < all.size(); i += 5) {
    EXPECT_TRUE(kdb->PointQuery(all[i], ctx).has_value()) << "point " << i;
  }
  // Exactness after heavy splitting.
  const auto windows = GenerateWindowQueries(all, 15, 0.001, 1.0, 31);
  for (const auto& w : windows) {
    EXPECT_EQ(kdb->WindowQuery(w, ctx).size(), BruteForceWindow(all, w).size());
  }
}

TEST(RstarStructureTest, ForcedReinsertKeepsTreeValid) {
  // Build via pure insertions already exercises reinsertion; verify the
  // tree answers exactly afterwards.
  QueryContext ctx;
  const auto data = GenerateNormal(3000, 13);
  const auto rstar = MakeIndex(IndexKind::kRstar, data, TestConfig());
  const auto windows = GenerateWindowQueries(data, 20, 0.001, 2.0, 37);
  for (const auto& w : windows) {
    EXPECT_EQ(rstar->WindowQuery(w, ctx).size(),
              BruteForceWindow(data, w).size());
  }
}

TEST(GridStructureTest, UniformDataOneBlockPerCell) {
  const auto data = GenerateUniform(2000, 15);
  IndexBuildConfig cfg = TestConfig();  // B = 20 -> 10x10 grid
  const auto grid = MakeIndex(IndexKind::kGrid, data, cfg);
  QueryContext ctx;
  for (size_t i = 0; i < 100; ++i) grid->PointQuery(data[i * 7], ctx);
  // Under uniform data a point query reads ~1-2 blocks (its cell chain).
  EXPECT_LT(static_cast<double>(ctx.block_accesses) / 100.0, 2.5);
}

TEST(BptreeTest, RankLookupsAndAccounting) {
  std::vector<double> vals = {0.1, 0.2, 0.2, 0.4, 0.9};
  BPlusTree bt(vals, 2);
  QueryContext ctx;
  EXPECT_EQ(bt.RankLower(0.05, &ctx), 0u);
  EXPECT_EQ(bt.RankLower(0.2, &ctx), 1u);
  EXPECT_EQ(bt.RankUpper(0.2, &ctx), 3u);
  EXPECT_EQ(bt.RankLower(1.0, &ctx), 5u);
  EXPECT_GT(ctx.block_accesses, 0u);
  const uint64_t before = ctx.block_accesses;
  bt.RankLower(0.5, /*ctx=*/nullptr);
  EXPECT_EQ(ctx.block_accesses, before);
  EXPECT_GE(bt.height(), 2);
  EXPECT_GT(bt.SizeBytes(), vals.size() * sizeof(double) - 1);
}

}  // namespace
}  // namespace rsmi
