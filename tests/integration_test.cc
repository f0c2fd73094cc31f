// End-to-end integration tests: all indices processing the same mixed
// workload must agree with each other and with brute force, through
// builds, query mixes, interleaved updates, and rebuilds.
#include <algorithm>
#include <memory>
#include <vector>

#include "baselines/factory.h"
#include "common/rng.h"
#include "data/generators.h"
#include "data/ground_truth.h"
#include "data/workloads.h"
#include "gtest/gtest.h"

namespace rsmi {
namespace {

IndexBuildConfig SmallConfig() {
  IndexBuildConfig cfg;
  cfg.block_capacity = 20;
  cfg.partition_threshold = 400;
  cfg.train.epochs = 60;
  cfg.train.batch_size = 128;
  cfg.internal_sample_cap = 2048;
  return cfg;
}

TEST(IntegrationTest, AllExactIndicesAgreeOnMixedWorkload) {
  QueryContext ctx;
  const auto data = GenerateDataset(Distribution::kOsm, 3000, 5);
  std::vector<std::unique_ptr<SpatialIndex>> exact;
  for (IndexKind kind : {IndexKind::kGrid, IndexKind::kHrr, IndexKind::kKdb,
                         IndexKind::kRstar, IndexKind::kRsmia}) {
    exact.push_back(MakeIndex(kind, data, SmallConfig()));
  }
  const auto windows = GenerateWindowQueries(data, 30, 0.001, 1.0, 3);
  for (const auto& w : windows) {
    const size_t truth = BruteForceWindow(data, w).size();
    for (const auto& idx : exact) {
      EXPECT_EQ(idx->WindowQuery(w, ctx).size(), truth) << idx->Name();
    }
  }
  const auto queries = GenerateQueryPoints(data, 20, 7, 1e-4);
  for (const auto& q : queries) {
    const auto truth = BruteForceKnn(data, q, 10);
    const double kth = Dist(truth.back(), q);
    for (const auto& idx : exact) {
      const auto got = idx->KnnQuery(q, 10, ctx);
      ASSERT_EQ(got.size(), truth.size()) << idx->Name();
      EXPECT_NEAR(Dist(got.back(), q), kth, 1e-12) << idx->Name();
    }
  }
}

TEST(IntegrationTest, InterleavedLifecycleStaysConsistent) {
  // A long interleaved stream of inserts, deletes, and queries against
  // every index, checked against a shadow set of live points.
  QueryContext ctx;
  const auto initial = GenerateDataset(Distribution::kNormal, 1000, 9);
  const auto stream_pts = GenerateDataset(Distribution::kNormal, 1500, 10);

  for (IndexKind kind : AllIndexKinds()) {
    auto index = MakeIndex(kind, initial, SmallConfig());
    std::vector<Point> live = initial;
    Rng rng(11);
    size_t cursor = 0;

    for (int step = 0; step < 900; ++step) {
      const double dice = rng.Uniform();
      if (dice < 0.5 && cursor < stream_pts.size()) {
        const Point p = stream_pts[cursor++];
        if (!BruteForceContains(live, p)) {
          index->Insert(p);
          live.push_back(p);
        }
      } else if (dice < 0.75 && !live.empty()) {
        const size_t victim = rng.UniformInt(0, live.size() - 1);
        EXPECT_TRUE(index->Delete(live[victim]))
            << IndexKindName(kind) << " failed to delete";
        live[victim] = live.back();
        live.pop_back();
      } else if (!live.empty()) {
        const Point q = live[rng.UniformInt(0, live.size() - 1)];
        EXPECT_TRUE(index->PointQuery(q, ctx).has_value())
            << IndexKindName(kind) << " lost a live point at step " << step;
      }
    }
    // Final state check: every live point present, sampled heavily.
    for (size_t i = 0; i < live.size(); i += 2) {
      EXPECT_TRUE(index->PointQuery(live[i], ctx).has_value())
          << IndexKindName(kind);
    }
    EXPECT_EQ(index->Stats().num_points, live.size()) << IndexKindName(kind);
  }
}

TEST(IntegrationTest, RsmirLifecycleWithRebuilds) {
  // RSMI under sustained insertions with RSMIr-style periodic rebuilds:
  // query quality and correctness must survive multiple rebuild rounds.
  QueryContext ctx;
  const auto initial = GenerateDataset(Distribution::kSkewed, 1000, 13);
  RsmiConfig cfg;
  cfg.block_capacity = 20;
  cfg.partition_threshold = 400;
  cfg.train.epochs = 60;
  cfg.train.batch_size = 128;
  RsmiIndex index(initial, cfg);

  std::vector<Point> live = initial;
  // Insertions spread over ~16 leaves of ~60 build points each; 8000
  // inserts push leaves past N=400 and force several rebuild rounds.
  const auto stream = GenerateDataset(Distribution::kSkewed, 8000, 14);
  int total_rebuilds = 0;
  for (size_t i = 0; i < stream.size(); ++i) {
    if (BruteForceContains(live, stream[i])) continue;
    index.Insert(stream[i]);
    live.push_back(stream[i]);
    if ((i + 1) % 1000 == 0) {
      total_rebuilds += index.RebuildOverflowingSubtrees();
      // After a rebuild everything must still be reachable.
      for (size_t j = 0; j < live.size(); j += 7) {
        ASSERT_TRUE(index.PointQuery(live[j], ctx).has_value())
            << "lost point after rebuild at step " << i;
      }
    }
  }
  EXPECT_GT(total_rebuilds, 0);

  // Exact queries agree with brute force at the end.
  const auto windows = GenerateWindowQueries(live, 20, 0.002, 1.0, 15);
  for (const auto& w : windows) {
    EXPECT_EQ(index.WindowQueryExact(w, ctx).size(),
              BruteForceWindow(live, w).size());
  }
  // Approximate window recall is still healthy after all the churn.
  double recall = 0.0;
  for (const auto& w : windows) {
    const auto truth = BruteForceWindow(live, w);
    recall += RecallOf(index.WindowQuery(w, ctx), truth);
  }
  EXPECT_GT(recall / windows.size(), 0.8);
}

TEST(IntegrationTest, ApproximateWindowsNeverReturnFalsePositives) {
  // Sweep window sizes and aspect ratios on the learned indices: the "no
  // false positives" guarantee (Section 4.2) must hold universally.
  QueryContext ctx;
  const auto data = GenerateDataset(Distribution::kTiger, 2500, 17);
  for (IndexKind kind : {IndexKind::kRsmi, IndexKind::kZm}) {
    auto index = MakeIndex(kind, data, SmallConfig());
    for (double area : {0.00001, 0.0001, 0.001, 0.01}) {
      for (double aspect : {0.25, 1.0, 4.0}) {
        const auto windows =
            GenerateWindowQueries(data, 10, area, aspect, 19);
        for (const auto& w : windows) {
          for (const auto& p : index->WindowQuery(w, ctx)) {
            ASSERT_TRUE(w.Contains(p))
                << IndexKindName(kind) << " false positive at area=" << area;
          }
        }
      }
    }
  }
}

TEST(IntegrationTest, StatsConsistentAcrossIndicesOnSameData) {
  const auto data = GenerateDataset(Distribution::kUniform, 4000, 21);
  const auto cfg = SmallConfig();
  for (IndexKind kind : AllIndexKinds()) {
    auto index = MakeIndex(kind, data, cfg);
    const IndexStats s = index->Stats();
    EXPECT_EQ(s.num_points, data.size()) << IndexKindName(kind);
    // Every index must at least store the data blocks: n/B blocks worth.
    const size_t min_bytes =
        data.size() / cfg.block_capacity * cfg.block_capacity *
        sizeof(PointEntry);
    EXPECT_GE(s.size_bytes, min_bytes) << IndexKindName(kind);
    EXPECT_LT(s.size_bytes, min_bytes * 20) << IndexKindName(kind);
  }
}

}  // namespace
}  // namespace rsmi
