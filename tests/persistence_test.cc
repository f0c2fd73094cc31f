// Persistence round-trip tests over the polymorphic container API: for
// every factory-constructible spec, save -> LoadIndex -> query must be
// bit-identical to the never-persisted index — same results AND the same
// QueryContext counters (block accesses, model invocations, descents,
// nodes visited) — including after inserts and deletes, and recursively
// for sharded specs (the shards reload from their nested containers
// without rebuilding). Plus the original RSMI-specific suite, now routed
// through the same container files.
#include <cctype>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "baselines/factory.h"
#include "common/rng.h"
#include "core/rsmi_index.h"
#include "data/generators.h"
#include "data/ground_truth.h"
#include "data/workloads.h"
#include "io/index_container.h"
#include "shard/sharded_index.h"
#include "gtest/gtest.h"

namespace rsmi {
namespace {

RsmiConfig TestConfig() {
  RsmiConfig cfg;
  cfg.block_capacity = 20;
  cfg.partition_threshold = 400;
  cfg.train.epochs = 60;
  cfg.train.batch_size = 128;
  cfg.internal_sample_cap = 2048;
  return cfg;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

// --- round-trip parity for every factory-constructible spec ---

IndexBuildConfig SpecConfig() {
  IndexBuildConfig cfg;
  cfg.block_capacity = 20;
  cfg.partition_threshold = 400;
  cfg.train.epochs = 40;
  cfg.train.batch_size = 128;
  cfg.internal_sample_cap = 2048;
  return cfg;
}

/// Everything one query battery observes: results of point (scalar and
/// batched), window, and kNN queries, plus every QueryContext counter.
struct QueryTrace {
  std::vector<std::optional<PointEntry>> points;
  std::vector<std::optional<PointEntry>> batched;
  std::vector<std::vector<Point>> windows;
  std::vector<std::vector<Point>> knns;
  QueryContext cost;
};

QueryTrace RunBattery(const SpatialIndex& index,
                      const std::vector<Point>& probes,
                      const std::vector<Rect>& windows,
                      const std::vector<Point>& knn_queries) {
  QueryTrace t;
  for (const Point& q : probes) {
    t.points.push_back(index.PointQuery(q, t.cost));
  }
  t.batched.resize(probes.size());
  std::vector<QueryContext> batch_costs(probes.size());
  index.PointQueryBatch(probes.data(), probes.size(), batch_costs.data(),
                        t.batched.data());
  for (const QueryContext& c : batch_costs) t.cost.MergeFrom(c);
  for (const Rect& w : windows) {
    t.windows.push_back(index.WindowQuery(w, t.cost));
  }
  for (const Point& q : knn_queries) {
    t.knns.push_back(index.KnnQuery(q, 10, t.cost));
  }
  return t;
}

/// Bit-identical: exact doubles, exact ids, exact ordering, and every
/// counter equal.
void ExpectSameTrace(const QueryTrace& want, const QueryTrace& got) {
  ASSERT_EQ(want.points.size(), got.points.size());
  for (size_t i = 0; i < want.points.size(); ++i) {
    ASSERT_EQ(want.points[i].has_value(), got.points[i].has_value()) << i;
    if (want.points[i].has_value()) {
      EXPECT_EQ(want.points[i]->pt.x, got.points[i]->pt.x) << i;
      EXPECT_EQ(want.points[i]->pt.y, got.points[i]->pt.y) << i;
      EXPECT_EQ(want.points[i]->id, got.points[i]->id) << i;
    }
    ASSERT_EQ(want.batched[i].has_value(), got.batched[i].has_value()) << i;
    if (want.batched[i].has_value()) {
      EXPECT_EQ(want.batched[i]->id, got.batched[i]->id) << i;
    }
  }
  ASSERT_EQ(want.windows.size(), got.windows.size());
  for (size_t i = 0; i < want.windows.size(); ++i) {
    ASSERT_EQ(want.windows[i].size(), got.windows[i].size()) << i;
    for (size_t j = 0; j < want.windows[i].size(); ++j) {
      EXPECT_EQ(want.windows[i][j].x, got.windows[i][j].x) << i;
      EXPECT_EQ(want.windows[i][j].y, got.windows[i][j].y) << i;
    }
  }
  ASSERT_EQ(want.knns.size(), got.knns.size());
  for (size_t i = 0; i < want.knns.size(); ++i) {
    ASSERT_EQ(want.knns[i].size(), got.knns[i].size()) << i;
    for (size_t j = 0; j < want.knns[i].size(); ++j) {
      EXPECT_EQ(want.knns[i][j].x, got.knns[i][j].x) << i;
      EXPECT_EQ(want.knns[i][j].y, got.knns[i][j].y) << i;
    }
  }
  EXPECT_EQ(want.cost.block_accesses, got.cost.block_accesses);
  EXPECT_EQ(want.cost.model_invocations, got.cost.model_invocations);
  EXPECT_EQ(want.cost.descents, got.cost.descents);
  EXPECT_EQ(want.cost.nodes_visited, got.cost.nodes_visited);
}

class SpecRoundTrip : public ::testing::TestWithParam<const char*> {};

TEST_P(SpecRoundTrip, SaveLoadQueryIsBitIdenticalInclCountersAndUpdates) {
  const std::string spec = GetParam();
  const auto data = GenerateDataset(Distribution::kSkewed, 2500, 17);
  auto original = MakeIndexFromSpec(spec, data, SpecConfig());
  ASSERT_NE(original, nullptr);

  std::vector<Point> probes;
  for (size_t i = 0; i < data.size(); i += 3) probes.push_back(data[i]);
  for (size_t i = 1; i < data.size(); i += 13) {
    probes.push_back(Point{data[i].x + 1e-4, data[i].y - 1e-4});  // misses
  }
  const auto windows = GenerateWindowQueries(data, 15, 0.001, 1.0, 7);
  const auto knn_queries = GenerateQueryPoints(data, 10, 9, 1e-4);

  const std::string path = TempPath("spec_roundtrip.idx");
  std::string err;
  ASSERT_TRUE(SaveIndex(*original, path, &err)) << err;
  auto loaded = LoadIndex(path, &err);
  ASSERT_NE(loaded, nullptr) << err;

  // The embedded spec restores the exact same kind (and, for sharded
  // specs, the same shard structure — no rebuild happened).
  EXPECT_EQ(loaded->KindSpec(), original->KindSpec());
  EXPECT_EQ(loaded->Name(), original->Name());
  EXPECT_EQ(loaded->Stats().num_points, original->Stats().num_points);
  EXPECT_EQ(loaded->Stats().height, original->Stats().height);
  EXPECT_EQ(loaded->Stats().num_models, original->Stats().num_models);
  std::string why;
  EXPECT_TRUE(loaded->ValidateStructure(&why)) << why;

  ExpectSameTrace(RunBattery(*original, probes, windows, knn_queries),
                  RunBattery(*loaded, probes, windows, knn_queries));

  // Identical updates applied to both sides keep them bit-identical:
  // the loaded index's models (and, sharded, its partitioner) steer
  // every insert into the same block as the original's.
  std::vector<Point> extra;
  Rng rng(23);
  while (extra.size() < 200) {
    const Point p{rng.Uniform(), rng.Uniform()};
    if (!BruteForceContains(data, p)) extra.push_back(p);
  }
  for (const Point& p : extra) {
    original->Insert(p);
    loaded->Insert(p);
  }
  for (size_t i = 0; i < data.size(); i += 97) {
    EXPECT_EQ(original->Delete(data[i]), loaded->Delete(data[i])) << i;
  }
  std::vector<Point> probes2 = probes;
  for (size_t i = 0; i < extra.size(); i += 4) probes2.push_back(extra[i]);
  ExpectSameTrace(RunBattery(*original, probes2, windows, knn_queries),
                  RunBattery(*loaded, probes2, windows, knn_queries));

  // Saving the updated loaded index and reloading once more round-trips
  // the post-update state too (overflow chains, grown regions, ...).
  ASSERT_TRUE(SaveIndex(*loaded, path, &err)) << err;
  auto again = LoadIndex(path, &err);
  ASSERT_NE(again, nullptr) << err;
  ExpectSameTrace(RunBattery(*loaded, probes2, windows, knn_queries),
                  RunBattery(*again, probes2, windows, knn_queries));
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, SpecRoundTrip,
                         ::testing::Values("rsmi", "rsmia", "zm", "grid",
                                           "rstar", "kdb", "hrr",
                                           "sharded<4>:rsmi",
                                           "sharded<2>:sharded<2>:grid",
                                           "sharded<2>:kdb"),
                         [](const auto& info) {
                           std::string name = info.param;
                           for (char& c : name) {
                             if (!std::isalnum(static_cast<unsigned char>(c))) {
                               c = '_';
                             }
                           }
                           return name;
                         });

TEST(SpecRoundTrip, ShardedReloadKeepsShardStructureWithoutRebuilding) {
  // The reloaded sharded index must route exactly like the original:
  // same partitioner splits, same per-shard point counts, same regions.
  const auto data = GenerateDataset(Distribution::kUniform, 2000, 29);
  IndexBuildConfig cfg = SpecConfig();
  auto built = MakeIndexFromSpec("sharded<4>:grid", data, cfg);
  auto* original = dynamic_cast<ShardedIndex*>(built.get());
  ASSERT_NE(original, nullptr);

  const std::string path = TempPath("sharded_structure.idx");
  ASSERT_TRUE(SaveIndex(*original, path));
  auto reloaded_any = LoadIndex(path);
  ASSERT_NE(reloaded_any, nullptr);
  auto* loaded = dynamic_cast<ShardedIndex*>(reloaded_any.get());
  ASSERT_NE(loaded, nullptr);

  ASSERT_EQ(loaded->num_shards(), original->num_shards());
  EXPECT_EQ(loaded->partitioner().splits(), original->partitioner().splits());
  for (int s = 0; s < original->num_shards(); ++s) {
    EXPECT_EQ(loaded->shard(s).Stats().num_points,
              original->shard(s).Stats().num_points)
        << s;
    EXPECT_EQ(loaded->shard_region(s).lo.x, original->shard_region(s).lo.x);
    EXPECT_EQ(loaded->shard_region(s).hi.y, original->shard_region(s).hi.y);
  }
  for (const Point& p : data) {
    EXPECT_EQ(loaded->partitioner().ShardOf(p),
              original->partitioner().ShardOf(p));
  }
  std::remove(path.c_str());
}

TEST(SpecRoundTrip, SaveUnderBufferedWritesRoundTripsTheDeltaLog) {
  // A sharded index saved while buffered (unmerged) writes are still
  // pending must round-trip losslessly: the v2 container carries each
  // shard's delta op log, so the reloaded index answers exactly like
  // the original — buffered deletes invisible, buffered inserts visible
  // with the sentinel id — and draining both sides converges them to
  // the same bytes.
  const auto data = GenerateDataset(Distribution::kUniform, 2000, 31);
  auto built = MakeIndexFromSpec("sharded<4>:rsmi", data, SpecConfig());
  auto* original = dynamic_cast<ShardedIndex*>(built.get());
  ASSERT_NE(original, nullptr);

  WriteOptions buffered;
  buffered.buffered = true;
  UpdateBatch batch;
  Rng rng(37);
  for (int i = 0; i < 60; ++i) {
    batch.Insert(Point{rng.Uniform(), rng.Uniform()});
  }
  for (size_t i = 0; i < data.size(); i += 101) batch.Delete(data[i]);
  const UpdateResult applied = original->ApplyUpdates(batch, buffered);
  EXPECT_GT(applied.buffered_ops, 0u);
  size_t pending = 0;
  for (int s = 0; s < original->num_shards(); ++s) {
    pending += original->shard_delta_size(s);
  }
  ASSERT_GT(pending, 0u);  // the save below must happen mid-buffer

  const std::string path = TempPath("sharded_buffered.idx");
  std::string err;
  ASSERT_TRUE(SaveIndex(*original, path, &err)) << err;
  auto reloaded_any = LoadIndex(path, &err);
  ASSERT_NE(reloaded_any, nullptr) << err;
  auto* loaded = dynamic_cast<ShardedIndex*>(reloaded_any.get());
  ASSERT_NE(loaded, nullptr);

  // The pending delta survived the round-trip, shard for shard.
  ASSERT_EQ(loaded->num_shards(), original->num_shards());
  for (int s = 0; s < original->num_shards(); ++s) {
    EXPECT_EQ(loaded->shard_delta_size(s), original->shard_delta_size(s))
        << s;
  }
  EXPECT_EQ(loaded->Stats().num_points, original->Stats().num_points);

  // Overlay reads answer identically on both sides.
  for (const UpdateOp& op : batch.ops) {
    QueryContext c1;
    QueryContext c2;
    const auto want = original->PointQuery(op.pt, c1);
    const auto got = loaded->PointQuery(op.pt, c2);
    ASSERT_EQ(want.has_value(), got.has_value());
    if (want.has_value()) {
      EXPECT_EQ(want->id, got->id);
    }
    EXPECT_EQ(c1.block_accesses, c2.block_accesses);
  }

  // Draining the buffered ops on both sides converges them to the same
  // base structures — byte for byte.
  original->FlushUpdates();
  loaded->FlushUpdates();
  Serializer a;
  Serializer b;
  ASSERT_TRUE(WriteIndexContainer(a, *original, &err)) << err;
  ASSERT_TRUE(WriteIndexContainer(b, *loaded, &err)) << err;
  ASSERT_EQ(a.size(), b.size());
  EXPECT_EQ(std::memcmp(a.data(), b.data(), a.size()), 0);
  std::remove(path.c_str());
}

TEST(PersistenceTest, RoundTripAnswersIdentically) {
  QueryContext ctx;
  const auto data = GenerateDataset(Distribution::kOsm, 3000, 5);
  RsmiIndex original(data, TestConfig());
  const std::string path = TempPath("rsmi.idx");
  ASSERT_TRUE(original.Save(path));
  auto loaded = RsmiIndex::Load(path);
  ASSERT_NE(loaded, nullptr);

  // Identical structure.
  EXPECT_EQ(loaded->Stats().num_points, original.Stats().num_points);
  EXPECT_EQ(loaded->Stats().height, original.Stats().height);
  EXPECT_EQ(loaded->Stats().num_models, original.Stats().num_models);
  EXPECT_EQ(loaded->MaxErrBelow(), original.MaxErrBelow());
  EXPECT_EQ(loaded->MaxErrAbove(), original.MaxErrAbove());

  // Identical point-query results for every indexed point.
  for (size_t i = 0; i < data.size(); i += 3) {
    const auto a = original.PointQuery(data[i], ctx);
    const auto b = loaded->PointQuery(data[i], ctx);
    ASSERT_TRUE(a.has_value());
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(a->id, b->id);
  }

  // Identical window and kNN answers (the models are bit-identical).
  const auto windows = GenerateWindowQueries(data, 20, 0.001, 1.0, 7);
  for (const auto& w : windows) {
    EXPECT_EQ(original.WindowQuery(w, ctx).size(),
              loaded->WindowQuery(w, ctx).size());
    EXPECT_EQ(original.WindowQueryExact(w, ctx).size(),
              loaded->WindowQueryExact(w, ctx).size());
  }
  const auto queries = GenerateQueryPoints(data, 15, 9, 1e-4);
  for (const auto& q : queries) {
    const auto a = original.KnnQuery(q, 10, ctx);
    const auto b = loaded->KnnQuery(q, 10, ctx);
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(SamePosition(a[i], b[i]));
    }
  }
  std::remove(path.c_str());
}

TEST(PersistenceTest, LoadedIndexAcceptsUpdatesAndRebuilds) {
  QueryContext ctx;
  const auto data = GenerateDataset(Distribution::kSkewed, 1500, 11);
  RsmiIndex original(data, TestConfig());
  const std::string path = TempPath("rsmi_upd.idx");
  ASSERT_TRUE(original.Save(path));
  auto loaded = RsmiIndex::Load(path);
  ASSERT_NE(loaded, nullptr);

  std::vector<Point> all = data;
  const auto extra = GenerateDataset(Distribution::kSkewed, 3000, 12);
  for (const auto& p : extra) {
    if (BruteForceContains(all, p)) continue;
    loaded->Insert(p);
    all.push_back(p);
  }
  // RSMIr rebuild retrains sub-models: requires the persisted training
  // config to survive the round trip.
  EXPECT_GE(loaded->RebuildOverflowingSubtrees(), 1);
  for (size_t i = 0; i < all.size(); i += 5) {
    ASSERT_TRUE(loaded->PointQuery(all[i], ctx).has_value());
  }
  EXPECT_TRUE(loaded->Delete(all[0]));
  EXPECT_FALSE(loaded->PointQuery(all[0], ctx).has_value());
  std::remove(path.c_str());
}

TEST(PersistenceTest, SaveAfterUpdatesPreservesOverflowChains) {
  QueryContext ctx;
  const auto data = GenerateDataset(Distribution::kUniform, 1000, 13);
  RsmiIndex index(data, TestConfig());
  std::vector<Point> all = data;
  Rng rng(14);
  for (int i = 0; i < 600; ++i) {
    // Hotspot inserts: guarantees overflow blocks in the chain.
    const Point p{0.3 + rng.Uniform() * 0.02, 0.3 + rng.Uniform() * 0.02};
    index.Insert(p);
    all.push_back(p);
  }
  const std::string path = TempPath("rsmi_chain.idx");
  ASSERT_TRUE(index.Save(path));
  auto loaded = RsmiIndex::Load(path);
  ASSERT_NE(loaded, nullptr);
  EXPECT_EQ(loaded->Stats().num_points, all.size());
  for (size_t i = 0; i < all.size(); i += 4) {
    ASSERT_TRUE(loaded->PointQuery(all[i], ctx).has_value()) << i;
  }
  // Window scans walk the persisted chain including overflow splices.
  const Rect hot{{0.29, 0.29}, {0.33, 0.33}};
  EXPECT_EQ(loaded->WindowQueryExact(hot, ctx).size(),
            BruteForceWindow(all, hot).size());
  std::remove(path.c_str());
}

TEST(PersistenceTest, RejectsMissingAndCorruptFiles) {
  EXPECT_EQ(RsmiIndex::Load("/nonexistent/index.idx"), nullptr);
  const std::string path = TempPath("garbage.idx");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("this is not an index", f);
  std::fclose(f);
  EXPECT_EQ(RsmiIndex::Load(path), nullptr);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rsmi
