// Beyond-RAM subsystem tests (src/xmem/): the lazy mmap-backed load path
// must be observationally invisible — every query result and every
// QueryContext counter bit-identical to the same container loaded
// eagerly — across all persistable specs, with prefetch on or off, and
// before/after budget-enforced eviction. The write-behind log must
// recover to a state byte-identical to synchronous application,
// truncating torn tails instead of half-applying them.
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "baselines/factory.h"
#include "common/rng.h"
#include "data/generators.h"
#include "data/workloads.h"
#include "io/index_container.h"
#include "io/serializer.h"
#include "xmem/external_index.h"
#include "xmem/mapped_container.h"
#include "xmem/write_behind.h"
#include "gtest/gtest.h"

namespace rsmi {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

IndexBuildConfig SpecConfig() {
  IndexBuildConfig cfg;
  cfg.block_capacity = 20;
  cfg.partition_threshold = 400;
  cfg.train.epochs = 40;
  cfg.train.batch_size = 128;
  cfg.internal_sample_cap = 2048;
  return cfg;
}

/// Deterministic xmem options for tests: no env surprises, no background
/// thread (budget enforcement is explicit), no write-behind unless the
/// test is about it.
xmem::XmemOptions TestXmemOptions() {
  xmem::XmemOptions opts;
  opts.apply_env_overrides = false;
  opts.governor_interval_ms = 0;
  opts.write_behind = false;
  return opts;
}

/// Everything one query battery observes, counters included.
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
/// counter equal — the "lazy loading never changes results or counters"
/// contract.
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

struct Workload {
  std::vector<Point> data;
  std::vector<Point> probes;
  std::vector<Rect> windows;
  std::vector<Point> knn_queries;
};

Workload MakeWorkload(size_t n, uint64_t seed) {
  Workload w;
  w.data = GenerateDataset(Distribution::kSkewed, n, seed);
  for (size_t i = 0; i < w.data.size(); i += 3) w.probes.push_back(w.data[i]);
  for (size_t i = 1; i < w.data.size(); i += 13) {
    w.probes.push_back(Point{w.data[i].x + 1e-4, w.data[i].y - 1e-4});
  }
  w.windows = GenerateWindowQueries(w.data, 15, 0.001, 1.0, 7);
  w.knn_queries = GenerateQueryPoints(w.data, 10, 9, 1e-4);
  return w;
}

// --- lazy-load parity across every persistable spec ---

/// `spec` with every non-alphanumeric character replaced by '_' (test
/// names and temp file names).
std::string SpecTag(std::string spec) {
  for (char& c : spec) {
    if (!std::isalnum(static_cast<unsigned char>(c))) c = '_';
  }
  return spec;
}

class XmemSpecParity : public ::testing::TestWithParam<const char*> {};

TEST_P(XmemSpecParity, MmapLoadIsBitIdenticalToEagerLoad) {
  const std::string spec = GetParam();
  const Workload w = MakeWorkload(2500, 17);
  auto built = MakeIndexFromSpec(spec, w.data, SpecConfig());
  ASSERT_NE(built, nullptr);
  const std::string path = TempPath("xmem_parity_" + SpecTag(spec) + ".idx");
  std::string err;
  ASSERT_TRUE(SaveIndex(*built, path, &err)) << err;

  auto eager = LoadIndex(path, &err);
  ASSERT_NE(eager, nullptr) << err;
  auto mapped = xmem::ExternalIndex::Open(path, TestXmemOptions(), &err);
  ASSERT_NE(mapped, nullptr) << err;
  EXPECT_EQ(mapped->KindSpec(), eager->KindSpec());

  ExpectSameTrace(RunBattery(*eager, w.probes, w.windows, w.knn_queries),
                  RunBattery(*mapped, w.probes, w.windows, w.knn_queries));

  // Still bit-identical after budget-enforced eviction: evicted pages
  // refault transparently.
  mapped->EnforceBudget();
  ExpectSameTrace(RunBattery(*eager, w.probes, w.windows, w.knn_queries),
                  RunBattery(*mapped, w.probes, w.windows, w.knn_queries));
  std::remove(path.c_str());
}

// Every store the index holds is hooked — for sharded<K>:* that is every
// shard's — so the budget binds on all specs.
TEST_P(XmemSpecParity, BudgetEnforcementEvictsAndQueriesRefault) {
  const std::string spec = GetParam();
  const Workload w = MakeWorkload(5000, 37);
  auto built = MakeIndexFromSpec(spec, w.data, SpecConfig());
  ASSERT_NE(built, nullptr);
  const std::string path = TempPath("xmem_budget_" + SpecTag(spec) + ".idx");
  std::string err;
  ASSERT_TRUE(SaveIndex(*built, path, &err)) << err;

  xmem::XmemOptions opts = TestXmemOptions();
  opts.rss_budget_bytes = 64 << 10;  // far below the container size
  opts.chunk_bytes = 16 << 10;
  opts.prefetch = false;
  auto mapped = xmem::ExternalIndex::Open(path, opts, &err);
  ASSERT_NE(mapped, nullptr) << err;

  const QueryTrace before =
      RunBattery(*mapped, w.probes, w.windows, w.knn_queries);
  EXPECT_GT(mapped->governor().first_touches(), 0u);
  const size_t resident_before = mapped->governor().ResidentBytes();
  ASSERT_GT(resident_before, opts.rss_budget_bytes);
  const size_t evicted = mapped->EnforceBudget();
  EXPECT_GT(evicted, 0u);
  EXPECT_GT(mapped->governor().evictions(), 0u);
  EXPECT_LT(mapped->governor().ResidentBytes(), resident_before);

  // Evicted pages refault on demand: answers and counters unchanged.
  ExpectSameTrace(before,
                  RunBattery(*mapped, w.probes, w.windows, w.knn_queries));
  std::remove(path.c_str());
}

INSTANTIATE_TEST_SUITE_P(AllSpecs, XmemSpecParity,
                         ::testing::Values("rsmi", "rsmia", "zm", "grid",
                                           "rstar", "kdb", "hrr",
                                           "sharded<4>:rsmi"),
                         [](const auto& info) { return SpecTag(info.param); });

TEST(XmemTest, LazyLoadBorrowsEntriesZeroCopy) {
  const Workload w = MakeWorkload(2000, 29);
  auto built = MakeIndexFromSpec("rsmi", w.data, SpecConfig());
  const std::string path = TempPath("xmem_borrow.idx");
  std::string err;
  ASSERT_TRUE(SaveIndex(*built, path, &err)) << err;
  auto mapped = xmem::ExternalIndex::Open(path, TestXmemOptions(), &err);
  ASSERT_NE(mapped, nullptr) << err;
  // The v4 layout 8-aligns the entries region, so every non-empty block
  // borrows straight from the mapping — no entry copies on open.
  size_t borrowed = 0;
  size_t nonempty = 0;
  mapped->ForEachBlockStore([&](const BlockStore& store) {
    for (size_t id = 0; id < store.NumBlocks(); ++id) {
      const Block& b = store.Peek(static_cast<int>(id));
      if (b.entries.empty()) continue;
      ++nonempty;
      if (b.entries.borrowed()) ++borrowed;
    }
  });
  EXPECT_GT(borrowed, 0u);
  EXPECT_EQ(borrowed, nonempty);
  std::remove(path.c_str());
}

TEST(XmemTest, PrefetchOnAndOffAreBitIdentical) {
  const Workload w = MakeWorkload(3000, 31);
  auto built = MakeIndexFromSpec("rsmi", w.data, SpecConfig());
  const std::string path = TempPath("xmem_prefetch.idx");
  std::string err;
  ASSERT_TRUE(SaveIndex(*built, path, &err)) << err;

  xmem::XmemOptions on = TestXmemOptions();
  on.prefetch = true;
  xmem::XmemOptions off = TestXmemOptions();
  off.prefetch = false;
  auto with = xmem::ExternalIndex::Open(path, on, &err);
  ASSERT_NE(with, nullptr) << err;
  auto without = xmem::ExternalIndex::Open(path, off, &err);
  ASSERT_NE(without, nullptr) << err;
  ASSERT_NE(with->prefetcher(), nullptr);
  EXPECT_EQ(without->prefetcher(), nullptr);

  ExpectSameTrace(RunBattery(*with, w.probes, w.windows, w.knn_queries),
                  RunBattery(*without, w.probes, w.windows, w.knn_queries));
  with->DrainPrefetch();
  // The fused descent published predictions; the workers issued them.
  EXPECT_GT(with->prefetcher()->issued(), 0u);
  std::remove(path.c_str());
}

// --- write-behind log: crash safety at record granularity ---

std::vector<uint8_t> SerializeState(const SpatialIndex& index) {
  Serializer out;
  EXPECT_TRUE(index.SaveTo(out));
  return out.buffer();
}

std::vector<UpdateBatch> MakeUpdateBatches(const Workload& w) {
  std::vector<UpdateBatch> batches;
  Rng rng(41);
  for (int b = 0; b < 5; ++b) {
    UpdateBatch batch;
    for (int i = 0; i < 40; ++i) {
      batch.Insert(Point{rng.Uniform() * 0.5 + 1.5, rng.Uniform()});
    }
    batch.Delete(w.data[static_cast<size_t>(b) * 31]);
    batches.push_back(std::move(batch));
  }
  return batches;
}

TEST(XmemWriteBehindTest, RecoveryMatchesSynchronousApplicationByteForByte) {
  const Workload w = MakeWorkload(2500, 43);
  auto built = MakeIndexFromSpec("rsmi", w.data, SpecConfig());
  const std::string path = TempPath("xmem_wbl.idx");
  const std::string log = path + ".wbl";
  std::remove(log.c_str());
  std::string err;
  ASSERT_TRUE(SaveIndex(*built, path, &err)) << err;
  const auto batches = MakeUpdateBatches(w);

  // Control: eager load, synchronous application of every batch.
  auto control = LoadIndex(path, &err);
  ASSERT_NE(control, nullptr) << err;
  for (const auto& b : batches) control->ApplyUpdates(b);

  // Mapped index with write-behind: each batch is logged (fence = flushed
  // to disk) and applied. No checkpoint happens — the container file
  // stays at its pre-update state, like a crash after the last flush.
  {
    xmem::XmemOptions opts = TestXmemOptions();
    opts.write_behind = true;
    opts.write_behind_log = log;
    auto mapped = xmem::ExternalIndex::Open(path, opts, &err);
    ASSERT_NE(mapped, nullptr) << err;
    WriteOptions wopts;
    wopts.fence = true;
    for (const auto& b : batches) mapped->ApplyUpdates(b, wopts);
    ASSERT_GT(mapped->write_behind()->records_appended(), 0u);
  }

  // Recovery replays the log onto the stale container: byte-identical
  // state to the synchronous control.
  {
    xmem::XmemOptions opts = TestXmemOptions();
    opts.write_behind = true;
    opts.write_behind_log = log;
    auto recovered = xmem::ExternalIndex::Open(path, opts, &err);
    ASSERT_NE(recovered, nullptr) << err;
    EXPECT_EQ(SerializeState(*control), SerializeState(*recovered));
    ExpectSameTrace(
        RunBattery(*control, w.probes, w.windows, w.knn_queries),
        RunBattery(*recovered, w.probes, w.windows, w.knn_queries));

    // Checkpoint persists the recovered state and empties the log.
    ASSERT_TRUE(recovered->Checkpoint(&err)) << err;
  }
  {
    std::vector<UpdateBatch> rest;
    ASSERT_TRUE(xmem::WriteBehindBuffer::ReadBack(log, &rest, &err)) << err;
    EXPECT_TRUE(rest.empty());
    auto reopened = LoadIndex(path, &err);
    ASSERT_NE(reopened, nullptr) << err;
    EXPECT_EQ(SerializeState(*control), SerializeState(*reopened));
  }
  std::remove(path.c_str());
  std::remove(log.c_str());
}

TEST(XmemWriteBehindTest, TornTailIsTruncatedNotHalfApplied) {
  const Workload w = MakeWorkload(2000, 47);
  auto built = MakeIndexFromSpec("rsmi", w.data, SpecConfig());
  const std::string path = TempPath("xmem_torn.idx");
  const std::string log = path + ".wbl";
  std::remove(log.c_str());
  std::string err;
  ASSERT_TRUE(SaveIndex(*built, path, &err)) << err;
  const auto batches = MakeUpdateBatches(w);

  // Control sees only the intact prefix (all real batches).
  auto control = LoadIndex(path, &err);
  ASSERT_NE(control, nullptr) << err;
  for (const auto& b : batches) control->ApplyUpdates(b);

  {
    xmem::XmemOptions opts = TestXmemOptions();
    opts.write_behind = true;
    opts.write_behind_log = log;
    auto mapped = xmem::ExternalIndex::Open(path, opts, &err);
    ASSERT_NE(mapped, nullptr) << err;
    WriteOptions wopts;
    wopts.fence = true;
    for (const auto& b : batches) mapped->ApplyUpdates(b, wopts);
  }

  // Kill point: a record torn mid-write — plausible framing, truncated
  // payload. Recovery must apply the intact prefix and cut the tail.
  long intact_size = 0;
  {
    std::FILE* f = std::fopen(log.c_str(), "ab");
    ASSERT_NE(f, nullptr);
    intact_size = std::ftell(f);
    const uint32_t len = 1000;
    const uint32_t crc = 0xDEADBEEF;
    std::fwrite(&len, sizeof(len), 1, f);
    std::fwrite(&crc, sizeof(crc), 1, f);
    const char partial[16] = {0};
    std::fwrite(partial, 1, sizeof(partial), f);
    std::fclose(f);
  }

  {
    xmem::XmemOptions opts = TestXmemOptions();
    opts.write_behind = true;
    opts.write_behind_log = log;
    auto recovered = xmem::ExternalIndex::Open(path, opts, &err);
    ASSERT_NE(recovered, nullptr) << err;
    EXPECT_EQ(SerializeState(*control), SerializeState(*recovered));
  }

  // The torn tail is gone from disk: the log ends after the last intact
  // record, so a second crash cannot resurrect the bad bytes.
  {
    std::FILE* f = std::fopen(log.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    EXPECT_EQ(std::ftell(f), intact_size);
    std::fclose(f);
  }
  std::remove(path.c_str());
  std::remove(log.c_str());
}

TEST(XmemTest, MappedContainerReportsHeaderWithoutLoading) {
  const Workload w = MakeWorkload(1500, 53);
  auto built = MakeIndexFromSpec("sharded<2>:rsmi", w.data, SpecConfig());
  const std::string path = TempPath("xmem_info.idx");
  std::string err;
  ASSERT_TRUE(SaveIndex(*built, path, &err)) << err;
  auto container = xmem::MappedContainer::Open(path, &err);
  ASSERT_NE(container, nullptr) << err;
  EXPECT_EQ(container->info().spec, "sharded<2>:rsmi");
  EXPECT_EQ(container->info().version, kIndexContainerVersion);
  EXPECT_EQ(container->info().file_bytes, container->map().size());
  EXPECT_GT(container->info().payload_bytes, 0u);
  std::remove(path.c_str());
}

TEST(XmemTest, SparseMultiGigabyteContainerOpensLazily) {
  // `rsmi_cli info` routes through MappedContainer: opening a container
  // must fault in only the header pages, never the payload — modeled
  // here with a sparse file holding a real header and a 1 GiB hole.
  const Workload w = MakeWorkload(1500, 59);
  auto built = MakeIndexFromSpec("sharded<2>:rsmi", w.data, SpecConfig());
  const std::string path = TempPath("xmem_sparse.idx");
  std::string err;
  ASSERT_TRUE(SaveIndex(*built, path, &err)) << err;
  constexpr size_t kSparseBytes = 1ull << 30;
  ASSERT_EQ(::truncate(path.c_str(), static_cast<off_t>(kSparseBytes)), 0);

  auto container = xmem::MappedContainer::Open(path, &err);
  ASSERT_NE(container, nullptr) << err;
  EXPECT_EQ(container->info().spec, "sharded<2>:rsmi");
  EXPECT_EQ(container->info().file_bytes, kSparseBytes);
  // Lazy: of the 1 GiB mapping, only the header prefix is resident.
  EXPECT_LT(container->map().ResidentBytes(0, container->map().size()),
            32u << 20);
  std::remove(path.c_str());
}

TEST(XmemTest, OpenRefusesForeignAndTruncatedFiles) {
  const std::string path = TempPath("xmem_bogus.idx");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  const char junk[] = "definitely not an index container";
  std::fwrite(junk, 1, sizeof(junk), f);
  std::fclose(f);
  std::string err;
  EXPECT_EQ(xmem::ExternalIndex::Open(path, TestXmemOptions(), &err),
            nullptr);
  EXPECT_FALSE(err.empty());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace rsmi
