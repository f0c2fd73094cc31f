// Failure injection: persistence and I/O paths must fail cleanly (error
// return, no crash, no partially-constructed index) on truncated files,
// corrupted bytes, wrong magic numbers, and unwritable paths — and each
// container corruption class (truncation, bad CRC, wrong magic, unknown
// kind spec, version from the future, legacy format) must fail with its
// own distinct diagnostic.
#include <unistd.h>

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/factory.h"
#include "baselines/rstar_tree.h"
#include "baselines/zm_index.h"
#include "common/crc32.h"
#include "nn/mlp.h"
#include "common/rng.h"
#include "core/rsmi_index.h"
#include "data/generators.h"
#include "data/io.h"
#include "io/index_container.h"
#include "gtest/gtest.h"

namespace rsmi {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

RsmiConfig SmallConfig() {
  RsmiConfig cfg;
  cfg.block_capacity = 20;
  cfg.partition_threshold = 300;
  cfg.train.epochs = 40;
  return cfg;
}

long FileSize(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return -1;
  std::fseek(f, 0, SEEK_END);
  const long size = std::ftell(f);
  std::fclose(f);
  return size;
}

class TruncatedIndexTest : public ::testing::TestWithParam<int> {};

TEST_P(TruncatedIndexTest, LoadRejectsTruncationAtAnyFraction) {
  // Save a real index once, then truncate to GetParam() percent of its
  // size: Load must return nullptr every time, never crash.
  static const std::string path = [] {
    const auto data = GenerateDataset(Distribution::kNormal, 1200, 41);
    RsmiIndex index(data, SmallConfig());
    const std::string p = TempPath("truncate_base.idx");
    EXPECT_TRUE(index.Save(p));
    return p;
  }();
  const long full = FileSize(path);
  ASSERT_GT(full, 0);

  const std::string cut = TempPath(
      "truncate_" + std::to_string(GetParam()) + ".idx");
  {
    std::FILE* in = std::fopen(path.c_str(), "rb");
    ASSERT_NE(in, nullptr);
    std::FILE* out = std::fopen(cut.c_str(), "wb");
    ASSERT_NE(out, nullptr);
    const long keep = full * GetParam() / 100;
    std::vector<unsigned char> buf(static_cast<size_t>(keep));
    if (!buf.empty()) {  // fread(nullptr, ...) is UB even for size 0
      ASSERT_EQ(std::fread(buf.data(), 1, buf.size(), in), buf.size());
      ASSERT_EQ(std::fwrite(buf.data(), 1, buf.size(), out), buf.size());
    }
    std::fclose(in);
    std::fclose(out);
  }
  EXPECT_EQ(RsmiIndex::Load(cut), nullptr);
}

INSTANTIATE_TEST_SUITE_P(Fractions, TruncatedIndexTest,
                         ::testing::Values(0, 1, 5, 10, 25, 50, 75, 90, 99),
                         [](const auto& info) {
                           return "pct" + std::to_string(info.param);
                         });

TEST(FailureInjectionTest, LoadRejectsGarbageFile) {
  const std::string path = TempPath("garbage.idx");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  Rng rng(43);
  for (int i = 0; i < 4096; ++i) {
    const unsigned char b = static_cast<unsigned char>(rng.NextU64());
    std::fwrite(&b, 1, 1, f);
  }
  std::fclose(f);
  EXPECT_EQ(RsmiIndex::Load(path), nullptr);
}

TEST(FailureInjectionTest, LoadRejectsEmptyAndMissingFiles) {
  const std::string empty = TempPath("empty.idx");
  std::FILE* f = std::fopen(empty.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fclose(f);
  EXPECT_EQ(RsmiIndex::Load(empty), nullptr);
  EXPECT_EQ(RsmiIndex::Load(TempPath("no_such_file.idx")), nullptr);
}

TEST(FailureInjectionTest, LoadRejectsWrongMagic) {
  const auto data = GenerateDataset(Distribution::kUniform, 800, 44);
  RsmiIndex index(data, SmallConfig());
  const std::string path = TempPath("wrong_magic.idx");
  ASSERT_TRUE(index.Save(path));

  std::FILE* f = std::fopen(path.c_str(), "rb+");
  ASSERT_NE(f, nullptr);
  const unsigned char junk[4] = {0xDE, 0xAD, 0xBE, 0xEF};
  ASSERT_EQ(std::fwrite(junk, 1, 4, f), 4u);
  std::fclose(f);
  EXPECT_EQ(RsmiIndex::Load(path), nullptr);
}

TEST(FailureInjectionTest, SaveToUnwritablePathFails) {
  QueryContext ctx;
  const auto data = GenerateDataset(Distribution::kUniform, 500, 45);
  RsmiIndex index(data, SmallConfig());
  EXPECT_FALSE(index.Save("/nonexistent_dir_xyz/index.idx"));
  // The index keeps working after a failed save.
  EXPECT_TRUE(index.PointQuery(data[0], ctx).has_value());
}

TEST(FailureInjectionTest, CsvLoaderSkipsMalformedLines) {
  const std::string path = TempPath("malformed.csv");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("x,y\n", f);              // header
  std::fputs("0.1,0.2\n", f);          // good
  std::fputs("# comment line\n", f);   // comment
  std::fputs("not,numbers\n", f);      // junk
  std::fputs("0.3\t0.4\n", f);         // good, tab separated
  std::fputs("\n", f);                 // blank
  std::fputs("0.5;0.6\n", f);          // good, semicolon separated
  std::fclose(f);

  std::vector<Point> pts;
  ASSERT_TRUE(LoadPointsCsv(path, &pts));
  ASSERT_EQ(pts.size(), 3u);
  EXPECT_DOUBLE_EQ(pts[0].x, 0.1);
  EXPECT_DOUBLE_EQ(pts[1].y, 0.4);
  EXPECT_DOUBLE_EQ(pts[2].x, 0.5);
}

TEST(FailureInjectionTest, CsvLoaderFailsOnMissingFile) {
  std::vector<Point> pts;
  EXPECT_FALSE(LoadPointsCsv(TempPath("missing.csv"), &pts));
}

TEST(FailureInjectionTest, BinaryLoaderRejectsTruncation) {
  const std::string path = TempPath("points.bin");
  std::vector<Point> pts(100);
  Rng rng(46);
  for (auto& p : pts) p = Point{rng.Uniform(), rng.Uniform()};
  ASSERT_TRUE(SavePointsBinary(path, pts));

  const long full = FileSize(path);
  ASSERT_EQ(::truncate(path.c_str(), full - 8), 0);
  std::vector<Point> loaded;
  EXPECT_FALSE(LoadPointsBinary(path, &loaded));
}

TEST(FailureInjectionTest, EverySingleBitErrorAnywhereIsDetected) {
  // Flip one byte anywhere in a saved index — magic, version, spec,
  // lengths, CRC, payload: the payload is CRC-guarded and every header
  // field is individually validated (the version must match exactly),
  // so every flip must be rejected with a diagnostic — no flip may load
  // "successfully" with altered weights.
  const auto data = GenerateDataset(Distribution::kOsm, 900, 47);
  RsmiIndex index(data, SmallConfig());
  const std::string path = TempPath("bitflip.idx");
  ASSERT_TRUE(index.Save(path));
  const long full = FileSize(path);

  Rng rng(48);
  for (int trial = 0; trial < 12; ++trial) {
    const std::string copy =
        TempPath("bitflip_" + std::to_string(trial) + ".idx");
    {
      std::FILE* in = std::fopen(path.c_str(), "rb");
      std::FILE* out = std::fopen(copy.c_str(), "wb");
      ASSERT_NE(in, nullptr);
      ASSERT_NE(out, nullptr);
      std::vector<unsigned char> buf(static_cast<size_t>(full));
      ASSERT_EQ(std::fread(buf.data(), 1, buf.size(), in), buf.size());
      const size_t pos = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(full) - 1));
      buf[pos] ^= 1u << rng.UniformInt(0, 7);
      ASSERT_EQ(std::fwrite(buf.data(), 1, buf.size(), out), buf.size());
      std::fclose(in);
      std::fclose(out);
    }
    std::string err;
    EXPECT_EQ(LoadIndex(copy, &err), nullptr) << "trial " << trial;
    EXPECT_FALSE(err.empty()) << "trial " << trial;
  }
}

// --- container corruption classes: one distinct diagnostic each ---

/// Saves a real sharded<2>:grid index once (cheap build, exercises the
/// nested-container path too) and hands out its bytes for corruption.
const std::vector<uint8_t>& SavedShardedImage() {
  static const std::vector<uint8_t>* kImage = [] {
    const auto data = GenerateDataset(Distribution::kUniform, 600, 51);
    IndexBuildConfig cfg;
    cfg.block_capacity = 20;
    auto index = MakeIndexFromSpec("sharded<2>:grid", data, cfg);
    Serializer ser;
    EXPECT_TRUE(WriteIndexContainer(ser, *index));
    return new std::vector<uint8_t>(ser.buffer());
  }();
  return *kImage;
}

std::string WriteImage(const std::string& name,
                       const std::vector<uint8_t>& image) {
  const std::string path = TempPath(name);
  std::FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  EXPECT_EQ(std::fwrite(image.data(), 1, image.size(), f), image.size());
  std::fclose(f);
  return path;
}

/// LoadIndex must fail AND the diagnostic must carry the class-specific
/// marker, so operators can tell a stale legacy file from bit rot.
void ExpectLoadFailsWith(const std::string& path, const std::string& marker) {
  std::string err;
  EXPECT_EQ(LoadIndex(path, &err), nullptr);
  EXPECT_NE(err.find(marker), std::string::npos)
      << "error was: \"" << err << "\", expected it to mention \"" << marker
      << "\"";
}

TEST(ContainerCorruptionTest, TruncationIsItsOwnError) {
  auto image = SavedShardedImage();
  image.resize(image.size() / 2);
  ExpectLoadFailsWith(WriteImage("half.idx", image), "truncated");
  // Cut inside the header too.
  image.resize(10);
  ExpectLoadFailsWith(WriteImage("header_cut.idx", image),
                      "truncated index container: header cut short");
}

TEST(ContainerCorruptionTest, ChecksumMismatchIsItsOwnError) {
  auto image = SavedShardedImage();
  image[image.size() - 5] ^= 0x40;  // payload byte, header untouched
  ExpectLoadFailsWith(WriteImage("crc.idx", image), "checksum mismatch");
}

TEST(ContainerCorruptionTest, WrongMagicIsItsOwnError) {
  auto image = SavedShardedImage();
  image[0] ^= 0xFF;
  ExpectLoadFailsWith(WriteImage("magic.idx", image), "wrong magic");
}

TEST(ContainerCorruptionTest, UnknownKindSpecIsItsOwnError) {
  // Hand-assemble a container whose header and CRC are perfectly valid
  // but whose spec names an index kind this binary has never heard of.
  Serializer ser;
  ser.WritePod(kIndexContainerMagic);
  ser.WritePod(kIndexContainerVersion);
  ser.WriteString("frobnicator");
  const std::vector<uint8_t> payload = {1, 2, 3, 4};
  ser.WritePod<uint64_t>(payload.size());
  ser.WritePod<uint32_t>(Crc32(payload.data(), payload.size()));
  ser.WriteBytes(payload.data(), payload.size());
  ExpectLoadFailsWith(WriteImage("unknown_kind.idx", ser.buffer()),
                      "unknown index kind spec 'frobnicator'");
}

TEST(ContainerCorruptionTest, VersionFromTheFutureIsItsOwnError) {
  auto image = SavedShardedImage();
  const uint32_t future = kIndexContainerVersion + 7;
  std::memcpy(image.data() + sizeof(uint64_t), &future, sizeof(future));
  ExpectLoadFailsWith(WriteImage("future.idx", image),
                      "newer than this binary supports");
}

TEST(ContainerCorruptionTest, LegacyRsmi2FileIsRefusedWithRebuildHint) {
  Serializer ser;
  ser.WritePod(kLegacyRsmi2Magic);
  for (int i = 0; i < 64; ++i) ser.WritePod<uint8_t>(0);
  ExpectLoadFailsWith(WriteImage("legacy.idx", ser.buffer()),
                      "legacy RSMI2 index file");
}

TEST(ContainerCorruptionTest, ValidEnvelopeWithGarbagePayloadIsRefused) {
  // Correct magic, version, known spec, and matching CRC — but the
  // payload is noise: LoadFrom must reject it instead of handing back a
  // half-constructed index.
  Rng rng(52);
  std::vector<uint8_t> payload(512);
  for (auto& b : payload) b = static_cast<uint8_t>(rng.NextU64());
  Serializer ser;
  ser.WritePod(kIndexContainerMagic);
  ser.WritePod(kIndexContainerVersion);
  ser.WriteString("rsmi");
  ser.WritePod<uint64_t>(payload.size());
  ser.WritePod<uint32_t>(Crc32(payload.data(), payload.size()));
  ser.WriteBytes(payload.data(), payload.size());
  ExpectLoadFailsWith(WriteImage("garbage_payload.idx", ser.buffer()),
                      "rsmi");
}

TEST(ContainerCorruptionTest, CraftedOutOfRangeBlockReferenceIsRefused) {
  // A CRC-valid R* payload whose single leaf points at block 999 of a
  // one-block store: LoadFrom's bounds checks must refuse it — a crafted
  // file may never yield an index that OOB-reads on its first query.
  Serializer payload;
  payload.WritePod(RStarConfig{});
  payload.WritePod<size_t>(0);   // live_points_
  payload.WritePod<int64_t>(0);  // next_id_
  payload.WritePod<int>(4);      // store capacity
  payload.WritePod<int>(-1);     // store tail
  payload.WritePod<uint64_t>(1);  // one block
  payload.WritePod<uint64_t>(0);  // v4 metadata run: entry count
  payload.WritePod<int>(-1);      // prev
  payload.WritePod<int>(-1);      // next
  payload.WritePod<double>(0.0);  // seq
  payload.WritePod<bool>(false);  // inserted
  payload.WritePod<uint64_t>(0);  // cv_lo
  payload.WritePod<uint64_t>(0);  // cv_hi
  payload.WritePod(Rect::Empty());  // mbr
  payload.WritePod<uint8_t>(0);   // v4 entries-region pad (no entries)
  payload.WritePod<bool>(true);                 // node: leaf
  payload.WritePod(Rect::Empty());              // node: mbr
  payload.WritePod<int>(999);                   // node: block (OOB!)
  payload.WritePod<uint32_t>(0);                // node: no children

  Serializer ser;
  ser.WritePod(kIndexContainerMagic);
  ser.WritePod(kIndexContainerVersion);
  ser.WriteString("rstar");
  ser.WritePod<uint64_t>(payload.size());
  ser.WritePod<uint32_t>(Crc32(payload.data(), payload.size()));
  ser.WriteBytes(payload.data(), payload.size());
  ExpectLoadFailsWith(WriteImage("oob_block.idx", ser.buffer()),
                      "out of store bounds");
}

TEST(ContainerCorruptionTest, CraftedInconsistentZmModelTablesAreRefused) {
  // A CRC-valid 'zm' payload claiming build data (n_build_=1, root model
  // present) but with empty mid/leaf tables: the first query would index
  // mid_[SIZE_MAX]; LoadFrom's shape invariants must refuse it.
  Serializer payload;
  payload.WritePod(ZmConfig{});
  payload.WritePod(Rect::UnitSquare());  // data_bounds_
  payload.WritePod<double>(1.0);         // span_x_
  payload.WritePod<double>(1.0);         // span_y_
  payload.WritePod<int>(1);              // num_build_blocks_
  payload.WritePod<size_t>(1);           // n_build_
  payload.WritePod<size_t>(1);           // live_points_
  payload.WritePod<int64_t>(1);          // next_id_
  payload.WritePod<bool>(false);         // has_insertions_
  for (int i = 0; i < 4; ++i) payload.WritePod<uint64_t>(0);  // empty PMFs
  payload.WritePod<int>(4);       // store capacity
  payload.WritePod<int>(-1);      // store tail
  payload.WritePod<uint64_t>(1);  // one block
  payload.WritePod<uint64_t>(0);  // v4 metadata run: entry count
  payload.WritePod<int>(-1);      // prev
  payload.WritePod<int>(-1);      // next
  payload.WritePod<double>(0.0);  // seq
  payload.WritePod<bool>(false);  // inserted
  payload.WritePod<uint64_t>(0);  // cv_lo
  payload.WritePod<uint64_t>(0);  // cv_hi
  payload.WritePod(Rect::Empty());
  payload.WritePod<uint8_t>(0);   // v4 entries-region pad (no entries)
  payload.WritePod<bool>(true);  // root model present...
  Mlp(1, 4).WriteTo(payload);
  payload.WritePod<uint64_t>(0);  // ...but no mid models
  payload.WritePod<uint64_t>(0);  // ...and no leaf models

  Serializer ser;
  ser.WritePod(kIndexContainerMagic);
  ser.WritePod(kIndexContainerVersion);
  ser.WriteString("zm");
  ser.WritePod<uint64_t>(payload.size());
  ser.WritePod<uint32_t>(Crc32(payload.data(), payload.size()));
  ser.WriteBytes(payload.data(), payload.size());
  ExpectLoadFailsWith(WriteImage("zm_tables.idx", ser.buffer()),
                      "ZM model tables are inconsistent");
}

TEST(ContainerCorruptionTest, SpecPayloadMismatchIsRefused) {
  // Re-wrap a perfectly valid sharded<2>:grid payload under a header
  // claiming sharded<4>:rsmi (CRC recomputed, so only the spec lies):
  // the loaded index's own KindSpec must be held against the header.
  const auto& image = SavedShardedImage();
  Deserializer src(image);
  IndexContainerInfo info;
  uint64_t magic = 0;
  uint32_t version = 0;
  ASSERT_TRUE(src.ReadPod(&magic));
  ASSERT_TRUE(src.ReadPod(&version));
  ASSERT_TRUE(src.ReadString(&info.spec));
  ASSERT_EQ(info.spec, "sharded<2>:grid");
  ASSERT_TRUE(src.ReadPod(&info.payload_bytes));
  ASSERT_TRUE(src.ReadPod(&info.payload_crc));

  Serializer forged;
  forged.WritePod(kIndexContainerMagic);
  forged.WritePod(kIndexContainerVersion);
  forged.WriteString("sharded<4>:rsmi");
  forged.WritePod<uint64_t>(info.payload_bytes);
  forged.WritePod<uint32_t>(Crc32(src.cursor(), info.payload_bytes));
  forged.WriteBytes(src.cursor(), info.payload_bytes);
  ExpectLoadFailsWith(WriteImage("spec_mismatch.idx", forged.buffer()),
                      "does not match the container spec");
}

// A kind that opts out of persistence (empty KindSpec) — every shipped
// kind persists now, so the refusal path needs a synthetic one.
class NonPersistableIndex : public SpatialIndex {
 public:
  std::string Name() const override { return "stub"; }
  std::optional<PointEntry> PointQuery(const Point&,
                                       QueryContext&) const override {
    return std::nullopt;
  }
  std::vector<Point> WindowQuery(const Rect&, QueryContext&) const override {
    return {};
  }
  std::vector<Point> KnnQuery(const Point&, size_t,
                              QueryContext&) const override {
    return {};
  }
  IndexStats Stats() const override { return IndexStats{}; }
  void ForEachBlockStore(const BlockStoreVisitor&) const override {}

 protected:
  void InsertOne(const Point&) override {}
  bool DeleteOne(const Point&) override { return false; }
};

TEST(ContainerCorruptionTest, SaveRefusesNonPersistableKinds) {
  // A kind whose KindSpec() is empty must be refused up front instead of
  // SaveIndex writing a dud file.
  NonPersistableIndex stub;
  std::string err;
  EXPECT_FALSE(SaveIndex(stub, TempPath("stub.idx"), &err));
  EXPECT_NE(err.find("does not support persistence"), std::string::npos)
      << err;
}

}  // namespace
}  // namespace rsmi
