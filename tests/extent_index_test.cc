// Tests for the non-zero-extent extension (query expansion over the
// learned point index — the future-work direction named in the paper's
// conclusion).
#include "core/extent_index.h"

#include <vector>

#include "common/rng.h"
#include "data/generators.h"
#include "gtest/gtest.h"

namespace rsmi {
namespace {

RsmiConfig TestConfig() {
  RsmiConfig cfg;
  cfg.block_capacity = 20;
  cfg.partition_threshold = 400;
  cfg.train.epochs = 60;
  cfg.train.batch_size = 128;
  return cfg;
}

/// Random rectangles with centers following a point distribution.
std::vector<Rect> MakeObjects(Distribution d, size_t n, double max_extent,
                              uint64_t seed) {
  const auto centers = GenerateDataset(d, n, seed);
  Rng rng(seed ^ 0xE77);
  std::vector<Rect> out;
  out.reserve(n);
  for (const auto& c : centers) {
    const double hw = rng.Uniform() * max_extent / 2;
    const double hh = rng.Uniform() * max_extent / 2;
    out.push_back(Rect{{c.x - hw, c.y - hh}, {c.x + hw, c.y + hh}});
  }
  return out;
}

std::vector<Rect> BruteForceIntersecting(const std::vector<Rect>& objects,
                                         const Rect& w) {
  std::vector<Rect> out;
  for (const auto& r : objects) {
    if (r.Intersects(w)) out.push_back(r);
  }
  return out;
}

TEST(ExtentIndexTest, ExactWindowMatchesBruteForce) {
  QueryContext ctx;
  const auto objects = MakeObjects(Distribution::kOsm, 3000, 0.01, 5);
  RsmiExtentIndex index(objects, TestConfig());
  EXPECT_EQ(index.size(), objects.size());
  Rng rng(6);
  for (int trial = 0; trial < 30; ++trial) {
    const Point c{rng.Uniform(), rng.Uniform()};
    const Rect w{{c.x - 0.02, c.y - 0.02}, {c.x + 0.02, c.y + 0.02}};
    const auto got = index.WindowQueryExact(w, ctx);
    const auto truth = BruteForceIntersecting(objects, w);
    EXPECT_EQ(got.size(), truth.size()) << "trial " << trial;
  }
}

TEST(ExtentIndexTest, ApproximateWindowHasNoFalsePositives) {
  QueryContext ctx;
  const auto objects = MakeObjects(Distribution::kSkewed, 3000, 0.01, 7);
  RsmiExtentIndex index(objects, TestConfig());
  Rng rng(8);
  size_t got_total = 0;
  size_t truth_total = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const Point c{rng.Uniform(), rng.Uniform()};
    const Rect w{{c.x - 0.03, c.y - 0.03}, {c.x + 0.03, c.y + 0.03}};
    const auto got = index.WindowQuery(w, ctx);
    for (const auto& r : got) {
      EXPECT_TRUE(r.Intersects(w));
    }
    got_total += got.size();
    truth_total += BruteForceIntersecting(objects, w).size();
  }
  // Healthy recall in aggregate.
  EXPECT_GT(static_cast<double>(got_total),
            0.8 * static_cast<double>(truth_total));
}

TEST(ExtentIndexTest, StabQueryFindsCoveringObjects) {
  // A handful of big rectangles with known containment.
  QueryContext ctx;
  std::vector<Rect> objects = MakeObjects(Distribution::kUniform, 500, 0.005, 9);
  objects.push_back(Rect{{0.4, 0.4}, {0.6, 0.6}});
  objects.push_back(Rect{{0.45, 0.45}, {0.55, 0.55}});
  RsmiExtentIndex index(objects, TestConfig());
  const auto hits = index.StabQuery(Point{0.5, 0.5}, ctx);
  size_t big = 0;
  for (const auto& r : hits) {
    EXPECT_TRUE(r.Contains(Point{0.5, 0.5}));
    if (r.Area() > 0.005) ++big;
  }
  EXPECT_EQ(big, 2u);  // both hand-placed rectangles found
}

TEST(ExtentIndexTest, ZeroExtentObjectsDegradeToPointIndex) {
  QueryContext ctx;
  const auto centers = GenerateDataset(Distribution::kNormal, 1000, 11);
  std::vector<Rect> objects;
  objects.reserve(centers.size());
  for (const auto& c : centers) objects.push_back(Rect{c, c});
  RsmiExtentIndex index(objects, TestConfig());
  const Rect w{{0.45, 0.45}, {0.55, 0.55}};
  const auto got = index.WindowQueryExact(w, ctx);
  size_t truth = 0;
  for (const auto& c : centers) {
    if (w.Contains(c)) ++truth;
  }
  EXPECT_EQ(got.size(), truth);
}

}  // namespace
}  // namespace rsmi
