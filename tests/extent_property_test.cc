// Extent-object index properties (the paper's query-expansion extension):
// exactness of the MBR-based variant against brute force, the
// no-false-positive guarantee of the approximate variant, and stabbing
// query semantics — across extent-size regimes.
#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "core/extent_index.h"
#include "data/generators.h"
#include "gtest/gtest.h"

namespace rsmi {
namespace {

RsmiConfig SmallConfig() {
  RsmiConfig cfg;
  cfg.block_capacity = 20;
  cfg.partition_threshold = 400;
  cfg.train.epochs = 40;
  return cfg;
}

std::vector<Rect> RandomRects(size_t n, double max_side, uint64_t seed) {
  Rng rng(seed);
  const auto centers = GenerateDataset(Distribution::kNormal, n, seed);
  std::vector<Rect> rects;
  rects.reserve(n);
  for (const auto& c : centers) {
    const double hw = max_side * rng.Uniform() / 2;
    const double hh = max_side * rng.Uniform() / 2;
    rects.push_back(Rect{{c.x - hw, c.y - hh}, {c.x + hw, c.y + hh}});
  }
  return rects;
}

std::vector<Rect> BruteForceIntersecting(const std::vector<Rect>& objects,
                                         const Rect& w) {
  std::vector<Rect> out;
  for (const Rect& r : objects) {
    if (r.Intersects(w)) out.push_back(r);
  }
  return out;
}

class ExtentSizeTest : public ::testing::TestWithParam<double> {};

TEST_P(ExtentSizeTest, ExactWindowQueryMatchesBruteForce) {
  QueryContext ctx;
  const auto objects = RandomRects(2000, GetParam(), 71);
  RsmiExtentIndex index(objects, SmallConfig());

  Rng rng(72);
  for (int trial = 0; trial < 30; ++trial) {
    const Point c{rng.Uniform(), rng.Uniform()};
    const double half = 0.02 + 0.05 * rng.Uniform();
    const Rect w{{c.x - half, c.y - half}, {c.x + half, c.y + half}};
    const auto got = index.WindowQueryExact(w, ctx);
    const auto want = BruteForceIntersecting(objects, w);
    ASSERT_EQ(got.size(), want.size())
        << "max_side=" << GetParam() << " trial " << trial;
  }
}

TEST_P(ExtentSizeTest, ApproximateWindowQueryHasNoFalsePositives) {
  QueryContext ctx;
  const auto objects = RandomRects(2000, GetParam(), 73);
  RsmiExtentIndex index(objects, SmallConfig());

  Rng rng(74);
  size_t got_total = 0;
  size_t want_total = 0;
  for (int trial = 0; trial < 30; ++trial) {
    const Point c{rng.Uniform(), rng.Uniform()};
    const double half = 0.02 + 0.05 * rng.Uniform();
    const Rect w{{c.x - half, c.y - half}, {c.x + half, c.y + half}};
    const auto got = index.WindowQuery(w, ctx);
    for (const Rect& r : got) {
      ASSERT_TRUE(r.Intersects(w)) << "false positive";
    }
    got_total += got.size();
    want_total += BruteForceIntersecting(objects, w).size();
  }
  ASSERT_GT(want_total, 0u);
  // Aggregate recall stays within the paper's reported band (>= 87%),
  // with slack for the small training budget.
  EXPECT_GE(static_cast<double>(got_total) / want_total, 0.75);
}

INSTANTIATE_TEST_SUITE_P(ExtentRegimes, ExtentSizeTest,
                         ::testing::Values(0.001, 0.01, 0.05),
                         [](const auto& info) {
                           const double v = info.param;
                           return v == 0.001 ? "tiny"
                                             : (v == 0.01 ? "small" : "wide");
                         });

TEST(ExtentStabbingTest, FindsExactlyTheContainingObjects) {
  QueryContext ctx;
  const auto objects = RandomRects(1500, 0.03, 75);
  RsmiExtentIndex index(objects, SmallConfig());

  Rng rng(76);
  for (int trial = 0; trial < 200; ++trial) {
    const Point p{rng.Uniform(), rng.Uniform()};
    const auto got = index.StabQuery(p, ctx);
    size_t want = 0;
    for (const Rect& r : objects) want += r.Contains(p);
    ASSERT_EQ(got.size(), want);
    for (const Rect& r : got) ASSERT_TRUE(r.Contains(p));
  }
}

TEST(ExtentStabbingTest, CornersAndEdgesCountAsContained) {
  // Closed-rectangle semantics: a stab exactly on a corner hits.
  QueryContext ctx;
  std::vector<Rect> objects = {Rect{{0.2, 0.2}, {0.4, 0.4}},
                               Rect{{0.4, 0.4}, {0.6, 0.6}}};
  // Pad with filler so the underlying index is non-trivial.
  const auto filler = RandomRects(500, 0.005, 77);
  objects.insert(objects.end(), filler.begin(), filler.end());
  RsmiExtentIndex index(objects, SmallConfig());

  const auto at_corner = index.StabQuery(Point{0.4, 0.4}, ctx);
  size_t containing = 0;
  for (const Rect& r : at_corner) {
    EXPECT_TRUE(r.Contains(Point{0.4, 0.4}));
    containing += (r.lo.x == 0.2 || r.lo.x == 0.4);
  }
  EXPECT_GE(containing, 2u);  // both squares share the corner
}

TEST(ExtentIndexTest, UniformExtentExpandsTightly) {
  // With identical extents the expansion is exact: candidate count equals
  // centers-in-expanded-window, so recall of the exact variant is 1 and
  // the approximate variant has no structural slack either.
  QueryContext ctx;
  std::vector<Rect> objects;
  const auto centers = GenerateDataset(Distribution::kUniform, 1000, 78);
  for (const auto& c : centers) {
    objects.push_back(
        Rect{{c.x - 0.005, c.y - 0.005}, {c.x + 0.005, c.y + 0.005}});
  }
  RsmiExtentIndex index(objects, SmallConfig());
  const Rect w{{0.3, 0.3}, {0.5, 0.5}};
  EXPECT_EQ(index.WindowQueryExact(w, ctx).size(),
            BruteForceIntersecting(objects, w).size());
}

}  // namespace
}  // namespace rsmi
