// Edge-case conformance, parameterized over every index kind: empty and
// single-point indices, block-capacity boundaries, degenerate windows,
// collinear data (where the rank-space tie-breaking rules do the work),
// data far outside the unit square, and extreme k values.
#include <memory>
#include <vector>

#include "baselines/factory.h"
#include "data/generators.h"
#include "data/ground_truth.h"
#include "gtest/gtest.h"

namespace rsmi {
namespace {

IndexBuildConfig SmallConfig() {
  IndexBuildConfig cfg;
  cfg.block_capacity = 8;
  cfg.partition_threshold = 64;
  cfg.train.epochs = 15;
  return cfg;
}

class EdgeCaseTest : public ::testing::TestWithParam<IndexKind> {
 protected:
  std::unique_ptr<SpatialIndex> Make(const std::vector<Point>& pts) {
    return MakeIndex(GetParam(), pts, SmallConfig());
  }
};

TEST_P(EdgeCaseTest, EmptyIndexAnswersEverythingEmpty) {
  QueryContext ctx;
  auto index = Make({});
  EXPECT_FALSE(index->PointQuery(Point{0.5, 0.5}, ctx).has_value());
  EXPECT_TRUE(index->WindowQuery(Rect::UnitSquare(), ctx).empty());
  EXPECT_TRUE(index->KnnQuery(Point{0.5, 0.5}, 5, ctx).empty());
  EXPECT_FALSE(index->Delete(Point{0.5, 0.5}));
  EXPECT_EQ(index->Stats().num_points, 0u);
}

TEST_P(EdgeCaseTest, FirstInsertIntoEmptyIndexIsQueryable) {
  QueryContext ctx;
  auto index = Make({});
  index->Insert(Point{0.25, 0.75});
  EXPECT_TRUE(index->PointQuery(Point{0.25, 0.75}, ctx).has_value());
  EXPECT_EQ(index->WindowQuery(Rect::UnitSquare(), ctx).size(), 1u);
  EXPECT_EQ(index->KnnQuery(Point{0.9, 0.9}, 3, ctx).size(), 1u);
  EXPECT_TRUE(index->Delete(Point{0.25, 0.75}));
  EXPECT_EQ(index->Stats().num_points, 0u);
}

TEST_P(EdgeCaseTest, SinglePointIndex) {
  QueryContext ctx;
  auto index = Make({Point{0.4, 0.6}});
  EXPECT_TRUE(index->PointQuery(Point{0.4, 0.6}, ctx).has_value());
  EXPECT_FALSE(index->PointQuery(Point{0.6, 0.4}, ctx).has_value());
  const auto knn = index->KnnQuery(Point{0.0, 0.0}, 10, ctx);
  ASSERT_EQ(knn.size(), 1u);
  EXPECT_TRUE(SamePosition(knn[0], Point{0.4, 0.6}));
}

TEST_P(EdgeCaseTest, BlockCapacityBoundaries) {
  // n = B-1, B, B+1 with B = 8: exercises the one-block/two-block seam.
  QueryContext ctx;
  for (size_t n : {7u, 8u, 9u}) {
    const auto data = GenerateDataset(Distribution::kUniform, n, 61);
    auto index = Make(data);
    EXPECT_EQ(index->WindowQuery(Rect::UnitSquare(), ctx).size(), n);
    for (const auto& p : data) {
      EXPECT_TRUE(index->PointQuery(p, ctx).has_value());
    }
  }
}

TEST_P(EdgeCaseTest, DegeneratePointWindowFindsExactPoint) {
  QueryContext ctx;
  const auto data = GenerateDataset(Distribution::kNormal, 500, 62);
  auto index = Make(data);
  // A zero-area (closed) window exactly on a data point must contain it
  // for the exact indices; the learned approximations must at least not
  // return anything else.
  const Point target = data[123];
  const Rect w{target, target};
  const auto got = index->WindowQuery(w, ctx);
  for (const Point& p : got) EXPECT_TRUE(SamePosition(p, target));
  if (!HasApproximateQueries(GetParam())) {
    ASSERT_EQ(got.size(), 1u);
  }
}

TEST_P(EdgeCaseTest, WindowOutsideDataBoundsIsEmpty) {
  QueryContext ctx;
  const auto data = GenerateDataset(Distribution::kSkewed, 300, 63);
  auto index = Make(data);
  EXPECT_TRUE(index->WindowQuery(Rect{{2.0, 2.0}, {3.0, 3.0}}, ctx).empty());
  EXPECT_TRUE(
      index->WindowQuery(Rect{{-3.0, -3.0}, {-2.0, -2.0}}, ctx).empty());
}

TEST_P(EdgeCaseTest, FullSpaceWindowReturnsEverythingForExactIndices) {
  QueryContext ctx;
  const auto data = GenerateDataset(Distribution::kOsm, 700, 64);
  auto index = Make(data);
  const auto got = index->WindowQuery(Rect{{-1.0, -1.0}, {2.0, 2.0}}, ctx);
  if (HasApproximateQueries(GetParam())) {
    EXPECT_GE(got.size(), data.size() * 3 / 4);
    EXPECT_LE(got.size(), data.size());
  } else {
    EXPECT_EQ(got.size(), data.size());
  }
}

TEST_P(EdgeCaseTest, KnnWithKLargerThanNReturnsAllPoints) {
  QueryContext ctx;
  const auto data = GenerateDataset(Distribution::kUniform, 25, 65);
  auto index = Make(data);
  const auto got = index->KnnQuery(Point{0.5, 0.5}, 1000, ctx);
  EXPECT_EQ(got.size(), data.size());
}

TEST_P(EdgeCaseTest, KnnWithKZeroIsEmpty) {
  QueryContext ctx;
  const auto data = GenerateDataset(Distribution::kUniform, 50, 66);
  auto index = Make(data);
  EXPECT_TRUE(index->KnnQuery(Point{0.5, 0.5}, 0, ctx).empty());
}

TEST_P(EdgeCaseTest, VerticallyCollinearData) {
  // All points share one x-coordinate: the rank-space transform relies
  // entirely on its tie-breaking rule (x-ties broken by y, Section 3.1).
  QueryContext ctx;
  std::vector<Point> data;
  for (int i = 0; i < 200; ++i) {
    data.push_back(Point{0.5, (i + 1) / 201.0});
  }
  auto index = Make(data);
  for (size_t i = 0; i < data.size(); i += 11) {
    EXPECT_TRUE(index->PointQuery(data[i], ctx).has_value());
  }
  const Rect w{{0.4, 0.2}, {0.6, 0.4}};
  const auto got = index->WindowQuery(w, ctx);
  const auto want = BruteForceWindow(data, w);
  if (HasApproximateQueries(GetParam())) {
    for (const Point& p : got) EXPECT_TRUE(w.Contains(p));
  } else {
    EXPECT_EQ(got.size(), want.size());
  }
}

TEST_P(EdgeCaseTest, HorizontallyCollinearData) {
  QueryContext ctx;
  std::vector<Point> data;
  for (int i = 0; i < 200; ++i) {
    data.push_back(Point{(i + 1) / 201.0, 0.25});
  }
  auto index = Make(data);
  for (size_t i = 0; i < data.size(); i += 13) {
    EXPECT_TRUE(index->PointQuery(data[i], ctx).has_value());
  }
  const auto knn = index->KnnQuery(Point{0.5, 0.25}, 5, ctx);
  EXPECT_EQ(knn.size(), 5u);
}

TEST_P(EdgeCaseTest, DataOutsideUnitSquare) {
  // Coordinates in [100, 900]^2: nothing in the library may assume the
  // unit square (per-node normalization handles arbitrary bounds).
  QueryContext ctx;
  auto data = GenerateDataset(Distribution::kSkewed, 600, 67);
  for (auto& p : data) {
    p.x = 100.0 + p.x * 800.0;
    p.y = 100.0 + p.y * 800.0;
  }
  auto index = Make(data);
  for (size_t i = 0; i < data.size(); i += 17) {
    EXPECT_TRUE(index->PointQuery(data[i], ctx).has_value());
  }
  const Rect w{{300.0, 300.0}, {500.0, 500.0}};
  const auto got = index->WindowQuery(w, ctx);
  const auto want = BruteForceWindow(data, w);
  for (const Point& p : got) EXPECT_TRUE(w.Contains(p));
  if (!HasApproximateQueries(GetParam())) {
    EXPECT_EQ(got.size(), want.size());
  } else if (!want.empty()) {
    EXPECT_GE(static_cast<double>(got.size()) / want.size(), 0.5);
  }
}

TEST_P(EdgeCaseTest, TinyClusterFarFromOrigin) {
  // A micro-cluster at (1e6, 1e6) with spacing 1e-6: normalization must
  // keep the precision to separate the points.
  QueryContext ctx;
  std::vector<Point> data;
  for (int i = 0; i < 64; ++i) {
    data.push_back(
        Point{1e6 + (i % 8) * 1e-6, 1e6 + (i / 8) * 1e-6});
  }
  auto index = Make(data);
  size_t found = 0;
  for (const auto& p : data) {
    found += index->PointQuery(p, ctx).has_value();
  }
  EXPECT_EQ(found, data.size());
}

INSTANTIATE_TEST_SUITE_P(AllKinds, EdgeCaseTest,
                         ::testing::ValuesIn(AllIndexKinds()),
                         [](const auto& info) {
                           std::string name = IndexKindName(info.param);
                           for (char& c : name) {
                             if (c == '*') c = 's';
                           }
                           return name;
                         });

}  // namespace
}  // namespace rsmi
