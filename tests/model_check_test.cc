// Randomized model checking: every index is driven through a long random
// sequence of interleaved operations (insert, delete, point query, window
// query, kNN) and compared after every step against a brute-force
// reference model. Exact indices must agree exactly; the learned indices
// must satisfy their documented guarantees (point queries exact, window
// answers free of false positives, kNN approximate).
#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "baselines/factory.h"
#include "common/rng.h"
#include "core/rsmi_index.h"
#include "data/generators.h"
#include "data/ground_truth.h"
#include "gtest/gtest.h"

namespace rsmi {
namespace {

/// The configurations under test: the six paper indices plus the RSMI
/// update-strategy variants.
enum class Subject {
  kGrid,
  kHrr,
  kKdb,
  kRstar,
  kZm,
  kRsmiOverflow,
  kRsmiLeafBuffer,
  kRsmiGapped,
};

std::string SubjectName(Subject s) {
  switch (s) {
    case Subject::kGrid:
      return "Grid";
    case Subject::kHrr:
      return "HRR";
    case Subject::kKdb:
      return "KDB";
    case Subject::kRstar:
      return "RStar";
    case Subject::kZm:
      return "ZM";
    case Subject::kRsmiOverflow:
      return "RsmiOverflow";
    case Subject::kRsmiLeafBuffer:
      return "RsmiLeafBuffer";
    case Subject::kRsmiGapped:
      return "RsmiGapped";
  }
  return "?";
}

bool IsLearnedApproximate(Subject s) {
  switch (s) {
    case Subject::kZm:
    case Subject::kRsmiOverflow:
    case Subject::kRsmiLeafBuffer:
    case Subject::kRsmiGapped:
      return true;
    default:
      return false;
  }
}

std::unique_ptr<SpatialIndex> MakeSubject(Subject s,
                                          const std::vector<Point>& data) {
  IndexBuildConfig bc;
  bc.block_capacity = 16;
  bc.partition_threshold = 300;
  bc.train.epochs = 50;
  switch (s) {
    case Subject::kGrid:
      return MakeIndex(IndexKind::kGrid, data, bc);
    case Subject::kHrr:
      return MakeIndex(IndexKind::kHrr, data, bc);
    case Subject::kKdb:
      return MakeIndex(IndexKind::kKdb, data, bc);
    case Subject::kRstar:
      return MakeIndex(IndexKind::kRstar, data, bc);
    case Subject::kZm:
      return MakeIndex(IndexKind::kZm, data, bc);
    case Subject::kRsmiOverflow:
    case Subject::kRsmiLeafBuffer:
    case Subject::kRsmiGapped: {
      RsmiConfig rc;
      rc.block_capacity = bc.block_capacity;
      rc.partition_threshold = bc.partition_threshold;
      rc.train = bc.train;
      if (s == Subject::kRsmiLeafBuffer) {
        rc.update_strategy = UpdateStrategy::kLeafBuffer;
      }
      if (s == Subject::kRsmiGapped) rc.build_fill_factor = 0.75;
      auto impl = std::make_shared<RsmiIndex>(data, rc);
      return MakeRsmiView(std::move(impl));
    }
  }
  return nullptr;
}

/// Reference model: a plain vector of live points.
class Reference {
 public:
  explicit Reference(std::vector<Point> pts) : pts_(std::move(pts)) {}

  void Insert(const Point& p) { pts_.push_back(p); }

  bool Delete(const Point& p) {
    for (auto& q : pts_) {
      if (SamePosition(q, p)) {
        q = pts_.back();
        pts_.pop_back();
        return true;
      }
    }
    return false;
  }

  bool Contains(const Point& p) const { return BruteForceContains(pts_, p); }
  const std::vector<Point>& points() const { return pts_; }

 private:
  std::vector<Point> pts_;
};

class ModelCheckTest
    : public ::testing::TestWithParam<std::tuple<Subject, Distribution>> {};

TEST_P(ModelCheckTest, RandomOperationSequenceAgreesWithReference) {
  QueryContext ctx;
  const Subject subject = std::get<0>(GetParam());
  const Distribution dist = std::get<1>(GetParam());

  const auto data = GenerateDataset(dist, 1200, 31);
  auto index = MakeSubject(subject, data);
  ASSERT_NE(index, nullptr);
  Reference ref(data);

  Rng rng(101 + static_cast<uint64_t>(subject) * 13 +
          static_cast<uint64_t>(dist));
  const bool approximate = IsLearnedApproximate(subject);
  double recall_sum = 0.0;
  size_t recall_count = 0;

  for (int step = 0; step < 600; ++step) {
    const int op = static_cast<int>(rng.UniformInt(0, 99));
    if (op < 35) {
      // Insert a fresh point.
      const Point p{rng.Uniform(), rng.Uniform()};
      if (ref.Contains(p)) continue;
      index->Insert(p);
      ref.Insert(p);
      ASSERT_TRUE(index->PointQuery(p, ctx).has_value())
          << SubjectName(subject) << " lost a fresh insert at step " << step;
    } else if (op < 55) {
      // Delete a random live point (or a missing one, 1 in 5 times).
      if (rng.UniformInt(0, 4) == 0 || ref.points().empty()) {
        const Point missing{rng.Uniform() + 2.0, rng.Uniform() + 2.0};
        ASSERT_FALSE(index->Delete(missing));
        continue;
      }
      const size_t i = static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(ref.points().size()) - 1));
      const Point victim = ref.points()[i];
      ASSERT_TRUE(index->Delete(victim)) << SubjectName(subject);
      ref.Delete(victim);
      ASSERT_FALSE(index->PointQuery(victim, ctx).has_value())
          << SubjectName(subject) << " still finds a deleted point";
    } else if (op < 75) {
      // Point query for a live point and for a missing position.
      if (!ref.points().empty()) {
        const size_t i = static_cast<size_t>(rng.UniformInt(
            0, static_cast<int64_t>(ref.points().size()) - 1));
        ASSERT_TRUE(index->PointQuery(ref.points()[i], ctx).has_value())
            << SubjectName(subject) << " missed a live point at step "
            << step;
      }
      const Point outside{rng.Uniform() + 2.0, rng.Uniform() + 2.0};
      ASSERT_FALSE(index->PointQuery(outside, ctx).has_value());
    } else if (op < 90) {
      // Window query.
      const double side = 0.02 + 0.1 * rng.Uniform();
      const Point c{rng.Uniform(), rng.Uniform()};
      const Rect w{{c.x - side / 2, c.y - side / 2},
                   {c.x + side / 2, c.y + side / 2}};
      const auto got = index->WindowQuery(w, ctx);
      const auto want = BruteForceWindow(ref.points(), w);
      for (const Point& p : got) {
        ASSERT_TRUE(w.Contains(p))
            << SubjectName(subject) << " returned a false positive";
        ASSERT_TRUE(ref.Contains(p))
            << SubjectName(subject) << " returned a phantom point";
      }
      if (!approximate) {
        ASSERT_EQ(got.size(), want.size())
            << SubjectName(subject) << " window answer incomplete at step "
            << step;
      } else if (!want.empty()) {
        recall_sum += RecallOf(got, want);
        ++recall_count;
      }
    } else {
      // kNN query.
      if (ref.points().empty()) continue;
      const size_t k = 1 + static_cast<size_t>(rng.UniformInt(0, 9));
      const Point q{rng.Uniform(), rng.Uniform()};
      const auto got = index->KnnQuery(q, k, ctx);
      const auto want = BruteForceKnn(ref.points(), q, k);
      ASSERT_LE(got.size(), k);
      for (const Point& p : got) {
        ASSERT_TRUE(ref.Contains(p))
            << SubjectName(subject) << " kNN returned a phantom point";
      }
      if (!approximate) {
        ASSERT_EQ(got.size(), want.size()) << SubjectName(subject);
        // Same distances (ties may swap identities).
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_NEAR(Dist(q, got[i]), Dist(q, want[i]), 1e-12)
              << SubjectName(subject) << " kNN rank " << i;
        }
      } else if (!want.empty()) {
        recall_sum += RecallOf(got, want);
        ++recall_count;
      }
    }
  }
  EXPECT_EQ(index->Stats().num_points, ref.points().size());
  if (approximate && recall_count > 0) {
    // Aggregate recall must stay in the band the paper reports (>= 87%
    // across settings); allow slack for the tiny training budget here.
    EXPECT_GE(recall_sum / recall_count, 0.75)
        << SubjectName(subject) << " aggregate recall collapsed";
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSubjects, ModelCheckTest,
    ::testing::Combine(
        ::testing::Values(Subject::kGrid, Subject::kHrr, Subject::kKdb,
                          Subject::kRstar, Subject::kZm,
                          Subject::kRsmiOverflow, Subject::kRsmiLeafBuffer,
                          Subject::kRsmiGapped),
        ::testing::Values(Distribution::kUniform, Distribution::kSkewed,
                          Distribution::kOsm)),
    [](const auto& info) {
      return SubjectName(std::get<0>(info.param)) + "_" +
             DistributionName(std::get<1>(info.param));
    });

}  // namespace
}  // namespace rsmi
