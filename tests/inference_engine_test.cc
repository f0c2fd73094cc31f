// Inference-engine parity: every dispatch path (portable scalar,
// generic AVX2 / AVX-512 when the CPU has them, and the shape-specialized
// kernels) must produce results within 1 ULP of the scalar reference
// across random weights and inputs — by construction the kernels share
// one IEEE op sequence, so the tests actually observe 0 ULP — and
// Mlp::Predict / Mlp::PredictBatch must agree bit-for-bit.
// That invariant is what lets the batched descents retrace the exact
// structure the build produced (see nn/inference_engine.h).
#include "nn/inference_engine.h"

#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "baselines/factory.h"
#include "common/rng.h"
#include "data/generators.h"
#include "io/serializer.h"
#include "nn/mlp.h"
#include "gtest/gtest.h"

namespace rsmi {
namespace {

/// Distance in representable doubles (0 = bit-identical). Inputs are
/// finite and same-signed in practice; falls back to a large value on a
/// sign mismatch so the expectation fails loudly.
uint64_t UlpDistance(double a, double b) {
  int64_t ia;
  int64_t ib;
  std::memcpy(&ia, &a, sizeof(ia));
  std::memcpy(&ib, &b, sizeof(ib));
  if ((ia < 0) != (ib < 0)) {
    return a == b ? 0 : UINT64_MAX;  // +0.0 vs -0.0 counts as equal
  }
  return static_cast<uint64_t>(ia > ib ? ia - ib : ib - ia);
}

struct Shape {
  int in;
  int hidden;
};

/// Every specialized sub-model shape the indices instantiate (RSMI
/// leaf, RSMI internals at grid orders 3/2/1, ZM leaf, ZM internal)
/// plus a generic-width one that exercises the non-specialized path.
const Shape kShapes[] = {{2, 51}, {2, 33}, {2, 9}, {2, 3},
                         {1, 50}, {1, 16}, {3, 7}};

const InferenceKernel kAllKernels[] = {
    InferenceKernel::kScalar, InferenceKernel::kAvx2,
    InferenceKernel::kAvx512, InferenceKernel::kSpecialized};

InferenceEngine RandomEngine(const Shape& s, uint64_t seed, double scale) {
  Rng rng(seed);
  std::vector<double> w1(static_cast<size_t>(s.hidden) * s.in);
  std::vector<double> b1(s.hidden);
  std::vector<double> w2(s.hidden);
  for (double& v : w1) v = rng.Uniform(-scale, scale);
  for (double& v : b1) v = rng.Uniform(-scale, scale);
  for (double& v : w2) v = rng.Uniform(-2.0, 2.0);
  return InferenceEngine(s.in, s.hidden, w1.data(), b1.data(), w2.data(),
                         rng.Uniform(-1.0, 1.0));
}

std::vector<double> RandomInputs(int dim, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> xs(n * dim);
  for (double& v : xs) v = rng.Uniform(-1.0, 1.0);
  return xs;
}

TEST(InferenceEngineTest, ScalarKernelIsAlwaysAvailable) {
  EXPECT_TRUE(InferenceKernelAvailable(InferenceKernel::kScalar));
  // The active kernel must be an available one.
  EXPECT_TRUE(InferenceKernelAvailable(ActiveInferenceKernel()));
}

TEST(InferenceEngineTest, EveryDispatchPathMatchesScalarWithinOneUlp) {
  // Wide random weights drive the sigmoid across its whole range,
  // including the saturated tails where exp approximations diverge most.
  for (const Shape& s : kShapes) {
    for (const double scale : {0.5, 8.0, 64.0}) {
      const auto engine =
          RandomEngine(s, 1000 + s.hidden + static_cast<uint64_t>(scale),
                       scale);
      const size_t n = 257;  // odd: exercises every SIMD tail width
      const auto xs =
          RandomInputs(s.in, n, 77 + static_cast<uint64_t>(scale));
      std::vector<double> ref(n);
      engine.PredictBatchWithKernel(InferenceKernel::kScalar, xs.data(), n,
                                    ref.data());
      for (const InferenceKernel k : kAllKernels) {
        // kSpecialized silently falls back to scalar for non-member
        // shapes — still a valid parity check of the fallback.
        if (!InferenceKernelAvailable(k)) continue;
        std::vector<double> got(n, -1e300);
        engine.PredictBatchWithKernel(k, xs.data(), n, got.data());
        for (size_t i = 0; i < n; ++i) {
          EXPECT_LE(UlpDistance(ref[i], got[i]), 1u)
              << InferenceKernelName(k) << " in=" << s.in
              << " hidden=" << s.hidden << " scale=" << scale
              << " sample=" << i << " ref=" << ref[i] << " got=" << got[i];
        }
      }
    }
  }
}

TEST(InferenceEngineTest, BoundKernelFollowsShapeSetAndPolicy) {
  // The engine binds its kernel once at snapshot time: specialized iff
  // the process policy specializes (not forced to a generic kernel) AND
  // the shape has an instantiation; otherwise the process-wide generic
  // kernel. Phrased against the active policy so the whole suite stays
  // green under any RSMI_FORCE_KERNEL (the CI matrix runs it that way).
  const bool spec_policy =
      ActiveInferenceKernelDescription().rfind("specialized", 0) == 0;
  for (const Shape& s : kShapes) {
    const auto engine = RandomEngine(s, 11 + s.hidden, 8.0);
    const bool expect_spec =
        spec_policy && HasSpecializedKernelShape(s.in, s.hidden);
    EXPECT_EQ(engine.bound_kernel() == InferenceKernel::kSpecialized,
              expect_spec)
        << "in=" << s.in << " hidden=" << s.hidden
        << " bound=" << engine.bound_kernel_name();
    if (!expect_spec) {
      EXPECT_EQ(engine.bound_kernel(), ActiveInferenceKernel())
          << "in=" << s.in << " hidden=" << s.hidden;
      EXPECT_EQ(engine.bound_kernel_name(),
                InferenceKernelName(ActiveInferenceKernel()));
    } else {
      EXPECT_EQ(engine.bound_kernel_name().rfind("specialized(", 0), 0u)
          << engine.bound_kernel_name();
    }
    // A copy re-binds under the same policy: identical binding.
    const InferenceEngine copy = engine;
    EXPECT_EQ(copy.bound_kernel(), engine.bound_kernel());
  }
  // Membership of the production shape set is a build invariant.
  EXPECT_TRUE(HasSpecializedKernelShape(2, 51));
  EXPECT_TRUE(HasSpecializedKernelShape(2, 33));
  EXPECT_TRUE(HasSpecializedKernelShape(2, 9));
  EXPECT_TRUE(HasSpecializedKernelShape(2, 3));
  EXPECT_TRUE(HasSpecializedKernelShape(1, 50));
  EXPECT_TRUE(HasSpecializedKernelShape(1, 16));
  EXPECT_FALSE(HasSpecializedKernelShape(3, 7));
}

TEST(InferenceEngineTest, RetrainedModelKeepsKernelParity) {
  // Training replaces the weights and re-snapshots the engine (as leaf
  // retraining after heavy updates does); the fresh binding must keep
  // every dispatch path on the new weights bit-identical.
  const size_t n = 300;
  std::vector<double> x(2 * n);
  std::vector<double> y(n);
  Rng rng(19);
  for (size_t i = 0; i < n; ++i) {
    x[2 * i] = rng.Uniform(-1.0, 1.0);
    x[2 * i + 1] = rng.Uniform(-1.0, 1.0);
    y[i] = 0.5 * x[2 * i] * x[2 * i + 1] + 0.5;
  }
  Mlp mlp(2, 51, /*seed=*/3, /*init_scale=*/24.0);  // specialized shape
  MlpTrainConfig tc;
  tc.epochs = 25;
  for (int round = 0; round < 2; ++round) {
    mlp.Train(x, y, tc);  // twice: initial fit, then a retrain
    const size_t m = 131;  // odd tail again
    const auto xs = RandomInputs(2, m, 23 + static_cast<uint64_t>(round));
    std::vector<double> batch(m);
    mlp.PredictBatch(xs.data(), m, batch.data());
    for (size_t i = 0; i < m; ++i) {
      EXPECT_EQ(UlpDistance(mlp.Predict(&xs[2 * i]), batch[i]), 0u)
          << "round=" << round << " sample=" << i;
    }
  }
}

TEST(InferenceEngineTest, SingleSamplePredictMatchesBatchLanes) {
  for (const Shape& s : kShapes) {
    const auto engine = RandomEngine(s, 5 + s.hidden, 16.0);
    const size_t n = 64;
    const auto xs = RandomInputs(s.in, n, 9);
    std::vector<double> batch(n);
    engine.PredictBatch(xs.data(), n, batch.data());
    for (size_t i = 0; i < n; ++i) {
      const double one = engine.Predict(&xs[i * s.in]);
      EXPECT_EQ(UlpDistance(one, batch[i]), 0u)
          << "in=" << s.in << " hidden=" << s.hidden << " sample=" << i;
    }
  }
}

TEST(InferenceEngineTest, AllBatchLengthsAgreeWithScalar) {
  // n = 0..9 covers empty input, pure-tail batches, and one full SIMD
  // group plus tail.
  const Shape s{2, 13};
  const auto engine = RandomEngine(s, 21, 24.0);
  const auto xs = RandomInputs(s.in, 9, 3);
  for (size_t n = 0; n <= 9; ++n) {
    std::vector<double> got(n + 1, -1e300);
    engine.PredictBatch(xs.data(), n, got.data());
    for (size_t i = 0; i < n; ++i) {
      EXPECT_EQ(UlpDistance(engine.Predict(&xs[i * s.in]), got[i]), 0u)
          << "n=" << n << " sample=" << i;
    }
    EXPECT_EQ(got[n], -1e300) << "wrote past out[" << n << "]";
  }
}

TEST(InferenceEngineTest, CopiedEngineAgrees) {
  const Shape s{2, 17};
  const auto engine = RandomEngine(s, 31, 10.0);
  const InferenceEngine copy = engine;
  InferenceEngine assigned = RandomEngine({1, 3}, 1, 1.0);
  assigned = engine;
  const auto xs = RandomInputs(s.in, 16, 13);
  std::vector<double> a(16);
  std::vector<double> b(16);
  std::vector<double> c(16);
  engine.PredictBatch(xs.data(), 16, a.data());
  copy.PredictBatch(xs.data(), 16, b.data());
  assigned.PredictBatch(xs.data(), 16, c.data());
  EXPECT_EQ(a, b);
  EXPECT_EQ(a, c);
}

TEST(InferenceEngineTest, TrainedMlpBatchMatchesPredictExactly) {
  // End-to-end through Mlp: train a model the way leaves are trained,
  // then require PredictBatch == looped Predict to the last bit.
  const size_t n = 512;
  std::vector<double> x(2 * n);
  std::vector<double> y(n);
  Rng rng(4);
  for (size_t i = 0; i < n; ++i) {
    x[2 * i] = rng.Uniform(-1.0, 1.0);
    x[2 * i + 1] = rng.Uniform(-1.0, 1.0);
    y[i] = 0.5 + 0.25 * x[2 * i] - 0.25 * x[2 * i + 1];
  }
  Mlp mlp(2, 21, /*seed=*/6, /*init_scale=*/24.0);
  MlpTrainConfig tc;
  tc.epochs = 60;
  mlp.Train(x, y, tc);

  std::vector<double> batch(n);
  mlp.PredictBatch(x.data(), n, batch.data());
  for (size_t i = 0; i < n; ++i) {
    EXPECT_EQ(UlpDistance(mlp.Predict(&x[2 * i]), batch[i]), 0u)
        << "sample " << i;
  }
}

/// The batched point path must be indistinguishable from the scalar one:
/// same hits, same misses, same counted costs — for every index kind
/// (learned ones batch through the engine, the rest inherit the looping
/// default), before and after updates perturb the block layout.
class BatchPointParity : public ::testing::TestWithParam<IndexKind> {};

TEST_P(BatchPointParity, BatchedPointQueriesMatchScalarExactly) {
  const auto data = GenerateDataset(Distribution::kSkewed, 2500, 42);
  IndexBuildConfig cfg;
  cfg.block_capacity = 20;
  cfg.partition_threshold = 400;
  cfg.train.epochs = 40;
  cfg.internal_sample_cap = 2048;
  const auto index = MakeIndex(GetParam(), data, cfg);

  // Half stored points (hits), half perturbed (mostly misses).
  std::vector<Point> qs;
  Rng rng(7);
  for (size_t i = 0; i < data.size(); i += 5) {
    qs.push_back(data[i]);
    qs.push_back(Point{data[i].x + rng.Uniform(-0.01, 0.01),
                       data[i].y + rng.Uniform(-0.01, 0.01)});
  }

  auto check = [&] {
    std::vector<QueryContext> scalar_ctxs(qs.size());
    std::vector<std::optional<PointEntry>> want(qs.size());
    for (size_t i = 0; i < qs.size(); ++i) {
      want[i] = index->PointQuery(qs[i], scalar_ctxs[i]);
    }
    std::vector<QueryContext> batch_ctxs(qs.size());
    std::vector<std::optional<PointEntry>> got(qs.size());
    index->PointQueryBatch(qs.data(), qs.size(), batch_ctxs.data(),
                           got.data());
    for (size_t i = 0; i < qs.size(); ++i) {
      ASSERT_EQ(want[i].has_value(), got[i].has_value()) << "query " << i;
      if (want[i].has_value()) {
        EXPECT_EQ(want[i]->id, got[i]->id) << "query " << i;
      }
      // Per-op attribution: query i is charged exactly its scalar cost.
      const QueryContext& s = scalar_ctxs[i];
      const QueryContext& b = batch_ctxs[i];
      EXPECT_EQ(s.block_accesses, b.block_accesses) << "query " << i;
      EXPECT_EQ(s.model_invocations, b.model_invocations) << "query " << i;
      EXPECT_EQ(s.descents, b.descents) << "query " << i;
      EXPECT_EQ(s.nodes_visited, b.nodes_visited) << "query " << i;
    }
  };
  check();

  // Insertions splice overflow blocks; deletions free slots. The batch
  // path must keep retracing the mutated structure exactly.
  for (size_t i = 0; i < 200; ++i) {
    index->Insert(Point{rng.Uniform(), rng.Uniform()});
  }
  for (size_t i = 0; i < data.size(); i += 17) index->Delete(data[i]);
  check();
}

INSTANTIATE_TEST_SUITE_P(AllIndices, BatchPointParity,
                         ::testing::Values(IndexKind::kRsmi, IndexKind::kZm,
                                           IndexKind::kRsmia,
                                           IndexKind::kGrid),
                         [](const ::testing::TestParamInfo<IndexKind>& info) {
                           return IndexKindName(info.param);
                         });

TEST(InferenceEngineTest, PersistedMlpKeepsExactPredictions) {
  // Save/load must land on the same engine snapshot: the deployment
  // story ("build offline, query online") depends on a reloaded index
  // retracing the builder's predictions exactly.
  Mlp mlp(2, 11, /*seed=*/8, /*init_scale=*/24.0);
  Serializer out;
  mlp.WriteTo(out);
  Deserializer in(out.buffer());
  Mlp loaded(1, 1);
  ASSERT_TRUE(Mlp::ReadFrom(in, &loaded));

  const auto xs = RandomInputs(2, 64, 15);
  std::vector<double> a(64);
  std::vector<double> b(64);
  mlp.PredictBatch(xs.data(), 64, a.data());
  loaded.PredictBatch(xs.data(), 64, b.data());
  EXPECT_EQ(a, b);
}

}  // namespace
}  // namespace rsmi
