#ifndef RSMI_NN_INFERENCE_ENGINE_H_
#define RSMI_NN_INFERENCE_ENGINE_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>

namespace rsmi {

/// Forward-pass kernels PredictBatch can dispatch to.
enum class InferenceKernel {
  /// Portable scalar kernel (always available, every platform).
  kScalar,
  /// 4-wide AVX2+FMA kernel, vectorized across the batch dimension
  /// (x86-64 with GCC/Clang only; selected at runtime via cpuid).
  kAvx2,
  /// 8-wide AVX-512 (F+DQ) kernel, same schedule widened to zmm.
  kAvx512,
  /// Shape-specialized fully-unrolled kernel for the fixed MLP shapes
  /// the hidden-dim rule produces, instantiated at the widest ISA the
  /// CPU supports and bound per-engine at snapshot time.
  kSpecialized,
};

/// Display name: "scalar" / "avx2" / "avx512" / "specialized".
std::string InferenceKernelName(InferenceKernel k);

/// The *generic* kernel PredictBatch dispatches to in this process for
/// shapes without a specialized instantiation: the widest instruction
/// set the CPU supports, unless overridden by environment variables
/// (decided once at first use):
///
///   RSMI_FORCE_KERNEL=scalar|avx2|avx512|specialized
///     Pins the dispatch path. `scalar`/`avx2`/`avx512` also disable
///     shape specialization so the generic path is what actually runs;
///     `specialized` is the default policy made explicit. Unavailable
///     requests fall back down the chain (avx512 -> avx2 -> scalar).
///
/// Forcing a kernel never changes results — every kernel is
/// bit-identical by construction.
InferenceKernel ActiveInferenceKernel();

/// Human-readable summary of the process-wide dispatch policy, e.g.
/// "specialized+avx512" (specialized kernels where the shape matches,
/// generic AVX-512 otherwise) or "scalar" — for CLI / loadgen reports.
std::string ActiveInferenceKernelDescription();

/// True if `k` can run on this machine and build. For kSpecialized this
/// means *some* SIMD ISA is available to host specialized kernels; use
/// HasSpecializedKernelShape for the per-shape check.
bool InferenceKernelAvailable(InferenceKernel k);

/// True if (input_dim, hidden_dim) has a specialized instantiation in
/// this build (shape-set membership; independent of the CPU).
bool HasSpecializedKernelShape(int input_dim, int hidden_dim);

/// Batch-chunk width (in samples) for the fused level-synchronous
/// descents (RsmiIndex / ZmIndex): descents slice each per-node segment
/// into chunks of this many samples so the feature/prediction staging
/// buffers stay cache-resident. Autotuned once per process with a quick
/// micro-calibration over a representative engine shape. Chunking never
/// changes results or query counters — kernels are batch-size invariant.
size_t BatchDescentChunkWidth();

/// Batched forward pass over one trained MLP's weights.
///
/// The engine snapshots the weights into a flat, 64-byte-aligned buffer
/// (`[w1 | b1 | w2 | b2]`, the hot descent state of one sub-model on a
/// single cache-line-aligned run) and serves `PredictBatch`, which
/// evaluates `n` samples per call instead of paying per-sample call and
/// cache-miss overhead — the per-level building block of the batched
/// RSMI/ZM descents (src/core/, src/baselines/) and of the cross-query
/// grouping in the batch query engine (src/exec/).
///
/// The kernel is bound once at snapshot time (construction, copy, and
/// persistence load all rebuild the engine): if the model's shape is in
/// the specialized set and a SIMD ISA is available, `PredictBatch`
/// calls the fully-unrolled shape-specialized kernel directly with no
/// per-call dispatch; otherwise it calls the process-wide generic
/// kernel.
///
/// Every kernel computes the *same IEEE-754 operation sequence* per
/// sample (explicit FMA plus a shared polynomial exp in the scalar and
/// all vector schedules — see nn/kernel_math.h), so the results are
/// bit-identical across dispatch paths and machines — and bit-identical
/// to `Mlp::Predict`, which delegates to this engine's scalar kernel.
/// That invariant is what keeps learned-index structures reproducible:
/// the grouping decisions made with batch inference at build time are
/// retraced exactly by scalar inference at query time and vice versa
/// (tests/inference_engine_test.cc asserts it to the last bit).
///
/// Thread-safety: immutable after construction; any number of threads
/// may call the predict methods concurrently.
class InferenceEngine {
 public:
  /// Snapshots the weights: `w1` is hidden x input row-major, `b1` and
  /// `w2` have `hidden_dim` entries. Binds the kernel for this shape.
  InferenceEngine(int input_dim, int hidden_dim, const double* w1,
                  const double* b1, const double* w2, double b2);

  InferenceEngine(const InferenceEngine& other);
  InferenceEngine& operator=(const InferenceEngine& other);
  InferenceEngine(InferenceEngine&&) noexcept = default;
  InferenceEngine& operator=(InferenceEngine&&) noexcept = default;

  /// Forward pass on `n` samples (`xs` holds n * input_dim row-major
  /// features) through the kernel bound at snapshot time; writes `n`
  /// outputs.
  void PredictBatch(const double* xs, size_t n, double* out) const;

  /// Same, through an explicitly chosen kernel (parity tests exercise
  /// every available path). Falls back to scalar when `k` is not
  /// available on this machine (or, for kSpecialized, when the shape
  /// has no specialized instantiation).
  void PredictBatchWithKernel(InferenceKernel k, const double* xs, size_t n,
                              double* out) const;

  /// Single-sample forward pass (the scalar kernel; bit-identical to any
  /// PredictBatch lane).
  double Predict(const double* features) const;

  int input_dim() const { return in_; }
  int hidden_dim() const { return hidden_; }

  /// The kernel PredictBatch is bound to (decided at snapshot time).
  InferenceKernel bound_kernel() const { return bound_kind_; }

  /// Display name of the bound kernel; specialized kernels include the
  /// host ISA, e.g. "specialized(avx512)".
  std::string bound_kernel_name() const;

  /// Exact bytes of the engine's weight snapshot allocation (the flat
  /// aligned buffer the bound kernel reads). Size accounting in
  /// Mlp::SizeBytes / index Stats() includes this.
  size_t SnapshotBytes() const { return len_ * sizeof(double); }

 private:
  struct AlignedDeleter {
    void operator()(double* p) const;
  };

  void CopyFrom(const InferenceEngine& other);
  void BindKernel();

  int in_;
  int hidden_;
  size_t len_ = 0;  ///< doubles in the flat buffer
  /// Flat 64-byte-aligned weight buffer: [w1 (h*in) | b1 (h) | w2 (h) | b2].
  std::unique_ptr<double[], AlignedDeleter> data_;
  /// Snapshot-time kernel binding (no per-call dispatch).
  InferenceKernel bound_kind_ = InferenceKernel::kScalar;
  InferenceKernel spec_isa_ = InferenceKernel::kScalar;
  void (*batch_)(int, int, const double*, const double*, const double*,
                 double, const double*, size_t, double*) = nullptr;
  double (*one_)(int, int, const double*, const double*, const double*,
                 double, const double*) = nullptr;
};

}  // namespace rsmi

#endif  // RSMI_NN_INFERENCE_ENGINE_H_
