#include "nn/inference_engine.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <limits>
#include <new>
#include <vector>

#include "common/env.h"
#include "common/timer.h"
#include "nn/kernel_math.h"
#include "nn/kernels.h"

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define RSMI_X86_DISPATCH 1
#endif

namespace rsmi {
namespace {

using kernels::BatchFn;
using OneFn = double (*)(int, int, const double*, const double*, const double*,
                         double, const double*);

// ---------------------------------------------------------------------------
// Scalar kernel. The body (nn/kernel_math.h) is always_inline so the
// FMA-enabled wrapper below compiles it with hardware vfmadd while the
// portable wrapper falls back to libm fma — numerically identical either
// way (fma is fused by definition), only the speed differs.
// ---------------------------------------------------------------------------

double PredictOneScalar(int in, int hidden, const double* w1, const double* b1,
                        const double* w2, double b2, const double* f) {
  return nn_math::PredictOneImpl(in, hidden, w1, b1, w2, b2, f);
}

void PredictBatchScalar(int in, int hidden, const double* w1, const double* b1,
                        const double* w2, double b2, const double* xs,
                        size_t n, double* out) {
  nn_math::PredictBatchImpl(in, hidden, w1, b1, w2, b2, xs, n, out);
}

#if defined(RSMI_X86_DISPATCH)

__attribute__((target("fma"))) double PredictOneScalarFma(
    int in, int hidden, const double* w1, const double* b1, const double* w2,
    double b2, const double* f) {
  return nn_math::PredictOneImpl(in, hidden, w1, b1, w2, b2, f);
}

__attribute__((target("fma"))) void PredictBatchScalarFma(
    int in, int hidden, const double* w1, const double* b1, const double* w2,
    double b2, const double* xs, size_t n, double* out) {
  nn_math::PredictBatchImpl(in, hidden, w1, b1, w2, b2, xs, n, out);
}

#endif  // RSMI_X86_DISPATCH

// ---------------------------------------------------------------------------
// Runtime dispatch policy (process-wide, decided once at first use).
// The SIMD kernels themselves live in kernels_avx2.cc / kernels_avx512.cc
// — per-ISA translation units looked up through nn/kernels.h.
// ---------------------------------------------------------------------------

bool CpuHasAvx2Fma() {
#if defined(RSMI_X86_DISPATCH)
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

bool CpuHasAvx512() {
#if defined(RSMI_X86_DISPATCH)
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq");
#else
  return false;
#endif
}

bool Avx2Usable() { return CpuHasAvx2Fma() && kernels::GenericAvx2() != nullptr; }
bool Avx512Usable() {
  return CpuHasAvx512() && kernels::GenericAvx512() != nullptr;
}

enum class ForcedKernel { kNone, kScalar, kAvx2, kAvx512, kSpecialized };

ForcedKernel ForcedKernelFromEnv() {
  std::string v = GetEnvString("RSMI_FORCE_KERNEL", "");
  for (char& c : v) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  if (v == "scalar") return ForcedKernel::kScalar;
  if (v == "avx2") return ForcedKernel::kAvx2;
  if (v == "avx512") return ForcedKernel::kAvx512;
  if (v == "specialized") return ForcedKernel::kSpecialized;
  return ForcedKernel::kNone;  // unknown value: default policy
}

struct Dispatch {
  /// Generic kernel for shapes without a specialized instantiation.
  InferenceKernel kind = InferenceKernel::kScalar;
  BatchFn batch = &PredictBatchScalar;
  OneFn one = &PredictOneScalar;
  /// Bind specialized kernels at snapshot time where the shape matches.
  bool specialize = false;
  /// ISA hosting the specialized instantiations (widest usable).
  InferenceKernel spec_isa = InferenceKernel::kScalar;
};

const Dispatch& ActiveDispatch() {
  static const Dispatch d = [] {
    Dispatch out;
#if defined(RSMI_X86_DISPATCH)
    // Hardware-FMA scalar wrappers: bit-identical to the portable
    // kernel (fma is fused either way), only faster — so even the
    // forced-scalar escape hatch keeps them. Forcing scalar pins the
    // *scalar* kernel (no vector unit on the inference path); it does
    // not change the arithmetic.
    if (__builtin_cpu_supports("fma")) {
      out.batch = &PredictBatchScalarFma;
      out.one = &PredictOneScalarFma;
    }
#endif
    const ForcedKernel forced = ForcedKernelFromEnv();
    if (forced == ForcedKernel::kScalar) return out;
    // Widest generic kernel the request and machine allow; unavailable
    // requests fall back down the chain (avx512 -> avx2 -> scalar).
    InferenceKernel width = InferenceKernel::kScalar;
    if (Avx2Usable()) width = InferenceKernel::kAvx2;
    if (Avx512Usable() && forced != ForcedKernel::kAvx2)
      width = InferenceKernel::kAvx512;
    if (width == InferenceKernel::kAvx512) {
      out.kind = width;
      out.batch = kernels::GenericAvx512();
    } else if (width == InferenceKernel::kAvx2) {
      out.kind = width;
      out.batch = kernels::GenericAvx2();
    }
#if defined(RSMI_X86_DISPATCH)
    if (width != InferenceKernel::kScalar) {
      out.one = &PredictOneScalarFma;  // bit-identical to any SIMD lane
    }
#endif
    // Forcing a generic SIMD kernel disables shape specialization so
    // the forced path is what actually runs (the CI matrix leans on
    // this to exercise each generic kernel through the full stack).
    out.specialize = (forced == ForcedKernel::kNone ||
                      forced == ForcedKernel::kSpecialized) &&
                     width != InferenceKernel::kScalar;
    out.spec_isa = width;
    return out;
  }();
  return d;
}

}  // namespace

std::string InferenceKernelName(InferenceKernel k) {
  switch (k) {
    case InferenceKernel::kScalar:
      return "scalar";
    case InferenceKernel::kAvx2:
      return "avx2";
    case InferenceKernel::kAvx512:
      return "avx512";
    case InferenceKernel::kSpecialized:
      return "specialized";
  }
  return "?";
}

InferenceKernel ActiveInferenceKernel() { return ActiveDispatch().kind; }

std::string ActiveInferenceKernelDescription() {
  const Dispatch& d = ActiveDispatch();
  if (d.specialize) {
    return "specialized+" + InferenceKernelName(d.spec_isa);
  }
  return InferenceKernelName(d.kind);
}

bool InferenceKernelAvailable(InferenceKernel k) {
  switch (k) {
    case InferenceKernel::kScalar:
      return true;
    case InferenceKernel::kAvx2:
      return Avx2Usable();
    case InferenceKernel::kAvx512:
      return Avx512Usable();
    case InferenceKernel::kSpecialized:
      return Avx2Usable() || Avx512Usable();
  }
  return false;
}

bool HasSpecializedKernelShape(int input_dim, int hidden_dim) {
  return kernels::HasSpecializedShape(input_dim, hidden_dim);
}

namespace kernels {

bool HasSpecializedShape(int in, int hidden) {
#define RSMI_SPEC_ROW(IN, H) \
  if (in == IN && hidden == H) return true;
  RSMI_SPECIALIZED_SHAPES(RSMI_SPEC_ROW)
#undef RSMI_SPEC_ROW
  return false;
}

}  // namespace kernels

void InferenceEngine::AlignedDeleter::operator()(double* p) const {
  ::operator delete[](p, std::align_val_t(64));
}

void InferenceEngine::BindKernel() {
  const Dispatch& d = ActiveDispatch();
  bound_kind_ = d.kind;
  spec_isa_ = InferenceKernel::kScalar;
  batch_ = d.batch;
  one_ = d.one;
  if (!d.specialize) return;
  BatchFn spec = nullptr;
  if (d.spec_isa == InferenceKernel::kAvx512) {
    spec = kernels::SpecializedAvx512(in_, hidden_);
  } else if (d.spec_isa == InferenceKernel::kAvx2) {
    spec = kernels::SpecializedAvx2(in_, hidden_);
  }
  if (spec != nullptr) {
    bound_kind_ = InferenceKernel::kSpecialized;
    spec_isa_ = d.spec_isa;
    batch_ = spec;
  }
}

std::string InferenceEngine::bound_kernel_name() const {
  if (bound_kind_ == InferenceKernel::kSpecialized) {
    return "specialized(" + InferenceKernelName(spec_isa_) + ")";
  }
  return InferenceKernelName(bound_kind_);
}

InferenceEngine::InferenceEngine(int input_dim, int hidden_dim,
                                 const double* w1, const double* b1,
                                 const double* w2, double b2)
    : in_(input_dim), hidden_(hidden_dim) {
  const size_t h = static_cast<size_t>(hidden_dim);
  len_ = h * input_dim + h + h + 1;
  data_.reset(static_cast<double*>(
      ::operator new[](len_ * sizeof(double), std::align_val_t(64))));
  double* p = data_.get();
  std::memcpy(p, w1, h * input_dim * sizeof(double));
  std::memcpy(p + h * input_dim, b1, h * sizeof(double));
  std::memcpy(p + h * input_dim + h, w2, h * sizeof(double));
  p[h * input_dim + 2 * h] = b2;
  BindKernel();
}

void InferenceEngine::CopyFrom(const InferenceEngine& other) {
  in_ = other.in_;
  hidden_ = other.hidden_;
  len_ = other.len_;
  data_.reset(static_cast<double*>(
      ::operator new[](len_ * sizeof(double), std::align_val_t(64))));
  std::memcpy(data_.get(), other.data_.get(), len_ * sizeof(double));
  BindKernel();  // same shape + same process policy => same binding
}

InferenceEngine::InferenceEngine(const InferenceEngine& other)
    : in_(other.in_), hidden_(other.hidden_) {
  CopyFrom(other);
}

InferenceEngine& InferenceEngine::operator=(const InferenceEngine& other) {
  if (this != &other) CopyFrom(other);
  return *this;
}

void InferenceEngine::PredictBatch(const double* xs, size_t n,
                                   double* out) const {
  const size_t h = static_cast<size_t>(hidden_);
  const double* p = data_.get();
  batch_(in_, hidden_, p, p + h * in_, p + h * in_ + h, p[h * in_ + 2 * h],
         xs, n, out);
}

void InferenceEngine::PredictBatchWithKernel(InferenceKernel k,
                                             const double* xs, size_t n,
                                             double* out) const {
  const size_t h = static_cast<size_t>(hidden_);
  const double* p = data_.get();
  const double* b1 = p + h * in_;
  const double* w2 = b1 + h;
  const double b2 = p[h * in_ + 2 * h];
  BatchFn fn = nullptr;
  switch (k) {
    case InferenceKernel::kScalar:
      break;
    case InferenceKernel::kAvx2:
      if (Avx2Usable()) fn = kernels::GenericAvx2();
      break;
    case InferenceKernel::kAvx512:
      if (Avx512Usable()) fn = kernels::GenericAvx512();
      break;
    case InferenceKernel::kSpecialized:
      if (Avx512Usable()) fn = kernels::SpecializedAvx512(in_, hidden_);
      if (fn == nullptr && Avx2Usable())
        fn = kernels::SpecializedAvx2(in_, hidden_);
      break;
  }
  if (fn == nullptr) fn = &PredictBatchScalar;
  fn(in_, hidden_, p, b1, w2, b2, xs, n, out);
}

double InferenceEngine::Predict(const double* features) const {
  const size_t h = static_cast<size_t>(hidden_);
  const double* p = data_.get();
  return one_(in_, hidden_, p, p + h * in_, p + h * in_ + h,
              p[h * in_ + 2 * h], features);
}

// ---------------------------------------------------------------------------
// Batch-chunk width autotuner for the fused descents.
// ---------------------------------------------------------------------------

namespace {

size_t AutotuneChunkWidth() {
  // Representative hot shape: the RSMI leaf model (in=2, hidden=51).
  constexpr int kIn = 2;
  constexpr int kHidden = 51;
  std::vector<double> w1(static_cast<size_t>(kHidden) * kIn);
  std::vector<double> b1(kHidden), w2(kHidden);
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state]() {
    // xorshift64*: deterministic pseudo-weights in [-1, 1).
    state ^= state >> 12;
    state ^= state << 25;
    state ^= state >> 27;
    const uint64_t z = state * 0x2545f4914f6cdd1dull;
    return static_cast<double>(z >> 11) * (2.0 / 9007199254740992.0) - 1.0;
  };
  for (double& w : w1) w = next();
  for (double& b : b1) b = next();
  for (double& w : w2) w = next();
  const InferenceEngine engine(kIn, kHidden, w1.data(), b1.data(), w2.data(),
                               next());

  constexpr size_t kSamples = 4096;
  std::vector<double> xs(kSamples * kIn);
  for (double& x : xs) x = next();
  std::vector<double> out(kSamples);

  constexpr size_t kCandidates[] = {128, 256, 512, 1024};
  size_t best = kCandidates[1];
  double best_us = std::numeric_limits<double>::infinity();
  for (const size_t cand : kCandidates) {
    double us = std::numeric_limits<double>::infinity();
    for (int rep = 0; rep < 3; ++rep) {
      WallTimer timer;
      for (size_t s = 0; s < kSamples; s += cand) {
        const size_t m = std::min(cand, kSamples - s);
        engine.PredictBatch(xs.data() + s * kIn, m, out.data() + s);
      }
      us = std::min(us, timer.ElapsedMicros());
    }
    if (us < best_us) {
      best_us = us;
      best = cand;
    }
  }
  return best;
}

}  // namespace

size_t BatchDescentChunkWidth() {
  static const size_t width = AutotuneChunkWidth();
  return width;
}

}  // namespace rsmi
