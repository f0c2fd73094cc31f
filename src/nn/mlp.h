#ifndef RSMI_NN_MLP_H_
#define RSMI_NN_MLP_H_

#include <cstdint>
#include <cstddef>
#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

namespace rsmi {

class InferenceEngine;
class Serializer;    // io/serializer.h
class Deserializer;  // io/serializer.h

/// Training knobs for Mlp::Train.
///
/// The paper trains every sub-model with plain SGD, learning rate 0.01 and
/// 500 epochs on PyTorch (Section 6.1). This reproduction defaults to
/// mini-batch Adam with an epoch budget and an optional cap on the number
/// of training samples, which reaches the same loss in a fraction of the
/// wall time on CPU (documented as substitution #3 in DESIGN.md). Setting
/// `use_adam=false, batch_size=0, epochs=500` reproduces the paper's
/// procedure exactly.
struct MlpTrainConfig {
  double learning_rate = 0.003;
  /// Final learning rate of the cosine decay schedule (set equal to
  /// `learning_rate` for a constant rate, as in the paper's setup).
  double final_learning_rate = 0.0001;
  int epochs = 300;
  /// Mini-batch size; 0 means full-batch gradient descent.
  int batch_size = 128;
  /// Adam (default) vs plain SGD.
  bool use_adam = true;
  /// If > 0 and the training set is larger, train on a deterministic
  /// subsample of this many points (used for RSMI internal models).
  int max_samples = 0;
  /// Stop when the epoch loss improves by less than `early_stop_tol`
  /// (relative) for `early_stop_patience` consecutive epochs. 0 disables.
  double early_stop_tol = 1e-4;
  int early_stop_patience = 15;
  uint64_t seed = 42;
};

/// Member-wise copy over zeroed storage: same values, but the struct's
/// padding holes hold 0 instead of whatever was on the stack when the
/// config was assembled. Persistence code WritePods configs raw (bytes,
/// padding included), and the on-disk image must be a pure function of
/// the index state — identical indexes must produce identical files and
/// CRCs.
inline MlpTrainConfig PaddingZeroed(const MlpTrainConfig& c) {
  MlpTrainConfig out;
  std::memset(static_cast<void*>(&out), 0, sizeof(out));
  out.learning_rate = c.learning_rate;
  out.final_learning_rate = c.final_learning_rate;
  out.epochs = c.epochs;
  out.batch_size = c.batch_size;
  out.use_adam = c.use_adam;
  out.max_samples = c.max_samples;
  out.early_stop_tol = c.early_stop_tol;
  out.early_stop_patience = c.early_stop_patience;
  out.seed = c.seed;
  return out;
}

/// A multilayer perceptron with one sigmoid hidden layer and a linear
/// output neuron — the sub-model architecture used by both RSMI and the
/// ZM baseline (Section 6.1: "an input layer, a hidden layer, and an
/// output layer", sigmoid activation).
///
/// Inputs are expected in [0,1]^d and targets in [0,1]; callers normalize.
class Mlp {
 public:
  /// `input_dim` is 2 for RSMI sub-models (x, y coordinates) and 1 for ZM
  /// sub-models (Z-value). `hidden_dim` follows the paper's rule:
  /// (#inputs + #output classes) / 2.
  ///
  /// `init_scale` sets the uniform init range of the first-layer weights
  /// and biases; 0 selects Xavier/Glorot. Targets like the rank-space
  /// curve order are high-frequency in the inputs, and a Xavier-initialized
  /// sigmoid layer starts out near-linear over [-1,1] inputs, which Adam
  /// cannot escape within a practical epoch budget. A large init range
  /// spreads the sigmoid transition ridges across the input square up
  /// front and roughly halves the leaf prediction error (see the
  /// AblationTraining cells of bench_paper).
  Mlp(int input_dim, int hidden_dim, uint64_t seed = 42,
      double init_scale = 0.0);
  ~Mlp();
  Mlp(const Mlp& other);
  Mlp& operator=(const Mlp& other);
  Mlp(Mlp&&) noexcept;
  Mlp& operator=(Mlp&&) noexcept;

  /// Trains on `n` samples, where `x` holds n*input_dim row-major features
  /// and `y` holds n targets. Minimizes the L2 loss (Eq. 3). Returns the
  /// final mean-squared-error loss.
  double Train(const std::vector<double>& x, const std::vector<double>& y,
               const MlpTrainConfig& cfg);

  /// Forward pass on one sample (`features` has input_dim entries).
  /// Delegates to the inference engine's scalar kernel, so the result is
  /// bit-identical to the corresponding PredictBatch lane on every
  /// dispatch path (see nn/inference_engine.h).
  double Predict(const double* features) const;

  /// Batched forward pass on `n` samples (`xs` holds n*input_dim
  /// row-major features, `out` receives n predictions) through the
  /// vectorized inference engine. Bit-identical to calling Predict once
  /// per sample — only faster.
  void PredictBatch(const double* xs, size_t n, double* out) const;

  /// Convenience forward pass for 1-d inputs (ZM).
  double Predict1(double a) const {
    return Predict(&a);
  }

  /// Convenience forward pass for 2-d inputs (RSMI).
  double Predict2(double a, double b) const {
    const double f[2] = {a, b};
    return Predict(f);
  }

  int input_dim() const { return in_; }
  int hidden_dim() const { return hidden_; }

  /// Number of trainable parameters.
  size_t ParameterCount() const {
    return static_cast<size_t>(hidden_) * in_ + hidden_ + hidden_ + 1;
  }

  /// In-memory footprint of the model (used for index-size metrics):
  /// the parameter vectors plus the inference engine's aligned snapshot
  /// of them (each trained model keeps both — the vectors for training
  /// and persistence, the flat snapshot for serving). Exact: the engine
  /// reports its actual snapshot length, including alignment padding.
  size_t SizeBytes() const;

  /// Binary persistence (index save/load, io/serializer.h).
  void WriteTo(Serializer& out) const;
  static bool ReadFrom(Deserializer& in, Mlp* out);

 private:
  /// (Re)builds the inference engine's flat weight snapshot; called
  /// whenever the weights change (construction, training, load).
  void RebuildEngine();

  int in_;
  int hidden_;
  std::vector<double> w1_;  // hidden_ x in_
  std::vector<double> b1_;  // hidden_
  std::vector<double> w2_;  // hidden_
  double b2_ = 0.0;
  /// Flat, cache-aligned weight snapshot serving Predict/PredictBatch
  /// (never null after construction).
  std::unique_ptr<InferenceEngine> engine_;
};

}  // namespace rsmi

#endif  // RSMI_NN_MLP_H_
