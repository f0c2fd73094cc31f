#ifndef RSMI_BASELINES_ZM_INDEX_H_
#define RSMI_BASELINES_ZM_INDEX_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pmf.h"
#include "core/spatial_index.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "nn/mlp.h"
#include "storage/block_store.h"

namespace rsmi {

/// Parameters of the ZM baseline (Section 6.1 "Competitors").
struct ZmConfig {
  int block_capacity = 100;
  /// Z-value resolution: bits per dimension of the grid imposed on the
  /// data space (Z-values are built by interleaving the bits of the
  /// grid coordinates, Section 2 "The Z-order model").
  int z_bits = 16;
  MlpTrainConfig train;
  /// Training-sample cap for the level-0/1 models (they see up to the
  /// whole data set); leaf models always train on all their points.
  int sample_cap = 8192;
  int hidden_internal = 16;
  int hidden_leaf = 50;
  /// kNN support (the paper runs RSMI's kNN algorithm on ZM).
  int pmf_partitions = 100;
  double knn_delta = 0.01;
  uint64_t seed = 42;
};

/// The Z-order model of Wang et al. [46] — the learned-index baseline.
///
/// Points are ordered by the Z-values of their grid cells and packed into
/// blocks; a three-level recursive model (1, sqrt(n)/B and n/B^2
/// sub-models per level, Section 6.1) maps a Z-value to the rank of the
/// point, i.e. learns the CDF of the Z-value distribution. Point queries
/// use a binary search over the per-block Z-ranges inside the model's
/// error interval ("binary search on the Z-values is used to reduce the
/// number of block accesses", Section 6.2.2). Window queries use the
/// bottom-left/top-right corners as the min/max Z-values of the window.
/// kNN and update handling are adopted from RSMI, as in the paper.
class ZmIndex : public SpatialIndex {
 public:
  ZmIndex(const std::vector<Point>& pts, const ZmConfig& cfg);

  std::string Name() const override { return "ZM"; }

  std::optional<PointEntry> PointQuery(const Point& q,
                                       QueryContext& ctx) const override;
  std::vector<Point> WindowQuery(const Rect& w,
                                 QueryContext& ctx) const override;
  std::vector<Point> KnnQuery(const Point& q, size_t k,
                              QueryContext& ctx) const override;
  /// Batched point lookup: one vectorized RMI descent for all `n`
  /// Z-values (levels evaluated group-wise through PredictBatch), then
  /// the per-query binary search. Results and per-op costs are identical
  /// to `n` scalar PointQuery calls.
  void PointQueryBatch(const Point* qs, size_t n, QueryContext* ctxs,
                       std::optional<PointEntry>* out) const override;
  void InsertOne(const Point& p) override;
  bool DeleteOne(const Point& p) override;

  IndexStats Stats() const override;
  void ForEachBlockStore(const BlockStoreVisitor& fn) const override {
    fn(store_);
  }

  /// Maximum leaf-model error bounds in blocks (Table 4).
  int MaxErrBelow() const;
  int MaxErrAbove() const;

  /// Polymorphic persistence (io/index_container.h): the whole learned
  /// state — RMI levels, per-leaf error bounds, blocks, PMFs — round-
  /// trips bit-identically.
  std::string KindSpec() const override { return "zm"; }
  bool SaveTo(Serializer& out) const override;
  bool LoadFrom(Deserializer& in) override;

  /// Uninitialized shell for the factory's load dispatch; invalid until
  /// LoadFrom succeeds on it.
  static std::unique_ptr<ZmIndex> MakeLoadShell() {
    return std::unique_ptr<ZmIndex>(new ZmIndex(LoadTag{}));
  }

  /// Checks the Z-ordering invariants: build blocks carry non-decreasing
  /// Z-value ranges and every entry's Z-value lies inside its build
  /// block's [cv_lo, cv_hi] range.
  bool ValidateStructure(std::string* error) const override;

 private:
  struct LoadTag {};
  explicit ZmIndex(LoadTag) : store_(1) {}  // shell filled by LoadFrom

  struct LeafModel {
    std::unique_ptr<Mlp> model;
    int err_below = 0;  ///< max over-prediction in blocks
    int err_above = 0;  ///< max under-prediction in blocks
    bool trained = false;
  };

  uint64_t ZValue(const Point& p) const;
  double NormZ(uint64_t z) const;

  /// Model descent: predicted block plus that leaf model's error bounds.
  /// Charges the three-level RMI descent to `ctx`.
  struct Prediction {
    int block = 0;
    int err_below = 0;
    int err_above = 0;
  };
  Prediction PredictBlock(uint64_t z, QueryContext& ctx) const;

  /// Batched model descent: evaluates all `n` Z-values through the
  /// three-level RMI with one PredictBatch per (level, sub-model) group.
  /// Bit-identical to n scalar PredictBlock calls; Z-value i's charges go
  /// to `ctxs[i * ctx_stride]` (stride 0 = one shared context, as the
  /// window corner probes use; stride 1 = per-op attribution, as the
  /// point batch uses).
  void PredictBlockBatch(const uint64_t* zs, size_t n, QueryContext* ctxs,
                         size_t ctx_stride, Prediction* out) const;

  /// The search phase of a point query, with the model prediction for
  /// `zq` already computed (shared by the scalar and batched paths).
  std::optional<PointEntry> LookupWithPrediction(const Point& q, uint64_t zq,
                                                 const Prediction& pred,
                                                 QueryContext& ctx) const;

  /// Blocks to scan for a window query (corner predictions, Alg. 2 style).
  std::pair<int, int> WindowBlockRange(const Rect& w, QueryContext& ctx) const;

  ZmConfig cfg_;
  BlockStore store_;
  Rect data_bounds_ = Rect::Empty();
  double span_x_ = 1.0;
  double span_y_ = 1.0;
  std::unique_ptr<Mlp> root_;                 // level 0
  std::vector<std::unique_ptr<Mlp>> mid_;     // level 1
  std::vector<LeafModel> leaves_;             // level 2
  int num_build_blocks_ = 0;
  size_t n_build_ = 0;
  size_t live_points_ = 0;
  int64_t next_id_ = 0;
  bool has_insertions_ = false;
  Pmf pmf_x_;
  Pmf pmf_y_;
};

}  // namespace rsmi

#endif  // RSMI_BASELINES_ZM_INDEX_H_
