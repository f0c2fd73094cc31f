#ifndef RSMI_BASELINES_HRR_TREE_H_
#define RSMI_BASELINES_HRR_TREE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "baselines/bptree.h"
#include "core/spatial_index.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "sfc/curve.h"
#include "storage/block_store.h"

namespace rsmi {

struct HrrConfig {
  int block_capacity = 100;
  int node_fanout = 100;
  CurveType curve = CurveType::kHilbert;
};

/// HRR: the rank-space-based R-tree of Qi et al. [37, 38] (Section 6.1
/// competitor 4) — "the state-of-the-art window query performance".
///
/// Bulk loading: points are mapped to rank space, ordered by the Hilbert
/// curve, and packed bottom-up: every B points form a leaf (data block),
/// every `node_fanout` nodes form a parent. Every node stores two MBRs:
/// the rank-space MBR (used by window queries after mapping the query
/// window through the two coordinate B+-trees) and the original-space MBR
/// (used by kNN/point queries and dynamic inserts).
class HrrTree : public SpatialIndex {
 public:
  HrrTree(const std::vector<Point>& pts, const HrrConfig& cfg);
  ~HrrTree() override;

  std::string Name() const override { return "HRR"; }

  std::optional<PointEntry> PointQuery(const Point& q,
                                       QueryContext& ctx) const override;
  std::vector<Point> WindowQuery(const Rect& w,
                                 QueryContext& ctx) const override;
  std::vector<Point> KnnQuery(const Point& q, size_t k,
                              QueryContext& ctx) const override;
  void InsertOne(const Point& p) override;
  bool DeleteOne(const Point& p) override;

  IndexStats Stats() const override;
  void ForEachBlockStore(const BlockStoreVisitor& fn) const override {
    fn(store_);
  }

  /// Checks the packed R-tree invariants: child MBRs (in both rank and
  /// original space) are contained in their parent's, and every stored
  /// point lies inside its leaf's original-space MBR.
  bool ValidateStructure(std::string* error) const override;

  /// Polymorphic persistence (io/index_container.h): config, block store,
  /// both coordinate B+-trees, and the packed node tree round-trip
  /// bit-identically.
  std::string KindSpec() const override { return "hrr"; }
  bool SaveTo(Serializer& out) const override;
  bool LoadFrom(Deserializer& in) override;

  /// Uninitialized shell whose state LoadFrom fills; invalid until
  /// LoadFrom succeeds on it.
  static std::unique_ptr<HrrTree> MakeLoadShell() {
    return std::unique_ptr<HrrTree>(new HrrTree(LoadTag{}));
  }

 private:
  struct Node;
  struct LoadTag {};
  explicit HrrTree(LoadTag);  // shell filled by LoadFrom

  void WriteNode(Serializer& out, const Node& node) const;
  static std::unique_ptr<Node> ReadNode(Deserializer& in, int depth);

  HrrConfig cfg_;
  BlockStore store_;
  std::unique_ptr<Node> root_;
  BPlusTree btree_x_;
  BPlusTree btree_y_;
  size_t live_points_ = 0;
  int64_t next_id_ = 0;
};

}  // namespace rsmi

#endif  // RSMI_BASELINES_HRR_TREE_H_
