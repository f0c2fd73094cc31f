#ifndef RSMI_BASELINES_RSTAR_TREE_H_
#define RSMI_BASELINES_RSTAR_TREE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/spatial_index.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "storage/block_store.h"

namespace rsmi {

struct RStarConfig {
  int block_capacity = 100;
  int fanout = 100;
  /// Minimum fill fraction (R* uses 40%).
  double min_fill = 0.4;
  /// Forced-reinsert fraction (R* uses 30%).
  double reinsert_frac = 0.3;
};

/// R*-tree of Beckmann et al. [3], standing in for the authors' RR* [4]
/// (Section 6.1 competitor 5; see DESIGN.md substitution #4): dynamic
/// tuple-at-a-time construction with ChooseSubtree (overlap enlargement at
/// the leaf level), the R* topological split (margin-driven axis choice,
/// overlap-minimal distribution), and forced reinsertion of 30% of a
/// first-overflowing leaf's entries. The slow insertion-based build and
/// strong query performance match the role RR* plays in the paper's plots.
class RStarTree : public SpatialIndex {
 public:
  RStarTree(const std::vector<Point>& pts, const RStarConfig& cfg);
  ~RStarTree() override;

  std::string Name() const override { return "RR*"; }

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

  /// Checks the R-tree invariants: every child MBR (and every stored
  /// point) is contained in its parent's MBR, parent back-pointers are
  /// consistent, fanout limits hold, and all leaves sit at one depth.
  bool ValidateStructure(std::string* error) const override;

  /// Polymorphic persistence (io/index_container.h): the tree shape is
  /// persisted node by node (parent pointers are rebuilt on load), so the
  /// reloaded tree answers and updates exactly like the original.
  std::string KindSpec() const override { return "rstar"; }
  bool SaveTo(Serializer& out) const override;
  bool LoadFrom(Deserializer& in) override;

  /// Uninitialized shell for the factory's load dispatch; invalid until
  /// LoadFrom succeeds on it.
  static std::unique_ptr<RStarTree> MakeLoadShell() {
    return std::unique_ptr<RStarTree>(new RStarTree(LoadTag{}));
  }

 private:
  struct Node;
  struct LoadTag {};
  explicit RStarTree(LoadTag);  // shell filled by LoadFrom

  void WriteNode(Serializer& out, const Node& node) const;
  static std::unique_ptr<Node> ReadNode(Deserializer& in, Node* parent,
                                        int depth);

  void InsertEntry(const PointEntry& e, bool allow_reinsert,
                   QueryContext& ctx);
  Node* ChooseSubtree(const Point& p, QueryContext& ctx) const;
  /// Handles an overflowing leaf: forced reinsert on first overflow per
  /// insertion, split otherwise. Splits propagate upward. Reinserted
  /// entries charge their descents to `ctx`.
  void HandleLeafOverflow(Node* leaf, bool allow_reinsert, QueryContext& ctx);
  void SplitUpwards(Node* node);
  std::unique_ptr<Node> SplitNode(Node* node);
  void AttachSibling(Node* node, std::unique_ptr<Node> sibling);
  void RecomputeMbr(Node* node);
  void ExpandUpwards(Node* node, const Point& p);

  RStarConfig cfg_;
  BlockStore store_;
  std::unique_ptr<Node> root_;
  size_t live_points_ = 0;
  int64_t next_id_ = 0;
};

}  // namespace rsmi

#endif  // RSMI_BASELINES_RSTAR_TREE_H_
