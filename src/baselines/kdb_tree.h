#ifndef RSMI_BASELINES_KDB_TREE_H_
#define RSMI_BASELINES_KDB_TREE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/spatial_index.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "storage/block_store.h"

namespace rsmi {

struct KdbConfig {
  int block_capacity = 100;
  /// Maximum region entries per internal page. The paper's setup stores up
  /// to 100 entries per node; we split 2^k-way (64) so bulk loading and
  /// page splits stay median-based.
  int fanout = 64;
};

/// K-D-B-tree baseline [39]: a kd-tree implemented with B-tree-style pages
/// (Section 6.1 competitor 3). Internal "region pages" store disjoint
/// rectangular regions that exactly tile the parent region; leaf "point
/// pages" are data blocks. Insertion splits pages by a median plane;
/// splitting an internal page recursively splits the children that cross
/// the plane (the characteristic K-D-B downward split).
class KdbTree : public SpatialIndex {
 public:
  KdbTree(const std::vector<Point>& pts, const KdbConfig& cfg);
  ~KdbTree() override;

  std::string Name() const override { return "KDB"; }

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

  /// Checks the defining K-D-B invariants: child regions are pairwise
  /// disjoint (in their interiors) and contained in the parent region,
  /// and every stored point lies inside its leaf's region.
  bool ValidateStructure(std::string* error) const override;

  /// Polymorphic persistence (io/index_container.h): config, block store,
  /// and the region-page tree round-trip bit-identically.
  std::string KindSpec() const override { return "kdb"; }
  bool SaveTo(Serializer& out) const override;
  bool LoadFrom(Deserializer& in) override;

  /// Uninitialized shell whose state LoadFrom fills; invalid until
  /// LoadFrom succeeds on it.
  static std::unique_ptr<KdbTree> MakeLoadShell() {
    return std::unique_ptr<KdbTree>(new KdbTree(LoadTag{}));
  }

 private:
  struct Node;
  struct LoadTag {};
  explicit KdbTree(LoadTag);  // shell filled by LoadFrom

  void WriteNode(Serializer& out, const Node& node) const;
  static std::unique_ptr<Node> ReadNode(Deserializer& in, int depth);

  std::unique_ptr<Node> Build(std::vector<PointEntry> pts, const Rect& region,
                              int depth);
  std::unique_ptr<Node> MakeLeaf(const std::vector<PointEntry>& pts,
                                 const Rect& region);

  /// Inserts into the subtree; returns a new right sibling if the node had
  /// to split (the caller adds it next to `node`).
  std::unique_ptr<Node> InsertRec(Node* node, const Point& p,
                                  QueryContext& ctx);
  std::unique_ptr<Node> SplitNode(Node* node);
  /// Splits `child` by plane dim=v into left/right pieces (either may be
  /// null if empty) — the K-D-B downward split.
  static void SplitByPlane(KdbTree* tree, std::unique_ptr<Node> child,
                           int dim, double v, std::unique_ptr<Node>* left,
                           std::unique_ptr<Node>* right);

  KdbConfig cfg_;
  BlockStore store_;
  std::unique_ptr<Node> root_;
  size_t live_points_ = 0;
  int64_t next_id_ = 0;
};

}  // namespace rsmi

#endif  // RSMI_BASELINES_KDB_TREE_H_
