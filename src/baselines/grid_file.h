#ifndef RSMI_BASELINES_GRID_FILE_H_
#define RSMI_BASELINES_GRID_FILE_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/spatial_index.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "storage/block_store.h"

namespace rsmi {

struct GridConfig {
  int block_capacity = 100;
};

/// Grid File baseline [33], implemented as the static grid component used
/// for moving objects [22] (Section 6.1): a regular sqrt(n/B) x sqrt(n/B)
/// grid over the data space; each cell keeps a chain of data blocks, and
/// a cell table maps cells to their chains. Under uniform data one cell
/// holds about one block; under skew, cells hold long chains — the reason
/// Grid degrades on non-uniform data in the paper's experiments.
class GridFile : public SpatialIndex {
 public:
  GridFile(const std::vector<Point>& pts, const GridConfig& cfg);

  std::string Name() const override { return "Grid"; }

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

  /// Checks the grid invariants: every stored entry maps back to the cell
  /// whose chain holds it, no block is shared between cells, and block
  /// capacities hold.
  bool ValidateStructure(std::string* error) const override;

  /// Polymorphic persistence (io/index_container.h): grid geometry, cell
  /// table, and blocks round-trip bit-identically.
  std::string KindSpec() const override { return "grid"; }
  bool SaveTo(Serializer& out) const override;
  bool LoadFrom(Deserializer& in) override;

  /// Uninitialized shell for the factory's load dispatch; invalid until
  /// LoadFrom succeeds on it.
  static std::unique_ptr<GridFile> MakeLoadShell() {
    return std::unique_ptr<GridFile>(new GridFile(LoadTag{}));
  }

 private:
  struct LoadTag {};
  explicit GridFile(LoadTag) : store_(1) {}  // shell filled by LoadFrom

  int CellX(double x) const;
  int CellY(double y) const;
  int CellOf(const Point& p) const;
  Rect CellRect(int cx, int cy) const;

  GridConfig cfg_;
  BlockStore store_;
  Rect data_bounds_ = Rect::Empty();
  double span_x_ = 1.0;
  double span_y_ = 1.0;
  int side_ = 1;
  /// Cell table: block-id chain per cell (row-major).
  std::vector<std::vector<int>> cells_;
  size_t live_points_ = 0;
  int64_t next_id_ = 0;
};

}  // namespace rsmi

#endif  // RSMI_BASELINES_GRID_FILE_H_
