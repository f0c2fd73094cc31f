#ifndef RSMI_CORE_EXTENT_INDEX_H_
#define RSMI_CORE_EXTENT_INDEX_H_

#include <memory>
#include <vector>

#include "core/rsmi_index.h"
#include "geom/rect.h"

namespace rsmi {

/// Learned index for spatial objects with non-zero extent (rectangles) —
/// the extension named in the paper's conclusion: "Our learned indices
/// may be applied to spatial objects with non-zero extent using query
/// expansion [44, 48]".
///
/// Each object is indexed by its center point. A window query is expanded
/// by the maximum half-extent over all objects, so that any object
/// intersecting the window must have its center inside the expanded
/// window; candidates are then filtered by actual rectangle intersection.
/// As the paper notes, the expansion costs accuracy/efficiency when
/// extents vary widely — WindowQueryExact bounds that cost via the RSMIa
/// traversal.
class RsmiExtentIndex {
 public:
  RsmiExtentIndex(std::vector<Rect> objects, const RsmiConfig& cfg)
      : objects_(std::move(objects)) {
    std::vector<Point> centers;
    centers.reserve(objects_.size());
    for (const auto& r : objects_) {
      centers.push_back(r.Center());
      half_w_ = std::max(half_w_, (r.hi.x - r.lo.x) / 2);
      half_h_ = std::max(half_h_, (r.hi.y - r.lo.y) / 2);
    }
    index_ = std::make_unique<RsmiIndex>(centers, cfg);
  }

  size_t size() const { return objects_.size(); }

  /// Objects intersecting `w` (approximate: inherits the underlying
  /// window query's recall; never returns a non-intersecting object).
  /// Costs are charged to `ctx`; concurrent calls are safe.
  std::vector<Rect> WindowQuery(const Rect& w, QueryContext& ctx) const {
    return Filter(index_->WindowQueryEntries(Expand(w), ctx), w);
  }

  /// Exact variant via the RSMIa traversal.
  std::vector<Rect> WindowQueryExact(const Rect& w, QueryContext& ctx) const {
    return Filter(index_->WindowQueryExactEntries(Expand(w), ctx), w);
  }

  /// Objects containing the query point (stabbing query).
  std::vector<Rect> StabQuery(const Point& p, QueryContext& ctx) const {
    return WindowQueryExact(Rect{p, p}, ctx);
  }

  const RsmiIndex& index() const { return *index_; }

 private:
  Rect Expand(const Rect& w) const {
    return Rect{{w.lo.x - half_w_, w.lo.y - half_h_},
                {w.hi.x + half_w_, w.hi.y + half_h_}};
  }

  std::vector<Rect> Filter(const std::vector<PointEntry>& candidates,
                           const Rect& w) const {
    std::vector<Rect> out;
    for (const PointEntry& e : candidates) {
      const Rect& obj = objects_[static_cast<size_t>(e.id)];
      if (obj.Intersects(w)) out.push_back(obj);
    }
    return out;
  }

  std::vector<Rect> objects_;
  std::unique_ptr<RsmiIndex> index_;
  double half_w_ = 0.0;
  double half_h_ = 0.0;
};

}  // namespace rsmi

#endif  // RSMI_CORE_EXTENT_INDEX_H_
