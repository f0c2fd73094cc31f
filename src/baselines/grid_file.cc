#include "baselines/grid_file.h"

#include <algorithm>
#include <cmath>

#include "core/search_algorithms.h"
#include "io/serializer.h"

namespace rsmi {

GridFile::GridFile(const std::vector<Point>& pts, const GridConfig& cfg)
    : cfg_(cfg), store_(cfg.block_capacity) {
  live_points_ = pts.size();
  next_id_ = static_cast<int64_t>(pts.size());
  data_bounds_ = Rect::Bound(pts.begin(), pts.end());
  if (!data_bounds_.Valid()) data_bounds_ = Rect::UnitSquare();
  span_x_ = std::max(1e-12, data_bounds_.hi.x - data_bounds_.lo.x);
  span_y_ = std::max(1e-12, data_bounds_.hi.y - data_bounds_.lo.y);

  // sqrt(n/B) cells per dimension: one block per cell under uniformity.
  side_ = std::max(
      1, static_cast<int>(std::ceil(std::sqrt(
             static_cast<double>(pts.size()) / cfg_.block_capacity))));
  cells_.assign(static_cast<size_t>(side_) * side_, {});

  // Bucket points by cell, then pack each cell's points into its chain.
  std::vector<std::vector<PointEntry>> bucket(cells_.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    bucket[CellOf(pts[i])].push_back(
        PointEntry{pts[i], static_cast<int64_t>(i)});
  }
  for (size_t c = 0; c < bucket.size(); ++c) {
    for (size_t off = 0; off < bucket[c].size();
         off += cfg_.block_capacity) {
      const int id = store_.Alloc();
      Block& blk = store_.MutableBlock(id);
      const size_t end =
          std::min(bucket[c].size(), off + cfg_.block_capacity);
      for (size_t t = off; t < end; ++t) {
        blk.entries.push_back(bucket[c][t]);
        blk.mbr.Expand(bucket[c][t].pt);
      }
      cells_[c].push_back(id);
    }
  }
}

int GridFile::CellX(double x) const {
  const int cx = static_cast<int>((x - data_bounds_.lo.x) / span_x_ * side_);
  return std::max(0, std::min(side_ - 1, cx));
}

int GridFile::CellY(double y) const {
  const int cy = static_cast<int>((y - data_bounds_.lo.y) / span_y_ * side_);
  return std::max(0, std::min(side_ - 1, cy));
}

int GridFile::CellOf(const Point& p) const {
  return CellY(p.y) * side_ + CellX(p.x);
}

Rect GridFile::CellRect(int cx, int cy) const {
  return Rect{{data_bounds_.lo.x + span_x_ * cx / side_,
               data_bounds_.lo.y + span_y_ * cy / side_},
              {data_bounds_.lo.x + span_x_ * (cx + 1) / side_,
               data_bounds_.lo.y + span_y_ * (cy + 1) / side_}};
}

std::optional<PointEntry> GridFile::PointQuery(const Point& q,
                                               QueryContext& ctx) const {
  for (int id : cells_[CellOf(q)]) {
    const Block& b = store_.Access(id, ctx);
    for (const auto& e : b.entries) {
      if (SamePosition(e.pt, q)) return e;
    }
  }
  return std::nullopt;
}

std::vector<Point> GridFile::WindowQuery(const Rect& w,
                                         QueryContext& ctx) const {
  std::vector<Point> out;
  const int x0 = CellX(w.lo.x);
  const int x1 = CellX(w.hi.x);
  const int y0 = CellY(w.lo.y);
  const int y1 = CellY(w.hi.y);
  for (int cy = y0; cy <= y1; ++cy) {
    for (int cx = x0; cx <= x1; ++cx) {
      for (int id : cells_[cy * side_ + cx]) {
        const Block& b = store_.Access(id, ctx);
        for (const auto& e : b.entries) {
          if (w.Contains(e.pt)) out.push_back(e.pt);
        }
      }
    }
  }
  return out;
}

std::vector<Point> GridFile::KnnQuery(const Point& q, size_t k,
                                      QueryContext& ctx) const {
  if (k == 0 || live_points_ == 0) return {};
  KnnHeap heap(k);

  // Ring expansion around the query cell: ring r holds the cells at
  // Chebyshev distance r. Stop once the nearest possible point of the
  // next ring is farther than the current kth neighbor.
  const int qx = CellX(q.x);
  const int qy = CellY(q.y);
  const size_t reachable = std::min(k, live_points_);
  for (int r = 0; r < 2 * side_; ++r) {
    if (heap.size() >= reachable) {
      // Minimum distance from q to any cell in ring r (ring r-1 already
      // scanned): (r-1) full cell widths in the closest direction.
      const double min_cell = std::min(span_x_, span_y_) / side_;
      const double ring_min = (r - 1) > 0 ? (r - 1) * min_cell : 0.0;
      if (ring_min * ring_min > heap.KthDist2()) break;
    }
    for (int cy = qy - r; cy <= qy + r; ++cy) {
      if (cy < 0 || cy >= side_) continue;
      for (int cx = qx - r; cx <= qx + r; ++cx) {
        if (cx < 0 || cx >= side_) continue;
        if (std::max(std::abs(cx - qx), std::abs(cy - qy)) != r) continue;
        if (heap.Full() && CellRect(cx, cy).MinDist2(q) >= heap.KthDist2()) {
          continue;
        }
        for (int id : cells_[cy * side_ + cx]) {
          const Block& b = store_.Access(id, ctx);
          for (const auto& e : b.entries) {
            heap.Offer(SquaredDist(e.pt, q), e.pt);
          }
        }
      }
    }
  }
  return heap.Sorted();
}

void GridFile::InsertOne(const Point& p) {
  // "Grid adds a new point p to the last block in the cell enclosing p"
  // (Section 6.2.5).
  QueryContext ctx;
  auto& chain = cells_[CellOf(p)];
  if (chain.empty() ||
      static_cast<int>(store_.Peek(chain.back()).entries.size()) >=
          cfg_.block_capacity) {
    chain.push_back(store_.Alloc());
  } else {
    ctx.CountBlockAccess();  // reading the last block to append
  }
  Block& blk = store_.MutableBlock(chain.back());
  blk.entries.push_back(PointEntry{p, next_id_++});
  blk.mbr.Expand(p);
  ++live_points_;
}

bool GridFile::DeleteOne(const Point& p) {
  QueryContext ctx;
  bool removed = false;
  for (int id : cells_[CellOf(p)]) {
    const Block& b = store_.Access(id, ctx);
    for (size_t i = 0; i < b.entries.size(); ++i) {
      if (SamePosition(b.entries[i].pt, p)) {
        Block& mb = store_.MutableBlock(id);
        mb.entries[i] = mb.entries.back();
        mb.entries.pop_back();
        --live_points_;
        removed = true;
        break;
      }
    }
    if (removed) break;
  }
  return removed;
}

IndexStats GridFile::Stats() const {
  IndexStats s;
  s.name = Name();
  s.num_points = live_points_;
  s.height = 1;  // flat directory
  size_t table_bytes = cells_.size() * sizeof(std::vector<int>);
  for (const auto& c : cells_) table_bytes += c.size() * sizeof(int);
  s.size_bytes = table_bytes + store_.SizeBytes();
  return s;
}

bool GridFile::ValidateStructure(std::string* error) const {
  auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  std::vector<bool> block_seen(store_.NumBlocks(), false);
  for (int cell = 0; cell < static_cast<int>(cells_.size()); ++cell) {
    for (int id : cells_[cell]) {
      if (id < 0 || id >= static_cast<int>(store_.NumBlocks())) {
        return fail("cell chain references an invalid block");
      }
      if (block_seen[id]) {
        return fail("block " + std::to_string(id) +
                    " appears in two cell chains");
      }
      block_seen[id] = true;
      const Block& b = store_.Peek(id);
      if (static_cast<int>(b.entries.size()) > cfg_.block_capacity) {
        return fail("block " + std::to_string(id) + " over capacity");
      }
      for (const auto& e : b.entries) {
        if (CellOf(e.pt) != cell) {
          return fail("entry stored in the wrong cell chain (cell " +
                      std::to_string(cell) + ")");
        }
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

bool GridFile::SaveTo(Serializer& out) const {
  out.WritePod(cfg_);
  out.WritePod(data_bounds_);
  out.WritePod(span_x_);
  out.WritePod(span_y_);
  out.WritePod(side_);
  out.WritePod(live_points_);
  out.WritePod(next_id_);
  store_.WriteTo(out);
  out.WritePod<uint64_t>(cells_.size());
  for (const auto& chain : cells_) out.WriteVec(chain);
  return true;
}

bool GridFile::LoadFrom(Deserializer& in) {
  if (!in.ReadPod(&cfg_) || !in.ReadPod(&data_bounds_) ||
      !in.ReadPod(&span_x_) || !in.ReadPod(&span_y_) ||
      !in.ReadPod(&side_) || !in.ReadPod(&live_points_) ||
      !in.ReadPod(&next_id_) || !store_.ReadFrom(in)) {
    return false;
  }
  // Cell coordinates divide by the spans: a crafted zero/NaN span would
  // poison the float-to-int cell math.
  if (!(span_x_ > 0.0) || !(span_y_ > 0.0) || !std::isfinite(span_x_) ||
      !std::isfinite(span_y_)) {
    return in.Fail("grid spans are not positive finite");
  }
  uint64_t n_cells = 0;
  if (!in.ReadPod(&n_cells)) return false;
  // Each cell chain costs at least its uint64 length on disk; the cell
  // table must also match the persisted grid side.
  if (n_cells > in.remaining() / sizeof(uint64_t) ||
      side_ < 1 ||
      n_cells != static_cast<uint64_t>(side_) * static_cast<uint64_t>(side_)) {
    return in.Fail("grid cell table disagrees with the grid side");
  }
  cells_.assign(static_cast<size_t>(n_cells), {});
  for (auto& chain : cells_) {
    if (!in.ReadVec(&chain)) return false;
    // Chains index the store: no crafted id may escape it.
    for (int id : chain) {
      if (id < 0 || !store_.ValidBlockRef(id)) {
        return in.Fail("grid cell chain references a block out of range");
      }
    }
  }
  return true;
}

}  // namespace rsmi
