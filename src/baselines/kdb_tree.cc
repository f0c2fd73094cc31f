#include "baselines/kdb_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

namespace rsmi {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
/// Finite stand-in for the unbounded root region (avoids inf arithmetic).
constexpr double kHuge = 1e18;

double Coord(const Point& p, int dim) { return dim == 0 ? p.x : p.y; }

/// Half-open containment matching the split assignment rule (`coord < v`
/// goes left, `coord >= v` goes right): regions own their low edges. The
/// outermost region extends to +-kHuge, so no real point sits on a global
/// upper boundary.
bool RegionOwns(const Rect& region, const Point& p) {
  return p.x >= region.lo.x && p.x < region.hi.x && p.y >= region.lo.y &&
         p.y < region.hi.y;
}

/// Median coordinate of `pts` along `dim` (strictly inside the value range
/// when possible, so both split sides are non-empty).
double MedianPlane(std::vector<PointEntry>& pts, int dim) {
  const size_t mid = pts.size() / 2;
  std::nth_element(pts.begin(), pts.begin() + mid, pts.end(),
                   [dim](const PointEntry& a, const PointEntry& b) {
                     return Coord(a.pt, dim) < Coord(b.pt, dim);
                   });
  return Coord(pts[mid].pt, dim);
}

}  // namespace

struct KdbTree::Node {
  bool leaf = false;
  /// Disjoint region of this page; children tile it exactly.
  Rect region;
  std::vector<std::unique_ptr<Node>> children;
  int block = -1;  ///< leaf: data block id
};

KdbTree::KdbTree(const std::vector<Point>& pts, const KdbConfig& cfg)
    : cfg_(cfg), store_(cfg.block_capacity) {
  live_points_ = pts.size();
  next_id_ = static_cast<int64_t>(pts.size());
  std::vector<PointEntry> entries(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    entries[i] = PointEntry{pts[i], static_cast<int64_t>(i)};
  }
  const Rect whole{{-kHuge, -kHuge}, {kHuge, kHuge}};
  root_ = Build(std::move(entries), whole, 0);
}

KdbTree::~KdbTree() = default;

std::unique_ptr<KdbTree::Node> KdbTree::MakeLeaf(
    const std::vector<PointEntry>& pts, const Rect& region) {
  auto node = std::make_unique<Node>();
  node->leaf = true;
  node->region = region;
  node->block = store_.Alloc();
  Block& blk = store_.MutableBlock(node->block);
  blk.entries = pts;
  for (const auto& e : pts) blk.mbr.Expand(e.pt);
  return node;
}

std::unique_ptr<KdbTree::Node> KdbTree::Build(std::vector<PointEntry> pts,
                                              const Rect& region, int depth) {
  if (pts.size() <= static_cast<size_t>(cfg_.block_capacity)) {
    return MakeLeaf(pts, region);
  }
  auto node = std::make_unique<Node>();
  node->leaf = false;
  node->region = region;

  // Recursive median splits (alternating dimension by level) until the
  // page has up to `fanout` sub-regions.
  struct Part {
    std::vector<PointEntry> pts;
    Rect region;
  };
  std::vector<Part> parts;
  const int levels = static_cast<int>(std::llround(
      std::floor(std::log2(static_cast<double>(cfg_.fanout)))));

  struct Job {
    Part part;
    int level;
  };
  std::vector<Job> stack;
  stack.push_back({{std::move(pts), region}, 0});
  while (!stack.empty()) {
    Job job = std::move(stack.back());
    stack.pop_back();
    if (job.level >= levels ||
        job.part.pts.size() <= static_cast<size_t>(cfg_.block_capacity)) {
      parts.push_back(std::move(job.part));
      continue;
    }
    bool split_ok = false;
    for (int attempt = 0; attempt < 2 && !split_ok; ++attempt) {
      const int dim = (job.level + attempt) % 2;  // classic kd alternation
      double v = MedianPlane(job.part.pts, dim);
      Part left;
      Part right;
      left.region = job.part.region;
      right.region = job.part.region;
      if (dim == 0) {
        left.region.hi.x = v;
        right.region.lo.x = v;
      } else {
        left.region.hi.y = v;
        right.region.lo.y = v;
      }
      for (auto& e : job.part.pts) {
        (Coord(e.pt, dim) < v ? left : right).pts.push_back(e);
      }
      if (left.pts.empty() || right.pts.empty()) {
        continue;  // degenerate plane (duplicate coords): try other dim
      }
      split_ok = true;
      stack.push_back({std::move(right), job.level + 1});
      stack.push_back({std::move(left), job.level + 1});
    }
    if (!split_ok) parts.push_back(std::move(job.part));
  }

  if (parts.size() == 1) {
    // No plane separates the points (all-duplicate positions are excluded
    // by assumption, but stay safe): close with an oversized leaf rather
    // than recursing forever.
    return MakeLeaf(parts[0].pts, parts[0].region);
  }
  for (auto& part : parts) {
    node->children.push_back(
        Build(std::move(part.pts), part.region, depth + 1));
  }
  return node;
}

std::optional<PointEntry> KdbTree::PointQuery(const Point& q,
                                              QueryContext& ctx) const {
  const Node* cur = root_.get();
  while (cur != nullptr && !cur->leaf) {
    ctx.CountNodePage();  // region page read
    const Node* next = nullptr;
    for (const auto& child : cur->children) {
      if (RegionOwns(child->region, q)) {
        next = child.get();
        break;  // regions are disjoint up to shared boundaries
      }
    }
    cur = next;
  }
  if (cur == nullptr) return std::nullopt;
  const Block& b = store_.Access(cur->block, ctx);
  for (const auto& e : b.entries) {
    if (SamePosition(e.pt, q)) return e;
  }
  return std::nullopt;
}

std::vector<Point> KdbTree::WindowQuery(const Rect& w,
                                        QueryContext& ctx) const {
  std::vector<Point> out;
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (node->leaf) {
      const Block& b = store_.Access(node->block, ctx);
      for (const auto& e : b.entries) {
        if (w.Contains(e.pt)) out.push_back(e.pt);
      }
      continue;
    }
    ctx.CountNodePage();
    for (const auto& child : node->children) {
      if (child->region.Intersects(w)) stack.push_back(child.get());
    }
  }
  return out;
}

std::vector<Point> KdbTree::KnnQuery(const Point& q, size_t k,
                                     QueryContext& ctx) const {
  if (k == 0 || live_points_ == 0) return {};
  // Best-first search [40] over the disjoint regions.
  struct Cand {
    double d2;
    const Node* node;
  };
  struct CandGreater {
    bool operator()(const Cand& a, const Cand& b) const { return a.d2 > b.d2; }
  };
  std::priority_queue<Cand, std::vector<Cand>, CandGreater> pq;
  pq.push({0.0, root_.get()});

  struct FirstLess {
    bool operator()(const std::pair<double, Point>& a,
                    const std::pair<double, Point>& b) const {
      return a.first < b.first;
    }
  };
  std::priority_queue<std::pair<double, Point>,
                      std::vector<std::pair<double, Point>>, FirstLess>
      heap;
  auto kth = [&]() { return heap.size() < k ? kInf : heap.top().first; };

  while (!pq.empty()) {
    const Cand c = pq.top();
    pq.pop();
    if (heap.size() >= k && c.d2 >= kth()) break;
    if (c.node->leaf) {
      const Block& b = store_.Access(c.node->block, ctx);
      for (const auto& e : b.entries) {
        const double d2 = SquaredDist(e.pt, q);
        if (heap.size() < k) {
          heap.emplace(d2, e.pt);
        } else if (d2 < heap.top().first) {
          heap.pop();
          heap.emplace(d2, e.pt);
        }
      }
      continue;
    }
    ctx.CountNodePage();
    for (const auto& child : c.node->children) {
      pq.push({child->region.MinDist2(q), child.get()});
    }
  }
  std::vector<std::pair<double, Point>> tmp;
  while (!heap.empty()) {
    tmp.push_back(heap.top());
    heap.pop();
  }
  std::vector<Point> out(tmp.size());
  for (size_t i = 0; i < tmp.size(); ++i) {
    out[tmp.size() - 1 - i] = tmp[i].second;
  }
  return out;
}

std::unique_ptr<KdbTree::Node> KdbTree::SplitNode(Node* node) {
  auto sibling = std::make_unique<Node>();
  sibling->leaf = node->leaf;
  if (node->leaf) {
    // Allocate before taking block references (Alloc may reallocate).
    const int sibling_block = store_.Alloc();
    Block& blk = store_.MutableBlock(node->block);
    std::vector<PointEntry> pts = std::move(blk.entries);
    // Split along the wider spread of the actual points.
    Rect bbox = Rect::Empty();
    for (const auto& e : pts) bbox.Expand(e.pt);
    const int dim =
        (bbox.hi.x - bbox.lo.x) >= (bbox.hi.y - bbox.lo.y) ? 0 : 1;
    double v = MedianPlane(pts, dim);
    const double vlo = dim == 0 ? bbox.lo.x : bbox.lo.y;
    const double vhi = dim == 0 ? bbox.hi.x : bbox.hi.y;
    if (v <= vlo || v > vhi) {
      v = (vlo + vhi) / 2;  // duplicate-heavy: midpoint keeps both halves
    }
    sibling->region = node->region;
    if (dim == 0) {
      node->region.hi.x = v;
      sibling->region.lo.x = v;
    } else {
      node->region.hi.y = v;
      sibling->region.lo.y = v;
    }
    blk.entries.clear();
    blk.mbr = Rect::Empty();
    sibling->block = sibling_block;
    Block& sb = store_.MutableBlock(sibling->block);
    for (auto& e : pts) {
      Block& target = Coord(e.pt, dim) < v ? blk : sb;
      target.entries.push_back(e);
      target.mbr.Expand(e.pt);
    }
    return sibling;
  }

  // Internal split: choose a plane from the children's boundaries
  // (median of their low edges along the wider dimension), then split
  // crossing children downward.
  Rect bbox = Rect::Empty();
  for (const auto& child : node->children) {
    bbox.Expand(child->region.lo);
    bbox.Expand(child->region.hi);
  }
  const int dim = (bbox.hi.x - bbox.lo.x) >= (bbox.hi.y - bbox.lo.y) ? 0 : 1;
  std::vector<double> edges;
  for (const auto& child : node->children) {
    const double lo = dim == 0 ? child->region.lo.x : child->region.lo.y;
    const double node_lo = dim == 0 ? node->region.lo.x : node->region.lo.y;
    const double node_hi = dim == 0 ? node->region.hi.x : node->region.hi.y;
    if (lo > node_lo && lo < node_hi) edges.push_back(lo);
  }
  double v;
  if (!edges.empty()) {
    std::nth_element(edges.begin(), edges.begin() + edges.size() / 2,
                     edges.end());
    v = edges[edges.size() / 2];
  } else {
    v = dim == 0 ? (bbox.lo.x + bbox.hi.x) / 2 : (bbox.lo.y + bbox.hi.y) / 2;
  }

  sibling->region = node->region;
  if (dim == 0) {
    node->region.hi.x = v;
    sibling->region.lo.x = v;
  } else {
    node->region.hi.y = v;
    sibling->region.lo.y = v;
  }
  std::vector<std::unique_ptr<Node>> old = std::move(node->children);
  node->children.clear();
  for (auto& child : old) {
    const double clo = dim == 0 ? child->region.lo.x : child->region.lo.y;
    const double chi = dim == 0 ? child->region.hi.x : child->region.hi.y;
    if (chi <= v) {
      node->children.push_back(std::move(child));
    } else if (clo >= v) {
      sibling->children.push_back(std::move(child));
    } else {
      std::unique_ptr<Node> left;
      std::unique_ptr<Node> right;
      SplitByPlane(this, std::move(child), dim, v, &left, &right);
      if (left != nullptr) node->children.push_back(std::move(left));
      if (right != nullptr) sibling->children.push_back(std::move(right));
    }
  }
  return sibling;
}

void KdbTree::SplitByPlane(KdbTree* tree, std::unique_ptr<Node> child,
                           int dim, double v, std::unique_ptr<Node>* left,
                           std::unique_ptr<Node>* right) {
  left->reset();
  right->reset();
  if (child->leaf) {
    // Allocate before taking block references (Alloc may reallocate).
    const int right_block = tree->store_.Alloc();
    Block& blk = tree->store_.MutableBlock(child->block);
    std::vector<PointEntry> pts = std::move(blk.entries);
    blk.entries.clear();
    blk.mbr = Rect::Empty();
    auto rnode = std::make_unique<Node>();
    rnode->leaf = true;
    rnode->region = child->region;
    if (dim == 0) {
      child->region.hi.x = v;
      rnode->region.lo.x = v;
    } else {
      child->region.hi.y = v;
      rnode->region.lo.y = v;
    }
    rnode->block = right_block;
    Block& rb = tree->store_.MutableBlock(rnode->block);
    for (auto& e : pts) {
      Block& target = Coord(e.pt, dim) < v ? blk : rb;
      target.entries.push_back(e);
      target.mbr.Expand(e.pt);
    }
    *left = std::move(child);
    *right = std::move(rnode);
    return;
  }
  auto rnode = std::make_unique<Node>();
  rnode->leaf = false;
  rnode->region = child->region;
  if (dim == 0) {
    child->region.hi.x = v;
    rnode->region.lo.x = v;
  } else {
    child->region.hi.y = v;
    rnode->region.lo.y = v;
  }
  std::vector<std::unique_ptr<Node>> old = std::move(child->children);
  child->children.clear();
  for (auto& gc : old) {
    const double clo = dim == 0 ? gc->region.lo.x : gc->region.lo.y;
    const double chi = dim == 0 ? gc->region.hi.x : gc->region.hi.y;
    if (chi <= v) {
      child->children.push_back(std::move(gc));
    } else if (clo >= v) {
      rnode->children.push_back(std::move(gc));
    } else {
      std::unique_ptr<Node> l;
      std::unique_ptr<Node> r;
      SplitByPlane(tree, std::move(gc), dim, v, &l, &r);
      if (l != nullptr) child->children.push_back(std::move(l));
      if (r != nullptr) rnode->children.push_back(std::move(r));
    }
  }
  *left = child->children.empty() ? nullptr : std::move(child);
  *right = rnode->children.empty() ? nullptr : std::move(rnode);
}

std::unique_ptr<KdbTree::Node> KdbTree::InsertRec(Node* node, const Point& p,
                                                  QueryContext& ctx) {
  if (node->leaf) {
    Block& blk = store_.MutableBlock(node->block);
    ctx.CountBlockAccess();
    if (static_cast<int>(blk.entries.size()) < cfg_.block_capacity) {
      blk.entries.push_back(PointEntry{p, next_id_});
      blk.mbr.Expand(p);
      return nullptr;
    }
    // Split, then place the point into the matching half.
    auto sibling = SplitNode(node);
    Node* target = RegionOwns(sibling->region, p) ? sibling.get() : node;
    Block& tb = store_.MutableBlock(target->block);
    tb.entries.push_back(PointEntry{p, next_id_});
    tb.mbr.Expand(p);
    return sibling;
  }
  ctx.CountNodePage();
  Node* child = nullptr;
  for (const auto& c : node->children) {
    if (RegionOwns(c->region, p)) {
      child = c.get();
      break;
    }
  }
  if (child == nullptr) return nullptr;  // cannot happen: regions tile space
  auto sibling = InsertRec(child, p, ctx);
  if (sibling != nullptr) node->children.push_back(std::move(sibling));
  if (node->children.size() > static_cast<size_t>(cfg_.fanout)) {
    return SplitNode(node);
  }
  return nullptr;
}

void KdbTree::InsertOne(const Point& p) {
  QueryContext ctx;
  auto sibling = InsertRec(root_.get(), p, ctx);
  if (sibling != nullptr) {
    auto new_root = std::make_unique<Node>();
    new_root->leaf = false;
    new_root->region = Rect{{-kHuge, -kHuge}, {kHuge, kHuge}};
    new_root->children.push_back(std::move(root_));
    new_root->children.push_back(std::move(sibling));
    root_ = std::move(new_root);
  }
  ++next_id_;
  ++live_points_;
}

bool KdbTree::DeleteOne(const Point& p) {
  QueryContext ctx;
  Node* cur = root_.get();
  while (cur != nullptr && !cur->leaf) {
    ctx.CountNodePage();
    Node* next = nullptr;
    for (const auto& child : cur->children) {
      if (RegionOwns(child->region, p)) {
        next = child.get();
        break;
      }
    }
    cur = next;
  }
  if (cur == nullptr) return false;
  const Block& b = store_.Access(cur->block, ctx);
  for (size_t i = 0; i < b.entries.size(); ++i) {
    if (SamePosition(b.entries[i].pt, p)) {
      Block& mb = store_.MutableBlock(cur->block);
      mb.entries[i] = mb.entries.back();
      mb.entries.pop_back();
      --live_points_;
      return true;
    }
  }
  return false;
}

IndexStats KdbTree::Stats() const {
  IndexStats s;
  s.name = Name();
  s.num_points = live_points_;
  struct Walker {
    static void Visit(const Node* node, int depth, int* height,
                      size_t* bytes) {
      *height = std::max(*height, depth + 1);
      *bytes += sizeof(Node);
      if (node->leaf) return;
      *bytes += node->children.size() * (sizeof(Rect) + sizeof(void*));
      for (const auto& child : node->children) {
        Visit(child.get(), depth + 1, height, bytes);
      }
    }
  };
  int height = 0;
  size_t bytes = 0;
  Walker::Visit(root_.get(), 0, &height, &bytes);
  s.height = height - 1;  // exclude the data-block level
  s.size_bytes = bytes + store_.SizeBytes();
  return s;
}

bool KdbTree::ValidateStructure(std::string* error) const {
  struct Walker {
    const KdbTree* self;
    std::string why;

    /// Open-interval overlap: regions may share boundaries, not interiors.
    static bool InteriorsOverlap(const Rect& a, const Rect& b) {
      return a.lo.x < b.hi.x && b.lo.x < a.hi.x && a.lo.y < b.hi.y &&
             b.lo.y < a.hi.y;
    }

    bool Check(const Node* node) {
      if (node->leaf) {
        if (node->block < 0 ||
            node->block >= static_cast<int>(self->store_.NumBlocks())) {
          why = "leaf references an invalid block";
          return false;
        }
        for (const auto& e : self->store_.Peek(node->block).entries) {
          if (!node->region.Contains(e.pt)) {
            why = "point outside its leaf region";
            return false;
          }
        }
        return true;
      }
      if (node->children.empty()) {
        why = "internal page without children";
        return false;
      }
      for (size_t i = 0; i < node->children.size(); ++i) {
        const Node* a = node->children[i].get();
        if (!node->region.ContainsRect(a->region)) {
          why = "child region escapes parent region";
          return false;
        }
        for (size_t j = i + 1; j < node->children.size(); ++j) {
          if (InteriorsOverlap(a->region, node->children[j]->region)) {
            why = "sibling regions overlap";
            return false;
          }
        }
        if (!Check(a)) return false;
      }
      return true;
    }
  };
  Walker walker{this, {}};
  if (!walker.Check(root_.get())) {
    if (error != nullptr) *error = walker.why;
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

KdbTree::KdbTree(LoadTag) : store_(1) {}

void KdbTree::WriteNode(Serializer& out, const Node& node) const {
  out.WritePod(node.leaf);
  out.WritePod(node.region);
  out.WritePod(node.block);
  out.WritePod<uint32_t>(static_cast<uint32_t>(node.children.size()));
  for (const auto& child : node.children) WriteNode(out, *child);
}

std::unique_ptr<KdbTree::Node> KdbTree::ReadNode(Deserializer& in,
                                                 int depth) {
  // A corrupted file cannot be allowed to recurse without bound; real
  // trees with fanout >= 2 stay far below this.
  if (depth > 64) {
    in.Fail("K-D-B tree deeper than any valid tree");
    return nullptr;
  }
  auto node = std::make_unique<Node>();
  uint32_t nchildren = 0;
  if (!in.ReadPod(&node->leaf) || !in.ReadPod(&node->region) ||
      !in.ReadPod(&node->block) || !in.ReadPod(&nchildren)) {
    return nullptr;
  }
  if (nchildren > in.remaining()) {  // each child costs >= 1 byte
    in.Fail("K-D-B node child count exceeds remaining data");
    return nullptr;
  }
  node->children.reserve(nchildren);
  for (uint32_t i = 0; i < nchildren; ++i) {
    auto child = ReadNode(in, depth + 1);
    if (child == nullptr) return nullptr;
    node->children.push_back(std::move(child));
  }
  return node;
}

bool KdbTree::SaveTo(Serializer& out) const {
  out.WritePod(cfg_);
  out.WritePod(live_points_);
  out.WritePod(next_id_);
  store_.WriteTo(out);
  WriteNode(out, *root_);
  return true;
}

bool KdbTree::LoadFrom(Deserializer& in) {
  if (!in.ReadPod(&cfg_) || !in.ReadPod(&live_points_) ||
      !in.ReadPod(&next_id_)) {
    return false;
  }
  if (cfg_.block_capacity < 1 || cfg_.fanout < 2) {
    return in.Fail("K-D-B config out of range");
  }
  if (!store_.ReadFrom(in)) return false;
  root_ = ReadNode(in, 0);
  if (root_ == nullptr) {
    return in.Fail("K-D-B tree is malformed");
  }
  // Leaf pages index the store: reject out-of-range block references so a
  // CRC-valid crafted payload cannot plant an OOB block access.
  struct BlockCheck {
    static bool Ok(const Node& n, const BlockStore& store) {
      if (n.leaf && (n.block < 0 || !store.ValidBlockRef(n.block))) {
        return false;
      }
      for (const auto& c : n.children) {
        if (!Ok(*c, store)) return false;
      }
      return true;
    }
  };
  if (!BlockCheck::Ok(*root_, store_)) {
    return in.Fail("K-D-B leaf block reference out of store bounds");
  }
  return true;
}

}  // namespace rsmi
