#include "baselines/rstar_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <queue>

#include "io/serializer.h"

namespace rsmi {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

/// R* topological split over rectangles: picks the split axis by minimum
/// margin sum, then the distribution with minimal overlap (ties: minimal
/// total area). Sorts `rects` (and applies the same permutation to the
/// caller's items via `perm`) and returns the split position.
size_t ChooseRStarSplit(std::vector<Rect>* rects, std::vector<size_t>* perm,
                        size_t min_fill) {
  const size_t n = rects->size();
  std::vector<size_t> idx(n);
  for (size_t i = 0; i < n; ++i) idx[i] = i;

  auto key_lo = [&](int axis, size_t i) {
    return axis == 0 ? (*rects)[i].lo.x : (*rects)[i].lo.y;
  };
  auto key_hi = [&](int axis, size_t i) {
    return axis == 0 ? (*rects)[i].hi.x : (*rects)[i].hi.y;
  };

  double best_margin = kInf;
  int best_axis = 0;
  bool best_by_hi = false;
  for (int axis = 0; axis < 2; ++axis) {
    for (int by_hi = 0; by_hi < 2; ++by_hi) {
      std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
        const double ka = by_hi ? key_hi(axis, a) : key_lo(axis, a);
        const double kb = by_hi ? key_hi(axis, b) : key_lo(axis, b);
        if (ka != kb) return ka < kb;
        return key_hi(axis, a) < key_hi(axis, b);
      });
      // Prefix/suffix bounding boxes for O(n) margin sums.
      std::vector<Rect> prefix(n);
      std::vector<Rect> suffix(n);
      Rect acc = Rect::Empty();
      for (size_t i = 0; i < n; ++i) {
        acc.Expand((*rects)[idx[i]]);
        prefix[i] = acc;
      }
      acc = Rect::Empty();
      for (size_t i = n; i-- > 0;) {
        acc.Expand((*rects)[idx[i]]);
        suffix[i] = acc;
      }
      double margin_sum = 0.0;
      for (size_t k = min_fill; k <= n - min_fill; ++k) {
        margin_sum += prefix[k - 1].Margin() + suffix[k].Margin();
      }
      if (margin_sum < best_margin) {
        best_margin = margin_sum;
        best_axis = axis;
        best_by_hi = by_hi != 0;
      }
    }
  }

  std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    const double ka = best_by_hi ? key_hi(best_axis, a) : key_lo(best_axis, a);
    const double kb = best_by_hi ? key_hi(best_axis, b) : key_lo(best_axis, b);
    if (ka != kb) return ka < kb;
    return key_hi(best_axis, a) < key_hi(best_axis, b);
  });

  std::vector<Rect> prefix(n);
  std::vector<Rect> suffix(n);
  Rect acc = Rect::Empty();
  for (size_t i = 0; i < n; ++i) {
    acc.Expand((*rects)[idx[i]]);
    prefix[i] = acc;
  }
  acc = Rect::Empty();
  for (size_t i = n; i-- > 0;) {
    acc.Expand((*rects)[idx[i]]);
    suffix[i] = acc;
  }
  double best_overlap = kInf;
  double best_area = kInf;
  size_t best_k = min_fill;
  for (size_t k = min_fill; k <= n - min_fill; ++k) {
    const double overlap = prefix[k - 1].OverlapArea(suffix[k]);
    const double area = prefix[k - 1].Area() + suffix[k].Area();
    if (overlap < best_overlap ||
        (overlap == best_overlap && area < best_area)) {
      best_overlap = overlap;
      best_area = area;
      best_k = k;
    }
  }

  // Apply the permutation.
  std::vector<Rect> sorted_rects(n);
  std::vector<size_t> sorted_perm(n);
  for (size_t i = 0; i < n; ++i) {
    sorted_rects[i] = (*rects)[idx[i]];
    sorted_perm[i] = (*perm)[idx[i]];
  }
  *rects = std::move(sorted_rects);
  *perm = std::move(sorted_perm);
  return best_k;
}

}  // namespace

struct RStarTree::Node {
  bool leaf = false;
  Rect mbr = Rect::Empty();
  std::vector<std::unique_ptr<Node>> children;
  Node* parent = nullptr;
  int block = -1;
};

RStarTree::RStarTree(const std::vector<Point>& pts, const RStarConfig& cfg)
    : cfg_(cfg), store_(cfg.block_capacity) {
  root_ = std::make_unique<Node>();
  root_->leaf = true;
  root_->block = store_.Alloc();
  // Tuple-at-a-time construction ("created by means of top-down
  // insertions", Section 6.2.2) — the reason RR* builds slowly in Fig. 7b.
  QueryContext ctx;
  for (const auto& p : pts) {
    InsertEntry(PointEntry{p, next_id_++}, /*allow_reinsert=*/true, ctx);
    ++live_points_;
  }
}

RStarTree::~RStarTree() = default;

RStarTree::RStarTree(LoadTag) : store_(1) {}

RStarTree::Node* RStarTree::ChooseSubtree(const Point& p,
                                          QueryContext& ctx) const {
  Node* cur = root_.get();
  while (!cur->leaf) {
    ctx.CountNodePage();
    Node* best = nullptr;
    double best_primary = kInf;
    double best_area = kInf;
    const bool children_are_leaves = cur->children.front()->leaf;

    // Candidate set: for leaf-parents, R* computes the "nearly minimum
    // overlap cost" — only the 32 children with least area enlargement
    // are examined (Beckmann et al.'s p=32 optimization).
    std::vector<Node*> cands;
    cands.reserve(cur->children.size());
    for (const auto& child : cur->children) cands.push_back(child.get());
    if (children_are_leaves && cands.size() > 32) {
      std::partial_sort(
          cands.begin(), cands.begin() + 32, cands.end(),
          [&](const Node* a, const Node* b) {
            Rect ga = a->mbr;
            ga.Expand(p);
            Rect gb = b->mbr;
            gb.Expand(p);
            return ga.Area() - a->mbr.Area() < gb.Area() - b->mbr.Area();
          });
      cands.resize(32);
    }
    for (Node* child : cands) {
      Rect grown = child->mbr;
      grown.Expand(p);
      double primary;
      if (children_are_leaves) {
        // Minimum overlap enlargement (R* rule for the level above the
        // leaves).
        double overlap_before = 0.0;
        double overlap_after = 0.0;
        for (const auto& other : cur->children) {
          if (other.get() == child) continue;
          overlap_before += child->mbr.OverlapArea(other->mbr);
          overlap_after += grown.OverlapArea(other->mbr);
        }
        primary = overlap_after - overlap_before;
      } else {
        primary = grown.Area() - child->mbr.Area();  // area enlargement
      }
      const double area = child->mbr.Area();
      if (primary < best_primary ||
          (primary == best_primary && area < best_area)) {
        best = child;
        best_primary = primary;
        best_area = area;
      }
    }
    cur = best;
  }
  return cur;
}

void RStarTree::RecomputeMbr(Node* node) {
  node->mbr = Rect::Empty();
  if (node->leaf) {
    const Block& b = store_.Peek(node->block);
    for (const auto& e : b.entries) node->mbr.Expand(e.pt);
  } else {
    for (const auto& child : node->children) node->mbr.Expand(child->mbr);
  }
}

void RStarTree::ExpandUpwards(Node* node, const Point& p) {
  for (Node* cur = node; cur != nullptr; cur = cur->parent) {
    cur->mbr.Expand(p);
  }
}

std::unique_ptr<RStarTree::Node> RStarTree::SplitNode(Node* node) {
  auto sibling = std::make_unique<Node>();
  sibling->leaf = node->leaf;
  const size_t min_fill = std::max<size_t>(
      1, static_cast<size_t>(
             cfg_.min_fill *
             (node->leaf ? cfg_.block_capacity : cfg_.fanout)));
  if (node->leaf) {
    // Allocate the sibling block before taking references: Alloc() may
    // reallocate the block arena and invalidate them.
    sibling->block = store_.Alloc();
    Block& blk = store_.MutableBlock(node->block);
    std::vector<PointEntry> pts = std::move(blk.entries);
    std::vector<Rect> rects(pts.size());
    std::vector<size_t> perm(pts.size());
    for (size_t i = 0; i < pts.size(); ++i) {
      rects[i] = Rect{pts[i].pt, pts[i].pt};
      perm[i] = i;
    }
    const size_t k = ChooseRStarSplit(&rects, &perm, min_fill);
    blk.entries.clear();
    blk.mbr = Rect::Empty();
    Block& sb = store_.MutableBlock(sibling->block);
    for (size_t i = 0; i < pts.size(); ++i) {
      Block& target = i < k ? blk : sb;
      target.entries.push_back(pts[perm[i]]);
      target.mbr.Expand(pts[perm[i]].pt);
    }
    RecomputeMbr(node);
    sibling->mbr = sb.mbr;
  } else {
    std::vector<std::unique_ptr<Node>> kids = std::move(node->children);
    std::vector<Rect> rects(kids.size());
    std::vector<size_t> perm(kids.size());
    for (size_t i = 0; i < kids.size(); ++i) {
      rects[i] = kids[i]->mbr;
      perm[i] = i;
    }
    const size_t k = ChooseRStarSplit(&rects, &perm, min_fill);
    node->children.clear();
    for (size_t i = 0; i < kids.size(); ++i) {
      Node* target = i < k ? node : sibling.get();
      kids[perm[i]]->parent = target;
      target->children.push_back(std::move(kids[perm[i]]));
    }
    RecomputeMbr(node);
    RecomputeMbr(sibling.get());
  }
  return sibling;
}

void RStarTree::AttachSibling(Node* node, std::unique_ptr<Node> sibling) {
  if (node->parent != nullptr) {
    sibling->parent = node->parent;
    node->parent->children.push_back(std::move(sibling));
    return;
  }
  // Grow a new root.
  auto new_root = std::make_unique<Node>();
  new_root->leaf = false;
  auto old_root = std::move(root_);
  old_root->parent = new_root.get();
  sibling->parent = new_root.get();
  new_root->children.push_back(std::move(old_root));
  new_root->children.push_back(std::move(sibling));
  root_ = std::move(new_root);
  RecomputeMbr(root_.get());
}

void RStarTree::SplitUpwards(Node* node) {
  Node* cur = node;
  while (cur != nullptr) {
    const bool overflow =
        cur->leaf
            ? static_cast<int>(store_.Peek(cur->block).entries.size()) >
                  cfg_.block_capacity
            : static_cast<int>(cur->children.size()) > cfg_.fanout;
    if (!overflow) break;
    Node* parent = cur->parent;
    AttachSibling(cur, SplitNode(cur));
    cur = parent != nullptr ? parent : root_.get();
    if (cur == root_.get() && !root_->leaf &&
        static_cast<int>(root_->children.size()) <= cfg_.fanout) {
      break;
    }
  }
}

void RStarTree::HandleLeafOverflow(Node* leaf, bool allow_reinsert,
                                   QueryContext& ctx) {
  if (allow_reinsert && leaf->parent != nullptr) {
    // Forced reinsertion (R* overflow treatment): remove the 30% of
    // entries farthest from the node's center and reinsert them.
    Block& blk = store_.MutableBlock(leaf->block);
    const Point center = leaf->mbr.Center();
    std::sort(blk.entries.begin(), blk.entries.end(),
              [&](const PointEntry& a, const PointEntry& b) {
                return SquaredDist(a.pt, center) > SquaredDist(b.pt, center);
              });
    const size_t m = std::max<size_t>(
        1, static_cast<size_t>(cfg_.reinsert_frac * blk.entries.size()));
    std::vector<PointEntry> evicted(blk.entries.begin(),
                                    blk.entries.begin() + m);
    blk.entries.erase(blk.entries.begin(), blk.entries.begin() + m);
    blk.mbr = Rect::Empty();
    for (const auto& e : blk.entries) blk.mbr.Expand(e.pt);
    RecomputeMbr(leaf);
    for (Node* cur = leaf->parent; cur != nullptr; cur = cur->parent) {
      RecomputeMbr(cur);
    }
    for (const auto& e : evicted) {
      InsertEntry(e, /*allow_reinsert=*/false, ctx);
    }
    return;
  }
  SplitUpwards(leaf);
}

void RStarTree::InsertEntry(const PointEntry& e, bool allow_reinsert,
                            QueryContext& ctx) {
  Node* leaf = ChooseSubtree(e.pt, ctx);
  Block& blk = store_.MutableBlock(leaf->block);
  ctx.CountBlockAccess();
  blk.entries.push_back(e);
  blk.mbr.Expand(e.pt);
  ExpandUpwards(leaf, e.pt);
  if (static_cast<int>(blk.entries.size()) > cfg_.block_capacity) {
    HandleLeafOverflow(leaf, allow_reinsert, ctx);
  }
}

void RStarTree::InsertOne(const Point& p) {
  QueryContext ctx;
  InsertEntry(PointEntry{p, next_id_++}, /*allow_reinsert=*/true, ctx);
  ++live_points_;
}

std::optional<PointEntry> RStarTree::PointQuery(const Point& q,
                                                QueryContext& ctx) const {
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    if (node->leaf) {
      const Block& b = store_.Access(node->block, ctx);
      for (const auto& e : b.entries) {
        if (SamePosition(e.pt, q)) return e;
      }
      continue;
    }
    ctx.CountNodePage();
    for (const auto& child : node->children) {
      if (child->mbr.Contains(q)) stack.push_back(child.get());
    }
  }
  return std::nullopt;
}

std::vector<Point> RStarTree::WindowQuery(const Rect& w,
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
      if (child->mbr.Intersects(w)) stack.push_back(child.get());
    }
  }
  return out;
}

std::vector<Point> RStarTree::KnnQuery(const Point& q, size_t k,
                                       QueryContext& ctx) const {
  if (k == 0 || live_points_ == 0) return {};
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
      pq.push({child->mbr.MinDist2(q), child.get()});
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

bool RStarTree::DeleteOne(const Point& p) {
  // Find the leaf containing p.
  QueryContext ctx;
  std::vector<Node*> stack = {root_.get()};
  Node* found_leaf = nullptr;
  size_t found_pos = 0;
  while (!stack.empty() && found_leaf == nullptr) {
    Node* node = stack.back();
    stack.pop_back();
    if (node->leaf) {
      const Block& b = store_.Access(node->block, ctx);
      for (size_t i = 0; i < b.entries.size(); ++i) {
        if (SamePosition(b.entries[i].pt, p)) {
          found_leaf = node;
          found_pos = i;
          break;
        }
      }
      continue;
    }
    ctx.CountNodePage();
    for (const auto& child : node->children) {
      if (child->mbr.Contains(p)) stack.push_back(child.get());
    }
  }
  if (found_leaf == nullptr) return false;
  Block& blk = store_.MutableBlock(found_leaf->block);
  blk.entries[found_pos] = blk.entries.back();
  blk.entries.pop_back();
  blk.mbr = Rect::Empty();
  for (const auto& e : blk.entries) blk.mbr.Expand(e.pt);
  for (Node* cur = found_leaf; cur != nullptr; cur = cur->parent) {
    RecomputeMbr(cur);
  }
  --live_points_;
  // CondenseTree simplification: underflowing leaves are kept (they
  // disappear through later splits/merges of the workload); the paper's
  // deletion experiments flag points as deleted similarly.
  return true;
}

IndexStats RStarTree::Stats() const {
  IndexStats s;
  s.name = Name();
  s.num_points = live_points_;
  struct Walker {
    static void Visit(const Node* node, int depth, int* height,
                      size_t* bytes) {
      *height = std::max(*height, depth + 1);
      *bytes += sizeof(Node) +
                node->children.size() * (sizeof(Rect) + sizeof(void*));
      for (const auto& child : node->children) {
        Visit(child.get(), depth + 1, height, bytes);
      }
    }
  };
  int height = 0;
  size_t bytes = 0;
  Walker::Visit(root_.get(), 0, &height, &bytes);
  s.height = height - 1;
  s.size_bytes = bytes + store_.SizeBytes();
  return s;
}

bool RStarTree::ValidateStructure(std::string* error) const {
  struct Walker {
    const RStarTree* self;
    std::string why;
    int leaf_depth = -1;

    bool Check(const Node* node, int depth) {
      if (node->leaf) {
        if (leaf_depth < 0) leaf_depth = depth;
        if (depth != leaf_depth) {
          why = "leaves at different depths";
          return false;
        }
        if (node->block < 0 ||
            node->block >= static_cast<int>(self->store_.NumBlocks())) {
          why = "leaf references an invalid block";
          return false;
        }
        for (const auto& e : self->store_.Peek(node->block).entries) {
          // MBRs are not shrunk on deletion, so containment (not
          // tightness) is the invariant.
          if (!node->mbr.Contains(e.pt)) {
            why = "point outside its leaf MBR";
            return false;
          }
        }
        return true;
      }
      if (node->children.empty()) {
        why = "internal node without children";
        return false;
      }
      if (static_cast<int>(node->children.size()) > self->cfg_.fanout) {
        why = "fanout exceeded";
        return false;
      }
      for (const auto& child : node->children) {
        if (child->parent != node) {
          why = "broken parent back-pointer";
          return false;
        }
        if (child->mbr.Valid() && !node->mbr.ContainsRect(child->mbr)) {
          why = "child MBR escapes parent MBR";
          return false;
        }
        if (!Check(child.get(), depth + 1)) return false;
      }
      return true;
    }
  };
  Walker walker{this, {}, -1};
  if (!walker.Check(root_.get(), 0)) {
    if (error != nullptr) *error = walker.why;
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

void RStarTree::WriteNode(Serializer& out, const Node& node) const {
  out.WritePod(node.leaf);
  out.WritePod(node.mbr);
  out.WritePod(node.block);
  out.WritePod<uint32_t>(static_cast<uint32_t>(node.children.size()));
  for (const auto& child : node.children) WriteNode(out, *child);
}

std::unique_ptr<RStarTree::Node> RStarTree::ReadNode(Deserializer& in,
                                                     Node* parent, int depth) {
  // A corrupted file cannot be allowed to recurse without bound; real
  // trees with fanout >= 2 stay far below this.
  if (depth > 64) {
    in.Fail("R* tree deeper than any valid tree");
    return nullptr;
  }
  auto node = std::make_unique<Node>();
  node->parent = parent;
  uint32_t nchildren = 0;
  if (!in.ReadPod(&node->leaf) || !in.ReadPod(&node->mbr) ||
      !in.ReadPod(&node->block) || !in.ReadPod(&nchildren)) {
    return nullptr;
  }
  if (nchildren > in.remaining()) {  // each child costs >= 1 byte
    in.Fail("R* node child count exceeds remaining data");
    return nullptr;
  }
  node->children.reserve(nchildren);
  for (uint32_t i = 0; i < nchildren; ++i) {
    auto child = ReadNode(in, node.get(), depth + 1);
    if (child == nullptr) return nullptr;
    node->children.push_back(std::move(child));
  }
  return node;
}

bool RStarTree::SaveTo(Serializer& out) const {
  out.WritePod(cfg_);
  out.WritePod(live_points_);
  out.WritePod(next_id_);
  store_.WriteTo(out);
  WriteNode(out, *root_);
  return true;
}

bool RStarTree::LoadFrom(Deserializer& in) {
  if (!in.ReadPod(&cfg_) || !in.ReadPod(&live_points_) ||
      !in.ReadPod(&next_id_) || !store_.ReadFrom(in)) {
    return false;
  }
  root_ = ReadNode(in, nullptr, 0);
  if (root_ == nullptr) {
    return in.Fail("R* tree is malformed");
  }
  // Leaf nodes index the store: reject out-of-range block references so
  // a CRC-valid crafted payload cannot plant an OOB block access.
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
    return in.Fail("R* leaf block reference out of store bounds");
  }
  return true;
}

}  // namespace rsmi
