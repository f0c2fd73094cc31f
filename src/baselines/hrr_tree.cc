#include "baselines/hrr_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/search_algorithms.h"
#include "rank/rank_space.h"

namespace rsmi {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

}  // namespace

struct HrrTree::Node {
  bool leaf = false;        ///< leaf nodes reference one data block
  Rect rank_mbr = Rect::Empty();  ///< MBR in rank space (ranks as doubles)
  Rect orig_mbr = Rect::Empty();  ///< MBR in the original space
  std::vector<std::unique_ptr<Node>> children;
  int block = -1;
};

HrrTree::HrrTree(const std::vector<Point>& pts, const HrrConfig& cfg)
    : cfg_(cfg), store_(cfg.block_capacity) {
  live_points_ = pts.size();
  next_id_ = static_cast<int64_t>(pts.size());

  // Rank-space ordering (the same substrate RSMI leaves use).
  const RankSpaceOrdering rs = ComputeRankSpaceOrdering(pts, cfg_.curve);

  // The two coordinate B+-trees for query-time rank mapping.
  {
    std::vector<double> xs(pts.size());
    std::vector<double> ys(pts.size());
    for (size_t i = 0; i < pts.size(); ++i) {
      xs[i] = pts[i].x;
      ys[i] = pts[i].y;
    }
    std::sort(xs.begin(), xs.end());
    std::sort(ys.begin(), ys.end());
    btree_x_ = BPlusTree(std::move(xs), cfg_.node_fanout);
    btree_y_ = BPlusTree(std::move(ys), cfg_.node_fanout);
  }

  // Pack B points per leaf in curve order.
  std::vector<std::unique_ptr<Node>> level;
  const size_t n = pts.size();
  const int B = cfg_.block_capacity;
  for (size_t off = 0; off < n; off += B) {
    auto leaf = std::make_unique<Node>();
    leaf->leaf = true;
    leaf->block = store_.Alloc();
    Block& blk = store_.MutableBlock(leaf->block);
    const size_t end = std::min(n, off + B);
    for (size_t t = off; t < end; ++t) {
      const size_t i = rs.order[t];
      blk.entries.push_back(PointEntry{pts[i], static_cast<int64_t>(i)});
      blk.mbr.Expand(pts[i]);
      leaf->orig_mbr.Expand(pts[i]);
      leaf->rank_mbr.Expand(Point{static_cast<double>(rs.rank_x[i]),
                                  static_cast<double>(rs.rank_y[i])});
    }
    level.push_back(std::move(leaf));
  }
  if (level.empty()) {
    auto leaf = std::make_unique<Node>();
    leaf->leaf = true;
    leaf->block = store_.Alloc();
    level.push_back(std::move(leaf));
  }

  // Pack `node_fanout` nodes per parent, bottom-up.
  while (level.size() > 1) {
    std::vector<std::unique_ptr<Node>> next;
    for (size_t off = 0; off < level.size();
         off += cfg_.node_fanout) {
      auto parent = std::make_unique<Node>();
      parent->leaf = false;
      const size_t end =
          std::min(level.size(), off + cfg_.node_fanout);
      for (size_t t = off; t < end; ++t) {
        parent->orig_mbr.Expand(level[t]->orig_mbr);
        parent->rank_mbr.Expand(level[t]->rank_mbr);
        parent->children.push_back(std::move(level[t]));
      }
      next.push_back(std::move(parent));
    }
    level = std::move(next);
  }
  root_ = std::move(level.front());
}

HrrTree::~HrrTree() = default;

std::optional<PointEntry> HrrTree::PointQuery(const Point& q,
                                              QueryContext& ctx) const {
  // Standard R-tree point search on the original-space MBRs (may visit
  // several paths when MBRs overlap after insertions).
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
      if (child->orig_mbr.Contains(q)) stack.push_back(child.get());
    }
  }
  return std::nullopt;
}

std::vector<Point> HrrTree::WindowQuery(const Rect& w,
                                        QueryContext& ctx) const {
  // Map the window to rank space through the B+-trees (the HRR query
  // procedure), then traverse the rank-space MBRs; points are verified
  // against the original window at the leaves. The half-rank margins pair
  // with the half-integer ranks assigned to inserted points so queries
  // stay exact after updates (build points have integer ranks, which the
  // margins neither include nor exclude incorrectly).
  const double rx_lo =
      static_cast<double>(btree_x_.RankLower(w.lo.x, &ctx)) - 0.5;
  const double rx_hi =
      static_cast<double>(btree_x_.RankUpper(w.hi.x, &ctx)) - 0.5;
  const double ry_lo =
      static_cast<double>(btree_y_.RankLower(w.lo.y, &ctx)) - 0.5;
  const double ry_hi =
      static_cast<double>(btree_y_.RankUpper(w.hi.y, &ctx)) - 0.5;
  const Rect rank_w{{rx_lo, ry_lo}, {rx_hi, ry_hi}};
  return TreeWindowQuery(root_.get(), &Node::rank_mbr, rank_w, w, store_, ctx);
}

std::vector<Point> HrrTree::KnnQuery(const Point& q, size_t k,
                                     QueryContext& ctx) const {
  if (k == 0 || live_points_ == 0) return {};
  return TreeKnnQuery(root_.get(), &Node::orig_mbr, q, k, store_, ctx);
}

void HrrTree::InsertOne(const Point& p) {
  // Dynamic insert with least-enlargement descent on the original MBRs.
  // The rank mapping stays frozen: the point receives half-integer ranks
  // (its position between the frozen build ranks), which extend the rank
  // MBRs and keep window queries exact — see the margin comment in
  // WindowQuery.
  QueryContext ctx;
  const double rx = static_cast<double>(btree_x_.RankLower(p.x, &ctx)) - 0.5;
  const double ry = static_cast<double>(btree_y_.RankLower(p.y, &ctx)) - 0.5;

  Node* cur = root_.get();
  std::vector<Node*> path;
  while (!cur->leaf) {
    ctx.CountNodePage();
    path.push_back(cur);
    Node* best = nullptr;
    double best_grow = kInf;
    double best_area = kInf;
    for (const auto& child : cur->children) {
      Rect grown = child->orig_mbr;
      grown.Expand(p);
      const double grow = grown.Area() - child->orig_mbr.Area();
      const double area = child->orig_mbr.Area();
      if (grow < best_grow || (grow == best_grow && area < best_area)) {
        best = child.get();
        best_grow = grow;
        best_area = area;
      }
    }
    cur = best;
  }
  path.push_back(cur);

  Block& blk = store_.MutableBlock(cur->block);
  ctx.CountBlockAccess();
  if (static_cast<int>(blk.entries.size()) < cfg_.block_capacity) {
    blk.entries.push_back(PointEntry{p, next_id_++});
    blk.mbr.Expand(p);
  } else {
    // Split the leaf: median split on the wider dimension of its points.
    std::vector<PointEntry> pts = std::move(blk.entries);
    pts.push_back(PointEntry{p, next_id_++});
    Rect bbox = Rect::Empty();
    for (const auto& e : pts) bbox.Expand(e.pt);
    const bool split_x =
        (bbox.hi.x - bbox.lo.x) >= (bbox.hi.y - bbox.lo.y);
    std::sort(pts.begin(), pts.end(),
              [split_x](const PointEntry& a, const PointEntry& b) {
                return split_x ? LessByXThenY{}(a.pt, b.pt)
                               : LessByYThenX{}(a.pt, b.pt);
              });
    const size_t half = pts.size() / 2;
    blk.entries.assign(pts.begin(), pts.begin() + half);
    blk.mbr = Rect::Empty();
    cur->orig_mbr = Rect::Empty();
    for (const auto& e : blk.entries) {
      blk.mbr.Expand(e.pt);
      cur->orig_mbr.Expand(e.pt);
    }
    // Recompute the rank MBR conservatively from the B+-trees: bracket
    // each entry's (unknown) rank between its lower and upper bound so no
    // build or inserted point ends up outside the MBR. Maintenance
    // lookups are not charged as block accesses.
    auto expand_rank = [this](Rect* mbr, const Point& pt) {
      mbr->Expand(Point{
          static_cast<double>(btree_x_.RankLower(pt.x, nullptr)) - 0.5,
          static_cast<double>(btree_y_.RankLower(pt.y, nullptr)) - 0.5});
      mbr->Expand(Point{
          static_cast<double>(btree_x_.RankUpper(pt.x, nullptr)) - 0.5,
          static_cast<double>(btree_y_.RankUpper(pt.y, nullptr)) - 0.5});
    };
    cur->rank_mbr = Rect::Empty();
    for (const auto& e : blk.entries) expand_rank(&cur->rank_mbr, e.pt);
    // The conservative rank brackets can exceed the exact build-time
    // ranks the ancestors' rank MBRs were computed from, so the split
    // results must be propagated upward (below) or window pruning on
    // rank MBRs could skip this subtree.
    Rect split_rank = cur->rank_mbr;
    Rect split_orig = cur->orig_mbr;

    auto sibling = std::make_unique<Node>();
    sibling->leaf = true;
    sibling->block = store_.Alloc();
    Block& sb = store_.MutableBlock(sibling->block);
    sb.entries.assign(pts.begin() + half, pts.end());
    for (const auto& e : sb.entries) {
      sb.mbr.Expand(e.pt);
      sibling->orig_mbr.Expand(e.pt);
      expand_rank(&sibling->rank_mbr, e.pt);
    }
    split_rank.Expand(sibling->rank_mbr);
    split_orig.Expand(sibling->orig_mbr);
    // Attach the sibling to the parent (grow a new root if needed); node
    // overflow beyond fanout is tolerated, matching simple R-tree variants.
    if (path.size() >= 2) {
      Node* parent = path[path.size() - 2];
      parent->children.push_back(std::move(sibling));
    } else {
      auto new_root = std::make_unique<Node>();
      new_root->leaf = false;
      new_root->orig_mbr = root_->orig_mbr;
      new_root->rank_mbr = root_->rank_mbr;
      new_root->children.push_back(std::move(root_));
      new_root->children.push_back(std::move(sibling));
      root_ = std::move(new_root);
      path.insert(path.begin(), root_.get());
    }
    // Ancestors (everything on the path above the split leaf) absorb the
    // split's widened MBRs.
    for (size_t i = 0; i + 1 < path.size(); ++i) {
      path[i]->rank_mbr.Expand(split_rank);
      path[i]->orig_mbr.Expand(split_orig);
    }
  }
  for (Node* n : path) {
    n->orig_mbr.Expand(p);
    n->rank_mbr.Expand(Point{rx, ry});
  }
  ++live_points_;
}

bool HrrTree::DeleteOne(const Point& p) {
  QueryContext ctx;
  std::vector<Node*> stack = {root_.get()};
  while (!stack.empty()) {
    Node* node = stack.back();
    stack.pop_back();
    if (node->leaf) {
      const Block& b = store_.Access(node->block, ctx);
      for (size_t i = 0; i < b.entries.size(); ++i) {
        if (SamePosition(b.entries[i].pt, p)) {
          Block& mb = store_.MutableBlock(node->block);
          mb.entries[i] = mb.entries.back();
          mb.entries.pop_back();
          --live_points_;
          return true;
        }
      }
      continue;
    }
    ctx.CountNodePage();
    for (const auto& child : node->children) {
      if (child->orig_mbr.Contains(p)) stack.push_back(child.get());
    }
  }
  return false;
}

IndexStats HrrTree::Stats() const {
  IndexStats s;
  s.name = Name();
  s.num_points = live_points_;
  struct Walker {
    static void Visit(const Node* node, int depth, int* height,
                      size_t* bytes) {
      *height = std::max(*height, depth + 1);
      *bytes += sizeof(Node) +
                node->children.size() * (2 * sizeof(Rect) + sizeof(void*));
      for (const auto& child : node->children) {
        Visit(child.get(), depth + 1, height, bytes);
      }
    }
  };
  int height = 0;
  size_t bytes = 0;
  Walker::Visit(root_.get(), 0, &height, &bytes);
  s.height = height - 1;  // leaf nodes are the data blocks
  s.size_bytes =
      bytes + store_.SizeBytes() + btree_x_.SizeBytes() + btree_y_.SizeBytes();
  return s;
}


bool HrrTree::ValidateStructure(std::string* error) const {
  struct Walker {
    const HrrTree* self;
    std::string why;
    bool Check(const Node* node) {
      if (node->leaf) {
        if (node->block < 0 ||
            node->block >= static_cast<int>(self->store_.NumBlocks())) {
          why = "leaf references an invalid block";
          return false;
        }
        for (const auto& e : self->store_.Peek(node->block).entries) {
          // MBRs expand on insertion and never shrink on deletion, so
          // containment (not tightness) is the invariant.
          if (!node->orig_mbr.Contains(e.pt)) {
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
      for (const auto& child : node->children) {
        if (child->orig_mbr.Valid() &&
            !node->orig_mbr.ContainsRect(child->orig_mbr)) {
          why = "child original-space MBR escapes parent";
          return false;
        }
        if (child->rank_mbr.Valid() &&
            !node->rank_mbr.ContainsRect(child->rank_mbr)) {
          why = "child rank-space MBR escapes parent";
          return false;
        }
        if (!Check(child.get())) return false;
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

HrrTree::HrrTree(LoadTag) : store_(1) {}

void HrrTree::WriteNode(Serializer& out, const Node& node) const {
  out.WritePod(node.leaf);
  out.WritePod(node.rank_mbr);
  out.WritePod(node.orig_mbr);
  out.WritePod(node.block);
  out.WritePod<uint32_t>(static_cast<uint32_t>(node.children.size()));
  for (const auto& child : node.children) WriteNode(out, *child);
}

std::unique_ptr<HrrTree::Node> HrrTree::ReadNode(Deserializer& in,
                                                 int depth) {
  // A corrupted file cannot be allowed to recurse without bound; real
  // trees with fanout >= 2 stay far below this.
  if (depth > 64) {
    in.Fail("HRR tree deeper than any valid tree");
    return nullptr;
  }
  auto node = std::make_unique<Node>();
  uint32_t nchildren = 0;
  if (!in.ReadPod(&node->leaf) || !in.ReadPod(&node->rank_mbr) ||
      !in.ReadPod(&node->orig_mbr) || !in.ReadPod(&node->block) ||
      !in.ReadPod(&nchildren)) {
    return nullptr;
  }
  if (nchildren > in.remaining()) {  // each child costs >= 1 byte
    in.Fail("HRR node child count exceeds remaining data");
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

bool HrrTree::SaveTo(Serializer& out) const {
  out.WritePod(cfg_);
  out.WritePod(live_points_);
  out.WritePod(next_id_);
  store_.WriteTo(out);
  btree_x_.WriteTo(out);
  btree_y_.WriteTo(out);
  WriteNode(out, *root_);
  return true;
}

bool HrrTree::LoadFrom(Deserializer& in) {
  if (!in.ReadPod(&cfg_) || !in.ReadPod(&live_points_) ||
      !in.ReadPod(&next_id_)) {
    return false;
  }
  if (cfg_.block_capacity < 1 || cfg_.node_fanout < 2 ||
      (cfg_.curve != CurveType::kZ && cfg_.curve != CurveType::kHilbert)) {
    return in.Fail("HRR config out of range");
  }
  if (!store_.ReadFrom(in) || !btree_x_.ReadFrom(in) ||
      !btree_y_.ReadFrom(in)) {
    return false;
  }
  root_ = ReadNode(in, 0);
  if (root_ == nullptr) {
    return in.Fail("HRR tree is malformed");
  }
  // Leaf nodes index the store: reject out-of-range block references so a
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
    return in.Fail("HRR leaf block reference out of store bounds");
  }
  return true;
}

}  // namespace rsmi
