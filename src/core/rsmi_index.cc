#include "core/rsmi_index.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <numeric>
#include <queue>
#include <unordered_set>
#include <utility>

#include "common/parallel_for.h"
#include "core/search_algorithms.h"
#include "io/index_container.h"
#include "nn/inference_engine.h"
#include "rank/rank_space.h"

namespace rsmi {
namespace {

int Clamp(int v, int lo, int hi) { return std::max(lo, std::min(hi, v)); }

}  // namespace

/// One sub-model of the RSMI. Internal nodes predict child slots (cell
/// curve values of the learned grid partitioning, Section 3.2); leaf nodes
/// predict block ids with recorded error bounds (Section 3.1).
struct RsmiIndex::Node {
  bool leaf = false;
  std::unique_ptr<Mlp> model;
  /// MBR of all points under this sub-model (enables RSMIa and updates).
  /// Grows with insertions.
  Rect mbr = Rect::Empty();

  /// Per-node input normalization, frozen at (re)build time so model
  /// inputs are identical at build and query time. Normalizing to the
  /// node's own bounds keeps every sub-model's learning problem
  /// well-conditioned however deep the recursion gets (a sub-model
  /// covering a tiny dense region would otherwise see all inputs squeezed
  /// into a sliver of [0,1] and could not separate its grid cells).
  double norm_lo_x = 0.0;
  double norm_lo_y = 0.0;
  double norm_span_x = 1.0;
  double norm_span_y = 1.0;

  void FreezeNormalization() {
    if (!mbr.Valid()) return;
    norm_lo_x = mbr.lo.x;
    norm_lo_y = mbr.lo.y;
    norm_span_x = std::max(1e-12, mbr.hi.x - mbr.lo.x);
    norm_span_y = std::max(1e-12, mbr.hi.y - mbr.lo.y);
  }

  /// Model inputs are centered to [-1,1] so the wide first-layer init
  /// (RsmiConfig::model_init_scale) places its sigmoid ridges symmetrically
  /// around the node's data.
  void Features(const Point& p, double* out) const {
    out[0] =
        2.0 * std::min(1.0, std::max(0.0, (p.x - norm_lo_x) / norm_span_x)) -
        1.0;
    out[1] =
        2.0 * std::min(1.0, std::max(0.0, (p.y - norm_lo_y) / norm_span_y)) -
        1.0;
  }

  // Internal-node state.
  int grid_order = 0;  ///< g: the learned grid is 2^g x 2^g, fanout 4^g
  std::vector<std::unique_ptr<Node>> children;  ///< size 4^g, empty = null

  // Leaf-node state.
  int first_block = -1;  ///< first global block id (build blocks contiguous)
  int num_blocks = 0;    ///< build-time block count m
  /// Maximum over-prediction: scanning starts err_below blocks below the
  /// prediction. (This is the quantity the paper calls err_a in Eq. 5; its
  /// Algorithm 1 notation swaps the two names — what matters is that the
  /// downward allowance covers over-predictions and vice versa.)
  int err_below = 0;
  /// Maximum under-prediction: scanning ends err_above blocks above.
  int err_above = 0;
  size_t built_points = 0;  ///< points packed at (re)build time
  size_t extra_points = 0;  ///< net insertions since (RSMIr trigger)
  /// Insert buffer (UpdateStrategy::kLeafBuffer): sorted by (x, y) for
  /// binary search, merged into the packed blocks when full.
  std::vector<PointEntry> buffer;
};

RsmiIndex::RsmiIndex(const std::vector<Point>& pts, const RsmiConfig& cfg)
    : cfg_(cfg), store_(cfg.block_capacity) {
  std::vector<PointEntry> entries(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    entries[i] = PointEntry{pts[i], static_cast<int64_t>(i)};
  }
  next_id_ = static_cast<int64_t>(pts.size());
  live_points_ = pts.size();

  data_bounds_ = Rect::Bound(pts.begin(), pts.end());
  if (!data_bounds_.Valid()) data_bounds_ = Rect::UnitSquare();

  // Marginal CDF approximations for the kNN skew estimate (Section 4.3).
  std::vector<double> xs(pts.size());
  std::vector<double> ys(pts.size());
  for (size_t i = 0; i < pts.size(); ++i) {
    xs[i] = pts[i].x;
    ys[i] = pts[i].y;
  }
  pmf_x_ = Pmf(std::move(xs), cfg_.pmf_partitions);
  pmf_y_ = Pmf(std::move(ys), cfg_.pmf_partitions);

  if (cfg_.build_threads > 1) {
    // Two-phase parallel bulk load: the recursion below packs blocks and
    // trains internal models sequentially (their predictions define the
    // partitioning) while queueing every leaf's training; the queued jobs
    // then run on the worker pool.
    std::vector<LeafTrainJob> jobs;
    leaf_jobs_ = &jobs;
    root_ = BuildNode(std::move(entries), 0);
    ParallelFor(jobs.size(), cfg_.build_threads,
                [&jobs](size_t i) { RunLeafTrainJob(&jobs[i]); });
    leaf_jobs_ = nullptr;
  } else {
    root_ = BuildNode(std::move(entries), 0);
  }
}

RsmiIndex::RsmiIndex(LoadTag) : store_(1) {}

RsmiIndex::~RsmiIndex() = default;

// ---------------------------------------------------------------------------
// Build (Section 3.2)
// ---------------------------------------------------------------------------

std::unique_ptr<RsmiIndex::Node> RsmiIndex::BuildNode(
    std::vector<PointEntry> pts, int depth) {
  if (pts.size() <= static_cast<size_t>(cfg_.partition_threshold) ||
      depth >= cfg_.max_depth) {
    return BuildLeaf(std::move(pts));
  }
  return BuildInternal(std::move(pts), depth);
}

std::unique_ptr<RsmiIndex::Node> RsmiIndex::BuildInternal(
    std::vector<PointEntry> pts, int depth) {
  auto node = std::make_unique<Node>();
  node->leaf = false;
  for (const auto& e : pts) node->mbr.Expand(e.pt);
  node->FreezeNormalization();

  // Grid order g = floor(log4(N/B)) >= 1, so the grid has 4^g <= N/B cells
  // and a sub-model never needs to predict more distinct values than a
  // leaf model does (Section 3.2).
  const int ratio =
      std::max(4, cfg_.partition_threshold / cfg_.block_capacity);
  int g = 1;
  while ((1 << (2 * (g + 1))) <= ratio) ++g;
  const int side = 1 << g;
  const int ncells = side * side;
  node->grid_order = g;

  // Non-regular grid following the data distribution: equal-count columns
  // by x, then equal-count cells by y within each column.
  const size_t n = pts.size();
  std::vector<uint32_t> cell(n);
  std::vector<size_t> idx(n);
  std::iota(idx.begin(), idx.end(), 0);
  std::sort(idx.begin(), idx.end(), [&](size_t a, size_t b) {
    return LessByXThenY{}(pts[a].pt, pts[b].pt);
  });
  for (int c = 0; c < side; ++c) {
    const size_t cb = n * c / side;
    const size_t ce = n * (c + 1) / side;
    std::sort(idx.begin() + cb, idx.begin() + ce, [&](size_t a, size_t b) {
      return LessByYThenX{}(pts[a].pt, pts[b].pt);
    });
    const size_t cn = ce - cb;
    for (int r = 0; r < side; ++r) {
      const size_t rb = cb + cn * r / side;
      const size_t re = cb + cn * (r + 1) / side;
      const uint64_t cv = CurveEncode(cfg_.curve, static_cast<uint32_t>(c),
                                      static_cast<uint32_t>(r), g);
      for (size_t t = rb; t < re; ++t) {
        cell[idx[t]] = static_cast<uint32_t>(cv);
      }
    }
  }

  // Train the sub-model to map coordinates -> cell curve value (loss as in
  // Eq. 3 with the cell curve value as ground truth).
  std::vector<double> feat(2 * n);
  std::vector<double> target(n);
  for (size_t i = 0; i < n; ++i) {
    node->Features(pts[i].pt, &feat[2 * i]);
    target[i] = static_cast<double>(cell[i]) / (ncells - 1);
  }
  const int hidden = (2 + ncells) / 2;  // paper's sizing rule
  node->model = std::make_unique<Mlp>(2, hidden, cfg_.seed + model_seed_counter_,
                                      cfg_.model_init_scale);
  MlpTrainConfig tc = cfg_.train;
  tc.seed = cfg_.seed + (++model_seed_counter_);
  tc.max_samples = cfg_.internal_sample_cap;
  node->model->Train(feat, target, tc);

  // Learned grouping: points go to the child their *predicted* value
  // names, so queries retrace the exact same path (Section 3.2).
  std::vector<std::vector<PointEntry>> groups(ncells);
  for (size_t i = 0; i < n; ++i) {
    const int slot =
        Clamp(static_cast<int>(std::lround(node->model->Predict(&feat[2 * i]) *
                                           (ncells - 1))),
              0, ncells - 1);
    groups[slot].push_back(pts[i]);
  }
  pts.clear();
  pts.shrink_to_fit();

  node->children.resize(ncells);
  for (int j = 0; j < ncells; ++j) {
    if (groups[j].empty()) continue;
    if (groups[j].size() == n) {
      // The model collapsed every point into one cell: no partitioning
      // progress is possible, so close this branch with a (large) leaf.
      node->children[j] = BuildLeaf(std::move(groups[j]));
    } else {
      node->children[j] = BuildNode(std::move(groups[j]), depth + 1);
    }
  }
  return node;
}

int RsmiIndex::EffectiveBlockFill() const {
  const double fill =
      std::min(1.0, std::max(0.01, cfg_.build_fill_factor));
  return std::max(1, static_cast<int>(cfg_.block_capacity * fill));
}

std::unique_ptr<RsmiIndex::Node> RsmiIndex::BuildLeaf(
    std::vector<PointEntry> pts) {
  auto node = std::make_unique<Node>();
  node->leaf = true;
  node->built_points = pts.size();
  for (const auto& e : pts) node->mbr.Expand(e.pt);
  node->FreezeNormalization();

  const size_t n = pts.size();
  // ALEX-style gapping: pack B * fill_factor entries per block so later
  // insertions usually find room in their predicted block.
  const int B = EffectiveBlockFill();
  const int m = n == 0 ? 1 : static_cast<int>((n + B - 1) / B);
  node->num_blocks = m;

  // Rank-space ordering of the leaf's points (Section 3.1).
  std::vector<Point> pos(n);
  for (size_t i = 0; i < n; ++i) pos[i] = pts[i].pt;
  const RankSpaceOrdering rs = ComputeRankSpaceOrdering(pos, cfg_.curve);

  // Pack every B points into a block in curve-value order (Eq. 1).
  std::vector<int> local_block(n);
  for (int b = 0; b < m; ++b) {
    const int id = store_.Alloc();
    if (b == 0) node->first_block = id;
    Block& blk = store_.MutableBlock(id);
    blk.entries.reserve(B);
    const size_t lo = static_cast<size_t>(b) * B;
    const size_t hi = std::min(n, lo + B);
    for (size_t t = lo; t < hi; ++t) {
      const size_t i = rs.order[t];
      blk.entries.push_back(pts[i]);
      blk.mbr.Expand(pts[i].pt);
      local_block[i] = b;
    }
    if (hi > lo) {
      blk.cv_lo = rs.curve_value[rs.order[lo]];
      blk.cv_hi = rs.curve_value[rs.order[hi - 1]];
    }
  }

  // Train the leaf model: coordinates -> (normalized) block id (Eq. 2-3).
  std::vector<double> feat(2 * n);
  std::vector<double> target(n);
  for (size_t i = 0; i < n; ++i) {
    node->Features(pts[i].pt, &feat[2 * i]);
    target[i] = m <= 1 ? 0.0 : static_cast<double>(local_block[i]) / (m - 1);
  }
  const int max_blocks =
      std::max(2, (cfg_.partition_threshold + B - 1) / B);
  const int hidden = (2 + max_blocks) / 2;  // 51 with the default N and B
  node->model = std::make_unique<Mlp>(2, hidden, cfg_.seed + model_seed_counter_,
                                      cfg_.model_init_scale);
  MlpTrainConfig tc = cfg_.train;
  tc.seed = cfg_.seed + (++model_seed_counter_);
  tc.max_samples = 0;  // leaves always train on all their points
  if (n == 0) return node;

  LeafTrainJob job{node.get(), std::move(feat), std::move(target),
                   std::move(local_block), tc};
  if (leaf_jobs_ != nullptr) {
    // Parallel build: blocks are packed (above) in sequential curve
    // order; the expensive training runs later on the worker pool.
    leaf_jobs_->push_back(std::move(job));
  } else {
    RunLeafTrainJob(&job);
  }
  return node;
}

void RsmiIndex::RunLeafTrainJob(LeafTrainJob* job) {
  Node* node = job->node;
  node->model->Train(job->feat, job->target, job->train);
  // Maximum prediction error bounds (Eqs. 4-5).
  const int m = node->num_blocks;
  const size_t n = job->target.size();
  for (size_t i = 0; i < n; ++i) {
    const int pred = Clamp(
        static_cast<int>(std::lround(node->model->Predict(&job->feat[2 * i]) *
                                     (m - 1))),
        0, m - 1);
    const int diff = pred - job->local_block[i];
    node->err_below = std::max(node->err_below, diff);
    node->err_above = std::max(node->err_above, -diff);
  }
}

// ---------------------------------------------------------------------------
// Descent helpers
// ---------------------------------------------------------------------------

int RsmiIndex::PredictChildSlot(const Node& node, const Point& p) const {
  double f[2];
  node.Features(p, f);
  const int ncells = static_cast<int>(node.children.size());
  const double pred = node.model->Predict(f);
  return Clamp(static_cast<int>(std::lround(pred * (ncells - 1))), 0,
               ncells - 1);
}

int RsmiIndex::PredictLeafBlock(const Node& leaf, const Point& p) const {
  const int m = leaf.num_blocks;
  if (m <= 1) return 0;
  double f[2];
  leaf.Features(p, f);
  const double pred = leaf.model->Predict(f);
  return Clamp(static_cast<int>(std::lround(pred * (m - 1))), 0, m - 1);
}

int RsmiIndex::ResolveChildSlot(const Node& node, int slot) {
  // A query point can be predicted into a slot no indexed point was
  // assigned to. Fall back to the nearest non-empty slot in curve
  // order so window/kNN bounds always resolve to a leaf (DESIGN.md).
  if (node.children[slot] != nullptr) return slot;
  const int ncells = static_cast<int>(node.children.size());
  for (int d = 1; d < ncells; ++d) {
    if (slot - d >= 0 && node.children[slot - d]) return slot - d;
    if (slot + d < ncells && node.children[slot + d]) return slot + d;
  }
  return slot;  // unreachable: internal nodes always have >= 1 child
}

const RsmiIndex::Node* RsmiIndex::DescendNearest(const Point& p,
                                                 QueryContext& ctx) const {
  // Safe const_cast: with a null path the mutable descent only reads the
  // tree; all bookkeeping goes into the caller's context.
  return const_cast<RsmiIndex*>(this)->DescendNearestMutable(p, nullptr, ctx);
}

/// One contiguous run of the fused descent's permutation array: all the
/// chunk's points currently sitting on `node`, at internal depth `depth`.
struct RsmiIndex::DescentSeg {
  const Node* node;
  uint32_t begin;
  uint32_t end;
  uint32_t depth;
};

/// Workspace reused across segments and chunks so the fused descent
/// allocates once per batch, not once per level or sub-model.
struct RsmiIndex::DescentScratch {
  std::vector<DescentSeg> cur;
  std::vector<DescentSeg> nxt;
  std::vector<uint32_t> perm;    // point indices, grouped by segment
  std::vector<uint32_t> perm2;   // scatter target, swapped per level
  std::vector<uint32_t> slot;    // resolved child slot per segment point
  std::vector<uint32_t> counts;  // counting-sort offsets (ncells + 1)
  std::vector<double> feat;
  std::vector<double> pred;
};

void RsmiIndex::DescendNearestBatch(const Point* qs, size_t n,
                                    QueryContext* ctxs, size_t ctx_stride,
                                    const Node** leaves) const {
  if (n == 0) return;
  if (n == 1) {
    leaves[0] = DescendNearest(qs[0], ctxs[0]);
    return;
  }
  DescentScratch ws;
  const size_t chunk = BatchDescentChunkWidth();
  for (size_t s = 0; s < n; s += chunk) {
    const size_t c = std::min(chunk, n - s);
    DescendFusedChunk(qs + s, c, ctxs + s * ctx_stride, ctx_stride,
                      leaves + s, nullptr, ws);
  }
}

void RsmiIndex::DescendFusedChunk(const Point* qs, size_t n,
                                  QueryContext* ctxs, size_t ctx_stride,
                                  const Node** leaves, int* pb,
                                  DescentScratch& ws) const {
  ws.perm.resize(n);
  std::iota(ws.perm.begin(), ws.perm.end(), 0u);
  ws.perm2.resize(n);
  ws.cur.clear();
  ws.cur.push_back(
      DescentSeg{root_.get(), 0, static_cast<uint32_t>(n), 0});
  while (!ws.cur.empty()) {
    ws.nxt.clear();
    for (const DescentSeg& seg : ws.cur) {
      const Node* nd = seg.node;
      const size_t m = seg.end - seg.begin;
      const uint32_t* grp = ws.perm.data() + seg.begin;
      if (nd->leaf) {
        // Segment done: record the leaf and charge exactly what a scalar
        // DescendNearest charges (the +1 is the leaf model).
        for (size_t t = 0; t < m; ++t) {
          const uint32_t q = grp[t];
          leaves[q] = nd;
          QueryContext& ctx = ctxs[q * ctx_stride];
          ctx.model_invocations += seg.depth + 1;
          ++ctx.descents;
        }
        // Fused leaf-block prediction: the point-query path gets the
        // whole segment's block ids here instead of re-grouping the
        // batch by leaf afterwards. Uncharged, like PredictLeafBlock
        // inside FindEntry.
        if (pb != nullptr && nd->num_blocks > 1) {
          const int blocks = nd->num_blocks;
          ws.feat.resize(2 * m);
          for (size_t t = 0; t < m; ++t) {
            nd->Features(qs[grp[t]], &ws.feat[2 * t]);
          }
          ws.pred.resize(m);
          nd->model->PredictBatch(ws.feat.data(), m, ws.pred.data());
          for (size_t t = 0; t < m; ++t) {
            pb[grp[t]] = Clamp(
                static_cast<int>(std::lround(ws.pred[t] * (blocks - 1))), 0,
                blocks - 1);
          }
        }
        continue;
      }
      // Internal segment: predict -> clamp -> resolve, fused with the
      // stable counting-sort scatter that forms the child segments.
      ws.feat.resize(2 * m);
      for (size_t t = 0; t < m; ++t) {
        nd->Features(qs[grp[t]], &ws.feat[2 * t]);
      }
      ws.pred.resize(m);
      nd->model->PredictBatch(ws.feat.data(), m, ws.pred.data());
      const int ncells = static_cast<int>(nd->children.size());
      ws.slot.resize(m);
      ws.counts.assign(ncells + 1, 0);
      for (size_t t = 0; t < m; ++t) {
        const int slot = Clamp(
            static_cast<int>(std::lround(ws.pred[t] * (ncells - 1))), 0,
            ncells - 1);
        const int resolved = ResolveChildSlot(*nd, slot);
        ws.slot[t] = static_cast<uint32_t>(resolved);
        ++ws.counts[resolved + 1];
      }
      for (int c = 0; c < ncells; ++c) ws.counts[c + 1] += ws.counts[c];
      for (int c = 0; c < ncells; ++c) {
        if (ws.counts[c + 1] == ws.counts[c]) continue;
        ws.nxt.push_back(DescentSeg{nd->children[c].get(),
                                    seg.begin + ws.counts[c],
                                    seg.begin + ws.counts[c + 1],
                                    seg.depth + 1});
      }
      for (size_t t = 0; t < m; ++t) {
        ws.perm2[seg.begin + ws.counts[ws.slot[t]]++] = grp[t];
      }
    }
    ws.perm.swap(ws.perm2);
    ws.cur.swap(ws.nxt);
  }
}

RsmiIndex::Node* RsmiIndex::DescendNearestMutable(const Point& p,
                                                  std::vector<Node*>* path,
                                                  QueryContext& ctx) {
  Node* cur = root_.get();
  uint64_t depth = 0;
  while (!cur->leaf) {
    if (path != nullptr) path->push_back(cur);
    ++depth;
    const int slot = PredictChildSlot(*cur, p);
    cur = cur->children[ResolveChildSlot(*cur, slot)].get();
  }
  if (path != nullptr) path->push_back(cur);
  ctx.model_invocations += depth + 1;
  ++ctx.descents;
  return cur;
}

std::pair<int, int> RsmiIndex::LeafPredictRange(const Node& leaf,
                                                const Point& p) const {
  const int pb = PredictLeafBlock(leaf, p);
  const int lo = std::max(0, pb - leaf.err_below);
  const int hi = std::min(leaf.num_blocks - 1, pb + leaf.err_above);
  return {leaf.first_block + lo, leaf.first_block + hi};
}

// ---------------------------------------------------------------------------
// Point queries (Algorithm 1)
// ---------------------------------------------------------------------------

std::optional<PointEntry> RsmiIndex::PointQuery(const Point& q,
                                                QueryContext& ctx) const {
  // Nearest-slot descent: matches the path insertions take, so points
  // inserted into previously empty regions stay findable (Section 5).
  const Node* leaf = DescendNearest(q, ctx);
  int block_id = -1;
  size_t pos = 0;
  if (FindEntry(*leaf, q, ctx, &block_id, &pos)) {
    return store_.Peek(block_id).entries[pos];
  }
  if (const PointEntry* e = FindInBuffer(*leaf, q, ctx)) return *e;
  return std::nullopt;
}

void RsmiIndex::PointQueryBatch(const Point* qs, size_t n, QueryContext* ctxs,
                                std::optional<PointEntry>* out) const {
  if (n == 0) return;
  if (n == 1) {
    out[0] = PointQuery(qs[0], ctxs[0]);
    return;
  }
  // Fused descent: leaf resolution and leaf-block prediction come out of
  // one pass over the tree, chunked to keep the working set cache-sized.
  std::vector<const Node*> leaves(n);
  std::vector<int> pb(n, 0);  // <= 1-block leaves keep 0 (PredictLeafBlock)
  DescentScratch ws;
  const size_t chunk = BatchDescentChunkWidth();
  for (size_t s = 0; s < n; s += chunk) {
    const size_t c = std::min(chunk, n - s);
    DescendFusedChunk(qs + s, c, ctxs + s, 1, leaves.data() + s,
                      pb.data() + s, ws);
    if (prefetch_hook_) {
      // Hand each query's predicted block range to the prefetcher now,
      // while the remaining chunks still descend — the scans below then
      // overlap the page faults. Advisory: no context is touched.
      for (size_t i = s; i < s + c; ++i) {
        const Node& leaf = *leaves[i];
        const int lo = std::max(0, pb[i] - leaf.err_below);
        const int hi = std::min(leaf.num_blocks - 1, pb[i] + leaf.err_above);
        prefetch_hook_(leaf.first_block + lo, leaf.first_block + hi);
      }
    }
  }

  // The block probing is per point, exactly Algorithm 1's scan.
  for (size_t i = 0; i < n; ++i) {
    const Node& leaf = *leaves[i];
    QueryContext& ctx = ctxs[i];
    int block_id = -1;
    size_t pos = 0;
    if (FindEntryFrom(leaf, qs[i], pb[i], ctx, &block_id, &pos)) {
      out[i] = store_.Peek(block_id).entries[pos];
    } else if (const PointEntry* e = FindInBuffer(leaf, qs[i], ctx)) {
      out[i] = *e;
    } else {
      out[i] = std::nullopt;
    }
  }
}

const PointEntry* RsmiIndex::FindInBuffer(const Node& leaf, const Point& q,
                                          QueryContext& ctx) const {
  if (leaf.buffer.empty()) return nullptr;
  ctx.CountBlockAccess();  // the buffer occupies one block-sized page
  const auto it = std::lower_bound(
      leaf.buffer.begin(), leaf.buffer.end(), q,
      [](const PointEntry& a, const Point& b) {
        return LessByXThenY{}(a.pt, b);
      });
  if (it != leaf.buffer.end() && SamePosition(it->pt, q)) return &*it;
  return nullptr;
}

bool RsmiIndex::FindEntry(const Node& leaf, const Point& q,
                          QueryContext& ctx, int* block_id,
                          size_t* pos) const {
  return FindEntryFrom(leaf, q, PredictLeafBlock(leaf, q), ctx, block_id,
                       pos);
}

bool RsmiIndex::FindEntryFrom(const Node& leaf, const Point& q, int pb,
                              QueryContext& ctx, int* block_id,
                              size_t* pos) const {
  // Expand outward from the predicted block within the error interval —
  // the predicted block is right most of the time, which is what makes
  // the paper's average block accesses (~1.4) far smaller than the
  // maximum error bounds (Section 6.2.2).
  const int lo = std::max(0, pb - leaf.err_below);
  const int hi = std::min(leaf.num_blocks - 1, pb + leaf.err_above);
  auto scan_run = [&](int local) {
    // Scans one build block plus the overflow run spliced after it.
    for (int cur = leaf.first_block + local; cur >= 0;) {
      const Block& b = store_.Access(cur, ctx);
      for (size_t i = 0; i < b.entries.size(); ++i) {
        if (SamePosition(b.entries[i].pt, q)) {
          *block_id = cur;
          *pos = i;
          return true;
        }
      }
      const int nxt = b.next;
      if (nxt < 0 || !store_.Peek(nxt).inserted) break;
      cur = nxt;
    }
    return false;
  };
  for (int d = 0;; ++d) {
    bool in_range = false;
    if (pb + d <= hi) {
      in_range = true;
      if (scan_run(pb + d)) return true;
    }
    if (d > 0 && pb - d >= lo) {
      in_range = true;
      if (scan_run(pb - d)) return true;
    }
    if (!in_range) return false;
  }
}

// ---------------------------------------------------------------------------
// Window queries (Algorithm 2)
// ---------------------------------------------------------------------------

std::pair<int, int> RsmiIndex::WindowBlockRange(const Rect& w,
                                                QueryContext& ctx) const {
  // For the Z-curve, the window's minimum/maximum curve values are at the
  // bottom-left and top-right corners; for the Hilbert curve they lie on
  // the boundary, so all four corners are used heuristically (Section 4.2).
  Point corners[4];
  size_t ncorners;
  if (cfg_.curve == CurveType::kZ) {
    corners[0] = w.lo;
    corners[1] = w.hi;
    ncorners = 2;
  } else {
    corners[0] = w.lo;
    corners[1] = w.hi;
    corners[2] = Point{w.lo.x, w.hi.y};
    corners[3] = Point{w.hi.x, w.lo.y};
    ncorners = 4;
  }
  // The corner descents share the upper tree levels, so they go through
  // the batched descent (one vectorized model evaluation per shared
  // sub-model instead of one scalar call per corner per level).
  const Node* leaves[4];
  DescendNearestBatch(corners, ncorners, &ctx, 0, leaves);
  int begin = -1;
  int end = -1;
  for (size_t i = 0; i < ncorners; ++i) {
    const auto [lo, hi] = LeafPredictRange(*leaves[i], corners[i]);
    if (begin < 0 || store_.SeqOf(lo) < store_.SeqOf(begin)) begin = lo;
    if (end < 0 || store_.SeqOf(hi) > store_.SeqOf(end)) end = hi;
  }
  if (prefetch_hook_ && begin >= 0 && end >= 0) prefetch_hook_(begin, end);
  return {begin, end};
}

std::vector<Point> RsmiIndex::WindowQuery(const Rect& w,
                                          QueryContext& ctx) const {
  std::vector<Point> out;
  const auto entries = WindowQueryEntries(w, ctx);
  out.reserve(entries.size());
  for (const auto& e : entries) out.push_back(e.pt);
  return out;
}

std::vector<PointEntry> RsmiIndex::WindowQueryEntries(
    const Rect& w, QueryContext& ctx) const {
  const auto [begin, end] = WindowBlockRange(w, ctx);
  std::vector<PointEntry> out;
  store_.ScanRange(begin, end, ctx, [&](const Block& blk) {
    for (const auto& e : blk.entries) {
      if (w.Contains(e.pt)) out.push_back(e);
    }
  });
  CollectBufferedInWindow(root_.get(), w, ctx, &out);
  return out;
}

void RsmiIndex::CollectBufferedInWindow(const Node* node, const Rect& w,
                                        QueryContext& ctx,
                                        std::vector<PointEntry>* out) const {
  if (cfg_.update_strategy != UpdateStrategy::kLeafBuffer) return;
  if (!node->mbr.Valid() || !node->mbr.Intersects(w)) return;
  if (node->leaf) {
    if (node->buffer.empty()) return;
    ctx.CountBlockAccess();  // one buffer page per leaf
    for (const auto& e : node->buffer) {
      if (w.Contains(e.pt)) out->push_back(e);
    }
    return;
  }
  for (const auto& child : node->children) {
    if (child != nullptr) CollectBufferedInWindow(child.get(), w, ctx, out);
  }
}

std::vector<Point> RsmiIndex::WindowQueryExact(const Rect& w,
                                               QueryContext& ctx) const {
  std::vector<Point> out;
  const auto entries = WindowQueryExactEntries(w, ctx);
  out.reserve(entries.size());
  for (const auto& e : entries) out.push_back(e.pt);
  return out;
}

std::vector<PointEntry> RsmiIndex::WindowQueryExactEntries(
    const Rect& w, QueryContext& ctx) const {
  // RSMIa: R-tree-style traversal over sub-model MBRs; at the leaf level,
  // per-block MBRs (stored with the leaf's page) prune block reads.
  std::vector<PointEntry> out;
  std::vector<const Node*> stack = {root_.get()};
  while (!stack.empty()) {
    const Node* node = stack.back();
    stack.pop_back();
    ctx.CountNodePage();  // reading this sub-model's page
    if (!node->leaf) {
      for (const auto& child : node->children) {
        if (child != nullptr && child->mbr.Intersects(w)) {
          stack.push_back(child.get());
        }
      }
      continue;
    }
    store_.ScanChainRaw(node->first_block,
                        node->first_block + node->num_blocks - 1,
                        [&](int id, const Block& blk) {
                          if (!blk.mbr.Intersects(w)) return false;
                          const Block& b = store_.Access(id, ctx);
                          for (const auto& e : b.entries) {
                            if (w.Contains(e.pt)) out.push_back(e);
                          }
                          return false;
                        });
    if (!node->buffer.empty()) {
      ctx.CountBlockAccess();
      for (const auto& e : node->buffer) {
        if (w.Contains(e.pt)) out.push_back(e);
      }
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// kNN queries (Algorithm 3)
// ---------------------------------------------------------------------------

std::vector<Point> RsmiIndex::KnnQuery(const Point& q, size_t k,
                                       QueryContext& ctx) const {
  // Buffered insertions (kLeafBuffer) live outside the block chain: each
  // round of Algorithm 3 pulls in the buffer of every not-yet-visited
  // leaf intersecting the search region.
  struct BufferWalker {
    const Rect& wq;
    const Point& q;
    KnnHeap& heap;
    QueryContext& ctx;
    std::unordered_set<const Node*>& seen;
    void Visit(const Node* node) {
      if (!node->mbr.Valid() || !node->mbr.Intersects(wq)) return;
      if (node->leaf) {
        if (node->buffer.empty() || !seen.insert(node).second) return;
        ctx.CountBlockAccess();
        for (const auto& e : node->buffer) {
          heap.Offer(SquaredDist(e.pt, q), e.pt);
        }
        return;
      }
      for (const auto& child : node->children) {
        if (child != nullptr) Visit(child.get());
      }
    }
  };
  std::unordered_set<const Node*> visited_buffers;
  return SearchRegionKnn(
      q, k, live_points_, pmf_x_, pmf_y_, cfg_.knn_delta, data_bounds_,
      store_, ctx, [&](const Rect& wq) { return WindowBlockRange(wq, ctx); },
      [&](const Rect& wq, KnnHeap& heap) {
        if (cfg_.update_strategy != UpdateStrategy::kLeafBuffer) return;
        BufferWalker{wq, q, heap, ctx, visited_buffers}.Visit(root_.get());
      });
}

std::vector<Point> RsmiIndex::KnnQueryExact(const Point& q, size_t k,
                                            QueryContext& ctx) const {
  if (k == 0 || live_points_ == 0) return {};
  KnnHeap result(k);

  // Best-first search [40] over sub-model MBRs and per-block MBRs.
  struct Cand {
    double d2;
    const Node* node;  // nullptr => data block
    int block_id;
  };
  struct CandGreater {
    bool operator()(const Cand& a, const Cand& b) const { return a.d2 > b.d2; }
  };
  std::priority_queue<Cand, std::vector<Cand>, CandGreater> pq;
  pq.push({root_->mbr.MinDist2(q), root_.get(), -1});

  while (!pq.empty()) {
    const Cand c = pq.top();
    pq.pop();
    if (result.Full() && c.d2 >= result.KthDist2()) break;
    if (c.node == nullptr) {
      const Block& b = store_.Access(c.block_id, ctx);
      for (const auto& e : b.entries) result.Offer(SquaredDist(e.pt, q), e.pt);
      continue;
    }
    ctx.CountNodePage();  // reading this sub-model's page
    if (c.node->leaf) {
      store_.ScanChainRaw(c.node->first_block,
                          c.node->first_block + c.node->num_blocks - 1,
                          [&](int id, const Block& blk) {
                            pq.push({blk.mbr.MinDist2(q), nullptr, id});
                            return false;
                          });
      if (!c.node->buffer.empty()) {
        ctx.CountBlockAccess();  // the leaf's buffer page
        for (const auto& e : c.node->buffer) {
          result.Offer(SquaredDist(e.pt, q), e.pt);
        }
      }
    } else {
      for (const auto& child : c.node->children) {
        if (child != nullptr) {
          pq.push({child->mbr.MinDist2(q), child.get(), -1});
        }
      }
    }
  }
  return result.Sorted();
}

// ---------------------------------------------------------------------------
// Updates (Section 5)
// ---------------------------------------------------------------------------

void RsmiIndex::InsertOne(const Point& p) {
  // Writes require exclusive access. The descent and block helpers they
  // share with the read path charge a context; a write's is local and
  // discarded (the paper's cost metric is per query).
  QueryContext ctx;
  std::vector<Node*> path;
  Node* leaf = DescendNearestMutable(p, &path, ctx);

  if (cfg_.update_strategy == UpdateStrategy::kLeafBuffer) {
    // FITing-tree-style buffering [14]: the new point goes into the
    // leaf's sorted buffer (one block access: the buffer page).
    ctx.CountBlockAccess();
    const PointEntry e{p, next_id_++};
    auto it = std::lower_bound(
        leaf->buffer.begin(), leaf->buffer.end(), e,
        [](const PointEntry& a, const PointEntry& b) {
          return LessByXThenY{}(a.pt, b.pt);
        });
    leaf->buffer.insert(it, e);
    for (Node* n : path) n->mbr.Expand(p);
    ++leaf->extra_points;
    ++live_points_;
    const int cap = cfg_.leaf_buffer_capacity > 0 ? cfg_.leaf_buffer_capacity
                                                  : cfg_.block_capacity;
    if (static_cast<int>(leaf->buffer.size()) >= cap) {
      MergeLeafBuffer(leaf, path);
    }
    return;
  }

  // Place into the predicted block if it has room; otherwise into its
  // overflow run, growing the run if everything is full (Section 5).
  const int placed =
      store_.BlockWithRoom(leaf->first_block + PredictLeafBlock(*leaf, p), ctx);
  Block& blk = store_.MutableBlock(placed);
  blk.entries.push_back(PointEntry{p, next_id_++});
  blk.mbr.Expand(p);
  for (Node* n : path) n->mbr.Expand(p);  // recursive MBR maintenance
  ++leaf->extra_points;
  ++live_points_;
}

void RsmiIndex::MergeLeafBuffer(Node* leaf, const std::vector<Node*>& path) {
  // Find the unique_ptr slot owning `leaf`: its parent is the second-to-
  // last path entry (the last is the leaf itself).
  std::unique_ptr<Node>* slot = &root_;
  if (path.size() >= 2) {
    Node* parent = path[path.size() - 2];
    slot = nullptr;
    for (auto& child : parent->children) {
      if (child.get() == leaf) {
        slot = &child;
        break;
      }
    }
  }
  if (slot == nullptr || slot->get() != leaf) return;  // defensive
  RebuildSubtree(slot, static_cast<int>(path.size()) - 1);
}

bool RsmiIndex::DeleteOne(const Point& p) {
  QueryContext ctx;
  std::vector<Node*> path;
  Node* leaf = DescendNearestMutable(p, &path, ctx);
  int found_id = -1;
  size_t found_pos = 0;
  if (FindEntry(*leaf, p, ctx, &found_id, &found_pos)) {
    // "Swap p with the last point in this block and mark it deleted": the
    // freed slot becomes reusable by later insertions. Blocks are never
    // deallocated on underflow, preserving the error-bound validity.
    Block& blk = store_.MutableBlock(found_id);
    blk.entries[found_pos] = blk.entries.back();
    blk.entries.pop_back();
    --live_points_;
    return true;
  }
  // The point may still sit in the leaf's insert buffer (kLeafBuffer).
  if (const PointEntry* e = FindInBuffer(*leaf, p, ctx)) {
    const size_t idx = static_cast<size_t>(e - leaf->buffer.data());
    leaf->buffer.erase(leaf->buffer.begin() + idx);
    --live_points_;
    return true;
  }
  return false;
}

// ---------------------------------------------------------------------------
// RSMIr periodic rebuild (Section 6.2.5)
// ---------------------------------------------------------------------------

void RsmiIndex::RebuildSubtree(std::unique_ptr<Node>* slot, int depth) {
  Node* leaf = slot->get();
  const int first = leaf->first_block;
  const int last_build = first + leaf->num_blocks - 1;
  // Extend past the trailing overflow run of the leaf's last block.
  int range_last = last_build;
  for (int nxt = store_.Peek(range_last).next;
       nxt >= 0 && store_.Peek(nxt).inserted; nxt = store_.Peek(nxt).next) {
    range_last = nxt;
  }
  // Collect the leaf's live points, including any buffered insertions
  // (the FITing-tree merge drains the buffer into the packed blocks).
  std::vector<PointEntry> pts;
  pts.reserve(leaf->built_points + leaf->extra_points);
  for (int cur = first;; cur = store_.Peek(cur).next) {
    const Block& b = store_.Peek(cur);
    pts.insert(pts.end(), b.entries.begin(), b.entries.end());
    if (cur == range_last) break;
  }
  pts.insert(pts.end(), leaf->buffer.begin(), leaf->buffer.end());
  const int before = store_.Peek(first).prev;
  const int after = store_.Peek(range_last).next;
  store_.UnlinkRange(first, range_last);
  // Rebuild; the fresh blocks land at the store tail, then get spliced
  // into the old range's chain position so global scans stay ordered.
  const int run_first = static_cast<int>(store_.NumBlocks());
  auto fresh = BuildNode(std::move(pts), depth);
  const int run_last = static_cast<int>(store_.NumBlocks()) - 1;
  if (run_last >= run_first) {
    store_.UnlinkRange(run_first, run_last);
    store_.SpliceRun(run_first, run_last, before, after);
  }
  *slot = std::move(fresh);
}

int RsmiIndex::RebuildWalk(Node* node, int depth) {
  int count = 0;
  for (auto& child : node->children) {
    if (child == nullptr) continue;
    if (child->leaf) {
      if (child->built_points + child->extra_points >
          static_cast<size_t>(cfg_.partition_threshold)) {
        RebuildSubtree(&child, depth + 1);
        ++count;
      }
    } else {
      count += RebuildWalk(child.get(), depth + 1);
    }
  }
  return count;
}

int RsmiIndex::RebuildOverflowingSubtrees() {
  if (root_->leaf) {
    if (root_->built_points + root_->extra_points >
        static_cast<size_t>(cfg_.partition_threshold)) {
      RebuildSubtree(&root_, 0);
      return 1;
    }
    return 0;
  }
  return RebuildWalk(root_.get(), 0);
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

namespace {

struct TreeStats {
  int height = 0;
  size_t models = 0;
  size_t bytes = 0;
  int max_err_below = 0;
  int max_err_above = 0;
};

}  // namespace

void RsmiIndex::CollectLeaves(const Node* node,
                              std::vector<const Node*>* out) const {
  if (node->leaf) {
    out->push_back(node);
    return;
  }
  for (const auto& child : node->children) {
    if (child != nullptr) CollectLeaves(child.get(), out);
  }
}

IndexStats RsmiIndex::Stats() const {
  IndexStats s;
  s.name = Name();
  s.num_points = live_points_;

  // Recursive walk (cheap relative to index size).
  struct Walker {
    static void Visit(const Node* node, int depth, TreeStats* ts) {
      ts->height = std::max(ts->height, depth + 1);
      ++ts->models;
      ts->bytes += node->model != nullptr ? node->model->SizeBytes() : 0;
      ts->bytes += sizeof(Node) + node->children.size() * sizeof(void*);
      ts->bytes += node->buffer.capacity() * sizeof(PointEntry);
      if (node->leaf) {
        ts->max_err_below = std::max(ts->max_err_below, node->err_below);
        ts->max_err_above = std::max(ts->max_err_above, node->err_above);
        return;
      }
      for (const auto& child : node->children) {
        if (child != nullptr) Visit(child.get(), depth + 1, ts);
      }
    }
  };
  TreeStats ts;
  Walker::Visit(root_.get(), 0, &ts);
  s.height = ts.height;
  s.num_models = ts.models;
  s.size_bytes = ts.bytes + store_.SizeBytes() + pmf_x_.SizeBytes() +
                 pmf_y_.SizeBytes();
  return s;
}

int RsmiIndex::MaxErrBelow() const {
  std::vector<const Node*> leaves;
  CollectLeaves(root_.get(), &leaves);
  int v = 0;
  for (const Node* l : leaves) v = std::max(v, l->err_below);
  return v;
}

int RsmiIndex::MaxErrAbove() const {
  std::vector<const Node*> leaves;
  CollectLeaves(root_.get(), &leaves);
  int v = 0;
  for (const Node* l : leaves) v = std::max(v, l->err_above);
  return v;
}

bool RsmiIndex::ValidateStructure(std::string* error) const {
  auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };

  // Block chain: symmetric prev/next links and strictly increasing seq.
  const int nblocks = static_cast<int>(store_.NumBlocks());
  for (int id = 0; id < nblocks; ++id) {
    const Block& b = store_.Peek(id);
    if (b.next >= 0) {
      if (b.next >= nblocks || store_.Peek(b.next).prev != id) {
        return fail("asymmetric chain link at block " + std::to_string(id));
      }
      if (store_.Peek(b.next).seq <= b.seq) {
        return fail("non-increasing seq at block " + std::to_string(id));
      }
    }
    if (b.prev >= 0 &&
        (b.prev >= nblocks || store_.Peek(b.prev).next != id)) {
      return fail("asymmetric prev link at block " + std::to_string(id));
    }
    if (static_cast<int>(b.entries.size()) > cfg_.block_capacity) {
      return fail("block " + std::to_string(id) + " over capacity");
    }
    for (const auto& e : b.entries) {
      if (!b.mbr.Contains(e.pt)) {
        return fail("entry outside block MBR in block " + std::to_string(id));
      }
    }
  }

  // Tree: recursive MBR containment, leaf block ranges, error bounds.
  struct Walker {
    const RsmiIndex* self;
    std::string why;
    bool Check(const Node* node) {
      if (node->leaf) {
        if (node->first_block < 0 ||
            node->first_block + node->num_blocks >
                static_cast<int>(self->store_.NumBlocks())) {
          why = "leaf block range out of bounds";
          return false;
        }
        if (node->err_below < 0 || node->err_above < 0) {
          why = "negative error bound";
          return false;
        }
        bool ok = true;
        self->store_.ScanChainRaw(
            node->first_block, node->first_block + node->num_blocks - 1,
            [&](int, const Block& b) {
              for (const auto& e : b.entries) {
                if (!node->mbr.Contains(e.pt)) {
                  why = "stored point outside leaf MBR";
                  ok = false;
                  return true;
                }
              }
              return false;
            });
        for (const auto& e : node->buffer) {
          if (!node->mbr.Contains(e.pt)) {
            why = "buffered point outside leaf MBR";
            return false;
          }
        }
        return ok;
      }
      if (node->model == nullptr) {
        why = "internal node without model";
        return false;
      }
      for (const auto& child : node->children) {
        if (child == nullptr) continue;
        if (child->mbr.Valid() && !node->mbr.ContainsRect(child->mbr)) {
          why = "child MBR escapes parent MBR";
          return false;
        }
        if (!Check(child.get())) return false;
      }
      return true;
    }
  };
  Walker walker{this, {}};
  if (!walker.Check(root_.get())) return fail(walker.why);
  return true;
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

void RsmiIndex::WriteNode(Serializer& out, const Node& node) const {
  out.WritePod(node.leaf);
  out.WritePod(node.mbr);
  out.WritePod(node.norm_lo_x);
  out.WritePod(node.norm_lo_y);
  out.WritePod(node.norm_span_x);
  out.WritePod(node.norm_span_y);
  out.WritePod(node.grid_order);
  out.WritePod(node.first_block);
  out.WritePod(node.num_blocks);
  out.WritePod(node.err_below);
  out.WritePod(node.err_above);
  out.WritePod(node.built_points);
  out.WritePod(node.extra_points);
  out.WriteVec(node.buffer);
  const bool has_model = node.model != nullptr;
  out.WritePod(has_model);
  if (has_model) node.model->WriteTo(out);
  out.WritePod<uint32_t>(static_cast<uint32_t>(node.children.size()));
  for (const auto& child : node.children) {
    const bool present = child != nullptr;
    out.WritePod(present);
    if (present) WriteNode(out, *child);
  }
}

std::unique_ptr<RsmiIndex::Node> RsmiIndex::ReadNode(Deserializer& in,
                                                     int depth) {
  // A corrupted file cannot be allowed to recurse without bound; real
  // RSMI trees are a handful of levels deep.
  if (depth > 64) {
    in.Fail("RSMI model tree deeper than any valid tree");
    return nullptr;
  }
  auto node = std::make_unique<Node>();
  if (!in.ReadPod(&node->leaf) || !in.ReadPod(&node->mbr) ||
      !in.ReadPod(&node->norm_lo_x) || !in.ReadPod(&node->norm_lo_y) ||
      !in.ReadPod(&node->norm_span_x) || !in.ReadPod(&node->norm_span_y) ||
      !in.ReadPod(&node->grid_order) || !in.ReadPod(&node->first_block) ||
      !in.ReadPod(&node->num_blocks) || !in.ReadPod(&node->err_below) ||
      !in.ReadPod(&node->err_above) || !in.ReadPod(&node->built_points) ||
      !in.ReadPod(&node->extra_points) || !in.ReadVec(&node->buffer)) {
    return nullptr;
  }
  bool has_model = false;
  if (!in.ReadPod(&has_model)) return nullptr;
  if (has_model) {
    Mlp model(1, 1);
    if (!Mlp::ReadFrom(in, &model)) return nullptr;
    node->model = std::make_unique<Mlp>(std::move(model));
  }
  uint32_t nchildren = 0;
  if (!in.ReadPod(&nchildren)) return nullptr;
  // Each present child costs at least its presence byte.
  if (nchildren > in.remaining()) {
    in.Fail("node child count exceeds remaining data");
    return nullptr;
  }
  node->children.resize(nchildren);
  for (uint32_t i = 0; i < nchildren; ++i) {
    bool present = false;
    if (!in.ReadPod(&present)) return nullptr;
    if (present) {
      node->children[i] = ReadNode(in, depth + 1);
      if (node->children[i] == nullptr) return nullptr;
    }
  }
  return node;
}

namespace {

/// RsmiConfig with deterministic padding (see PaddingZeroed in nn/mlp.h:
/// WritePod persists raw bytes, and the holes after `block_capacity` and
/// inside `train` must not leak stack garbage into the file).
RsmiConfig PaddingZeroed(const RsmiConfig& c) {
  RsmiConfig out;
  std::memset(static_cast<void*>(&out), 0, sizeof(out));
  out.block_capacity = c.block_capacity;
  out.build_fill_factor = c.build_fill_factor;
  out.update_strategy = c.update_strategy;
  out.leaf_buffer_capacity = c.leaf_buffer_capacity;
  out.partition_threshold = c.partition_threshold;
  out.curve = c.curve;
  out.train = PaddingZeroed(c.train);
  out.model_init_scale = c.model_init_scale;
  out.internal_sample_cap = c.internal_sample_cap;
  out.pmf_partitions = c.pmf_partitions;
  out.knn_delta = c.knn_delta;
  out.max_depth = c.max_depth;
  out.build_threads = c.build_threads;
  out.seed = c.seed;
  return out;
}

}  // namespace

bool RsmiIndex::SaveTo(Serializer& out) const {
  out.WritePod(PaddingZeroed(cfg_));
  out.WritePod(data_bounds_);
  out.WritePod(live_points_);
  out.WritePod(next_id_);
  out.WritePod(model_seed_counter_);
  pmf_x_.WriteTo(out);
  pmf_y_.WriteTo(out);
  store_.WriteTo(out);
  WriteNode(out, *root_);
  return true;
}

bool RsmiIndex::LoadFrom(Deserializer& in) {
  if (!in.ReadPod(&cfg_) || !in.ReadPod(&data_bounds_) ||
      !in.ReadPod(&live_points_) || !in.ReadPod(&next_id_) ||
      !in.ReadPod(&model_seed_counter_) || !pmf_x_.ReadFrom(in) ||
      !pmf_y_.ReadFrom(in) || !store_.ReadFrom(in)) {
    return false;
  }
  root_ = ReadNode(in, 0);
  if (root_ == nullptr) {
    return in.Fail("RSMI model tree is malformed");
  }
  // Leaf block ranges index the store: reject out-of-range references so
  // a CRC-valid crafted payload cannot plant an OOB block scan (chain
  // pointers inside the store are validated by BlockStore::ReadFrom).
  const int nb = static_cast<int>(store_.NumBlocks());
  struct RangeCheck {
    static bool Ok(const Node& n, int nb) {
      if (n.leaf && (n.first_block < 0 || n.num_blocks < 0 ||
                     n.first_block > nb || n.num_blocks > nb - n.first_block)) {
        return false;
      }
      for (const auto& c : n.children) {
        if (c != nullptr && !Ok(*c, nb)) return false;
      }
      return true;
    }
  };
  if (!RangeCheck::Ok(*root_, nb)) {
    return in.Fail("RSMI leaf block range out of store bounds");
  }
  return true;
}

}  // namespace rsmi
