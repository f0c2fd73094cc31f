#include "baselines/zm_index.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <queue>
#include <unordered_set>

#include "io/serializer.h"
#include "nn/inference_engine.h"
#include "sfc/z_curve.h"

namespace rsmi {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

int Clamp(int v, int lo, int hi) { return std::max(lo, std::min(hi, v)); }

}  // namespace

ZmIndex::ZmIndex(const std::vector<Point>& pts, const ZmConfig& cfg)
    : cfg_(cfg), store_(cfg.block_capacity) {
  n_build_ = pts.size();
  live_points_ = pts.size();
  next_id_ = static_cast<int64_t>(pts.size());

  data_bounds_ = Rect::Bound(pts.begin(), pts.end());
  if (!data_bounds_.Valid()) data_bounds_ = Rect::UnitSquare();
  span_x_ = std::max(1e-12, data_bounds_.hi.x - data_bounds_.lo.x);
  span_y_ = std::max(1e-12, data_bounds_.hi.y - data_bounds_.lo.y);

  {
    std::vector<double> xs(pts.size());
    std::vector<double> ys(pts.size());
    for (size_t i = 0; i < pts.size(); ++i) {
      xs[i] = pts[i].x;
      ys[i] = pts[i].y;
    }
    pmf_x_ = Pmf(std::move(xs), cfg_.pmf_partitions);
    pmf_y_ = Pmf(std::move(ys), cfg_.pmf_partitions);
  }

  // Sort by Z-value (stable ties by coordinates for determinism).
  const size_t n = pts.size();
  std::vector<uint64_t> zv(n);
  for (size_t i = 0; i < n; ++i) zv[i] = ZValue(pts[i]);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    if (zv[a] != zv[b]) return zv[a] < zv[b];
    return LessByXThenY{}(pts[a], pts[b]);
  });

  // Pack every B points into a block in Z order (block Z-ranges recorded
  // for the query-time binary search).
  const int B = cfg_.block_capacity;
  num_build_blocks_ =
      n == 0 ? 1 : static_cast<int>((n + B - 1) / B);
  for (int b = 0; b < num_build_blocks_; ++b) {
    const int id = store_.Alloc();
    Block& blk = store_.MutableBlock(id);
    const size_t lo = static_cast<size_t>(b) * B;
    const size_t hi = std::min(n, lo + B);
    blk.entries.reserve(B);
    for (size_t t = lo; t < hi; ++t) {
      const size_t i = order[t];
      blk.entries.push_back(PointEntry{pts[i], static_cast<int64_t>(i)});
      blk.mbr.Expand(pts[i]);
    }
    if (hi > lo) {
      blk.cv_lo = zv[order[lo]];
      blk.cv_hi = zv[order[hi - 1]];
    }
  }
  if (n == 0) return;

  // --- Three-level RMI over (normalized Z-value -> normalized rank) ---
  // Level sizes: 1, sqrt(n)/B, n/B^2 (Section 6.1).
  const size_t m1 = std::max<size_t>(
      1, static_cast<size_t>(std::sqrt(static_cast<double>(n)) / B));
  const size_t m2 = std::max<size_t>(1, n / (static_cast<size_t>(B) * B));
  mid_.resize(m1);
  leaves_.resize(m2);

  std::vector<double> z_norm(n);
  std::vector<double> rank_norm(n);
  for (size_t t = 0; t < n; ++t) {
    z_norm[t] = NormZ(zv[order[t]]);
    rank_norm[t] = n == 1 ? 0.0 : static_cast<double>(t) / (n - 1);
  }

  MlpTrainConfig tc = cfg_.train;

  // Level 0.
  root_ = std::make_unique<Mlp>(1, cfg_.hidden_internal, cfg_.seed);
  tc.seed = cfg_.seed + 1;
  tc.max_samples = cfg_.sample_cap;
  root_->Train(z_norm, rank_norm, tc);

  // Level 1: bucket by the parent's predicted rank (RMI semantics [26]).
  std::vector<std::vector<size_t>> buckets1(m1);
  for (size_t t = 0; t < n; ++t) {
    const double pred = root_->Predict1(z_norm[t]);
    const size_t b = std::min<size_t>(
        m1 - 1,
        static_cast<size_t>(std::max(0.0, pred) * static_cast<double>(m1)));
    buckets1[b].push_back(t);
  }
  std::vector<std::vector<size_t>> buckets2(m2);
  for (size_t b = 0; b < m1; ++b) {
    mid_[b] = std::make_unique<Mlp>(1, cfg_.hidden_internal,
                                    cfg_.seed + 100 + b);
    if (!buckets1[b].empty()) {
      std::vector<double> x;
      std::vector<double> y;
      x.reserve(buckets1[b].size());
      y.reserve(buckets1[b].size());
      for (size_t t : buckets1[b]) {
        x.push_back(z_norm[t]);
        y.push_back(rank_norm[t]);
      }
      tc.seed = cfg_.seed + 200 + b;
      mid_[b]->Train(x, y, tc);
    }
    for (size_t t : buckets1[b]) {
      const double pred = mid_[b]->Predict1(z_norm[t]);
      const size_t c = std::min<size_t>(
          m2 - 1,
          static_cast<size_t>(std::max(0.0, pred) * static_cast<double>(m2)));
      buckets2[c].push_back(t);
    }
  }

  // Level 2 (leaf models): predict the rank; record error bounds in
  // blocks (Eqs. 4-5 applied to the ZM).
  tc.max_samples = 0;
  for (size_t c = 0; c < m2; ++c) {
    leaves_[c].model =
        std::make_unique<Mlp>(1, cfg_.hidden_leaf, cfg_.seed + 300 + c);
    if (buckets2[c].empty()) continue;
    std::vector<double> x;
    std::vector<double> y;
    x.reserve(buckets2[c].size());
    y.reserve(buckets2[c].size());
    for (size_t t : buckets2[c]) {
      x.push_back(z_norm[t]);
      y.push_back(rank_norm[t]);
    }
    tc.seed = cfg_.seed + 400 + c;
    leaves_[c].model->Train(x, y, tc);
    leaves_[c].trained = true;
    for (size_t t : buckets2[c]) {
      const double pred = leaves_[c].model->Predict1(z_norm[t]);
      const int pred_blk = Clamp(
          static_cast<int>(pred * static_cast<double>(n - 1)) / B, 0,
          num_build_blocks_ - 1);
      const int true_blk = static_cast<int>(t) / B;
      const int diff = pred_blk - true_blk;
      leaves_[c].err_below = std::max(leaves_[c].err_below, diff);
      leaves_[c].err_above = std::max(leaves_[c].err_above, -diff);
    }
  }
}

uint64_t ZmIndex::ZValue(const Point& p) const {
  const double nx =
      std::min(1.0, std::max(0.0, (p.x - data_bounds_.lo.x) / span_x_));
  const double ny =
      std::min(1.0, std::max(0.0, (p.y - data_bounds_.lo.y) / span_y_));
  const uint32_t side = (1u << cfg_.z_bits) - 1;
  return ZEncode(static_cast<uint32_t>(nx * side),
                 static_cast<uint32_t>(ny * side), cfg_.z_bits);
}

double ZmIndex::NormZ(uint64_t z) const {
  const double zmax =
      std::pow(2.0, 2.0 * cfg_.z_bits) - 1.0;
  return static_cast<double>(z) / zmax;
}

ZmIndex::Prediction ZmIndex::PredictBlock(uint64_t z,
                                          QueryContext& ctx) const {
  Prediction out;
  if (n_build_ == 0 || root_ == nullptr) return out;
  // One three-level RMI descent (root, mid, leaf model).
  ctx.model_invocations += 3;
  ++ctx.descents;
  const double zn = NormZ(z);
  const double p0 = root_->Predict1(zn);
  const size_t b1 = std::min<size_t>(
      mid_.size() - 1,
      static_cast<size_t>(std::max(0.0, p0) * static_cast<double>(mid_.size())));
  const double p1 = mid_[b1]->Predict1(zn);
  const size_t b2 = std::min<size_t>(
      leaves_.size() - 1,
      static_cast<size_t>(std::max(0.0, p1) *
                          static_cast<double>(leaves_.size())));
  const LeafModel& lm = leaves_[b2];
  if (!lm.trained) {
    // Untrained bucket (no build points mapped here): be conservative and
    // allow the whole block range.
    out.block = num_build_blocks_ / 2;
    out.err_below = num_build_blocks_;
    out.err_above = num_build_blocks_;
    return out;
  }
  const double pred = lm.model->Predict1(zn);
  out.block = Clamp(
      static_cast<int>(std::max(0.0, pred) *
                       static_cast<double>(n_build_ - 1)) /
          cfg_.block_capacity,
      0, num_build_blocks_ - 1);
  out.err_below = lm.err_below;
  out.err_above = lm.err_above;
  return out;
}

void ZmIndex::PredictBlockBatch(const uint64_t* zs, size_t n,
                                QueryContext* ctxs, size_t ctx_stride,
                                Prediction* out) const {
  if (n == 0) return;
  if (n_build_ == 0 || root_ == nullptr) {
    std::fill(out, out + n, Prediction{});
    return;
  }
  if (n == 1) {
    out[0] = PredictBlock(zs[0], ctxs[0]);
    return;
  }
  // Chunked fused descent: each chunk fits the bucketing scratch in
  // cache. The width cannot affect results or charges (the engine is
  // bit-identical across batch sizes, charges are per Z-value).
  const size_t chunk = BatchDescentChunkWidth();
  if (n > chunk) {
    for (size_t s = 0; s < n; s += chunk) {
      const size_t c = std::min(chunk, n - s);
      PredictBlockBatch(zs + s, c, ctxs + s * ctx_stride, ctx_stride,
                        out + s);
    }
    return;
  }
  // Per-op charging: every Z-value costs the fixed three-level descent,
  // exactly the scalar PredictBlock charges.
  for (size_t i = 0; i < n; ++i) {
    QueryContext& ctx = ctxs[i * ctx_stride];
    ctx.model_invocations += 3;
    ++ctx.descents;
  }

  std::vector<double> zn(n);
  for (size_t i = 0; i < n; ++i) zn[i] = NormZ(zs[i]);

  // Level 0: one vectorized evaluation for the whole chunk, fused with
  // the mid-level bucketing (predict -> clamp -> bucket as one pass).
  const size_t m1 = mid_.size();
  const size_t m2 = leaves_.size();
  std::vector<double> pred(n);
  root_->PredictBatch(zn.data(), n, pred.data());
  std::vector<uint32_t> bucket(n);
  std::vector<uint32_t> counts(std::max(m1, m2) + 1, 0);
  for (size_t i = 0; i < n; ++i) {
    bucket[i] = static_cast<uint32_t>(std::min<size_t>(
        m1 - 1, static_cast<size_t>(std::max(0.0, pred[i]) *
                                    static_cast<double>(m1))));
    ++counts[bucket[i] + 1];
  }
  for (size_t b = 0; b < m1; ++b) counts[b + 1] += counts[b];

  // Level 1: stable counting-sort scatter groups the chunk by mid model
  // (replacing the former per-level stable sort); each group gets one
  // vectorized evaluation whose leaf buckets feed the next scatter.
  std::vector<uint32_t> perm(n);
  std::vector<uint32_t> perm2(n);
  for (size_t i = 0; i < n; ++i) perm[counts[bucket[i]]++] = i;
  std::vector<double> gx(n);
  std::vector<double> gp(n);
  // Post-scatter, counts[b] is bucket b's end (bucket 0 begins at 0).
  for (size_t b = 0, begin = 0; b < m1; begin = counts[b], ++b) {
    const size_t m = counts[b] - begin;
    if (m == 0) continue;
    for (size_t t = 0; t < m; ++t) gx[t] = zn[perm[begin + t]];
    mid_[b]->PredictBatch(gx.data(), m, gp.data());
    for (size_t t = 0; t < m; ++t) {
      bucket[perm[begin + t]] = static_cast<uint32_t>(std::min<size_t>(
          m2 - 1, static_cast<size_t>(std::max(0.0, gp[t]) *
                                      static_cast<double>(m2))));
    }
  }

  // Level 2: second scatter, then the leaf evaluations write the
  // predictions straight into `out`.
  counts.assign(m2 + 1, 0);
  for (size_t i = 0; i < n; ++i) ++counts[bucket[i] + 1];
  for (size_t c = 0; c < m2; ++c) counts[c + 1] += counts[c];
  for (size_t i = 0; i < n; ++i) perm2[counts[bucket[i]]++] = i;
  for (size_t c = 0, begin = 0; c < m2; begin = counts[c], ++c) {
    const size_t m = counts[c] - begin;
    if (m == 0) continue;
    const LeafModel& lm = leaves_[c];
    if (!lm.trained) {
      // Untrained bucket: conservative whole-range prediction, exactly
      // like the scalar path.
      Prediction p;
      p.block = num_build_blocks_ / 2;
      p.err_below = num_build_blocks_;
      p.err_above = num_build_blocks_;
      for (size_t t = 0; t < m; ++t) out[perm2[begin + t]] = p;
      continue;
    }
    for (size_t t = 0; t < m; ++t) gx[t] = zn[perm2[begin + t]];
    lm.model->PredictBatch(gx.data(), m, gp.data());
    for (size_t t = 0; t < m; ++t) {
      Prediction p;
      p.block = Clamp(static_cast<int>(std::max(0.0, gp[t]) *
                                       static_cast<double>(n_build_ - 1)) /
                          cfg_.block_capacity,
                      0, num_build_blocks_ - 1);
      p.err_below = lm.err_below;
      p.err_above = lm.err_above;
      out[perm2[begin + t]] = p;
    }
  }
}

std::optional<PointEntry> ZmIndex::PointQuery(const Point& q,
                                              QueryContext& ctx) const {
  if (n_build_ == 0 && !has_insertions_) return std::nullopt;
  const uint64_t zq = ZValue(q);
  const Prediction pred = PredictBlock(zq, ctx);
  return LookupWithPrediction(q, zq, pred, ctx);
}

void ZmIndex::PointQueryBatch(const Point* qs, size_t n, QueryContext* ctxs,
                              std::optional<PointEntry>* out) const {
  if (n == 0) return;
  if (n_build_ == 0 && !has_insertions_) {
    std::fill(out, out + n, std::nullopt);
    return;
  }
  std::vector<uint64_t> zs(n);
  for (size_t i = 0; i < n; ++i) zs[i] = ZValue(qs[i]);
  std::vector<Prediction> preds(n);
  PredictBlockBatch(zs.data(), n, ctxs, 1, preds.data());
  for (size_t i = 0; i < n; ++i) {
    out[i] = LookupWithPrediction(qs[i], zs[i], preds[i], ctxs[i]);
  }
}

std::optional<PointEntry> ZmIndex::LookupWithPrediction(
    const Point& q, uint64_t zq, const Prediction& pred,
    QueryContext& ctx) const {
  int lo = Clamp(pred.block - pred.err_below, 0, num_build_blocks_ - 1);
  int hi = Clamp(pred.block + pred.err_above, 0, num_build_blocks_ - 1);

  // Binary search over the per-block Z-ranges inside the error interval;
  // each probe reads one block (counted).
  int cand = -1;
  while (lo <= hi) {
    const int mid = lo + (hi - lo) / 2;
    const Block& b = store_.Access(mid, ctx);
    if (b.entries.empty() || zq < b.cv_lo) {
      hi = mid - 1;
    } else if (zq > b.cv_hi) {
      lo = mid + 1;
    } else {
      cand = mid;
      break;
    }
  }
  auto scan_run = [&](int start) -> std::optional<PointEntry> {
    // Scan the candidate block and the overflow run spliced after it.
    for (int cur = start; cur >= 0;) {
      const Block& b =
          cur == start ? store_.Peek(cur) : store_.Access(cur, ctx);
      for (const auto& e : b.entries) {
        if (SamePosition(e.pt, q)) return e;
      }
      const int nxt = b.next;
      if (nxt < 0 || !store_.Peek(nxt).inserted) break;
      cur = nxt;
    }
    return std::nullopt;
  };
  if (cand >= 0) {
    // Neighbor blocks may share the boundary Z-value or have had their
    // range expanded by insertions.
    for (int b = cand;
         b >= 0 && !store_.Peek(b).entries.empty() &&
         store_.Peek(b).cv_hi >= zq;
         --b) {
      if (b != cand) ctx.CountBlockAccess();
      if (auto r = scan_run(b)) return r;
      if (store_.Peek(b).cv_lo > zq) break;
    }
    for (int b = cand + 1;
         b < num_build_blocks_ && !store_.Peek(b).entries.empty() &&
         store_.Peek(b).cv_lo <= zq;
         ++b) {
      ctx.CountBlockAccess();
      if (auto r = scan_run(b)) return r;
    }
    if (!has_insertions_) return std::nullopt;
    // Fall through: an inserted point may live in a block whose original
    // Z-range does not cover zq (ranges expand non-monotonically).
  } else if (!has_insertions_) {
    return std::nullopt;  // Z-value gap: not indexed
  }
  // Insertions may have expanded block ranges non-monotonically; fall
  // back to a linear scan of the error interval (correctness first).
  const int flo = Clamp(pred.block - pred.err_below, 0, num_build_blocks_ - 1);
  const int fhi = Clamp(pred.block + pred.err_above, 0, num_build_blocks_ - 1);
  std::optional<PointEntry> found;
  store_.ScanRangeUntil(flo, fhi, ctx, [&](const Block& blk) {
    for (const auto& e : blk.entries) {
      if (SamePosition(e.pt, q)) {
        found = e;
        return true;
      }
    }
    return false;
  });
  return found;
}

std::pair<int, int> ZmIndex::WindowBlockRange(const Rect& w,
                                              QueryContext& ctx) const {
  // Z-curve: the window's min/max curve values are at the bottom-left and
  // top-right corners (Section 4.2). Both corners descend through the
  // batched path — the root (and usually the mid) model is shared, so
  // the pair costs one vectorized evaluation per level.
  const uint64_t zs[2] = {ZValue(w.lo), ZValue(w.hi)};
  Prediction p[2];
  PredictBlockBatch(zs, 2, &ctx, 0, p);
  const int begin =
      Clamp(p[0].block - p[0].err_below, 0, num_build_blocks_ - 1);
  const int end = Clamp(p[1].block + p[1].err_above, 0, num_build_blocks_ - 1);
  return {begin, std::max(begin, end)};
}

std::vector<Point> ZmIndex::WindowQuery(const Rect& w,
                                        QueryContext& ctx) const {
  if (n_build_ == 0 && !has_insertions_) return {};
  const auto [begin, end] = WindowBlockRange(w, ctx);
  std::vector<Point> out;
  store_.ScanRange(begin, end, ctx, [&](const Block& blk) {
    for (const auto& e : blk.entries) {
      if (w.Contains(e.pt)) out.push_back(e.pt);
    }
  });
  return out;
}

std::vector<Point> ZmIndex::KnnQuery(const Point& q, size_t k,
                                     QueryContext& ctx) const {
  // The paper: "ZM does not come with a kNN algorithm, so we use our kNN
  // algorithm for it" (Section 6.2.4) — Algorithm 3 on the ZM layout.
  if (k == 0 || live_points_ == 0) return {};
  const size_t reachable = std::min(k, live_points_);

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

  const double frac =
      std::sqrt(static_cast<double>(k) / static_cast<double>(live_points_));
  const double cap = 1.0 / std::max(1e-9, frac);
  const double ax = std::min(pmf_x_.SlopeAlpha(q.x, cfg_.knn_delta), cap);
  const double ay = std::min(pmf_y_.SlopeAlpha(q.y, cfg_.knn_delta), cap);
  double width = std::max(1e-9, ax * frac);
  double height = std::max(1e-9, ay * frac);

  std::unordered_set<int> visited;
  for (int round = 0; round < 64; ++round) {
    const Rect wq{{q.x - width / 2, q.y - height / 2},
                  {q.x + width / 2, q.y + height / 2}};
    const auto [begin, end] = WindowBlockRange(wq, ctx);
    store_.ScanChainRaw(begin, end, [&](int id, const Block& blk) {
      if (!visited.insert(id).second) return false;
      if (heap.size() >= k && blk.mbr.MinDist2(q) >= kth()) return false;
      const Block& b = store_.Access(id, ctx);
      for (const auto& e : b.entries) {
        const double d2 = SquaredDist(e.pt, q);
        if (heap.size() < k) {
          heap.emplace(d2, e.pt);
        } else if (d2 < heap.top().first) {
          heap.pop();
          heap.emplace(d2, e.pt);
        }
      }
      return false;
    });
    const bool exhausted = wq.ContainsRect(data_bounds_);
    if (heap.size() < reachable) {
      if (exhausted) break;
      width *= 2;
      height *= 2;
      continue;
    }
    const double kd = std::sqrt(kth());
    if (kd > std::sqrt(width * width + height * height) / 2) {
      if (exhausted) break;
      width = 2 * kd;
      height = 2 * kd;
      continue;
    }
    break;
  }
  std::vector<std::pair<double, Point>> tmp;
  while (!heap.empty()) {
    tmp.push_back(heap.top());
    heap.pop();
  }
  std::vector<Point> out(tmp.size());
  for (size_t i = 0; i < tmp.size(); ++i) out[tmp.size() - 1 - i] = tmp[i].second;
  return out;
}

void ZmIndex::InsertOne(const Point& p) {
  // Update handling adopted from RSMI (Section 6.2.5): place into the
  // predicted block, overflow into an inserted block spliced after it.
  QueryContext ctx;
  const uint64_t zp = ZValue(p);
  const Prediction pred = PredictBlock(zp, ctx);
  const int gid = Clamp(pred.block, 0, num_build_blocks_ - 1);
  int placed = -1;
  int last = gid;
  for (int cur = gid;;) {
    const Block& b = store_.Access(cur, ctx);
    if (static_cast<int>(b.entries.size()) < cfg_.block_capacity) {
      placed = cur;
      break;
    }
    last = cur;
    const int nxt = b.next;
    if (nxt < 0 || !store_.Peek(nxt).inserted) break;
    cur = nxt;
  }
  if (placed < 0) placed = store_.AllocInsertedAfter(last);
  Block& blk = store_.MutableBlock(placed);
  if (blk.entries.empty()) {
    blk.cv_lo = zp;
    blk.cv_hi = zp;
  } else {
    blk.cv_lo = std::min(blk.cv_lo, zp);
    blk.cv_hi = std::max(blk.cv_hi, zp);
  }
  blk.entries.push_back(PointEntry{p, next_id_++});
  blk.mbr.Expand(p);
  ++live_points_;
  has_insertions_ = true;
}

bool ZmIndex::DeleteOne(const Point& p) {
  QueryContext ctx;
  const uint64_t zp = ZValue(p);
  const Prediction pred = PredictBlock(zp, ctx);
  const int lo = Clamp(pred.block - pred.err_below, 0, num_build_blocks_ - 1);
  const int hi = Clamp(pred.block + pred.err_above, 0, num_build_blocks_ - 1);
  int found_id = -1;
  size_t found_pos = 0;
  store_.ScanChainRaw(lo, hi, [&](int id, const Block& b) {
    ctx.CountBlockAccess();
    for (size_t i = 0; i < b.entries.size(); ++i) {
      if (SamePosition(b.entries[i].pt, p)) {
        found_id = id;
        found_pos = i;
        return true;
      }
    }
    return false;
  });
  if (found_id < 0) return false;
  Block& blk = store_.MutableBlock(found_id);
  blk.entries[found_pos] = blk.entries.back();
  blk.entries.pop_back();
  --live_points_;
  return true;
}

IndexStats ZmIndex::Stats() const {
  IndexStats s;
  s.name = Name();
  s.num_points = live_points_;
  s.height = 3;
  s.num_models = 1 + mid_.size() + leaves_.size();
  size_t model_bytes = root_ != nullptr ? root_->SizeBytes() : 0;
  for (const auto& m : mid_) model_bytes += m->SizeBytes();
  for (const auto& l : leaves_) {
    model_bytes += l.model != nullptr ? l.model->SizeBytes() : 0;
  }
  s.size_bytes = model_bytes + store_.SizeBytes() + pmf_x_.SizeBytes() +
                 pmf_y_.SizeBytes();
  return s;
}

int ZmIndex::MaxErrBelow() const {
  int v = 0;
  for (const auto& l : leaves_) v = std::max(v, l.err_below);
  return v;
}

int ZmIndex::MaxErrAbove() const {
  int v = 0;
  for (const auto& l : leaves_) v = std::max(v, l.err_above);
  return v;
}

bool ZmIndex::ValidateStructure(std::string* error) const {
  auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  uint64_t prev_hi = 0;
  bool first = true;
  for (int id = 0; id < static_cast<int>(store_.NumBlocks()); ++id) {
    const Block& b = store_.Peek(id);
    if (b.entries.empty()) continue;
    if (b.inserted) continue;  // overflow blocks inherit no Z range
    if (b.cv_lo > b.cv_hi) {
      return fail("inverted Z range in block " + std::to_string(id));
    }
    // Insertions may widen a block's range past its neighbor's, so the
    // cross-block ordering is an invariant of the freshly built index
    // only; the per-entry containment below always holds.
    if (!has_insertions_ && !first && b.cv_lo < prev_hi) {
      return fail("Z ranges out of order at block " + std::to_string(id));
    }
    prev_hi = b.cv_hi;
    first = false;
    for (const auto& e : b.entries) {
      const uint64_t z = ZValue(e.pt);
      if (z < b.cv_lo || z > b.cv_hi) {
        return fail("entry Z-value outside block range in block " +
                    std::to_string(id));
      }
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

namespace {

void WriteOptionalMlp(Serializer& out, const std::unique_ptr<Mlp>& m) {
  out.WritePod(m != nullptr);
  if (m != nullptr) m->WriteTo(out);
}

bool ReadOptionalMlp(Deserializer& in, std::unique_ptr<Mlp>* m) {
  bool present = false;
  if (!in.ReadPod(&present)) return false;
  if (!present) {
    m->reset();
    return true;
  }
  Mlp model(1, 1);
  if (!Mlp::ReadFrom(in, &model)) return false;
  *m = std::make_unique<Mlp>(std::move(model));
  return true;
}

}  // namespace

namespace {

/// ZmConfig with deterministic padding (see PaddingZeroed in nn/mlp.h:
/// WritePod persists raw bytes, and the holes inside `train` must not
/// leak stack garbage into the file).
ZmConfig PaddingZeroed(const ZmConfig& c) {
  ZmConfig out;
  std::memset(static_cast<void*>(&out), 0, sizeof(out));
  out.block_capacity = c.block_capacity;
  out.z_bits = c.z_bits;
  out.train = PaddingZeroed(c.train);
  out.sample_cap = c.sample_cap;
  out.hidden_internal = c.hidden_internal;
  out.hidden_leaf = c.hidden_leaf;
  out.pmf_partitions = c.pmf_partitions;
  out.knn_delta = c.knn_delta;
  out.seed = c.seed;
  return out;
}

}  // namespace

bool ZmIndex::SaveTo(Serializer& out) const {
  out.WritePod(PaddingZeroed(cfg_));
  out.WritePod(data_bounds_);
  out.WritePod(span_x_);
  out.WritePod(span_y_);
  out.WritePod(num_build_blocks_);
  out.WritePod(n_build_);
  out.WritePod(live_points_);
  out.WritePod(next_id_);
  out.WritePod(has_insertions_);
  pmf_x_.WriteTo(out);
  pmf_y_.WriteTo(out);
  store_.WriteTo(out);
  WriteOptionalMlp(out, root_);
  out.WritePod<uint64_t>(mid_.size());
  for (const auto& m : mid_) WriteOptionalMlp(out, m);
  out.WritePod<uint64_t>(leaves_.size());
  for (const LeafModel& lm : leaves_) {
    WriteOptionalMlp(out, lm.model);
    out.WritePod(lm.err_below);
    out.WritePod(lm.err_above);
    out.WritePod(lm.trained);
  }
  return true;
}

bool ZmIndex::LoadFrom(Deserializer& in) {
  if (!in.ReadPod(&cfg_) || !in.ReadPod(&data_bounds_) ||
      !in.ReadPod(&span_x_) || !in.ReadPod(&span_y_) ||
      !in.ReadPod(&num_build_blocks_) || !in.ReadPod(&n_build_) ||
      !in.ReadPod(&live_points_) || !in.ReadPod(&next_id_) ||
      !in.ReadPod(&has_insertions_) || !pmf_x_.ReadFrom(in) ||
      !pmf_y_.ReadFrom(in) || !store_.ReadFrom(in) ||
      !ReadOptionalMlp(in, &root_)) {
    return false;
  }
  // Predictions are clamped into [0, num_build_blocks_-1] and then index
  // the store, and Z-values divide by the spans: reject crafted values
  // that would step outside the store or poison the float math.
  if (num_build_blocks_ < 1 ||
      num_build_blocks_ > static_cast<int>(store_.NumBlocks())) {
    return in.Fail("ZM build-block count out of store bounds");
  }
  if (!(span_x_ > 0.0) || !(span_y_ > 0.0) || !std::isfinite(span_x_) ||
      !std::isfinite(span_y_)) {
    return in.Fail("ZM spans are not positive finite");
  }
  uint64_t n_mid = 0;
  if (!in.ReadPod(&n_mid)) return false;
  if (n_mid > in.remaining()) {  // each model costs >= its presence byte
    return in.Fail("ZM mid-level model count exceeds remaining data");
  }
  mid_.resize(static_cast<size_t>(n_mid));
  for (auto& m : mid_) {
    if (!ReadOptionalMlp(in, &m)) return false;
  }
  uint64_t n_leaves = 0;
  if (!in.ReadPod(&n_leaves)) return false;
  if (n_leaves > in.remaining()) {
    return in.Fail("ZM leaf-model count exceeds remaining data");
  }
  leaves_.resize(static_cast<size_t>(n_leaves));
  for (LeafModel& lm : leaves_) {
    if (!ReadOptionalMlp(in, &lm.model) || !in.ReadPod(&lm.err_below) ||
        !in.ReadPod(&lm.err_above) || !in.ReadPod(&lm.trained)) {
      return false;
    }
  }
  // Shape invariants the builder guarantees and the query path divides
  // or indexes by: with build data there is a full three-level RMI whose
  // tables hold a model in every slot; without, all three levels are
  // absent. A crafted CRC-valid payload may not break either shape.
  if (cfg_.block_capacity < 1) {
    return in.Fail("ZM block capacity out of range");
  }
  const bool has_models = root_ != nullptr;
  if (has_models != (n_build_ > 0) || has_models == mid_.empty() ||
      has_models == leaves_.empty()) {
    return in.Fail("ZM model tables are inconsistent");
  }
  for (const auto& m : mid_) {
    if (m == nullptr) return in.Fail("ZM mid-level model slot is empty");
  }
  for (const LeafModel& lm : leaves_) {
    if (lm.model == nullptr) return in.Fail("ZM leaf-model slot is empty");
  }
  return true;
}

}  // namespace rsmi
