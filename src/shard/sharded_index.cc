#include "shard/sharded_index.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/group_by.h"
#include "common/parallel_for.h"
#include "io/index_container.h"
#include "io/serializer.h"
#include "obs/metrics.h"

namespace rsmi {
namespace {

// ---------------------------------------------------------------------------
// Observability (process-global registry, src/obs/). Only maintenance
// paths record — epoch publication, freezes, merges; the read path is
// untouched. References are resolved once per process.
// ---------------------------------------------------------------------------

Counter& EpochSwapCounter() {
  static Counter& c =
      MetricsRegistry::Global().GetCounter("shard.epoch_swaps");
  return c;
}

Histogram& FreezeDeltaOpsHistogram() {
  static Histogram& h =
      MetricsRegistry::Global().GetHistogram("shard.freeze_delta_ops");
  return h;
}

// ---------------------------------------------------------------------------
// Delta overlay composition. Layers are passed merging-first (the frozen
// layer sits between the base and the active delta); a null pointer
// means "layer absent or empty — no probe, no cost".
// ---------------------------------------------------------------------------

const DeltaBuffer* LayerOrNull(
    const std::shared_ptr<const DeltaBuffer>& d) {
  return (d != nullptr && !d->empty()) ? d.get() : nullptr;
}

/// Rewrites a base point-query result through the overlay layers.
/// Deletes recorded in a layer consume copies from beneath it (buffered
/// copies from lower layers first, the stored entry last); surviving
/// buffered copies surface with the sentinel id -1 — the real id is
/// assigned by the base structure when the delta merges. Each non-empty
/// layer probed charges one block access (the overlay is one in-memory
/// buffer page, like RSMI's leaf insert buffer).
void OverlayPointResult(const DeltaBuffer* mrg, const DeltaBuffer* act,
                        const Point& q, QueryContext& ctx,
                        std::optional<PointEntry>* r) {
  bool base_alive = r->has_value();
  uint32_t buffered = 0;
  for (const DeltaBuffer* layer : {mrg, act}) {
    if (layer == nullptr) continue;
    ctx.CountBlockAccess(1);
    const DeltaBuffer::Entry* e = layer->Find(q);
    if (e == nullptr) continue;
    uint32_t del = e->base_deletes;
    const uint32_t take = std::min(del, buffered);
    buffered -= take;
    del -= take;
    if (del > 0 && base_alive) base_alive = false;
    buffered += e->pending_inserts;
  }
  if (base_alive) return;  // the stored entry survives the overlay
  if (buffered > 0) {
    *r = PointEntry{q, -1};
  } else {
    r->reset();
  }
}

/// Applies one layer to a window result: drops positions whose below
/// copies the layer deleted, then adds the layer's pending inserts that
/// fall inside the window.
std::vector<Point> OverlayWindow(std::vector<Point> in,
                                 const DeltaBuffer* layer, const Rect& w,
                                 QueryContext& ctx) {
  if (layer == nullptr) return in;
  ctx.CountBlockAccess(1);
  std::vector<Point> out;
  out.reserve(in.size());
  for (const Point& p : in) {
    const DeltaBuffer::Entry* e = layer->Find(p);
    if (e != nullptr && e->base_deletes > 0) continue;
    out.push_back(p);
  }
  for (const DeltaBuffer::Entry& e : layer->entries()) {
    if (e.pending_inserts == 0) continue;
    if (!w.Contains(e.pt)) continue;
    out.push_back(e.pt);
  }
  return out;
}

std::vector<Point> EpochWindowQuery(const SpatialIndex& base,
                                    const DeltaBuffer* mrg,
                                    const DeltaBuffer* act, const Rect& w,
                                    QueryContext& ctx) {
  std::vector<Point> out = base.WindowQuery(w, ctx);
  out = OverlayWindow(std::move(out), mrg, w, ctx);
  out = OverlayWindow(std::move(out), act, w, ctx);
  return out;
}

std::vector<Point> EpochKnnQuery(const SpatialIndex& base,
                                 const DeltaBuffer* mrg,
                                 const DeltaBuffer* act, const Point& q,
                                 size_t k, QueryContext& ctx) {
  if (mrg == nullptr && act == nullptr) return base.KnnQuery(q, k, ctx);
  // Over-fetch by the number of buffered deletions so the overlay filter
  // cannot starve the result below k, then merge the buffered inserts in
  // by distance.
  const size_t extra = (mrg != nullptr ? mrg->TotalBaseDeletes() : 0) +
                       (act != nullptr ? act->TotalBaseDeletes() : 0);
  std::vector<Point> cand = base.KnnQuery(q, k + extra, ctx);
  if (mrg != nullptr) ctx.CountBlockAccess(1);
  if (act != nullptr) ctx.CountBlockAccess(1);
  const auto deleted_below = [&](const Point& p) {
    for (const DeltaBuffer* layer : {mrg, act}) {
      if (layer == nullptr) continue;
      const DeltaBuffer::Entry* e = layer->Find(p);
      if (e != nullptr && e->base_deletes > 0) return true;
    }
    return false;
  };
  std::vector<Point> vis;
  vis.reserve(cand.size());
  for (const Point& p : cand) {
    if (!deleted_below(p)) vis.push_back(p);
  }
  // Pending inserts are visible unless a layer above deleted them.
  const auto add_pending = [&vis](const DeltaBuffer* layer,
                                  const DeltaBuffer* above) {
    if (layer == nullptr) return;
    for (const DeltaBuffer::Entry& e : layer->entries()) {
      if (e.pending_inserts == 0) continue;
      if (above != nullptr) {
        const DeltaBuffer::Entry* ae = above->Find(e.pt);
        if (ae != nullptr && ae->base_deletes > 0) continue;
      }
      vis.push_back(e.pt);
    }
  };
  add_pending(mrg, act);
  add_pending(act, nullptr);
  std::sort(vis.begin(), vis.end(), [&q](const Point& a, const Point& b) {
    const double da = SquaredDist(a, q);
    const double db = SquaredDist(b, q);
    if (da != db) return da < db;
    if (a.x != b.x) return a.x < b.x;
    return a.y < b.y;
  });
  if (vis.size() > k) vis.resize(k);
  return vis;
}

}  // namespace

ShardedIndex::ShardedIndex(const std::vector<Point>& pts,
                           const ShardedIndexConfig& cfg,
                           const ShardBuilder& builder) {
  ShardPartitionerConfig pcfg = cfg.partition;
  pcfg.num_shards = cfg.num_shards;
  partitioner_ = ShardPartitioner(pts, pcfg);
  delta_merge_threshold_ = std::max<size_t>(cfg.delta_merge_threshold, 1);
  background_merge_ = cfg.background_merge;

  const size_t k = static_cast<size_t>(partitioner_.num_shards());
  std::vector<std::vector<Point>> parts(k);
  for (auto& part : parts) part.reserve(pts.size() / k + 1);
  for (const Point& p : pts) {
    parts[static_cast<size_t>(partitioner_.ShardOf(p))].push_back(p);
  }
  live_points_.store(pts.size(), std::memory_order_relaxed);

  // Parallel shard build: shards are fully independent (each builder
  // call sees only its own points), so any worker count yields the same
  // index — workers only change wall time. A builder that throws on a
  // worker throws to the caller, as it would on one thread.
  std::vector<std::unique_ptr<SpatialIndex>> built(k);
  ParallelFor(k, cfg.build_threads, [&](size_t i) {
    built[i] = builder(parts[i], static_cast<int>(i));
  });
  shards_.reserve(k);
  for (size_t i = 0; i < k; ++i) {
    if (built[i] == nullptr) {
      throw std::runtime_error("ShardedIndex: builder returned null shard");
    }
    auto epoch = std::make_shared<Epoch>();
    epoch->base = std::move(built[i]);
    epoch->delta = std::make_shared<DeltaBuffer>();
    epoch->region = Rect::Bound(parts[i].begin(), parts[i].end());
    auto shard = std::make_unique<Shard>();
    shard->epoch = std::move(epoch);
    shards_.push_back(std::move(shard));
  }
}

ShardedIndex::~ShardedIndex() { StopMaintenance(); }

std::string ShardedIndex::Name() const {
  return "Sharded<" + std::to_string(num_shards()) + ">[" +
         EpochOf(0)->base->Name() + "]";
}

std::string ShardedIndex::KindSpec() const {
  // Not persistable when the inner kind is not (e.g. sharded KDB).
  const std::string inner = EpochOf(0)->base->KindSpec();
  if (inner.empty()) return "";
  return "sharded<" + std::to_string(num_shards()) + ">:" + inner;
}

bool ShardedIndex::SupportsConcurrentUpdates() const {
  // Merging a frozen delta clones the shard base through the
  // persistence round-trip; an inner kind that cannot persist cannot be
  // cloned without blocking readers, so those stay writes-exclusive
  // (buffered requests degrade to immediate application).
  return !EpochOf(0)->base->KindSpec().empty();
}

size_t ShardedIndex::shard_delta_size(int i) const {
  const auto ep = EpochOf(static_cast<size_t>(i));
  return ep->delta->size() +
         (ep->merging != nullptr ? ep->merging->size() : 0);
}

std::optional<PointEntry> ShardedIndex::PointQuery(const Point& q,
                                                   QueryContext& ctx) const {
  const auto ep = EpochOf(static_cast<size_t>(partitioner_.ShardOf(q)));
  std::optional<PointEntry> r = ep->base->PointQuery(q, ctx);
  OverlayPointResult(LayerOrNull(ep->merging), LayerOrNull(ep->delta), q,
                     ctx, &r);
  return r;
}

void ShardedIndex::PointQueryBatch(const Point* qs, size_t n,
                                   QueryContext* ctxs,
                                   std::optional<PointEntry>* out) const {
  if (n == 0) return;
  if (num_shards() == 1) {
    const auto ep = EpochOf(0);
    ep->base->PointQueryBatch(qs, n, ctxs, out);
    const DeltaBuffer* mrg = LayerOrNull(ep->merging);
    const DeltaBuffer* act = LayerOrNull(ep->delta);
    if (mrg == nullptr && act == nullptr) return;
    for (size_t i = 0; i < n; ++i) {
      OverlayPointResult(mrg, act, qs[i], ctxs[i], &out[i]);
    }
    return;
  }
  std::vector<int> shard_of(n);
  for (size_t i = 0; i < n; ++i) {
    shard_of[i] = partitioner_.ShardOf(qs[i]);
  }
  // Regroup per shard so each inner index sees one contiguous batch and
  // its vectorized descent still batches shared sub-models. Each group's
  // contexts are gathered/scattered alongside its points so query i
  // still charges exactly ctxs[i].
  std::vector<uint32_t> scratch;
  std::vector<Point> gathered;
  std::vector<QueryContext> gathered_ctx;
  std::vector<std::optional<PointEntry>> results;
  ForEachGroupBy(
      n, &scratch,
      [&](uint32_t i) { return shard_of[i]; },
      [&](const uint32_t* idx, size_t m) {
        gathered.resize(m);
        results.resize(m);
        gathered_ctx.assign(m, QueryContext{});
        for (size_t j = 0; j < m; ++j) gathered[j] = qs[idx[j]];
        const auto ep = EpochOf(static_cast<size_t>(shard_of[idx[0]]));
        ep->base->PointQueryBatch(gathered.data(), m, gathered_ctx.data(),
                                  results.data());
        const DeltaBuffer* mrg = LayerOrNull(ep->merging);
        const DeltaBuffer* act = LayerOrNull(ep->delta);
        if (mrg != nullptr || act != nullptr) {
          for (size_t j = 0; j < m; ++j) {
            OverlayPointResult(mrg, act, gathered[j], gathered_ctx[j],
                               &results[j]);
          }
        }
        for (size_t j = 0; j < m; ++j) {
          out[idx[j]] = std::move(results[j]);
          ctxs[idx[j]].MergeFrom(gathered_ctx[j]);
        }
      });
}

std::vector<Point> ShardedIndex::WindowQuery(const Rect& w,
                                             QueryContext& ctx) const {
  // Snapshot every shard's epoch once: pruning and querying see the same
  // published state, and in-flight work survives concurrent publishes.
  std::vector<std::shared_ptr<const Epoch>> eps(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) eps[i] = EpochOf(i);
  if (num_shards() == 1) {
    return EpochWindowQuery(*eps[0]->base, LayerOrNull(eps[0]->merging),
                            LayerOrNull(eps[0]->delta), w, ctx);
  }
  // Fan out to the overlapping shards only: a shard's region bounds all
  // of its points (buffered inserts included), so non-intersecting
  // shards cannot contribute.
  std::vector<Point> out;
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (!eps[i]->region.Valid() || !eps[i]->region.Intersects(w)) continue;
    const std::vector<Point> part =
        EpochWindowQuery(*eps[i]->base, LayerOrNull(eps[i]->merging),
                         LayerOrNull(eps[i]->delta), w, ctx);
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

std::vector<Point> ShardedIndex::KnnQuery(const Point& q, size_t k,
                                          QueryContext& ctx) const {
  std::vector<std::shared_ptr<const Epoch>> eps(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) eps[i] = EpochOf(i);
  if (num_shards() == 1) {
    return EpochKnnQuery(*eps[0]->base, LayerOrNull(eps[0]->merging),
                         LayerOrNull(eps[0]->delta), q, k, ctx);
  }
  if (k == 0) return {};

  // Visit shards best-first by region distance; the shared result heap
  // (the k best candidates so far, worst on top) bounds the search — a
  // shard whose region is farther than the current k-th distance cannot
  // improve the result, and neither can any shard after it.
  struct ShardDist {
    double d2;
    size_t shard;
  };
  std::vector<ShardDist> order;
  order.reserve(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (!eps[i]->region.Valid()) continue;
    order.push_back(ShardDist{eps[i]->region.MinDist2(q), i});
  }
  std::sort(order.begin(), order.end(),
            [](const ShardDist& a, const ShardDist& b) {
              if (a.d2 != b.d2) return a.d2 < b.d2;
              return a.shard < b.shard;
            });

  struct Cand {
    double d2;
    Point pt;
  };
  const auto farther = [](const Cand& a, const Cand& b) {
    if (a.d2 != b.d2) return a.d2 < b.d2;
    if (a.pt.x != b.pt.x) return a.pt.x < b.pt.x;
    return a.pt.y < b.pt.y;
  };
  std::vector<Cand> heap;  // max-heap under `farther`
  heap.reserve(k + 1);
  for (const ShardDist& sd : order) {
    if (heap.size() == k && sd.d2 > heap.front().d2) break;
    const size_t i = sd.shard;
    const std::vector<Point> cand =
        EpochKnnQuery(*eps[i]->base, LayerOrNull(eps[i]->merging),
                      LayerOrNull(eps[i]->delta), q, k, ctx);
    for (const Point& p : cand) {
      const Cand c{SquaredDist(p, q), p};
      if (heap.size() < k) {
        heap.push_back(c);
        std::push_heap(heap.begin(), heap.end(), farther);
      } else if (farther(c, heap.front())) {
        std::pop_heap(heap.begin(), heap.end(), farther);
        heap.back() = c;
        std::push_heap(heap.begin(), heap.end(), farther);
      }
    }
  }
  std::sort(heap.begin(), heap.end(), farther);
  std::vector<Point> out;
  out.reserve(heap.size());
  for (const Cand& c : heap) out.push_back(c.pt);
  return out;
}

// ---------------------------------------------------------------------------
// Mutations
// ---------------------------------------------------------------------------

void ShardedIndex::InsertOne(const Point& p) {
  UpdateBatch b;
  b.Insert(p);
  DoApplyUpdates(b, WriteOptions{});
}

bool ShardedIndex::DeleteOne(const Point& p) {
  UpdateBatch b;
  b.Delete(p);
  return DoApplyUpdates(b, WriteOptions{}).delete_misses == 0;
}

UpdateResult ShardedIndex::DoApplyUpdates(const UpdateBatch& batch,
                                          const WriteOptions& opts) {
  UpdateResult r;
  if (batch.empty()) return r;
  const bool buffered = opts.buffered && SupportsConcurrentUpdates();
  // Route every op to its owning shard. Per-shard arrival order is
  // preserved (stable grouping); cross-shard interleaving is immaterial
  // because shards hold disjoint positions.
  std::vector<std::vector<UpdateOp>> per(shards_.size());
  for (const UpdateOp& op : batch.ops) {
    per[static_cast<size_t>(partitioner_.ShardOf(op.pt))].push_back(op);
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (per[s].empty()) continue;
    if (buffered) {
      bool schedule = false;
      r.MergeFrom(BufferOps(s, per[s], &schedule));
      if (schedule) {
        ++r.merges_triggered;
        if (background_merge_) {
          ScheduleMerge(s);
        } else {
          MergeFrozen(s);
        }
      }
    } else {
      r.MergeFrom(ApplyImmediate(s, per[s]));
    }
  }
  return r;
}

UpdateResult ShardedIndex::BufferOps(size_t s,
                                     const std::vector<UpdateOp>& ops,
                                     bool* schedule) {
  *schedule = false;
  Shard& sh = *shards_[s];
  std::lock_guard<std::mutex> wl(sh.write_mu);
  const auto ep = EpochOf(s);
  // Copy-on-write: readers keep running on the published delta while
  // this writer appends into a private copy.
  auto delta = std::make_shared<DeltaBuffer>(*ep->delta);
  Rect region = ep->region;
  const DeltaBuffer* mrg = LayerOrNull(ep->merging);
  // Existence beneath the active layer (frozen overlay over base):
  // AppendDelete uses it so a missed delete stays an exact no-op and a
  // buffered base deletion is recorded at most once per stored point.
  const auto below_contains = [&](const Point& p) {
    if (mrg != nullptr) {
      const DeltaBuffer::Entry* e = mrg->Find(p);
      if (e != nullptr && e->pending_inserts > 0) return true;
      if (e != nullptr && e->base_deletes > 0) return false;
    }
    QueryContext probe;  // writer-side probe; charged to no reader
    return ep->base->PointQuery(p, probe).has_value();
  };
  UpdateResult r;
  for (const UpdateOp& op : ops) {
    if (op.kind == UpdateOp::Kind::kInsert) {
      delta->AppendInsert(op.pt);
      region.Expand(op.pt);
      live_points_.fetch_add(1, std::memory_order_relaxed);
      ++r.applied_inserts;
      ++r.buffered_ops;
    } else if (delta->AppendDelete(op.pt, below_contains)) {
      live_points_.fetch_sub(1, std::memory_order_relaxed);
      ++r.applied_deletes;
      ++r.buffered_ops;
    } else {
      ++r.delete_misses;
    }
  }
  auto next = std::make_shared<Epoch>();
  next->base = ep->base;
  next->merging = ep->merging;
  next->region = region;
  if (delta->size() >= delta_merge_threshold_ && ep->merging == nullptr) {
    // Freeze: the grown delta becomes the merging layer, writers start a
    // fresh active buffer, and the caller arranges the merge.
    FreezeDeltaOpsHistogram().Observe(delta->size());
    next->merging = std::move(delta);
    next->delta = std::make_shared<DeltaBuffer>();
    *schedule = true;
  } else {
    next->delta = std::move(delta);
  }
  PublishEpoch(s, std::move(next));
  EpochSwapCounter().Add();
  return r;
}

UpdateResult ShardedIndex::ApplyImmediate(size_t s,
                                          const std::vector<UpdateOp>& ops) {
  // Exclusive access by contract. A shard with buffered ops is drained
  // first so these ops land behind them in arrival order — on a clean
  // shard this path mutates the base in place, byte-for-byte the
  // pre-epoch behavior.
  {
    const auto ep = EpochOf(s);
    if (ep->merging != nullptr || !ep->delta->empty()) DrainShard(s);
  }
  const auto ep = EpochOf(s);
  UpdateResult r;
  Rect region = ep->region;
  for (const UpdateOp& op : ops) {
    if (op.kind == UpdateOp::Kind::kInsert) {
      ep->base->Insert(op.pt);
      region.Expand(op.pt);
      live_points_.fetch_add(1, std::memory_order_relaxed);
      ++r.applied_inserts;
    } else if (ep->base->Delete(op.pt)) {
      live_points_.fetch_sub(1, std::memory_order_relaxed);
      ++r.applied_deletes;
    } else {
      ++r.delete_misses;
    }
  }
  auto next = std::make_shared<Epoch>(*ep);
  next->region = region;
  PublishEpoch(s, std::move(next));
  EpochSwapCounter().Add();
  return r;
}

// ---------------------------------------------------------------------------
// Maintenance: freezing, merging, fencing
// ---------------------------------------------------------------------------

void ShardedIndex::MergeFrozen(size_t s) {
  Shard& sh = *shards_[s];
  // One merge per shard at a time (background thread vs. fence); the
  // expensive clone+replay below runs with no writer lock held, so
  // writers keep appending to the active delta meanwhile.
  std::lock_guard<std::mutex> ml(sh.merge_mu);
  const auto ep = EpochOf(s);
  if (ep->merging == nullptr) return;
  const auto merge_start = std::chrono::steady_clock::now();

  // Clone the base through the persistence round-trip (bit-identical by
  // the container contract), then replay the frozen log sequentially —
  // the merged shard is exactly what immediate application would have
  // produced.
  Serializer buf;
  if (!WriteIndexContainer(buf, *ep->base)) {
    throw std::runtime_error("ShardedIndex: shard base failed to serialize");
  }
  Deserializer in(buf.buffer());
  std::string why;
  std::unique_ptr<SpatialIndex> clone = ReadIndexContainer(in, &why);
  if (clone == nullptr) {
    throw std::runtime_error("ShardedIndex: shard clone failed: " + why);
  }
  UpdateBatch replay;
  replay.ops = ep->merging->log();
  clone->ApplyUpdates(replay, WriteOptions{});  // private copy: immediate
  std::shared_ptr<SpatialIndex> merged = std::move(clone);

  bool refreeze = false;
  {
    std::lock_guard<std::mutex> wl(sh.write_mu);
    const auto cur = EpochOf(s);  // may hold a newer active delta
    auto next = std::make_shared<Epoch>();
    next->base = merged;
    next->delta = cur->delta;
    next->merging = nullptr;
    next->region = cur->region;
    if (next->delta->size() >= delta_merge_threshold_) {
      // The active delta outgrew the threshold while this merge ran.
      FreezeDeltaOpsHistogram().Observe(next->delta->size());
      next->merging = next->delta;
      next->delta = std::make_shared<DeltaBuffer>();
      refreeze = true;
    }
    PublishEpoch(s, std::move(next));
    EpochSwapCounter().Add();
    // Readers on the old epoch finish on the old base; the last epoch
    // reference dropping frees it.
  }
  {
    static Counter& merges =
        MetricsRegistry::Global().GetCounter("shard.merges");
    static Counter& replayed =
        MetricsRegistry::Global().GetCounter("shard.replayed_ops");
    static Histogram& merge_us =
        MetricsRegistry::Global().GetHistogram("shard.merge_us");
    merges.Add();
    replayed.Add(replay.ops.size());
    merge_us.Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - merge_start)
            .count()));
  }
  if (refreeze && background_merge_) ScheduleMerge(s);
}

void ShardedIndex::DrainShard(size_t s) {
  Shard& sh = *shards_[s];
  for (;;) {
    MergeFrozen(s);
    std::lock_guard<std::mutex> wl(sh.write_mu);
    const auto ep = EpochOf(s);
    if (ep->merging != nullptr) continue;  // froze again — merge it
    if (ep->delta->empty()) return;        // clean
    FreezeDeltaOpsHistogram().Observe(ep->delta->size());
    auto next = std::make_shared<Epoch>(*ep);
    next->merging = ep->delta;
    next->delta = std::make_shared<DeltaBuffer>();
    PublishEpoch(s, std::move(next));
    EpochSwapCounter().Add();
  }
}

void ShardedIndex::FlushUpdates() {
  for (size_t s = 0; s < shards_.size(); ++s) DrainShard(s);
}

void ShardedIndex::ScheduleMerge(size_t s) {
  std::lock_guard<std::mutex> lk(maint_mu_);
  if (maint_stop_) return;
  if (maint_pending_.empty()) maint_pending_.assign(shards_.size(), 0);
  if (maint_pending_[s] != 0) return;
  maint_pending_[s] = 1;
  maint_queue_.push_back(s);
  if (!maint_thread_.joinable()) {
    maint_thread_ = std::thread([this] { MaintenanceLoop(); });
  }
  maint_cv_.notify_one();
}

void ShardedIndex::MaintenanceLoop() {
  for (;;) {
    size_t s = 0;
    {
      std::unique_lock<std::mutex> lk(maint_mu_);
      maint_cv_.wait(lk, [this] {
        return maint_stop_ || !maint_queue_.empty();
      });
      if (maint_stop_) return;
      s = maint_queue_.front();
      maint_queue_.pop_front();
      maint_pending_[s] = 0;
    }
    try {
      MergeFrozen(s);
    } catch (...) {
      // Leave the frozen layer in place: reads stay correct through the
      // overlay, and the next FlushUpdates retries (and surfaces the
      // error) on the caller's thread.
    }
  }
}

void ShardedIndex::StopMaintenance() {
  {
    std::lock_guard<std::mutex> lk(maint_mu_);
    maint_stop_ = true;
  }
  maint_cv_.notify_all();
  if (maint_thread_.joinable()) maint_thread_.join();
}

IndexStats ShardedIndex::Stats() const {
  IndexStats s;
  s.name = Name();
  s.num_points = live_points_.load(std::memory_order_relaxed);
  s.size_bytes = DirectoryBytes();
  for (size_t i = 0; i < shards_.size(); ++i) {
    const auto ep = EpochOf(i);
    const IndexStats inner = ep->base->Stats();
    s.size_bytes += inner.size_bytes;
    s.num_models += inner.num_models;
    s.height = std::max(s.height, inner.height);
    for (const DeltaBuffer* d : {ep->delta.get(), ep->merging.get()}) {
      if (d == nullptr) continue;
      s.size_bytes += d->log().size() * sizeof(UpdateOp) +
                      d->entries().size() * sizeof(DeltaBuffer::Entry);
    }
  }
  ++s.height;  // the routing level above the shards
  return s;
}

void ShardedIndex::ForEachBlockStore(const BlockStoreVisitor& fn) const {
  for (size_t i = 0; i < shards_.size(); ++i) {
    EpochOf(i)->base->ForEachBlockStore(fn);
  }
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

namespace {

/// UpdateOps are written one field at a time (kind byte + point): the
/// struct has padding, so WriteVec's raw-bytes fast path would persist
/// uninitialized memory. Since container v3 the total op count is
/// followed by the frozen-layer count (the first `frozen_n` ops belong
/// to the merging layer), so tooling can report the buffered/frozen
/// split without replaying anything.
void WriteDeltaOps(Serializer& out, const DeltaBuffer* frozen,
                   const DeltaBuffer* active) {
  const uint64_t frozen_n = frozen != nullptr ? frozen->log().size() : 0;
  const uint64_t n =
      frozen_n + (active != nullptr ? active->log().size() : 0);
  out.WritePod<uint64_t>(n);
  out.WritePod<uint64_t>(frozen_n);
  for (const DeltaBuffer* layer : {frozen, active}) {
    if (layer == nullptr) continue;
    for (const UpdateOp& op : layer->log()) {
      out.WritePod<uint8_t>(static_cast<uint8_t>(op.kind));
      out.WritePod(op.pt);
    }
  }
}

}  // namespace

bool ShardedIndex::SaveTo(Serializer& out) const {
  out.WritePod<uint32_t>(static_cast<uint32_t>(shards_.size()));
  partitioner_.WriteTo(out);
  std::vector<std::shared_ptr<const Epoch>> eps(shards_.size());
  std::vector<Rect> regions(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    eps[i] = EpochOf(i);
    regions[i] = eps[i]->region;
  }
  out.WriteVec(regions);
  const size_t live = live_points_.load(std::memory_order_relaxed);
  out.WritePod(live);
  // One self-describing container per shard: the inner kind spec rides
  // inside each, so LoadFrom needs no knowledge of what the shards are —
  // and a shard can itself be a sharded index (recursive specs). The
  // shard's buffered delta log follows its container (frozen ops first —
  // they arrived first), so a save taken under buffered writes loses
  // nothing.
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (!WriteIndexContainer(out, *eps[i]->base)) return false;
    WriteDeltaOps(out, eps[i]->merging.get(), eps[i]->delta.get());
  }
  return true;
}

bool ShardedIndex::LoadFrom(Deserializer& in) {
  // Merge settings are not persisted structure: a loaded index merges
  // with the defaults.
  delta_merge_threshold_ = 256;
  background_merge_ = true;
  uint32_t k = 0;
  if (!in.ReadPod(&k)) return false;
  if (k < 1 || k > 4096) {
    return in.Fail("sharded index shard count out of range");
  }
  if (!partitioner_.ReadFrom(in)) return false;
  if (partitioner_.num_shards() != static_cast<int>(k)) {
    return in.Fail("partitioner shard count disagrees with shard table");
  }
  std::vector<Rect> regions;
  if (!in.ReadVec(&regions)) return false;
  if (regions.size() != k) {
    return in.Fail("region table size disagrees with shard count");
  }
  size_t live = 0;
  if (!in.ReadPod(&live)) return false;
  shards_.clear();
  shards_.reserve(k);
  std::string first_spec;
  for (uint32_t i = 0; i < k; ++i) {
    std::string why;
    std::unique_ptr<SpatialIndex> base = ReadIndexContainer(in, &why);
    if (base == nullptr) {
      return in.Fail("shard " + std::to_string(i) + ": " + why);
    }
    // The builder produces one kind for every shard, and KindSpec()
    // describes the whole index via shard 0 — a payload mixing kinds is
    // crafted, and would make the embedded spec lie about its contents.
    if (i == 0) {
      first_spec = base->KindSpec();
    } else if (base->KindSpec() != first_spec) {
      return in.Fail("sharded payload mixes inner index kinds");
    }
    // Replay the persisted delta log into a fresh active buffer through
    // the same append bookkeeping writers use — the loaded shard's
    // visible state equals the saved one's.
    uint64_t nops = 0;
    if (!in.ReadPod(&nops)) return false;
    // v3 records where the frozen layer ended at save time. The split is
    // informational (tooling: `rsmi_cli info`) — replay still lands every
    // op in one fresh active buffer, because restoring a merging layer
    // here would leave a frozen log nothing ever schedules a merge for.
    uint64_t frozen_n = 0;
    if (!in.ReadPod(&frozen_n)) return false;
    if (frozen_n > nops) {
      return in.Fail("delta log frozen count exceeds total op count");
    }
    if (nops > in.remaining() / (1 + sizeof(Point))) {
      return in.Fail("delta log length exceeds remaining data");
    }
    auto delta = std::make_shared<DeltaBuffer>();
    const auto base_contains = [&base](const Point& p) {
      QueryContext probe;
      return base->PointQuery(p, probe).has_value();
    };
    for (uint64_t j = 0; j < nops; ++j) {
      uint8_t kind = 0;
      UpdateOp op;
      if (!in.ReadPod(&kind) || !in.ReadPod(&op.pt)) return false;
      if (kind > static_cast<uint8_t>(UpdateOp::Kind::kDelete)) {
        return in.Fail("delta log op kind out of range");
      }
      op.kind = static_cast<UpdateOp::Kind>(kind);
      if (!delta->AppendOp(op, base_contains)) {
        // The log records only ops that hit; a missing delete target
        // means the payload and the shard disagree.
        return in.Fail("delta log replays a delete of a missing point");
      }
    }
    auto epoch = std::make_shared<Epoch>();
    epoch->base = std::move(base);
    epoch->delta = std::move(delta);
    epoch->region = regions[i];
    auto shard = std::make_unique<Shard>();
    shard->epoch = std::move(epoch);
    shards_.push_back(std::move(shard));
  }
  live_points_.store(live, std::memory_order_relaxed);
  return true;
}

namespace {

/// Walks every point stored in `index`'s block stores (recursively
/// through nested shards). Returns false as soon as `fn` rejects a point.
bool ForEachStoredPoint(const SpatialIndex& index,
                        const std::function<bool(const Point&)>& fn) {
  bool ok = true;
  index.ForEachBlockStore([&](const BlockStore& store) {
    for (int id = 0; ok && id < static_cast<int>(store.NumBlocks()); ++id) {
      for (const PointEntry& e : store.Peek(id).entries) {
        if (!fn(e.pt)) {
          ok = false;
          break;
        }
      }
    }
  });
  return ok;
}

}  // namespace

bool ShardedIndex::ValidateStructure(std::string* error) const {
  const auto fail = [error](const std::string& why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (!partitioner_.Validate(error)) return false;
  if (partitioner_.num_shards() != num_shards()) {
    return fail("partitioner shard count disagrees with shard table");
  }
  int64_t points = 0;
  for (size_t i = 0; i < shards_.size(); ++i) {
    const auto ep = EpochOf(i);
    if (ep->base == nullptr) return fail("null shard");
    if (!ep->base->ValidateStructure(error)) return false;
    points += static_cast<int64_t>(ep->base->Stats().num_points);
    if (ep->merging != nullptr) points += ep->merging->NetCount();
    points += ep->delta->NetCount();
    // Window/kNN fan-out prunes shards by region, so a region that does
    // not cover its shard's stored or buffered points silently drops
    // results — reject it here (the load path runs this as its final
    // backstop).
    if (!ForEachStoredPoint(*ep->base, [&](const Point& p) {
          return ep->region.Valid() && ep->region.Contains(p);
        })) {
      return fail("shard " + std::to_string(i) +
                  " stores a point outside its recorded region");
    }
    for (const DeltaBuffer* d : {ep->merging.get(), ep->delta.get()}) {
      if (d == nullptr) continue;
      for (const DeltaBuffer::Entry& e : d->entries()) {
        if (e.pending_inserts > 0 &&
            !(ep->region.Valid() && ep->region.Contains(e.pt))) {
          return fail("shard " + std::to_string(i) +
                      " buffers an insert outside its recorded region");
        }
      }
    }
  }
  if (points !=
      static_cast<int64_t>(live_points_.load(std::memory_order_relaxed))) {
    return fail("sharded live-point count disagrees with shard totals");
  }
  return true;
}

}  // namespace rsmi
