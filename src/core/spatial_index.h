#ifndef RSMI_CORE_SPATIAL_INDEX_H_
#define RSMI_CORE_SPATIAL_INDEX_H_

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/query_context.h"
#include "core/update.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "storage/block_store.h"

namespace rsmi {

class Serializer;    // io/serializer.h
class Deserializer;  // io/serializer.h

/// Structural statistics reported by every index (used by Table 3 and the
/// index-size / construction-time figures).
struct IndexStats {
  std::string name;
  size_t num_points = 0;
  /// Index footprint: data blocks + directory/tree nodes + learned models.
  size_t size_bytes = 0;
  /// Number of model/tree levels above the data-block level.
  int height = 0;
  /// Learned indices: number of sub-models.
  size_t num_models = 0;
};

/// Common interface of all indices evaluated in the paper: the learned
/// RSMI and ZM plus the traditional Grid File, K-D-B-tree, HRR, and
/// R*-tree. All of them store their data points in a BlockStore and report
/// block accesses through a per-call QueryContext, mirroring the paper's
/// "# block accesses" metric.
///
/// Thread-safety contract: **reads are always concurrent; writes are
/// concurrent where the kind supports buffering, exclusive otherwise.**
/// The query methods (PointQuery / WindowQuery / KnnQuery /
/// PointQueryBatch) are side-effect-free on the index — any number of
/// threads may run them simultaneously, each with its own context
/// (src/exec/ builds on this). Mutations go through
/// ApplyUpdates(UpdateBatch, WriteOptions): when
/// SupportsConcurrentUpdates() is true (the sharded index), buffered
/// batches may run from any number of writer threads concurrently with
/// readers — writers append into per-shard delta buffers and publish
/// epoch snapshots, readers never block (see shard/sharded_index.h).
/// Immediate (non-buffered) application, structural maintenance
/// (rebuilds, Save/Load, installing block-store hooks), and every write
/// on a kind without concurrent-update support keep the legacy
/// requirement: exclusive access, no query in flight.
class SpatialIndex {
 public:
  virtual ~SpatialIndex() = default;

  virtual std::string Name() const = 0;

  /// Returns the stored entry whose position equals `q` exactly, if any.
  /// Costs (block accesses, model invocations) are charged to `ctx`.
  virtual std::optional<PointEntry> PointQuery(const Point& q,
                                               QueryContext& ctx) const = 0;

  /// Returns the points inside the (closed) window `w`. Learned indices
  /// may return approximate answers with no false positives (Section 4.2);
  /// all traditional indices are exact.
  virtual std::vector<Point> WindowQuery(const Rect& w,
                                         QueryContext& ctx) const = 0;

  /// Returns (approximately, for learned indices) the k nearest neighbors
  /// of `q`, ordered by increasing distance.
  virtual std::vector<Point> KnnQuery(const Point& q, size_t k,
                                      QueryContext& ctx) const = 0;

  /// Answers `n` point queries in one call, writing `out[i]` for `qs[i]`
  /// and charging query i's costs to `ctxs[i]` — each element equals what
  /// a standalone PointQuery(qs[i], ctxs[i]) would charge. Learned
  /// indices override this to batch all sub-model evaluations level by
  /// level through the vectorized inference engine
  /// (src/nn/inference_engine.h), which is where their per-query
  /// function-call and cache-miss overhead goes away. Per-op attribution
  /// is what lets the serving layer coalesce unrelated clients' point
  /// requests into one batch while every Response still reports its own
  /// exact QueryContext counters (src/exec/request.h); callers that want
  /// one total fold the contexts with QueryContext::MergeFrom.
  virtual void PointQueryBatch(const Point* qs, size_t n, QueryContext* ctxs,
                               std::optional<PointEntry>* out) const {
    for (size_t i = 0; i < n; ++i) out[i] = PointQuery(qs[i], ctxs[i]);
  }

  // --- Mutations ---
  //
  // The primary mutation surface is the batched ApplyUpdates below; the
  // per-point Insert/Delete are thin shims over a size-1 immediate batch
  // kept for the pre-batch call sites (figure benches, examples, tests).
  // Subclasses implement the protected InsertOne/DeleteOne hooks (and
  // optionally DoApplyUpdates for a smarter batch strategy) — the public
  // entry points are non-virtual by design so options handling and the
  // fence stay uniform across kinds.

  /// Applies the batch's ops in order. Semantics are always equivalent
  /// to applying the ops one by one sequentially; WriteOptions selects
  /// the execution strategy (immediate vs. delta-buffered, optional
  /// flush fence). Buffered application on a kind that supports
  /// concurrent updates may run concurrently with readers and other
  /// writers; everything else requires exclusive access.
  UpdateResult ApplyUpdates(const UpdateBatch& batch,
                            const WriteOptions& opts = WriteOptions{}) {
    UpdateResult r = DoApplyUpdates(batch, opts);
    if (opts.fence) FlushUpdates();
    return r;
  }

  /// Inserts a new point (Section 5): a size-1 immediate batch.
  void Insert(const Point& p) {
    UpdateBatch b;
    b.Insert(p);
    ApplyUpdates(b);
  }

  /// Deletes the point at exactly this position; false if absent.
  /// A size-1 immediate batch.
  bool Delete(const Point& p) {
    UpdateBatch b;
    b.Delete(p);
    return ApplyUpdates(b).delete_misses == 0;
  }

  /// True when buffered ApplyUpdates may run concurrently with readers
  /// and other writers (per-shard delta buffers + epoch publication).
  /// False (the default) keeps the legacy writes-exclusive contract.
  virtual bool SupportsConcurrentUpdates() const { return false; }

  /// Synchronously merges every buffered delta into the base structure:
  /// after it returns (and absent concurrent writers), queries read pure
  /// structure and SaveTo persists no pending ops. No-op on kinds
  /// without buffering.
  virtual void FlushUpdates() {}

  virtual IndexStats Stats() const = 0;

  /// Calls `fn` once for every BlockStore holding this index's data
  /// blocks: a plain kind visits its own store, a sharded index visits
  /// its shards' current bases (recursively), wrappers forward to what
  /// they wrap. Lets callers that must see every stored block — the
  /// external-memory layer installing its access hooks, structural
  /// checks walking the points — treat every kind uniformly. The stores
  /// are stable only while no merge can publish a new shard base
  /// (exclusive access, or after FlushUpdates with no writers).
  using BlockStoreVisitor = std::function<void(const BlockStore&)>;
  virtual void ForEachBlockStore(const BlockStoreVisitor& fn) const = 0;

  // --- Polymorphic persistence (src/io/index_container.h) ---
  //
  // Persistence is part of the index contract, not a feature of one
  // subclass: `SaveIndex(index, path)` writes any index whose kind
  // implements the three methods below into a self-describing container
  // file, and `LoadIndex(path)` reconstructs whatever kind the file
  // embeds — including recursive `sharded<K>:<inner>` compositions,
  // which persist one nested container per shard. Save/Load require
  // exclusive access (they are writes under the thread-safety contract).

  /// Stable, factory-parseable spec string of this concrete index kind
  /// ("rsmi", "zm", "grid", "rstar", "sharded<4>:rsmi", ...) — the
  /// dispatch key embedded in the container header. Empty means the kind
  /// does not support persistence (SaveIndex will refuse it).
  virtual std::string KindSpec() const { return ""; }

  /// Serializes the complete index state (models, blocks, configuration)
  /// into `out` so LoadFrom restores a bit-identical index: same query
  /// results, same counted costs, still updatable. Returns false when the
  /// kind does not support persistence.
  virtual bool SaveTo(Serializer& out) const {
    (void)out;
    return false;
  }

  /// Restores the state written by SaveTo into this (shell) instance.
  /// Only the factory's load path calls this, on a shell constructed for
  /// the embedded kind spec; a false return (or a failed read recorded in
  /// `in`) aborts the load — no partially-loaded index escapes.
  virtual bool LoadFrom(Deserializer& in) {
    (void)in;
    return false;
  }

  /// Deep structural self-check (tree/region/chain invariants), for tests
  /// and post-corruption diagnostics. Returns true when every invariant
  /// holds; otherwise false with a description in `*error` (if non-null).
  /// O(index size) — not for hot paths. The base implementation accepts
  /// everything; indices override with their specific invariants.
  virtual bool ValidateStructure(std::string* error) const {
    (void)error;
    return true;
  }

 protected:
  /// Structural single-point insert — what the pre-batch virtual Insert
  /// used to be. Exclusive access required.
  virtual void InsertOne(const Point& p) = 0;

  /// Structural single-point delete; false when the position is absent.
  /// Exclusive access required.
  virtual bool DeleteOne(const Point& p) = 0;

  /// Batch application strategy. The default ignores WriteOptions::
  /// buffered (there is no buffer to use) and applies the ops one by one
  /// through InsertOne/DeleteOne; kinds with a delta layer override this
  /// to buffer and to trigger merges.
  virtual UpdateResult DoApplyUpdates(const UpdateBatch& batch,
                                      const WriteOptions& opts) {
    (void)opts;
    UpdateResult r;
    for (const UpdateOp& op : batch.ops) {
      if (op.kind == UpdateOp::Kind::kInsert) {
        InsertOne(op.pt);
        ++r.applied_inserts;
      } else if (DeleteOne(op.pt)) {
        ++r.applied_deletes;
      } else {
        ++r.delete_misses;
      }
    }
    return r;
  }
};

}  // namespace rsmi

#endif  // RSMI_CORE_SPATIAL_INDEX_H_
