#ifndef RSMI_SHARD_SHARDED_INDEX_H_
#define RSMI_SHARD_SHARDED_INDEX_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/delta_buffer.h"
#include "core/spatial_index.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "shard/shard_partitioner.h"
#include "storage/block_store.h"

namespace rsmi {

/// Build parameters of a ShardedIndex.
struct ShardedIndexConfig {
  /// Requested shard count (the effective count can be lower on
  /// degenerate data, see ShardPartitioner).
  int num_shards = 4;
  /// Worker threads for the parallel shard build. Shards build
  /// independently, so any thread count produces the same index.
  int build_threads = 1;
  /// Worker threads for intra-query fan-out: a single window or kNN
  /// query touching several shards runs the per-shard sub-queries
  /// concurrently when > 1 (off by default — batch-level parallelism in
  /// exec/ is usually the better use of cores under load; this helps
  /// latency of isolated large queries). Results are identical at any
  /// setting; the RSMI_SHARD_QUERY_THREADS environment variable
  /// overrides it at runtime. See WindowQuery/KnnQuery for the cost
  /// accounting caveat.
  int query_threads = 1;
  /// Buffered ops a shard's active delta holds before it is frozen and
  /// merged into the shard's base structure. The
  /// RSMI_SHARD_DELTA_THRESHOLD environment variable overrides it at
  /// runtime (a serving knob, like query_threads).
  size_t delta_merge_threshold = 256;
  /// Run threshold-triggered merges on the background maintenance
  /// thread (the default). `false` merges inline on the writer thread
  /// that crossed the threshold — deterministic timing for tests.
  bool background_merge = true;
  /// Partitioner knobs (its num_shards is overridden by `num_shards`).
  ShardPartitionerConfig partition;
};

/// Builds one shard's inner index over that shard's points. Invoked once
/// per shard, possibly from several build threads concurrently; it must
/// not touch shared mutable state. The factory wires this to MakeIndex,
/// so any index type in the repository can be sharded.
using ShardBuilder = std::function<std::unique_ptr<SpatialIndex>(
    const std::vector<Point>& pts, int shard)>;

/// Space-partitioned index: a cheap global ShardPartitioner routes every
/// point to one of K inner indices (any SpatialIndex, built via the
/// factory — sharded RSMI, sharded ZM, sharded R*, ...).
///
/// Build: the K inner indices are built in parallel on a thread pool
/// (shards are independent, so the result is identical at any thread
/// count — this is where a multi-core machine beats the monolithic
/// build).
///
/// Queries: point queries and updates route to the single owning shard.
/// Batched point lookups regroup per shard and go through the inner
/// PointQueryBatch, so learned shards keep their vectorized
/// level-synchronous descent. Window queries fan out to only the shards
/// whose region intersects the window. kNN fans out best-first over
/// shard regions sharing one result heap: once k candidates are held, a
/// shard whose region is farther than the current k-th distance is
/// skipped entirely. Both fan-outs can run their per-shard sub-queries
/// on a thread pool (`query_threads` / RSMI_SHARD_QUERY_THREADS) with
/// identical results — see the per-method docs.
///
/// Concurrent updates (epoch/RCU publication): each shard's visible
/// state is one immutable Epoch — a shared_ptr to {base index, active
/// DeltaBuffer overlay, optional frozen "merging" overlay, region}.
/// Readers copy the epoch pointer (one tiny lock, never held across
/// work) and run entirely on that snapshot; in-flight queries finish on
/// their old epoch even while writers publish new ones, so readers
/// never block. Buffered writers (`WriteOptions::buffered`) serialize
/// per shard, copy-on-write the active delta, append their ops, and
/// publish a new epoch. When the active delta crosses
/// `delta_merge_threshold` it is frozen into the merging slot and the
/// background maintenance thread rebuilds the shard off the critical
/// path: it clones the base through the (bit-identical) persistence
/// round-trip, replays the frozen op log sequentially, and publishes
/// the merged base — the active delta accumulated meanwhile carries
/// over untouched. Every execution is observationally equivalent to
/// applying the same ops sequentially with immediate writes, including
/// the bytes SaveTo produces after FlushUpdates().
///
/// Delta overlay reads: a query consults the base snapshot and then the
/// overlay layers (merging below active). Buffered inserts surface with
/// the sentinel id -1 until merged (ids are assigned by the base
/// structure at merge time); kNN fetches `k + buffered deletions` base
/// candidates before filtering, so a heavily deleted region cannot
/// starve the result. Probing a non-empty delta layer charges one block
/// access to the caller's QueryContext (the overlay is one in-memory
/// buffer page, like RSMI's leaf insert buffer); empty layers charge
/// nothing, so with no buffered writes every cost equals the
/// pre-overlay sharded index exactly.
///
/// Costs are charged to the caller's QueryContext exactly like any
/// other index; routing itself is free (an in-memory binary search,
/// like computing a grid cell coordinate). With one shard, every query
/// — results and counted costs — is identical to the inner index alone.
///
/// Thread-safety: reads are always concurrent, with or without
/// concurrent buffered writers (SupportsConcurrentUpdates() is true).
/// Immediate (non-buffered) writes and structural maintenance
/// (Save/Load, ValidateStructure) keep the legacy exclusive-access
/// requirement.
class ShardedIndex : public SpatialIndex {
 public:
  ShardedIndex(const std::vector<Point>& pts, const ShardedIndexConfig& cfg,
               const ShardBuilder& builder);
  ~ShardedIndex() override;

  ShardedIndex(const ShardedIndex&) = delete;
  ShardedIndex& operator=(const ShardedIndex&) = delete;

  std::string Name() const override;

  std::optional<PointEntry> PointQuery(const Point& q,
                                       QueryContext& ctx) const override;
  /// Fans out to the shards whose region intersects `w`. With
  /// query_threads > 1 the per-shard sub-queries run concurrently, each
  /// on its own QueryContext, merged into `ctx` in shard order —
  /// results and counted costs identical to the sequential fan-out.
  std::vector<Point> WindowQuery(const Rect& w,
                                 QueryContext& ctx) const override;
  /// Best-first over shard regions sharing one result heap. With
  /// query_threads > 1 every candidate shard is queried concurrently and
  /// the per-shard top-k sets are merged in the same region-distance
  /// order — the *result* is identical, but counted costs can exceed the
  /// sequential path's, which skips shards already excluded by the k-th
  /// distance bound (a bound the parallel fan-out cannot know up front).
  std::vector<Point> KnnQuery(const Point& q, size_t k,
                              QueryContext& ctx) const override;

  /// Batched point lookup: groups the queries by owning shard and feeds
  /// each group through that shard's PointQueryBatch, so the vectorized
  /// descent of learned inner indices still kicks in. Results and per-op
  /// costs are identical to `n` scalar PointQuery calls.
  void PointQueryBatch(const Point* qs, size_t n, QueryContext* ctxs,
                       std::optional<PointEntry>* out) const override;

  /// Buffered batches run concurrently with readers and other writers —
  /// true whenever the inner kind supports persistence (merging clones
  /// the shard base through the persistence round-trip; a kind that
  /// cannot persist stays writes-exclusive and buffered requests degrade
  /// to immediate application).
  bool SupportsConcurrentUpdates() const override;

  /// Synchronous fence: freezes and merges every shard's buffered delta
  /// (including any merge the background thread has in flight) before
  /// returning. Safe to call concurrently with readers.
  void FlushUpdates() override;

  /// Aggregated over all shards: num_points/size_bytes/num_models sum
  /// (size includes the shard directory: partitioner + per-shard region
  /// table + delta buffers), and height is the tallest shard plus the
  /// routing level.
  IndexStats Stats() const override;

  /// The sharded index owns no data blocks itself — every point lives in
  /// a shard's store — so this visits each shard's current base in shard
  /// order (recursively for nested sharding). Buffered delta overlays
  /// hold no blocks and are not visited.
  void ForEachBlockStore(const BlockStoreVisitor& fn) const override;

  /// Validates the partitioner, every shard's own structure, the region
  /// table, the delta overlays, and the visible point-count bookkeeping.
  /// Requires exclusive access (no concurrent writers or merges).
  bool ValidateStructure(std::string* error) const override;

  /// Polymorphic persistence (io/index_container.h). SaveTo persists the
  /// shard directory (partitioner + region table) and then, per shard,
  /// one complete nested container for the base index — each carrying
  /// its own kind spec, so arbitrarily nested specs
  /// ("sharded<2>:sharded<2>:grid") round-trip through one file without
  /// rebuilding anything — followed by the shard's buffered delta log
  /// (frozen ops first, then active ops, with the frozen count recorded
  /// since container v3), so a save taken under buffered writes loses
  /// nothing. LoadFrom dispatches every nested container back through
  /// the factory and replays the delta log into a fresh active buffer.
  /// Requires exclusive access.
  std::string KindSpec() const override;
  bool SaveTo(Serializer& out) const override;
  bool LoadFrom(Deserializer& in) override;

  /// Uninitialized shell for the factory's load dispatch; invalid until
  /// LoadFrom succeeds on it.
  static std::unique_ptr<ShardedIndex> MakeLoadShell() {
    return std::unique_ptr<ShardedIndex>(new ShardedIndex(LoadTag{}));
  }

  int num_shards() const { return static_cast<int>(shards_.size()); }
  /// Effective intra-query fan-out width (config / env, clamped).
  int query_threads() const { return query_threads_; }
  /// Active-delta size that freezes a shard for merging (config / env).
  size_t delta_merge_threshold() const { return delta_merge_threshold_; }
  /// Shard `i`'s current base structure. The reference is stable only
  /// while no merge can publish (exclusive access or after a fence);
  /// concurrent readers must snapshot epochs instead.
  const SpatialIndex& shard(int i) const {
    return *EpochOf(static_cast<size_t>(i))->base;
  }
  const ShardPartitioner& partitioner() const { return partitioner_; }
  /// Region (bounding rectangle) of the points currently routed to shard
  /// `i` — buffered inserts included; grows on insert, never shrinks on
  /// delete.
  Rect shard_region(int i) const {
    return EpochOf(static_cast<size_t>(i))->region;
  }
  /// Ops currently buffered (active + frozen) for shard `i`.
  size_t shard_delta_size(int i) const;

 protected:
  void InsertOne(const Point& p) override;
  bool DeleteOne(const Point& p) override;

  /// Routes each op to its owning shard (preserving per-shard arrival
  /// order). Buffered batches copy-on-write the shard's active delta and
  /// publish a new epoch — concurrent with readers; immediate batches
  /// mutate the base structure in place (exclusive access, byte-for-byte
  /// the pre-epoch behavior on a clean shard; a shard with buffered ops
  /// is drained first so arrival order is preserved).
  UpdateResult DoApplyUpdates(const UpdateBatch& batch,
                              const WriteOptions& opts) override;

 private:
  /// One shard's immutable published state. Readers run entirely on a
  /// snapshot of this; every mutation publishes a fresh Epoch.
  struct Epoch {
    std::shared_ptr<SpatialIndex> base;
    /// Active overlay — the delta writers append to (never null; empty
    /// on a clean shard). Semantics relative to merging-over-base.
    std::shared_ptr<const DeltaBuffer> delta;
    /// Frozen overlay being merged into a new base by the maintenance
    /// thread; null when no merge is pending. Semantics relative to
    /// base.
    std::shared_ptr<const DeltaBuffer> merging;
    Rect region = Rect::Empty();
  };

  struct Shard {
    /// Current epoch; epoch_mu guards the pointer swap only (readers
    /// hold it just long enough to copy the shared_ptr).
    std::shared_ptr<const Epoch> epoch;
    mutable std::mutex epoch_mu;
    /// Serializes logical writers (buffered appends, freezes, epoch
    /// publication by the merge). Never held while running a query.
    std::mutex write_mu;
    /// Serializes merges of this shard (background thread vs. fence).
    std::mutex merge_mu;
  };

  struct LoadTag {};
  explicit ShardedIndex(LoadTag) {}  // shell filled by LoadFrom

  std::shared_ptr<const Epoch> EpochOf(size_t s) const {
    std::lock_guard<std::mutex> lk(shards_[s]->epoch_mu);
    return shards_[s]->epoch;
  }
  void PublishEpoch(size_t s, std::shared_ptr<const Epoch> e) {
    std::lock_guard<std::mutex> lk(shards_[s]->epoch_mu);
    shards_[s]->epoch = std::move(e);
  }

  /// Buffered application of `ops` (already routed to shard `s`).
  /// Returns true in *schedule when the active delta was frozen and the
  /// caller must arrange the merge (background enqueue or inline).
  UpdateResult BufferOps(size_t s, const std::vector<UpdateOp>& ops,
                         bool* schedule);
  /// Immediate (exclusive-access) application of `ops` to shard `s`.
  UpdateResult ApplyImmediate(size_t s, const std::vector<UpdateOp>& ops);

  /// Merges shard `s`'s frozen delta into a freshly cloned base and
  /// publishes the result; no-op when nothing is frozen. Runs the
  /// expensive clone+replay without blocking writers (write_mu is taken
  /// only for the final publish). Must not be called with this shard's
  /// write_mu held.
  void MergeFrozen(size_t s);
  /// Drains shard `s` completely: merges the frozen layer, then freezes
  /// and merges the active delta, until both are empty.
  void DrainShard(size_t s);

  void ScheduleMerge(size_t s);
  void MaintenanceLoop();
  void StopMaintenance();

  size_t DirectoryBytes() const {
    return sizeof(*this) + partitioner_.SizeBytes() +
           shards_.capacity() * sizeof(shards_[0]);
  }

  ShardPartitioner partitioner_;
  /// Stable-address shards (epoch + locks); the vector itself is
  /// immutable after construction/load.
  std::vector<std::unique_ptr<Shard>> shards_;
  /// Visible points: base totals plus buffered net inserts.
  std::atomic<size_t> live_points_{0};
  /// Intra-query fan-out width (1 = sequential). Loaded indices resolve
  /// it from the environment in LoadFrom (it is a serving knob, not part
  /// of the persisted structure).
  int query_threads_ = 1;
  size_t delta_merge_threshold_ = 256;
  bool background_merge_ = true;

  // Lazily started background maintenance: writers enqueue frozen
  // shards, the thread merges them off the write path.
  std::mutex maint_mu_;
  std::condition_variable maint_cv_;
  std::deque<size_t> maint_queue_;
  std::vector<uint8_t> maint_pending_;  // dedupes per-shard enqueues
  std::thread maint_thread_;
  bool maint_stop_ = false;
};

}  // namespace rsmi

#endif  // RSMI_SHARD_SHARDED_INDEX_H_
