#ifndef RSMI_XMEM_EXTERNAL_INDEX_H_
#define RSMI_XMEM_EXTERNAL_INDEX_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/spatial_index.h"
#include "xmem/mapped_container.h"
#include "xmem/prefetcher.h"
#include "xmem/residency.h"
#include "xmem/write_behind.h"

namespace rsmi {
namespace xmem {

/// Beyond-RAM configuration. Every knob has an environment override so
/// deployments (and the CI smoke) can retune a binary without rebuilding:
///
///   RSMI_XMEM_BUDGET_MB       rss_budget_bytes (in MiB)
///   RSMI_XMEM_PREFETCH        0/1 -> prefetch
///   RSMI_XMEM_VERIFY_CRC      0/1 -> verify_crc
///   RSMI_XMEM_DEEP_VALIDATE   0/1 -> deep_validate
struct XmemOptions {
  /// Hard RSS target for the mapping, enforced by the eviction clock.
  size_t rss_budget_bytes = 256ull << 20;
  /// Eviction clock granularity.
  size_t chunk_bytes = 256 << 10;
  /// Background budget-enforcement period; 0 = manual EnforceBudget only.
  int governor_interval_ms = 50;
  /// Model-prediction-driven readahead (RSMI inner kinds only).
  bool prefetch = true;
  int prefetch_threads = 2;
  /// Absorb updates into the sequential crash-safe append log.
  bool write_behind = true;
  /// Log path; empty means "<container path>.wbl".
  std::string write_behind_log;
  size_t write_behind_flush_bytes = 1 << 20;
  /// Eagerly sweep the payload CRC on open (faults the whole file).
  bool verify_crc = false;
  /// Run ValidateStructure after the lazy load (also faults everything).
  bool deep_validate = false;
  /// Apply the RSMI_XMEM_* environment overrides above.
  bool apply_env_overrides = true;
};

/// The beyond-RAM deployment of any persisted index: a SpatialIndex that
/// serves queries straight off an mmap-backed container whose pages fault
/// in on demand, glued to the three xmem mechanisms —
///
///  - MappedContainer + zero-copy EntryList borrows: opening a multi-GB
///    container costs one header parse, not a file read; a query faults
///    in exactly the blocks it scans.
///  - ResidencyGovernor: a hard RSS budget over the mapping, enforced by
///    a second-chance clock fed from the access hook of every BlockStore
///    the index holds (every shard's, for sharded<K>:* containers) — the
///    per-block reference bits come for free from the paper's counted
///    block accesses.
///  - AsyncPrefetcher: RSMI's level-k leaf-block predictions are handed
///    to a worker pool the moment the fused descent produces them, so
///    cold-read faults overlap the remaining inference and scans.
///  - WriteBehindBuffer: ApplyUpdates appends to a sequential CRC'd log
///    before mutating the in-memory structure; Open() replays the log, so
///    a crash after any flush loses nothing and a torn tail is truncated,
///    never half-applied.
///
/// Contract: lazy loading never changes results or counters. Every query
/// answer, every QueryContext charge, and every IndexStats field is
/// bit-identical to the same container loaded eagerly with LoadIndex()
/// — the hooks only move bytes, never touch contexts (the xmem parity
/// tests enforce this across all persistable kinds).
class ExternalIndex : public SpatialIndex {
 public:
  /// Opens the container at `path` lazily, replays any write-behind log
  /// next to it, and wires up the governor/prefetcher. nullptr with a
  /// diagnostic in `*error` (if non-null) on any failure — no partially
  /// wired index escapes.
  static std::unique_ptr<ExternalIndex> Open(
      const std::string& path, const XmemOptions& opts = XmemOptions(),
      std::string* error = nullptr);

  ~ExternalIndex() override;

  ExternalIndex(const ExternalIndex&) = delete;
  ExternalIndex& operator=(const ExternalIndex&) = delete;

  // --- SpatialIndex: pure delegation (the contract above) ---
  std::string Name() const override { return "xmem:" + inner_->Name(); }
  std::optional<PointEntry> PointQuery(const Point& q,
                                       QueryContext& ctx) const override {
    return inner_->PointQuery(q, ctx);
  }
  std::vector<Point> WindowQuery(const Rect& w,
                                 QueryContext& ctx) const override {
    return inner_->WindowQuery(w, ctx);
  }
  std::vector<Point> KnnQuery(const Point& q, size_t k,
                              QueryContext& ctx) const override {
    return inner_->KnnQuery(q, k, ctx);
  }
  void PointQueryBatch(const Point* qs, size_t n, QueryContext* ctxs,
                       std::optional<PointEntry>* out) const override {
    inner_->PointQueryBatch(qs, n, ctxs, out);
  }
  IndexStats Stats() const override { return inner_->Stats(); }
  void ForEachBlockStore(const BlockStoreVisitor& fn) const override {
    inner_->ForEachBlockStore(fn);
  }
  bool SupportsConcurrentUpdates() const override {
    return inner_->SupportsConcurrentUpdates();
  }
  void FlushUpdates() override {
    if (wb_ != nullptr) wb_->Flush();
    inner_->FlushUpdates();
  }
  std::string KindSpec() const override { return inner_->KindSpec(); }
  bool SaveTo(Serializer& out) const override { return inner_->SaveTo(out); }
  bool ValidateStructure(std::string* error) const override {
    return inner_->ValidateStructure(error);
  }

  // --- xmem surface ---
  /// Persists the current state back to the container path (atomic
  /// replace) and empties the write-behind log whose records it made
  /// redundant. The live mapping keeps serving the old inode — reopen to
  /// map the checkpointed file. False with a diagnostic on I/O failure.
  bool Checkpoint(std::string* error = nullptr);

  /// One synchronous budget-enforcement pass (see ResidencyGovernor).
  size_t EnforceBudget() { return governor_->EnforceBudget(); }
  /// Blocks until all queued prefetch hints completed (benches/tests).
  void DrainPrefetch() {
    if (prefetcher_ != nullptr) prefetcher_->Drain();
  }

  const MappedContainer& container() const { return *container_; }
  SpatialIndex* inner() { return inner_.get(); }
  const SpatialIndex* inner() const { return inner_.get(); }
  ResidencyGovernor& governor() { return *governor_; }
  AsyncPrefetcher* prefetcher() { return prefetcher_.get(); }
  WriteBehindBuffer* write_behind() { return wb_.get(); }
  const XmemOptions& options() const { return opts_; }

 protected:
  void InsertOne(const Point& p) override {
    UpdateBatch b;
    b.Insert(p);
    DoApplyUpdates(b, WriteOptions{});
  }
  bool DeleteOne(const Point& p) override {
    UpdateBatch b;
    b.Delete(p);
    return DoApplyUpdates(b, WriteOptions{}).delete_misses == 0;
  }
  /// Log first (crash durability), then delegate the whole batch — the
  /// inner kind keeps its own strategy (immediate, leaf buffers, or
  /// sharded concurrent deltas).
  UpdateResult DoApplyUpdates(const UpdateBatch& batch,
                              const WriteOptions& opts) override {
    if (wb_ != nullptr) wb_->Append(batch, opts.fence);
    return inner_->ApplyUpdates(batch, opts);
  }

 private:
  /// Byte range of one block's entries inside the mapping; kNone for
  /// blocks that did not borrow (empty, or alignment fallback copies).
  struct BlockRange {
    size_t offset = kNone;
    size_t len = 0;
    static constexpr size_t kNone = static_cast<size_t>(-1);
  };
  /// One store's block ranges, by block id as of open.
  using BlockRanges = std::vector<BlockRange>;

  ExternalIndex() = default;

  void InstallHooks();
  /// Maps a predicted global block-id range to its byte span and hands it
  /// to the prefetcher (called from the RSMI prediction hook).
  void PrefetchBlocks(int first, int last);

  XmemOptions opts_;
  // Teardown order (reverse of declaration): write-behind and prefetcher
  // stop first, then the governor's clock, then the index that borrows
  // from the mapping, and the mapping itself last.
  std::unique_ptr<MappedContainer> container_;
  std::unique_ptr<SpatialIndex> inner_;
  /// One table per hooked store, in ForEachBlockStore order; sized once
  /// in InstallHooks (the hooks point into it).
  std::vector<BlockRanges> block_ranges_;
  std::unique_ptr<ResidencyGovernor> governor_;
  std::unique_ptr<AsyncPrefetcher> prefetcher_;
  std::unique_ptr<WriteBehindBuffer> wb_;
};

}  // namespace xmem
}  // namespace rsmi

#endif  // RSMI_XMEM_EXTERNAL_INDEX_H_
