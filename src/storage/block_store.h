#ifndef RSMI_STORAGE_BLOCK_STORE_H_
#define RSMI_STORAGE_BLOCK_STORE_H_

#include <algorithm>
#include <cstdint>
#include <cstddef>
#include <cstdio>
#include <functional>
#include <utility>
#include <vector>

#include "core/query_context.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "io/serializer.h"

namespace rsmi {

/// A stored data point: its coordinates plus the caller-assigned record id
/// (standing in for the "pointer to the data object" of the paper).
struct PointEntry {
  Point pt;
  int64_t id = -1;
};

/// Copy-on-write entry storage for a Block. Two states:
///
///  - owned: a plain std::vector<PointEntry> (every built or mutated
///    block). This is the only state the pre-xmem code ever saw.
///  - borrowed: a read-only span into an externally owned byte image (the
///    mmap-backed lazy load path, Deserializer::borrowable()). Reads are
///    zero-copy — the kernel faults the span's pages in on first touch —
///    and the image owner (xmem::MappedContainer) must outlive the store.
///
/// Every non-const accessor first Materialize()s the span into an owned
/// vector, so mutation never writes through the read-only mapping. The
/// BlockStore mutation contract (exclusive access) makes that transition
/// race-free; concurrent const reads of an un-mutated block never
/// materialize and stay zero-copy.
class EntryList {
 public:
  EntryList() = default;
  EntryList(const EntryList&) = default;
  EntryList(EntryList&&) noexcept = default;
  EntryList& operator=(const EntryList&) = default;
  EntryList& operator=(EntryList&&) noexcept = default;

  /// Adopts `v` (copy or move depending on the argument). Replaces the
  /// historical `blk.entries = some_vector` assignments.
  EntryList& operator=(std::vector<PointEntry> v) {
    own_ = std::move(v);
    ext_ = nullptr;
    ext_n_ = 0;
    return *this;
  }

  /// Moves the entries out as a plain vector (split/rebuild code does
  /// `std::vector<PointEntry> pts = std::move(blk.entries);`). Leaves this
  /// list empty.
  operator std::vector<PointEntry>() && {
    Materialize();
    ext_ = nullptr;
    ext_n_ = 0;
    return std::move(own_);
  }

  /// Points this list at `n` externally owned entries (no copy). Caller
  /// guarantees the span outlives the list or any copy of it.
  void Borrow(const PointEntry* data, size_t n) {
    own_.clear();
    ext_ = data;
    ext_n_ = n;
  }
  bool borrowed() const { return ext_ != nullptr; }

  size_t size() const { return ext_ != nullptr ? ext_n_ : own_.size(); }
  bool empty() const { return size() == 0; }
  const PointEntry* data() const {
    return ext_ != nullptr ? ext_ : own_.data();
  }
  const PointEntry* begin() const { return data(); }
  const PointEntry* end() const { return data() + size(); }
  const PointEntry& operator[](size_t i) const { return data()[i]; }
  const PointEntry& back() const { return data()[size() - 1]; }

  PointEntry* begin() {
    Materialize();
    return own_.data();
  }
  PointEntry* end() {
    Materialize();
    return own_.data() + own_.size();
  }
  PointEntry& operator[](size_t i) {
    Materialize();
    return own_[i];
  }
  PointEntry& back() {
    Materialize();
    return own_.back();
  }

  void push_back(const PointEntry& e) {
    Materialize();
    own_.push_back(e);
  }
  void pop_back() {
    Materialize();
    own_.pop_back();
  }
  void clear() {
    own_.clear();
    ext_ = nullptr;
    ext_n_ = 0;
  }
  void reserve(size_t n) {
    Materialize();
    own_.reserve(n);
  }
  template <typename It>
  void assign(It first, It last) {
    ext_ = nullptr;
    ext_n_ = 0;
    own_.assign(first, last);
  }
  PointEntry* erase(PointEntry* pos) {
    const size_t i = static_cast<size_t>(pos - own_.data());
    own_.erase(own_.begin() + static_cast<ptrdiff_t>(i));
    return own_.data() + i;
  }
  PointEntry* erase(PointEntry* first, PointEntry* last) {
    const size_t i = static_cast<size_t>(first - own_.data());
    const size_t j = static_cast<size_t>(last - own_.data());
    own_.erase(own_.begin() + static_cast<ptrdiff_t>(i),
               own_.begin() + static_cast<ptrdiff_t>(j));
    return own_.data() + i;
  }

 private:
  void Materialize() {
    if (ext_ == nullptr) return;
    own_.assign(ext_, ext_ + ext_n_);
    ext_ = nullptr;
    ext_n_ = 0;
  }

  std::vector<PointEntry> own_;
  const PointEntry* ext_ = nullptr;
  size_t ext_n_ = 0;
};

/// A data block of capacity B (Section 3: "points stored in external
/// storage in blocks of capacity B"). Blocks are chained with prev/next
/// pointers so queries can scan ranges of consecutive blocks (Section 3.2:
/// "in each block, we further store pointers to its preceding and
/// subsequent blocks").
struct Block {
  EntryList entries;
  int32_t prev = -1;
  int32_t next = -1;
  /// Stable position key in the chain. Build-time blocks get 0,1,2,...;
  /// overflow blocks created by insertions receive the midpoint of their
  /// neighbors' keys, so "does block a precede block b" stays answerable
  /// after arbitrary insertions and subtree rebuilds.
  double seq = 0.0;
  /// True for blocks created by data insertions. Such blocks do not count
  /// towards the model error bounds (Section 5).
  bool inserted = false;
  /// Curve-value range of the entries (used by ZM to skip blocks cheaply).
  uint64_t cv_lo = 0;
  uint64_t cv_hi = 0;
  /// Bounding rectangle of the entries (used by RSMIa and kNN pruning).
  Rect mbr = Rect::Empty();
};

/// Append-only block arena.
///
/// All indices in this repository store their data points in a BlockStore
/// and report block accesses as the external-memory cost indicator,
/// exactly like the paper's "# block accesses" metric. Reading a block
/// through Access() charges the caller's QueryContext; structural
/// mutation through MutableBlock() does not (mutators charge their
/// context explicitly where the paper's cost model says an access
/// happens).
///
/// Thread-safety contract: all read methods (Access, Peek, scans, SeqOf,
/// NumBlocks) may run concurrently from any number of threads, because
/// each caller accumulates costs into its own QueryContext. Mutation
/// (Alloc, MutableBlock, Unlink/Splice, ReadFrom) requires exclusive
/// access, as does installing an access hook.
class BlockStore {
 public:
  explicit BlockStore(int capacity) : capacity_(capacity) {}

  int capacity() const { return capacity_; }

  /// Appends a new (non-inserted) block at the tail of the chain and
  /// returns its id. Build code allocates blocks in global curve order, so
  /// ids double as the paper's build-time block ids. The seq key is kept
  /// strictly above the current tail's (overflow splices and run moves may
  /// have pushed the tail's seq past the id counter).
  int Alloc() {
    const int id = static_cast<int>(blocks_.size());
    Block b;
    b.seq = tail_ >= 0 ? std::max(static_cast<double>(id),
                                  blocks_[tail_].seq + 1.0)
                       : static_cast<double>(id);
    b.prev = tail_;
    if (tail_ >= 0) blocks_[tail_].next = id;
    blocks_.push_back(std::move(b));
    tail_ = id;
    return id;
  }

  /// Creates an overflow block spliced immediately after block `after`
  /// (Section 5, insertion case 2). Marked `inserted`.
  int AllocInsertedAfter(int after) {
    const int id = static_cast<int>(blocks_.size());
    Block b;
    b.inserted = true;
    const int nxt = blocks_[after].next;
    b.prev = after;
    b.next = nxt;
    b.seq = nxt >= 0 ? (blocks_[after].seq + blocks_[nxt].seq) / 2.0
                     : blocks_[after].seq + 1.0;
    blocks_.push_back(std::move(b));
    blocks_[after].next = id;
    if (nxt >= 0) {
      blocks_[nxt].prev = id;
    } else {
      tail_ = id;
    }
    return id;
  }

  /// Counted read access, charged to the caller's QueryContext. When an
  /// access hook is installed (external-memory mode, see
  /// xmem::ExternalIndex), the hook runs first.
  const Block& Access(int id, QueryContext& ctx) const {
    ++ctx.block_accesses;
    if (access_hook_) access_hook_(id);
    return blocks_[id];
  }

  /// Installs (or clears, with nullptr) a callback invoked on every
  /// counted block access with the block id. xmem::ExternalIndex uses
  /// this to feed its eviction clock: the paper's "# block accesses"
  /// doubles as the reference bit of the block's mapped pages. The hook
  /// must be thread-safe and must not touch any QueryContext. Must not
  /// race in-flight queries (install/clear while readers are quiescent).
  using AccessHook = std::function<void(int)>;
  void SetAccessHook(AccessHook hook) const {
    access_hook_ = std::move(hook);
  }

  /// Uncounted structural access (see class comment).
  Block& MutableBlock(int id) { return blocks_[id]; }
  const Block& Peek(int id) const { return blocks_[id]; }

  size_t NumBlocks() const { return blocks_.size(); }

  /// Visits blocks from `begin` to `end` (inclusive) following the chain
  /// without counting accesses — callers decide what counts (e.g. the
  /// exact RSMIa traversal checks per-block MBRs "for free" because they
  /// live in the parent node page, then Access()es only matching blocks).
  ///
  /// The scan includes inserted blocks spliced anywhere inside the range,
  /// *including the overflow run of `end` itself*: it stops at the first
  /// non-inserted block past `end`, not at the first seq key past `end`.
  /// Handles begin/end given in either order. `fn(id, block)` returns true
  /// to stop early.
  template <typename Fn>
  void ScanChainRaw(int begin, int end, Fn&& fn) const {
    if (blocks_.empty() || begin < 0 || end < 0) return;
    if (blocks_[begin].seq > blocks_[end].seq) std::swap(begin, end);
    const double stop = blocks_[end].seq;
    for (int cur = begin; cur >= 0; cur = blocks_[cur].next) {
      if (!blocks_[cur].inserted && blocks_[cur].seq > stop) break;
      if (fn(cur, blocks_[cur])) return;
    }
  }

  /// Counted scan over [begin, end] (see ScanChainRaw for range semantics).
  template <typename Fn>
  void ScanRange(int begin, int end, QueryContext& ctx, Fn&& fn) const {
    ScanChainRaw(begin, end, [&](int id, const Block&) {
      fn(Access(id, ctx));
      return false;
    });
  }

  /// Counted scan that stops early when `fn` returns true.
  template <typename Fn>
  void ScanRangeUntil(int begin, int end, QueryContext& ctx,
                      Fn&& fn) const {
    ScanChainRaw(begin, end,
                 [&](int id, const Block&) { return fn(Access(id, ctx)); });
  }

  /// Detaches the chain range [first, last] (given in chain order) and
  /// re-links its neighbors. The range keeps its internal links. Used when
  /// a subtree rebuild replaces a run of blocks (RSMIr, Section 6.2.5).
  void UnlinkRange(int first, int last) {
    const int before = blocks_[first].prev;
    const int after = blocks_[last].next;
    if (before >= 0) blocks_[before].next = after;
    if (after >= 0) blocks_[after].prev = before;
    if (tail_ == last) tail_ = before;
    blocks_[first].prev = -1;
    blocks_[last].next = -1;
  }

  /// Splices a detached run [run_first..run_last] between `before` and
  /// `after` (either may be -1 for head/tail), assigning evenly spaced seq
  /// keys so chain-order comparisons stay correct.
  void SpliceRun(int run_first, int run_last, int before, int after) {
    int count = 0;
    for (int cur = run_first; cur >= 0; cur = blocks_[cur].next) {
      ++count;
      if (cur == run_last) break;
    }
    blocks_[run_first].prev = before;
    blocks_[run_last].next = after;
    if (before >= 0) blocks_[before].next = run_first;
    if (after >= 0) blocks_[after].prev = run_last;
    if (after < 0) tail_ = run_last;
    double lo = 0.0;
    double hi = 0.0;
    if (before >= 0 && after >= 0) {
      lo = blocks_[before].seq;
      hi = blocks_[after].seq;
    } else if (before >= 0) {
      lo = blocks_[before].seq;
      hi = lo + count + 1;
    } else if (after >= 0) {
      hi = blocks_[after].seq;
      lo = hi - count - 1;
    } else {
      lo = -1.0;
      hi = static_cast<double>(count);
    }
    int i = 1;
    for (int cur = run_first; cur >= 0; cur = blocks_[cur].next, ++i) {
      blocks_[cur].seq = lo + (hi - lo) * i / (count + 1);
      if (cur == run_last) break;
    }
  }

  /// Seq key of a block (chain-order comparisons across leaves).
  double SeqOf(int id) const { return blocks_[id].seq; }

  /// Fixed per-block metadata bytes in the on-disk v4 layout (entry
  /// count + chain links + seq + inserted + curve range + mbr).
  static constexpr size_t kDiskMetaBytes =
      sizeof(uint64_t) + sizeof(int32_t) * 2 + sizeof(double) + 1 +
      sizeof(uint64_t) * 2 + sizeof(Rect);

  /// Binary persistence (index save/load, io/serializer.h).
  ///
  /// Container-v4 layout, designed for lazy mmap loads: a dense metadata
  /// run (one kDiskMetaBytes record per block) comes first, then an
  /// explicit pad to the next 8-byte file offset, then every block's
  /// entries concatenated as one contiguous PointEntry region. Opening a
  /// store therefore faults in only the small metadata run; entry pages
  /// fault on first access. The pad byte count is stored (not derived)
  /// because the writer knows its absolute file offset — SaveIndex and
  /// nested shard saves share one Serializer — while a payload reader
  /// only sees payload-relative offsets.
  void WriteTo(Serializer& out) const {
    out.WritePod(capacity_);
    out.WritePod(tail_);
    out.WritePod<uint64_t>(blocks_.size());
    for (const Block& b : blocks_) {
      out.WritePod<uint64_t>(b.entries.size());
      out.WritePod(b.prev);
      out.WritePod(b.next);
      out.WritePod(b.seq);
      out.WritePod(b.inserted);
      out.WritePod(b.cv_lo);
      out.WritePod(b.cv_hi);
      out.WritePod(b.mbr);
    }
    const uint8_t pad = static_cast<uint8_t>(
        (alignof(PointEntry) - (out.size() + 1) % alignof(PointEntry)) %
        alignof(PointEntry));
    out.WritePod(pad);
    for (uint8_t i = 0; i < pad; ++i) out.WritePod<uint8_t>(0);
    for (const Block& b : blocks_) {
      if (!b.entries.empty()) {
        out.WriteBytes(b.entries.data(),
                       b.entries.size() * sizeof(PointEntry));
      }
    }
  }

  bool ReadFrom(Deserializer& in) {
    if (!in.ReadPod(&capacity_) || !in.ReadPod(&tail_)) return false;
    uint64_t n = 0;
    if (!in.ReadPod(&n)) return false;
    // Each block costs exactly kDiskMetaBytes in the metadata run; bound
    // the count by the remaining bytes before allocating.
    if (n > in.remaining() / kDiskMetaBytes) {
      return in.Fail("block count exceeds remaining data");
    }
    blocks_.assign(n, Block{});
    std::vector<uint64_t> counts(n, 0);
    uint64_t total_entries = 0;
    size_t i = 0;
    for (Block& b : blocks_) {
      if (!in.ReadPod(&counts[i]) || !in.ReadPod(&b.prev) ||
          !in.ReadPod(&b.next) || !in.ReadPod(&b.seq) ||
          !in.ReadPod(&b.inserted) || !in.ReadPod(&b.cv_lo) ||
          !in.ReadPod(&b.cv_hi) || !in.ReadPod(&b.mbr)) {
        return false;
      }
      // Chain pointers index blocks_: reject out-of-range ids here so a
      // CRC-valid crafted payload cannot plant an OOB chain walk.
      if (!ValidBlockRef(b.prev) || !ValidBlockRef(b.next)) {
        return in.Fail("block chain pointer out of range");
      }
      // Per-count check before accumulating so a crafted huge count can
      // neither overflow the sum nor trigger a giant allocation.
      if (counts[i] > in.remaining() / sizeof(PointEntry)) {
        return in.Fail("entry count exceeds remaining data");
      }
      total_entries += counts[i];
      if (total_entries > in.remaining() / sizeof(PointEntry)) {
        return in.Fail("entry count exceeds remaining data");
      }
      ++i;
    }
    uint8_t pad = 0;
    if (!in.ReadPod(&pad) || !in.Skip(pad)) return false;
    if (total_entries > in.remaining() / sizeof(PointEntry)) {
      return in.Fail("entry count exceeds remaining data");
    }
    // Zero-copy when the image outlives us (mmap path) and the writer's
    // pad landed the region on a PointEntry boundary; otherwise copy.
    // The alignment check is belt-and-braces for images assembled at odd
    // offsets (hand-built test payloads): misalignment degrades to a
    // copy, never to UB.
    const bool borrow =
        in.borrowable() &&
        reinterpret_cast<uintptr_t>(in.cursor()) % alignof(PointEntry) == 0;
    for (size_t k = 0; k < n; ++k) {
      const size_t bytes = static_cast<size_t>(counts[k]) *
                           sizeof(PointEntry);
      if (borrow) {
        blocks_[k].entries.Borrow(
            reinterpret_cast<const PointEntry*>(in.cursor()),
            static_cast<size_t>(counts[k]));
        if (!in.Skip(bytes)) return false;
      } else {
        std::vector<PointEntry> own(static_cast<size_t>(counts[k]));
        if (bytes > 0 && !in.ReadBytes(own.data(), bytes)) return false;
        blocks_[k].entries = std::move(own);
      }
    }
    if (capacity_ < 1 || !ValidBlockRef(tail_)) {
      return in.Fail("block store header fields out of range");
    }
    return true;
  }

  /// True when `id` is -1 (no block) or a valid index into the store.
  bool ValidBlockRef(int id) const {
    return id >= -1 && id < static_cast<int>(blocks_.size());
  }

  /// Bytes occupied if blocks were written to disk at fixed size:
  /// capacity slots plus a fixed header per block.
  size_t SizeBytes() const {
    constexpr size_t kHeaderBytes =
        sizeof(int32_t) * 2 + sizeof(double) + sizeof(uint64_t) * 2 +
        sizeof(Rect) + sizeof(bool);
    return blocks_.size() *
           (static_cast<size_t>(capacity_) * sizeof(PointEntry) +
            kHeaderBytes);
  }

 private:
  int capacity_;
  int tail_ = -1;
  std::vector<Block> blocks_;
  mutable AccessHook access_hook_;
};

}  // namespace rsmi

#endif  // RSMI_STORAGE_BLOCK_STORE_H_
