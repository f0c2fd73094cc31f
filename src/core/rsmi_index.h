#ifndef RSMI_CORE_RSMI_INDEX_H_
#define RSMI_CORE_RSMI_INDEX_H_

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/pmf.h"
#include "core/rsmi_config.h"
#include "core/spatial_index.h"
#include "geom/point.h"
#include "geom/rect.h"
#include "nn/mlp.h"
#include "storage/block_store.h"

namespace rsmi {

/// The Recursive Spatial Model Index (RSMI) — the paper's primary
/// contribution (Section 3).
///
/// Structure: a tree of MLP sub-models. Internal sub-models map a point's
/// coordinates to the curve value of its cell in a non-regular 2^g x 2^g
/// grid; points are grouped by the *predicted* value, so the partitioning
/// is learned and perfectly reproducible at query time. Leaf sub-models
/// order their points with the rank-space transform, pack every B points
/// into a block, and map coordinates to block ids with recorded maximum
/// error bounds.
///
/// Queries: Algorithm 1 (point), Algorithm 2 (window, approximate with no
/// false positives), Algorithm 3 (kNN with PMF-estimated skew factors).
/// The MBRs stored with every sub-model and block additionally enable the
/// exact variants (RSMIa in Section 6): WindowQueryExact / KnnQueryExact.
/// Updates follow Section 5; RebuildOverflowingSubtrees implements the
/// RSMIr periodic-rebuild variant of Section 6.2.5.
class RsmiIndex : public SpatialIndex {
 public:
  /// Builds the index over `pts` (bulk loading + model training).
  RsmiIndex(const std::vector<Point>& pts, const RsmiConfig& cfg);
  ~RsmiIndex() override;

  RsmiIndex(const RsmiIndex&) = delete;
  RsmiIndex& operator=(const RsmiIndex&) = delete;

  std::string Name() const override { return "RSMI"; }

  // Read path (thread-safe for concurrent readers; see the SpatialIndex
  // contract).
  std::optional<PointEntry> PointQuery(const Point& q,
                                       QueryContext& ctx) const override;
  std::vector<Point> WindowQuery(const Rect& w,
                                 QueryContext& ctx) const override;
  std::vector<Point> KnnQuery(const Point& q, size_t k,
                              QueryContext& ctx) const override;

  /// Batched point lookup: descends all `n` queries level-synchronously,
  /// grouping the points sitting on the same sub-model and evaluating
  /// each group with one vectorized PredictBatch call instead of `n`
  /// scalar model invocations per level. Results and per-op costs are
  /// identical to `n` scalar PointQuery calls (the inference engine is
  /// bit-identical across batch sizes and kernels).
  void PointQueryBatch(const Point* qs, size_t n, QueryContext* ctxs,
                       std::optional<PointEntry>* out) const override;

  /// RSMIa: exact window query via an R-tree-style traversal of the
  /// sub-model MBRs and per-block MBRs (end of Section 4.2).
  std::vector<Point> WindowQueryExact(const Rect& w, QueryContext& ctx) const;

  /// Entry-returning variants of the window queries, for callers that
  /// need the stored record ids (e.g. the extent-object adapter).
  std::vector<PointEntry> WindowQueryEntries(const Rect& w,
                                             QueryContext& ctx) const;
  std::vector<PointEntry> WindowQueryExactEntries(const Rect& w,
                                                  QueryContext& ctx) const;

  /// RSMIa: exact kNN via best-first search over MBRs [40].
  std::vector<Point> KnnQueryExact(const Point& q, size_t k,
                                   QueryContext& ctx) const;

  void InsertOne(const Point& p) override;
  bool DeleteOne(const Point& p) override;

  /// RSMIr: rebuilds every subtree whose leaf grew beyond the partition
  /// threshold (call after every 10%*n insertions, Section 6.2.5).
  /// Returns the number of subtrees rebuilt.
  int RebuildOverflowingSubtrees();

  IndexStats Stats() const override;
  const BlockStore& block_store() const { return store_; }
  void ForEachBlockStore(const BlockStoreVisitor& fn) const override {
    fn(store_);
  }

  /// Installs (or clears, with nullptr) a callback invoked with predicted
  /// global block-id ranges [first, last] the moment the leaf models
  /// predict them — in the batched point path right after each fused
  /// descent chunk (before any block scan of that chunk starts) and in
  /// the window/kNN path right after the corner descents. The external-
  /// memory subsystem (src/xmem/) points this at its async prefetcher so
  /// page faults overlap the remaining inference and scans. The hook must
  /// be thread-safe and must not touch any QueryContext — results and
  /// counted costs are identical with and without a hook (prefetch is
  /// advisory). Install/clear only while readers are quiescent.
  using BlockPrefetchHook = std::function<void(int, int)>;
  void SetBlockPrefetchHook(BlockPrefetchHook hook) const {
    prefetch_hook_ = std::move(hook);
  }

  /// Polymorphic persistence (io/index_container.h): the trained index —
  /// models, blocks, PMFs, and the training configuration — round-trips
  /// bit-identically, so a reloaded index answers every query with the
  /// same results and counted costs and stays fully updatable (including
  /// RSMIr rebuilds). This is the "build offline, query online"
  /// deployment the paper targets (Section 1).
  std::string KindSpec() const override { return "rsmi"; }
  bool SaveTo(Serializer& out) const override;
  bool LoadFrom(Deserializer& in) override;

  /// Uninitialized shell whose state LoadFrom fills — the factory's load
  /// dispatch (MakeIndexShellForLoad) constructs one per "rsmi" spec.
  /// Invalid for anything else until LoadFrom succeeds on it.
  static std::unique_ptr<RsmiIndex> MakeLoadShell() {
    return std::unique_ptr<RsmiIndex>(new RsmiIndex(LoadTag{}));
  }

  /// Maximum leaf-model error bounds across the index, in blocks —
  /// the (err_l, err_a) pair reported by Table 4.
  int MaxErrBelow() const;
  int MaxErrAbove() const;

  /// Checks the block chain (symmetric links, increasing seq keys), every
  /// leaf's block range, and MBR containment of every stored point.
  bool ValidateStructure(std::string* error) const override;

  const RsmiConfig& config() const { return cfg_; }

 private:
  struct Node;
  struct LoadTag {};
  explicit RsmiIndex(LoadTag);  // uninitialized shell filled by LoadFrom

  void WriteNode(Serializer& out, const Node& node) const;
  static std::unique_ptr<Node> ReadNode(Deserializer& in, int depth);

  // --- build ---
  std::unique_ptr<Node> BuildNode(std::vector<PointEntry> pts, int depth);
  std::unique_ptr<Node> BuildInternal(std::vector<PointEntry> pts, int depth);
  std::unique_ptr<Node> BuildLeaf(std::vector<PointEntry> pts);

  /// A leaf whose blocks are packed but whose model still needs training.
  /// Queued during the constructor when build_threads > 1; the jobs are
  /// independent and pre-seeded, so they run on any number of threads
  /// with bit-identical results (see RsmiConfig::build_threads).
  struct LeafTrainJob {
    Node* node;
    std::vector<double> feat;
    std::vector<double> target;
    std::vector<int> local_block;
    MlpTrainConfig train;
  };
  /// Trains one queued leaf model and records its error bounds.
  static void RunLeafTrainJob(LeafTrainJob* job);

  // --- descent helpers ---
  /// Child slot predicted by an internal node's model for point `p`.
  int PredictChildSlot(const Node& node, const Point& p) const;
  /// Local block index predicted by a leaf model (clamped to the leaf).
  int PredictLeafBlock(const Node& leaf, const Point& p) const;
  /// Nearest non-empty child slot for a predicted slot (the DESIGN.md
  /// fallback); shared by the scalar and batched descents so both
  /// resolve the exact same child.
  static int ResolveChildSlot(const Node& node, int slot);
  /// Descent by repeated sub-model invocation (Algorithm 1), falling back
  /// to the nearest non-empty child slot so a leaf is always reached.
  /// Insertions take the same path, which keeps every stored point
  /// findable (DESIGN.md key decision #4).
  const Node* DescendNearest(const Point& p, QueryContext& ctx) const;
  /// Level-synchronous batched descent of `n` points: per level, points
  /// on the same sub-model are evaluated with one PredictBatch call.
  /// Writes each point's leaf into `leaves`; query i's descent costs are
  /// charged to `ctxs[i * ctx_stride]` exactly like a scalar descent —
  /// the window corner probes pass stride 0 to fold them into the
  /// window query's one context.
  void DescendNearestBatch(const Point* qs, size_t n, QueryContext* ctxs,
                           size_t ctx_stride, const Node** leaves) const;
  struct DescentSeg;       // contiguous frontier segment of one sub-model
  struct DescentScratch;   // reusable buffers of the fused descent
  /// One chunk of the fused descent: the frontier is kept as contiguous
  /// segments of a permutation array, each segment advanced with one
  /// predict -> clamp -> stable counting-sort scatter into its child
  /// segments (no per-level re-sort of the batch). Leaf segments charge
  /// their descent costs to `ctxs[i * ctx_stride]` and, when `pb` is
  /// non-null, predict the whole segment's blocks in the same pass
  /// (`pb` entries of <= 1-block leaves must be pre-zeroed; they are
  /// left untouched, like PredictLeafBlock). Results and charges are
  /// identical to scalar descents for any chunk width.
  void DescendFusedChunk(const Point* qs, size_t n, QueryContext* ctxs,
                         size_t ctx_stride, const Node** leaves, int* pb,
                         DescentScratch& ws) const;
  /// Mutable robust descent collecting the root-to-leaf path (insertion
  /// needs it for recursive MBR maintenance, Section 5).
  Node* DescendNearestMutable(const Point& p, std::vector<Node*>* path,
                              QueryContext& ctx);

  /// Predicted global block range of `p` within `leaf`, clamped.
  std::pair<int, int> LeafPredictRange(const Node& leaf,
                                       const Point& p) const;

  /// Locates the entry at exactly position `q` inside `leaf`, expanding
  /// outward from the predicted block (Algorithm 1's scan, nearest
  /// candidate first). Returns false if absent.
  bool FindEntry(const Node& leaf, const Point& q, QueryContext& ctx,
                 int* block_id, size_t* pos) const;
  /// FindEntry with the leaf-model prediction `pb` already computed (the
  /// batched point path predicts whole leaf groups at once).
  bool FindEntryFrom(const Node& leaf, const Point& q, int pb,
                     QueryContext& ctx, int* block_id, size_t* pos) const;

  // --- update strategies (Section 5 + the Section 2 alternatives) ---
  /// Entries packed per block at (re)build time: B * build_fill_factor.
  int EffectiveBlockFill() const;
  /// Binary-searches `leaf`'s insert buffer (kLeafBuffer strategy) for the
  /// entry at exactly `q`; nullptr if absent. Counts one block access when
  /// the buffer is non-empty.
  const PointEntry* FindInBuffer(const Node& leaf, const Point& q,
                                 QueryContext& ctx) const;
  /// FITing-tree merge: rebuilds `leaf` (whose owning slot is found via
  /// `path`) folding its full insert buffer into the packed blocks.
  void MergeLeafBuffer(Node* leaf, const std::vector<Node*>& path);
  /// Adds buffered points inside `w` from every leaf under `node` whose
  /// MBR intersects `w` (one counted access per non-empty buffer).
  void CollectBufferedInWindow(const Node* node, const Rect& w,
                               QueryContext& ctx,
                               std::vector<PointEntry>* out) const;

  /// Block-id range to scan for window `w` (the begin/end bounds computed
  /// by Algorithm 2 from the window-corner point queries).
  std::pair<int, int> WindowBlockRange(const Rect& w, QueryContext& ctx) const;

  // --- stats/maintenance ---
  void CollectLeaves(const Node* node, std::vector<const Node*>* out) const;
  int RebuildWalk(Node* node, int depth);
  void RebuildSubtree(std::unique_ptr<Node>* slot, int depth);

  RsmiConfig cfg_;
  BlockStore store_;
  std::unique_ptr<Node> root_;
  Rect data_bounds_ = Rect::Empty();  // bounds of the build data set
  Pmf pmf_x_;
  Pmf pmf_y_;
  size_t live_points_ = 0;
  int64_t next_id_ = 0;
  size_t num_models_ = 0;
  int height_ = 0;
  uint64_t model_seed_counter_ = 0;
  /// Non-null only while the constructor runs with build_threads > 1:
  /// BuildLeaf queues its training here instead of running it inline.
  std::vector<LeafTrainJob>* leaf_jobs_ = nullptr;
  /// Advisory prediction-to-prefetch bridge (see SetBlockPrefetchHook).
  mutable BlockPrefetchHook prefetch_hook_;
};

}  // namespace rsmi

#endif  // RSMI_CORE_RSMI_INDEX_H_
