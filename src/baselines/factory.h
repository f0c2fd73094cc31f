#ifndef RSMI_BASELINES_FACTORY_H_
#define RSMI_BASELINES_FACTORY_H_

#include <memory>
#include <string>
#include <vector>

#include "core/rsmi_index.h"
#include "core/spatial_index.h"

namespace rsmi {

/// The indices compared in the paper's evaluation (Section 6.1), in the
/// paper's legend order, plus RSMIa (the exact-query RSMI variant added
/// in Section 6.2.3).
enum class IndexKind {
  kGrid,
  kHrr,
  kKdb,
  kRstar,
  kRsmi,
  kRsmia,
  kZm,
};

/// All kinds, legend order.
const std::vector<IndexKind>& AllIndexKinds();

std::string IndexKindName(IndexKind kind);

/// True for the learned indices whose window/kNN answers are approximate
/// (RSMI and ZM); Grid/HRR/KDB/RR* and RSMIa are exact.
bool HasApproximateQueries(IndexKind kind);

/// Shared build parameters. The defaults reproduce the paper's setup
/// (B=100, N=10000); tests and laptop-scale benches shrink them.
struct IndexBuildConfig {
  int block_capacity = 100;
  int partition_threshold = 10000;
  MlpTrainConfig train;
  int internal_sample_cap = 8192;
  uint64_t seed = 42;
  /// Worker threads for RSMI leaf training (bit-identical results at any
  /// count; see RsmiConfig::build_threads). Ignored by the other indices.
  int build_threads = 1;
};

/// The RsmiConfig that MakeIndex builds RSMI and RSMIa with: the shared
/// parameters of `cfg`, RSMI-only knobs at their RsmiConfig defaults.
RsmiConfig RsmiConfigFor(const IndexBuildConfig& cfg);

/// Builds an index of the requested kind over `pts`. For kRsmia this
/// builds a fresh RSMI and wraps it; when benchmarking RSMI and RSMIa
/// together, build one RsmiIndex and use MakeRsmiaView to share it.
std::unique_ptr<SpatialIndex> MakeIndex(IndexKind kind,
                                        const std::vector<Point>& pts,
                                        const IndexBuildConfig& cfg);

/// Parses a kind name ("grid", "hrr", "kdb", "rstar"/"rr*", "rsmi",
/// "rsmia", "zm"; case-insensitive). Returns false on unknown names.
bool ParseIndexKind(const std::string& name, IndexKind* out);

/// Builds an index from a spec string: either a kind name (see
/// ParseIndexKind) or "sharded<K>:<inner-spec>" for a ShardedIndex over
/// K space partitions whose inner indices come from the inner spec —
/// recursively, so "sharded<4>:rsmi", "sharded<8>:zm", and even
/// "sharded<2>:sharded<2>:grid" all work. The sharded build runs on
/// cfg.build_threads workers (the inner builds themselves are then
/// single-threaded so shard parallelism is not oversubscribed).
/// Returns nullptr on a malformed spec. This is how benches and the CLI
/// select sharded variants with zero extra plumbing.
std::unique_ptr<SpatialIndex> MakeIndexFromSpec(const std::string& spec,
                                                const std::vector<Point>& pts,
                                                const IndexBuildConfig& cfg);

/// Load-path dispatch of the persistence API (io/index_container.h):
/// constructs an empty shell of the index kind named by `spec` — the spec
/// embedded in a container header — whose LoadFrom the container reader
/// then fills. Supports every persistable spec: "rsmi", "rsmia", "zm",
/// "grid", "rstar", and "sharded<K>:<inner>" recursively (the sharded
/// shell loads each shard from its own nested container). nullptr on an
/// unknown or non-persistable spec (e.g. "kdb", "hrr").
std::unique_ptr<SpatialIndex> MakeIndexShellForLoad(const std::string& spec);

/// The RsmiIndex behind `index` when it is an RSMI in any packaging — a
/// plain RsmiIndex (e.g. from LoadIndex of an "rsmi" file) or one of the
/// factory's shared-ownership views (RSMI/RSMIa); nullptr otherwise.
/// Lets callers reach RSMI-only surface (exact queries, error bounds,
/// RSMIr rebuilds) behind the polymorphic API.
RsmiIndex* UnwrapRsmi(SpatialIndex* index);

/// RSMIa (Section 6.2.3): a view over an RSMI whose window/kNN queries
/// run the exact MBR-based algorithms.
class RsmiaView : public SpatialIndex {
 public:
  explicit RsmiaView(std::shared_ptr<RsmiIndex> impl)
      : impl_(std::move(impl)) {}

  std::string Name() const override { return "RSMIa"; }
  std::optional<PointEntry> PointQuery(const Point& q,
                                       QueryContext& ctx) const override {
    return impl_->PointQuery(q, ctx);
  }
  std::vector<Point> WindowQuery(const Rect& w,
                                 QueryContext& ctx) const override {
    return impl_->WindowQueryExact(w, ctx);
  }
  std::vector<Point> KnnQuery(const Point& q, size_t k,
                              QueryContext& ctx) const override {
    return impl_->KnnQueryExact(q, k, ctx);
  }
  void PointQueryBatch(const Point* qs, size_t n, QueryContext* ctxs,
                       std::optional<PointEntry>* out) const override {
    impl_->PointQueryBatch(qs, n, ctxs, out);
  }
  void InsertOne(const Point& p) override { impl_->Insert(p); }
  bool DeleteOne(const Point& p) override { return impl_->Delete(p); }
  IndexStats Stats() const override {
    IndexStats s = impl_->Stats();
    s.name = Name();
    return s;
  }
  void ForEachBlockStore(const BlockStoreVisitor& fn) const override {
    impl_->ForEachBlockStore(fn);
  }

  /// Persists/loads through the shared RSMI (the payload is exactly an
  /// "rsmi" payload; the "rsmia" spec restores the exact-query wrapper).
  std::string KindSpec() const override { return "rsmia"; }
  bool SaveTo(Serializer& out) const override { return impl_->SaveTo(out); }
  bool LoadFrom(Deserializer& in) override { return impl_->LoadFrom(in); }

  RsmiIndex* impl() { return impl_.get(); }

 private:
  std::shared_ptr<RsmiIndex> impl_;
};

std::unique_ptr<SpatialIndex> MakeRsmiaView(std::shared_ptr<RsmiIndex> impl);

/// Approximate-query (plain RSMI) view over a shared RsmiIndex, so RSMI
/// and RSMIa can be benchmarked against one build like in the paper.
std::unique_ptr<SpatialIndex> MakeRsmiView(std::shared_ptr<RsmiIndex> impl);

}  // namespace rsmi

#endif  // RSMI_BASELINES_FACTORY_H_
