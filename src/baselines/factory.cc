#include "baselines/factory.h"

#include <cctype>
#include <cstdlib>

#include "baselines/grid_file.h"
#include "baselines/hrr_tree.h"
#include "baselines/kdb_tree.h"
#include "baselines/rstar_tree.h"
#include "baselines/zm_index.h"
#include "shard/sharded_index.h"

namespace rsmi {

const std::vector<IndexKind>& AllIndexKinds() {
  static const std::vector<IndexKind> kAll = {
      IndexKind::kGrid, IndexKind::kHrr,  IndexKind::kKdb, IndexKind::kRstar,
      IndexKind::kRsmi, IndexKind::kRsmia, IndexKind::kZm};
  return kAll;
}

std::string IndexKindName(IndexKind kind) {
  switch (kind) {
    case IndexKind::kGrid:
      return "Grid";
    case IndexKind::kHrr:
      return "HRR";
    case IndexKind::kKdb:
      return "KDB";
    case IndexKind::kRstar:
      return "RR*";
    case IndexKind::kRsmi:
      return "RSMI";
    case IndexKind::kRsmia:
      return "RSMIa";
    case IndexKind::kZm:
      return "ZM";
  }
  return "?";
}

bool HasApproximateQueries(IndexKind kind) {
  return kind == IndexKind::kRsmi || kind == IndexKind::kZm;
}

std::unique_ptr<SpatialIndex> MakeIndex(IndexKind kind,
                                        const std::vector<Point>& pts,
                                        const IndexBuildConfig& cfg) {
  switch (kind) {
    case IndexKind::kGrid: {
      GridConfig c;
      c.block_capacity = cfg.block_capacity;
      return std::make_unique<GridFile>(pts, c);
    }
    case IndexKind::kHrr: {
      HrrConfig c;
      c.block_capacity = cfg.block_capacity;
      c.node_fanout = cfg.block_capacity;  // 100 MBRs per node (Section 6.1)
      return std::make_unique<HrrTree>(pts, c);
    }
    case IndexKind::kKdb: {
      KdbConfig c;
      c.block_capacity = cfg.block_capacity;
      return std::make_unique<KdbTree>(pts, c);
    }
    case IndexKind::kRstar: {
      RStarConfig c;
      c.block_capacity = cfg.block_capacity;
      c.fanout = cfg.block_capacity;
      return std::make_unique<RStarTree>(pts, c);
    }
    case IndexKind::kRsmi:
    case IndexKind::kRsmia: {
      RsmiConfig c;
      c.block_capacity = cfg.block_capacity;
      c.partition_threshold = cfg.partition_threshold;
      c.train = cfg.train;
      c.internal_sample_cap = cfg.internal_sample_cap;
      c.build_threads = cfg.build_threads;
      c.seed = cfg.seed;
      auto impl = std::make_shared<RsmiIndex>(pts, c);
      return kind == IndexKind::kRsmia ? MakeRsmiaView(std::move(impl))
                                       : MakeRsmiView(std::move(impl));
    }
    case IndexKind::kZm: {
      ZmConfig c;
      c.block_capacity = cfg.block_capacity;
      c.train = cfg.train;
      c.sample_cap = cfg.internal_sample_cap;
      c.seed = cfg.seed;
      return std::make_unique<ZmIndex>(pts, c);
    }
  }
  return nullptr;
}

bool ParseIndexKind(const std::string& name, IndexKind* out) {
  std::string lower;
  lower.reserve(name.size());
  for (char c : name) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  for (IndexKind kind : AllIndexKinds()) {
    std::string canon;
    for (char c : IndexKindName(kind)) {
      canon.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    }
    if (lower == canon) {
      *out = kind;
      return true;
    }
  }
  // Aliases: the R*-tree answers to "rstar" besides the legend's "RR*".
  if (lower == "rstar" || lower == "r*") {
    *out = IndexKind::kRstar;
    return true;
  }
  return false;
}

namespace {

/// Splits "sharded<K>:<inner>" into K and the inner spec; false when
/// `spec` does not have the sharded prefix shape at all.
bool ParseShardedSpec(const std::string& spec, int* k,
                      std::string* inner) {
  constexpr char kPrefix[] = "sharded<";
  constexpr size_t kPrefixLen = sizeof(kPrefix) - 1;
  if (spec.compare(0, kPrefixLen, kPrefix) != 0) return false;
  const size_t close = spec.find('>', kPrefixLen);
  if (close == std::string::npos || close + 1 >= spec.size() ||
      spec[close + 1] != ':') {
    return false;
  }
  char* end = nullptr;
  const long n = std::strtol(spec.c_str() + kPrefixLen, &end, 10);
  if (end != spec.c_str() + close || n < 1 || n > 4096) return false;
  *k = static_cast<int>(n);
  *inner = spec.substr(close + 2);
  return true;
}

/// Parse-only validity check (no index is built), recursive like
/// MakeIndexFromSpec itself.
bool IsValidIndexSpec(const std::string& spec) {
  int k = 0;
  std::string inner;
  if (ParseShardedSpec(spec, &k, &inner)) return IsValidIndexSpec(inner);
  IndexKind kind;
  return ParseIndexKind(spec, &kind);
}

}  // namespace

std::unique_ptr<SpatialIndex> MakeIndexFromSpec(const std::string& spec,
                                                const std::vector<Point>& pts,
                                                const IndexBuildConfig& cfg) {
  int k = 0;
  std::string inner_spec;
  if (!ParseShardedSpec(spec, &k, &inner_spec)) {
    IndexKind kind;
    if (!ParseIndexKind(spec, &kind)) return nullptr;
    return MakeIndex(kind, pts, cfg);
  }
  // Reject malformed inner specs before paying for partitioning.
  if (!IsValidIndexSpec(inner_spec)) return nullptr;

  ShardedIndexConfig scfg;
  scfg.num_shards = k;
  scfg.build_threads = cfg.build_threads;
  scfg.query_threads = cfg.query_threads;
  scfg.partition.seed = cfg.seed;
  // Shard builds already run in parallel; keep each inner build
  // single-threaded so K shards x N training threads cannot oversubscribe.
  IndexBuildConfig inner_cfg = cfg;
  inner_cfg.build_threads = 1;
  return std::make_unique<ShardedIndex>(
      pts, scfg,
      [inner_spec, inner_cfg](const std::vector<Point>& shard_pts,
                              int /*shard*/) {
        return MakeIndexFromSpec(inner_spec, shard_pts, inner_cfg);
      });
}

std::unique_ptr<SpatialIndex> MakeRsmiaView(std::shared_ptr<RsmiIndex> impl) {
  return std::make_unique<RsmiaView>(std::move(impl));
}

namespace {

/// Shared-ownership pass-through with the plain (approximate) queries.
class RsmiView : public SpatialIndex {
 public:
  explicit RsmiView(std::shared_ptr<RsmiIndex> impl)
      : impl_(std::move(impl)) {}
  std::string Name() const override { return impl_->Name(); }
  std::optional<PointEntry> PointQuery(const Point& q,
                                       QueryContext& ctx) const override {
    return impl_->PointQuery(q, ctx);
  }
  std::vector<Point> WindowQuery(const Rect& w,
                                 QueryContext& ctx) const override {
    return impl_->WindowQuery(w, ctx);
  }
  std::vector<Point> KnnQuery(const Point& q, size_t k,
                              QueryContext& ctx) const override {
    return impl_->KnnQuery(q, k, ctx);
  }
  void PointQueryBatch(const Point* qs, size_t n, QueryContext* ctxs,
                       std::optional<PointEntry>* out) const override {
    impl_->PointQueryBatch(qs, n, ctxs, out);
  }
  void InsertOne(const Point& p) override { impl_->Insert(p); }
  bool DeleteOne(const Point& p) override { return impl_->Delete(p); }
  IndexStats Stats() const override { return impl_->Stats(); }
  void ForEachBlockStore(const BlockStoreVisitor& fn) const override {
    impl_->ForEachBlockStore(fn);
  }

  std::string KindSpec() const override { return "rsmi"; }
  bool SaveTo(Serializer& out) const override { return impl_->SaveTo(out); }
  bool LoadFrom(Deserializer& in) override { return impl_->LoadFrom(in); }

  RsmiIndex* impl() { return impl_.get(); }

 private:
  std::shared_ptr<RsmiIndex> impl_;
};

}  // namespace

std::unique_ptr<SpatialIndex> MakeRsmiView(std::shared_ptr<RsmiIndex> impl) {
  return std::make_unique<RsmiView>(std::move(impl));
}

std::unique_ptr<SpatialIndex> MakeIndexShellForLoad(const std::string& spec) {
  int k = 0;
  std::string inner;
  if (ParseShardedSpec(spec, &k, &inner)) {
    // The shard count and inner kind both live inside the persisted
    // payload (the partitioner and the nested per-shard containers); the
    // spec is validated here so an unknown inner kind is refused before
    // any payload is touched.
    if (!IsValidIndexSpec(inner)) return nullptr;
    return ShardedIndex::MakeLoadShell();
  }
  IndexKind kind;
  if (!ParseIndexKind(spec, &kind)) return nullptr;
  switch (kind) {
    case IndexKind::kGrid:
      return GridFile::MakeLoadShell();
    case IndexKind::kRstar:
      return RStarTree::MakeLoadShell();
    case IndexKind::kZm:
      return ZmIndex::MakeLoadShell();
    case IndexKind::kRsmi:
      return RsmiIndex::MakeLoadShell();
    case IndexKind::kRsmia:
      return MakeRsmiaView(
          std::shared_ptr<RsmiIndex>(RsmiIndex::MakeLoadShell()));
    case IndexKind::kHrr:
      return HrrTree::MakeLoadShell();
    case IndexKind::kKdb:
      return KdbTree::MakeLoadShell();
  }
  return nullptr;
}

RsmiIndex* UnwrapRsmi(SpatialIndex* index) {
  if (auto* direct = dynamic_cast<RsmiIndex*>(index)) return direct;
  if (auto* rsmia = dynamic_cast<RsmiaView*>(index)) return rsmia->impl();
  if (auto* plain = dynamic_cast<RsmiView*>(index)) return plain->impl();
  return nullptr;
}

}  // namespace rsmi
