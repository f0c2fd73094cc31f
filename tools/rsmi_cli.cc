// rsmi_cli — command-line front end for the RSMI library.
//
// Typical session:
//   rsmi_cli generate --dist=osm --n=100000 --out=/tmp/points.csv
//   rsmi_cli build    --data=/tmp/points.csv --index=/tmp/poi.rsmi
//   rsmi_cli build    --data=/tmp/points.csv --index=/tmp/poi.shard
//                     --shards=4 --shard-inner=rsmi
//   rsmi_cli info     /tmp/poi.shard
//   rsmi_cli stats    --index=/tmp/poi.rsmi
//   rsmi_cli point    --index=/tmp/poi.shard --x=0.31 --y=0.72
//   rsmi_cli window   --index=/tmp/poi.rsmi --rect=0.2,0.2,0.4,0.4
//   rsmi_cli knn      --index=/tmp/poi.rsmi --x=0.5 --y=0.5 --k=10
//   rsmi_cli insert   --index=/tmp/poi.rsmi --data=/tmp/more.csv --rebuild
//   rsmi_cli bench    --data=/tmp/points.csv --queries=500
//   rsmi_cli throughput --data=/tmp/points.csv --threads=8 --queries=5000
//
// Index files are self-describing containers (src/io/index_container.h):
// every command that takes --index loads whatever kind the file embeds —
// plain RSMI, any baseline, or a recursive sharded spec — through the
// polymorphic LoadIndex entry point.
//
// Every command prints one result per line on stdout; diagnostics go to
// stderr. Exit status 0 on success, 1 on usage errors or I/O failure.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <cerrno>
#include <csignal>
#include <unistd.h>

#include "baselines/factory.h"
#include "common/timer.h"
#include "core/rsmi_index.h"
#include "exec/batch_query_engine.h"
#include "data/generators.h"
#include "data/ground_truth.h"
#include "data/io.h"
#include "data/workloads.h"
#include "io/index_container.h"
#include "io/serializer.h"
#include "nn/inference_engine.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/loadgen.h"
#include "server/spatial_server.h"
#include "shard/sharded_index.h"
#include "xmem/external_index.h"
#include "xmem/mapped_container.h"

namespace rsmi {
namespace {

/// Minimal --key=value flag parser; positional arguments are rejected.
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      const char* arg = argv[i];
      if (std::strncmp(arg, "--", 2) != 0) {
        ok_ = false;
        bad_ = arg;
        return;
      }
      const char* eq = std::strchr(arg + 2, '=');
      if (eq == nullptr) {
        values_[std::string(arg + 2)] = "true";
      } else {
        values_[std::string(arg + 2, eq)] = std::string(eq + 1);
      }
    }
  }

  bool ok() const { return ok_; }
  const std::string& bad() const { return bad_; }

  std::string Get(const std::string& key, const std::string& dflt) const {
    auto it = values_.find(key);
    return it == values_.end() ? dflt : it->second;
  }
  double GetDouble(const std::string& key, double dflt) const {
    auto it = values_.find(key);
    return it == values_.end() ? dflt : std::strtod(it->second.c_str(), nullptr);
  }
  int64_t GetInt(const std::string& key, int64_t dflt) const {
    auto it = values_.find(key);
    return it == values_.end() ? dflt
                               : std::strtoll(it->second.c_str(), nullptr, 10);
  }
  bool Has(const std::string& key) const { return values_.count(key) > 0; }

 private:
  std::map<std::string, std::string> values_;
  bool ok_ = true;
  std::string bad_;
};

int Usage() {
  std::fprintf(
      stderr,
      "usage: rsmi_cli <command> [--flags]\n"
      "\n"
      "commands:\n"
      "  generate  --n=COUNT [--dist=uniform|normal|skewed|tiger|osm]\n"
      "            [--seed=S] --out=FILE[.csv|.bin]\n"
      "  build     --data=FILE --index=FILE [--block=100]\n"
      "            [--threshold=10000] [--curve=hilbert|z] [--fill=1.0]\n"
      "            [--strategy=overflow|buffer] [--epochs=300]\n"
      "  info      FILE (or --index=FILE): print the container header —\n"
      "            embedded kind spec, format version, payload size, CRC;\n"
      "            sharded v3 files also list each shard's buffered\n"
      "            delta-log ops (frozen vs. active)\n"
      "  stats     --index=FILE: local index stats, or\n"
      "            --server=HOST:PORT [--format=json|prom] [--slow=N]:\n"
      "            scrape a serving process's metrics registry (JSON or\n"
      "            Prometheus text) plus up to N slow-query-log entries\n"
      "  point     --index=FILE --x=X --y=Y\n"
      "  window    --index=FILE --rect=XLO,YLO,XHI,YHI [--exact]\n"
      "  knn       --index=FILE --x=X --y=Y [--k=10] [--exact]\n"
      "  insert    --index=FILE --data=FILE [--rebuild] [--out=FILE]\n"
      "  delete    --index=FILE --x=X --y=Y [--out=FILE]\n"
      "  bench     --data=FILE [--queries=200] [--k=25] [--area=0.0001]\n"
      "  throughput --data=FILE [--threads=1,8] [--queries=5000] [--k=25]\n"
      "            [--area=0.0001] [--point-frac=0.6] [--window-frac=0.3]\n"
      "            [--write-frac=0]: mixed read/write replay; buffered\n"
      "            writes run without stopping reads on sharded indices\n"
      "  serve     --load=FILE [--port=0] [--threads=4] [--max-batch=16]\n"
      "            [--port-file=FILE] [--slow-query-us=N]: serve the\n"
      "            index file over TCP until SIGINT/SIGTERM (graceful\n"
      "            drain, exit 0); N > 0 records requests slower than N\n"
      "            microseconds into the slow-query log\n"
      "  loadgen   --data=FILE --port=P [--host=127.0.0.1] [--qps=5000]\n"
      "            [--duration=5] [--connections=4] [--deadline-us=0]\n"
      "            [--point-frac=0.6] [--window-frac=0.3] [--k=25]\n"
      "            [--area=0.0001] [--write-frac=0] [--out=FILE]: drive a\n"
      "            target QPS (with a write mix, reported separately as\n"
      "            p99_read_us/p99_write_us) and print p50/p99/p999 +\n"
      "            achieved QPS as JSON\n"
      "\n"
      "remote queries: point/window/knn accept --server=HOST:PORT to run\n"
      "  against a serving process instead of a local file; add --trace\n"
      "  to print the server's per-request spans (admission -> queue ->\n"
      "  [batch_group ->] descent -> reply) as JSON.\n"
      "\n"
      "sharding (build, point, window, knn, bench, throughput):\n"
      "  --shards=K --shard-inner=SPEC [--build-threads=T]\n"
      "            partition the data into K Z-order shards built in\n"
      "            parallel; SPEC is an index kind (rsmi, rsmia, zm,\n"
      "            grid, kdb, hrr, rstar; default rsmi) or a nested\n"
      "            sharded<K>:SPEC.\n"
      "\n"
      "persistence: index files are self-describing containers. `build\n"
      "  --index=FILE` saves whatever was built (including sharded\n"
      "  specs); point/window/knn/stats/insert/delete `--index=FILE`\n"
      "  reload any saved kind without rebuilding. --exact needs an\n"
      "  RSMI-backed index (rsmi/rsmia files).\n"
      "\n"
      "beyond-RAM (point, window, knn, stats, insert, delete):\n"
      "  --mmap    open --index=FILE through the external-memory path:\n"
      "            block payloads stay on disk until queries touch them,\n"
      "            --rss-budget-mb=N (default 256) bounds residency via\n"
      "            the eviction clock, --no-prefetch disables the\n"
      "            model-predicted block prefetcher. Results and\n"
      "            counters are bit-identical to an eager load; `stats\n"
      "            --mmap` also prints the xmem_* residency counters.\n");
  return 1;
}

bool LoadPoints(const std::string& path, std::vector<Point>* out) {
  const bool binary =
      path.size() > 4 && path.compare(path.size() - 4, 4, ".bin") == 0;
  return binary ? LoadPointsBinary(path, out) : LoadPointsCsv(path, out);
}

bool ParseDistribution(const std::string& name, Distribution* out) {
  for (Distribution d : AllDistributions()) {
    std::string n = DistributionName(d);
    for (char& c : n) c = static_cast<char>(std::tolower(c));
    if (n == name) {
      *out = d;
      return true;
    }
  }
  return false;
}

RsmiConfig ConfigFromFlags(const Flags& flags) {
  RsmiConfig cfg;
  cfg.block_capacity = static_cast<int>(flags.GetInt("block", 100));
  cfg.partition_threshold =
      static_cast<int>(flags.GetInt("threshold", 10000));
  cfg.curve = flags.Get("curve", "hilbert") == "z" ? CurveType::kZ
                                                   : CurveType::kHilbert;
  cfg.build_fill_factor = flags.GetDouble("fill", 1.0);
  if (flags.Get("strategy", "overflow") == "buffer") {
    cfg.update_strategy = UpdateStrategy::kLeafBuffer;
  }
  cfg.train.epochs = static_cast<int>(flags.GetInt("epochs", 300));
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  return cfg;
}

/// Shared build parameters of the factory path (sharded builds).
IndexBuildConfig BuildConfigFromFlags(const Flags& flags) {
  IndexBuildConfig cfg;
  cfg.block_capacity = static_cast<int>(flags.GetInt("block", 100));
  cfg.partition_threshold =
      static_cast<int>(flags.GetInt("threshold", 10000));
  cfg.train.epochs = static_cast<int>(flags.GetInt("epochs", 300));
  cfg.seed = static_cast<uint64_t>(flags.GetInt("seed", 42));
  cfg.build_threads = static_cast<int>(flags.GetInt("build-threads", 8));
  return cfg;
}

/// The sharded spec selected by --shards/--shard-inner; empty without
/// --shards.
std::string ShardSpecFromFlags(const Flags& flags) {
  if (!flags.Has("shards")) return "";
  return "sharded<" + std::to_string(flags.GetInt("shards", 4)) + ">:" +
         flags.Get("shard-inner", "rsmi");
}

/// Loads --data and builds the sharded index named by --shards/
/// --shard-inner (parallel shard build); nullptr (with a diagnostic) on
/// bad input.
std::unique_ptr<SpatialIndex> BuildShardedFromFlags(const Flags& flags) {
  const std::string data_path = flags.Get("data", "");
  if (data_path.empty()) {
    std::fprintf(stderr, "--shards needs --data=FILE\n");
    return nullptr;
  }
  std::vector<Point> pts;
  if (!LoadPoints(data_path, &pts)) {
    std::fprintf(stderr, "cannot read %s\n", data_path.c_str());
    return nullptr;
  }
  DeduplicatePositions(&pts, 42);
  const std::string spec = ShardSpecFromFlags(flags);
  std::fprintf(stderr, "building %s over %zu points...\n", spec.c_str(),
               pts.size());
  WallTimer t;
  auto index = MakeIndexFromSpec(spec, pts, BuildConfigFromFlags(flags));
  if (index == nullptr) {
    std::fprintf(stderr, "bad index spec: %s\n", spec.c_str());
    return nullptr;
  }
  std::fprintf(stderr, "built in %.2fs\n", t.ElapsedSeconds());
  return index;
}

int CmdGenerate(const Flags& flags) {
  const size_t n = static_cast<size_t>(flags.GetInt("n", 0));
  const std::string out = flags.Get("out", "");
  if (n == 0 || out.empty()) return Usage();
  Distribution dist = Distribution::kUniform;
  if (!ParseDistribution(flags.Get("dist", "uniform"), &dist)) {
    std::fprintf(stderr, "unknown --dist\n");
    return 1;
  }
  const auto pts =
      GenerateDataset(dist, n, static_cast<uint64_t>(flags.GetInt("seed", 42)));
  const bool binary =
      out.size() > 4 && out.compare(out.size() - 4, 4, ".bin") == 0;
  if (!(binary ? SavePointsBinary(out, pts) : SavePointsCsv(out, pts))) {
    std::fprintf(stderr, "cannot write %s\n", out.c_str());
    return 1;
  }
  std::fprintf(stderr, "wrote %zu points to %s\n", pts.size(), out.c_str());
  return 0;
}

/// Saves any index through the polymorphic container API, with a
/// diagnostic on failure.
bool SaveIndexOrComplain(const SpatialIndex& index, const std::string& path) {
  std::string err;
  if (!SaveIndex(index, path, &err)) {
    std::fprintf(stderr, "cannot save index to %s: %s\n", path.c_str(),
                 err.c_str());
    return false;
  }
  std::fprintf(stderr, "saved %s to %s\n", index.KindSpec().c_str(),
               path.c_str());
  return true;
}

int CmdBuild(const Flags& flags) {
  if (flags.Has("shards")) {
    auto index = BuildShardedFromFlags(flags);
    if (index == nullptr) return 1;
    if (flags.Has("index") &&
        !SaveIndexOrComplain(*index, flags.Get("index", ""))) {
      return 1;
    }
    const IndexStats st = index->Stats();
    std::printf("name=%s points=%zu height=%d models=%zu size_mb=%.2f\n",
                st.name.c_str(), st.num_points, st.height, st.num_models,
                st.size_bytes / 1048576.0);
    if (const auto* sharded =
            dynamic_cast<const ShardedIndex*>(index.get())) {
      for (int i = 0; i < sharded->num_shards(); ++i) {
        std::printf("shard %d: points=%zu\n", i,
                    sharded->shard(i).Stats().num_points);
      }
    }
    return 0;
  }
  const std::string data_path = flags.Get("data", "");
  const std::string index_path = flags.Get("index", "");
  if (data_path.empty() || index_path.empty()) return Usage();
  std::vector<Point> pts;
  if (!LoadPoints(data_path, &pts)) {
    std::fprintf(stderr, "cannot read %s\n", data_path.c_str());
    return 1;
  }
  DeduplicatePositions(&pts, 42);
  std::fprintf(stderr, "building RSMI over %zu points...\n", pts.size());
  WallTimer t;
  RsmiIndex index(pts, ConfigFromFlags(flags));
  std::fprintf(stderr, "built in %.2fs\n", t.ElapsedSeconds());
  if (!SaveIndexOrComplain(index, index_path)) return 1;
  const IndexStats st = index.Stats();
  std::printf("points=%zu height=%d models=%zu size_mb=%.2f err=(%d,%d)\n",
              st.num_points, st.height, st.num_models,
              st.size_bytes / 1048576.0, index.MaxErrBelow(),
              index.MaxErrAbove());
  return 0;
}

/// Loads whatever index kind the --index file embeds (rsmi, baselines,
/// recursive sharded specs) through the polymorphic LoadIndex entry
/// point; nullptr with a diagnostic on failure. With --mmap the file is
/// opened through the beyond-RAM lazy path instead of an eager load:
/// block payloads stay on disk until touched, an RSS budget
/// (--rss-budget-mb, default 256) bounds residency, and model-predicted
/// prefetch runs unless --no-prefetch.
std::unique_ptr<SpatialIndex> LoadIndexOrDie(const Flags& flags) {
  const std::string path = flags.Get("index", "");
  if (path.empty()) return nullptr;
  std::string err;
  std::unique_ptr<SpatialIndex> index;
  if (flags.Has("mmap")) {
    xmem::XmemOptions opts;
    if (flags.Has("rss-budget-mb")) {
      opts.rss_budget_bytes =
          static_cast<size_t>(flags.GetInt("rss-budget-mb", 256)) << 20;
    }
    opts.prefetch = !flags.Has("no-prefetch");
    // CLI commands that mutate re-save the container themselves
    // (insert/delete --out), so the write-behind log would double-apply
    // on the next open; the CLI mmap path is read-oriented.
    opts.write_behind = false;
    index = xmem::ExternalIndex::Open(path, opts, &err);
  } else {
    index = LoadIndex(path, &err);
  }
  if (index == nullptr) {
    std::fprintf(stderr, "cannot load index %s: %s\n", path.c_str(),
                 err.c_str());
  }
  return index;
}

/// Skips one container (header + payload) at `in`'s cursor using only
/// the header's payload length — no payload validation, no index build.
bool SkipContainer(Deserializer& in) {
  if (!in.Skip(8 + 4)) return false;  // magic + version
  std::string spec;
  if (!in.ReadString(&spec)) return false;
  uint64_t payload_len = 0;
  if (!in.ReadPod(&payload_len)) return false;
  if (!in.Skip(4)) return false;  // CRC
  return in.Skip(payload_len);
}

/// Structural walk of a sharded v3 payload: prints each top-level
/// shard's buffered delta-log op counts (frozen vs. active) straight
/// from the recorded split, without replaying the log or building the
/// index. The walk mirrors ShardedIndex::SaveTo's layout: u32 shard
/// count | partitioner (Rect bounds, i32 z-order flag, u64 split vec) |
/// region vec | u64-sized live count | per shard, one nested container
/// followed by its delta log (u64 total, u64 frozen, total ops).
bool PrintShardedDeltaInfo(Deserializer& in) {
  uint32_t k = 0;
  if (!in.ReadPod(&k)) return false;
  if (k < 1 || k > 4096) return false;
  if (!in.Skip(sizeof(Rect) + sizeof(int32_t))) return false;
  std::vector<uint64_t> splits;
  if (!in.ReadVec(&splits)) return false;
  std::vector<Rect> regions;
  if (!in.ReadVec(&regions)) return false;
  if (!in.Skip(sizeof(uint64_t))) return false;  // live-point count
  for (uint32_t i = 0; i < k; ++i) {
    if (!SkipContainer(in)) return false;
    uint64_t nops = 0;
    uint64_t frozen = 0;
    if (!in.ReadPod(&nops) || !in.ReadPod(&frozen)) return false;
    if (frozen > nops) return false;
    if (!in.Skip(nops * (1 + sizeof(Point)))) return false;
    std::printf("shard %-6u delta_ops=%llu (frozen=%llu, active=%llu)\n",
                i, static_cast<unsigned long long>(nops),
                static_cast<unsigned long long>(frozen),
                static_cast<unsigned long long>(nops - frozen));
  }
  return true;
}

int CmdInfo(const Flags& flags, const std::string& positional) {
  const std::string path =
      positional.empty() ? flags.Get("index", "") : positional;
  if (path.empty()) return Usage();
  IndexContainerInfo info;
  std::string err;
  if (!ReadIndexContainerInfo(path, &info, &err)) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  std::printf("spec         %s\n", info.spec.c_str());
  std::printf("version      %u\n", info.version);
  std::printf("payload_mb   %.3f\n", info.payload_bytes / 1048576.0);
  std::printf("payload_crc  %08x\n", info.payload_crc);
  std::printf("file_bytes   %llu\n",
              static_cast<unsigned long long>(info.file_bytes));
  std::printf("kernel       %s\n", ActiveInferenceKernelDescription().c_str());
  // The frozen/active split exists only since v3 (it rides in the delta
  // log itself), so older files just skip the per-shard listing. The walk
  // runs over an mmap of the file, and SkipContainer never dereferences
  // the nested payloads, so a multi-GB container faults in only the few
  // pages holding shard metadata — info never reads the whole file.
  if (info.version >= 3 && info.spec.rfind("sharded<", 0) == 0) {
    auto container = xmem::MappedContainer::Open(path, &err);
    if (container == nullptr) return 0;
    Deserializer payload(container->map().data(), container->map().size());
    std::string spec;
    uint64_t plen = 0;
    if (!payload.Skip(8 + 4) || !payload.ReadString(&spec) ||
        !payload.ReadPod(&plen) || !payload.Skip(4)) {
      return 0;
    }
    if (!PrintShardedDeltaInfo(payload)) {
      std::fprintf(stderr, "sharded payload walk failed (corrupt file?)\n");
    }
  }
  return 0;
}

int RunRemoteStats(const Flags& flags);  // needs ParseServerFlag, below

int CmdStats(const Flags& flags) {
  if (flags.Has("server")) return RunRemoteStats(flags);
  auto index = LoadIndexOrDie(flags);
  if (index == nullptr) return 1;
  const IndexStats st = index->Stats();
  std::printf("spec        %s\n", index->KindSpec().c_str());
  std::printf("name        %s\n", st.name.c_str());
  std::printf("points      %zu\n", st.num_points);
  std::printf("height      %d\n", st.height);
  std::printf("models      %zu\n", st.num_models);
  std::printf("size_mb     %.3f\n", st.size_bytes / 1048576.0);
  std::printf("kernel      %s\n", ActiveInferenceKernelDescription().c_str());
  if (const RsmiIndex* rsmi = UnwrapRsmi(index.get())) {
    std::printf("blocks      %zu\n", rsmi->block_store().NumBlocks());
    std::printf("err_bounds  (%d, %d)\n", rsmi->MaxErrBelow(),
                rsmi->MaxErrAbove());
    std::printf("curve       %s\n", CurveName(rsmi->config().curve).c_str());
    std::printf("block_cap   %d\n", rsmi->config().block_capacity);
    std::printf("threshold   %d\n", rsmi->config().partition_threshold);
  }
  if (auto* ext = dynamic_cast<xmem::ExternalIndex*>(index.get())) {
    const xmem::ResidencyGovernor& gov = ext->governor();
    std::printf("xmem_budget_mb    %.1f\n", gov.budget_bytes() / 1048576.0);
    std::printf("xmem_resident_mb  %.3f\n", gov.ResidentBytes() / 1048576.0);
    std::printf("xmem_faults       %llu\n",
                static_cast<unsigned long long>(gov.first_touches()));
    std::printf("xmem_evictions    %llu\n",
                static_cast<unsigned long long>(gov.evictions()));
    std::printf("xmem_prefetch_hits %llu\n",
                static_cast<unsigned long long>(gov.prefetch_hits()));
    if (const xmem::WriteBehindBuffer* wb = ext->write_behind()) {
      std::printf("xmem_wbl_records  %llu\n",
                  static_cast<unsigned long long>(wb->records_appended()));
    }
  }
  return 0;
}

/// The index a query command runs against: the --index file (any saved
/// kind) when given, else an in-memory sharded build from --data.
std::unique_ptr<SpatialIndex> LoadOrBuildQueryIndex(const Flags& flags) {
  if (flags.Has("index")) return LoadIndexOrDie(flags);
  if (flags.Has("shards")) return BuildShardedFromFlags(flags);
  return nullptr;
}

/// Parses --server=HOST:PORT (host defaults to 127.0.0.1 when the value
/// is just a port).
bool ParseServerFlag(const Flags& flags, std::string* host, uint16_t* port) {
  const std::string spec = flags.Get("server", "");
  if (spec.empty()) return false;
  const size_t colon = spec.rfind(':');
  if (colon == std::string::npos) {
    *host = "127.0.0.1";
    *port = static_cast<uint16_t>(std::strtoul(spec.c_str(), nullptr, 10));
  } else {
    *host = spec.substr(0, colon);
    *port = static_cast<uint16_t>(
        std::strtoul(spec.c_str() + colon + 1, nullptr, 10));
  }
  return *port != 0;
}

/// Scrapes a serving process's metrics registry (`stats --server=...`):
/// sends the kStats control-plane op and prints the merged snapshot as
/// JSON (default) or Prometheus text exposition, with up to --slow=N
/// slow-query-log entries alongside the JSON form.
int RunRemoteStats(const Flags& flags) {
  std::string host;
  uint16_t port = 0;
  if (!ParseServerFlag(flags, &host, &port)) {
    std::fprintf(stderr, "bad --server (want HOST:PORT)\n");
    return 1;
  }
  std::string err;
  auto client = ServerClient::Connect(host, port, &err);
  if (client == nullptr) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  const auto max_slow = static_cast<uint32_t>(flags.GetInt("slow", 0));
  Response resp;
  if (!client->Call(Request::Stats(max_slow), &resp)) {
    std::fprintf(stderr, "connection lost mid-call\n");
    return 1;
  }
  if (!resp.ok() || !resp.stats.has_value()) {
    std::fprintf(stderr, "server error (%s): %s\n",
                 StatusCodeName(resp.status), resp.message.c_str());
    return 1;
  }
  if (flags.Get("format", "json") == "prom") {
    std::printf("%s", resp.stats->ToPrometheus().c_str());
  } else {
    std::printf("{\"metrics\": %s, \"slow_queries\": %s}\n",
                resp.stats->ToJson().c_str(),
                SlowQueryEntriesJson(resp.slow).c_str());
  }
  return 0;
}

/// Runs one read request against a serving process (--server=HOST:PORT)
/// and prints the result in the same shape as the local query commands.
/// With --trace the request opts into server-side span recording and the
/// returned spans print as JSON after the results.
int RunRemoteQuery(const Flags& flags, const Request& req) {
  std::string host;
  uint16_t port = 0;
  if (!ParseServerFlag(flags, &host, &port)) {
    std::fprintf(stderr, "bad --server (want HOST:PORT)\n");
    return 1;
  }
  std::string err;
  auto client = ServerClient::Connect(host, port, &err);
  if (client == nullptr) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  Request traced = req;
  traced.trace = flags.Has("trace");
  Response resp;
  if (!client->Call(traced, &resp)) {
    std::fprintf(stderr, "connection lost mid-call\n");
    return 1;
  }
  if (!resp.ok() && resp.status != StatusCode::kNotFound) {
    std::fprintf(stderr, "server error (%s): %s\n",
                 StatusCodeName(resp.status), resp.message.c_str());
    return 1;
  }
  if (req.type == Request::Type::kPoint) {
    if (!resp.hit.has_value()) {
      std::printf("not found\n");
    } else {
      std::printf("%.17g,%.17g id=%lld\n", resp.hit->pt.x, resp.hit->pt.y,
                  static_cast<long long>(resp.hit->id));
    }
  } else if (req.type == Request::Type::kKnn) {
    for (const Point& p : resp.points) {
      std::printf("%.17g,%.17g dist=%.6g\n", p.x, p.y, Dist(req.pt, p));
    }
    std::fprintf(stderr, "%zu neighbors\n", resp.points.size());
  } else {
    for (const Point& p : resp.points) std::printf("%.17g,%.17g\n", p.x, p.y);
    std::fprintf(stderr, "%zu points (%llu block accesses)\n",
                 resp.points.size(),
                 static_cast<unsigned long long>(resp.cost.block_accesses));
  }
  if (traced.trace) {
    std::printf("%s\n", TraceJson(resp.trace, resp.cost).c_str());
  }
  return 0;
}

int CmdPoint(const Flags& flags) {
  // Cheap argument checks come before the (possibly expensive) build.
  if (!flags.Has("x") || !flags.Has("y")) return Usage();
  if (flags.Has("server")) {
    return RunRemoteQuery(
        flags, Request::PointLookup(
                   {flags.GetDouble("x", 0), flags.GetDouble("y", 0)}));
  }
  std::unique_ptr<SpatialIndex> index = LoadOrBuildQueryIndex(flags);
  if (index == nullptr) return Usage();
  const Point q{flags.GetDouble("x", 0), flags.GetDouble("y", 0)};
  QueryContext ctx;
  const auto hit = index->PointQuery(q, ctx);
  if (!hit.has_value()) {
    std::printf("not found\n");
    return 0;
  }
  std::printf("%.17g,%.17g id=%lld\n", hit->pt.x, hit->pt.y,
              static_cast<long long>(hit->id));
  return 0;
}

bool ParseRect(const std::string& spec, Rect* out) {
  double v[4];
  char c1 = 0;
  char c2 = 0;
  char c3 = 0;
  if (std::sscanf(spec.c_str(), "%lf%c%lf%c%lf%c%lf", &v[0], &c1, &v[1], &c2,
                  &v[2], &c3, &v[3]) != 7) {
    return false;
  }
  *out = Rect{{std::min(v[0], v[2]), std::min(v[1], v[3])},
              {std::max(v[0], v[2]), std::max(v[1], v[3])}};
  return true;
}

int CmdWindow(const Flags& flags) {
  Rect w;
  if (!ParseRect(flags.Get("rect", ""), &w)) return Usage();
  if (flags.Has("server")) {
    return RunRemoteQuery(flags, Request::WindowLookup(w));
  }
  std::unique_ptr<SpatialIndex> index = LoadOrBuildQueryIndex(flags);
  if (index == nullptr) return Usage();
  RsmiIndex* rsmi = UnwrapRsmi(index.get());
  if (flags.Has("exact") && rsmi == nullptr) {
    std::fprintf(stderr,
                 "--exact needs an RSMI-backed index (an rsmi/rsmia file); "
                 "this one is '%s'. For sharded builds use "
                 "--shard-inner=rsmia instead.\n",
                 index->Name().c_str());
    return 1;
  }
  QueryContext ctx;
  WallTimer t;
  const auto result = flags.Has("exact") ? rsmi->WindowQueryExact(w, ctx)
                                         : index->WindowQuery(w, ctx);
  const double us = t.ElapsedMicros();
  for (const Point& p : result) std::printf("%.17g,%.17g\n", p.x, p.y);
  std::fprintf(stderr, "%zu points in %.1f us (%llu block accesses)\n",
               result.size(), us,
               static_cast<unsigned long long>(ctx.block_accesses));
  return 0;
}

int CmdKnn(const Flags& flags) {
  if (!flags.Has("x") || !flags.Has("y")) return Usage();
  if (flags.Has("server")) {
    return RunRemoteQuery(
        flags,
        Request::KnnLookup({flags.GetDouble("x", 0), flags.GetDouble("y", 0)},
                           static_cast<uint32_t>(flags.GetInt("k", 10))));
  }
  std::unique_ptr<SpatialIndex> index = LoadOrBuildQueryIndex(flags);
  if (index == nullptr) return Usage();
  RsmiIndex* rsmi = UnwrapRsmi(index.get());
  if (flags.Has("exact") && rsmi == nullptr) {
    std::fprintf(stderr,
                 "--exact needs an RSMI-backed index (an rsmi/rsmia file); "
                 "this one is '%s'. For sharded builds use "
                 "--shard-inner=rsmia instead.\n",
                 index->Name().c_str());
    return 1;
  }
  const Point q{flags.GetDouble("x", 0), flags.GetDouble("y", 0)};
  const size_t k = static_cast<size_t>(flags.GetInt("k", 10));
  QueryContext ctx;
  WallTimer t;
  const auto result = flags.Has("exact") ? rsmi->KnnQueryExact(q, k, ctx)
                                         : index->KnnQuery(q, k, ctx);
  const double us = t.ElapsedMicros();
  for (const Point& p : result) {
    std::printf("%.17g,%.17g dist=%.6g\n", p.x, p.y, Dist(q, p));
  }
  std::fprintf(stderr, "%zu neighbors in %.1f us\n", result.size(), us);
  return 0;
}

int CmdInsert(const Flags& flags) {
  auto index = LoadIndexOrDie(flags);
  const std::string data_path = flags.Get("data", "");
  if (index == nullptr || data_path.empty()) return Usage();
  std::vector<Point> pts;
  if (!LoadPoints(data_path, &pts)) {
    std::fprintf(stderr, "cannot read %s\n", data_path.c_str());
    return 1;
  }
  WallTimer t;
  // One batch through the primary mutation surface (equivalent to the
  // old per-point loop, minus the per-call overhead).
  UpdateBatch batch;
  batch.ops.reserve(pts.size());
  for (const Point& p : pts) batch.Insert(p);
  const UpdateResult applied = index->ApplyUpdates(batch);
  std::fprintf(stderr, "inserted %llu points in %.2fs\n",
               static_cast<unsigned long long>(applied.applied_inserts),
               t.ElapsedSeconds());
  if (flags.Has("rebuild")) {
    if (RsmiIndex* rsmi = UnwrapRsmi(index.get())) {
      const int rebuilt = rsmi->RebuildOverflowingSubtrees();
      std::fprintf(stderr, "rebuilt %d subtrees\n", rebuilt);
    } else {
      std::fprintf(stderr,
                   "--rebuild is RSMI-only; skipped for '%s'\n",
                   index->Name().c_str());
    }
  }
  // The updated index saves through the same polymorphic path it was
  // loaded from — sharded files stay sharded files.
  const std::string out = flags.Get("out", flags.Get("index", ""));
  if (!SaveIndexOrComplain(*index, out)) return 1;
  std::printf("points=%zu\n", index->Stats().num_points);
  return 0;
}

int CmdDelete(const Flags& flags) {
  auto index = LoadIndexOrDie(flags);
  if (index == nullptr || !flags.Has("x") || !flags.Has("y")) return Usage();
  const Point p{flags.GetDouble("x", 0), flags.GetDouble("y", 0)};
  const bool removed = index->Delete(p);
  std::printf(removed ? "deleted\n" : "not found\n");
  const std::string out = flags.Get("out", flags.Get("index", ""));
  if (removed && !SaveIndexOrComplain(*index, out)) return 1;
  return 0;
}

/// Bench/throughput index over already-loaded points: a saved index of
/// any kind when --index is given, else the sharded spec when --shards
/// is given, else a fresh plain RSMI. nullptr (with a diagnostic) on a
/// bad spec or unloadable file.
std::unique_ptr<SpatialIndex> BuildBenchIndex(const Flags& flags,
                                              const std::vector<Point>& pts) {
  if (flags.Has("index")) return LoadIndexOrDie(flags);
  if (!flags.Has("shards")) {
    return std::make_unique<RsmiIndex>(pts, ConfigFromFlags(flags));
  }
  const std::string spec = ShardSpecFromFlags(flags);
  auto index = MakeIndexFromSpec(spec, pts, BuildConfigFromFlags(flags));
  if (index == nullptr) {
    std::fprintf(stderr, "bad index spec: %s\n", spec.c_str());
  }
  return index;
}

int CmdBench(const Flags& flags) {
  const std::string data_path = flags.Get("data", "");
  if (data_path.empty()) return Usage();
  std::vector<Point> pts;
  if (!LoadPoints(data_path, &pts)) {
    std::fprintf(stderr, "cannot read %s\n", data_path.c_str());
    return 1;
  }
  DeduplicatePositions(&pts, 42);

  WallTimer build_timer;
  std::unique_ptr<SpatialIndex> built = BuildBenchIndex(flags, pts);
  if (built == nullptr) return 1;
  SpatialIndex& index = *built;
  const double build_s = build_timer.ElapsedSeconds();

  const size_t nq = static_cast<size_t>(flags.GetInt("queries", 200));
  const size_t k = static_cast<size_t>(flags.GetInt("k", 25));
  const double area = flags.GetDouble("area", 0.0001);

  const auto points = GenerateQueryPoints(pts, nq, 4242);
  const auto windows = GenerateWindowQueries(pts, nq, area, 1.0, 4242);

  QueryContext pctx;
  WallTimer pt;
  for (const auto& q : points) index.PointQuery(q, pctx);
  const double p_us = pt.ElapsedMicros() / nq;
  const double p_blocks = static_cast<double>(pctx.block_accesses) / nq;

  QueryContext wctx;
  WallTimer wt;
  double recall_sum = 0.0;
  for (const auto& w : windows) {
    const auto got = index.WindowQuery(w, wctx);
    const auto want = BruteForceWindow(pts, w);
    recall_sum += want.empty() ? 1.0
                               : std::min(1.0, static_cast<double>(got.size()) /
                                                   want.size());
  }
  const double w_ms = wt.ElapsedMicros() / 1000.0 / nq;

  QueryContext kctx;
  WallTimer kt;
  for (const auto& q : points) index.KnnQuery(q, k, kctx);
  const double k_ms = kt.ElapsedMicros() / 1000.0 / nq;

  std::printf("n=%zu build_s=%.2f\n", pts.size(), build_s);
  std::printf("point:  %.3f us/query  %.2f blocks/query\n", p_us, p_blocks);
  std::printf("window: %.3f ms/query  recall=%.4f (area=%g)\n", w_ms,
              recall_sum / nq, area);
  std::printf("knn:    %.3f ms/query (k=%zu)\n", k_ms, k);
  return 0;
}


/// Parses "1,2,8" into thread counts; empty/invalid entries are skipped.
std::vector<int> ParseThreadList(const std::string& spec) {
  std::vector<int> out;
  size_t pos = 0;
  while (pos < spec.size()) {
    size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const int v = std::atoi(spec.substr(pos, comma - pos).c_str());
    if (v > 0) out.push_back(v);
    pos = comma + 1;
  }
  return out;
}

int CmdThroughput(const Flags& flags) {
  const std::string data_path = flags.Get("data", "");
  if (data_path.empty()) return Usage();
  std::vector<Point> pts;
  if (!LoadPoints(data_path, &pts)) {
    std::fprintf(stderr, "cannot read %s\n", data_path.c_str());
    return 1;
  }
  DeduplicatePositions(&pts, 42);

  const std::string spec = flags.Has("index")
                               ? "saved index " + flags.Get("index", "")
                           : flags.Has("shards") ? ShardSpecFromFlags(flags)
                                                 : std::string("RSMI");
  std::fprintf(stderr, "preparing %s over %zu points...\n", spec.c_str(),
               pts.size());
  WallTimer build_timer;
  std::unique_ptr<SpatialIndex> built = BuildBenchIndex(flags, pts);
  if (built == nullptr) return 1;
  SpatialIndex& index = *built;
  std::fprintf(stderr, "built in %.2fs\n", build_timer.ElapsedSeconds());

  WorkloadMix mix;
  mix.point_frac = flags.GetDouble("point-frac", 0.6);
  mix.window_frac = flags.GetDouble("window-frac", 0.3);
  mix.window_area = flags.GetDouble("area", 0.0001);
  mix.k = static_cast<uint32_t>(flags.GetInt("k", 25));
  mix.write_frac = flags.GetDouble("write-frac", 0.0);
  const size_t nq = static_cast<size_t>(flags.GetInt("queries", 5000));
  const auto ops = BuildMixedWorkload(
      pts, nq, mix, static_cast<uint64_t>(flags.GetInt("seed", 4242)));

  const auto threads = ParseThreadList(flags.Get("threads", "1,8"));
  if (threads.empty()) return Usage();

  std::printf("%8s %14s %12s %12s %12s %14s\n", "threads", "queries/s",
              "p50_us", "p99_us", "wall_s", "blocks/query");
  // The first row is the speedup baseline for the rest.
  double base_qps = 0.0;
  for (size_t i = 0; i < threads.size(); ++i) {
    BatchQueryEngine engine(threads[i]);
    const BatchQueryStats st = engine.Run(index, ops);
    if (i == 0) base_qps = st.throughput_qps;
    std::printf("%8d %14.0f %12.1f %12.1f %12.3f %14.2f", threads[i],
                st.throughput_qps, st.p50_us, st.p99_us, st.wall_seconds,
                static_cast<double>(st.cost.block_accesses) /
                    static_cast<double>(st.queries));
    if (i > 0 && base_qps > 0.0) {
      std::printf("   (%.2fx)", st.throughput_qps / base_qps);
    }
    std::printf("\n");
  }
  return 0;
}

/// Self-pipe for the serve command: the signal handler writes one byte,
/// the serving thread blocks on the read end. Async-signal-safe (write
/// only) and race-free (a signal before the read still wakes it).
int g_shutdown_pipe[2] = {-1, -1};

void OnShutdownSignal(int /*signo*/) {
  const char byte = 1;
  // The return value is irrelevant: a full pipe means shutdown is
  // already pending.
  [[maybe_unused]] const ssize_t r = ::write(g_shutdown_pipe[1], &byte, 1);
}

int CmdServe(const Flags& flags) {
  const std::string load = flags.Get("load", "");
  if (load.empty()) return Usage();
  ServerOptions opts;
  opts.index_path = load;
  opts.port = static_cast<uint16_t>(flags.GetInt("port", 0));
  opts.threads = static_cast<int>(flags.GetInt("threads", 4));
  opts.max_batch = static_cast<size_t>(flags.GetInt("max-batch", 16));
  opts.slow_query_us =
      static_cast<uint32_t>(flags.GetInt("slow-query-us", 0));

  if (::pipe(g_shutdown_pipe) != 0) {
    std::fprintf(stderr, "cannot create shutdown pipe\n");
    return 1;
  }
  struct sigaction sa;
  std::memset(&sa, 0, sizeof(sa));
  sa.sa_handler = OnShutdownSignal;
  sigemptyset(&sa.sa_mask);
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);

  std::string err;
  auto server = SpatialServer::Start(opts, &err);
  if (server == nullptr) {
    std::fprintf(stderr, "%s\n", err.c_str());
    return 1;
  }
  std::fprintf(stderr, "serving %s on 127.0.0.1:%u with %d workers\n",
               load.c_str(), server->port(), server->threads());
  // Scripts bind port 0 and read the actual port back from this file.
  const std::string port_file = flags.Get("port-file", "");
  if (!port_file.empty()) {
    std::FILE* f = std::fopen(port_file.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", port_file.c_str());
      return 1;
    }
    std::fprintf(f, "%u\n", server->port());
    std::fclose(f);
  }

  char byte = 0;
  while (::read(g_shutdown_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }
  std::fprintf(stderr, "shutting down (draining in-flight requests)...\n");
  server->Stop();
  const ServerStats st = server->stats();
  std::fprintf(stderr,
               "served %llu requests (%llu responses, %llu coalesced in "
               "%llu batches, %llu deadline-expired, %llu rejected, "
               "%llu reloads, %llu slow)\n",
               static_cast<unsigned long long>(st.requests_admitted),
               static_cast<unsigned long long>(st.responses_sent),
               static_cast<unsigned long long>(st.coalesced_requests),
               static_cast<unsigned long long>(st.coalesced_batches),
               static_cast<unsigned long long>(st.deadline_expired),
               static_cast<unsigned long long>(st.requests_rejected),
               static_cast<unsigned long long>(st.reloads),
               static_cast<unsigned long long>(st.slow_queries));
  return 0;
}

int CmdLoadgen(const Flags& flags) {
  const std::string data_path = flags.Get("data", "");
  if (data_path.empty() || !flags.Has("port")) return Usage();
  LoadgenOptions opts;
  if (!LoadPoints(data_path, &opts.data)) {
    std::fprintf(stderr, "cannot read %s\n", data_path.c_str());
    return 1;
  }
  DeduplicatePositions(&opts.data, 42);
  opts.host = flags.Get("host", "127.0.0.1");
  opts.port = static_cast<uint16_t>(flags.GetInt("port", 0));
  opts.target_qps = flags.GetDouble("qps", 5000.0);
  opts.duration_s = flags.GetDouble("duration", 5.0);
  opts.connections = static_cast<int>(flags.GetInt("connections", 4));
  opts.deadline_us = static_cast<uint32_t>(flags.GetInt("deadline-us", 0));
  opts.seed = static_cast<uint64_t>(flags.GetInt("seed", 4242));
  opts.mix.point_frac = flags.GetDouble("point-frac", 0.6);
  opts.mix.window_frac = flags.GetDouble("window-frac", 0.3);
  opts.mix.window_area = flags.GetDouble("area", 0.0001);
  opts.mix.k = static_cast<uint32_t>(flags.GetInt("k", 25));
  opts.mix.write_frac = flags.GetDouble("write-frac", 0.0);

  LoadgenReport report;
  std::string err;
  if (!RunLoadgen(opts, &report, &err)) {
    std::fprintf(stderr, "loadgen failed: %s\n", err.c_str());
    return 1;
  }
  const std::string json = LoadgenReportJson(report);
  std::printf("%s\n", json.c_str());
  const std::string out = flags.Get("out", "");
  if (!out.empty()) {
    std::FILE* f = std::fopen(out.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", out.c_str());
      return 1;
    }
    std::fprintf(f, "%s\n", json.c_str());
    std::fclose(f);
  }
  return 0;
}

int Run(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  // `info` also takes its file as a positional argument.
  std::string positional;
  int first_flag = 2;
  if (cmd == "info" && argc >= 3 && std::strncmp(argv[2], "--", 2) != 0) {
    positional = argv[2];
    first_flag = 3;
  }
  const Flags flags(argc, argv, first_flag);
  if (!flags.ok()) {
    std::fprintf(stderr, "bad argument: %s\n", flags.bad().c_str());
    return Usage();
  }
  if (cmd == "info") return CmdInfo(flags, positional);
  if (cmd == "generate") return CmdGenerate(flags);
  if (cmd == "build") return CmdBuild(flags);
  if (cmd == "stats") return CmdStats(flags);
  if (cmd == "point") return CmdPoint(flags);
  if (cmd == "window") return CmdWindow(flags);
  if (cmd == "knn") return CmdKnn(flags);
  if (cmd == "insert") return CmdInsert(flags);
  if (cmd == "delete") return CmdDelete(flags);
  if (cmd == "bench") return CmdBench(flags);
  if (cmd == "throughput") return CmdThroughput(flags);
  if (cmd == "serve") return CmdServe(flags);
  if (cmd == "loadgen") return CmdLoadgen(flags);
  return Usage();
}

}  // namespace
}  // namespace rsmi

int main(int argc, char** argv) { return rsmi::Run(argc, argv); }
