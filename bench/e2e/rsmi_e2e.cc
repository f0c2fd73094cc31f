// End-to-end benchmark: served latency against a real
// `rsmi_cli serve` child at fixed open-loop rates, the highest rate that
// meets a latency limit, an in-process closed loop, recall, size and
// memory — plus, in a separate traced run, where a request's time goes
// layer by layer.
//
// Usage (run.sh in this directory builds this binary and rsmi_cli in
// Release and passes --cli/--out/--work/--commit):
//
//   rsmi_e2e --cli PATH [--workload NAME|all] [--seed N] [--seconds S]
//            [--trace 0|1] [--smoke] [--out DIR] [--work DIR] [--commit SHA]
//
// --trace 0 runs the untraced end-to-end phases and reports the
// end-to-end metrics; --trace 1 runs the per-layer phases and reports the
// per-layer metrics; without --trace both run. Every metric is printed by
// name with its unit; the last stdout line is one JSON object with the
// keys correct, attempted, failed and metrics. Every answer is checked;
// a wrong answer, an error status or a missing reply counts as failed and
// makes the exit code 1. README.md documents workloads, metrics and the
// trace format.

#include <fcntl.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "baselines/factory.h"
#include "common/rng.h"
#include "data/generators.h"
#include "data/ground_truth.h"
#include "data/workloads.h"
#include "exec/batch_query_engine.h"
#include "exec/request.h"
#include "io/index_container.h"
#include "nn/inference_engine.h"
#include "obs/metrics.h"
#include "server/client.h"
#include "server/wire.h"
#include "shard/sharded_index.h"
#include "xmem/external_index.h"

namespace rsmi {
namespace {

using Clock = std::chrono::steady_clock;

#ifdef NDEBUG
constexpr bool kOptimizedBuild = true;
#else
constexpr bool kOptimizedBuild = false;
#endif

// ---------------------------------------------------------------------------
// Metric schema. BENCHMARK.json at the repository root lists the same
// names and units; every name here must be reported by every run of the
// matching kind, and a run that misses one fails.

struct MetricDef {
  const char* name;
  const char* unit;
};

/// Each workload's data set is fixed, as the paper's real data sets are;
/// `--seed` draws the request streams, windows, kNN points and writes
/// that run against it. Different data would change the index and so
/// every metric, more than run-to-run noise does. The recall sample is
/// fixed too (drawn from this seed), so recall is a pure function of the
/// index and repeats exactly.
constexpr uint64_t kDataSeed = 42;

/// The gated end-to-end metrics: those whose quartile spread over ten
/// seeds stays inside their bound in BENCHMARK.json. closed_qps is the
/// one that moves with execution speed: the served medians sit on the
/// Nagle-held gap between two requests on a connection. The tails and
/// the SLO rate spread wider than any bound a metric may have, and
/// p50_high_us spreads nearly as wide without seeing a slower query;
/// they are measured, printed and saved as recorded metrics
/// (Report::Record), and compare_runs.py shows them.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"p50_low_us", "us"},
    {"closed_qps", "1/s"},
    {"recall_window", "frac"},
    {"recall_knn", "frac"},
    {"index_bytes_per_point", "B"},
    {"server_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"gen.send_lag_p99_us", "us"},
    {"client.encode_ns", "ns"},
    {"client.decode_ns", "ns"},
    {"client.resp_bytes", "B"},
    {"net.transit_us.p50", "us"},
    {"net.transit_us.p99", "us"},
    {"split.gen_lag_us", "us"},
    {"split.client_send_us", "us"},
    {"split.server_queue_us", "us"},
    {"split.server_exec_us", "us"},
    {"split.server_reply_us", "us"},
    {"split.net_transit_us", "us"},
    {"split.client_decode_us", "us"},
    {"server.batch_size.p50", "count"},
    {"server.coalesced_frac", "frac"},
    {"server.queue_us.p99", "us"},
    {"server.exec_us.p99", "us"},
    {"exec.point_us.p50", "us"},
    {"exec.point_us.p99", "us"},
    {"exec.window_us.p50", "us"},
    {"exec.window_us.p99", "us"},
    {"exec.knn_us.p50", "us"},
    {"exec.knn_us.p99", "us"},
    {"shard.shards_per_window", "count"},
    {"shard.merges_per_kwrite", "count"},
    {"shard.epoch_swaps_per_write", "count"},
    {"core.blocks_per_point", "count"},
    {"core.blocks_per_window", "count"},
    {"core.blocks_per_knn", "count"},
    {"core.models_per_point", "count"},
    {"core.results_per_window", "count"},
    {"core.point_scalar_ns", "ns"},
    {"core.point_batch16_ns", "ns"},
    {"nn.predict_ns.b1.leaf_2x51", "ns"},
    {"nn.predict_ns.b64.leaf_2x51", "ns"},
    {"nn.predict_ns.b1.inner_2x33", "ns"},
    {"nn.predict_ns.b64.inner_2x33", "ns"},
    {"io.build_s", "s"},
    {"io.save_s", "s"},
    {"io.load_s", "s"},
    {"io.ready_s", "s"},
    {"io.container_mb", "MB"},
    {"xmem.open_ms", "ms"},
    {"xmem.faults_per_op", "count"},
    {"xmem.evictions_per_s", "1/s"},
    {"xmem.prefetch_hits_per_op", "count"},
    {"xmem.resident_mb", "MB"},
    {"trace.overhead_frac", "frac"},
};

// ---------------------------------------------------------------------------
// Workloads. Each one loads a different layer; README.md has the full
// layer table. All build with the paper's defaults (B=100, partition
// threshold 10000, 300 epochs); windows cover 0.01% of the space with
// aspect 1 and kNN asks for k=25.

struct Workload {
  const char* name;
  Distribution dist;
  size_t points;
  const char* spec;
  double point_frac;   // share of reads that are point lookups
  double window_frac;  // share of reads that are windows; kNN takes the rest
  double write_frac;   // share of all requests that are buffered writes
  double high_qps;     // rate of the `high` phase, about a third of the knee
  double slo_us;       // p99 limit of the SLO search
  bool restart_per_phase;  // fresh server from the saved container per phase
  bool xmem;               // closed loop through xmem::ExternalIndex
  const char* why;
};

/// The served workloads use 60k points so that three set-ups fit in a run.
/// xmem-normal builds once, so it affords the 250k points that make its
/// container span enough default-sized xmem chunks for the residency
/// clock to evict.
const Workload kWorkloads[] = {
    {"point-osm", Distribution::kOsm, 60000, "sharded<4>:rsmi", 1.0, 0.0, 0.0,
     33000, 5000, false, false,
     "point lookups of stored points: coalesced PointQueryBatch, fused "
     "descent and inference; no window, kNN, fan-out or delta work"},
    {"range-skewed", Distribution::kSkewed, 60000, "sharded<4>:rsmi", 0.0, 0.5,
     0.0, 20000, 10000, false, false,
     "windows and kNN one at a time through ExecuteSingle with shard "
     "fan-out and block scans; no coalescing"},
    {"mixed-rw-tiger", Distribution::kTiger, 60000, "sharded<4>:rsmi", 0.6, 0.3,
     0.2, 16000, 10000, true, false,
     "20% buffered writes fill per-shard deltas whose background merges "
     "compete with reads"},
    {"xmem-normal", Distribution::kNormal, 250000, "rsmi", 0.6, 0.3, 0.0, 20000,
     10000, false, true,
     "closed loop through xmem::ExternalIndex under an RSS budget of a "
     "quarter of the container: residency clock, faults and prefetch"},
};

// ---------------------------------------------------------------------------
// Options and phase lengths.

struct Options {
  std::string workload = "all";
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = -1;  // 0: end-to-end phases, 1: per-layer phases, -1: both
  bool smoke = false;
  std::string cli;
  std::string out = ".bench_build/e2e-results";
  std::string work = ".bench_build/e2e-work";
  std::string commit = "unknown";
};

/// How long each phase runs. `--seconds` is the measured time of one run:
/// an end-to-end run spends it 10/30/20/40 on the low phase, the high
/// phase, the SLO probes and the closed loop; a per-layer run spends it
/// 40/40/20 on an untraced high phase, a traced high phase and the xmem
/// closed loop. Warm-ups come on top and are discarded.
struct Phases {
  size_t points = 0;  // 0: the workload's own size
  int setups = 3;
  int opens = 15;  // xmem-normal times this many Opens instead of set-ups
  double warm_s = 0.5;
  double low_qps = 2000;
  double low_s = 0, high_s = 0;
  int probes = 5;
  double probe_s = 0, probe_warm_s = 0.25;
  double closed_s = 0;
  double layer_high_s = 0, layer_closed_s = 0;
  size_t recall_windows = 1000, recall_knn = 500;
  size_t probe_ops = 2000;
  double rate_scale = 1.0;  // applied to every workload's high rate
};

Phases PhasesFor(const Options& o) {
  Phases p;
  if (o.smoke) {
    p.points = 5000;
    p.setups = 1;
    p.opens = 1;
    p.warm_s = 0.25;
    p.low_s = p.high_s = p.probe_s = p.closed_s = 1.0;
    p.probes = 1;
    p.layer_high_s = p.layer_closed_s = 1.0;
    p.recall_windows = 200;
    p.recall_knn = 100;
    p.probe_ops = 300;
    // 5k points cannot feed full-rate write streams without deleting
    // most of the data.
    p.rate_scale = 0.1;
    return p;
  }
  const double s = o.seconds;
  p.low_s = 0.10 * s;
  p.high_s = 0.30 * s;
  p.probe_s = 0.20 * s / p.probes;
  // The closed loop gets the largest share: closed_qps is the gated
  // execution-speed metric, and its windowed median shrugs off host
  // stalls only when they cover less than half of the phase.
  p.closed_s = 0.40 * s;
  p.layer_high_s = 0.40 * s;
  p.layer_closed_s = 0.20 * s;
  return p;
}

// ---------------------------------------------------------------------------
// Small helpers.

double Sec(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

/// Windows of a phase: consecutive runs of at least 1000 samples (so a
/// window's p99 rests on 10 samples beyond it), at most 50 of them.
size_t WindowCount(size_t samples) {
  return std::clamp<size_t>(samples / 1000, 1, 50);
}

/// Splits time-ordered samples into WindowCount consecutive windows and
/// returns the median of the windows' q-quantiles. A shared 4-vCPU VM
/// stalls for milliseconds a few times per second, so a whole-phase p99
/// measures the VM more than the code; a stall moves the windows it
/// falls into, while a backlog that builds up over a phase moves every
/// later window and so the median.
double WindowedQuantile(const std::vector<double>& in_time_order, double q) {
  std::vector<double> per_window;
  const size_t n = in_time_order.size();
  const size_t k = WindowCount(n);
  for (size_t w = 0; w < k; ++w) {
    const auto first =
        in_time_order.begin() + static_cast<ptrdiff_t>(n * w / k);
    const auto last =
        in_time_order.begin() + static_cast<ptrdiff_t>(n * (w + 1) / k);
    if (first != last) per_window.push_back(Quantile({first, last}, q));
  }
  return Quantile(per_window, 0.5);
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// A trace timestamp in microseconds, to the nanosecond.
std::string Us(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string Str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

const char* OpName(Request::Type t) {
  switch (t) {
    case Request::Type::kPoint:
      return "point";
    case Request::Type::kWindow:
      return "window";
    case Request::Type::kKnn:
      return "knn";
    case Request::Type::kInsert:
      return "insert";
    case Request::Type::kDelete:
      return "delete";
    default:
      return "other";
  }
}

bool IsWrite(const Request& r) {
  return r.type == Request::Type::kInsert || r.type == Request::Type::kDelete;
}

/// Keeps probe results observable so the timed loops cannot be elided.
volatile double g_sink = 0;

// ---------------------------------------------------------------------------
// Reporting and accounting.

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
  uint64_t samples = 0;
};

class Report {
 public:
  /// Records a schema metric; `samples` is how many observations it rests on.
  void Add(const std::string& name, double value, uint64_t samples) {
    metrics_.push_back({name, UnitOf(name), std::isfinite(value) ? value : 0,
                        samples});
  }
  /// Records a metric outside the schema (printed and saved, no bound).
  void Record(const std::string& name, double value, const std::string& unit,
            uint64_t samples) {
    recorded_.push_back(
        {name, unit, std::isfinite(value) ? value : 0, samples});
  }
  const std::vector<Metric>& metrics() const { return metrics_; }
  const std::vector<Metric>& recorded() const { return recorded_; }

  static std::string UnitOf(const std::string& name) {
    for (const MetricDef& d : kEndToEnd) {
      if (name == d.name) return d.unit;
    }
    for (const MetricDef& d : kPerLayer) {
      if (name == d.name) return d.unit;
    }
    std::fprintf(stderr, "metric %s is not in the schema\n", name.c_str());
    std::abort();
  }

 private:
  std::vector<Metric> metrics_;
  std::vector<Metric> recorded_;
};

struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;

  void Fail(uint64_t n, const std::string& why) {
    if (n == 0) return;
    failed += n;
    if (errors.size() < 32) errors.push_back(std::to_string(n) + "x " + why);
  }
};

/// Spans recorded around the benchmark's own calls into each layer (set
/// up, probes). Kept in memory and written to the trace file at the end.
struct SpanRecord {
  std::string name;
  std::string parent;
  double start_us;
  double end_us;
};

class SpanLog {
 public:
  explicit SpanLog(Clock::time_point origin) : origin_(origin) {}
  void Add(const std::string& name, const std::string& parent,
           Clock::time_point a, Clock::time_point b) {
    spans_.push_back({name, parent, Sec(a - origin_) * 1e6,
                      Sec(b - origin_) * 1e6});
  }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<SpanRecord> spans_;
};

// ---------------------------------------------------------------------------
// Correctness oracle.

struct PosHash {
  size_t operator()(const Point& p) const {
    uint64_t a = 0;
    uint64_t b = 0;
    std::memcpy(&a, &p.x, sizeof(a));
    std::memcpy(&b, &p.y, sizeof(b));
    return std::hash<uint64_t>()(a ^ (b * 0x9e3779b97f4a7c15ULL));
  }
};
struct PosEq {
  bool operator()(const Point& a, const Point& b) const {
    return SamePosition(a, b);
  }
};
using PointSet = std::unordered_set<Point, PosHash, PosEq>;

/// Checks every answer against what the request may legally return:
/// point hits carry the stored coordinates, window results lie inside the
/// window and are stored points, kNN results are k stored points sorted
/// by distance, and every write applies (every delete hits).
class Oracle {
 public:
  Oracle(const PointSet& data, const std::vector<Request>& stream)
      : data_(data) {
    for (const Request& r : stream) {
      if (r.type == Request::Type::kInsert) inserted_.insert(r.pt);
    }
  }

  bool Check(const Request& req, const Response& resp) const {
    if (resp.id != req.id) return false;
    switch (req.type) {
      case Request::Type::kPoint:
        return resp.status == StatusCode::kOk && resp.hit.has_value() &&
               SamePosition(resp.hit->pt, req.pt);
      case Request::Type::kWindow:
        if (resp.status != StatusCode::kOk) return false;
        for (const Point& p : resp.points) {
          if (!req.window.Contains(p) || !Known(p)) return false;
        }
        return true;
      case Request::Type::kKnn: {
        if (resp.status != StatusCode::kOk || resp.points.size() != req.k) {
          return false;
        }
        double prev = -1.0;
        for (const Point& p : resp.points) {
          const double d = SquaredDist(p, req.pt);
          if (d < prev || !Known(p)) return false;
          prev = d;
        }
        return true;
      }
      case Request::Type::kInsert:
        return resp.status == StatusCode::kOk &&
               resp.update.applied_inserts == 1;
      case Request::Type::kDelete:
        return resp.status == StatusCode::kOk &&
               resp.update.applied_deletes == 1 &&
               resp.update.delete_misses == 0;
      default:
        return false;
    }
  }

 private:
  bool Known(const Point& p) const {
    return data_.count(p) != 0 || inserted_.count(p) != 0;
  }
  const PointSet& data_;
  PointSet inserted_;
};

/// The request stream of one phase: BuildMixedWorkload over the data with
/// the workload's mix. Point lookups never target a point this stream
/// deletes, so a lookup cannot race the delete of its own target.
std::vector<Request> MakeStream(const Workload& w,
                                const std::vector<Point>& data, size_t count,
                                uint64_t seed, bool writes) {
  WorkloadMix mix;
  mix.point_frac = w.point_frac;
  mix.window_frac = w.window_frac;
  mix.k = 25;
  mix.write_frac = writes ? w.write_frac : 0.0;
  mix.buffered_writes = true;
  std::vector<Request> reqs = BuildMixedWorkload(data, count, mix, seed);
  if (mix.write_frac > 0) {
    PointSet deleted;
    for (const Request& r : reqs) {
      if (r.type == Request::Type::kDelete) deleted.insert(r.pt);
    }
    if (deleted.size() * 2 > data.size()) {
      std::fprintf(stderr,
                   "%s: %zu requests would delete over half of %zu points; "
                   "lower the rate or the phase length\n",
                   w.name, count, data.size());
      std::exit(2);
    }
    size_t next = 0;
    for (Request& r : reqs) {
      if (r.type != Request::Type::kPoint || deleted.count(r.pt) == 0) continue;
      while (deleted.count(data[next % data.size()]) != 0) ++next;
      r.pt = data[next++ % data.size()];
    }
  }
  return reqs;
}

// ---------------------------------------------------------------------------
// The server child: `rsmi_cli serve` on the saved container.

class ServerProcess {
 public:
  static std::unique_ptr<ServerProcess> Start(const std::string& cli,
                                              const std::string& index,
                                              const std::string& work,
                                              std::string* error) {
    const std::string port_file = work + "/server.port";
    const std::string log_file = work + "/server.log";
    std::remove(port_file.c_str());
    std::vector<std::string> args = {cli, "serve", "--load=" + index,
                                     "--threads=2", "--port-file=" + port_file};
    std::vector<char*> argv;
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
      *error = std::string("fork: ") + std::strerror(errno);
      return nullptr;
    }
    if (pid == 0) {
      // The server must not outlive the benchmark, even if it crashes.
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      const int fd = ::open(log_file.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                            0644);
      if (fd >= 0) {
        ::dup2(fd, STDOUT_FILENO);
        ::dup2(fd, STDERR_FILENO);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    std::unique_ptr<ServerProcess> s(new ServerProcess(pid));
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    while (Clock::now() < deadline) {
      int status = 0;
      if (::waitpid(pid, &status, WNOHANG) == pid) {
        s->pid_ = -1;
        *error = "server exited during start-up (see " + log_file + ")";
        return nullptr;
      }
      std::ifstream in(port_file);
      std::string line;
      // The newline marks a completely written port file.
      if (in && std::getline(in, line) && !in.eof()) {
        s->port_ = static_cast<uint16_t>(std::atoi(line.c_str()));
        return s;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    *error = "server did not start within 60 s";
    return nullptr;
  }

  ~ServerProcess() { Stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  uint16_t port() const { return port_; }

  /// Peak resident set (VmHWM) of the server so far, MB.
  double PeakRssMb() const {
    std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("VmHWM:", 0) == 0) {
        return std::atof(line.c_str() + 6) / 1024.0;
      }
    }
    return 0.0;
  }

  /// SIGTERM, then waits for the graceful drain. True when the server
  /// exited 0; a server that does not exit within 20 s is killed.
  bool Stop() {
    if (pid_ < 0) return true;
    ::kill(pid_, SIGTERM);
    int status = 0;
    bool exited = false;
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (Clock::now() < deadline) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        exited = true;
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    if (!exited) {
      ::kill(pid_, SIGKILL);
      ::waitpid(pid_, &status, 0);
    }
    pid_ = -1;
    return exited && WIFEXITED(status) && WEXITSTATUS(status) == 0;
  }

 private:
  explicit ServerProcess(pid_t pid) : pid_(pid) {}
  pid_t pid_;
  uint16_t port_ = 0;
};

bool ScrapeStats(uint16_t port, MetricsSnapshot* out) {
  auto client = ServerClient::Connect("127.0.0.1", port);
  if (client == nullptr) return false;
  client->SetReceiveTimeout(10000);
  Response resp;
  if (!client->Call(Request::Stats(), &resp) || !resp.ok() ||
      !resp.stats.has_value()) {
    return false;
  }
  *out = std::move(*resp.stats);
  return true;
}

double CounterDelta(const MetricsSnapshot& after, const MetricsSnapshot& before,
                    const std::string& name) {
  return static_cast<double>(after.ValueOf(name) - before.ValueOf(name));
}

/// Histogram of what `names` observed between two scrapes, merged.
MetricSample HistogramDelta(const MetricsSnapshot& after,
                            const MetricsSnapshot& before,
                            const std::vector<std::string>& names) {
  MetricSample d;
  d.kind = MetricSample::Kind::kHistogram;
  d.buckets.assign(Histogram::kBuckets, 0);
  for (const std::string& name : names) {
    const MetricSample* a = after.Find(name);
    if (a == nullptr) continue;
    const MetricSample* b = before.Find(name);
    d.count += a->count - (b != nullptr ? b->count : 0);
    d.sum += a->sum - (b != nullptr ? b->sum : 0);
    for (size_t i = 0; i < a->buckets.size() && i < d.buckets.size(); ++i) {
      const uint64_t prev =
          b != nullptr && i < b->buckets.size() ? b->buckets[i] : 0;
      d.buckets[i] += a->buckets[i] - prev;
    }
  }
  return d;
}

// ---------------------------------------------------------------------------
// Open-loop load over the wire: 2 connections, each with one sender and
// one receiver thread. Request i is due at start + i/rate; its latency
// runs from that due time, so a stall delays every request behind it.

/// One request's timeline, seconds since the schedule start. Senders
/// write the send fields, receivers the rest; nothing is read until both
/// threads of the connection have been joined.
struct Slot {
  double send0 = 0;  // send call entered
  double send1 = 0;  // send call returned
  double recv = 0;   // response frame fully read
  double dec = 0;    // response decoded
  uint8_t state = 0;  // 0 unanswered, 1 correct, 2 wrong or error status
  std::vector<TraceSpan> spans;
};

struct OpenLoopRun {
  double rate = 0;
  size_t first_measured = 0;  // earlier ids are the warm-up
  std::vector<Slot> slots;
  uint64_t bad_frames = 0;  // undecodable, unknown or duplicate ids

  double Due(size_t i) const { return static_cast<double>(i) / rate; }
};

constexpr int kConnections = 2;

OpenLoopRun RunOpenLoop(uint16_t port, const std::vector<Request>& reqs,
                        double rate, double warm_s, const Oracle& oracle) {
  OpenLoopRun run;
  run.rate = rate;
  run.first_measured = static_cast<size_t>(std::ceil(warm_s * rate));
  run.slots.resize(reqs.size());
  std::vector<std::unique_ptr<ServerClient>> clients;
  for (int c = 0; c < kConnections; ++c) {
    auto client = ServerClient::Connect("127.0.0.1", port);
    if (client == nullptr) return run;
    // Generous: an overloaded SLO probe drains its backlog after the last
    // send, and only a dead server should end a receiver early.
    client->SetReceiveTimeout(30000);
    clients.push_back(std::move(client));
  }
  std::vector<uint64_t> bad(kConnections, 0);
  const auto start = Clock::now() + std::chrono::milliseconds(20);
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      ServerClient& client = *clients[static_cast<size_t>(c)];
      for (size_t i = static_cast<size_t>(c); i < reqs.size();
           i += kConnections) {
        const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(run.Due(i)));
        std::this_thread::sleep_until(due);
        Slot& s = run.slots[i];
        s.send0 = Sec(Clock::now() - start);
        if (!client.Send(reqs[i])) break;
        s.send1 = Sec(Clock::now() - start);
      }
      client.ShutdownWrite();
    });
    threads.emplace_back([&, c] {
      const int fd = clients[static_cast<size_t>(c)]->fd();
      std::vector<uint8_t> payload;
      for (;;) {
        if (ReadFrame(fd, kMaxResponseFrameBytes, &payload) !=
            FrameReadResult::kOk) {
          break;  // EOF after the server drained, or a dead connection
        }
        const double recv = Sec(Clock::now() - start);
        Response resp;
        const bool decoded =
            DecodeResponse(payload.data(), payload.size(), &resp);
        const double dec = Sec(Clock::now() - start);
        if (!decoded || resp.id >= reqs.size() ||
            resp.id % kConnections != static_cast<uint64_t>(c) ||
            run.slots[resp.id].state != 0) {
          ++bad[static_cast<size_t>(c)];
          continue;
        }
        Slot& s = run.slots[resp.id];
        s.recv = recv;
        s.dec = dec;
        s.state = oracle.Check(reqs[resp.id], resp) ? 1 : 2;
        s.spans = std::move(resp.trace);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (uint64_t b : bad) run.bad_frames += b;
  return run;
}

/// Latency statistics of the measured (post-warm-up) part of a run.
struct PhaseStats {
  std::string label;
  double rate = 0;
  double duration_s = 0;
  uint64_t sent = 0;
  uint64_t measured = 0;
  uint64_t failed = 0;
  std::vector<double> lat_us;
  std::vector<double> lag_us;
  std::vector<double> write_lat_us;
  double p50_us = 0, p99_us = 0, p99_all_us = 0, p999_us = 0, lag_p99_us = 0;
  double drain_s = 0;  // last reply after the last scheduled send
  bool pass = false;   // meets the SLO-probe conditions

  void Finish(double slo_us) {
    p50_us = Quantile(lat_us, 0.50);
    p99_us = WindowedQuantile(lat_us, 0.99);
    p99_all_us = Quantile(lat_us, 0.99);
    p999_us = Quantile(lat_us, 0.999);
    lag_p99_us = WindowedQuantile(lag_us, 0.99);
    pass = p99_us <= slo_us && failed == 0 && drain_s <= 1.0 &&
           lag_p99_us <= 1000.0;
  }

  std::string Json() const {
    std::ostringstream o;
    o << "{\"label\": " << Str(label) << ", \"rate\": " << Num(rate)
      << ", \"duration_s\": " << Num(duration_s) << ", \"sent\": " << sent
      << ", \"measured\": " << measured << ", \"failed\": " << failed
      << ", \"p50_us\": " << Num(p50_us) << ", \"p99_us\": " << Num(p99_us)
      << ", \"p99_all_us\": " << Num(p99_all_us)
      << ", \"p999_us\": " << Num(p999_us)
      << ", \"lag_p99_us\": " << Num(lag_p99_us)
      << ", \"drain_s\": " << Num(drain_s)
      << ", \"pass\": " << (pass ? "true" : "false") << "}";
    return o.str();
  }
};

PhaseStats Summarize(const std::string& label, const OpenLoopRun& run,
                     const std::vector<Request>& reqs, double dur_s,
                     double slo_us, Tally* tally) {
  PhaseStats st;
  st.label = label;
  st.rate = run.rate;
  st.duration_s = dur_s;
  st.sent = reqs.size();
  uint64_t unanswered = 0;
  uint64_t wrong = 0;
  double last_reply = 0;
  for (size_t i = 0; i < run.slots.size(); ++i) {
    const Slot& s = run.slots[i];
    if (s.state == 0) {
      ++unanswered;
      continue;
    }
    if (s.state == 2) ++wrong;
    last_reply = std::max(last_reply, s.dec);
    if (i < run.first_measured) continue;
    const double lat = (s.dec - run.Due(i)) * 1e6;
    st.lat_us.push_back(lat);
    st.lag_us.push_back((s.send0 - run.Due(i)) * 1e6);
    if (IsWrite(reqs[i])) st.write_lat_us.push_back(lat);
  }
  st.measured = st.lat_us.size();
  st.failed = unanswered + wrong + run.bad_frames;
  st.drain_s =
      reqs.empty() ? 0 : last_reply - run.Due(reqs.size() - 1);
  tally->attempted += reqs.size();
  tally->Fail(unanswered, label + ": unanswered requests");
  tally->Fail(wrong, label + ": wrong answers or error statuses");
  tally->Fail(run.bad_frames, label + ": undecodable or unexpected replies");
  st.Finish(slo_us);
  return st;
}

// ---------------------------------------------------------------------------
// In-process closed loop: 2 threads call ExecuteReadRequest back to back.

struct ClosedStats {
  double qps = 0;               // median of the windows' rates
  std::vector<double> lat_us;   // measured calls, in start-time order
  uint64_t ops = 0;             // all calls, warm-up included
};

ClosedStats RunClosedLoop(const SpatialIndex& index,
                          const std::vector<Request>& reads, double warm_s,
                          double dur_s, const Oracle& oracle, Tally* tally,
                          const std::function<void()>& tick) {
  constexpr int kThreads = 2;
  // Every 16th answer is checked; checking all would spend the loop's
  // time in the oracle instead of the index.
  constexpr size_t kCheckEvery = 16;
  const auto start = Clock::now();
  const auto measure_from =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(warm_s));
  const auto end = measure_from + std::chrono::duration_cast<Clock::duration>(
                                      std::chrono::duration<double>(dur_s));
  struct PerThread {
    std::vector<std::pair<double, double>> samples;  // (start s, latency us)
    uint64_t ops = 0, checked = 0, wrong = 0;
  };
  std::vector<PerThread> per(kThreads);
  std::atomic<bool> done{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Counters stay on this thread's stack until the loop ends, so the
      // two threads share no cache line while they are measured.
      PerThread mine;
      for (size_t i = static_cast<size_t>(t);; i += kThreads) {
        const auto t0 = Clock::now();
        if (t0 >= end) break;
        const Request& req = reads[i % reads.size()];
        const Response resp = ExecuteReadRequest(index, req);
        const auto t1 = Clock::now();
        ++mine.ops;
        if (t0 >= measure_from && t1 <= end) {
          mine.samples.emplace_back(Sec(t0 - measure_from),
                                    Sec(t1 - t0) * 1e6);
        }
        if ((i / kThreads) % kCheckEvery == 0) {
          ++mine.checked;
          if (!oracle.Check(req, resp)) ++mine.wrong;
        }
      }
      per[static_cast<size_t>(t)] = std::move(mine);
    });
  }
  std::thread sampler([&] {
    while (!done.load()) {
      tick();
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
  for (std::thread& t : threads) t.join();
  done.store(true);
  sampler.join();
  ClosedStats st;
  std::vector<std::pair<double, double>> samples;
  for (const PerThread& p : per) {
    samples.insert(samples.end(), p.samples.begin(), p.samples.end());
    st.ops += p.ops;
    tally->attempted += p.checked;
    tally->Fail(p.wrong, "closed loop: wrong answers");
  }
  std::sort(samples.begin(), samples.end());
  const size_t k = WindowCount(samples.size());
  std::vector<double> window_qps(k, 0.0);
  const double window_s = dur_s / static_cast<double>(k);
  for (const auto& [start_s, lat] : samples) {
    st.lat_us.push_back(lat);
    const size_t w = std::min(k - 1, static_cast<size_t>(start_s / window_s));
    window_qps[w] += 1.0 / window_s;
  }
  st.qps = Quantile(window_qps, 0.5);
  return st;
}

// ---------------------------------------------------------------------------
// Per-layer probes, in process, one thread.

/// ns per PredictBatch call of an MLP with the given production shape and
/// seeded weights, median of 7 repetitions.
double PredictNs(int hidden, size_t batch, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> w1(static_cast<size_t>(hidden) * 2), b1(hidden),
      w2(hidden);
  for (double& v : w1) v = rng.Uniform(-24, 24);
  for (double& v : b1) v = rng.Uniform(-24, 24);
  for (double& v : w2) v = rng.Uniform(-1, 1);
  InferenceEngine engine(2, hidden, w1.data(), b1.data(), w2.data(),
                         rng.Uniform(-1, 1));
  std::vector<double> xs(2 * batch), out(batch);
  for (double& v : xs) v = rng.Uniform();
  const size_t calls = std::max<size_t>(1, 100000 / batch);
  std::vector<double> reps;
  double sink = 0;
  for (int r = 0; r < 7; ++r) {
    const auto t0 = Clock::now();
    for (size_t c = 0; c < calls; ++c) {
      engine.PredictBatch(xs.data(), batch, out.data());
      sink += out[0];
    }
    reps.push_back(Sec(Clock::now() - t0) * 1e9 / static_cast<double>(calls));
  }
  g_sink = g_sink + sink;
  return Quantile(reps, 0.5);
}

/// Median-of-5 ns per item of `body` run over `n` items.
double MedianNsPerItem(size_t n, const std::function<void()>& body) {
  std::vector<double> reps;
  for (int r = 0; r < 5; ++r) {
    const auto t0 = Clock::now();
    body();
    reps.push_back(Sec(Clock::now() - t0) * 1e9 / static_cast<double>(n));
  }
  return Quantile(reps, 0.5);
}

// ---------------------------------------------------------------------------
// One workload run.

class WorkloadRun {
 public:
  WorkloadRun(const Options& o, const Phases& ph, const Workload& w,
              Clock::time_point origin)
      : o_(o), ph_(ph), w_(w), high_qps_(w.high_qps * ph.rate_scale),
        points_(ph.points != 0 ? ph.points : w.points), spans_(origin) {
    index_path_ = o.work + "/" + w.name + ".idx";
  }

  /// Runs the requested phases; false on a set-up error (no metrics).
  bool Run(bool e2e, bool layers) {
    if (!Setup(e2e ? ph_.setups : 1)) return false;
    if (e2e) EndToEnd();
    if (layers) Layers();
    StopServer();
    // Every schema metric of the phases that ran must be present.
    std::vector<MetricDef> expected;
    if (e2e) {
      expected.insert(expected.end(), std::begin(kEndToEnd),
                      std::end(kEndToEnd));
    }
    if (layers) {
      expected.insert(expected.end(), std::begin(kPerLayer),
                      std::end(kPerLayer));
    }
    for (const MetricDef& d : expected) {
      bool found = false;
      for (const Metric& m : report_.metrics()) {
        found = found || m.name == d.name;
      }
      if (!found) tally_.Fail(1, std::string("metric missing: ") + d.name);
    }
    return true;
  }

  const Report& report() const { return report_; }
  const Tally& tally() const { return tally_; }
  const std::string& error() const { return error_; }

  std::string ResultsJson() const {
    std::ostringstream o;
    o << "{\"why\": " << Str(w_.why) << ", \"spec\": " << Str(w_.spec)
      << ", \"points\": " << points_ << ", \"attempted\": "
      << tally_.attempted << ", \"failed\": " << tally_.failed
      << ", \"errors\": [";
    for (size_t i = 0; i < tally_.errors.size(); ++i) {
      o << (i ? ", " : "") << Str(tally_.errors[i]);
    }
    o << "], \"metrics\": {";
    bool first = true;
    for (const auto* list : {&report_.metrics(), &report_.recorded()}) {
      for (const Metric& m : *list) {
        o << (first ? "" : ", ") << Str(m.name) << ": {\"value\": "
          << Num(m.value) << ", \"unit\": " << Str(m.unit)
          << ", \"n\": " << m.samples << "}";
        first = false;
      }
    }
    o << "}, \"phases\": [";
    for (size_t i = 0; i < phases_.size(); ++i) {
      o << (i ? ", " : "") << phases_[i].Json();
    }
    o << "]}";
    return o.str();
  }

  /// trace-<workload>.json: set-up and probe spans plus one record per
  /// traced request (every `stride`-th when there are many).
  void WriteTrace(const std::string& path) const {
    std::ofstream f(path);
    f << "{\"workload\": " << Str(w_.name) << ", \"seed\": " << o_.seed
      << ", \"time_unit\": \"us\",\n \"spans\": [";
    for (size_t i = 0; i < spans_.spans().size(); ++i) {
      const SpanRecord& s = spans_.spans()[i];
      f << (i ? ",\n  " : "\n  ") << "[" << Str(s.name) << ", "
        << Us(s.start_us) << ", " << Us(s.end_us) << ", " << Str(s.parent)
        << "]";
    }
    f << "],\n \"requests_traced\": " << traced_records_.size()
      << ", \"requests_written\": ";
    constexpr size_t kMaxRecords = 20000;
    const size_t stride = std::max<size_t>(
        1, (traced_records_.size() + kMaxRecords - 1) / kMaxRecords);
    f << (traced_records_.size() + stride - 1) / stride
      << ",\n \"requests\": [";
    for (size_t i = 0; i < traced_records_.size(); i += stride) {
      f << (i ? ",\n  " : "\n  ") << traced_records_[i];
    }
    f << "]}\n";
  }

 private:
  // --- set-up -------------------------------------------------------------

  /// Generate + build + save + server ready, `times` times; setup_s is the
  /// median. The last set-up's index, container and server are kept.
  /// xmem-normal builds once: what it sets up before its closed loop is
  /// ExternalIndex::Open, so its setup_s is the median of ph_.opens Opens.
  bool Setup(int times) {
    if (w_.xmem) times = 1;
    std::vector<double> total, gen, build, save, ready;
    for (int s = 0; s < times; ++s) {
      StopServer();
      const auto t0 = Clock::now();
      data_ = GenerateDataset(w_.dist, points_, kDataSeed);
      const auto t1 = Clock::now();
      IndexBuildConfig cfg;  // the paper's defaults
      cfg.build_threads = 4;
      auto index = MakeIndexFromSpec(w_.spec, data_, cfg);
      const auto t2 = Clock::now();
      std::string err;
      if (index == nullptr || !SaveIndex(*index, index_path_, &err)) {
        error_ = "cannot build or save " + index_path_ + ": " + err;
        return false;
      }
      const auto t3 = Clock::now();
      if (!StartServer()) return false;
      const auto t4 = Clock::now();
      spans_.Add("setup.generate", "setup", t0, t1);
      spans_.Add("setup.build", "setup", t1, t2);
      spans_.Add("setup.save", "setup", t2, t3);
      spans_.Add("setup.server_ready", "setup", t3, t4);
      spans_.Add("setup", "", t0, t4);
      total.push_back(Sec(t4 - t0));
      gen.push_back(Sec(t1 - t0));
      build.push_back(Sec(t2 - t1));
      save.push_back(Sec(t3 - t2));
      ready.push_back(Sec(t4 - t3));
    }
    build_s_ = Quantile(build, 0.5);
    save_s_ = Quantile(save, 0.5);
    ready_s_ = Quantile(ready, 0.5);
    builds_ = total.size();
    report_.Record("generate_s", Quantile(gen, 0.5), "s", builds_);
    container_bytes_ = std::filesystem::file_size(index_path_);
    if (w_.xmem) {
      std::vector<double> opens;
      for (int i = 0; i < ph_.opens; ++i) {
        const auto t0 = Clock::now();
        std::string err;
        const auto x = xmem::ExternalIndex::Open(index_path_, XmemOpts(), &err);
        const auto t1 = Clock::now();
        if (x == nullptr) {
          error_ = "cannot open " + index_path_ + " through xmem: " + err;
          return false;
        }
        spans_.Add("setup.xmem_open", "setup", t0, t1);
        opens.push_back(Sec(t1 - t0));
      }
      total = std::move(opens);
    }
    setup_s_ = Quantile(total, 0.5);
    setups_ = total.size();

    known_ = PointSet(data_.begin(), data_.end());
    const auto t0 = Clock::now();
    std::string err;
    loaded_ = LoadIndex(index_path_, &err);
    load_s_ = Sec(Clock::now() - t0);
    spans_.Add("io.load", "probe", t0, Clock::now());
    if (loaded_ == nullptr) {
      error_ = "cannot load " + index_path_ + ": " + err;
      return false;
    }
    return true;
  }

  bool StartServer() {
    std::string err;
    server_ = ServerProcess::Start(o_.cli, index_path_, o_.work, &err);
    if (server_ == nullptr) {
      error_ = err;
      return false;
    }
    return true;
  }

  void StopServer() {
    if (server_ == nullptr) return;
    if (!server_->Stop()) tally_.Fail(1, "server did not drain and exit 0");
    server_.reset();
  }

  // --- served phases ------------------------------------------------------

  /// One open-loop phase at `rate`: warm-up plus `dur_s` measured seconds,
  /// exactly rate x (warm + dur) requests, none repeated. kStats scrapes
  /// before and after reconcile admitted requests with those sent.
  PhaseStats Served(const std::string& label, double rate, double dur_s,
                    double warm_s, bool traced, OpenLoopRun* raw = nullptr,
                    std::vector<Request>* stream_out = nullptr,
                    MetricsSnapshot* before_out = nullptr,
                    MetricsSnapshot* after_out = nullptr) {
    if (w_.restart_per_phase) StopServer();
    if (server_ == nullptr && !StartServer()) {
      tally_.Fail(1, label + ": server start failed: " + error_);
      return PhaseStats{};
    }
    const size_t count =
        static_cast<size_t>(std::ceil(rate * (warm_s + dur_s)));
    std::vector<Request> stream =
        MakeStream(w_, data_, count, o_.seed * 7919 + ++stream_seq_, true);
    for (Request& r : stream) r.trace = traced;
    const Oracle oracle(known_, stream);
    MetricsSnapshot before, after;
    const bool scraped = ScrapeStats(server_->port(), &before);
    const auto t0 = Clock::now();
    OpenLoopRun run =
        RunOpenLoop(server_->port(), stream, rate, warm_s, oracle);
    spans_.Add("phase." + label, "served", t0, Clock::now());
    if (!scraped || !ScrapeStats(server_->port(), &after)) {
      tally_.Fail(1, label + ": kStats scrape failed");
    } else {
      const double admitted =
          CounterDelta(after, before, "server.requests_admitted");
      if (admitted != static_cast<double>(stream.size())) {
        tally_.Fail(1, label + ": server admitted " + Num(admitted) +
                           " requests, sent " + std::to_string(stream.size()));
      }
    }
    PhaseStats st = Summarize(label, run, stream, dur_s, w_.slo_us, &tally_);
    phases_.push_back(st);
    if (raw != nullptr) *raw = std::move(run);
    if (stream_out != nullptr) *stream_out = std::move(stream);
    if (before_out != nullptr) *before_out = std::move(before);
    if (after_out != nullptr) *after_out = std::move(after);
    return st;
  }

  /// Highest rate whose probe meets the SLO: bisection on a log scale
  /// between the high rate and 4x it (between a quarter of it and it when
  /// the high phase itself misses).
  double SloSearch(const PhaseStats& high) {
    double lo = std::log(high_qps_);
    double hi = std::log(4 * high_qps_);
    if (!high.pass) {
      hi = lo;
      lo = std::log(high_qps_ / 4);
    }
    for (int p = 0; p < ph_.probes; ++p) {
      const double mid = (lo + hi) / 2;
      const PhaseStats st = Served("slo" + std::to_string(p), std::exp(mid),
                                   ph_.probe_s, ph_.probe_warm_s, false);
      (st.pass ? lo : hi) = mid;
    }
    return std::exp(lo);
  }

  // --- end-to-end run -----------------------------------------------------

  void EndToEnd() {
    report_.Add("setup_s", setup_s_, setups_);
    const PhaseStats low =
        Served("low", ph_.low_qps, ph_.low_s, ph_.warm_s, false);
    report_.Add("p50_low_us", low.p50_us, low.measured);
    report_.Record("p99_low_us", low.p99_us, "us", low.measured);
    const PhaseStats high =
        Served("high", high_qps_, ph_.high_s, ph_.warm_s, false);
    report_.Record("p50_high_us", high.p50_us, "us", high.measured);
    report_.Record("p99_high_us", high.p99_us, "us", high.measured);
    report_.Record("p99_high_all_us", high.p99_all_us, "us", high.measured);
    report_.Record("p999_high_us", high.p999_us, "us", high.measured);
    report_.Record("lag_p99_high_us", high.lag_p99_us, "us", high.measured);
    if (w_.write_frac > 0) {
      report_.Record("p99_write_us", Quantile(high.write_lat_us, 0.99), "us",
                     high.write_lat_us.size());
    }
    // Read before the SLO probes, whose overload backlog would count.
    report_.Add("server_rss_mb",
                server_ != nullptr ? server_->PeakRssMb() : 0.0, 1);
    report_.Record("slo_qps", SloSearch(high), "1/s",
                   static_cast<uint64_t>(ph_.probes));

    ClosedLoopAndXmem(ph_.closed_s, /*e2e=*/true);
    Recall();
    report_.Add("index_bytes_per_point",
                static_cast<double>(container_bytes_) /
                    static_cast<double>(data_.size()),
                1);
  }

  /// xmem options of every Open: an RSS budget of a quarter of the
  /// container, the default chunk size, no write-behind log.
  xmem::XmemOptions XmemOpts() const {
    xmem::XmemOptions xo;
    xo.rss_budget_bytes = container_bytes_ / 4;
    xo.write_behind = false;
    xo.apply_env_overrides = false;
    return xo;
  }

  /// The closed loop runs on the eager LoadIndex copy, or — xmem-normal —
  /// on the container opened through xmem::ExternalIndex (XmemOpts).
  /// Opening the container lazily is timed on every workload
  /// (xmem.open_ms).
  void ClosedLoopAndXmem(double dur_s, bool e2e) {
    const auto t0 = Clock::now();
    std::string err;
    std::unique_ptr<xmem::ExternalIndex> x =
        xmem::ExternalIndex::Open(index_path_, XmemOpts(), &err);
    const auto t1 = Clock::now();
    spans_.Add("xmem.open", "probe", t0, t1);
    open_ms_ = Sec(t1 - t0) * 1e3;
    if (x == nullptr) {
      tally_.Fail(1, "xmem open failed: " + err);
      return;
    }
    if (!w_.xmem) x.reset();
    if (!e2e && x == nullptr) return;

    const std::vector<Request> reads = MakeStream(
        w_, data_, 20000, o_.seed * 7919 + 1000, /*writes=*/false);
    const Oracle oracle(known_, reads);
    const SpatialIndex& index =
        x != nullptr ? static_cast<const SpatialIndex&>(*x) : *loaded_;
    uint64_t faults0 = 0, evict0 = 0, hits0 = 0;
    if (x != nullptr) {
      faults0 = x->governor().first_touches();
      evict0 = x->governor().evictions();
      hits0 = x->governor().prefetch_hits();
    }
    size_t peak_resident = 0;
    const auto c0 = Clock::now();
    const ClosedStats st =
        RunClosedLoop(index, reads, ph_.warm_s, dur_s, oracle, &tally_, [&] {
          if (x != nullptr) {
            peak_resident =
                std::max(peak_resident, x->governor().ResidentBytes());
          }
        });
    const auto c1 = Clock::now();
    spans_.Add("closed_loop", "probe", c0, c1);
    if (e2e) {
      report_.Add("closed_qps", st.qps, st.lat_us.size());
      report_.Record("closed_p50_us", Quantile(st.lat_us, 0.5), "us",
                     st.lat_us.size());
      report_.Record("closed_p99_us", WindowedQuantile(st.lat_us, 0.99), "us",
                     st.lat_us.size());
    }
    if (x != nullptr) {
      xmem::ResidencyGovernor& gov = x->governor();
      const double ops = static_cast<double>(std::max<uint64_t>(1, st.ops));
      xmem_faults_per_op_ =
          static_cast<double>(gov.first_touches() - faults0) / ops;
      xmem_evictions_per_s_ =
          static_cast<double>(gov.evictions() - evict0) / Sec(c1 - c0);
      // Chunks first touched after a prefetch warmed them: faults the
      // prefetcher took off the query path.
      xmem_prefetch_hits_per_op_ =
          static_cast<double>(gov.prefetch_hits() - hits0) / ops;
      xmem_resident_mb_ = static_cast<double>(peak_resident) / (1 << 20);
      xmem_ops_ = st.ops;
      // Lazy loading must not change answers: compare a sample with the
      // eager copy.
      uint64_t mismatches = 0;
      const size_t sample = std::min<size_t>(reads.size(), 512);
      for (size_t i = 0; i < sample; ++i) {
        const Response a = ExecuteReadRequest(*x, reads[i]);
        const Response b = ExecuteReadRequest(*loaded_, reads[i]);
        const bool same_hit =
            a.hit.has_value() == b.hit.has_value() &&
            (!a.hit.has_value() || (SamePosition(a.hit->pt, b.hit->pt) &&
                                    a.hit->id == b.hit->id));
        bool same_points = a.points.size() == b.points.size();
        for (size_t j = 0; same_points && j < a.points.size(); ++j) {
          same_points = SamePosition(a.points[j], b.points[j]);
        }
        if (a.status != b.status || !same_hit || !same_points) ++mismatches;
      }
      tally_.attempted += sample;
      tally_.Fail(mismatches, "xmem answers differ from the eager copy");
    }
  }

  /// Recall of windows and kNN against brute force over the data, on the
  /// served container; results must also be stored points (no false
  /// positives). Micro-averaged: matched results / true results. The
  /// sample does not depend on --seed (kDataSeed).
  void Recall() {
    const auto t0 = Clock::now();
    const std::vector<Rect> windows = GenerateWindowQueries(
        data_, ph_.recall_windows, 0.0001, 1.0, kDataSeed * 31 + 1);
    uint64_t hit = 0, truth_total = 0, wrong = 0;
    for (const Rect& w : windows) {
      QueryContext ctx;
      const std::vector<Point> res = loaded_->WindowQuery(w, ctx);
      const std::vector<Point> truth = BruteForceWindow(data_, w);
      const PointSet t(truth.begin(), truth.end());
      for (const Point& p : res) {
        if (t.count(p) == 0) {
          ++wrong;
        } else {
          ++hit;
        }
      }
      truth_total += truth.size();
    }
    const std::vector<Point> qs =
        GenerateQueryPoints(data_, ph_.recall_knn, kDataSeed * 31 + 2);
    constexpr size_t kK = 25;
    uint64_t knn_hit = 0;
    for (const Point& q : qs) {
      QueryContext ctx;
      const std::vector<Point> res = loaded_->KnnQuery(q, kK, ctx);
      const std::vector<Point> truth = BruteForceKnn(data_, q, kK);
      knn_hit += static_cast<uint64_t>(
          std::llround(RecallOf(res, truth) * static_cast<double>(kK)));
      if (res.size() != kK) ++wrong;
      for (const Point& p : res) {
        if (known_.count(p) == 0) ++wrong;
      }
    }
    spans_.Add("recall", "probe", t0, Clock::now());
    tally_.attempted += windows.size() + qs.size();
    tally_.Fail(wrong, "recall: results outside the brute-force truth");
    report_.Add("recall_window",
                truth_total == 0 ? 1.0
                                 : static_cast<double>(hit) /
                                       static_cast<double>(truth_total),
                truth_total);
    report_.Add("recall_knn",
                static_cast<double>(knn_hit) /
                    static_cast<double>(std::max<size_t>(1, qs.size() * kK)),
                qs.size() * kK);
  }

  // --- per-layer run ------------------------------------------------------

  void Layers() {
    MetricsSnapshot before, after;
    std::vector<Request> stream;
    const PhaseStats untraced =
        Served("layers.untraced", high_qps_, ph_.layer_high_s, ph_.warm_s,
               false, nullptr, &stream, &before, &after);
    ServerLayer(untraced, stream, before, after);

    OpenLoopRun traced_run;
    std::vector<Request> traced_stream;
    const PhaseStats traced =
        Served("layers.traced", high_qps_, ph_.layer_high_s, ph_.warm_s,
               true, &traced_run, &traced_stream);
    TraceSplit(traced_run, traced_stream);
    report_.Add("trace.overhead_frac",
                untraced.p50_us > 0 ? traced.p50_us / untraced.p50_us - 1 : 0,
                traced.measured);

    ExecAndCoreProbes();
    ClientProbes();
    NnProbes();
    ClosedLoopAndXmem(ph_.layer_closed_s, /*e2e=*/false);
    report_.Add("io.build_s", build_s_, builds_);
    report_.Add("io.save_s", save_s_, builds_);
    report_.Add("io.load_s", load_s_, 1);
    report_.Add("io.ready_s", ready_s_, builds_);
    report_.Add("io.container_mb",
                static_cast<double>(container_bytes_) / (1 << 20), 1);
    report_.Add("xmem.open_ms", open_ms_, 1);
    report_.Add("xmem.faults_per_op", xmem_faults_per_op_, xmem_ops_);
    report_.Add("xmem.evictions_per_s", xmem_evictions_per_s_, xmem_ops_);
    report_.Add("xmem.prefetch_hits_per_op", xmem_prefetch_hits_per_op_,
                xmem_ops_);
    report_.Add("xmem.resident_mb", xmem_resident_mb_, xmem_ops_);
  }

  /// Server-side counters of the untraced phase (kStats diffs).
  void ServerLayer(const PhaseStats& st, const std::vector<Request>& stream,
                   const MetricsSnapshot& before,
                   const MetricsSnapshot& after) {
    report_.Add("gen.send_lag_p99_us", st.lag_p99_us, st.measured);
    const MetricSample batch =
        HistogramDelta(after, before, {"server.batch_size"});
    report_.Add("server.batch_size.p50", batch.Percentile(0.5), batch.count);
    const MetricSample point_queue =
        HistogramDelta(after, before, {"server.queue_us.point"});
    report_.Add("server.coalesced_frac",
                point_queue.count == 0
                    ? 0.0
                    : CounterDelta(after, before,
                                   "server.coalesced_requests") /
                          static_cast<double>(point_queue.count),
                point_queue.count);
    const std::vector<std::string> kinds = {"point", "window", "knn", "other"};
    std::vector<std::string> queue_names, exec_names;
    for (const std::string& k : kinds) {
      queue_names.push_back("server.queue_us." + k);
      exec_names.push_back("server.exec_us." + k);
    }
    const MetricSample queue = HistogramDelta(after, before, queue_names);
    const MetricSample exec = HistogramDelta(after, before, exec_names);
    report_.Add("server.queue_us.p99", queue.Percentile(0.99), queue.count);
    report_.Add("server.exec_us.p99", exec.Percentile(0.99), exec.count);
    uint64_t writes = 0;
    for (const Request& r : stream) writes += IsWrite(r) ? 1 : 0;
    const double w = static_cast<double>(writes);
    report_.Add("shard.merges_per_kwrite",
                writes == 0 ? 0.0
                            : CounterDelta(after, before, "shard.merges") /
                                  (w / 1000.0),
                writes);
    report_.Add("shard.epoch_swaps_per_write",
                writes == 0 ? 0.0
                            : CounterDelta(after, before, "shard.epoch_swaps") /
                                  w,
                writes);
  }

  /// Splits traced requests by layer. Each request's time runs from its
  /// due time: gen.lag (due -> send call), client.send, client.wait (send
  /// returned -> reply frame read), client.recv_decode. The server's spans
  /// sit inside client.wait; what of the wait they do not cover is
  /// net.transit (loopback TCP both ways, the server's frame read and
  /// request decode, the reply's encode and write, the receiver's
  /// wake-up). The split.* metrics average each part's self time over the
  /// requests between the 45th and 55th latency percentile, so they add
  /// up to the latency of a median request.
  void TraceSplit(const OpenLoopRun& run, const std::vector<Request>& stream) {
    struct Parts {
      double total, lag, send, queue, exec, reply, transit, decode;
    };
    std::vector<Parts> parts;
    std::vector<double> transit;
    for (size_t i = run.first_measured; i < run.slots.size(); ++i) {
      const Slot& s = run.slots[i];
      if (s.state != 1 || s.spans.empty()) continue;
      Parts p{};
      const double due = run.Due(i);
      p.total = (s.dec - due) * 1e6;
      p.lag = (s.send0 - due) * 1e6;
      p.send = (s.send1 - s.send0) * 1e6;
      p.decode = (s.dec - s.recv) * 1e6;
      double server_end = 0;
      for (const TraceSpan& sp : s.spans) {
        const double d = static_cast<double>(sp.end_us - sp.start_us);
        if (sp.name == "admission" || sp.name == "queue") {
          p.queue += d;
        } else if (sp.name == "batch_group" || sp.name == "descent") {
          p.exec += d;
        } else if (sp.name == "reply") {
          p.reply += d;
        }
        server_end = std::max(server_end, static_cast<double>(sp.end_us));
      }
      p.transit = (s.recv - s.send1) * 1e6 - server_end;
      parts.push_back(p);
      transit.push_back(p.transit);
      traced_records_.push_back(TraceRecord(i, run, stream[i]));
    }
    report_.Add("net.transit_us.p50", Quantile(transit, 0.5), transit.size());
    report_.Add("net.transit_us.p99", Quantile(transit, 0.99), transit.size());
    std::sort(parts.begin(), parts.end(),
              [](const Parts& a, const Parts& b) { return a.total < b.total; });
    const size_t lo = parts.size() * 45 / 100;
    const size_t hi = std::max(lo + 1, parts.size() * 55 / 100);
    Parts band{};
    size_t n = 0;
    for (size_t i = lo; i < hi && i < parts.size(); ++i, ++n) {
      band.total += parts[i].total;
      band.lag += parts[i].lag;
      band.send += parts[i].send;
      band.queue += parts[i].queue;
      band.exec += parts[i].exec;
      band.reply += parts[i].reply;
      band.transit += parts[i].transit;
      band.decode += parts[i].decode;
    }
    const double k = n == 0 ? 0.0 : 1.0 / static_cast<double>(n);
    report_.Add("split.gen_lag_us", band.lag * k, n);
    report_.Add("split.client_send_us", band.send * k, n);
    report_.Add("split.server_queue_us", band.queue * k, n);
    report_.Add("split.server_exec_us", band.exec * k, n);
    report_.Add("split.server_reply_us", band.reply * k, n);
    report_.Add("split.net_transit_us", band.transit * k, n);
    report_.Add("split.client_decode_us", band.decode * k, n);
    std::vector<double> totals;
    for (const Parts& p : parts) totals.push_back(p.total);
    const double p50 = Quantile(totals, 0.5);
    const double server_and_net =
        (band.queue + band.exec + band.reply + band.transit) * k;
    report_.Record("trace.p50_us", p50, "us", totals.size());
    report_.Record("trace.server_plus_transit_us", server_and_net, "us", n);
    report_.Record("trace.split_sum_us", band.total * k, "us", n);
  }

  /// One traced request as [name, start_us, end_us, parent] spans, times
  /// since the phase's schedule start. The response carries the server's
  /// spans as offsets from its own admission, not absolute times; they
  /// are placed centred in client.wait, i.e. assuming equal transit both
  /// ways.
  static std::string TraceRecord(size_t i, const OpenLoopRun& run,
                                 const Request& req) {
    const Slot& s = run.slots[i];
    const double due = run.Due(i) * 1e6;
    const double send0 = s.send0 * 1e6, send1 = s.send1 * 1e6;
    const double recv = s.recv * 1e6, dec = s.dec * 1e6;
    double server_end = 0;
    for (const TraceSpan& sp : s.spans) {
      server_end = std::max(server_end, static_cast<double>(sp.end_us));
    }
    const double origin = send1 + (recv - send1 - server_end) / 2;
    std::ostringstream o;
    auto span = [&](const std::string& name, double a, double b,
                    const char* parent) {
      o << ", [" << Str(name) << ", " << Us(a) << ", " << Us(b) << ", "
        << Str(parent) << "]";
    };
    o << "{\"id\": " << i << ", \"op\": " << Str(OpName(req.type))
      << ", \"spans\": [[\"request\", " << Us(due) << ", " << Us(dec)
      << ", \"\"]";
    span("gen.lag", due, send0, "request");
    span("client.send", send0, send1, "request");
    span("client.wait", send1, recv, "request");
    for (const TraceSpan& sp : s.spans) {
      span("server." + sp.name, origin + static_cast<double>(sp.start_us),
           origin + static_cast<double>(sp.end_us), "client.wait");
    }
    span("client.recv_decode", recv, dec, "request");
    o << "]}";
    return o.str();
  }

  /// ExecuteReadRequest on the eager copy, one thread, every read kind —
  /// whatever the workload's own mix — plus the QueryContext counts and
  /// the scalar vs batched point lookup.
  void ExecAndCoreProbes() {
    const auto t0 = Clock::now();
    const size_t m = ph_.probe_ops;
    const uint64_t seed = o_.seed * 31 + 5;
    const std::vector<Point> pts = GenerateQueryPoints(data_, m, seed);
    const std::vector<Rect> wins =
        GenerateWindowQueries(data_, m, 0.0001, 1.0, seed + 1);
    const std::vector<Point> knn = GenerateQueryPoints(data_, m, seed + 2);
    std::vector<Request> reqs;
    for (const Point& p : pts) reqs.push_back(Request::PointLookup(p));
    for (const Rect& w : wins) reqs.push_back(Request::WindowLookup(w));
    for (const Point& p : knn) reqs.push_back(Request::KnnLookup(p, 25));
    for (size_t i = 0; i < reqs.size(); ++i) reqs[i].id = i;
    const Oracle oracle(known_, reqs);
    std::vector<double> lat[3];
    QueryContext cost[3];
    uint64_t results[3] = {0, 0, 0};
    uint64_t wrong = 0;
    for (size_t i = 0; i < reqs.size(); ++i) {
      const size_t kind = i / m;
      const auto a = Clock::now();
      const Response resp = ExecuteReadRequest(*loaded_, reqs[i]);
      lat[kind].push_back(Sec(Clock::now() - a) * 1e6);
      cost[kind].MergeFrom(resp.cost);
      results[kind] += resp.points.size();
      if (!oracle.Check(reqs[i], resp)) ++wrong;
    }
    tally_.attempted += reqs.size();
    tally_.Fail(wrong, "exec probe: wrong answers");
    const char* names[3] = {"point", "window", "knn"};
    for (size_t k = 0; k < 3; ++k) {
      report_.Add(std::string("exec.") + names[k] + "_us.p50",
                  Quantile(lat[k], 0.5), m);
      report_.Add(std::string("exec.") + names[k] + "_us.p99",
                  Quantile(lat[k], 0.99), m);
    }
    const double dm = static_cast<double>(m);
    report_.Add("core.blocks_per_point",
                static_cast<double>(cost[0].block_accesses) / dm, m);
    report_.Add("core.blocks_per_window",
                static_cast<double>(cost[1].block_accesses) / dm, m);
    report_.Add("core.blocks_per_knn",
                static_cast<double>(cost[2].block_accesses) / dm, m);
    report_.Add("core.models_per_point",
                static_cast<double>(cost[0].model_invocations) / dm, m);
    report_.Add("core.results_per_window", static_cast<double>(results[1]) / dm,
                m);

    double shards = 0;
    const auto* sharded = dynamic_cast<const ShardedIndex*>(loaded_.get());
    for (const Rect& w : wins) {
      if (sharded == nullptr) {
        shards += 1;
        continue;
      }
      for (int s = 0; s < sharded->num_shards(); ++s) {
        shards += sharded->shard_region(s).Intersects(w) ? 1 : 0;
      }
    }
    report_.Add("shard.shards_per_window", shards / dm, m);

    const size_t batch_n = m / 16 * 16;
    uint64_t misses = 0;
    const double scalar = MedianNsPerItem(batch_n, [&] {
      for (size_t i = 0; i < batch_n; ++i) {
        QueryContext ctx;
        misses += loaded_->PointQuery(pts[i], ctx).has_value() ? 0 : 1;
      }
    });
    const double batched = MedianNsPerItem(batch_n, [&] {
      QueryContext ctxs[16];
      std::optional<PointEntry> out[16];
      for (size_t i = 0; i < batch_n; i += 16) {
        loaded_->PointQueryBatch(&pts[i], 16, ctxs, out);
        for (const auto& h : out) misses += h.has_value() ? 0 : 1;
      }
    });
    tally_.attempted += 10 * batch_n;
    tally_.Fail(misses, "core probe: stored points not found");
    report_.Add("core.point_scalar_ns", scalar, batch_n);
    report_.Add("core.point_batch16_ns", batched, batch_n);
    spans_.Add("probe.exec_core", "probe", t0, Clock::now());
  }

  /// Wire encode/decode of the workload's own read mix.
  void ClientProbes() {
    const auto t0 = Clock::now();
    const std::vector<Request> reqs = MakeStream(
        w_, data_, ph_.probe_ops, o_.seed * 31 + 9, /*writes=*/false);
    std::vector<std::vector<uint8_t>> payloads;
    double bytes = 0;
    for (const Request& r : reqs) {
      payloads.push_back(EncodeResponse(ExecuteReadRequest(*loaded_, r)));
      bytes += static_cast<double>(payloads.back().size());
    }
    size_t sink = 0;
    const double enc = MedianNsPerItem(reqs.size(), [&] {
      for (const Request& r : reqs) sink += EncodeRequest(r).size();
    });
    uint64_t undecodable = 0;
    const double dec = MedianNsPerItem(payloads.size(), [&] {
      for (const auto& p : payloads) {
        Response resp;
        if (!DecodeResponse(p.data(), p.size(), &resp)) ++undecodable;
        sink += resp.points.size();
      }
    });
    g_sink = g_sink + static_cast<double>(sink);
    tally_.attempted += 5 * payloads.size();
    tally_.Fail(undecodable, "client probe: undecodable responses");
    report_.Add("client.encode_ns", enc, reqs.size());
    report_.Add("client.decode_ns", dec, payloads.size());
    report_.Add("client.resp_bytes",
                bytes / static_cast<double>(std::max<size_t>(1, reqs.size())),
                reqs.size());
    spans_.Add("probe.client", "probe", t0, Clock::now());
  }

  void NnProbes() {
    const auto t0 = Clock::now();
    report_.Add("nn.predict_ns.b1.leaf_2x51", PredictNs(51, 1, o_.seed), 7);
    report_.Add("nn.predict_ns.b64.leaf_2x51", PredictNs(51, 64, o_.seed), 7);
    report_.Add("nn.predict_ns.b1.inner_2x33", PredictNs(33, 1, o_.seed), 7);
    report_.Add("nn.predict_ns.b64.inner_2x33", PredictNs(33, 64, o_.seed), 7);
    spans_.Add("probe.nn", "probe", t0, Clock::now());
  }

  const Options& o_;
  const Phases& ph_;
  const Workload& w_;
  const double high_qps_;
  const size_t points_;
  SpanLog spans_;
  Report report_;
  Tally tally_;
  std::string error_;
  std::string index_path_;
  std::vector<Point> data_;
  PointSet known_;
  std::unique_ptr<SpatialIndex> loaded_;
  std::unique_ptr<ServerProcess> server_;
  std::vector<PhaseStats> phases_;
  std::vector<std::string> traced_records_;
  uint64_t stream_seq_ = 0;
  uint64_t setups_ = 0;
  uint64_t builds_ = 0;
  uint64_t container_bytes_ = 0;
  double setup_s_ = 0, build_s_ = 0, save_s_ = 0, ready_s_ = 0, load_s_ = 0;
  double open_ms_ = 0;
  double xmem_faults_per_op_ = 0, xmem_evictions_per_s_ = 0;
  double xmem_prefetch_hits_per_op_ = 0, xmem_resident_mb_ = 0;
  uint64_t xmem_ops_ = 0;
};

// ---------------------------------------------------------------------------

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int Usage() {
  std::fprintf(stderr,
               "usage: rsmi_e2e --cli PATH [--workload NAME|all] [--seed N] "
               "[--seconds S]\n"
               "                [--trace 0|1] [--smoke] [--out DIR] "
               "[--work DIR] [--commit SHA]\n"
               "workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  return 2;
}

bool ParseArgs(int argc, char** argv, Options* o) {
  for (int i = 1; i < argc; ++i) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0) return false;
    std::string value;
    const size_t eq = key.find('=');
    if (eq != std::string::npos) {
      value = key.substr(eq + 1);
      key = key.substr(0, eq);
    } else if (key != "--smoke") {
      if (i + 1 >= argc) return false;
      value = argv[++i];
    }
    if (key == "--workload") {
      o->workload = value;
    } else if (key == "--seed") {
      o->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      o->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      o->trace = std::atoi(value.c_str());
    } else if (key == "--smoke") {
      o->smoke = true;
    } else if (key == "--cli") {
      o->cli = value;
    } else if (key == "--out") {
      o->out = value;
    } else if (key == "--work") {
      o->work = value;
    } else if (key == "--commit") {
      o->commit = value;
    } else {
      return false;
    }
  }
  return !o->cli.empty() && o->seconds > 0;
}

int Main(int argc, char** argv) {
  Options o;
  if (!ParseArgs(argc, argv, &o)) return Usage();
  if (!o.smoke && !kOptimizedBuild) {
    std::fprintf(stderr,
                 "refusing to measure a build without NDEBUG; configure with "
                 "-DCMAKE_BUILD_TYPE=Release (or pass --smoke)\n");
    return 2;
  }
  std::vector<const Workload*> selected;
  for (const Workload& w : kWorkloads) {
    if (o.workload == "all" || o.workload == w.name) selected.push_back(&w);
  }
  if (selected.empty()) return Usage();
  std::error_code ec;
  std::filesystem::create_directories(o.out, ec);
  std::filesystem::create_directories(o.work, ec);
  // Sleeps in the load generator wake on time, not up to 50 us late.
  ::prctl(PR_SET_TIMERSLACK, 1UL);

  const Phases ph = PhasesFor(o);
  const bool e2e = o.trace != 1;
  const bool layers = o.trace != 0;
  const auto origin = Clock::now();
  const bool all = selected.size() > 1;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string metrics_json;
  std::ostringstream results;
  results << "{\"meta\": {\"commit\": " << Str(o.commit)
          << ", \"seed\": " << o.seed << ", \"seconds\": " << Num(o.seconds)
          << ", \"trace\": " << o.trace
          << ", \"smoke\": " << (o.smoke ? "true" : "false")
          << ", \"nproc\": " << std::thread::hardware_concurrency()
          << ", \"cpu\": " << Str(CpuModel())
          << ", \"inference_kernel\": "
          << Str(ActiveInferenceKernelDescription())
          << ", \"setups\": " << ph.setups << ", \"xmem_opens\": " << ph.opens
          << ", \"phases_s\": {\"warm\": " << Num(ph.warm_s)
          << ", \"low\": " << Num(ph.low_s) << ", \"low_qps\": "
          << Num(ph.low_qps) << ", \"high\": " << Num(ph.high_s)
          << ", \"probe\": " << Num(ph.probe_s) << ", \"probes\": " << ph.probes
          << ", \"closed\": " << Num(ph.closed_s)
          << ", \"layer_high\": " << Num(ph.layer_high_s)
          << ", \"layer_closed\": " << Num(ph.layer_closed_s)
          << "}}, \"workloads\": {";
  for (size_t wi = 0; wi < selected.size(); ++wi) {
    const Workload& w = *selected[wi];
    std::printf("== %s (seed %llu): %s\n", w.name,
                static_cast<unsigned long long>(o.seed), w.why);
    std::fflush(stdout);
    WorkloadRun run(o, ph, w, origin);
    if (!run.Run(e2e, layers)) {
      std::fprintf(stderr, "%s: %s\n", w.name, run.error().c_str());
      return 2;
    }
    const Report& rep = run.report();
    for (const Metric& m : rep.metrics()) {
      std::printf("  %-30s %16.4f %-5s (n=%llu)\n", m.name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
      metrics_json += (metrics_json.empty() ? "" : ", ") +
                      Str(all ? std::string(w.name) + "/" + m.name : m.name) +
                      ": {\"value\": " + Num(m.value) +
                      ", \"unit\": " + Str(m.unit) + "}";
    }
    for (const Metric& m : rep.recorded()) {
      std::printf("  %-30s %16.4f %-5s (n=%llu, recorded)\n", m.name.c_str(),
                  m.value, m.unit.c_str(),
                  static_cast<unsigned long long>(m.samples));
    }
    const Tally& tally = run.tally();
    const double fail_frac =
        static_cast<double>(tally.failed) /
        static_cast<double>(std::max<uint64_t>(1, tally.attempted));
    std::printf("  %-30s %16.6f %-5s (failed %llu of %llu)\n", "fail_frac",
                fail_frac, "frac",
                static_cast<unsigned long long>(tally.failed),
                static_cast<unsigned long long>(tally.attempted));
    for (const std::string& e : tally.errors) {
      std::printf("  FAILED: %s\n", e.c_str());
    }
    std::fflush(stdout);
    attempted += tally.attempted;
    failed += tally.failed;
    results << (wi ? ", " : "") << Str(w.name) << ": " << run.ResultsJson();
    run.WriteTrace(o.out + "/trace-" + w.name + ".json");
  }
  results << "}}\n";
  std::ofstream(o.out + "/results.json") << results.str();

  const bool correct = failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(1, attempted)),
              static_cast<unsigned long long>(failed), metrics_json.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace rsmi

int main(int argc, char** argv) { return rsmi::Main(argc, argv); }
