#include "exec/batch_query_engine.h"

#include <algorithm>
#include <chrono>

#include "common/rng.h"
#include "data/workloads.h"
#include "obs/metrics.h"

namespace rsmi {
namespace {

/// Operations a worker claims per cursor bump: large enough to amortize
/// the atomic, small enough that a straggler window query cannot leave a
/// worker idle while another sits on a long private run.
constexpr size_t kOpsPerGrab = 16;

bool IsWriteRequest(const Request& r) {
  return r.type == Request::Type::kInsert ||
         r.type == Request::Type::kDelete ||
         r.type == Request::Type::kUpdateBatch;
}

double PercentileSorted(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(rank);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

}  // namespace

std::vector<Request> BuildMixedWorkload(const std::vector<Point>& data,
                                        size_t count, const WorkloadMix& mix,
                                        uint64_t seed) {
  // Out-of-range fractions (CLI flags arrive unvalidated) are clamped so
  // the remainder arithmetic below cannot underflow.
  const double point_frac = std::min(1.0, std::max(0.0, mix.point_frac));
  const double window_frac = std::min(1.0, std::max(0.0, mix.window_frac));
  const double write_frac = std::min(1.0, std::max(0.0, mix.write_frac));
  // Writes take their share off the top; the read fractions split the
  // rest. At write_frac = 0 every count below — and every generator seed
  // — is exactly the pre-write workload, so read-only callers replay
  // byte-identical request streams.
  const size_t n_write =
      static_cast<size_t>(write_frac * static_cast<double>(count));
  const size_t reads = count - n_write;
  const size_t n_point =
      static_cast<size_t>(point_frac * static_cast<double>(reads));
  const size_t n_window = std::min(
      reads - n_point,
      static_cast<size_t>(window_frac * static_cast<double>(reads)));
  const size_t n_knn = reads - n_point - n_window;
  const size_t n_ins = (n_write + 1) / 2;
  const size_t n_del = std::min(n_write - n_ins, data.size());

  // Distinct generator seeds per query class so changing the mix does not
  // silently change which locations each class samples.
  const auto pq = GenerateQueryPoints(data, n_point, seed * 3 + 1);
  const auto wq = GenerateWindowQueries(data, n_window, mix.window_area,
                                        mix.window_aspect, seed * 3 + 2);
  const auto kq = GenerateQueryPoints(data, n_knn, seed * 3 + 3);
  // Inserts land at fresh jittered locations (perturbed off the data so
  // they cannot collide with indexed points); deletes target *distinct*
  // existing points, so every generated delete hits.
  const auto iq = GenerateQueryPoints(data, n_ins, seed * 3 + 5, 1e-4);
  std::vector<Point> dq;
  if (n_del > 0) {
    std::vector<size_t> idx(data.size());
    for (size_t i = 0; i < idx.size(); ++i) idx[i] = i;
    Rng drng(seed * 3 + 7);
    dq.reserve(n_del);
    for (size_t i = 0; i < n_del; ++i) {  // partial Fisher-Yates
      const size_t j =
          i + static_cast<size_t>(
                  drng.UniformInt(0, static_cast<int64_t>(idx.size() - i - 1)));
      std::swap(idx[i], idx[j]);
      dq.push_back(data[idx[i]]);
    }
  }

  std::vector<Request> reqs;
  reqs.reserve(count);
  for (const Point& p : pq) reqs.push_back(Request::PointLookup(p));
  for (const Rect& w : wq) reqs.push_back(Request::WindowLookup(w));
  for (const Point& p : kq) reqs.push_back(Request::KnnLookup(p, mix.k));
  for (size_t i = 0; i < iq.size() + dq.size(); ++i) {
    Request r;
    if (i < iq.size()) {
      r.type = Request::Type::kInsert;
      r.pt = iq[i];
    } else {
      r.type = Request::Type::kDelete;
      r.pt = dq[i - iq.size()];
    }
    r.write_opts.buffered = mix.buffered_writes;
    reqs.push_back(r);
  }
  // Interleave the classes so every drained chunk is a mixed load, then
  // stamp post-shuffle positions as ids (stable across replay media).
  Rng rng(seed ^ 0x9e3779b97f4a7c15ULL);
  std::shuffle(reqs.begin(), reqs.end(), rng.gen());
  for (size_t i = 0; i < reqs.size(); ++i) reqs[i].id = i;
  return reqs;
}

BatchQueryEngine::BatchQueryEngine(int threads) {
  const int n = std::max(1, threads);
  worker_costs_.resize(static_cast<size_t>(n));
  workers_.reserve(static_cast<size_t>(n));
  for (int i = 0; i < n; ++i) {
    workers_.emplace_back([this, i] { WorkerLoop(i); });
  }
}

BatchQueryEngine::~BatchQueryEngine() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void BatchQueryEngine::DrainJob(Job* job, QueryContext* ctx) {
  const std::vector<Request>& reqs = *job->reqs;
  const SpatialIndex& index = *job->index;
  // Stack-local accumulator: adjacent worker_costs_ elements share cache
  // lines, and every block access bumps a counter — fold once at the end
  // instead of ping-ponging the line between workers all batch long.
  QueryContext local;
  UpdateResult local_update;
  uint64_t results = 0;
  uint64_t writes = 0;
  for (;;) {
    const size_t begin = job->next.fetch_add(kOpsPerGrab);
    if (begin >= reqs.size()) break;
    const size_t end = std::min(begin + kOpsPerGrab, reqs.size());

    // Same-model grouping: the chunk's point lookups go through one
    // PointQueryBatch call, which descends them level-synchronously and
    // evaluates shared sub-models with single vectorized calls (learned
    // indices override it; everything else loops — identical results
    // either way). Window/kNN requests run individually as before.
    size_t pt_ops[kOpsPerGrab];
    Point pts[kOpsPerGrab];
    size_t npts = 0;
    for (size_t i = begin; i < end; ++i) {
      if (reqs[i].type == Request::Type::kPoint) {
        pt_ops[npts] = i;
        pts[npts] = reqs[i].pt;
        ++npts;
      }
    }
    const bool batch_points = npts >= 2;
    if (batch_points) {
      std::optional<PointEntry> hits[kOpsPerGrab];
      QueryContext costs[kOpsPerGrab];
      const auto t0 = std::chrono::steady_clock::now();
      if (job->rw != nullptr) {
        std::shared_lock<std::shared_mutex> lock(*job->rw);
        index.PointQueryBatch(pts, npts, costs, hits);
      } else {
        index.PointQueryBatch(pts, npts, costs, hits);
      }
      // Latency attribution: the batch is timed as a whole and split
      // evenly — per-op timers would charge the first op of a batch with
      // all the shared model evaluations.
      const double per_op = std::chrono::duration<double, std::micro>(
                                std::chrono::steady_clock::now() - t0)
                                .count() /
                            static_cast<double>(npts);
      for (size_t t = 0; t < npts; ++t) {
        results += hits[t].has_value() ? 1 : 0;
        (*job->latency_us)[pt_ops[t]] = per_op;
        local.MergeFrom(costs[t]);
      }
    }
    for (size_t i = begin; i < end; ++i) {
      if (batch_points && reqs[i].type == Request::Type::kPoint) continue;
      const auto t0 = std::chrono::steady_clock::now();
      Response resp;
      if (job->mutable_index != nullptr && IsWriteRequest(reqs[i])) {
        ++writes;
        if (job->rw != nullptr) {
          std::unique_lock<std::shared_mutex> lock(*job->rw);
          resp = ExecuteRequest(*job->mutable_index, reqs[i]);
        } else {
          // Buffered writes on a concurrent-update index: the epoch
          // machinery is the synchronization, nobody stops.
          resp = ExecuteRequest(*job->mutable_index, reqs[i]);
        }
        local_update.MergeFrom(resp.update);
      } else if (job->rw != nullptr) {
        std::shared_lock<std::shared_mutex> lock(*job->rw);
        resp = ExecuteReadRequest(index, reqs[i]);
      } else {
        resp = ExecuteReadRequest(index, reqs[i]);
      }
      results += resp.ResultCount();
      local.MergeFrom(resp.cost);
      (*job->latency_us)[i] =
          std::chrono::duration<double, std::micro>(
              std::chrono::steady_clock::now() - t0)
              .count();
    }
  }
  ctx->MergeFrom(local);
  job->total_results.fetch_add(results, std::memory_order_relaxed);
  job->writes.fetch_add(writes, std::memory_order_relaxed);
  if (writes != 0) {
    std::lock_guard<std::mutex> lock(job->update_mu);
    job->update.MergeFrom(local_update);
  }
}

void BatchQueryEngine::WorkerLoop(int worker_id) {
  uint64_t seen_seq = 0;
  for (;;) {
    Job* job = nullptr;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(lock,
                    [&] { return shutdown_ || batch_seq_ != seen_seq; });
      if (shutdown_) return;
      seen_seq = batch_seq_;
      job = job_;
    }
    DrainJob(job, &worker_costs_[static_cast<size_t>(worker_id)]);
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (--workers_busy_ == 0) done_cv_.notify_all();
    }
  }
}

BatchQueryStats BatchQueryEngine::Run(const SpatialIndex& index,
                                      const std::vector<Request>& reqs) {
  Job job;
  job.index = &index;
  return RunJob(job, reqs);
}

BatchQueryStats BatchQueryEngine::Run(SpatialIndex& index,
                                      const std::vector<Request>& reqs) {
  Job job;
  job.index = &index;
  job.mutable_index = &index;
  // Exclusive-writer arbitration is only needed when some write cannot
  // go through the index's own concurrent-update machinery; otherwise
  // the whole batch runs lock-free.
  std::shared_mutex rw;
  bool needs_excl = false;
  for (const Request& r : reqs) {
    if (IsWriteRequest(r) &&
        (!r.write_opts.buffered || !index.SupportsConcurrentUpdates())) {
      needs_excl = true;
      break;
    }
  }
  if (needs_excl) job.rw = &rw;
  return RunJob(job, reqs);
}

BatchQueryStats BatchQueryEngine::RunJob(Job& job,
                                         const std::vector<Request>& reqs) {
  std::vector<double> latency_us(reqs.size(), 0.0);
  job.reqs = &reqs;
  job.latency_us = &latency_us;

  for (QueryContext& c : worker_costs_) c = QueryContext{};

  const auto t0 = std::chrono::steady_clock::now();
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_ = &job;
    workers_busy_ = workers_.size();
    ++batch_seq_;
  }
  work_cv_.notify_all();
  {
    std::unique_lock<std::mutex> lock(mu_);
    done_cv_.wait(lock, [&] { return workers_busy_ == 0; });
    job_ = nullptr;
  }
  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  BatchQueryStats stats;
  stats.queries = reqs.size();
  stats.threads = threads();
  stats.wall_seconds = wall;
  stats.throughput_qps =
      wall > 0.0 ? static_cast<double>(reqs.size()) / wall : 0.0;
  stats.total_results = job.total_results.load(std::memory_order_relaxed);
  for (const QueryContext& c : worker_costs_) stats.cost.MergeFrom(c);
  stats.writes = job.writes.load(std::memory_order_relaxed);
  stats.update = job.update;

  // Read-only percentile before the all-request sort destroys the
  // latency-to-request mapping.
  if (stats.writes != 0) {
    std::vector<double> read_lat;
    read_lat.reserve(reqs.size());
    for (size_t i = 0; i < reqs.size(); ++i) {
      if (!IsWriteRequest(reqs[i])) read_lat.push_back(latency_us[i]);
    }
    std::sort(read_lat.begin(), read_lat.end());
    stats.p99_read_us = PercentileSorted(read_lat, 0.99);
  }

  std::sort(latency_us.begin(), latency_us.end());
  stats.p50_us = PercentileSorted(latency_us, 0.50);
  stats.p99_us = PercentileSorted(latency_us, 0.99);
  stats.max_us = latency_us.empty() ? 0.0 : latency_us.back();
  if (stats.writes == 0) stats.p99_read_us = stats.p99_us;

  // Fold into the process-global registry after the run — off the
  // per-request hot path, so the engine's measured latencies are the
  // same with observability on or off.
  {
    static Counter& runs =
        MetricsRegistry::Global().GetCounter("engine.runs");
    static Counter& requests =
        MetricsRegistry::Global().GetCounter("engine.requests");
    static Histogram& request_us =
        MetricsRegistry::Global().GetHistogram("engine.request_us");
    runs.Add();
    requests.Add(reqs.size());
    // Bulk fold (one pass + <= 66 atomics, nothing at all when the
    // registry is disabled): per-value Observe here would cost two
    // atomics per replayed request, which is measurable against
    // sub-microsecond point queries.
    if (MetricsRegistry::Global().enabled()) {
      std::vector<uint64_t> us_values;
      us_values.reserve(latency_us.size());
      for (const double us : latency_us) {
        us_values.push_back(us <= 0.0 ? 0 : static_cast<uint64_t>(us));
      }
      request_us.ObserveBatch(us_values.data(), us_values.size());
    }
  }
  return stats;
}

}  // namespace rsmi
