// Spatial query server tests: wire round-trips, the frame layer over a
// socketpair, a seeded mutation fuzz of the wire decoders, concurrent
// coalesced serving bit-identical to direct index queries (results AND
// QueryContext counters), admission deadlines, atomic reload under
// load, malformed-frame handling, graceful drain, replies that never
// wait for the client's ACK, and reader threads joined as connections
// end. Server cases run against an in-process SpatialServer on an
// ephemeral loopback port.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <pthread.h>
#include <sys/socket.h>
#include <unistd.h>

#include "baselines/factory.h"
#include "baselines/kdb_tree.h"
#include "data/generators.h"
#include "exec/batch_query_engine.h"
#include "exec/request.h"
#include "io/index_container.h"
#include "obs/metrics.h"
#include "obs/slow_query_log.h"
#include "server/client.h"
#include "server/loadgen.h"
#include "server/spatial_server.h"
#include "server/wire.h"
#include "gtest/gtest.h"

namespace rsmi {
namespace {

IndexBuildConfig SpecConfig() {
  IndexBuildConfig cfg;
  cfg.block_capacity = 20;
  cfg.partition_threshold = 400;
  cfg.train.epochs = 40;
  cfg.train.batch_size = 128;
  cfg.internal_sample_cap = 2048;
  return cfg;
}

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

/// Builds a small learned index over `data` and saves it; returns the
/// path.
std::string BuildAndSave(const std::vector<Point>& data,
                         const std::string& name,
                         const std::string& spec = "sharded<2>:rsmi") {
  auto index = MakeIndexFromSpec(spec, data, SpecConfig());
  EXPECT_NE(index, nullptr);
  const std::string path = TempPath(name);
  std::string err;
  EXPECT_TRUE(SaveIndex(*index, path, &err)) << err;
  return path;
}

bool SameEntry(const std::optional<PointEntry>& a,
               const std::optional<PointEntry>& b) {
  if (a.has_value() != b.has_value()) return false;
  if (!a.has_value()) return true;
  return a->pt.x == b->pt.x && a->pt.y == b->pt.y && a->id == b->id;
}

bool SamePoints(const std::vector<Point>& a, const std::vector<Point>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].x != b[i].x || a[i].y != b[i].y) return false;
  }
  return true;
}

bool SameContext(const QueryContext& a, const QueryContext& b) {
  return a.block_accesses == b.block_accesses &&
         a.model_invocations == b.model_invocations &&
         a.descents == b.descents && a.nodes_visited == b.nodes_visited;
}

/// Response equality down to the QueryContext counters.
bool SameResponse(const Response& a, const Response& b) {
  return a.id == b.id && a.status == b.status &&
         SameEntry(a.hit, b.hit) && SamePoints(a.points, b.points) &&
         SameContext(a.cost, b.cost);
}

TEST(WireTest, RequestRoundTrip) {
  Request req = Request::KnnLookup({0.25, 0.75}, 9, 4242);
  req.deadline_us = 1500;
  req.window = Rect{{0.1, 0.2}, {0.3, 0.4}};
  req.path = "some/index.rsmi";
  const std::vector<uint8_t> payload = EncodeRequest(req);
  Request back;
  ASSERT_TRUE(DecodeRequest(payload.data(), payload.size(), &back));
  EXPECT_EQ(back.type, Request::Type::kKnn);
  EXPECT_EQ(back.id, 4242u);
  EXPECT_EQ(back.deadline_us, 1500u);
  EXPECT_EQ(back.pt.x, 0.25);
  EXPECT_EQ(back.pt.y, 0.75);
  EXPECT_EQ(back.k, 9u);
  EXPECT_EQ(back.window.lo.x, 0.1);
  EXPECT_EQ(back.window.hi.y, 0.4);
  EXPECT_EQ(back.path, "some/index.rsmi");
}

TEST(WireTest, ResponseRoundTrip) {
  Response resp;
  resp.id = 77;
  resp.status = StatusCode::kOk;
  resp.hit = PointEntry{{0.5, 0.25}, 123};
  resp.points = {{0.1, 0.2}, {0.3, 0.4}};
  resp.cost.block_accesses = 3;
  resp.cost.model_invocations = 4;
  resp.cost.descents = 1;
  resp.cost.nodes_visited = 2;
  resp.message = "hello";
  const std::vector<uint8_t> payload = EncodeResponse(resp);
  Response back;
  ASSERT_TRUE(DecodeResponse(payload.data(), payload.size(), &back));
  EXPECT_TRUE(SameResponse(resp, back));
  EXPECT_EQ(back.message, "hello");
}

TEST(WireTest, RejectsMalformedPayloads) {
  // Truncated payload.
  const std::vector<uint8_t> payload = EncodeRequest(Request::PointLookup(
      {0.5, 0.5}, 1));
  Request out;
  ASSERT_TRUE(DecodeRequest(payload.data(), payload.size(), &out));
  EXPECT_FALSE(DecodeRequest(payload.data(), payload.size() - 1, &out));
  // Unknown type byte.
  std::vector<uint8_t> bad = payload;
  bad[0] = 99;
  EXPECT_FALSE(DecodeRequest(bad.data(), bad.size(), &out));
  // Trailing garbage after a complete request.
  bad = payload;
  bad.push_back(0);
  EXPECT_FALSE(DecodeRequest(bad.data(), bad.size(), &out));
}

/// Writes the 4-byte length prefix of a frame claiming `len` bytes.
void WritePrefix(int fd, uint32_t len) {
  ASSERT_TRUE(WriteAll(fd, &len, sizeof(len)));
}

/// Does nothing; installed without SA_RESTART, so a signal to a thread
/// blocked in sendmsg makes the call return what it has sent so far.
void InterruptSyscall(int) {}

TEST(WireTest, FramesSurviveShortWritesOverASocketpair) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  const int small = 4096;
  ASSERT_EQ(::setsockopt(sv[0], SOL_SOCKET, SO_SNDBUF, &small, sizeof(small)),
            0);
  // A blocking sendmsg only returns short when a signal interrupts it
  // mid-transfer, so a second thread keeps signalling the writer while
  // the small send buffer makes it block again and again. The handler
  // stays installed afterwards: a signal still in flight must not reach
  // SIGUSR1's default action, which ends the process.
  struct sigaction sa {};
  sa.sa_handler = InterruptSyscall;
  sigemptyset(&sa.sa_mask);
  ASSERT_EQ(::sigaction(SIGUSR1, &sa, nullptr), 0);

  const std::vector<size_t> sizes = {0, 1, 4096, 1048577};
  std::vector<std::vector<uint8_t>> frames;
  for (size_t n : sizes) {
    std::vector<uint8_t> f(n);
    for (size_t i = 0; i < n; ++i) f[i] = static_cast<uint8_t>(i * 31 + n);
    frames.push_back(std::move(f));
  }
  std::atomic<int> mismatches{0};
  std::thread reader([&] {
    std::vector<uint8_t> got;
    for (const std::vector<uint8_t>& want : frames) {
      if (ReadFrame(sv[1], 1u << 21, &got) != FrameReadResult::kOk ||
          got != want) {
        ++mismatches;
      }
    }
  });
  std::atomic<bool> writing{true};
  const pthread_t writer = ::pthread_self();
  std::thread interrupter([&] {
    while (writing.load()) {
      ::pthread_kill(writer, SIGUSR1);
      std::this_thread::sleep_for(std::chrono::microseconds(50));
    }
  });
  for (const std::vector<uint8_t>& f : frames) {
    EXPECT_TRUE(WriteFrame(sv[0], f.data(), f.size())) << f.size();
  }
  writing.store(false);
  interrupter.join();
  // Closing first turns a frame the writer lost into a reader error, not
  // a hang.
  ::close(sv[0]);
  reader.join();
  EXPECT_EQ(mismatches.load(), 0);
  ::close(sv[1]);
}

TEST(WireTest, WriteFrameToAClosedPeerFailsWithoutSigpipe) {
  int sv[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
  ::close(sv[1]);
  // SIGPIPE's default action would end this test binary here.
  const uint8_t payload[8] = {};
  EXPECT_FALSE(WriteFrame(sv[0], payload, sizeof(payload)));
  ::close(sv[0]);
}

/// ReadFrame's verdict on a socketpair after `send` wrote the peer's
/// bytes and closed it.
template <typename SendFn>
FrameReadResult ReadAfterPeerSends(uint32_t max_payload, SendFn send) {
  int sv[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) != 0) {
    ADD_FAILURE() << "socketpair failed";
    return FrameReadResult::kError;
  }
  send(sv[0]);
  ::close(sv[0]);
  std::vector<uint8_t> payload;
  const FrameReadResult r = ReadFrame(sv[1], max_payload, &payload);
  ::close(sv[1]);
  return r;
}

TEST(WireTest, ReadFrameClassifiesHowTheStreamEnds) {
  auto nothing = [](int) {};
  auto half_prefix = [](int fd) {
    const uint8_t half[2] = {8, 0};
    ASSERT_TRUE(WriteAll(fd, half, sizeof(half)));
  };
  auto short_payload = [](int fd) {
    WritePrefix(fd, 8);
    const uint8_t part[3] = {1, 2, 3};
    ASSERT_TRUE(WriteAll(fd, part, sizeof(part)));
  };
  auto over_cap = [](int fd) { WritePrefix(fd, 65); };
  auto at_cap = [](int fd) {
    const std::vector<uint8_t> p(64, 7);
    ASSERT_TRUE(WriteFrame(fd, p.data(), p.size()));
  };
  // Closed before any byte: the clean end of the stream.
  EXPECT_EQ(ReadAfterPeerSends(64, nothing), FrameReadResult::kEof);
  // Closed after 2 of the 4 prefix bytes.
  EXPECT_EQ(ReadAfterPeerSends(64, half_prefix), FrameReadResult::kError);
  // A full prefix promising 8 bytes, 3 of them, then the close.
  EXPECT_EQ(ReadAfterPeerSends(64, short_payload), FrameReadResult::kError);
  // A prefix above the cap is refused before any payload is read; the
  // cap itself is legal.
  EXPECT_EQ(ReadAfterPeerSends(64, over_cap), FrameReadResult::kTooLarge);
  EXPECT_EQ(ReadAfterPeerSends(64, at_cap), FrameReadResult::kOk);
}

/// One random edit of `b`: bit flip, byte overwrite, truncation, or
/// insertion of up to 8 random bytes.
void Mutate(std::mt19937_64& rng, std::vector<uint8_t>* b) {
  switch (rng() % 4) {
    case 0:
      if (!b->empty()) (*b)[rng() % b->size()] ^= 1u << (rng() % 8);
      break;
    case 1: {
      // Length fields are where decoders go wrong: favour the extremes.
      static const uint8_t kEdge[] = {0x00, 0xff, 0x7f, 0x80};
      const uint8_t v = rng() % 2 == 0 ? kEdge[rng() % 4]
                                       : static_cast<uint8_t>(rng());
      if (!b->empty()) (*b)[rng() % b->size()] = v;
      break;
    }
    case 2:
      b->resize(rng() % (b->size() + 1));
      break;
    default: {
      const size_t at = rng() % (b->size() + 1);
      const size_t n = 1 + rng() % 8;
      for (size_t i = 0; i < n; ++i) {
        b->insert(b->begin() + static_cast<std::ptrdiff_t>(at),
                  static_cast<uint8_t>(rng()));
      }
      break;
    }
  }
}

/// Fuzzes one decoder with mutants of the `seeds` payloads. Every
/// accepted mutant must re-encode to bytes that decode and re-encode
/// identically. Returns how many mutants the decoder accepted.
template <typename Msg, typename Decode, typename Encode>
size_t FuzzDecoder(const std::vector<std::vector<uint8_t>>& seeds,
                   size_t mutants, uint64_t seed, Decode decode,
                   Encode encode) {
  std::mt19937_64 rng(seed);
  size_t accepted = 0;
  size_t unstable = 0;
  for (size_t i = 0; i < mutants; ++i) {
    std::vector<uint8_t> b = seeds[i % seeds.size()];
    const size_t edits = 1 + rng() % 3;
    for (size_t e = 0; e < edits; ++e) Mutate(rng, &b);
    Msg msg;
    if (!decode(b.data(), b.size(), &msg)) continue;
    ++accepted;
    const std::vector<uint8_t> once = encode(msg);
    Msg again;
    if (!decode(once.data(), once.size(), &again) || encode(again) != once) {
      ++unstable;
    }
  }
  EXPECT_EQ(unstable, 0u);
  return accepted;
}

TEST(WireTest, DecodersSurviveSeededMutationsOfRealFrames) {
  // Seeds: real encodings of every request shape and of responses
  // carrying each optional section.
  std::vector<std::vector<uint8_t>> requests;
  requests.push_back(EncodeRequest(Request::PointLookup({0.25, 0.5}, 1)));
  Request window = Request::WindowLookup(Rect{{0.1, 0.2}, {0.3, 0.4}}, 2);
  window.deadline_us = 500;
  requests.push_back(EncodeRequest(window));
  UpdateBatch batch;
  batch.Insert({0.5, 0.5});
  batch.Delete({0.125, 0.75});
  batch.Insert({0.9, 0.1});
  WriteOptions wopts;
  wopts.buffered = true;
  wopts.fence = true;
  requests.push_back(EncodeRequest(Request::Updates(batch, wopts, 3)));
  Request traced;
  traced.type = Request::Type::kReload;
  traced.id = 4;
  traced.path = "indexes/poi.idx";
  traced.trace = true;
  requests.push_back(EncodeRequest(traced));

  std::vector<std::vector<uint8_t>> responses;
  Response hit;
  hit.id = 5;
  hit.hit = PointEntry{{0.5, 0.25}, 123};
  hit.cost.block_accesses = 3;
  hit.cost.model_invocations = 2;
  hit.cost.descents = 1;
  hit.trace = {{"admission", 0, 2}, {"queue", 2, 9}, {"descent", 9, 14},
               {"reply", 14, 15}};
  responses.push_back(EncodeResponse(hit));
  Response points;
  points.id = 6;
  points.points = {{0.1, 0.2}, {0.3, 0.4}, {0.5, 0.6}};
  points.message = "window";
  responses.push_back(EncodeResponse(points));
  MetricsRegistry reg;
  reg.GetCounter("server.requests_admitted").Add(42);
  reg.GetGauge("server.workers").Set(4);
  Histogram& h = reg.GetHistogram("server.exec_us.point");
  for (uint64_t v : {1, 3, 7, 900, 70000}) h.Observe(v);
  Response stats;
  stats.id = 7;
  stats.stats = reg.Snapshot();
  SlowQueryEntry slow;
  slow.op = 1;
  slow.id = 99;
  slow.queue_us = 10;
  slow.exec_us = 5000;
  slow.total_us = 5010;
  slow.cost.block_accesses = 40;
  stats.slow = {slow, slow};
  responses.push_back(EncodeResponse(stats));

  // Fixed seeds and budget: the same 50k mutants per decoder every run.
  constexpr size_t kMutants = 50000;
  const size_t req_ok = FuzzDecoder<Request>(requests, kMutants, 0x5eed0001,
                                             DecodeRequest, EncodeRequest);
  const size_t resp_ok = FuzzDecoder<Response>(
      responses, kMutants, 0x5eed0002, DecodeResponse, EncodeResponse);
  // Bit flips inside fixed-width fields keep a frame valid, so both
  // decoders must have accepted (and round-tripped) a good share.
  EXPECT_GT(req_ok, kMutants / 20);
  EXPECT_GT(resp_ok, kMutants / 20);
}

class ServerTest : public ::testing::Test {
 protected:
  /// Data with stable ids: GenerateDataset is deterministic, so a file
  /// saved from it and a locally loaded copy answer identically.
  std::vector<Point> MakeData(size_t n, uint64_t seed) {
    return GenerateDataset(Distribution::kSkewed, n, seed);
  }

  std::unique_ptr<SpatialServer> StartServer(const std::string& path,
                                             int threads,
                                             size_t max_batch = 16) {
    ServerOptions opts;
    opts.index_path = path;
    opts.threads = threads;
    opts.max_batch = max_batch;
    std::string err;
    auto server = SpatialServer::Start(opts, &err);
    EXPECT_NE(server, nullptr) << err;
    return server;
  }

  std::unique_ptr<ServerClient> Connect(const SpatialServer& server) {
    std::string err;
    auto client = ServerClient::Connect("127.0.0.1", server.port(), &err);
    EXPECT_NE(client, nullptr) << err;
    return client;
  }
};

TEST_F(ServerTest, ConcurrentCoalescedServingBitIdenticalToDirectQueries) {
  const auto data = MakeData(3000, 42);
  const std::string path = BuildAndSave(data, "serve_parity.idx");
  auto server = StartServer(path, /*threads=*/3);

  // The ground truth: a locally loaded copy of the same file, queried
  // directly through the same executor the server uses.
  auto local = LoadIndex(path);
  ASSERT_NE(local, nullptr);

  constexpr int kClients = 8;
  constexpr size_t kPerClient = 120;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      auto client = Connect(*server);
      if (client == nullptr) {
        ++failures;
        return;
      }
      WorkloadMix mix;
      mix.point_frac = 0.7;
      mix.window_frac = 0.2;
      mix.window_area = 0.001;
      mix.k = 5;
      auto reqs = BuildMixedWorkload(data, kPerClient, mix,
                                     /*seed=*/100 + static_cast<uint64_t>(c));
      // Pipeline everything: many point requests in flight across all
      // clients is exactly what feeds the coalescing admission path.
      for (size_t i = 0; i < reqs.size(); ++i) {
        reqs[i].id = static_cast<uint64_t>(c) * 1000000 + i;
        if (!client->Send(reqs[i])) {
          ++failures;
          return;
        }
      }
      for (size_t i = 0; i < reqs.size(); ++i) {
        Response resp;
        if (!client->Receive(&resp)) {
          ++failures;
          return;
        }
        // Responses may arrive out of order; match by id.
        const Request& req = reqs[resp.id % 1000000];
        const Response direct = ExecuteReadRequest(*local, req);
        Response expected = direct;
        expected.id = req.id;
        if (!SameResponse(resp, expected)) ++failures;
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);

  const ServerStats st = server->stats();
  EXPECT_EQ(st.requests_admitted, kClients * kPerClient);
  // The point of the design: requests from unrelated clients ran in
  // shared PointQueryBatch groups — and were still bit-identical.
  EXPECT_GT(st.coalesced_batches, 0u);
  EXPECT_GT(st.coalesced_requests, st.coalesced_batches);
  server->Stop();
}

TEST_F(ServerTest, DeadlineExpiredRequestsGetDistinctResponse) {
  const auto data = MakeData(2000, 7);
  const std::string path = BuildAndSave(data, "serve_deadline.idx");
  // One worker: queued requests wait for the slow ones ahead of them.
  auto server = StartServer(path, /*threads=*/1);
  auto client = Connect(*server);
  ASSERT_NE(client, nullptr);

  // A stack of full-space window scans keeps the single worker busy...
  constexpr int kSlow = 6;
  for (int i = 0; i < kSlow; ++i) {
    Request slow = Request::WindowLookup(Rect::UnitSquare(), 1000 + i);
    ASSERT_TRUE(client->Send(slow));
  }
  // ...so this point request's 1us admission budget is long gone when a
  // worker finally dequeues it.
  Request late = Request::PointLookup(data[0], 2000);
  late.deadline_us = 1;
  ASSERT_TRUE(client->Send(late));

  int deadline_hits = 0;
  for (int i = 0; i < kSlow + 1; ++i) {
    Response resp;
    ASSERT_TRUE(client->Receive(&resp));
    if (resp.id == 2000) {
      EXPECT_EQ(resp.status, StatusCode::kDeadlineExceeded);
      EXPECT_FALSE(resp.hit.has_value());
      ++deadline_hits;
    } else {
      EXPECT_EQ(resp.status, StatusCode::kOk);
    }
  }
  EXPECT_EQ(deadline_hits, 1);
  EXPECT_EQ(server->stats().deadline_expired, 1u);

  // No deadline: the same request simply succeeds.
  Response ok;
  ASSERT_TRUE(client->Call(Request::PointLookup(data[0], 2001), &ok));
  EXPECT_EQ(ok.status, StatusCode::kOk);
  server->Stop();
}

TEST_F(ServerTest, ReloadUnderLoadServesOneConsistentSnapshotPerRequest) {
  const auto data_a = MakeData(2000, 11);
  auto data_b = data_a;
  const auto extra = GenerateDataset(Distribution::kUniform, 200, 999);
  data_b.insert(data_b.end(), extra.begin(), extra.end());

  const std::string path_a = BuildAndSave(data_a, "serve_reload_a.idx");
  const std::string path_b = BuildAndSave(data_b, "serve_reload_b.idx");
  auto server = StartServer(path_a, /*threads=*/3);

  auto local_a = LoadIndex(path_a);
  auto local_b = LoadIndex(path_b);
  ASSERT_NE(local_a, nullptr);
  ASSERT_NE(local_b, nullptr);

  // Hammer point lookups for points only index B contains while the
  // reload swaps snapshots mid-stream. Every response must be exactly
  // the A answer or exactly the B answer — counters included.
  std::atomic<int> failures{0};
  std::atomic<bool> saw_b{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> hammers;
  for (int c = 0; c < 4; ++c) {
    hammers.emplace_back([&, c] {
      auto client = Connect(*server);
      if (client == nullptr) {
        ++failures;
        return;
      }
      uint64_t id = static_cast<uint64_t>(c) * 1000000;
      while (!stop.load(std::memory_order_relaxed)) {
        const Point& q = extra[id % extra.size()];
        Request req = Request::PointLookup(q, id++);
        Response resp;
        if (!client->Call(req, &resp)) {
          ++failures;
          return;
        }
        Response expect_a = ExecuteReadRequest(*local_a, req);
        Response expect_b = ExecuteReadRequest(*local_b, req);
        expect_a.id = expect_b.id = req.id;
        const bool is_a = SameResponse(resp, expect_a);
        const bool is_b = SameResponse(resp, expect_b);
        if (is_b) saw_b.store(true, std::memory_order_relaxed);
        if (!is_a && !is_b) ++failures;
      }
    });
  }

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  auto admin = Connect(*server);
  ASSERT_NE(admin, nullptr);
  Request reload;
  reload.type = Request::Type::kReload;
  reload.id = 31337;
  reload.path = path_b;
  Response resp;
  ASSERT_TRUE(admin->Call(reload, &resp));
  EXPECT_EQ(resp.status, StatusCode::kOk) << resp.message;

  // After the reload response, new requests must see snapshot B.
  Request probe = Request::PointLookup(extra[0], 31338);
  Response after;
  ASSERT_TRUE(admin->Call(probe, &after));
  Response expect_b = ExecuteReadRequest(*local_b, probe);
  expect_b.id = probe.id;
  EXPECT_TRUE(SameResponse(after, expect_b));

  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  stop.store(true);
  for (std::thread& t : hammers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_TRUE(saw_b.load());
  EXPECT_EQ(server->stats().reloads, 1u);

  // A reload of a nonexistent file fails without dropping the snapshot.
  Request bad_reload;
  bad_reload.type = Request::Type::kReload;
  bad_reload.id = 31339;
  bad_reload.path = TempPath("no_such_index.idx");
  ASSERT_TRUE(admin->Call(bad_reload, &resp));
  EXPECT_EQ(resp.status, StatusCode::kInternal);
  ASSERT_TRUE(admin->Call(probe, &after));
  EXPECT_TRUE(SameResponse(after, expect_b));
  server->Stop();
}

TEST_F(ServerTest, MalformedFramesAreRejectedWithoutKillingTheConnection) {
  const auto data = MakeData(1500, 5);
  const std::string path = BuildAndSave(data, "serve_malformed.idx");
  auto server = StartServer(path, /*threads=*/2);
  auto client = Connect(*server);
  ASSERT_NE(client, nullptr);

  // A well-framed but undecodable payload: per-request error, the
  // connection keeps serving.
  const uint8_t garbage[] = {0xde, 0xad, 0xbe, 0xef};
  ASSERT_TRUE(WriteFrame(client->fd(), garbage, sizeof(garbage)));
  Response resp;
  ASSERT_TRUE(client->Receive(&resp));
  EXPECT_EQ(resp.status, StatusCode::kInvalidArgument);

  Response ok;
  ASSERT_TRUE(client->Call(Request::PointLookup(data[0], 5), &ok));
  EXPECT_EQ(ok.status, StatusCode::kOk);

  // An oversized length prefix cannot be resynchronized: one error
  // response, then that connection (and only it) is closed.
  const uint32_t huge = kMaxRequestFrameBytes + 1;
  ASSERT_TRUE(WriteAll(client->fd(), &huge, sizeof(huge)));
  ASSERT_TRUE(client->Receive(&resp));
  EXPECT_EQ(resp.status, StatusCode::kInvalidArgument);
  client->SetReceiveTimeout(2000);
  EXPECT_FALSE(client->Receive(&resp));

  // The server survived: a fresh connection works.
  auto client2 = Connect(*server);
  ASSERT_NE(client2, nullptr);
  ASSERT_TRUE(client2->Call(Request::PointLookup(data[0], 6), &ok));
  EXPECT_EQ(ok.status, StatusCode::kOk);

  // A connection dropped mid-frame doesn't wedge the reader loop.
  auto client3 = Connect(*server);
  ASSERT_NE(client3, nullptr);
  const uint32_t claimed = 100;  // promise 100 bytes, deliver 2, hang up
  ASSERT_TRUE(WriteAll(client3->fd(), &claimed, sizeof(claimed)));
  const uint8_t partial[] = {1, 2};
  ASSERT_TRUE(WriteAll(client3->fd(), partial, sizeof(partial)));
  client3.reset();
  ASSERT_TRUE(client2->Call(Request::PointLookup(data[1], 7), &ok));
  server->Stop();
}

TEST_F(ServerTest, GracefulStopAnswersEverythingAdmitted) {
  const auto data = MakeData(1500, 3);
  const std::string path = BuildAndSave(data, "serve_drain.idx");
  auto server = StartServer(path, /*threads=*/2);
  auto client = Connect(*server);
  ASSERT_NE(client, nullptr);

  constexpr size_t kInFlight = 64;
  for (size_t i = 0; i < kInFlight; ++i) {
    ASSERT_TRUE(client->Send(Request::PointLookup(data[i], i)));
  }
  // Give the reader a moment to admit them, then shut down under load.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server->Stop();

  // Every admitted request was answered before the workers exited.
  size_t received = 0;
  Response resp;
  client->SetReceiveTimeout(2000);
  while (received < kInFlight && client->Receive(&resp)) ++received;
  EXPECT_EQ(received, kInFlight);
  EXPECT_EQ(server->stats().responses_sent,
            server->stats().requests_admitted);

  // And the listener is gone.
  std::string err;
  auto late = ServerClient::Connect("127.0.0.1", server->port(), &err);
  if (late != nullptr) {
    // A connect may still succeed transiently (TIME_WAIT reuse by
    // another process is unlikely but possible); it must at least not
    // be served.
    late->SetReceiveTimeout(500);
    Response r;
    late->Send(Request::PointLookup(data[0], 1));
    EXPECT_FALSE(late->Receive(&r));
  }
}

TEST(AtomicSaveTest, FailedSaveNeverClobbersTheExistingFile) {
  const auto data =
      GenerateDataset(Distribution::kUniform, 1200, 21);
  auto good = MakeIndexFromSpec("grid", data, SpecConfig());
  ASSERT_NE(good, nullptr);
  const std::string path =
      ::testing::TempDir() + "/atomic_save_target.idx";
  std::string err;
  ASSERT_TRUE(SaveIndex(*good, path, &err)) << err;

  // Every shipped kind persists now, so model a third-party index with
  // no persistence spec (KindSpec() empty): the save must fail cleanly...
  class SpeclessKdb : public KdbTree {
   public:
    using KdbTree::KdbTree;
    std::string KindSpec() const override { return ""; }
  };
  SpeclessKdb unsavable(data, KdbConfig{});
  EXPECT_FALSE(SaveIndex(unsavable, path, &err));

  // ...and the original file still loads, untouched.
  auto back = LoadIndex(path, &err);
  ASSERT_NE(back, nullptr) << err;
  EXPECT_EQ(back->KindSpec(), "grid");

  // A successful re-save replaces atomically and leaves no temp files.
  ASSERT_TRUE(SaveIndex(*good, path, &err)) << err;
  auto again = LoadIndex(path, &err);
  ASSERT_NE(again, nullptr) << err;
  const std::string tmp_probe =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  std::FILE* f = std::fopen(tmp_probe.c_str(), "rb");
  EXPECT_EQ(f, nullptr);
  if (f != nullptr) std::fclose(f);
}

TEST_F(ServerTest, LoadgenDrivesTrafficAndReportsPercentiles) {
  const auto data = MakeData(1500, 13);
  const std::string path = BuildAndSave(data, "serve_loadgen.idx");
  auto server = StartServer(path, /*threads=*/2);

  LoadgenOptions opts;
  opts.port = server->port();
  opts.target_qps = 2000;
  opts.duration_s = 0.5;
  opts.connections = 2;
  opts.data = data;
  LoadgenReport report;
  std::string err;
  ASSERT_TRUE(RunLoadgen(opts, &report, &err)) << err;
  EXPECT_EQ(report.sent, report.received);
  EXPECT_GT(report.ok, 0u);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_GE(report.p99_us, report.p50_us);
  EXPECT_GE(report.p999_us, report.p99_us);
  EXPECT_GT(report.achieved_qps, 0.0);

  const std::string json = LoadgenReportJson(report);
  EXPECT_NE(json.find("\"achieved_qps\""), std::string::npos);
  EXPECT_NE(json.find("\"p999_us\""), std::string::npos);
  server->Stop();
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double MicrosSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

TEST_F(ServerTest, RepliesNeverWaitForTheClientsAck) {
  const auto data = MakeData(2000, 19);
  const std::string path = BuildAndSave(data, "serve_nodelay.idx");
  auto server = StartServer(path, /*threads=*/2);
  auto client = Connect(*server);
  ASSERT_NE(client, nullptr);
  client->SetReceiveTimeout(5000);

  // Synchronous calls: a reply whose payload left behind its own length
  // prefix waited for the client's delayed ACK of that prefix.
  std::vector<double> call_us;
  for (uint64_t i = 0; i < 64; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    Response resp;
    ASSERT_TRUE(client->Call(Request::PointLookup(data[i], i), &resp));
    call_us.push_back(MicrosSince(t0));
  }

  // Pipelined bursts: every reply after a burst's first leaves while the
  // one before it is unACKed, which Nagle holds back unless the server
  // set TCP_NODELAY.
  std::vector<double> burst_us;
  uint64_t id = 1000;
  for (size_t b = 0; b < 50; ++b) {
    const auto t0 = std::chrono::steady_clock::now();
    for (size_t j = 0; j < 8; ++j) {
      const Point& q = data[(b * 8 + j) % data.size()];
      const Request req =
          j % 2 == 0 ? Request::WindowLookup(
                           Rect{{q.x - 0.01, q.y - 0.01},
                                {q.x + 0.01, q.y + 0.01}},
                           id++)
                     : Request::PointLookup(q, id++);
      ASSERT_TRUE(client->Send(req));
    }
    for (size_t j = 0; j < 8; ++j) {
      Response resp;
      ASSERT_TRUE(client->Receive(&resp));
    }
    burst_us.push_back(MicrosSince(t0));
  }

  // Linux's delayed-ACK timer is at least 40 ms, so a median under 20 ms
  // means the typical reply never waited for it; unstalled replies take
  // tens of microseconds, which leaves room for sanitizer builds.
  EXPECT_LT(Median(call_us), 20000.0);
  EXPECT_LT(Median(burst_us), 20000.0);
  server->Stop();
}

/// Lines in /proc/self/maps: one per mapping, and each unjoined thread
/// holds two (its stack and its guard page).
size_t MappingCount() {
  std::ifstream maps("/proc/self/maps");
  std::string line;
  size_t n = 0;
  while (std::getline(maps, line)) ++n;
  return n;
}

TEST_F(ServerTest, ReadersOfClosedConnectionsAreJoined) {
  const auto data = MakeData(1000, 23);
  const std::string path = BuildAndSave(data, "serve_reap.idx");
  auto server = StartServer(path, /*threads=*/2);

  // One connection per request, as remote rsmi_cli ops and per-scrape
  // sidecars do. A server that kept every exited reader unjoined grew by
  // two mappings per connection until it could not start another thread.
  auto cycle = [&](uint64_t id) {
    auto client = Connect(*server);
    ASSERT_NE(client, nullptr);
    Response resp;
    ASSERT_TRUE(client->Call(
        Request::PointLookup(data[id % data.size()], id), &resp));
  };
  for (uint64_t i = 0; i < 20; ++i) cycle(i);  // warm allocator arenas
  const size_t before = MappingCount();
  for (uint64_t i = 0; i < 500; ++i) cycle(i);
  const size_t after = MappingCount();
  EXPECT_LT(after, before + 200) << before << " -> " << after;
  server->Stop();
}

}  // namespace
}  // namespace rsmi
