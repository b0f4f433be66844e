// Loopback integration tests for the networked serving path: a CrowdGateway
// and its clients in one process, exercising the full campaign round trip
// (register, request, submit, lease expiry, stats), torn frames, pipelining,
// overload shedding, injected I/O faults, and graceful shutdown.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "client/crowd_client.h"
#include "common/fault_injection.h"
#include "common/rng.h"
#include "common/string_utils.h"
#include "core/concurrent_docs_system.h"
#include "crowd/worker_pool.h"
#include "datasets/dataset.h"
#include "kb/synthetic_kb.h"
#include "net/wire.h"
#include "server/crowd_gateway.h"
#include "storage/worker_store.h"

namespace docs::server {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

client::CrowdClientOptions TestClientOptions() {
  client::CrowdClientOptions options;
  options.recv_timeout_ms = 5000;  // a hung gateway fails the test, not CI
  return options;
}

class GatewayTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    kb_ = new kb::SyntheticKb(kb::BuildSyntheticKb());
  }
  static void TearDownTestSuite() {
    delete kb_;
    kb_ = nullptr;
  }
  void TearDown() override { FaultInjector::Global().DisarmAll(); }

  /// A campaign-loaded system behind a freshly started gateway.
  struct Serving {
    datasets::Dataset dataset;
    std::unique_ptr<core::ConcurrentDocsSystem> system;
    std::unique_ptr<CrowdGateway> gateway;
  };

  Serving StartServing(core::DocsSystemOptions options,
                       CrowdGatewayOptions gateway_options = {}) {
    Serving serving;
    serving.dataset = datasets::MakeItemDataset(*kb_);
    serving.system = std::make_unique<core::ConcurrentDocsSystem>(
        &kb_->knowledge_base, options);
    std::vector<core::TaskInput> inputs;
    for (const auto& task : serving.dataset.tasks) {
      inputs.push_back({task.text, task.num_choices()});
    }
    auto truths = serving.dataset.Truths();
    EXPECT_TRUE(serving.system->AddTasks(inputs, &truths).ok());
    serving.gateway = std::make_unique<CrowdGateway>(serving.system.get(),
                                                     gateway_options);
    const Status started = serving.gateway->Start();
    EXPECT_TRUE(started.ok()) << started.ToString();
    return serving;
  }

  /// Raw blocking loopback socket for byte-level protocol tests.
  static int RawConnect(uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    timeval tv{};
    tv.tv_sec = 5;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
              0)
        << ErrnoString(errno);
    return fd;
  }

  /// Reads whole frames off a raw socket until `count` arrived or 5s passed.
  static std::vector<net::Frame> ReadFrames(int fd, size_t count) {
    std::vector<net::Frame> frames;
    net::FrameDecoder decoder;
    char buf[4096];
    while (frames.size() < count) {
      net::Frame frame;
      const auto result = decoder.Next(&frame);
      if (result == net::FrameDecoder::Result::kFrame) {
        frames.push_back(frame);
        continue;
      }
      if (result == net::FrameDecoder::Result::kError) break;
      const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
      if (n <= 0) break;
      decoder.Append(buf, static_cast<size_t>(n));
    }
    return frames;
  }

  static kb::SyntheticKb* kb_;
};

kb::SyntheticKb* GatewayTest::kb_ = nullptr;

TEST_F(GatewayTest, FullCampaignRoundTripOverLoopback) {
  core::DocsSystemOptions options;
  options.golden_count = 8;
  options.lease_duration = 4;
  options.reinfer_every = 40;
  Serving serving = StartServing(options);

  // Register a returning worker server-side from the persistent store: she
  // skips the golden probe exactly as with the in-process facade.
  auto store = storage::WorkerStore::InMemory(kb_->knowledge_base.num_domains());
  storage::WorkerQualityRecord record;
  record.quality.assign(kb_->knowledge_base.num_domains(), 0.8);
  record.weight.assign(kb_->knowledge_base.num_domains(), 20.0);
  ASSERT_TRUE(store.Put("returning", record).ok());
  ASSERT_TRUE(serving.system->LoadWorker("returning", store).ok());

  crowd::WorkerPoolOptions pool_options;
  pool_options.num_workers = 4;
  auto workers = crowd::MakeWorkerPool(kb_->knowledge_base.num_domains(),
                                       serving.dataset.label_to_domain,
                                       pool_options, 7);

  size_t submitted = 0;
  Rng rng(11);
  for (size_t w = 0; w < workers.size(); ++w) {
    client::CrowdClient conn(TestClientOptions());
    ASSERT_TRUE(conn.Connect("127.0.0.1", serving.gateway->port()).ok());
    const std::string& id = (w == 0) ? "returning" : workers[w].id;
    for (int round = 0; round < 6; ++round) {
      std::vector<uint64_t> hit;
      ASSERT_TRUE(conn.RequestTasks(id, 3, &hit).ok());
      if (hit.empty()) break;
      for (uint64_t task : hit) {
        const auto& spec = serving.dataset.tasks[task];
        const Status answer = conn.SubmitAnswer(
            id, task,
            static_cast<uint32_t>(crowd::GenerateAnswer(
                workers[w], spec.true_domain, spec.truth, spec.num_choices(),
                rng)));
        ASSERT_TRUE(answer.ok()) << answer.ToString();
        ++submitted;
      }
    }
  }
  ASSERT_GT(submitted, 0u);

  // One more worker accepts a HIT and vanishes; a wire-driven expiry sweep
  // reclaims the abandoned grants.
  client::CrowdClient abandoner(TestClientOptions());
  ASSERT_TRUE(abandoner.Connect("127.0.0.1", serving.gateway->port()).ok());
  std::vector<uint64_t> abandoned;
  ASSERT_TRUE(abandoner.RequestTasks("no-show", 3, &abandoned).ok());
  ASSERT_FALSE(abandoned.empty());

  net::StatsResp stats;
  ASSERT_TRUE(abandoner.Stats(&stats).ok());
  EXPECT_EQ(stats.num_tasks, serving.dataset.tasks.size());
  EXPECT_EQ(stats.num_answers, submitted);
  EXPECT_GE(stats.outstanding_leases, abandoned.size());
  EXPECT_GT(stats.requests_served, 0u);

  std::vector<net::WireExpiredLease> expired;
  ASSERT_TRUE(
      abandoner
          .ExpireLeases(stats.lease_clock + options.lease_duration, &expired)
          .ok());
  EXPECT_GE(expired.size(), abandoned.size());
  ASSERT_TRUE(abandoner.Stats(&stats).ok());
  EXPECT_EQ(stats.outstanding_leases, 0u);

  // The engine behind the gateway saw a real campaign.
  EXPECT_EQ(serving.system->InferredChoices().size(),
            serving.dataset.tasks.size());
  EXPECT_EQ(serving.system->num_answers(), submitted);
  serving.gateway->Stop();
  EXPECT_FALSE(serving.gateway->running());
}

TEST_F(GatewayTest, ServerStatusCodesTravelTheWire) {
  core::DocsSystemOptions options;
  options.golden_count = 0;
  Serving serving = StartServing(options);
  client::CrowdClient conn(TestClientOptions());
  ASSERT_TRUE(conn.Connect("127.0.0.1", serving.gateway->port()).ok());

  // Never-seen worker: rejected instead of silently registered (the
  // facade-level regression is in concurrency_test; this is the wire view).
  Status status = conn.SubmitAnswer("ghost", 0, 0);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(status.message().find("never seen"), std::string::npos);

  std::vector<uint64_t> hit;
  ASSERT_TRUE(conn.RequestTasks("real", 2, &hit).ok());
  ASSERT_FALSE(hit.empty());
  ASSERT_TRUE(conn.SubmitAnswer("real", hit[0], 0).ok());
  // Duplicate answer and out-of-range choice keep their codes end-to-end.
  EXPECT_EQ(conn.SubmitAnswer("real", hit[0], 0).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(conn.SubmitAnswer("real", hit[1], 99).code(),
            StatusCode::kOutOfRange);
  EXPECT_EQ(conn.SubmitAnswer("real", 1u << 30, 0).code(),
            StatusCode::kInvalidArgument);
}

TEST_F(GatewayTest, TornFramesAndPipelinedRequests) {
  core::DocsSystemOptions options;
  options.golden_count = 0;
  Serving serving = StartServing(options);
  const int fd = RawConnect(serving.gateway->port());

  // One frame delivered in three separated slices: the gateway must buffer
  // the partial reads and answer once the frame completes.
  const std::string request = net::EncodeFrame(net::EncodeStatsReq());
  const size_t cuts[] = {5, 11, request.size()};  // mid-header, mid-length
  size_t start = 0;
  for (size_t cut : cuts) {
    ASSERT_GT(::send(fd, request.data() + start, cut - start, MSG_NOSIGNAL),
              0);
    start = cut;
    std::this_thread::sleep_for(milliseconds(20));
  }
  auto frames = ReadFrames(fd, 1);
  ASSERT_EQ(frames.size(), 1u);
  EXPECT_EQ(frames[0].type, net::MessageType::kStatsResp);
  EXPECT_EQ(frames[0].status, StatusCode::kOk);

  // Three pipelined requests in a single send: three responses, in order.
  std::string burst;
  net::RequestTasksReq tasks_req;
  tasks_req.worker_id = "pipelined";
  tasks_req.k = 2;
  burst += net::EncodeFrame(net::EncodeStatsReq());
  burst += net::EncodeFrame(net::EncodeRequestTasksReq(tasks_req));
  burst += net::EncodeFrame(net::EncodeStatsReq());
  ASSERT_EQ(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));
  frames = ReadFrames(fd, 3);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].type, net::MessageType::kStatsResp);
  EXPECT_EQ(frames[1].type, net::MessageType::kRequestTasksResp);
  EXPECT_EQ(frames[2].type, net::MessageType::kStatsResp);
  ::close(fd);
}

// A v1 peer must be able to decode what comes back, not just be decoded:
// its strict decoder rejects any frame stamped with a newer version, so the
// gateway mirrors the requester's version onto responses and re-shapes
// versioned bodies (StatsResp) to the v1 layout.
TEST_F(GatewayTest, V1PeerGetsV1ResponsesItCanDecode) {
  core::DocsSystemOptions options;
  options.golden_count = 0;
  Serving serving = StartServing(options);
  const int fd = RawConnect(serving.gateway->port());

  net::RequestTasksReq tasks_req;
  tasks_req.worker_id = "legacy";
  tasks_req.k = 2;
  net::Frame tasks_frame = net::EncodeRequestTasksReq(tasks_req);
  tasks_frame.version = 1;
  net::Frame stats_frame = net::EncodeStatsReq();
  stats_frame.version = 1;
  const std::string burst =
      net::EncodeFrame(tasks_frame) + net::EncodeFrame(stats_frame);
  ASSERT_EQ(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));

  auto frames = ReadFrames(fd, 2);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, net::MessageType::kRequestTasksResp);
  EXPECT_EQ(frames[0].version, 1);
  ASSERT_EQ(frames[1].type, net::MessageType::kStatsResp);
  EXPECT_EQ(frames[1].version, 1);
  // v1 layout: six u64 counters, no v2 durability trailer (which a v1
  // decoder would reject as trailing garbage).
  EXPECT_EQ(frames[1].payload.size(), 48u);
  net::StatsResp stats;
  ASSERT_TRUE(net::DecodeStatsResp(frames[1], &stats).ok());
  EXPECT_GT(stats.num_tasks, 0u);
  ::close(fd);
}

TEST_F(GatewayTest, GarbageBytesCloseTheConnection) {
  core::DocsSystemOptions options;
  options.golden_count = 0;
  Serving serving = StartServing(options);
  const int fd = RawConnect(serving.gateway->port());
  const char garbage[] = "GET / HTTP/1.1\r\n\r\n";
  ASSERT_GT(::send(fd, garbage, sizeof(garbage) - 1, MSG_NOSIGNAL), 0);
  char buf[64];
  EXPECT_EQ(::recv(fd, buf, sizeof(buf), 0), 0);  // orderly close, no reply
  ::close(fd);
  EXPECT_GE(serving.gateway->stats().protocol_errors, 1u);
}

TEST_F(GatewayTest, OverloadShedsWithUnavailableInsteadOfQueueing) {
  core::DocsSystemOptions options;
  options.golden_count = 0;
  CrowdGatewayOptions gateway_options;
  gateway_options.max_inflight = 2;
  Serving serving = StartServing(options, gateway_options);
  const int fd = RawConnect(serving.gateway->port());

  constexpr size_t kBurst = 10;
  std::string burst;
  for (size_t i = 0; i < kBurst; ++i) {
    burst += net::EncodeFrame(net::EncodeStatsReq());
  }
  // One send, no reads in between: the whole burst lands in one batch, so
  // everything past max_inflight must be shed with kUnavailable.
  ASSERT_EQ(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
            static_cast<ssize_t>(burst.size()));
  const auto frames = ReadFrames(fd, kBurst);
  ASSERT_EQ(frames.size(), kBurst);
  size_t ok = 0;
  size_t unavailable = 0;
  for (const auto& frame : frames) {
    EXPECT_EQ(frame.type, net::MessageType::kStatsResp);
    if (frame.status == StatusCode::kOk) ++ok;
    if (frame.status == StatusCode::kUnavailable) ++unavailable;
  }
  EXPECT_EQ(ok + unavailable, kBurst);
  EXPECT_GE(unavailable, 1u);
  const GatewayStats stats = serving.gateway->stats();
  EXPECT_EQ(stats.requests_served + stats.requests_shed, kBurst);
  EXPECT_EQ(stats.requests_shed, unavailable);
  // max_inflight is a per-reactor bound; with one reactor the per-reactor
  // contract is exactly the historical global one.
  const auto per_reactor = serving.gateway->reactor_stats();
  ASSERT_EQ(per_reactor.size(), 1u);
  EXPECT_EQ(per_reactor[0].requests_served, stats.requests_served);
  EXPECT_EQ(per_reactor[0].requests_shed, stats.requests_shed);
  ::close(fd);
}

TEST_F(GatewayTest, OverloadSheddingIsEvaluatedPerReactor) {
  core::DocsSystemOptions options;
  options.golden_count = 0;
  CrowdGatewayOptions gateway_options;
  gateway_options.num_reactors = 2;
  gateway_options.max_inflight = 2;
  Serving serving = StartServing(options, gateway_options);

  // Sequential connects land round-robin: one connection per reactor.
  const int fd0 = RawConnect(serving.gateway->port());
  const int fd1 = RawConnect(serving.gateway->port());

  constexpr size_t kBurst = 10;
  std::string burst;
  for (size_t i = 0; i < kBurst; ++i) {
    burst += net::EncodeFrame(net::EncodeStatsReq());
  }
  for (int fd : {fd0, fd1}) {
    ASSERT_EQ(::send(fd, burst.data(), burst.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(burst.size()));
  }
  for (int fd : {fd0, fd1}) {
    const auto frames = ReadFrames(fd, kBurst);
    ASSERT_EQ(frames.size(), kBurst);
    size_t ok = 0;
    size_t unavailable = 0;
    for (const auto& frame : frames) {
      EXPECT_EQ(frame.type, net::MessageType::kStatsResp);
      if (frame.status == StatusCode::kOk) ++ok;
      if (frame.status == StatusCode::kUnavailable) ++unavailable;
    }
    EXPECT_EQ(ok + unavailable, kBurst);
    EXPECT_GE(unavailable, 1u);
  }
  // Each reactor evaluated the in-flight bound against only the burst it
  // owns: its shedding never depends on what the other reactor is serving.
  const auto per_reactor = serving.gateway->reactor_stats();
  ASSERT_EQ(per_reactor.size(), 2u);
  for (const auto& reactor : per_reactor) {
    EXPECT_EQ(reactor.connections_accepted, 1u);
    EXPECT_EQ(reactor.requests_served + reactor.requests_shed, kBurst);
    EXPECT_GE(reactor.requests_shed, 1u);
  }
  const GatewayStats total = serving.gateway->stats();
  EXPECT_EQ(total.requests_served + total.requests_shed, 2 * kBurst);
  ::close(fd0);
  ::close(fd1);
}

TEST_F(GatewayTest, MultiReactorCampaignSpreadsConnectionsAndServesAll) {
  core::DocsSystemOptions options;
  options.golden_count = 0;
  options.reinfer_every = 25;
  CrowdGatewayOptions gateway_options;
  gateway_options.num_reactors = 4;
  Serving serving = StartServing(options, gateway_options);

  constexpr size_t kClients = 8;
  std::atomic<size_t> submitted{0};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      client::CrowdClient conn(TestClientOptions());
      if (!conn.Connect("127.0.0.1", serving.gateway->port()).ok()) {
        failures.fetch_add(1);
        return;
      }
      const std::string id = "rr-worker-" + std::to_string(c);
      for (int round = 0; round < 4; ++round) {
        std::vector<uint64_t> hit;
        if (!conn.RequestTasks(id, 3, &hit).ok()) {
          failures.fetch_add(1);
          return;
        }
        if (hit.empty()) break;  // pool drained
        for (uint64_t task : hit) {
          if (conn.SubmitAnswer(id, task, 0).ok()) submitted.fetch_add(1);
        }
      }
    });
  }
  for (auto& thread : clients) thread.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_GT(submitted.load(), 0u);
  EXPECT_EQ(serving.system->num_answers(), submitted.load());

  // Round-robin admission spread the 8 connections over all 4 reactors
  // exactly evenly, and every reactor really served traffic.
  const auto per_reactor = serving.gateway->reactor_stats();
  ASSERT_EQ(per_reactor.size(), 4u);
  uint64_t accepted = 0;
  uint64_t served = 0;
  for (const auto& reactor : per_reactor) {
    EXPECT_EQ(reactor.connections_accepted, kClients / 4);
    EXPECT_GT(reactor.requests_served, 0u);
    accepted += reactor.connections_accepted;
    served += reactor.requests_served;
  }
  GatewayStats total = serving.gateway->stats();
  EXPECT_EQ(total.connections_accepted, accepted);
  EXPECT_EQ(total.requests_served, served);

  // Counters survive shutdown: Stop() folds the per-reactor blocks into the
  // cumulative aggregate even though the reactors themselves are gone.
  serving.gateway->Stop();
  EXPECT_EQ(serving.gateway->stats().requests_served, served);
  EXPECT_TRUE(serving.gateway->reactor_stats().empty());
}

TEST_F(GatewayTest, KillingOneReactorsConnectionLeavesOthersServing) {
  core::DocsSystemOptions options;
  options.golden_count = 0;
  options.lease_duration = 8;
  CrowdGatewayOptions gateway_options;
  gateway_options.num_reactors = 2;
  Serving serving = StartServing(options, gateway_options);

  // Sequential connects land round-robin: doomed on reactor 0, survivor on
  // reactor 1.
  client::CrowdClient doomed(TestClientOptions());
  ASSERT_TRUE(doomed.Connect("127.0.0.1", serving.gateway->port()).ok());
  client::CrowdClient survivor(TestClientOptions());
  ASSERT_TRUE(survivor.Connect("127.0.0.1", serving.gateway->port()).ok());

  // Both are mid-campaign with leases outstanding when one dies.
  std::vector<uint64_t> doomed_hit;
  ASSERT_TRUE(doomed.RequestTasks("doomed", 2, &doomed_hit).ok());
  ASSERT_FALSE(doomed_hit.empty());
  std::vector<uint64_t> survivor_hit;
  ASSERT_TRUE(survivor.RequestTasks("survivor", 2, &survivor_hit).ok());
  ASSERT_FALSE(survivor_hit.empty());
  doomed.Close();

  // The other reactor keeps serving uninterrupted.
  for (uint64_t task : survivor_hit) {
    const Status answered = survivor.SubmitAnswer("survivor", task, 0);
    ASSERT_TRUE(answered.ok()) << answered.ToString();
  }
  net::StatsResp stats;
  ASSERT_TRUE(survivor.Stats(&stats).ok());
  EXPECT_EQ(stats.num_answers, survivor_hit.size());

  // The dead connection's slot frees up and fresh clients are admitted.
  client::CrowdClient replacement(TestClientOptions());
  ASSERT_TRUE(replacement.Connect("127.0.0.1", serving.gateway->port()).ok());
  EXPECT_TRUE(replacement.Stats(&stats).ok());
}

TEST_F(GatewayTest, InjectedAcceptFaultDropsOneConnectionNotTheServer) {
  core::DocsSystemOptions options;
  options.golden_count = 0;
  Serving serving = StartServing(options);
  FaultInjector::Global().ArmOneShot(kFaultGatewayAccept);

  client::CrowdClient first(TestClientOptions());
  ASSERT_TRUE(first.Connect("127.0.0.1", serving.gateway->port()).ok());
  net::StatsResp stats;
  EXPECT_EQ(first.Stats(&stats).code(), StatusCode::kIoError);

  client::CrowdClient second(TestClientOptions());
  ASSERT_TRUE(second.Connect("127.0.0.1", serving.gateway->port()).ok());
  EXPECT_TRUE(second.Stats(&stats).ok());
  EXPECT_GE(serving.gateway->stats().faults_injected, 1u);
}

TEST_F(GatewayTest, InjectedReadFaultDropsOneConnectionNotTheServer) {
  core::DocsSystemOptions options;
  options.golden_count = 0;
  Serving serving = StartServing(options);

  client::CrowdClient victim(TestClientOptions());
  ASSERT_TRUE(victim.Connect("127.0.0.1", serving.gateway->port()).ok());
  FaultInjector::Global().ArmOneShot(kFaultGatewayRead);
  net::StatsResp stats;
  EXPECT_EQ(victim.Stats(&stats).code(), StatusCode::kIoError);
  FaultInjector::Global().DisarmAll();

  client::CrowdClient survivor(TestClientOptions());
  ASSERT_TRUE(survivor.Connect("127.0.0.1", serving.gateway->port()).ok());
  EXPECT_TRUE(survivor.Stats(&stats).ok());
  EXPECT_GE(serving.gateway->stats().faults_injected, 1u);
}

TEST_F(GatewayTest, PeriodicLeaseSweepReclaimsAbandonedGrants) {
  core::DocsSystemOptions options;
  options.golden_count = 0;
  options.lease_duration = 1;
  CrowdGatewayOptions gateway_options;
  gateway_options.lease_expiry_interval_ms = 10;
  Serving serving = StartServing(options, gateway_options);

  client::CrowdClient conn(TestClientOptions());
  ASSERT_TRUE(conn.Connect("127.0.0.1", serving.gateway->port()).ok());
  // The no-show accepts a HIT and vanishes (logical deadline = clock + 1).
  std::vector<uint64_t> hit;
  ASSERT_TRUE(conn.RequestTasks("no-show", 2, &hit).ok());
  ASSERT_FALSE(hit.empty());
  // A diligent worker keeps the logical clock moving past that deadline;
  // only the gateway's periodic sweep may reclaim — no explicit expiry call.
  for (int round = 0; round < 3; ++round) {
    std::vector<uint64_t> work;
    ASSERT_TRUE(conn.RequestTasks("diligent", 1, &work).ok());
    for (uint64_t task : work) {
      const Status answered = conn.SubmitAnswer("diligent", task, 0);
      ASSERT_TRUE(answered.ok()) << answered.ToString();
    }
  }
  const auto deadline = steady_clock::now() + milliseconds(5000);
  net::StatsResp stats;
  do {
    std::this_thread::sleep_for(milliseconds(20));
    ASSERT_TRUE(conn.Stats(&stats).ok());
  } while (stats.outstanding_leases > 0 && steady_clock::now() < deadline);
  EXPECT_EQ(stats.outstanding_leases, 0u);
  EXPECT_GE(serving.gateway->stats().leases_expired, hit.size());
}

/// Regression for the async sweep-vs-publish race (DESIGN.md §15): the
/// reactor's periodic lease sweep runs at its tightest cadence while every
/// submission triggers a full EM pass on the inference thread, so sweeps
/// continuously overlap snapshot publication and the state-exclusive apply
/// window. The sweep must neither block behind the EM (it reads the clock
/// and books under the assign lock only) nor observe half-applied
/// retro-updates (it never touches inference state; it just records the
/// snapshot epoch it ran against). scripts/ci.sh runs this under TSan,
/// which is the half of the assertion a green run cannot show.
TEST_F(GatewayTest, AsyncLeaseSweepRacesPublishesCleanly) {
  core::DocsSystemOptions options;
  options.golden_count = 0;
  options.lease_duration = 1;
  options.reinfer_every = 1;  // every answer republishes through a full EM
  options.async_inference = true;
  CrowdGatewayOptions gateway_options;
  gateway_options.lease_expiry_interval_ms = 1;
  Serving serving = StartServing(options, gateway_options);

  client::CrowdClient conn(TestClientOptions());
  ASSERT_TRUE(conn.Connect("127.0.0.1", serving.gateway->port()).ok());
  // The no-show's grant must be reclaimed by the periodic sweep alone,
  // while publishes churn underneath it.
  std::vector<uint64_t> hit;
  ASSERT_TRUE(conn.RequestTasks("no-show", 2, &hit).ok());
  ASSERT_FALSE(hit.empty());
  size_t submitted = 0;
  for (int round = 0; round < 8; ++round) {
    std::vector<uint64_t> work;
    ASSERT_TRUE(conn.RequestTasks("diligent", 1, &work).ok());
    for (uint64_t task : work) {
      const Status answered = conn.SubmitAnswer("diligent", task, 0);
      ASSERT_TRUE(answered.ok()) << answered.ToString();
      ++submitted;
    }
  }
  const auto deadline = steady_clock::now() + milliseconds(5000);
  net::StatsResp stats;
  do {
    std::this_thread::sleep_for(milliseconds(20));
    ASSERT_TRUE(conn.Stats(&stats).ok());
  } while (stats.outstanding_leases > 0 && steady_clock::now() < deadline);
  EXPECT_EQ(stats.outstanding_leases, 0u);
  EXPECT_GE(serving.gateway->stats().leases_expired, hit.size());

  // Every acked answer is applied once quiesced, and the facade's staleness
  // fields show real publish + sweep progress.
  serving.system->Drain();
  EXPECT_EQ(serving.system->num_answers(), submitted);
  const core::AsyncInferenceStats async = serving.system->async_stats();
  // Publishes batch (one epoch can absorb several queued answers), so the
  // bound is progress past the ingest-time snapshot, not one-per-answer.
  EXPECT_GT(async.service.snapshot_epoch, 1u);
  EXPECT_GE(async.service.publishes, 1u);
  EXPECT_EQ(async.service.answers_pending, 0u);
  EXPECT_GE(async.last_sweep_epoch, 1u);
}

TEST_F(GatewayTest, GracefulShutdownClosesClientsCleanly) {
  core::DocsSystemOptions options;
  options.golden_count = 0;
  Serving serving = StartServing(options);
  client::CrowdClient conn(TestClientOptions());
  ASSERT_TRUE(conn.Connect("127.0.0.1", serving.gateway->port()).ok());
  net::StatsResp stats;
  ASSERT_TRUE(conn.Stats(&stats).ok());

  serving.gateway->Stop();
  EXPECT_FALSE(serving.gateway->running());
  // The drained connection reports an orderly close, not a wedged stream.
  EXPECT_EQ(conn.Stats(&stats).code(), StatusCode::kIoError);
  // Stop is idempotent and a stopped gateway can be restarted.
  serving.gateway->Stop();
  ASSERT_TRUE(serving.gateway->Start().ok());
  client::CrowdClient again(TestClientOptions());
  ASSERT_TRUE(again.Connect("127.0.0.1", serving.gateway->port()).ok());
  EXPECT_TRUE(again.Stats(&stats).ok());
  serving.gateway->Stop();
}

TEST_F(GatewayTest, ConnectionCapRejectsTheOverflowConnection) {
  core::DocsSystemOptions options;
  options.golden_count = 0;
  CrowdGatewayOptions gateway_options;
  gateway_options.max_connections = 1;
  Serving serving = StartServing(options, gateway_options);

  client::CrowdClient first(TestClientOptions());
  ASSERT_TRUE(first.Connect("127.0.0.1", serving.gateway->port()).ok());
  net::StatsResp stats;
  ASSERT_TRUE(first.Stats(&stats).ok());

  // The overflow connection completes its TCP handshake (the kernel backlog
  // holds it) but the gateway does not serve it while at the cap.
  client::CrowdClientOptions impatient;
  impatient.recv_timeout_ms = 200;
  client::CrowdClient second(impatient);
  ASSERT_TRUE(second.Connect("127.0.0.1", serving.gateway->port()).ok());
  EXPECT_EQ(second.Stats(&stats).code(), StatusCode::kIoError);
  second.Close();

  // Once the first connection departs, capacity frees up.
  first.Close();
  const auto deadline = steady_clock::now() + milliseconds(5000);
  Status admitted = IoError("never tried");
  while (steady_clock::now() < deadline) {
    client::CrowdClient retry(TestClientOptions());
    ASSERT_TRUE(retry.Connect("127.0.0.1", serving.gateway->port()).ok());
    admitted = retry.Stats(&stats);
    if (admitted.ok()) break;
    std::this_thread::sleep_for(milliseconds(20));
  }
  EXPECT_TRUE(admitted.ok()) << admitted.ToString();
}

TEST_F(GatewayTest, StatsStaysCallableConcurrentlyWithStop) {
  // stats() and reactor_stats() hold only lifecycle_mutex_, and Stop()
  // deliberately joins the drain through a reactor snapshot *without* that
  // lock (see CrowdGateway::Stop) — so a monitoring thread polling stats
  // during shutdown must neither deadlock nor block for the drain timeout.
  // The DOCS_EXCLUDES(lifecycle_mutex_) contract on stats() is the static
  // half of this guarantee; this test pins the dynamic half.
  core::DocsSystemOptions options;
  options.golden_count = 0;
  CrowdGatewayOptions gateway_options;
  gateway_options.num_reactors = 2;
  gateway_options.drain_timeout_ms = 500;
  Serving serving = StartServing(options, gateway_options);

  client::CrowdClient conn(TestClientOptions());
  ASSERT_TRUE(conn.Connect("127.0.0.1", serving.gateway->port()).ok());
  net::StatsResp wire_stats;
  ASSERT_TRUE(conn.Stats(&wire_stats).ok());
  const uint64_t served_before = serving.gateway->stats().requests_served;
  ASSERT_GE(served_before, 1u);

  // Poll stats from a second thread for the whole Stop() window, with the
  // connection above still open so the reactors actually walk the drain
  // path. A lost wakeup or a stats-vs-drain lock coupling turns into a test
  // timeout here (gateway_test runs under TSan in CI as well).
  std::atomic<bool> monitoring{true};
  std::atomic<uint64_t> polls{0};
  std::thread monitor([&] {
    while (monitoring.load(std::memory_order_acquire)) {
      const GatewayStats snapshot = serving.gateway->stats();
      EXPECT_GE(snapshot.requests_served, served_before);
      (void)serving.gateway->reactor_stats();
      polls.fetch_add(1);
    }
  });
  // Give the monitor a head start so Stop() is guaranteed to overlap it.
  while (polls.load() == 0) std::this_thread::sleep_for(milliseconds(1));
  serving.gateway->Stop();
  monitoring.store(false, std::memory_order_release);
  monitor.join();
  EXPECT_GE(polls.load(), 1u);

  // The Stop() fold into retired_ keeps the totals cumulative: nothing
  // served before shutdown may vanish from a post-shutdown snapshot.
  EXPECT_GE(serving.gateway->stats().requests_served, served_before);
  EXPECT_TRUE(serving.gateway->reactor_stats().empty());
}

}  // namespace
}  // namespace docs::server
