// Connection-lifecycle battery for the TCP front end (DESIGN.md §6i):
// round trips and pipelining over real loopback sockets, connection
// and pipeline caps answered with the admission layer's
// Rejected{retry_after} shape, deterministic idle/slowloris timeouts
// via an injected clock, EPIPE survival, goodbye and Stop() drains
// that abandon nothing, the completion lifetimes of the single-hop
// request path (inline cache hits, socket followers bounded by their
// own deadline, late completions after a force-close), and the
// vkg_net_* stats mirror.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <thread>
#include <vector>

#include "core/virtual_graph.h"
#include "data/movielens_gen.h"
#include "data/workload.h"
#include "net/client.h"
#include "net/frame.h"
#include "net/listener.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "query/request.h"
#include "server/server.h"
#include "util/failpoint.h"
#include "util/socket.h"

namespace vkg::net {
namespace {

class NetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::MovieLensConfig config;
    config.num_users = 400;
    config.num_movies = 200;
    config.seed = 71;
    data::Dataset ds = data::GenerateMovieLensLike(config);
    graph_ = new kg::KnowledgeGraph(std::move(ds.graph));
    core::VkgOptions options;
    options.method = index::MethodKind::kCracking;
    auto vkg = core::VirtualKnowledgeGraph::BuildWithEmbeddings(
        graph_, std::move(ds.embeddings), options);
    ASSERT_TRUE(vkg.ok());
    server::ServerConfig sc;
    sc.shards = 2;
    auto srv = server::VkgServer::Create(
        std::shared_ptr<core::VirtualKnowledgeGraph>(std::move(vkg.value())),
        sc);
    ASSERT_TRUE(srv.ok());
    server_ = srv.value().release();
  }
  static void TearDownTestSuite() {
    delete server_;
    delete graph_;
  }
  void TearDown() override { util::FailPointRegistry::Instance().Clear(); }

  static std::unique_ptr<NetServer> StartNet(NetServerConfig config) {
    auto net = NetServer::Start(server_, config);
    EXPECT_TRUE(net.ok()) << net.status().ToString();
    return std::move(net.value());
  }

  static std::unique_ptr<NetClient> Connect(uint16_t port) {
    NetClientConfig config;
    config.port = port;
    auto client = NetClient::Connect(config);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client.value());
  }

  static query::ServerRequest TopKRequest(uint32_t anchor, size_t k = 10) {
    query::ServerRequest request;
    request.query.anchor = anchor;
    request.query.relation = 0;
    request.k = k;
    return request;
  }

  /// Spin (bounded) until `predicate` observes the listener state.
  template <typename Fn>
  static bool WaitFor(Fn predicate, double timeout_ms = 3000.0) {
    const auto give_up = std::chrono::steady_clock::now() +
                         std::chrono::duration<double, std::milli>(timeout_ms);
    while (std::chrono::steady_clock::now() < give_up) {
      if (predicate()) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return predicate();
  }

  static kg::KnowledgeGraph* graph_;
  static server::VkgServer* server_;
};

kg::KnowledgeGraph* NetTest::graph_ = nullptr;
server::VkgServer* NetTest::server_ = nullptr;

// ---------------------------------------------------------------------------
// Round trips
// ---------------------------------------------------------------------------

TEST_F(NetTest, PingAndTopKRoundTripMatchInProcessAnswer) {
  auto net = StartNet({});
  auto client = Connect(net->port());
  ASSERT_TRUE(client->Ping().ok());

  query::ServerRequest request = TopKRequest(3);
  request.bypass_cache = true;
  query::ServerResponse want = server_->Execute(TopKRequest(3));
  auto got = client->Call(request);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(got.value().ok()) << got.value().status.ToString();
  ASSERT_TRUE(want.ok());
  ASSERT_EQ(got.value().topk.hits.size(), want.topk.hits.size());
  for (size_t h = 0; h < want.topk.hits.size(); ++h) {
    EXPECT_EQ(got.value().topk.hits[h].entity, want.topk.hits[h].entity);
    EXPECT_NEAR(got.value().topk.hits[h].distance,
                want.topk.hits[h].distance, 1e-12);
  }
  client->Goodbye();
  net->Stop();
  const NetStats stats = net->Stats();
  EXPECT_EQ(stats.requests, 1u);
  EXPECT_EQ(stats.responses, 1u);
  EXPECT_EQ(stats.open, 0u);
}

TEST_F(NetTest, AggregateRoundTrip) {
  auto net = StartNet({});
  auto client = Connect(net->port());
  query::ServerRequest request;
  request.kind = query::RequestKind::kAggregate;
  request.aggregate.query.anchor = 5;
  request.aggregate.query.relation = 0;
  request.aggregate.kind = query::AggKind::kCount;
  request.aggregate.prob_threshold = 0.05;
  auto got = client->Call(request);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(got.value().ok()) << got.value().status.ToString();
  query::ServerResponse want = server_->Execute(std::move(request));
  ASSERT_TRUE(want.ok());
  EXPECT_NEAR(got.value().aggregate.value, want.aggregate.value, 1e-9);
}

TEST_F(NetTest, PipelinedRequestsAllAnswerWithMatchingIds) {
  auto net = StartNet({});
  auto client = Connect(net->port());
  constexpr size_t kInFlight = 16;
  for (uint64_t id = 1; id <= kInFlight; ++id) {
    ASSERT_TRUE(
        client->Send(id, TopKRequest(static_cast<uint32_t>(id))).ok());
  }
  std::vector<bool> seen(kInFlight + 1, false);
  for (size_t i = 0; i < kInFlight; ++i) {
    uint64_t id = 0;
    auto response = client->Receive(&id);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    ASSERT_GE(id, 1u);
    ASSERT_LE(id, kInFlight);
    EXPECT_FALSE(seen[id]) << "duplicate response id " << id;
    seen[id] = true;
  }
}

// ---------------------------------------------------------------------------
// Caps: the network edge of the admission layer
// ---------------------------------------------------------------------------

TEST_F(NetTest, ConnectionCapRejectsWithRetryAfter) {
  NetServerConfig config;
  config.max_connections = 1;
  config.overload_retry_after_ms = 75.0;
  auto net = StartNet(config);
  auto first = Connect(net->port());
  ASSERT_TRUE(first->Ping().ok());  // registered with the loop

  auto second = Connect(net->port());
  const util::Status status = second->Ping();
  EXPECT_EQ(status.code(), util::StatusCode::kResourceExhausted)
      << status.ToString();
  EXPECT_EQ(second->last_error().code, WireErrorCode::kRejected);
  // Satellite contract: retry_after_ms on a connection-cap rejection is
  // the server's fixed overload hint, same semantics as queue-full.
  EXPECT_EQ(second->last_error().retry_after_ms, 75.0);
  EXPECT_EQ(net->Stats().rejected_cap, 1u);
}

TEST_F(NetTest, PerIpCapRejectsWithRetryAfter) {
  NetServerConfig config;
  config.max_connections_per_ip = 1;
  auto net = StartNet(config);
  auto first = Connect(net->port());
  ASSERT_TRUE(first->Ping().ok());
  auto second = Connect(net->port());
  const util::Status status = second->Ping();
  EXPECT_EQ(status.code(), util::StatusCode::kResourceExhausted);
  EXPECT_EQ(second->last_error().code, WireErrorCode::kRejected);
  EXPECT_EQ(net->Stats().rejected_ip, 1u);

  // The slot frees on close: a third client fits again.
  first->Goodbye();
  ASSERT_TRUE(WaitFor([&] { return net->Stats().open == 0; }));
  auto third = Connect(net->port());
  EXPECT_TRUE(third->Ping().ok());
}

TEST_F(NetTest, PipelineCapRejectsExcessWithoutClosing) {
  NetServerConfig config;
  config.max_pipeline = 1;
  config.overload_retry_after_ms = 33.0;
  auto net = StartNet(config);
  auto client = Connect(net->port());
  // Hold the one pipeline slot busy on the worker side so the burst
  // races it deterministically.
  ASSERT_TRUE(util::FailPointRegistry::Instance()
                  .ConfigureSite("server.queue", "1*delay(200),off")
                  .ok());
  constexpr size_t kBurst = 8;
  for (uint64_t id = 1; id <= kBurst; ++id) {
    ASSERT_TRUE(client->Send(id, TopKRequest(7, 5 + id)).ok());
  }
  size_t rejected = 0;
  for (size_t i = 0; i < kBurst; ++i) {
    uint64_t id = 0;
    auto response = client->Receive(&id);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    if (!response.value().ok()) {
      EXPECT_EQ(response.value().status.code(),
                util::StatusCode::kResourceExhausted);
      EXPECT_EQ(response.value().meta.retry_after_ms, 33.0);
      ++rejected;
    }
  }
  EXPECT_GE(rejected, 1u);
  EXPECT_EQ(net->Stats().pipeline_rejected, rejected);
  // The connection survived the rejections.
  EXPECT_TRUE(client->Ping().ok());
}

// ---------------------------------------------------------------------------
// Deterministic timeouts via the injected clock
// ---------------------------------------------------------------------------

TEST_F(NetTest, IdleTimeoutClosesViaInjectedClock) {
  std::atomic<int64_t> fake_ms{0};
  const auto base = std::chrono::steady_clock::now();
  NetServerConfig config;
  config.idle_timeout_ms = 60000.0;
  config.clock = [base, &fake_ms] {
    return base + std::chrono::milliseconds(fake_ms.load());
  };
  auto net = StartNet(config);
  auto client = Connect(net->port());
  ASSERT_TRUE(client->Ping().ok());
  ASSERT_TRUE(WaitFor([&] { return net->Stats().open == 1; }));

  // 59s of fake idleness: nothing happens.
  fake_ms.store(59000);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(net->Stats().idle_timeouts, 0u);
  EXPECT_EQ(net->Stats().open, 1u);

  // One more fake minute: the connection must close, deterministically,
  // with a kIdle error frame — no real minute elapsed.
  fake_ms.store(121000);
  ASSERT_TRUE(WaitFor([&] { return net->Stats().idle_timeouts == 1; }));
  ASSERT_TRUE(WaitFor([&] { return net->Stats().open == 0; }));
  uint64_t id = 0;
  const auto response = client->Receive(&id);
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(client->last_error().code, WireErrorCode::kIdle);
  net->Stop();
}

TEST_F(NetTest, SlowlorisPartialFrameKickedByReadDeadline) {
  std::atomic<int64_t> fake_ms{0};
  const auto base = std::chrono::steady_clock::now();
  NetServerConfig config;
  config.read_deadline_ms = 5000.0;
  config.clock = [base, &fake_ms] {
    return base + std::chrono::milliseconds(fake_ms.load());
  };
  auto net = StartNet(config);
  auto client = Connect(net->port());

  // Trickle: a frame header promising a payload that never arrives —
  // the classic slowloris hold.
  std::string frame = EncodeFrame(FrameType::kRequest, "never finished");
  ASSERT_TRUE(client->SendRaw(frame.substr(0, frame.size() - 4)).ok());
  ASSERT_TRUE(WaitFor([&] { return net->Stats().bytes_rx > 0; }));

  // Under the deadline: still waiting patiently.
  fake_ms.store(4000);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(net->Stats().read_timeouts, 0u);

  // Past it: deterministic close, counted as a read timeout.
  fake_ms.store(5100);
  ASSERT_TRUE(WaitFor([&] { return net->Stats().read_timeouts == 1; }));
  ASSERT_TRUE(WaitFor([&] { return net->Stats().open == 0; }));
  net->Stop();
}

// ---------------------------------------------------------------------------
// Lifecycle: EPIPE, goodbye, drain
// ---------------------------------------------------------------------------

TEST_F(NetTest, ClientVanishingMidResponseDoesNotKillServer) {
  auto net = StartNet({});
  {
    auto client = Connect(net->port());
    // Queue work, then vanish before reading: the response write hits a
    // dead socket (EPIPE/ECONNRESET), which must surface as a closed
    // connection, not a process kill.
    ASSERT_TRUE(client->Send(1, TopKRequest(9)).ok());
    client->Close();
  }
  ASSERT_TRUE(WaitFor([&] { return net->Stats().open == 0; }));
  // Server is fine; a new client gets answers.
  auto probe = Connect(net->port());
  auto response = probe->Call(TopKRequest(4));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_TRUE(response.value().ok());
}

TEST_F(NetTest, GoodbyeFlushesInFlightResponsesThenCloses) {
  auto net = StartNet({});
  auto client = Connect(net->port());
  ASSERT_TRUE(client->Send(42, TopKRequest(11)).ok());
  // Goodbye races the in-flight request: the response must still
  // arrive, then the connection closes cleanly.
  ASSERT_TRUE(client->SendRaw(EncodeFrame(FrameType::kGoodbye, "")).ok());
  uint64_t id = 0;
  auto response = client->Receive(&id);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(id, 42u);
  const auto after = client->Receive(&id);
  EXPECT_FALSE(after.ok());  // clean close after the flush
  ASSERT_TRUE(WaitFor([&] { return net->Stats().open == 0; }));
}

TEST_F(NetTest, StopDrainsInFlightRequestsAbandoningNothing) {
  auto net = StartNet({});
  // Slow the workers so Stop() lands while calls are in flight.
  ASSERT_TRUE(util::FailPointRegistry::Instance()
                  .ConfigureSite("server.queue", "4*delay(100),off")
                  .ok());
  constexpr size_t kClients = 4;
  std::atomic<size_t> resolved{0};
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = Connect(net->port());
      auto response =
          client->Call(TopKRequest(static_cast<uint32_t>(20 + c)));
      // Either answered before the drain finished, or told the server
      // is going away — but always a definitive resolution.
      if (response.ok()) {
        EXPECT_TRUE(response.value().ok() ||
                    !response.value().status.ok());
      }
      resolved.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  net->Stop();
  for (auto& t : threads) t.join();
  EXPECT_EQ(resolved.load(), kClients);
  EXPECT_EQ(net->Stats().open, 0u);

  // The listener is gone…
  NetClientConfig cc;
  cc.port = net->port();
  cc.connect_timeout_ms = 200.0;
  EXPECT_FALSE(NetClient::Connect(cc).ok());
  // …but the in-process server underneath is untouched.
  query::ServerResponse alive = server_->Execute(TopKRequest(2));
  EXPECT_TRUE(alive.ok());
}

TEST_F(NetTest, RequestsDuringDrainGetShuttingDownError) {
  std::atomic<int64_t> fake_ms{0};
  const auto base = std::chrono::steady_clock::now();
  NetServerConfig config;
  config.drain_timeout_ms = 30000.0;
  config.clock = [base, &fake_ms] {
    return base + std::chrono::milliseconds(fake_ms.load());
  };
  auto net = StartNet(config);
  auto client = Connect(net->port());
  ASSERT_TRUE(client->Ping().ok());
  std::thread stopper([&] { net->Stop(); });
  // The loop stops reading from drained connections, so the request is
  // either answered with kShuttingDown (if it sneaks in first) or the
  // connection just closes — never a hang.
  auto response = client->Call(TopKRequest(6));
  EXPECT_FALSE(response.ok() && !response.value().ok() &&
               response.value().status.code() !=
                   util::StatusCode::kUnavailable);
  stopper.join();
  EXPECT_EQ(net->Stats().open, 0u);
}

// ---------------------------------------------------------------------------
// Completion lifetimes of the single-hop path
// ---------------------------------------------------------------------------

TEST_F(NetTest, StopOutlivesLateCompletionAfterForceClose) {
  NetServerConfig config;
  config.drain_timeout_ms = 20.0;
  auto net = StartNet(config);
  ASSERT_TRUE(util::FailPointRegistry::Instance()
                  .ConfigureSite("server.queue", "1*delay(300),off")
                  .ok());
  auto client = Connect(net->port());
  query::ServerRequest request = TopKRequest(31);
  request.bypass_cache = true;
  const uint64_t computed_before = server_->Stats().computed_topk;
  ASSERT_TRUE(client->Send(1, request).ok());
  ASSERT_TRUE(WaitFor([&] { return net->Stats().requests == 1; }));
  // The drain times out while the shard worker still stalls: the
  // connection is force-closed, but Stop() returns only once the
  // completion it submitted has run (and dropped its bytes).
  net->Stop();
  EXPECT_EQ(server_->Stats().computed_topk, computed_before + 1);
  const NetStats stats = net->Stats();
  net.reset();  // destroyed right after Stop(): nothing may call into it
  server_->Drain();
  EXPECT_EQ(stats.force_closed, 1u);
  EXPECT_EQ(stats.responses, 0u);
  EXPECT_EQ(stats.open, 0u);
  uint64_t id = 0;
  EXPECT_FALSE(client->Receive(&id).ok());
}

TEST_F(NetTest, SocketFollowerResolvesByItsOwnDeadline) {
  auto net = StartNet({});
  auto client = Connect(net->port());
  ASSERT_TRUE(client->Ping().ok());
  ASSERT_TRUE(util::FailPointRegistry::Instance()
                  .ConfigureSite("server.queue", "1*delay(300),off")
                  .ok());
  const uint64_t expired_before = server_->Stats().expired_waiting;
  query::ServerRequest request = TopKRequest(37);
  request.bypass_cache = true;
  // The leader holds its shard worker for 300 ms.
  server::VkgServer::Ticket leader = server_->Submit(request);
  query::ServerRequest follower = request;
  follower.deadline_ms = 20.0;
  const auto start = std::chrono::steady_clock::now();
  auto got = client->Call(follower);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got.value().status.code(), util::StatusCode::kDeadlineExceeded)
      << got.value().status.ToString();
  EXPECT_TRUE(got.value().meta.coalesced);
  // 20 ms deadline + one 10 ms loop tick, plus scheduling slack for
  // sanitizer builds; far below the leader's 300 ms.
  EXPECT_LT(elapsed, std::chrono::milliseconds(150));
  // The leader's late result reaches the expired follower as a no-op:
  // counted once, answered once.
  EXPECT_TRUE(leader.Get().ok());
  server_->Drain();
  EXPECT_EQ(server_->Stats().expired_waiting, expired_before + 1);
  net->Stop();
  EXPECT_EQ(net->Stats().responses, 1u);
}

TEST_F(NetTest, CacheHitOverSocketDoesNoShardWork) {
  auto net = StartNet({});
  auto client = Connect(net->port());
  ASSERT_TRUE(client->Call(TopKRequest(41)).ok());  // warms the cache
  server_->Drain();
  const server::ServerStats before = server_->Stats();
  auto hit = client->Call(TopKRequest(41));
  ASSERT_TRUE(hit.ok()) << hit.status().ToString();
  ASSERT_TRUE(hit.value().ok()) << hit.value().status.ToString();
  EXPECT_TRUE(hit.value().meta.cache_hit);
  const server::ServerStats after = server_->Stats();
  EXPECT_EQ(after.computed_topk, before.computed_topk);
  EXPECT_EQ(after.cache_hits, before.cache_hits + 1);
  ASSERT_EQ(after.shards.size(), before.shards.size());
  for (size_t s = 0; s < after.shards.size(); ++s) {
    EXPECT_EQ(after.shards[s].depth, before.shards[s].depth);
    EXPECT_EQ(after.shards[s].depth, 0u);
  }
}

// ---------------------------------------------------------------------------
// Failpoints and stats
// ---------------------------------------------------------------------------

TEST_F(NetTest, NetFrameFailpointPoisonsConnectionCleanly) {
  auto net = StartNet({});
  ASSERT_TRUE(util::FailPointRegistry::Instance()
                  .ConfigureSite("net.frame", "1*fail,off")
                  .ok());
  auto client = Connect(net->port());
  const auto response = client->Call(TopKRequest(8));
  EXPECT_FALSE(response.ok());
  EXPECT_EQ(client->last_error().code, WireErrorCode::kMalformed);
  ASSERT_TRUE(WaitFor([&] { return net->Stats().open == 0; }));
  // Next connection is clean: the failpoint sequence is exhausted.
  auto again = Connect(net->port());
  auto ok_response = again->Call(TopKRequest(8));
  ASSERT_TRUE(ok_response.ok()) << ok_response.status().ToString();
}

TEST_F(NetTest, PublishStatsMirrorsCountersIntoRegistry) {
  auto net = StartNet({});
  auto client = Connect(net->port());
  ASSERT_TRUE(client->Call(TopKRequest(13)).ok());
  net->PublishStats();
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  EXPECT_GE(reg.GetGauge("vkg_net_connections_accepted").Value(), 1.0);
  EXPECT_GE(reg.GetGauge("vkg_net_frames_rx").Value(), 1.0);
  EXPECT_GE(reg.GetGauge("vkg_net_requests").Value(), 1.0);
  const auto rtt = reg.GetHistogram("vkg_net_rtt_us").Snap();
  EXPECT_GE(rtt.count, 1u);
}

}  // namespace
}  // namespace vkg::net
