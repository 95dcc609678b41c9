// Server-grade battery for the sharded in-process query server
// (DESIGN.md §6g): an N-thread mixed top-k/aggregate storm checked
// against a sequential oracle, bit-identical cache hits, the
// generation-invalidation contract ("no cache entry survives a crack
// publication", on any shard), served answers equal to the facade's on
// the one shared tree, deterministic duplicate coalescing, admission control,
// backpressure, and per-request failpoint isolation. Runs under TSan
// and ASan in CI; VKG_CHAOS_THREADS sweeps the client count.
//
// The load-bearing invariant is inherited from the engines: cracking
// refines *cost*, never *answers* — so whatever mix of cache hits,
// coalesced attachments, and fresh computations a storm produces, every
// response must equal the sequential oracle's answer for that query.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/virtual_graph.h"
#include "data/movielens_gen.h"
#include "data/workload.h"
#include "obs/metrics.h"
#include "query/request.h"
#include "server/server.h"
#include "util/failpoint.h"

namespace vkg::server {
namespace {

size_t ChaosThreads() {
  const char* env = std::getenv("VKG_CHAOS_THREADS");
  if (env != nullptr && env[0] != '\0') {
    long n = std::atol(env);
    if (n >= 1) return static_cast<size_t>(n);
  }
  return 4;
}

class ServerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data::MovieLensConfig config;
    config.num_users = 1000;
    config.num_movies = 500;
    config.seed = 81;
    ds_ = new data::Dataset(data::GenerateMovieLensLike(config));
    data::WorkloadConfig wc;
    wc.num_queries = 40;
    wc.seed = 82;
    workload_ =
        new std::vector<data::Query>(data::GenerateWorkload(ds_->graph, wc));
  }
  static void TearDownTestSuite() {
    delete ds_;
    delete workload_;
  }
  void TearDown() override { util::FailPointRegistry::Instance().Clear(); }

  // A fresh VKG over the suite's dataset: its tree starts uncracked.
  static std::shared_ptr<core::VirtualKnowledgeGraph> MakeVkg() {
    core::VkgOptions options;
    options.method = index::MethodKind::kCracking;
    embedding::EmbeddingStore copy = ds_->embeddings;
    auto vkg = core::VirtualKnowledgeGraph::BuildWithEmbeddings(
        &ds_->graph, std::move(copy), options);
    EXPECT_TRUE(vkg.ok());
    return std::move(vkg.value());
  }

  static std::unique_ptr<VkgServer> MakeServer(
      const ServerConfig& config,
      std::shared_ptr<core::VirtualKnowledgeGraph> vkg = MakeVkg()) {
    auto srv = VkgServer::Create(std::move(vkg), config);
    EXPECT_TRUE(srv.ok());
    return std::move(srv.value());
  }

  // Runs `requests` uncached through `srv` until a pass publishes no
  // crack; returns the number of passes (0 when none settled in 16).
  static size_t CrackToFixedPoint(VkgServer& srv,
                                  std::vector<query::ServerRequest> requests) {
    for (auto& r : requests) r.bypass_cache = true;
    for (size_t pass = 1; pass <= 16; ++pass) {
      const uint64_t before = srv.Stats().generation;
      for (const auto& r : requests) EXPECT_TRUE(srv.Execute(r).ok());
      if (srv.Stats().generation == before) return pass;
    }
    return 0;
  }

  // Every workload slot's request (top-k or COUNT, as RequestFor
  // decides), asked once per direction.
  static std::vector<query::ServerRequest> BothDirections() {
    std::vector<query::ServerRequest> requests;
    for (size_t i = 0; i < workload_->size(); ++i) {
      for (kg::Direction d : {kg::Direction::kTail, kg::Direction::kHead}) {
        query::ServerRequest r = RequestFor(i);
        r.query.direction = d;
        r.aggregate.query.direction = d;
        requests.push_back(r);
      }
    }
    return requests;
  }

  static void ExpectBitIdentical(const query::TopKResult& got,
                                 const query::TopKResult& want) {
    ASSERT_EQ(got.hits.size(), want.hits.size());
    for (size_t h = 0; h < got.hits.size(); ++h) {
      EXPECT_EQ(got.hits[h].entity, want.hits[h].entity) << "hit " << h;
      EXPECT_EQ(std::memcmp(&got.hits[h].distance, &want.hits[h].distance,
                            sizeof(double)),
                0)
          << "hit " << h;
      EXPECT_EQ(std::memcmp(&got.hits[h].probability,
                            &want.hits[h].probability, sizeof(double)),
                0)
          << "hit " << h;
    }
  }

  // The storm's deterministic request mix: every 5th slot is a COUNT
  // aggregate, the rest are top-k.
  static query::ServerRequest RequestFor(size_t slot, bool bypass = false) {
    const data::Query& q = (*workload_)[slot];
    query::ServerRequest request;
    if (slot % 5 == 4) {
      request.kind = query::RequestKind::kAggregate;
      request.aggregate.query = q;
      request.aggregate.kind = query::AggKind::kCount;
      request.aggregate.prob_threshold = 0.05;
    } else {
      request.query = q;
      request.k = 10;
    }
    request.bypass_cache = bypass;
    return request;
  }

  static void ExpectSameAnswer(const query::ServerResponse& got,
                               const query::ServerResponse& want,
                               size_t slot) {
    ASSERT_TRUE(got.ok()) << "slot " << slot << ": "
                          << got.status.ToString();
    ASSERT_TRUE(want.ok()) << "slot " << slot;
    if (slot % 5 == 4) {
      // The expected count is a probability sum accumulated in
      // traversal order; different tree shapes sum in different orders,
      // so equality holds to rounding, not bitwise.
      EXPECT_NEAR(got.aggregate.value, want.aggregate.value,
                  1e-9 * std::max(1.0, std::abs(want.aggregate.value)))
          << "slot " << slot;
      EXPECT_EQ(got.aggregate.quality.exact, want.aggregate.quality.exact)
          << "slot " << slot;
      return;
    }
    ASSERT_EQ(got.topk.hits.size(), want.topk.hits.size()) << "slot " << slot;
    for (size_t h = 0; h < got.topk.hits.size(); ++h) {
      EXPECT_EQ(got.topk.hits[h].entity, want.topk.hits[h].entity)
          << "slot " << slot << " hit " << h;
      EXPECT_NEAR(got.topk.hits[h].distance, want.topk.hits[h].distance,
                  1e-9)
          << "slot " << slot << " hit " << h;
    }
  }

  static data::Dataset* ds_;
  static std::vector<data::Query>* workload_;
};

data::Dataset* ServerTest::ds_ = nullptr;
std::vector<data::Query>* ServerTest::workload_ = nullptr;

// ---------------------------------------------------------------------------
// Storm vs. sequential oracle
// ---------------------------------------------------------------------------

TEST_F(ServerTest, StormMatchesSequentialOracle) {
  // Oracle: one fresh server, driven sequentially with the cache off so
  // every answer is an actual computation.
  ServerConfig oracle_config;
  oracle_config.shards = 1;
  oracle_config.cache_bytes = 0;
  auto oracle_srv = MakeServer(oracle_config);
  std::vector<query::ServerResponse> oracle(workload_->size());
  for (size_t i = 0; i < workload_->size(); ++i) {
    oracle[i] = oracle_srv->Execute(RequestFor(i));
    ASSERT_TRUE(oracle[i].ok()) << oracle[i].status.ToString();
  }

  // Storm: N client threads, two passes each over the whole workload at
  // staggered offsets — the same keys race through compute, cache, and
  // coalescing paths concurrently.
  ServerConfig config;
  config.shards = 3;
  config.threads_per_shard = 2;
  auto srv = MakeServer(config);
  const size_t threads = ChaosThreads();
  std::atomic<size_t> checked{0};
  std::vector<std::thread> crew;
  crew.reserve(threads);
  std::vector<std::vector<query::ServerResponse>> responses(
      threads, std::vector<query::ServerResponse>(workload_->size()));
  for (size_t t = 0; t < threads; ++t) {
    crew.emplace_back([&, t] {
      for (size_t pass = 0; pass < 2; ++pass) {
        for (size_t i = 0; i < workload_->size(); ++i) {
          const size_t j = (i + t * 7) % workload_->size();
          responses[t][j] = srv->Execute(RequestFor(j));
          checked.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : crew) th.join();
  srv->Drain();
  EXPECT_EQ(checked.load(), threads * 2 * workload_->size());

  // Every thread's final answer for every slot matches the oracle,
  // whether it came from a computation, the cache, or a coalesced
  // attachment.
  for (size_t t = 0; t < threads; ++t) {
    for (size_t i = 0; i < workload_->size(); ++i) {
      ExpectSameAnswer(responses[t][i], oracle[i], i);
    }
  }

  // Post-storm verification pass (single-threaded, nothing cracks on a
  // cache hit): any hit served now must be stamped with the shard's
  // *current* generation — a stale stamp would mean the invalidation
  // contract let an old entry survive a publication.
  for (size_t i = 0; i < workload_->size(); ++i) {
    query::ServerResponse r = srv->Execute(RequestFor(i));
    ASSERT_TRUE(r.ok());
    if (r.meta.cache_hit) {
      EXPECT_EQ(r.meta.generation, srv->ShardGeneration(r.meta.shard))
          << "slot " << i << " served a stale-generation entry";
    }
    ExpectSameAnswer(r, oracle[i], i);
  }

  srv->Drain();  // workers release their slots after fulfilling promises
  ServerStats stats = srv->Stats();
  EXPECT_EQ(stats.rejected_rate, 0u);
  EXPECT_EQ(stats.rejected_overload, 0u);
  EXPECT_GT(stats.computed_topk, 0u);
  EXPECT_GT(stats.computed_aggregate, 0u);
  EXPECT_GT(stats.cache_hits, 0u);
  for (const auto& shard : stats.shards) {
    EXPECT_EQ(shard.depth, 0u) << "shard " << shard.shard << " leaked slots";
    EXPECT_EQ(shard.in_flight, 0u);
  }
}

// ---------------------------------------------------------------------------
// Result cache
// ---------------------------------------------------------------------------

TEST_F(ServerTest, CacheHitsAreBitIdentical) {
  ServerConfig config;
  config.shards = 1;
  auto srv = MakeServer(config);
  query::ServerResponse computed;
  query::ServerResponse hit;
  bool got_hit = false;
  // Early passes may recompute (their own crack bumps the generation
  // and retires the entry); once the region stops cracking the next
  // request hits.
  for (int attempt = 0; attempt < 16 && !got_hit; ++attempt) {
    query::ServerResponse r = srv->Execute(RequestFor(0));
    ASSERT_TRUE(r.ok());
    if (r.meta.cache_hit) {
      hit = r;
      got_hit = true;
    } else {
      computed = r;
    }
  }
  ASSERT_TRUE(got_hit) << "no cache hit after 16 attempts";
  // Bit-identical, not approximately equal: a hit replays the stored
  // computation's bytes.
  ExpectBitIdentical(hit.topk, computed.topk);
  EXPECT_EQ(hit.meta.generation, computed.meta.generation);
  EXPECT_TRUE(hit.topk.quality.exact);
}

TEST_F(ServerTest, NoCacheEntrySurvivesGenerationBump) {
  ServerConfig config;
  config.shards = 1;
  auto srv = MakeServer(config);

  // Cache slot 0's answer, then run other queries until one of them
  // cracks the tree past that entry's stamp.
  query::ServerResponse first = srv->Execute(RequestFor(0));
  ASSERT_TRUE(first.ok());
  const uint64_t stamped = first.meta.generation;
  bool bumped = false;
  for (size_t i = 1; i < workload_->size() && !bumped; ++i) {
    if (i % 5 == 4) continue;  // top-k only: aggregates also crack, but
                               // keep the mix simple
    srv->Execute(RequestFor(i));
    bumped = srv->ShardGeneration(0) != stamped;
  }
  ASSERT_TRUE(bumped) << "no later query cracked the fresh tree";

  // The entry stamped at `stamped` must not be served: the lookup either
  // misses (the eager sweep removed it) or detects the stale stamp and
  // recomputes. Either way the response carries the current generation.
  query::ServerResponse second = srv->Execute(RequestFor(0));
  ASSERT_TRUE(second.ok());
  EXPECT_FALSE(second.meta.cache_hit)
      << "served a cache entry across a generation bump";
  EXPECT_EQ(second.meta.generation, srv->ShardGeneration(0));
  ServerStats stats = srv->Stats();
  EXPECT_GE(stats.cache_invalidated, 1u)
      << "generation bump invalidated nothing";
}

TEST_F(ServerTest, OneGenerationRetiresEveryShardsEntries) {
  ServerConfig config;
  config.shards = 2;
  auto srv = MakeServer(config);
  size_t slot_b = 0;
  while (slot_b < workload_->size() &&
         (slot_b % 5 == 4 || srv->ShardOf(RequestFor(slot_b).query) != 1)) {
    ++slot_b;  // the first top-k slot routed to shard 1
  }
  ASSERT_LT(slot_b, workload_->size()) << "no top-k key routes to shard 1";

  // Cache a key on shard 1: repeat it until its own cracks settle and a
  // request hits.
  bool cached = false;
  for (int attempt = 0; attempt < 16 && !cached; ++attempt) {
    cached = srv->Execute(RequestFor(slot_b)).meta.cache_hit;
  }
  ASSERT_TRUE(cached) << "shard 1 never served its key from cache";
  const uint64_t stamped = srv->Stats().generation;

  // Crack through shard 0 only, on other keys, until the one tree
  // publishes.
  bool bumped = false;
  for (size_t i = 0; i < workload_->size() && !bumped; ++i) {
    const query::ServerRequest r = RequestFor(i);
    if (r.kind != query::RequestKind::kTopK) continue;
    if (srv->ShardOf(r.query) != 0) continue;
    ASSERT_TRUE(srv->Execute(r).ok());
    bumped = srv->Stats().generation != stamped;
  }
  ASSERT_TRUE(bumped) << "no shard-0 request cracked the tree";

  // Shard 1's entry predates the crack, so it is never served again.
  query::ServerResponse again = srv->Execute(RequestFor(slot_b));
  ASSERT_TRUE(again.ok());
  EXPECT_FALSE(again.meta.cache_hit)
      << "shard 1 served an entry across a crack published via shard 0";
  const uint64_t tree_generation = srv->vkg().rtree().crack_generation();
  EXPECT_EQ(srv->Stats().generation, tree_generation);
  for (size_t s = 0; s < srv->num_shards(); ++s) {
    EXPECT_EQ(srv->ShardGeneration(s), tree_generation) << "shard " << s;
  }
}

TEST_F(ServerTest, ServedAnswersEqualFacadeAnswers) {
  std::shared_ptr<core::VirtualKnowledgeGraph> vkg = MakeVkg();
  ServerConfig config;
  config.shards = 2;
  auto srv = MakeServer(config, vkg);
  const std::vector<query::ServerRequest> requests = BothDirections();
  ASSERT_GT(CrackToFixedPoint(*srv, requests), 0u);

  // On a settled tree the server and the facade run the same engine on
  // the same tree version: answers agree to the bit, on every key, in
  // both directions, whether the server computes or hits its cache.
  const uint64_t settled = vkg->rtree().crack_generation();
  for (int pass = 0; pass < 2; ++pass) {
    for (const query::ServerRequest& r : requests) {
      query::ServerResponse served = srv->Execute(r);
      ASSERT_TRUE(served.ok()) << served.status.ToString();
      if (r.kind == query::RequestKind::kTopK) {
        ExpectBitIdentical(served.topk, vkg->TopK(r.query, r.k));
      } else {
        util::Result<query::AggregateResult> direct =
            vkg->Aggregate(r.aggregate);
        ASSERT_TRUE(direct.ok());
        EXPECT_EQ(std::memcmp(&served.aggregate.value, &direct->value,
                              sizeof(double)),
                  0);
        EXPECT_EQ(served.aggregate.accessed, direct->accessed);
      }
    }
  }
  EXPECT_EQ(vkg->rtree().crack_generation(), settled);
}

TEST_F(ServerTest, FacadeQueriesRaceServerExecute) {
  // Oracle: answers from a separate, sequentially driven server.
  ServerConfig oracle_config;
  oracle_config.shards = 1;
  oracle_config.cache_bytes = 0;
  auto oracle_srv = MakeServer(oracle_config);
  std::vector<query::ServerResponse> oracle(workload_->size());
  for (size_t i = 0; i < workload_->size(); ++i) {
    oracle[i] = oracle_srv->Execute(RequestFor(i));
    ASSERT_TRUE(oracle[i].ok()) << oracle[i].status.ToString();
  }

  // Facade TopK/Aggregate callers and server clients crack one fresh
  // tree at once; cracking moves cost, never answers.
  std::shared_ptr<core::VirtualKnowledgeGraph> vkg = MakeVkg();
  ServerConfig config;
  config.shards = 2;
  auto srv = MakeServer(config, vkg);
  const size_t threads = ChaosThreads();
  std::vector<std::vector<query::ServerResponse>> responses(
      threads, std::vector<query::ServerResponse>(workload_->size()));
  std::vector<std::thread> crew;
  crew.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    crew.emplace_back([&, t] {
      for (size_t i = 0; i < workload_->size(); ++i) {
        const size_t j = (i + t * 7) % workload_->size();
        const query::ServerRequest r = RequestFor(j);
        query::ServerResponse& out = responses[t][j];
        if (t % 2 == 0) {
          out = srv->Execute(r);
        } else if (r.kind == query::RequestKind::kTopK) {
          out.topk = vkg->TopK(r.query, r.k);
        } else {
          util::Result<query::AggregateResult> agg =
              vkg->Aggregate(r.aggregate);
          if (!agg.ok()) {
            out.status = agg.status();
            continue;
          }
          out.aggregate = std::move(agg).value();
        }
      }
    });
  }
  for (std::thread& th : crew) th.join();
  srv->Drain();
  for (size_t t = 0; t < threads; ++t) {
    for (size_t i = 0; i < workload_->size(); ++i) {
      ExpectSameAnswer(responses[t][i], oracle[i], i);
    }
  }
}

TEST_F(ServerTest, ServerOverLoadedIndexPublishesNoCrack) {
  // Crack a VKG's tree to a fixed point on the stream, then save it.
  std::shared_ptr<core::VirtualKnowledgeGraph> cracked = MakeVkg();
  const std::vector<query::ServerRequest> requests = BothDirections();
  {
    auto warm = MakeServer(ServerConfig{}, cracked);
    ASSERT_GT(CrackToFixedPoint(*warm, requests), 0u);
  }
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("vkg_server_index_" + std::to_string(::getpid()) + ".bin"))
          .string();
  ASSERT_TRUE(cracked->SaveIndex(path).ok());

  // A server created after LoadIndex serves from the loaded tree: its
  // first pass over the saved keys finds every region already cracked.
  std::shared_ptr<core::VirtualKnowledgeGraph> loaded = MakeVkg();
  ASSERT_TRUE(loaded->LoadIndex(path).ok());
  std::filesystem::remove(path);
  auto srv = MakeServer(ServerConfig{}, loaded);
  const uint64_t before = srv->Stats().generation;
  for (query::ServerRequest r : requests) {
    r.bypass_cache = true;
    ASSERT_TRUE(srv->Execute(r).ok());
  }
  EXPECT_EQ(srv->Stats().generation, before)
      << "the first pass over a loaded, settled tree published a crack";
}

TEST_F(ServerTest, CacheDisabledNeverHits) {
  ServerConfig config;
  config.shards = 1;
  config.cache_bytes = 0;
  auto srv = MakeServer(config);
  for (int pass = 0; pass < 3; ++pass) {
    query::ServerResponse r = srv->Execute(RequestFor(0));
    ASSERT_TRUE(r.ok());
    EXPECT_FALSE(r.meta.cache_hit);
  }
  ServerStats stats = srv->Stats();
  EXPECT_EQ(stats.cache_hits, 0u);
  EXPECT_EQ(stats.computed_topk, 3u);
}

// ---------------------------------------------------------------------------
// Coalescing
// ---------------------------------------------------------------------------

TEST_F(ServerTest, SixteenDuplicateStormCollapsesToOneComputation) {
  ServerConfig config;
  config.shards = 1;
  config.threads_per_shard = 1;
  auto srv = MakeServer(config);

  // The blocker occupies the shard's single worker; its task is queued
  // ahead of the duplicate leader's, so the leader cannot finish (and
  // unregister) before all 16 duplicates have joined — submit-time
  // registration makes the collapse deterministic, not scheduling luck.
  query::ServerRequest blocker = RequestFor(1, /*bypass=*/true);
  query::ServerRequest dup = RequestFor(0, /*bypass=*/true);
  ASSERT_FALSE(srv->MakeKey(blocker) == srv->MakeKey(dup));

  std::vector<VkgServer::Ticket> tickets;
  tickets.push_back(srv->Submit(blocker));
  for (int i = 0; i < 16; ++i) tickets.push_back(srv->Submit(RequestFor(0, true)));

  size_t coalesced_responses = 0;
  query::ServerResponse leader_response;
  for (size_t i = 1; i < tickets.size(); ++i) {
    query::ServerResponse r = tickets[i].Get();
    ASSERT_TRUE(r.ok()) << r.status.ToString();
    if (r.meta.coalesced) {
      ++coalesced_responses;
    } else {
      leader_response = r;
    }
    // All 16 share one payload.
    ASSERT_EQ(r.topk.hits.size(), 10u);
  }
  ASSERT_TRUE(tickets[0].Get().ok());
  srv->Drain();

  EXPECT_EQ(coalesced_responses, 15u);
  ServerStats stats = srv->Stats();
  EXPECT_EQ(stats.computed_topk, 2u);  // blocker + one leader
  EXPECT_EQ(stats.coalesced, 15u);
  EXPECT_EQ(stats.cache_hits, 0u);  // bypass_cache throughout
  EXPECT_EQ(stats.shards[0].depth, 0u);
  EXPECT_EQ(stats.shards[0].in_flight, 0u);
}

// ---------------------------------------------------------------------------
// Admission control and backpressure
// ---------------------------------------------------------------------------

TEST_F(ServerTest, PerClientTokenBucketRejectsWithRetryHint) {
  ServerConfig config;
  config.shards = 1;
  // One token burst, refilled at 1 token per 1000 s: the second request
  // from the same client is deterministically over the limit however
  // slow the host.
  config.qps_limit = 0.001;
  config.burst = 1.0;
  auto srv = MakeServer(config);

  query::ServerRequest request = RequestFor(0);
  request.client_id = "tenant-a";
  query::ServerResponse ok = srv->Execute(request);
  ASSERT_TRUE(ok.ok());

  request = RequestFor(0);
  request.client_id = "tenant-a";
  query::ServerResponse rejected = srv->Execute(request);
  EXPECT_TRUE(rejected.rejected());
  EXPECT_GT(rejected.meta.retry_after_ms, 0.0);

  // Buckets are per client: another tenant is still admitted.
  request = RequestFor(0);
  request.client_id = "tenant-b";
  EXPECT_TRUE(srv->Execute(request).ok());

  ServerStats stats = srv->Stats();
  EXPECT_EQ(stats.rejected_rate, 1u);
  EXPECT_EQ(stats.admitted, 2u);
}

TEST_F(ServerTest, QueueFullRejectsInsteadOfQueueing) {
  ServerConfig config;
  config.shards = 1;
  config.threads_per_shard = 1;
  config.queue_capacity = 1;
  config.overload_retry_ms = 25.0;
  auto srv = MakeServer(config);

  // Pin the single worker: the blocker's first-touch crack stalls in
  // publication for 300 ms, so the follow-up request finds the one
  // queue slot still held.
  ASSERT_TRUE(util::FailPointRegistry::Instance()
                  .ConfigureSite("cracking.publish", "1*delay(300),off")
                  .ok());
  VkgServer::Ticket blocker = srv->Submit(RequestFor(0, /*bypass=*/true));

  query::ServerResponse overloaded = srv->Execute(RequestFor(1));
  EXPECT_TRUE(overloaded.rejected());
  EXPECT_EQ(overloaded.meta.retry_after_ms, 25.0);

  ASSERT_TRUE(blocker.Get().ok());
  srv->Drain();
  ServerStats stats = srv->Stats();
  EXPECT_EQ(stats.rejected_overload, 1u);
  EXPECT_EQ(stats.shards[0].depth, 0u) << "rejection leaked a queue slot";

  // Capacity recovered: the same request is served now.
  EXPECT_TRUE(srv->Execute(RequestFor(1)).ok());
}

// One retry_after_ms contract across every rejection path (the
// documented semantics live on query::ServerMeta::retry_after_ms; the
// connection- and pipeline-cap side of the same contract is asserted
// in tests/net_test.cc). Every rejection is ResourceExhausted with a
// nonzero hint, and each path's hint carries its documented meaning:
// a modelled refill estimate (token bucket), the remaining cooldown
// (breaker), or the fixed overload pacing constant (queue full and
// memory shed).
TEST_F(ServerTest, RetryAfterHintIsConsistentAcrossRejectionPaths) {
  // (a) Token bucket: a refill ESTIMATE. A 1-token burst refilled at
  // 0.002 tokens/s puts the next token ~500 s out — the hint must
  // reflect that model, not any fixed pacing constant.
  {
    ServerConfig config;
    config.shards = 1;
    config.qps_limit = 0.002;
    config.burst = 1.0;
    config.overload_retry_ms = 25.0;
    auto srv = MakeServer(config);
    query::ServerRequest request = RequestFor(0);
    request.client_id = "tenant-hint";
    query::ServerResponse ok = srv->Execute(request);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.meta.retry_after_ms, 0.0)
        << "hint must be 0 on non-rejected responses";
    request = RequestFor(0);
    request.client_id = "tenant-hint";
    query::ServerResponse rejected = srv->Execute(request);
    ASSERT_TRUE(rejected.rejected()) << rejected.status.ToString();
    EXPECT_EQ(rejected.status.code(),
              util::StatusCode::kResourceExhausted);
    EXPECT_GT(rejected.meta.retry_after_ms, 100000.0)
        << "rate-limit hint is a refill estimate, not a canned constant";
    EXPECT_LE(rejected.meta.retry_after_ms, 500001.0)
        << "refill estimate cannot exceed the full-bucket horizon";
  }

  // (b) Queue full: the FIXED ServerConfig::overload_retry_ms pacing
  // hint, verbatim.
  {
    ServerConfig config;
    config.shards = 1;
    config.threads_per_shard = 1;
    config.queue_capacity = 1;
    config.overload_retry_ms = 33.0;
    auto srv = MakeServer(config);
    ASSERT_TRUE(util::FailPointRegistry::Instance()
                    .ConfigureSite("cracking.publish", "1*delay(300),off")
                    .ok());
    VkgServer::Ticket blocker = srv->Submit(RequestFor(0, /*bypass=*/true));
    query::ServerResponse overloaded = srv->Execute(RequestFor(1));
    ASSERT_TRUE(overloaded.rejected()) << overloaded.status.ToString();
    EXPECT_EQ(overloaded.status.code(),
              util::StatusCode::kResourceExhausted);
    EXPECT_EQ(overloaded.meta.retry_after_ms, 33.0);
    ASSERT_TRUE(blocker.Get().ok());
    util::FailPointRegistry::Instance().Clear();
  }

  // (c) Breaker open: the REMAINING COOLDOWN — positive, and never
  // above the configured open window.
  {
    ServerConfig config;
    config.shards = 1;
    config.threads_per_shard = 1;
    config.breaker.failure_threshold = 3;
    config.breaker.open_seconds = 0.25;
    config.overload_retry_ms = 25.0;
    auto srv = MakeServer(config);
    ASSERT_TRUE(util::FailPointRegistry::Instance()
                    .Configure("server.queue=fail")
                    .ok());
    for (int i = 0; i < 3; ++i) {
      EXPECT_FALSE(srv->Execute(RequestFor(1, true)).ok());
    }
    ASSERT_EQ(srv->shard_breaker(0).state(), BreakerState::kOpen);
    query::ServerResponse rejected = srv->Execute(RequestFor(1, true));
    ASSERT_TRUE(rejected.rejected()) << rejected.status.ToString();
    EXPECT_EQ(rejected.status.code(),
              util::StatusCode::kResourceExhausted);
    EXPECT_GT(rejected.meta.retry_after_ms, 0.0);
    EXPECT_LE(rejected.meta.retry_after_ms, 250.0)
        << "breaker hint must not exceed the open window";
    util::FailPointRegistry::Instance().Clear();
  }

  // (d) Memory shed: same fixed pacing constant as queue full.
  {
    ServerConfig config;
    config.shards = 1;
    config.memory.budget_bytes = 1000;
    config.overload_retry_ms = 44.0;
    auto srv = MakeServer(config);
    srv->memory_budget().SetUsageOverride(990);
    query::ServerResponse shed = srv->Execute(RequestFor(0, true));
    ASSERT_TRUE(shed.rejected()) << shed.status.ToString();
    EXPECT_EQ(shed.status.code(), util::StatusCode::kResourceExhausted);
    EXPECT_EQ(shed.meta.retry_after_ms, 44.0);
  }
}

TEST_F(ServerTest, InvalidRequestsFailFastWithoutTouchingShards) {
  ServerConfig config;
  config.shards = 1;
  auto srv = MakeServer(config);

  query::ServerRequest bad = RequestFor(0);
  bad.query.anchor = kg::kInvalidEntity;
  query::ServerResponse r = srv->Execute(bad);
  EXPECT_FALSE(r.ok());
  EXPECT_FALSE(r.rejected());  // invalid, not over-limit

  query::ServerRequest zero_k = RequestFor(0);
  zero_k.k = 0;
  EXPECT_FALSE(srv->Execute(zero_k).ok());

  ServerStats stats = srv->Stats();
  EXPECT_EQ(stats.invalid, 2u);
  EXPECT_EQ(stats.computed_topk, 0u);
  EXPECT_EQ(stats.shards[0].peak_depth, 0u);
}

// ---------------------------------------------------------------------------
// Failpoint isolation: an injected fault poisons exactly one request
// ---------------------------------------------------------------------------

TEST_F(ServerTest, AdmitFaultIsolatedToOneRequest) {
  ServerConfig config;
  config.shards = 1;
  auto srv = MakeServer(config);
  ASSERT_TRUE(util::FailPointRegistry::Instance()
                  .ConfigureSite("server.admit", "1*fail,off")
                  .ok());
  query::ServerResponse faulted = srv->Execute(RequestFor(0));
  EXPECT_TRUE(faulted.rejected());
  EXPECT_GT(faulted.meta.retry_after_ms, 0.0);
  // The very next request (same client) is admitted: the injected
  // rejection did not charge the client's bucket.
  EXPECT_TRUE(srv->Execute(RequestFor(0)).ok());
  EXPECT_EQ(srv->Stats().rejected_rate, 1u);
}

TEST_F(ServerTest, CacheFaultIsolatedToOneRequest) {
  ServerConfig config;
  config.shards = 1;
  auto srv = MakeServer(config);
  ASSERT_TRUE(util::FailPointRegistry::Instance()
                  .ConfigureSite("server.cache", "1*fail,off")
                  .ok());
  query::ServerResponse faulted = srv->Execute(RequestFor(0));
  EXPECT_FALSE(faulted.ok());
  EXPECT_FALSE(faulted.rejected());
  EXPECT_TRUE(srv->Execute(RequestFor(0)).ok());
  // The worker releases its slot after fulfilling the promise, so wait
  // for the pool before reading the depth.
  srv->Drain();
  EXPECT_EQ(srv->Stats().shards[0].depth, 0u)
      << "cache fault leaked the reserved slot";
}

TEST_F(ServerTest, DispatchFaultIsolatedToOneRequest) {
  ServerConfig config;
  config.shards = 1;
  auto srv = MakeServer(config);
  ASSERT_TRUE(util::FailPointRegistry::Instance()
                  .ConfigureSite("server.shard_dispatch", "1*fail,off")
                  .ok());
  query::ServerResponse faulted = srv->Execute(RequestFor(0));
  EXPECT_FALSE(faulted.ok());
  EXPECT_TRUE(srv->Execute(RequestFor(0)).ok());
  srv->Drain();
  EXPECT_EQ(srv->Stats().shards[0].depth, 0u);
}

// Env-armed smoke, exercised by CI which runs this binary under ASan
// with VKG_FAILPOINTS arming the server.* sites. A storm with faults
// injected must stay leak-free and isolated: every response is either
// an answer or an explicit per-request error; no slot or in-flight
// registration survives, and the server still serves afterwards.
TEST_F(ServerTest, EnvArmedFaultStormStaysIsolated) {
  const char* env = std::getenv("VKG_FAILPOINTS");
  if (env == nullptr || std::strstr(env, "server.") == nullptr) {
    GTEST_SKIP() << "VKG_FAILPOINTS does not arm server.* sites";
  }
  ASSERT_TRUE(util::FailPointRegistry::Instance().ConfigureFromEnv().ok());

  ServerConfig config;
  config.shards = 2;
  auto srv = MakeServer(config);
  const size_t threads = ChaosThreads();
  std::atomic<uint64_t> answered{0};
  std::atomic<uint64_t> faulted{0};
  std::vector<std::thread> crew;
  crew.reserve(threads);
  for (size_t t = 0; t < threads; ++t) {
    crew.emplace_back([&, t] {
      for (size_t i = 0; i < workload_->size(); ++i) {
        const size_t j = (i + t * 7) % workload_->size();
        query::ServerResponse r = srv->Execute(RequestFor(j));
        if (r.ok()) {
          answered.fetch_add(1);
        } else {
          faulted.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& th : crew) th.join();
  srv->Drain();
  EXPECT_EQ(answered.load() + faulted.load(), threads * workload_->size());

  ServerStats stats = srv->Stats();
  for (const auto& shard : stats.shards) {
    EXPECT_EQ(shard.depth, 0u) << "shard " << shard.shard;
    EXPECT_EQ(shard.in_flight, 0u) << "shard " << shard.shard;
  }
  // Disarm and prove the server recovered fully.
  util::FailPointRegistry::Instance().Clear();
  for (size_t i = 0; i < workload_->size(); ++i) {
    EXPECT_TRUE(srv->Execute(RequestFor(i)).ok()) << "slot " << i;
  }
}

// ---------------------------------------------------------------------------
// Observability
// ---------------------------------------------------------------------------

TEST_F(ServerTest, PublishStatsExportsShardGauges) {
  ServerConfig config;
  config.shards = 2;
  auto srv = MakeServer(config);
  for (size_t i = 0; i < 8; ++i) srv->Execute(RequestFor(i));
  srv->PublishStats();
  const std::string prom =
      obs::MetricsRegistry::Global().PrometheusText();
  EXPECT_NE(prom.find("vkg_server_shards 2"), std::string::npos);
  EXPECT_NE(prom.find("vkg_server_generation"), std::string::npos);
  EXPECT_EQ(prom.find("vkg_server_shard_0_generation"), std::string::npos);
  EXPECT_NE(prom.find("vkg_server_shard_1_cache_entries"),
            std::string::npos);
  EXPECT_NE(prom.find("vkg_server_requests_total"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Self-healing: shutdown, deadlines, breakers, memory pressure (§6h)
// ---------------------------------------------------------------------------

TEST_F(ServerTest, GracefulShutdownResolvesEveryTicket) {
  ServerConfig config;
  config.shards = 2;
  config.threads_per_shard = 1;
  auto srv = MakeServer(config);
  // Slow the workers so Stop() races a queue full of pending tickets.
  ASSERT_TRUE(util::FailPointRegistry::Instance()
                  .Configure("server.queue=delay(2)")
                  .ok());
  std::vector<VkgServer::Ticket> tickets;
  for (size_t i = 0; i < 32; ++i) {
    tickets.push_back(srv->Submit(RequestFor(i % workload_->size(), true)));
  }
  srv->Stop();
  // Every ticket handed out before Stop() resolves definitively — with
  // its computed answer or kUnavailable, never a hang.
  for (auto& ticket : tickets) {
    query::ServerResponse r = ticket.Get();
    EXPECT_TRUE(r.ok() ||
                r.status.code() == util::StatusCode::kUnavailable)
        << r.status.ToString();
  }
  // Submissions after Stop() fast-fail instead of queueing.
  query::ServerResponse late = srv->Execute(RequestFor(0));
  EXPECT_EQ(late.status.code(), util::StatusCode::kUnavailable);
  EXPECT_GE(srv->Stats().rejected_shutdown, 1u);
  // The destructor (~VkgServer → Stop) runs on scope exit with the
  // failpoint still armed; not hanging here is the assertion.
}

TEST_F(ServerTest, DeadlineExpiredInQueueIsNeverComputed) {
  ServerConfig config;
  config.shards = 1;
  config.threads_per_shard = 1;
  auto srv = MakeServer(config);
  // One blocker pins the only worker inside a 150 ms stall; its k
  // differs from the victim's so they cannot coalesce.
  ASSERT_TRUE(util::FailPointRegistry::Instance()
                  .Configure("server.queue=delay(150),off")
                  .ok());
  query::ServerRequest blocker = RequestFor(0, true);
  blocker.k = 11;
  VkgServer::Ticket blocker_ticket = srv->Submit(std::move(blocker));
  query::ServerRequest victim = RequestFor(0, true);
  victim.deadline_ms = 25.0;  // expires while queued behind the blocker
  const uint64_t computed_before = srv->Stats().computed_topk;
  VkgServer::Ticket victim_ticket = srv->Submit(std::move(victim));
  query::ServerResponse vr = victim_ticket.Get();
  EXPECT_EQ(vr.status.code(), util::StatusCode::kDeadlineExceeded)
      << vr.status.ToString();
  EXPECT_TRUE(vr.meta.expired_in_queue);
  EXPECT_TRUE(blocker_ticket.Get().ok());
  srv->Drain();
  ServerStats stats = srv->Stats();
  EXPECT_EQ(stats.expired_in_queue, 1u);
  // Only the blocker computed: the victim was expired, not evaluated.
  EXPECT_EQ(stats.computed_topk, computed_before + 1);
}

TEST_F(ServerTest, CoalescedFollowerHonorsItsOwnDeadline) {
  ServerConfig config;
  config.shards = 1;
  config.threads_per_shard = 1;
  auto srv = MakeServer(config);
  // Blocker stalls the worker, then the leader's computation stalls
  // too: the follower's tight deadline expires while it waits on the
  // leader's shared future.
  ASSERT_TRUE(util::FailPointRegistry::Instance()
                  .Configure("server.queue=2*delay(120),off")
                  .ok());
  query::ServerRequest blocker = RequestFor(0, true);
  blocker.k = 11;
  VkgServer::Ticket blocker_ticket = srv->Submit(std::move(blocker));
  VkgServer::Ticket leader = srv->Submit(RequestFor(0, true));
  query::ServerRequest dup = RequestFor(0, true);
  dup.deadline_ms = 20.0;
  VkgServer::Ticket follower = srv->Submit(std::move(dup));
  query::ServerResponse fr = follower.Get();
  EXPECT_EQ(fr.status.code(), util::StatusCode::kDeadlineExceeded)
      << fr.status.ToString();
  // The leader itself carried no deadline and still completes.
  EXPECT_TRUE(leader.Get().ok());
  EXPECT_TRUE(blocker_ticket.Get().ok());
  EXPECT_GE(srv->Stats().expired_waiting, 1u);
}

TEST_F(ServerTest, BreakerFastFailsWhileOpenAndRecovers) {
  ServerConfig config;
  config.shards = 1;
  config.threads_per_shard = 1;
  config.breaker.failure_threshold = 3;
  config.breaker.open_seconds = 0.05;
  auto srv = MakeServer(config);
  // Prime the cache for slot 0 while the shard is healthy.
  ASSERT_TRUE(srv->Execute(RequestFor(0)).ok());
  // Three consecutive worker faults trip the breaker.
  ASSERT_TRUE(util::FailPointRegistry::Instance()
                  .Configure("server.queue=fail")
                  .ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(srv->Execute(RequestFor(1, true)).status.code(),
              util::StatusCode::kInternal);
  }
  EXPECT_EQ(srv->shard_breaker(0).state(), BreakerState::kOpen);
  // Open: compute-bound traffic fast-fails with a retry hint...
  query::ServerResponse rejected = srv->Execute(RequestFor(1, true));
  EXPECT_TRUE(rejected.rejected()) << rejected.status.ToString();
  EXPECT_GT(rejected.meta.retry_after_ms, 0.0);
  EXPECT_GE(srv->Stats().rejected_breaker, 1u);
  // ...but cache hits keep serving (the breaker guards compute only).
  query::ServerResponse cached = srv->Execute(RequestFor(0));
  EXPECT_TRUE(cached.ok());
  EXPECT_TRUE(cached.meta.cache_hit);
  // Disarm the fault, wait out the cool-down, and probe back closed.
  util::FailPointRegistry::Instance().Clear();
  std::this_thread::sleep_for(std::chrono::milliseconds(60));
  for (int i = 0;
       i < 50 && srv->shard_breaker(0).state() != BreakerState::kClosed;
       ++i) {
    srv->Execute(RequestFor(1, true));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  EXPECT_EQ(srv->shard_breaker(0).state(), BreakerState::kClosed);
  ServerStats stats = srv->Stats();
  ASSERT_EQ(stats.shards.size(), 1u);
  EXPECT_GE(stats.shards[0].breaker.trips, 1u);
  EXPECT_GE(stats.shards[0].breaker.recoveries, 1u);
  // Recovered: fresh compute succeeds again.
  EXPECT_TRUE(srv->Execute(RequestFor(1, true)).ok());
}

TEST_F(ServerTest, MemoryPressureLadderShedsDegradesAndRecovers) {
  ServerConfig config;
  config.shards = 2;
  config.memory.budget_bytes = 1000;
  auto srv = MakeServer(config);
  // kShedding: lowest-priority requests are rejected with a hint;
  // higher-priority ones compute, but in forced-budget (degraded) mode.
  srv->memory_budget().SetUsageOverride(990);
  query::ServerResponse shed = srv->Execute(RequestFor(0, true));
  EXPECT_TRUE(shed.rejected()) << shed.status.ToString();
  EXPECT_GT(shed.meta.retry_after_ms, 0.0);
  query::ServerRequest important = RequestFor(0, true);
  important.priority = 1;
  query::ServerResponse vip = srv->Execute(std::move(important));
  ASSERT_TRUE(vip.ok()) << vip.status.ToString();
  EXPECT_TRUE(vip.meta.degraded_by_pressure);
  EXPECT_EQ(srv->memory_pressure(), PressureLevel::kShedding);
  ServerStats stats = srv->Stats();
  EXPECT_GE(stats.rejected_shed, 1u);
  EXPECT_GE(stats.pressure_degraded, 1u);
  // kElevated: everything is admitted again; cache segments shrink.
  srv->memory_budget().SetUsageOverride(750);
  EXPECT_TRUE(srv->Execute(RequestFor(1, true)).ok());
  EXPECT_EQ(srv->memory_pressure(), PressureLevel::kElevated);
  // Recovery is complete and reversible: once usage falls back under
  // the entry thresholds (minus hysteresis), full-fidelity answers
  // return. The override stands in for reclaimed memory — the real
  // footprint dwarfs this deliberately tiny test budget.
  srv->memory_budget().SetUsageOverride(100);
  query::ServerResponse healthy = srv->Execute(RequestFor(2, true));
  ASSERT_TRUE(healthy.ok());
  EXPECT_FALSE(healthy.meta.degraded_by_pressure);
  EXPECT_EQ(srv->memory_pressure(), PressureLevel::kNormal);
  EXPECT_GE(srv->Stats().memory.deescalations, 1u);
}

}  // namespace
}  // namespace vkg::server
