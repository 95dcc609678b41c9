// Serving-path benchmark for the sharded in-process query server
// (DESIGN.md §6g): the three fast paths the server adds on top of the
// engines, each measured against the plain compute path.
//
//   cold  — every request computes (cache bypassed) on a *converged*
//           tree: the per-request engine cost the cache saves;
//   warm  — same workload with the result cache on: every request is a
//           generation-checked hit. The bench fails unless
//           warm_qps >= 5x cold_qps and the warm pass was 100% hits;
//   coalesce — a 16-duplicate storm against a busy single-worker shard
//           must collapse to ONE computation (asserted via the server's
//           counters: computed +1, coalesced +15);
//   ladder — Execute() throughput from 1/2/4/8 concurrent client
//           threads on the warm server (submission-side scaling:
//           admission, routing, cache, coalescing bookkeeping);
//   loaded — the full client crew again, but computing (cache
//           bypassed) under a generous per-request deadline: emits
//           loaded_deadline_miss_ratio, gated absolutely by
//           tools/bench_check.py, alongside warm_expired_in_queue
//           (must stay 0 — a warm all-hit pass has no queue to
//           expire in).
//
// Emits BENCH_server.json (see WriteBenchJson); "scaling_valid": false
// when the ladder exceeds the host's cores, which makes
// tools/bench_check.py skip its scaling gate. Env knobs:
// VKG_BENCH_SCALE, VKG_BENCH_QUERIES, VKG_BENCH_THREADS (caps the
// client ladder).

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/virtual_graph.h"
#include "query/request.h"
#include "server/server.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace vkg::bench {
namespace {

size_t EnvCount(const char* name, size_t fallback) {
  const char* env = std::getenv(name);
  if (env == nullptr) return fallback;
  long v = std::atol(env);
  return v > 0 ? static_cast<size_t>(v) : fallback;
}

query::ServerRequest TopKRequest(const data::Query& query, size_t k,
                                 bool bypass_cache) {
  query::ServerRequest request;
  request.query = query;
  request.k = k;
  request.bypass_cache = bypass_cache;
  return request;
}

// One pass over the workload through Execute(); returns elapsed ms.
double RunPass(server::VkgServer& srv, const std::vector<data::Query>& queries,
               size_t k, bool bypass_cache) {
  util::WallTimer timer;
  for (const data::Query& q : queries) {
    query::ServerResponse r = srv.Execute(TopKRequest(q, k, bypass_cache));
    if (!r.ok()) {
      std::fprintf(stderr, "query failed: %s\n", r.status.ToString().c_str());
      std::exit(1);
    }
  }
  return timer.ElapsedMillis();
}

int Run() {
  const auto& ds = MovieDataset();
  const size_t num_queries = EnvCount("VKG_BENCH_QUERIES", 256);
  auto queries = StandardWorkload(ds, num_queries, 61);
  if (queries.empty()) {
    std::fprintf(stderr, "empty workload\n");
    return 1;
  }
  const size_t k = 10;

  core::VkgOptions options;
  options.method = index::MethodKind::kCracking;
  embedding::EmbeddingStore store = ds.embeddings;
  auto built = core::VirtualKnowledgeGraph::BuildWithEmbeddings(
      &ds.graph, std::move(store), options);
  if (!built.ok()) {
    std::fprintf(stderr, "%s\n", built.status().ToString().c_str());
    return 1;
  }
  std::shared_ptr<core::VirtualKnowledgeGraph> vkg = std::move(built.value());

  server::ServerConfig config;
  config.shards = 2;
  config.threads_per_shard = 1;
  config.cache_bytes = 32u << 20;
  auto created = server::VkgServer::Create(vkg, config);
  if (!created.ok()) {
    std::fprintf(stderr, "%s\n", created.status().ToString().c_str());
    return 1;
  }
  server::VkgServer& srv = **created;

  std::vector<BenchRecord> records;
  std::vector<std::pair<std::string, double>> context = {
      {"num_entities", static_cast<double>(ds.graph.num_entities())},
      {"num_queries", static_cast<double>(queries.size())},
      {"shards", static_cast<double>(config.shards)},
      {"hardware_concurrency",
       static_cast<double>(std::thread::hardware_concurrency())},
      {"scale_factor", ScaleFactor()},
  };

  PrintTitle("Server throughput (" + std::to_string(queries.size()) +
             " queries, k=" + std::to_string(k) + ", " +
             std::to_string(config.shards) + " shards)");

  // --- Converge the tree so warm-vs-cold compares steady states: passes
  // crack it until a full pass publishes nothing, at which point the
  // generation stops moving and cache entries stay valid.
  size_t converge_passes = 0;
  for (; converge_passes < 64; ++converge_passes) {
    const uint64_t before = srv.Stats().generation;
    RunPass(srv, queries, k, /*bypass_cache=*/true);
    if (srv.Stats().generation == before) break;
  }
  std::printf("converged after %zu warmup passes\n", converge_passes + 1);

  // --- Cold: every request computes on the converged tree.
  server::ServerStats before = srv.Stats();
  double cold_ms = RunPass(srv, queries, k, /*bypass_cache=*/true);
  server::ServerStats after = srv.Stats();
  const uint64_t cold_computed = after.computed_topk - before.computed_topk;
  if (cold_computed != queries.size()) {
    std::fprintf(stderr, "cold pass computed %llu of %zu requests\n",
                 static_cast<unsigned long long>(cold_computed),
                 queries.size());
    return 1;
  }

  // --- Warm: the same workload through the cache (populated by the
  // cold pass's stores at the now-stable generation).
  before = srv.Stats();
  double warm_ms = RunPass(srv, queries, k, /*bypass_cache=*/false);
  after = srv.Stats();
  const uint64_t warm_hits = after.cache_hits - before.cache_hits;
  const double warm_hit_ratio =
      static_cast<double>(warm_hits) / static_cast<double>(queries.size());
  const uint64_t warm_expired =
      after.expired_in_queue - before.expired_in_queue;
  records.push_back({"warm_expired_in_queue",
                     static_cast<double>(warm_expired), "count"});

  const double cold_qps = static_cast<double>(queries.size()) / (cold_ms / 1e3);
  const double warm_qps = static_cast<double>(queries.size()) / (warm_ms / 1e3);
  const double warm_over_cold = warm_qps / cold_qps;
  std::printf("cold %8.0f qps   warm %8.0f qps   warm/cold %.1fx   "
              "warm hit ratio %.3f\n",
              cold_qps, warm_qps, warm_over_cold, warm_hit_ratio);
  records.push_back({"cold_qps", cold_qps, "qps"});
  records.push_back({"warm_qps", warm_qps, "qps"});
  records.push_back({"warm_over_cold", warm_over_cold, "x"});
  records.push_back({"warm_cache_hit_ratio", warm_hit_ratio, "ratio"});
  if (warm_hit_ratio < 1.0) {
    std::fprintf(stderr,
                 "warm pass was not all cache hits (%llu of %zu)\n",
                 static_cast<unsigned long long>(warm_hits), queries.size());
    return 1;
  }
  if (warm_over_cold < 5.0) {
    std::fprintf(stderr,
                 "cache-hit path only %.1fx the compute path (need >= 5x)\n",
                 warm_over_cold);
    return 1;
  }

  // --- Coalescing: 16 duplicates of one *unseen* key (k=13 was never
  // cached) behind a blocker that pins the shard's single worker. The
  // blocker is enqueued first, so the leader's computation cannot
  // finish (and unregister) before all duplicates have joined it:
  // exactly one computation, 15 attachments — deterministically.
  const data::Query& dup = queries[0];
  const size_t dup_shard = srv.ShardOf(dup);
  const data::Query* blocker = nullptr;
  for (const data::Query& q : queries) {
    if (srv.ShardOf(q) == dup_shard && !(srv.MakeKey(TopKRequest(q, 13, true)) ==
                                         srv.MakeKey(TopKRequest(dup, 13, true)))) {
      blocker = &q;
      break;
    }
  }
  if (blocker == nullptr) {
    std::fprintf(stderr, "no blocker query routed to shard %zu\n", dup_shard);
    return 1;
  }
  before = srv.Stats();
  std::vector<server::VkgServer::Ticket> tickets;
  tickets.push_back(srv.Submit(TopKRequest(*blocker, 13, true)));
  for (int i = 0; i < 16; ++i) {
    tickets.push_back(srv.Submit(TopKRequest(dup, 13, true)));
  }
  for (auto& t : tickets) {
    query::ServerResponse r = t.Get();
    if (!r.ok()) {
      std::fprintf(stderr, "storm request failed: %s\n",
                   r.status.ToString().c_str());
      return 1;
    }
  }
  after = srv.Stats();
  const uint64_t storm_computed = after.computed_topk - before.computed_topk;
  const uint64_t storm_coalesced = after.coalesced - before.coalesced;
  std::printf("16-duplicate storm: %llu computed (1 + blocker), "
              "%llu coalesced\n",
              static_cast<unsigned long long>(storm_computed),
              static_cast<unsigned long long>(storm_coalesced));
  records.push_back({"storm_computed",
                     static_cast<double>(storm_computed), "count"});
  records.push_back({"storm_coalesced",
                     static_cast<double>(storm_coalesced), "count"});
  if (storm_computed != 2 || storm_coalesced != 15) {
    std::fprintf(stderr,
                 "coalescing failed to collapse the storm: computed %llu "
                 "(want 2 incl. blocker), coalesced %llu (want 15)\n",
                 static_cast<unsigned long long>(storm_computed),
                 static_cast<unsigned long long>(storm_coalesced));
    return 1;
  }

  // --- Client ladder: concurrent submitters on the warm server.
  const size_t max_threads = EnvCount("VKG_BENCH_THREADS", 8);
  std::vector<size_t> ladder;
  for (size_t clients : {size_t{1}, size_t{2}, size_t{4}, size_t{8}}) {
    if (clients == 1 || clients <= max_threads) ladder.push_back(clients);
  }
  context.emplace_back("max_threads", static_cast<double>(ladder.back()));

  std::vector<int> w{10, 12, 12};
  PrintRow({"clients", "ms", "qps"}, w);
  double single_ms = 0.0;
  for (size_t clients : ladder) {
    util::WallTimer timer;
    std::vector<std::thread> crew;
    crew.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      crew.emplace_back([&, c] {
        for (size_t i = 0; i < queries.size(); ++i) {
          const size_t j = (i + c * 7) % queries.size();
          query::ServerResponse r =
              srv.Execute(TopKRequest(queries[j], k, false));
          if (!r.ok()) std::exit(1);
        }
      });
    }
    for (std::thread& th : crew) th.join();
    const double ms = timer.ElapsedMillis();
    if (clients == 1) single_ms = ms;
    const double qps =
        static_cast<double>(clients * queries.size()) / (ms / 1e3);
    PrintRow({std::to_string(clients), util::StrFormat("%.2f", ms),
              util::StrFormat("%.0f", qps)},
             w);
    const std::string t = std::to_string(clients) + "c";
    records.push_back({"server_" + t + "_ms", ms, "ms"});
    records.push_back({"server_" + t + "_qps", qps, "qps"});
    if (clients == ladder.back() && clients > 1) {
      // Total work grows with the client count, so "scaling" here is
      // throughput over the 1-client pass, not elapsed-time ratio.
      const double scaling =
          qps / (static_cast<double>(queries.size()) / (single_ms / 1e3));
      std::printf("1 -> %zu client scaling: %.2fx\n", clients, scaling);
      records.push_back({"server_" + t + "_vs_1c_scaling", scaling, "x"});
    }
  }

  // --- Loaded: the full crew computing under a generous per-request
  // deadline. Every response must still resolve definitively; the miss
  // ratio is a structural health figure (absolute gate in
  // tools/bench_check.py), not a throughput race.
  const size_t loaded_clients = ladder.back();
  const double loaded_deadline_ms = 250.0;
  std::atomic<uint64_t> loaded_ok{0};
  std::atomic<uint64_t> loaded_missed{0};
  std::atomic<uint64_t> loaded_other{0};
  util::WallTimer loaded_timer;
  {
    std::vector<std::thread> crew;
    crew.reserve(loaded_clients);
    for (size_t c = 0; c < loaded_clients; ++c) {
      crew.emplace_back([&, c] {
        for (size_t i = 0; i < queries.size(); ++i) {
          const size_t j = (i + c * 7) % queries.size();
          query::ServerRequest request = TopKRequest(queries[j], k, true);
          request.deadline_ms = loaded_deadline_ms;
          query::ServerResponse r = srv.Execute(std::move(request));
          if (r.ok()) {
            loaded_ok.fetch_add(1, std::memory_order_relaxed);
          } else if (r.status.code() ==
                     util::StatusCode::kDeadlineExceeded) {
            loaded_missed.fetch_add(1, std::memory_order_relaxed);
          } else {
            loaded_other.fetch_add(1, std::memory_order_relaxed);
          }
        }
      });
    }
    for (std::thread& th : crew) th.join();
  }
  const double loaded_ms = loaded_timer.ElapsedMillis();
  const double loaded_total =
      static_cast<double>(loaded_clients * queries.size());
  const double loaded_qps = loaded_total / (loaded_ms / 1e3);
  const double loaded_miss_ratio =
      static_cast<double>(loaded_missed.load()) / loaded_total;
  std::printf(
      "loaded (%zu clients, %.0fms deadline): %8.0f qps   "
      "deadline miss ratio %.3f\n",
      loaded_clients, loaded_deadline_ms, loaded_qps, loaded_miss_ratio);
  records.push_back({"loaded_qps", loaded_qps, "qps"});
  records.push_back(
      {"loaded_deadline_miss_ratio", loaded_miss_ratio, "ratio"});
  if (loaded_other.load() != 0) {
    std::fprintf(stderr,
                 "loaded pass: %llu responses were neither ok nor "
                 "deadline-exceeded\n",
                 static_cast<unsigned long long>(loaded_other.load()));
    return 1;
  }

  WriteBenchJson("BENCH_server.json", "server_throughput", context, records,
                 ladder.back());
  return 0;
}

}  // namespace
}  // namespace vkg::bench

int main() { return vkg::bench::Run(); }
