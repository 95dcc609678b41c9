// vkg_server_cli: stand up an in-process VkgServer over a knowledge
// graph and drive it with a client workload — the shell-level demo of
// the sharded serving path (DESIGN.md §6g).
//
//   vkg_server_cli --dataset movie [--scale 0.1]        (generated KG)
//   vkg_server_cli --triples t.tsv --embeddings e.bin   (files, vkg_cli
//                                                        formats)
//
// Server shape:
//   --shards N            worker shards (default 2)
//   --shard-threads N     worker threads per shard (default 1)
//   --cache-mb MB         total result-cache budget (default 8; 0 off)
//   --cache-entries N     optional per-shard entry bound (default 0)
//   --qps-limit Q         per-client admission rate (default 0 = off)
//   --burst B             token-bucket burst (default max(Q, 1))
//   --queue-capacity N    per-shard backpressure bound (default 1024)
//   --deadline-ms MS      default per-request deadline (default 0)
//   --max-points N        default per-request point budget (default 0)
//   --breaker-failures N  consecutive failures tripping a shard's
//                         circuit breaker (default 5)
//   --breaker-open-ms MS  breaker cool-down before half-open (def 250)
//   --memory-budget-mb MB server memory budget for the degradation
//                         ladder (default 0 = off)
//
// TCP front end (--listen, DESIGN.md §6i) — serves the framed wire
// protocol instead of the in-process workload, until SIGTERM/SIGINT
// triggers a graceful drain:
//   --host H / --port P          bind address (default 127.0.0.1:7781)
//   --max-connections N          global connection cap (default 256)
//   --max-connections-per-ip N   per-IP cap (default 0 = off)
//   --max-pipeline N             in-flight requests per conn (def 64)
//   --idle-timeout-ms MS         close silent connections (def 60000)
//   --read-deadline-ms MS        slowloris kick for partial frames
//   --write-deadline-ms MS       unread-response kick
//   --drain-timeout-ms MS        Stop() grace period (default 5000)
//
// Client retry (capped exponential backoff, DESIGN.md §6h):
//   --retries N           max retries per rejected request (default 0 =
//                         retries off)
//   --retry-base-ms MS    first backoff step (default 1)
//   --retry-cap-ms MS     backoff ceiling; server retry_after_ms hints
//                         override smaller backoffs (default 200)
//   --retry-budget N      shared retry-token capacity across clients,
//                         refilled at N/2 tokens/s — bounds retry
//                         amplification during outages (default 64)
//
// Workload:
//   --queries N           distinct generated queries (default 256)
//   --clients N           concurrent client threads (default 4)
//   --repeat N            passes over the workload per client (default 4
//                         — repeats exercise the cache and coalescing)
//   --k K                 top-k size (default 10)
//   --aggregate-fraction F  fraction answered as COUNT aggregates
//   --skew S              Zipf exponent over (anchor, relation) pairs
//   --seed S              workload seed (default 11)
//
// Output: a serving report (throughput, admission/cache/coalescing
// counters, crack generation, per-shard depth) and, with
// --metrics[=prom|json], the obs registry including the vkg_server_*
// series.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/virtual_graph.h"
#include "data/amazon_gen.h"
#include "data/freebase_gen.h"
#include "data/movielens_gen.h"
#include "data/workload.h"
#include "kg/io.h"
#include "net/listener.h"
#include "obs/metrics.h"
#include "query/request.h"
#include "server/server.h"
#include "util/failpoint.h"
#include "util/socket.h"
#include "util/retry.h"
#include "util/status.h"
#include "util/timer.h"

namespace {

using namespace vkg;

// Minimal --flag=value / --flag value parser (same shape as vkg_cli).
class Flags {
 public:
  Flags(int argc, char** argv, int first) {
    for (int i = first; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      arg = arg.substr(2);
      size_t eq = arg.find('=');
      if (eq != std::string::npos) {
        values_[arg.substr(0, eq)] = arg.substr(eq + 1);
      } else if (i + 1 < argc && argv[i + 1][0] != '-') {
        values_[arg] = argv[++i];
      } else {
        values_[arg] = "true";
      }
    }
  }

  std::string Get(const std::string& name,
                  const std::string& default_value = "") const {
    auto it = values_.find(name);
    return it == values_.end() ? default_value : it->second;
  }
  double GetDouble(const std::string& name, double default_value) const {
    auto it = values_.find(name);
    return it == values_.end() ? default_value : std::atof(it->second.c_str());
  }
  size_t GetSize(const std::string& name, size_t default_value) const {
    auto it = values_.find(name);
    return it == values_.end()
               ? default_value
               : static_cast<size_t>(std::atoll(it->second.c_str()));
  }
  bool GetBool(const std::string& name) const {
    return values_.count(name) > 0;
  }

 private:
  std::map<std::string, std::string> values_;
};

int Usage() {
  std::fprintf(stderr,
               "usage: vkg_server_cli (--dataset movie|freebase|amazon "
               "[--scale F] | --triples T.tsv --embeddings E.bin) "
               "[server/workload flags]\n(see the header of "
               "tools/vkg_server_cli.cc)\n");
  return 2;
}

util::Result<data::Dataset> MakeDataset(const Flags& flags) {
  const std::string name = flags.Get("dataset", "movie");
  const double scale = flags.GetDouble("scale", 0.1);
  if (name == "movie") {
    data::MovieLensConfig config;
    config.num_users = static_cast<size_t>(24000 * scale);
    config.num_movies = static_cast<size_t>(8000 * scale);
    config.num_tags = static_cast<size_t>(800 * scale) + 10;
    return data::GenerateMovieLensLike(config);
  }
  if (name == "freebase") {
    data::FreebaseConfig config;
    config.num_entities = static_cast<size_t>(50000 * scale);
    config.num_relation_types = static_cast<size_t>(120 * scale) + 10;
    config.target_edges = static_cast<size_t>(100000 * scale);
    return data::GenerateFreebaseLike(config);
  }
  if (name == "amazon") {
    data::AmazonConfig config;
    config.num_users = static_cast<size_t>(60000 * scale);
    config.num_products = static_cast<size_t>(40000 * scale);
    return data::GenerateAmazonLike(config);
  }
  return util::Status::InvalidArgument("unknown --dataset " + name);
}

util::Result<std::shared_ptr<core::VirtualKnowledgeGraph>> BuildVkg(
    const Flags& flags, data::Dataset* ds) {
  if (flags.Get("triples").empty()) {
    VKG_ASSIGN_OR_RETURN(*ds, MakeDataset(flags));
  } else {
    kg::KnowledgeGraph graph;
    VKG_RETURN_IF_ERROR(kg::LoadTriplesTsv(flags.Get("triples"), &graph));
    std::string emb = flags.Get("embeddings");
    if (emb.empty()) {
      return util::Status::InvalidArgument(
          "--triples requires --embeddings (vkg_cli train writes one)");
    }
    VKG_ASSIGN_OR_RETURN(ds->embeddings, embedding::EmbeddingStore::Load(emb));
    ds->graph = std::move(graph);
  }
  core::VkgOptions options;
  options.method = index::MethodKind::kCracking;
  options.alpha = flags.GetSize("alpha", 3);
  options.eps = flags.GetDouble("eps", 1.0);
  embedding::EmbeddingStore store = ds->embeddings;
  VKG_ASSIGN_OR_RETURN(
      std::unique_ptr<core::VirtualKnowledgeGraph> vkg,
      core::VirtualKnowledgeGraph::BuildWithEmbeddings(&ds->graph,
                                                       std::move(store),
                                                       options));
  return std::shared_ptr<core::VirtualKnowledgeGraph>(std::move(vkg));
}

server::ServerConfig MakeServerConfig(const Flags& flags) {
  server::ServerConfig config;
  config.shards = std::max<size_t>(1, flags.GetSize("shards", 2));
  config.threads_per_shard = flags.GetSize("shard-threads", 1);
  config.queue_capacity = flags.GetSize("queue-capacity", 1024);
  config.cache_bytes =
      static_cast<size_t>(flags.GetDouble("cache-mb", 8.0) * (1u << 20));
  config.cache_entries = flags.GetSize("cache-entries", 0);
  config.qps_limit = flags.GetDouble("qps-limit", 0.0);
  config.burst = flags.GetDouble("burst", 0.0);
  config.default_deadline_ms = flags.GetDouble("deadline-ms", 0.0);
  config.default_budget.max_points = flags.GetSize("max-points", 0);
  config.breaker.failure_threshold =
      static_cast<int>(flags.GetSize("breaker-failures", 5));
  config.breaker.open_seconds =
      flags.GetDouble("breaker-open-ms", 250.0) * 1e-3;
  config.memory.budget_bytes = static_cast<size_t>(
      flags.GetDouble("memory-budget-mb", 0.0) * (1u << 20));
  return config;
}

// One client thread: `repeat` passes over the shared workload, offset
// by the client index so concurrent clients collide on the same keys at
// different times (cache hits) and the same keys at the same time
// (coalescing).
struct ClientTotals {
  uint64_t ok = 0;
  uint64_t rejected = 0;
  uint64_t failed = 0;
  uint64_t degraded = 0;
  uint64_t retries = 0;          // extra attempts sent
  uint64_t retry_exhausted = 0;  // gave up: budget or max_retries
};

struct ClientRetry {
  util::RetryPolicy policy;      // max_retries == 0 disables retries
  util::RetryBudget* budget = nullptr;  // shared across clients
};

ClientTotals RunClient(server::VkgServer& srv,
                       const std::vector<data::Query>& workload,
                       size_t client_index, size_t repeat, size_t k,
                       double aggregate_fraction,
                       const ClientRetry& retry) {
  ClientTotals totals;
  const size_t agg_every =
      aggregate_fraction > 0.0
          ? std::max<size_t>(1, static_cast<size_t>(1.0 / aggregate_fraction))
          : 0;
  uint64_t sent = 0;
  for (size_t pass = 0; pass < repeat; ++pass) {
    for (size_t i = 0; i < workload.size(); ++i) {
      const size_t j = (i + client_index * 7) % workload.size();
      auto build = [&] {
        query::ServerRequest request;
        request.client_id = "client-" + std::to_string(client_index);
        if (agg_every != 0 && j % agg_every == 0) {
          request.kind = query::RequestKind::kAggregate;
          request.aggregate.query = workload[j];
          request.aggregate.kind = query::AggKind::kCount;
          request.aggregate.prob_threshold = 0.05;
        } else {
          request.query = workload[j];
          request.k = k;
        }
        return request;
      };
      query::ServerRequest request = build();
      const query::RequestKind kind = request.kind;
      query::ServerResponse response = srv.Execute(std::move(request));
      if (retry.policy.max_retries > 0 && response.rejected()) {
        // Deterministic per-attempt jitter: the stream is keyed by
        // (campaign seed, client, request ordinal), so a rerun backs
        // off identically.
        util::RetryPolicy policy = retry.policy;
        policy.seed = retry.policy.seed ^
                      (0x9e3779b97f4a7c15ULL * (client_index + 1)) ^ sent;
        util::RetryState state(policy);
        while (response.rejected()) {
          if (!state.CanRetry() ||
              (retry.budget != nullptr && !retry.budget->Acquire())) {
            ++totals.retry_exhausted;
            break;
          }
          const double hint = response.meta.retry_after_ms;
          const double backoff_ms =
              state.NextBackoffMs(hint > 0.0 ? hint : -1.0);
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(backoff_ms));
          ++totals.retries;
          response = srv.Execute(build());
        }
      }
      ++sent;
      if (response.ok()) {
        ++totals.ok;
        if (kind == query::RequestKind::kTopK &&
            !response.topk.quality.exact) {
          ++totals.degraded;
        }
      } else if (response.rejected()) {
        ++totals.rejected;
      } else {
        ++totals.failed;
      }
    }
  }
  return totals;
}

void PrintReport(const server::VkgServer& srv, double seconds,
                 const ClientTotals& totals) {
  server::ServerStats stats = srv.Stats();
  const uint64_t answered = totals.ok + totals.rejected + totals.failed;
  std::printf("served %llu requests in %.2f s (%.0f req/s)\n",
              static_cast<unsigned long long>(answered), seconds,
              seconds > 0 ? static_cast<double>(answered) / seconds : 0.0);
  std::printf(
      "  ok %llu (degraded %llu), rejected %llu, failed %llu, "
      "retries %llu (%llu exhausted)\n",
      static_cast<unsigned long long>(totals.ok),
      static_cast<unsigned long long>(totals.degraded),
      static_cast<unsigned long long>(totals.rejected),
      static_cast<unsigned long long>(totals.failed),
      static_cast<unsigned long long>(totals.retries),
      static_cast<unsigned long long>(totals.retry_exhausted));
  const uint64_t lookups = stats.cache_hits + stats.cache_misses;
  std::printf(
      "  cache: %llu hits / %llu lookups (%.1f%%), %llu invalidated\n",
      static_cast<unsigned long long>(stats.cache_hits),
      static_cast<unsigned long long>(lookups),
      lookups > 0 ? 100.0 * static_cast<double>(stats.cache_hits) /
                        static_cast<double>(lookups)
                  : 0.0,
      static_cast<unsigned long long>(stats.cache_invalidated));
  std::printf(
      "  coalesced %llu, computed %llu topk + %llu aggregate, "
      "admission rejected %llu, overload rejected %llu\n",
      static_cast<unsigned long long>(stats.coalesced),
      static_cast<unsigned long long>(stats.computed_topk),
      static_cast<unsigned long long>(stats.computed_aggregate),
      static_cast<unsigned long long>(stats.rejected_rate),
      static_cast<unsigned long long>(stats.rejected_overload));
  std::printf(
      "  resilience: breaker rejected %llu, shed %llu, expired in "
      "queue %llu, expired waiting %llu, pressure degraded %llu, "
      "pressure level %s\n",
      static_cast<unsigned long long>(stats.rejected_breaker),
      static_cast<unsigned long long>(stats.rejected_shed),
      static_cast<unsigned long long>(stats.expired_in_queue),
      static_cast<unsigned long long>(stats.expired_waiting),
      static_cast<unsigned long long>(stats.pressure_degraded),
      server::PressureLevelName(stats.memory.level).data());
  std::printf("  crack generation %llu\n",
              static_cast<unsigned long long>(stats.generation));
  std::printf("  %-6s %-8s %-10s %-9s %-9s %-9s %-6s\n", "shard", "depth",
              "peak", "entries", "bytes", "breaker", "trips");
  for (const auto& shard : stats.shards) {
    std::printf("  %-6zu %-8zu %-10zu %-9zu %-9zu %-9s %-6llu\n",
                shard.shard, shard.depth, shard.peak_depth,
                shard.cache.entries, shard.cache.bytes,
                server::BreakerStateName(shard.breaker.state).data(),
                static_cast<unsigned long long>(shard.breaker.trips));
  }
}

// SIGTERM/SIGINT flip this; the --listen loop notices and drains.
volatile std::sig_atomic_t g_stop_requested = 0;

extern "C" void OnStopSignal(int) { g_stop_requested = 1; }

// --listen: serve the framed wire protocol over TCP until SIGTERM or
// SIGINT, then drain gracefully (stop accepting, finish in-flight
// requests, flush, close). DESIGN.md §6i.
int RunListen(const Flags& flags, server::VkgServer& srv) {
  net::NetServerConfig config;
  config.host = flags.Get("host", "127.0.0.1");
  config.port = static_cast<uint16_t>(flags.GetSize("port", 7781));
  config.max_connections = flags.GetSize("max-connections", 256);
  config.max_connections_per_ip =
      flags.GetSize("max-connections-per-ip", 0);
  config.max_pipeline = flags.GetSize("max-pipeline", 64);
  config.idle_timeout_ms = flags.GetDouble("idle-timeout-ms", 60000.0);
  config.read_deadline_ms = flags.GetDouble("read-deadline-ms", 5000.0);
  config.write_deadline_ms = flags.GetDouble("write-deadline-ms", 5000.0);
  config.drain_timeout_ms = flags.GetDouble("drain-timeout-ms", 5000.0);

  auto net = net::NetServer::Start(&srv, config);
  if (!net.ok()) {
    std::fprintf(stderr, "%s\n", net.status().ToString().c_str());
    return 1;
  }
  std::signal(SIGTERM, OnStopSignal);
  std::signal(SIGINT, OnStopSignal);
  std::printf("listening on %s:%u (SIGTERM/SIGINT drains)\n",
              config.host.c_str(), (*net)->port());
  std::fflush(stdout);
  while (g_stop_requested == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    (*net)->PublishStats();
  }
  std::printf("draining...\n");
  (*net)->Stop();
  const net::NetStats stats = (*net)->Stats();
  std::printf(
      "net: accepted=%llu rejected=%llu frames_rx=%llu frames_tx=%llu "
      "frame_errors=%llu requests=%llu responses=%llu idle_timeouts=%llu "
      "read_timeouts=%llu write_timeouts=%llu io_errors=%llu "
      "force_closed=%llu\n",
      static_cast<unsigned long long>(stats.accepted),
      static_cast<unsigned long long>(stats.rejected_cap +
                                      stats.rejected_ip),
      static_cast<unsigned long long>(stats.frames_rx),
      static_cast<unsigned long long>(stats.frames_tx),
      static_cast<unsigned long long>(stats.frame_errors),
      static_cast<unsigned long long>(stats.requests),
      static_cast<unsigned long long>(stats.responses),
      static_cast<unsigned long long>(stats.idle_timeouts),
      static_cast<unsigned long long>(stats.read_timeouts),
      static_cast<unsigned long long>(stats.write_timeouts),
      static_cast<unsigned long long>(stats.io_errors),
      static_cast<unsigned long long>(stats.force_closed));
  return 0;
}

int Run(const Flags& flags) {
  std::string failpoints = flags.Get("failpoints");
  if (!failpoints.empty()) {
    util::Status s =
        util::FailPointRegistry::Instance().Configure(failpoints);
    if (!s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 2;
    }
  }

  data::Dataset ds;
  auto vkg = BuildVkg(flags, &ds);
  if (!vkg.ok()) {
    std::fprintf(stderr, "%s\n", vkg.status().ToString().c_str());
    return 1;
  }
  auto srv = server::VkgServer::Create(*vkg, MakeServerConfig(flags));
  if (!srv.ok()) {
    std::fprintf(stderr, "%s\n", srv.status().ToString().c_str());
    return 1;
  }

  if (flags.GetBool("listen")) return RunListen(flags, **srv);

  data::WorkloadConfig wc;
  wc.num_queries = flags.GetSize("queries", 256);
  wc.skew_exponent = flags.GetDouble("skew", 0.0);
  wc.seed = flags.GetSize("seed", 11);
  std::vector<data::Query> workload =
      data::GenerateWorkload((*vkg)->graph(), wc);
  if (workload.empty()) {
    std::fprintf(stderr, "empty workload (graph has no edges?)\n");
    return 1;
  }

  const size_t clients = std::max<size_t>(1, flags.GetSize("clients", 4));
  const size_t repeat = std::max<size_t>(1, flags.GetSize("repeat", 4));
  const size_t k = flags.GetSize("k", 10);
  const double aggregate_fraction =
      flags.GetDouble("aggregate-fraction", 0.0);

  ClientRetry retry;
  retry.policy.max_retries =
      static_cast<int>(flags.GetSize("retries", 0));
  retry.policy.base_ms = flags.GetDouble("retry-base-ms", 1.0);
  retry.policy.cap_ms = flags.GetDouble("retry-cap-ms", 200.0);
  retry.policy.seed = flags.GetSize("seed", 11);
  const double retry_capacity = flags.GetDouble("retry-budget", 64.0);
  util::RetryBudget budget(retry_capacity, retry_capacity * 0.5);
  if (retry.policy.max_retries > 0) retry.budget = &budget;

  std::printf(
      "serving %zu queries x %zu clients x %zu passes over %zu shards\n",
      workload.size(), clients, repeat, (*srv)->num_shards());
  util::WallTimer timer;
  std::vector<ClientTotals> per_client(clients);
  std::vector<std::thread> crew;
  crew.reserve(clients);
  for (size_t c = 0; c < clients; ++c) {
    crew.emplace_back([&, c] {
      per_client[c] = RunClient(**srv, workload, c, repeat, k,
                                aggregate_fraction, retry);
    });
  }
  for (std::thread& th : crew) th.join();
  (*srv)->Drain();
  const double seconds = timer.ElapsedMillis() / 1e3;

  ClientTotals totals;
  for (const ClientTotals& t : per_client) {
    totals.ok += t.ok;
    totals.rejected += t.rejected;
    totals.failed += t.failed;
    totals.degraded += t.degraded;
    totals.retries += t.retries;
    totals.retry_exhausted += t.retry_exhausted;
  }
  PrintReport(**srv, seconds, totals);

  if (flags.GetBool("metrics")) {
    (*srv)->PublishStats();
    obs::PublishEpochStats();
    const std::string format = flags.Get("metrics", "prom");
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    if (format == "json") {
      std::printf("%s\n", reg.JsonText().c_str());
    } else {
      std::printf("%s", reg.PrometheusText().c_str());
    }
  }
  return totals.failed == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  // A TCP client closing its end mid-write must surface as an EPIPE
  // Status, never a process kill.
  util::IgnoreSigPipe();
  Flags flags(argc, argv, 1);
  if (flags.GetBool("help")) return Usage();
  return Run(flags);
}
