// Loopback serving benchmark for the framed TCP front end
// (DESIGN.md §6i): the in-process server wrapped by net::NetServer and
// driven through real sockets by net::NetClient, so the numbers include
// framing, checksumming, the event loop, and kernel round trips.
//
//   ping  — kPing/kPong round trips on an idle connection: the floor
//           the wire protocol adds before any query work (p50/p99);
//   cold  — every request computes (cache bypassed) through one
//           connection: engine cost + socket RTT per call;
//   warm  — same workload with the result cache on after a priming
//           pass: cache-hit cost + socket RTT. Socket RTT compresses
//           the in-process warm/cold gap (~45x there), so the gate on
//           net_warm_over_cold lives in tools/bench_check.py with a
//           deliberately modest floor;
//   crew  — the warm workload again from 4 concurrent connections:
//           submission-side scaling of the event loop + worker pool;
//   error ratio — every Call() across all passes must come back OK:
//           net_error_ratio is gated at 0 both here and in
//           tools/bench_check.py (a lossy loopback serving path is
//           broken, not slow).
//
// Emits BENCH_net.json (see WriteBenchJson); "scaling_valid": false
// when the 4-connection crew exceeds the host's cores. Env knobs:
// VKG_BENCH_SCALE, VKG_BENCH_QUERIES, VKG_BENCH_THREADS (caps the
// crew width).

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/virtual_graph.h"
#include "net/client.h"
#include "net/listener.h"
#include "query/request.h"
#include "server/server.h"
#include "util/socket.h"
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

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t idx = static_cast<size_t>(p * (samples.size() - 1));
  return samples[idx];
}

// One pass over the workload through a single connection. Appends each
// call's wall time to `rtts_us` and counts non-OK outcomes (transport
// errors and server-side failures alike) into `errors`. Returns
// elapsed ms for the whole pass.
double RunSocketPass(net::NetClient& client,
                     const std::vector<data::Query>& queries, size_t k,
                     bool bypass_cache, std::vector<double>* rtts_us,
                     size_t* errors) {
  util::WallTimer pass_timer;
  for (const data::Query& q : queries) {
    util::WallTimer call_timer;
    auto response = client.Call(TopKRequest(q, k, bypass_cache));
    if (rtts_us != nullptr) rtts_us->push_back(call_timer.ElapsedMicros());
    if (!response.ok() || !response.value().ok()) ++(*errors);
  }
  return pass_timer.ElapsedMillis();
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

  net::NetServerConfig net_config;
  net_config.port = 0;  // ephemeral
  auto started = net::NetServer::Start(&srv, net_config);
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.status().ToString().c_str());
    return 1;
  }
  net::NetServer& net = **started;

  net::NetClientConfig client_config;
  client_config.port = net.port();
  auto connect = [&]() -> std::unique_ptr<net::NetClient> {
    auto client = net::NetClient::Connect(client_config);
    if (!client.ok()) {
      std::fprintf(stderr, "%s\n", client.status().ToString().c_str());
      std::exit(1);
    }
    return std::move(client).value();
  };

  std::vector<BenchRecord> records;
  std::vector<std::pair<std::string, double>> context = {
      {"num_entities", static_cast<double>(ds.graph.num_entities())},
      {"num_queries", static_cast<double>(queries.size())},
      {"shards", static_cast<double>(config.shards)},
      {"hardware_concurrency",
       static_cast<double>(std::thread::hardware_concurrency())},
      {"scale_factor", ScaleFactor()},
  };

  PrintTitle("Net throughput (" + std::to_string(queries.size()) +
             " queries, k=" + std::to_string(k) + ", loopback port " +
             std::to_string(net.port()) + ")");

  size_t errors = 0;
  size_t calls = 0;

  // --- Ping floor: the wire protocol with zero query work.
  {
    auto client = connect();
    const size_t pings = 200;
    std::vector<double> rtts;
    rtts.reserve(pings);
    for (size_t i = 0; i < pings; ++i) {
      util::WallTimer timer;
      if (!client->Ping().ok()) ++errors;
      rtts.push_back(timer.ElapsedMicros());
      ++calls;
    }
    const double p50 = Percentile(rtts, 0.50);
    const double p99 = Percentile(rtts, 0.99);
    std::printf("ping: p50 %.1f us, p99 %.1f us (%zu round trips)\n", p50,
                p99, pings);
    records.push_back({"net_ping_rtt_p50_us", p50, "us"});
    records.push_back({"net_ping_rtt_p99_us", p99, "us"});
    client->Goodbye();
  }

  // --- Cold: every request computes; one connection.
  double cold_qps = 0.0;
  {
    auto client = connect();
    std::vector<double> rtts;
    rtts.reserve(queries.size());
    const double cold_ms =
        RunSocketPass(*client, queries, k, /*bypass_cache=*/true, &rtts,
                      &errors);
    calls += queries.size();
    cold_qps = queries.size() / (cold_ms / 1e3);
    const double p99 = Percentile(rtts, 0.99);
    std::printf("cold: %.2f ms (%.0f qps), p99 %.1f us\n", cold_ms, cold_qps,
                p99);
    records.push_back({"net_cold_qps", cold_qps, "qps"});
    records.push_back({"net_cold_rtt_p99_us", p99, "us"});
    client->Goodbye();
  }

  // --- Warm: prime the cache, then measure the cached pass.
  double warm_qps = 0.0;
  {
    auto client = connect();
    size_t prime_errors = 0;
    RunSocketPass(*client, queries, k, /*bypass_cache=*/false, nullptr,
                  &prime_errors);
    errors += prime_errors;
    calls += queries.size();

    const auto before = srv.Stats();
    std::vector<double> rtts;
    rtts.reserve(queries.size());
    const double warm_ms =
        RunSocketPass(*client, queries, k, /*bypass_cache=*/false, &rtts,
                      &errors);
    calls += queries.size();
    const auto after = srv.Stats();
    warm_qps = queries.size() / (warm_ms / 1e3);
    const double hit_ratio =
        static_cast<double>(after.cache_hits - before.cache_hits) /
        static_cast<double>(queries.size());
    const double p99 = Percentile(rtts, 0.99);
    std::printf("warm: %.2f ms (%.0f qps), p99 %.1f us, hit ratio %.3f\n",
                warm_ms, warm_qps, p99, hit_ratio);
    records.push_back({"net_warm_qps", warm_qps, "qps"});
    records.push_back({"net_warm_rtt_p99_us", p99, "us"});
    records.push_back({"net_warm_cache_hit_ratio", hit_ratio, "ratio"});
    if (hit_ratio < 0.99) {
      std::fprintf(stderr,
                   "warm pass missed the cache (%.3f hit ratio) — the "
                   "socket path is not reaching the cached fast path\n",
                   hit_ratio);
      return 1;
    }
    client->Goodbye();
  }

  const double warm_over_cold = cold_qps > 0.0 ? warm_qps / cold_qps : 0.0;
  std::printf("warm over cold: %.2fx (socket RTT compresses the "
              "in-process gap)\n",
              warm_over_cold);
  records.push_back({"net_warm_over_cold", warm_over_cold, "x"});

  // --- Crew: 4 warm connections driving the loop concurrently.
  const size_t max_threads = EnvCount("VKG_BENCH_THREADS", 4);
  const size_t crew_width = std::min<size_t>(4, std::max<size_t>(1,
                                                                 max_threads));
  context.emplace_back("max_threads", static_cast<double>(crew_width));
  {
    std::atomic<size_t> crew_errors{0};
    util::WallTimer timer;
    std::vector<std::thread> crew;
    crew.reserve(crew_width);
    for (size_t c = 0; c < crew_width; ++c) {
      crew.emplace_back([&, c] {
        auto client = connect();
        for (size_t i = 0; i < queries.size(); ++i) {
          const data::Query& q = queries[(i + c * 7) % queries.size()];
          auto response = client->Call(TopKRequest(q, k, false));
          if (!response.ok() || !response.value().ok()) {
            crew_errors.fetch_add(1);
          }
        }
        client->Goodbye();
      });
    }
    for (auto& t : crew) t.join();
    const double crew_ms = timer.ElapsedMillis();
    const size_t crew_calls = crew_width * queries.size();
    const double crew_qps = crew_calls / (crew_ms / 1e3);
    errors += crew_errors.load();
    calls += crew_calls;
    std::printf("crew (%zu conns): %.2f ms (%.0f qps)\n", crew_width,
                crew_ms, crew_qps);
    records.push_back({"net_crew_qps", crew_qps, "qps"});
  }

  const double error_ratio =
      calls > 0 ? static_cast<double>(errors) / static_cast<double>(calls)
                : 1.0;
  std::printf("errors: %zu / %zu calls (ratio %.4f)\n", errors, calls,
              error_ratio);
  records.push_back({"net_error_ratio", error_ratio, "ratio"});
  if (errors != 0) {
    std::fprintf(stderr,
                 "loopback serving path dropped %zu of %zu calls — a "
                 "lossy local socket path is broken, not slow\n",
                 errors, calls);
    return 1;
  }

  net.Stop();
  const net::NetStats stats = net.Stats();
  std::printf("net: accepted=%llu frames rx=%llu tx=%llu errors: "
              "frame=%llu io=%llu\n",
              static_cast<unsigned long long>(stats.accepted),
              static_cast<unsigned long long>(stats.frames_rx),
              static_cast<unsigned long long>(stats.frames_tx),
              static_cast<unsigned long long>(stats.frame_errors),
              static_cast<unsigned long long>(stats.io_errors));

  WriteBenchJson("BENCH_net.json", "net_throughput", context, records,
                 crew_width);
  return 0;
}

}  // namespace
}  // namespace vkg::bench

int main() {
  // A benchmark client that outlives a drained connection must see
  // EPIPE as a Status, not a process kill.
  vkg::util::IgnoreSigPipe();
  return vkg::bench::Run();
}
