#include "layers.h"

#include <algorithm>
#include <cstring>

#include "embedding/batch_kernels.h"
#include "index/geometry.h"
#include "net/client.h"
#include "obs/trace.h"
#include "query/topk_engine.h"
#include "util/arena.h"
#include "util/math_util.h"

namespace vkg::perfbench {

namespace {

const char* const kRegistryCounters[] = {
    "vkg_crack_coalesced_total",     "vkg_crack_abandoned_total",
    "vkg_crack_waits_total",         "vkg_kernel_rows_soa_total",
    "vkg_kernel_rows_rowmajor_total", "vkg_kernel_rows_gather_total",
    "vkg_topk_queries_total",        "vkg_topk_degraded_total",
    "vkg_agg_queries_total",         "vkg_agg_degraded_total",
};

// Replay sample sizes: enough that p99 has ten samples beyond it for
// top-k on the socket, server and engine boundaries.
constexpr size_t kTopKSamples = 1000;
constexpr size_t kAggSamples = 200;
constexpr size_t kPings = 500;
// Leaf calls are short; each is repeated and averaged.
constexpr int kLeafReps = 64;

double Since(double start) { return NowSeconds() - start; }

// Quantile of the observations a histogram gained between two
// snapshots, interpolated linearly inside the bucket it falls in.
double HistogramQuantile(const obs::Histogram::Snapshot& before,
                         const obs::Histogram::Snapshot& after, double p,
                         uint64_t* count) {
  std::vector<uint64_t> diff(after.counts.size(), 0);
  uint64_t total = 0;
  for (size_t b = 0; b < diff.size(); ++b) {
    const uint64_t prior = b < before.counts.size() ? before.counts[b] : 0;
    diff[b] = after.counts[b] - prior;
    total += diff[b];
  }
  *count = total;
  if (total == 0) return 0.0;
  const double target = p * static_cast<double>(total);
  double cumulative = 0.0;
  for (size_t b = 0; b < diff.size(); ++b) {
    if (cumulative + diff[b] >= target && diff[b] > 0) {
      if (b >= after.bounds.size()) return after.bounds.back();
      const double lo = b == 0 ? 0.0 : after.bounds[b - 1];
      const double hi = after.bounds[b];
      return lo + (hi - lo) * (target - cumulative) / diff[b];
    }
    cumulative += diff[b];
  }
  return after.bounds.back();
}

// Self time (duration minus direct children) of every span named
// `name`, summed.
double SelfTimeUs(const obs::Trace& trace, const char* name) {
  const auto& spans = trace.spans();
  double total = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::strcmp(spans[i].name, name) != 0) continue;
    double self = spans[i].duration_us;
    for (size_t j = i + 1;
         j < spans.size() && spans[j].depth > spans[i].depth; ++j) {
      if (spans[j].depth == spans[i].depth + 1) self -= spans[j].duration_us;
    }
    total += self;
  }
  return total;
}

double SpanAttr(const obs::Trace& trace, const char* span, const char* key) {
  for (const obs::SpanRecord& s : trace.spans()) {
    if (std::strcmp(s.name, span) != 0) continue;
    for (const obs::SpanAttr& a : s.attrs) {
      if (!a.is_text && std::strcmp(a.key, key) == 0) return a.num;
    }
  }
  return 0.0;
}

struct Boundary {
  std::vector<double> hit_us;
  std::vector<double> miss_us;
  void Add(double us, bool cache_hit) {
    (cache_hit ? hit_us : miss_us).push_back(us);
  }
};

// The VKG answers the replay's engine calls with its own tree; bring it
// to the shard trees' state by running the same keys through it. A warm
// workload converged its shards on the whole universe; a cold one has
// served the open-loop stream once.
void AlignVkgTree(core::VirtualKnowledgeGraph& vkg, const WorkloadSpec& spec,
                  const std::vector<data::Query>& universe,
                  const std::vector<query::ServerRequest>& open_stream) {
  if (spec.warm) {
    for (int pass = 0; pass < 6; ++pass) {
      const uint64_t before = vkg.rtree().crack_generation();
      for (const data::Query& q : universe) vkg.TopK(q, 10);
      if (vkg.rtree().crack_generation() == before) break;
    }
    return;
  }
  for (const query::ServerRequest& r : open_stream) {
    if (r.kind == query::RequestKind::kTopK) {
      vkg.TopK(r.query, r.k);
    } else {
      (void)vkg.Aggregate(r.aggregate);
    }
  }
}

}  // namespace

CounterSnapshot CounterSnapshot::Take(const Stack& stack) {
  CounterSnapshot snap;
  snap.server = stack.server->Stats();
  snap.net = stack.net->Stats();
  snap.generation = TotalGeneration(*stack.server);
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  for (const char* name : kRegistryCounters) {
    snap.registry[name] = reg.CounterValue(name);
  }
  snap.queue_wait_us = reg.GetHistogram("vkg_server_queue_wait_us").Snap();
  snap.epoch = util::EpochManager::Global().GetStats();
  return snap;
}

void ResetPhaseGauges() {
  obs::MetricsRegistry::Global().GetGauge("vkg_server_peak_depth").Reset();
}

bool AddLayerMetrics(Stack& stack, const WorkloadSpec& spec,
                     const std::vector<data::Query>& universe,
                     const std::vector<query::ServerRequest>& open_stream,
                     const CounterSnapshot& before,
                     const CounterSnapshot& after,
                     const OpenLoopResult& open, uint64_t seed,
                     MetricSet* m, std::string* error) {
  core::VirtualKnowledgeGraph& vkg = *stack.vkg;
  server::VkgServer& srv = *stack.server;
  auto delta = [&](const char* name) {
    return static_cast<double>(after.registry.at(name) -
                               before.registry.at(name));
  };
  const double requests =
      static_cast<double>(after.server.requests - before.server.requests);
  const double per_1k = requests > 0 ? 1000.0 / requests : 0.0;
  const std::string base = "of " + std::to_string(
                                       static_cast<uint64_t>(requests)) +
                           " requests";

  // --- Counters of the open-loop phase -----------------------------------
  const double hits =
      static_cast<double>(after.server.cache_hits - before.server.cache_hits);
  const double lookups =
      hits + static_cast<double>(after.server.cache_misses -
                                 before.server.cache_misses);
  const double computed = static_cast<double>(
      after.server.computed_topk + after.server.computed_aggregate -
      before.server.computed_topk - before.server.computed_aggregate);
  const double rejected = static_cast<double>(
      (after.server.rejected_rate + after.server.rejected_overload +
       after.server.rejected_breaker + after.server.rejected_shed) -
      (before.server.rejected_rate + before.server.rejected_overload +
       before.server.rejected_breaker + before.server.rejected_shed));
  const double net_requests =
      static_cast<double>(after.net.requests - before.net.requests);
  const double net_bytes = static_cast<double>(
      after.net.bytes_rx + after.net.bytes_tx - before.net.bytes_rx -
      before.net.bytes_tx);
  uint64_t wait_n = 0;
  const double wait_p50 = HistogramQuantile(before.queue_wait_us,
                                            after.queue_wait_us, 0.50,
                                            &wait_n);
  const double wait_p99 = HistogramQuantile(before.queue_wait_us,
                                            after.queue_wait_us, 0.99,
                                            &wait_n);
  const double engine_queries =
      delta("vkg_topk_queries_total") + delta("vkg_agg_queries_total");
  const double per_computation = std::max(1.0, computed);

  // --- Replay: each boundary in turn ---------------------------------------
  AlignVkgTree(vkg, spec, universe, open_stream);

  Rng rng(StreamSeed(seed, 21));
  std::vector<query::ServerRequest> topk_sample;
  std::vector<query::ServerRequest> agg_sample;
  std::vector<const query::ServerRequest*> open_aggs;
  for (const auto& r : open_stream) {
    if (r.kind == query::RequestKind::kAggregate) open_aggs.push_back(&r);
  }
  for (size_t i = 0; i < kTopKSamples; ++i) {
    const auto& r = open_stream[rng.Index(open_stream.size())];
    topk_sample.push_back(r.kind == query::RequestKind::kTopK
                              ? r
                              : TopKRequest(r.aggregate.query));
  }
  if (!open_aggs.empty()) {
    for (size_t i = 0; i < kAggSamples; ++i) {
      agg_sample.push_back(*open_aggs[rng.Index(open_aggs.size())]);
    }
  } else {
    WorkloadSpec all_aggs = spec;
    all_aggs.agg_fraction = 1.0;
    agg_sample = MakeStream(all_aggs, universe, kAggSamples,
                            StreamSeed(seed, 22));
  }

  net::NetClientConfig client_config;
  client_config.port = stack.net->port();
  auto connected = net::NetClient::Connect(client_config);
  if (!connected.ok()) {
    *error = "replay connect: " + connected.status().ToString();
    return false;
  }
  net::NetClient& client = **connected;
  std::vector<double> ping_us;
  for (size_t i = 0; i < kPings; ++i) {
    const double t = NowSeconds();
    if (!client.Ping().ok()) {
      *error = "ping failed";
      return false;
    }
    ping_us.push_back(Since(t) * 1e6);
  }

  Boundary net_calls, execute;
  std::vector<double> engine_us, traced_us, candidates, pops;
  std::vector<double> probe_us, seed_us, frontier_us, crack_us;
  std::vector<double> jl_ns, probe_ns, skip_ns, gather_ns;
  const embedding::EmbeddingStore& store = vkg.embeddings();
  const double n_entities = static_cast<double>(store.num_entities());
  auto call = [&](const query::ServerRequest& r, Boundary* into) {
    const double t = NowSeconds();
    auto response = client.Call(r);
    const double us = Since(t) * 1e6;
    if (!response.ok() || !response->ok()) return false;
    if (into != nullptr) into->Add(us, response->meta.cache_hit);
    return true;
  };
  auto exec = [&](const query::ServerRequest& r, Boundary* into) {
    const double t = NowSeconds();
    const query::ServerResponse response = srv.Execute(r);
    const double us = Since(t) * 1e6;
    if (!response.ok()) return false;
    if (into != nullptr) into->Add(us, response.meta.cache_hit);
    return true;
  };

  for (const query::ServerRequest& r : topk_sample) {
    query::ServerRequest uncached = r;
    uncached.bypass_cache = true;
    // One untimed engine call first, so every timed boundary below sees
    // the key's data equally warm and adjacent differences are layer
    // costs, not cache effects. Then, inward to outward: the engine
    // untraced and traced, a forced computation in the server, the same
    // request through the server's cache, and over the socket.
    // The untraced and traced calls swap order on alternate samples, so
    // neither gains from running second.
    vkg.TopK(r.query, r.k);
    obs::Trace trace;
    double t = 0.0;
    const bool traced_first = traced_us.size() % 2 == 0;
    for (int pass = 0; pass < 2; ++pass) {
      const bool traced = (pass == 0) == traced_first;
      t = NowSeconds();
      const query::TopKResult result =
          vkg.TopK(r.query, r.k, traced ? &trace : nullptr);
      (traced ? traced_us : engine_us).push_back(Since(t) * 1e6);
      if (!traced) {
        candidates.push_back(static_cast<double>(result.candidates_examined));
      }
    }
    probe_us.push_back(SelfTimeUs(trace, "probe"));
    seed_us.push_back(SelfTimeUs(trace, "seed"));
    frontier_us.push_back(SelfTimeUs(trace, "frontier"));
    crack_us.push_back(SelfTimeUs(trace, "crack"));
    pops.push_back(SpanAttr(trace, "frontier", "pops"));

    if (!exec(uncached, &execute) || !exec(r, &execute) ||
        !call(r, &net_calls)) {
      *error = "replayed top-k request failed";
      return false;
    }
    const double radius = SpanAttr(trace, "topk.rtree", "radius");

    // Leaf calls on the same query: projection, probe, and the skip test
    // and gather over the ids of the contour elements the final query
    // region touches (the elements the frontier examined).
    const std::vector<float> q_s1 = store.QueryCenter(
        r.query.anchor, r.query.relation, r.query.direction);
    std::vector<float> q_alpha(vkg.jl().output_dim());
    t = NowSeconds();
    for (int rep = 0; rep < kLeafReps; ++rep) vkg.jl().Apply(q_s1, q_alpha);
    jl_ns.push_back(Since(t) * 1e9 / kLeafReps);
    const index::Point q_s2 = index::Point::FromSpan(q_alpha);
    const index::CrackingRTree& tree = vkg.rtree();
    index::CrackingRTree::ReadPin pin = tree.PinForRead();
    const index::Node* probed = nullptr;
    t = NowSeconds();
    for (int rep = 0; rep < kLeafReps; ++rep) {
      probed = tree.ProbeSmallest(q_s2.AsSpan());
    }
    probe_ns.push_back(Since(t) * 1e9 / kLeafReps);
    std::vector<uint32_t> ids;
    tree.VisitContour(index::Rect::BoundingBoxOfBall(q_s2, radius),
                      [&](const index::Node& node) {
                        const auto span = tree.ElementIds(node);
                        ids.insert(ids.end(), span.begin(), span.end());
                      });
    if (ids.empty() && probed != nullptr) {
      const auto span = tree.ElementIds(*probed);
      ids.assign(span.begin(), span.end());
    }
    if (!ids.empty()) {
      const auto skip = query::MakeSkipFn(vkg.graph(), r.query);
      size_t skipped = 0;
      t = NowSeconds();
      for (uint32_t id : ids) skipped += skip(id) ? 1 : 0;
      skip_ns.push_back(Since(t) * 1e9 / ids.size());
      std::vector<double> out(ids.size());
      t = NowSeconds();
      embedding::GatherL2DistanceSquared(q_s1, store, ids, out.data());
      gather_ns.push_back(Since(t) * 1e9 / ids.size());
      if (skipped > ids.size() || !(out[0] >= 0.0)) {
        *error = "leaf replay produced an impossible value";
        return false;
      }
    }
  }

  std::vector<double> agg_us, accessed;
  for (const query::ServerRequest& r : agg_sample) {
    if (!call(r, nullptr) || !exec(r, nullptr)) {
      *error = "replayed aggregate request failed";
      return false;
    }
    const double t = NowSeconds();
    auto result = vkg.Aggregate(r.aggregate);
    agg_us.push_back(Since(t) * 1e6);
    if (!result.ok()) {
      *error = "engine aggregate failed: " + result.status().ToString();
      return false;
    }
    accessed.push_back(static_cast<double>(result->accessed));
  }
  client.Goodbye();

  const double exec_hit_p50 = Percentile(execute.hit_us, 0.50);
  const double exec_miss_p50 = Percentile(execute.miss_us, 0.50);
  const double call_hit_p50 = Percentile(net_calls.hit_us, 0.50);
  const double engine_p50 = Percentile(engine_us, 0.50);

  // --- net ------------------------------------------------------------------
  m->Add("net.ping_us.p50", Percentile(ping_us, 0.50), "us",
         Count(ping_us.size()));
  m->Add("net.call_hit_us.p50", call_hit_p50, "us",
         Count(net_calls.hit_us.size()));
  m->Add("net.call_hit_us.p99", Percentile(net_calls.hit_us, 0.99), "us",
         Count(net_calls.hit_us.size()));
  m->Add("net.overhead_hit_us", call_hit_p50 - exec_hit_p50, "us",
         "call_hit p50 - execute_hit p50");
  m->Add("net.bytes_per_req", net_requests > 0 ? net_bytes / net_requests : 0,
         "B", "of " + std::to_string(static_cast<uint64_t>(net_requests)) +
                  " frames");
  m->Add("net.io_errors",
         static_cast<double>(after.net.io_errors - before.net.io_errors),
         "count");
  m->Add("net.frame_errors",
         static_cast<double>(after.net.frame_errors - before.net.frame_errors),
         "count");

  // --- server -----------------------------------------------------------------
  m->Add("server.execute_hit_us.p50", exec_hit_p50, "us",
         Count(execute.hit_us.size()));
  m->Add("server.execute_hit_us.p99", Percentile(execute.hit_us, 0.99), "us",
         Count(execute.hit_us.size()));
  m->Add("server.execute_miss_us.p50", exec_miss_p50, "us",
         Count(execute.miss_us.size()));
  m->Add("server.execute_miss_us.p99", Percentile(execute.miss_us, 0.99),
         "us", Count(execute.miss_us.size()));
  m->Add("server.overhead_miss_us", exec_miss_p50 - engine_p50, "us",
         "execute_miss p50 - query.topk p50, same keys");
  m->Add("server.cache_hit_ratio", lookups > 0 ? hits / lookups : 0.0,
         "ratio",
         "of " + std::to_string(static_cast<uint64_t>(lookups)) +
             " lookups");
  m->Add("server.cache_invalidated_per_1k",
         static_cast<double>(after.server.cache_invalidated -
                             before.server.cache_invalidated) *
             per_1k,
         "1/1k", base);
  m->Add("server.coalesced_ratio",
         requests > 0 ? static_cast<double>(after.server.coalesced -
                                            before.server.coalesced) /
                            requests
                      : 0.0,
         "ratio", base);
  m->Add("server.queue_wait_us.p50", wait_p50, "us", Count(wait_n));
  m->Add("server.queue_wait_us.p99", wait_p99, "us", Count(wait_n));
  m->Add("server.peak_depth",
         obs::MetricsRegistry::Global().GaugeValue("vkg_server_peak_depth"),
         "count");
  m->Add("server.rejected", rejected, "count", base);

  // --- query ------------------------------------------------------------------
  m->Add("query.topk_us.p50", engine_p50, "us", Count(engine_us.size()));
  m->Add("query.topk_us.p99", Percentile(engine_us, 0.99), "us",
         Count(engine_us.size()));
  m->Add("query.candidates_over_n", util::Mean(candidates) / n_entities, "ratio",
         "mean of " + Count(candidates.size()) + ", N=" +
             std::to_string(store.num_entities()));
  m->Add("query.frontier_pops", util::Mean(pops), "count", Count(pops.size()));
  m->Add("query.probe_us", util::Mean(probe_us), "us", "self, mean");
  m->Add("query.seed_us", util::Mean(seed_us), "us", "self, mean");
  m->Add("query.frontier_us", util::Mean(frontier_us), "us", "self, mean");
  m->Add("query.crack_us", util::Mean(crack_us), "us", "self, mean");
  m->Add("query.agg_us.p50", Percentile(agg_us, 0.50), "us",
         Count(agg_us.size()));
  m->Add("query.agg_us.p99", Percentile(agg_us, 0.99), "us",
         Count(agg_us.size()));
  m->Add("query.agg_accessed", util::Mean(accessed), "count",
         "mean of " + Count(accessed.size()));
  m->Add("query.degraded_ratio",
         engine_queries > 0 ? (delta("vkg_topk_degraded_total") +
                               delta("vkg_agg_degraded_total")) /
                                  engine_queries
                            : 0.0,
         "ratio",
         "of " + std::to_string(static_cast<uint64_t>(engine_queries)) +
             " engine queries");

  // --- index ------------------------------------------------------------------
  const index::IndexStats index_stats = vkg.IndexStats();
  m->Add("index.probe_ns", util::Mean(probe_ns), "ns", Count(probe_ns.size()));
  m->Add("index.crack_publishes_per_1k",
         static_cast<double>(after.generation - before.generation) * per_1k,
         "1/1k", base);
  m->Add("index.coalesced_cracks", delta("vkg_crack_coalesced_total"),
         "count");
  m->Add("index.abandoned_cracks", delta("vkg_crack_abandoned_total"),
         "count");
  m->Add("index.crack_waits", delta("vkg_crack_waits_total"), "count");
  m->Add("index.nodes", static_cast<double>(index_stats.num_nodes), "count");
  m->Add("index.node_bytes", static_cast<double>(index_stats.node_bytes),
         "B");

  // --- kg, embedding, transform ---------------------------------------------
  m->Add("kg.skip_test_ns", util::Mean(skip_ns), "ns",
         "per id, " + Count(skip_ns.size()) + " queries");
  m->Add("embedding.gather_ns_per_row", util::Mean(gather_ns), "ns",
         "per id, " + Count(gather_ns.size()) + " queries");
  const std::string per_comp =
      "per computation, " +
      std::to_string(static_cast<uint64_t>(computed)) + " computed";
  m->Add("embedding.rows_gather_per_query",
         delta("vkg_kernel_rows_gather_total") / per_computation, "count",
         per_comp);
  m->Add("embedding.rows_soa_per_query",
         delta("vkg_kernel_rows_soa_total") / per_computation, "count",
         per_comp);
  m->Add("embedding.rows_rowmajor_per_query",
         delta("vkg_kernel_rows_rowmajor_total") / per_computation, "count",
         per_comp);
  m->Add("transform.jl_apply_ns", util::Mean(jl_ns), "ns", Count(jl_ns.size()));

  // --- util -------------------------------------------------------------------
  const util::EpochManager::Stats epoch = util::EpochManager::Global().GetStats();
  m->Add("util.epoch_retired",
         static_cast<double>(after.epoch.versions_retired -
                             before.epoch.versions_retired),
         "count");
  m->Add("util.epoch_reclaimed",
         static_cast<double>(after.epoch.versions_reclaimed -
                             before.epoch.versions_reclaimed),
         "count");
  m->Add("util.epoch_max_lag", static_cast<double>(epoch.max_lag), "count");
  m->Add("util.arena_reserved_bytes",
         static_cast<double>(util::Arena::GetGlobalStats().reserved_bytes),
         "B");

  // --- harness ----------------------------------------------------------------
  m->Add("harness.gen_lag_p99_ms", Percentile(open.lag_ms, 0.99), "ms",
         Count(open.lag_ms.size()));
  const double traced_p50 = Percentile(traced_us, 0.50);
  m->Add("harness.trace_overhead_pct",
         engine_p50 > 0 ? (traced_p50 - engine_p50) / engine_p50 * 100.0 : 0,
         "%", "traced vs untraced engine p50, same keys");
  return true;
}

}  // namespace vkg::perfbench
