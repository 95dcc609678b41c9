// The repository's serving benchmark. One process hosts the whole
// serving stack (VirtualKnowledgeGraph -> VkgServer -> NetServer on
// loopback) and drives it over TCP from one busy-polling client thread:
//
//   open loop    a seeded Poisson stream at the workload's fixed offered
//                rate, pipelined over min(nproc, 4) connections; latency
//                is timed from each due time;
//   closed loop  the same connections keep 16 requests each in flight
//                to measure capacity (cold_mixed: a fresh server, so the
//                capacity is that of the cracking phase too);
//   checks       outside the timed windows: socket answers equal
//                in-process answers, precision@10 against the exact scan,
//                served aggregate error against the exact aggregate.
//
// --trace 1 replaces the closed loop with the per-layer ledger
// (layers.cc). perfbench/WORKLOADS.md defines every workload and metric.
// Usage:
//
//   vkg_perfbench --workload <hot_cached|uniform_compute|cold_mixed>
//                 --seed <n> --seconds <s> --trace <0|1>
//   vkg_perfbench --selftest
//
// The last line of stdout is the result object; a run whose workload
// guard fails prints no result and exits 2, wrong answers exit 1.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "harness.h"
#include "layers.h"
#include "loadgen.h"
#include "net/client.h"
#include "query/metrics.h"
#include "query/topk_engine.h"
#include "util/socket.h"
#include "workload.h"

namespace vkg::perfbench {
namespace {

constexpr size_t kSetupReps = 20;
constexpr double kOpenShare = 0.75;       // of --seconds; the rest is closed
constexpr size_t kConnections = 4;
constexpr size_t kClosedWindow = 16;      // outstanding per connection
// Top-k samples per slice: enough for a steady slice median, and small
// enough slices that a burst of host steal costs few of them.
constexpr size_t kSliceSamples = 600;
constexpr size_t kMaxSlices = 20;
constexpr size_t kAggProbe = 800;         // aggregates, where none in mix
constexpr size_t kProbeGroups = 4;        // episodes the probe's p50 spans
constexpr size_t kAggProbeSample = 512;   // a of every probe aggregate
constexpr size_t kMinTopKSamples = 1000;  // p99 needs ten beyond it
constexpr double kMaxGenLagMs = 10.0;     // generator p99 lateness
constexpr size_t kCheckTopK = 200;
constexpr uint64_t kUniverseSeed = 20;
constexpr size_t kCheckAgg = 64;
// The COUNT error panel is fixed per workload, not drawn per run: a
// per-seed draw of 300 queries alone moved the median by 20% between
// seeds.
constexpr uint64_t kPanelSeed = 33;
constexpr size_t kErrorPanel = 1000;
constexpr size_t kErrorSampleSize = 32;  // a: points accessed per COUNT

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") {
      args->selftest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const char* value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value);
    } else if (flag == "--trace") {
      args->trace = std::atoi(value);
    } else {
      return false;
    }
  }
  return args->selftest ||
         (!args->workload.empty() && args->seconds > 0.0 &&
          (args->trace == 0 || args->trace == 1));
}

void Log(const std::string& message) {
  static const double start = NowSeconds();
  std::fprintf(stderr, "[perfbench %6.2fs] %s\n", NowSeconds() - start,
               message.c_str());
}

bool SameTopK(const query::TopKResult& a, const query::TopKResult& b) {
  if (a.hits.size() != b.hits.size()) return false;
  for (size_t i = 0; i < a.hits.size(); ++i) {
    if (a.hits[i].entity != b.hits[i].entity ||
        a.hits[i].distance != b.hits[i].distance ||
        a.hits[i].probability != b.hits[i].probability) {
      return false;
    }
  }
  return true;
}

bool SameAggregate(const query::AggregateResult& a,
                   const query::AggregateResult& b) {
  return a.value == b.value && a.accessed == b.accessed &&
         a.estimated_total == b.estimated_total;
}

bool WellFormedTopK(const query::TopKResult& r, size_t k) {
  if (r.hits.size() != k) return false;
  for (size_t i = 1; i < r.hits.size(); ++i) {
    if (r.hits[i].distance < r.hits[i - 1].distance) return false;
  }
  return true;
}

// Runs `requests` uncached through the server until a pass publishes no
// crack (at most 8 passes), so later answers for them come from fixed
// tree versions. False when a request fails.
bool CrackToFixedPoint(server::VkgServer& srv,
                       std::vector<query::ServerRequest> requests) {
  for (auto& r : requests) r.bypass_cache = true;
  for (int pass = 0; pass < 8; ++pass) {
    const uint64_t before = TotalGeneration(srv);
    if (ExecuteAll(srv, requests, 16) != 0) return false;
    if (TotalGeneration(srv) == before) break;
  }
  return true;
}

struct CheckResult {
  std::string wrong;  // first wrong answer; empty when all agree
  double precision_at_10 = 0.0;
  size_t precision_n = 0;
};

// Output checks, outside every timed window.
//  * Socket answers equal in-process answers bit for bit on a sample of
//    served requests, after the sample's regions are cracked to a fixed
//    point (so both compute on the same tree versions).
//  * precision@10 of those top-10 answers against the exact scan.
CheckResult CheckAnswers(Stack& stack, const data::Dataset& ds,
                         const WorkloadSpec& spec,
                         const std::vector<data::Query>& universe,
                         const std::vector<query::ServerRequest>& served,
                         uint64_t seed) {
  CheckResult out;
  server::VkgServer& srv = *stack.server;
  Rng rng(StreamSeed(seed, 31));
  WorkloadSpec aggs_only = spec;
  aggs_only.agg_fraction = 1.0;
  std::vector<query::ServerRequest> sample;
  for (size_t i = 0; i < kCheckTopK; ++i) {
    const auto& r = served[rng.Index(served.size())];
    sample.push_back(r.kind == query::RequestKind::kTopK
                         ? r
                         : TopKRequest(r.aggregate.query));
  }
  for (auto& r : MakeStream(aggs_only, universe, kCheckAgg,
                            StreamSeed(seed, 32))) {
    sample.push_back(std::move(r));
  }
  for (auto& r : sample) r.bypass_cache = true;
  if (!CrackToFixedPoint(srv, sample)) {
    out.wrong = "check sample failed in-process";
    return out;
  }

  net::NetClientConfig config;
  config.port = stack.net->port();
  auto client = net::NetClient::Connect(config);
  if (!client.ok()) {
    out.wrong = "check connect: " + client.status().ToString();
    return out;
  }
  const query::LinearTopKEngine exact(&ds.graph, &ds.embeddings);
  double precision_sum = 0.0;
  for (const query::ServerRequest& r : sample) {
    query::ServerResponse local;
    util::Result<query::ServerResponse> remote = util::Status::Internal("");
    bool agree = false;
    // A crack elsewhere in the shard between the two calls may move the
    // tree; one retry separates that from a real mismatch.
    for (int attempt = 0; attempt < 2 && !agree; ++attempt) {
      const uint64_t gen = TotalGeneration(srv);
      local = srv.Execute(r);
      remote = (*client)->Call(r);
      if (!local.ok() || !remote.ok() || !remote->ok()) break;
      agree = r.kind == query::RequestKind::kTopK
                  ? SameTopK(local.topk, remote->topk)
                  : SameAggregate(local.aggregate, remote->aggregate);
      if (!agree && TotalGeneration(srv) == gen) break;
    }
    if (!agree) {
      out.wrong = "socket answer differs from in-process answer";
      return out;
    }
    if (r.kind != query::RequestKind::kTopK) continue;
    if (!WellFormedTopK(remote->topk, r.k)) {
      out.wrong = "top-k answer is not k hits in distance order";
      return out;
    }
    precision_sum += query::PrecisionAtK(remote->topk,
                                         exact.TopKQuery(r.query, r.k));
    ++out.precision_n;
  }
  (*client)->Goodbye();
  out.precision_at_10 =
      out.precision_n > 0 ? precision_sum / out.precision_n : 0.0;
  return out;
}

struct AggError {
  std::string wrong;  // a failed request; empty otherwise
  double median = 0.0;
  size_t n = 0;
};

// Relative error of served COUNT answers estimated from a 32-point
// sample (a < b), against the exact aggregate. The panel is fixed per
// workload: distinct keys drawn from the workload's key distribution.
// Its regions are cracked to a fixed point, then it is answered over the
// socket. MAX answers are within rounding of exact and an all-of-the-ball
// answer is exact, so mixing them in would only move the median between
// the modes.
AggError MeasureAggError(Stack& stack, const WorkloadSpec& spec,
                         const std::vector<data::Query>& universe) {
  AggError out;
  WorkloadSpec aggs_only = spec;
  aggs_only.agg_fraction = 1.0;
  std::vector<query::ServerRequest> panel;
  std::set<std::tuple<kg::EntityId, kg::RelationId, int>> keys;
  for (auto& r : MakeStream(aggs_only, universe, kErrorPanel,
                            StreamSeed(kPanelSeed, 33))) {
    const data::Query& q = r.aggregate.query;
    if (!keys.emplace(q.anchor, q.relation, static_cast<int>(q.direction))
             .second) {
      continue;
    }
    r.aggregate.kind = query::AggKind::kCount;
    r.aggregate.attribute.clear();
    r.aggregate.sample_size = kErrorSampleSize;
    panel.push_back(std::move(r));
  }
  if (!CrackToFixedPoint(*stack.server, panel)) {
    out.wrong = "error panel failed in-process";
    return out;
  }
  net::NetClientConfig config;
  config.port = stack.net->port();
  auto client = net::NetClient::Connect(config);
  if (!client.ok()) {
    out.wrong = "panel connect: " + client.status().ToString();
    return out;
  }
  std::vector<query::AggregateResult> answers;
  std::vector<size_t> sampled;  // panel entries answered from a sample
  for (const query::ServerRequest& r : panel) {
    auto answer = (*client)->Call(r);
    if (!answer.ok() || !answer->ok()) {
      out.wrong = "served aggregate failed";
      return out;
    }
    const query::AggregateResult& got = answer->aggregate;
    if (got.estimated_total > static_cast<double>(got.accessed)) {
      sampled.push_back(answers.size());
    }
    answers.push_back(got);
  }
  (*client)->Goodbye();
  // The exact scans are the slow part; they only read, so they run on
  // every core.
  std::vector<double> truth(sampled.size(), 0.0);
  std::atomic<bool> exact_failed{false};
  const size_t workers =
      std::clamp<size_t>(std::thread::hardware_concurrency(), 1, 4);
  std::vector<std::thread> pool;
  for (size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&, w] {
      for (size_t j = w; j < sampled.size(); j += workers) {
        auto exact = stack.vkg->ExactAggregate(panel[sampled[j]].aggregate);
        if (!exact.ok()) {
          exact_failed = true;
          return;
        }
        truth[j] = exact->value;
      }
    });
  }
  for (auto& t : pool) t.join();
  if (exact_failed) {
    out.wrong = "exact aggregate failed";
    return out;
  }
  std::vector<double> rel_errors;
  for (size_t j = 0; j < sampled.size(); ++j) {
    if (truth[j] == 0.0) continue;
    rel_errors.push_back(std::abs(answers[sampled[j]].value - truth[j]) /
                         std::abs(truth[j]));
  }
  out.median = Median(rel_errors);
  out.n = rel_errors.size();
  return out;
}

int Run(const Args& args) {
  if (RunHarnessSelfTests() + RunWorkloadSelfTests() != 0) return 3;
  if (args.selftest) {
    std::fprintf(stderr, "self-tests passed\n");
    return 0;
  }
  const WorkloadSpec* found = FindWorkload(args.workload);
  if (found == nullptr) {
    Log("unknown workload " + args.workload);
    return 2;
  }
  const WorkloadSpec& spec = *found;
  const uint64_t seed = args.seed;
  const size_t num_conns = std::clamp<size_t>(
      std::thread::hardware_concurrency(), 1, kConnections);

  Log("generating dataset");
  const std::unique_ptr<data::Dataset> ds = MakeDataset(spec.dataset);
  // The key universe and its popularity order are part of the workload,
  // not of the run: the seed draws the stream from them.
  std::vector<data::Query> universe = ObservedKeys(ds->graph, kUniverseSeed);
  const size_t observed = universe.size();
  if (spec.universe > 0 && universe.size() > spec.universe) {
    universe.resize(spec.universe);
  }
  Log(std::to_string(ds->graph.num_entities()) + " entities, " +
      std::to_string(observed) + " observed keys, " +
      std::to_string(universe.size()) + " in the workload; cache holds " +
      std::to_string(CacheEntryCapacity(spec.cache_bytes)) +
      " top-10 entries");

  // Set-up is repeated and the median reported. Only one stack is alive
  // at a time, so peak_rss_mb is the dataset plus one serving stack.
  std::vector<double> setup_times;
  auto make_stack = [&]() -> std::unique_ptr<Stack> {
    auto made = MakeStack(*ds, spec);
    if (!made.ok()) {
      Log("setup failed: " + made.status().ToString());
      return nullptr;
    }
    setup_times.push_back(made->setup_s);
    return std::make_unique<Stack>(std::move(made).value());
  };
  while (setup_times.size() < kSetupReps) {
    if (make_stack() == nullptr) return 1;
  }
  std::unique_ptr<Stack> stack = make_stack();
  if (stack == nullptr) return 1;

  if (spec.warm) {
    Log("converging shard trees on " + std::to_string(universe.size()) +
        " keys");
    const size_t passes = ConvergeShards(*stack->server, universe, 8);
    std::vector<query::ServerRequest> prime;
    for (const data::Query& q : universe) prime.push_back(TopKRequest(q));
    if (passes == 0 || ExecuteAll(*stack->server, prime, 64) != 0) {
      Log("warm-up requests failed");
      return 1;
    }
  }
  auto conns = ConnectAll(stack->net->port(), num_conns);
  if (!conns.ok()) {
    Log("connect failed: " + conns.status().ToString());
    return 1;
  }

  const double open_s = args.seconds * kOpenShare;
  const double closed_s = args.seconds - open_s;
  const std::vector<double> due =
      PoissonSchedule(spec.offered_qps, open_s, StreamSeed(seed, 2));
  const std::vector<query::ServerRequest> open_stream =
      MakeStream(spec, universe, due.size(), StreamSeed(seed, 3));
  // Percentiles are medians over time slices of the phase, each slice
  // holding about kSliceSamples top-k samples, so a host stall confined
  // to a few slices does not move them.
  const double expected_topk =
      spec.offered_qps * open_s * (1.0 - spec.agg_fraction);
  const size_t slices = std::clamp<size_t>(
      static_cast<size_t>(expected_topk / kSliceSamples), 1, kMaxSlices);

  Log("open loop: " + std::to_string(due.size()) + " requests over " +
      std::to_string(num_conns) + " connections, " + std::to_string(slices) +
      " slices");
  ResetPhaseGauges();
  const CounterSnapshot before = CounterSnapshot::Take(*stack);
  const StealRecorder steal;
  const OpenLoopResult open = RunOpenLoop(*conns, open_stream, due);
  const CounterSnapshot after = CounterSnapshot::Take(*stack);
  if (!open.error.empty()) {
    Log("INVALID: open loop: " + open.error);
    return 2;
  }
  if (open.failed > 0) {
    Log(std::to_string(open.failed) + " open-loop requests failed, first: " +
        open.first_failure);
  }
  size_t attempted = open.attempted;
  size_t failed = open.failed;
  std::vector<std::vector<double>> topk_groups(slices), agg_groups(slices);
  for (size_t i = 0; i < open.latency_ms.size(); ++i) {
    if (std::isnan(open.latency_ms[i])) continue;
    const size_t g = std::min<size_t>(
        slices - 1, static_cast<size_t>(due[i] / open_s * slices));
    auto& groups = open_stream[i].kind == query::RequestKind::kAggregate
                       ? agg_groups
                       : topk_groups;
    groups[g].push_back(open.latency_ms[i]);
  }
  std::vector<double> slice_steal;
  for (size_t g = 0; g < slices; ++g) {
    slice_steal.push_back(steal.Share(open.start_s + open_s * g / slices,
                                      open.start_s + open_s * (g + 1) / slices));
  }
  topk_groups = QuietGroups(topk_groups, slice_steal);
  agg_groups = QuietGroups(agg_groups, slice_steal);
  const double hits =
      static_cast<double>(after.server.cache_hits - before.server.cache_hits);
  const double lookups =
      hits + static_cast<double>(after.server.cache_misses -
                                 before.server.cache_misses);
  const uint64_t publishes = after.generation - before.generation;

  // Workload guards: a run that does not measure what its workload is
  // named after is invalid, not a number.
  const double hit_ratio = lookups > 0 ? hits / lookups : 0.0;
  const double lag_p99 = Percentile(open.lag_ms, 0.99);
  std::vector<std::string> guard_failures;
  if (spec.name == "hot_cached" && hit_ratio < 0.9) {
    guard_failures.push_back("cache hit ratio below 0.9");
  }
  if (spec.name == "uniform_compute" && hit_ratio > 0.1) {
    guard_failures.push_back("cache hit ratio above 0.1");
  }
  if (spec.name == "cold_mixed" && publishes == 0) {
    guard_failures.push_back("no crack published in the timed window");
  }
  if (lag_p99 > kMaxGenLagMs) {
    guard_failures.push_back("generator fell behind its schedule");
  }
  size_t topk_samples = 0;
  for (const auto& group : topk_groups) topk_samples += group.size();
  if (topk_samples < kMinTopKSamples) {
    guard_failures.push_back("fewer than 1000 top-k samples");
  }
  Log("open loop done: hit ratio " + std::to_string(hit_ratio) + " of " +
      std::to_string(static_cast<uint64_t>(lookups)) + " lookups, " +
      std::to_string(publishes) + " crack publications, generator lag p99 " +
      std::to_string(lag_p99) + " ms, host steal " +
      std::to_string(100.0 * steal.Share(open.start_s,
                                         open.start_s + open_s)) +
      "%, " + std::to_string(topk_groups.size()) + " of " +
      std::to_string(slices) + " slices quiet");

  MetricSet metrics;
  auto note = [&](const std::vector<std::vector<double>>& groups,
                  const std::string& source) {
    size_t n = 0;
    for (const auto& g : groups) n += g.size();
    return source + ", " + Count(n) + " in " + std::to_string(groups.size()) +
           " slices";
  };
  // Capacity: completions per second of a closed loop, the median over
  // slices of the phase.
  auto measure_capacity = [&](Connections& on) {
    Log("closed loop");
    const ClosedLoopResult closed =
        RunClosedLoop(on, MakeStream(spec, universe, 1u << 15,
                                     StreamSeed(seed, 4)),
                      closed_s, 0, kClosedWindow, closed_s / kMaxSlices);
    attempted += closed.attempted;
    failed += closed.failed;
    if (closed.failed > 0) {
      Log(std::to_string(closed.failed) +
          " closed-loop requests failed, first: " + closed.first_failure);
    }
    if (!closed.error.empty()) {
      Log("INVALID: closed loop: " + closed.error);
      return false;
    }
    std::vector<std::vector<double>> rates;
    std::vector<double> rate_steal;
    for (size_t b = 0; b < closed.bucket_completions.size(); ++b) {
      rates.push_back({closed.bucket_completions[b] / closed.bucket_s});
      rate_steal.push_back(
          steal.Share(closed.start_s + b * closed.bucket_s,
                      closed.start_s + (b + 1) * closed.bucket_s));
    }
    rates = QuietGroups(rates, rate_steal);
    metrics.Add("peak_qps", GroupedPercentile(rates, 0.5), "req/s",
                "median of " + std::to_string(rates.size()) +
                    " quiet slices, " +
                    std::to_string(closed.completed) + " completions, " +
                    std::to_string(on.size()) + "x" +
                    std::to_string(kClosedWindow) + " in flight");
    return true;
  };
  // Aggregate error: on the serving stack of a warm workload, whose trees
  // are converged on the workload's keys; on a fresh stack for
  // cold_mixed, because on its cracked trees the median moved by 27%
  // between seeds with how much the seed's stream had cracked.
  AggError agg_error;
  auto measure_agg_error = [&](Stack& on) {
    Log("aggregate error panel");
    agg_error = MeasureAggError(on, spec, universe);
    if (!agg_error.wrong.empty()) Log("WRONG ANSWER: " + agg_error.wrong);
    return agg_error.wrong.empty();
  };
  if (args.trace == 1) {
    std::string error;
    if (!AddLayerMetrics(*stack, spec, universe, open_stream, before, after,
                         open, seed, &metrics, &error)) {
      Log("WRONG ANSWER: " + error);
      return 1;
    }
  } else if (spec.warm) {
    if (!measure_capacity(*conns)) return 2;
    if (!measure_agg_error(*stack)) return 1;
  }

  // Aggregate latency: from the open loop where the mix has aggregates,
  // else from a sequential probe on the warm stack. The probe is fixed
  // per workload and cracked to a fixed point before it is timed, like
  // the top-k keys the stack was converged on, and every probe request
  // is computed (no cache). It holds one sample size, so its median does
  // not fall between two latency modes.
  std::string agg_source = "open loop";
  if (spec.agg_fraction == 0.0) {
    WorkloadSpec probe_spec = spec;
    probe_spec.agg_fraction = 1.0;
    auto probe_stream = MakeStream(probe_spec, universe, kAggProbe,
                                   StreamSeed(kPanelSeed, 5));
    for (auto& r : probe_stream) {
      r.aggregate.sample_size = kAggProbeSample;
      r.bypass_cache = true;
    }
    Log("aggregate probe");
    if (!CrackToFixedPoint(*stack->server, probe_stream)) {
      Log("WRONG ANSWER: aggregate probe failed in-process");
      return 1;
    }
    auto one = ConnectAll(stack->net->port(), 1);
    if (!one.ok()) return 1;
    const ClosedLoopResult probe =
        RunClosedLoop(*one, probe_stream, 1e9, kAggProbe, 1, 0.0);
    attempted += probe.attempted;
    failed += probe.failed;
    if (!probe.error.empty()) {
      Log("INVALID: aggregate probe: " + probe.error);
      return 2;
    }
    agg_groups.assign(kProbeGroups, {});
    std::vector<double> episode_steal;
    const size_t per_episode = probe.latency_ms.size() / kProbeGroups;
    for (size_t g = 0; g < kProbeGroups && per_episode > 0; ++g) {
      const size_t first = g * per_episode;
      const size_t last = first + per_episode - 1;
      agg_groups[g].assign(probe.latency_ms.begin() + first,
                           probe.latency_ms.begin() + last + 1);
      episode_steal.push_back(steal.Share(
          probe.start_s + probe.done_s[first] - probe.latency_ms[first] * 1e-3,
          probe.start_s + probe.done_s[last]));
    }
    if (per_episode == 0) episode_steal.assign(kProbeGroups, 0.0);
    agg_groups = QuietGroups(agg_groups, episode_steal);
    agg_source = "sequential probe";
  }

  Log("checking answers");
  const CheckResult check =
      CheckAnswers(*stack, *ds, spec, universe, open_stream, seed);
  if (!check.wrong.empty()) {
    Log("WRONG ANSWER: " + check.wrong);
    return 1;
  }
  Log("checks done");

  if (args.trace == 0 && !spec.warm) {
    // The cold workload's error panel and capacity each run on a fresh
    // stack, built once the previous one is gone.
    conns->clear();
    stack.reset();
    stack = make_stack();
    if (stack == nullptr) return 1;
    if (!measure_agg_error(*stack)) return 1;
    stack.reset();
    stack = make_stack();
    if (stack == nullptr) return 1;
    auto fresh = ConnectAll(stack->net->port(), num_conns);
    if (!fresh.ok()) return 1;
    if (!measure_capacity(*fresh)) return 2;
  }

  if (args.trace == 0) {
    metrics.Add("setup_s", Median(setup_times), "s",
                "median of " + Count(setup_times.size()));
    metrics.Add("topk_p50_ms", GroupedPercentile(topk_groups, 0.50), "ms",
                note(topk_groups, "open loop"));
    metrics.Add("agg_p50_ms", GroupedPercentile(agg_groups, 0.50), "ms",
                note(agg_groups, agg_source));
    metrics.Add("ok_ratio",
                attempted > 0 ? 1.0 - static_cast<double>(failed) / attempted
                              : 0.0,
                "ratio", "of " + std::to_string(attempted) + " requests");
    metrics.Add("precision_at_10", check.precision_at_10, "ratio",
                Count(check.precision_n) + " served keys");
    metrics.Add("agg_rel_error", agg_error.median, "ratio",
                "median of " + Count(agg_error.n) + " served COUNT answers");
    metrics.Add("peak_rss_mb", PeakRssMb(), "MB", "VmHWM");
  } else {
    // The open-loop tails: reported with the ledger rather than gated,
    // because their run-to-run spread on a shared host exceeds any bound
    // a regression gate could use (see WORKLOADS.md).
    metrics.Add("tail.topk_p99_ms", GroupedPercentile(topk_groups, 0.99),
                "ms", note(topk_groups, "open loop"));
    metrics.Add("tail.agg_p99_ms", GroupedPercentile(agg_groups, 0.99), "ms",
                note(agg_groups, agg_source));
  }

  if (!guard_failures.empty()) {
    metrics.PrintTable();
    for (const auto& g : guard_failures) Log("INVALID: " + g);
    return 2;
  }
  if (!metrics.NamesValid()) {
    Log("a metric name is malformed or repeated");
    return 3;
  }
  std::printf("workload %s, seed %llu, %.0f s (%s)\n", spec.name.c_str(),
              static_cast<unsigned long long>(seed), args.seconds,
              args.trace ? "traced" : "untraced");
  metrics.PrintTable();
  // Every answer checked above was right; requests that failed are
  // counted, not hidden.
  std::printf("{\"correct\": true, \"attempted\": %zu, \"failed\": %zu, "
              "\"metrics\": %s}\n",
              attempted, failed, metrics.Json().c_str());
  return 0;
}

}  // namespace
}  // namespace vkg::perfbench

int main(int argc, char** argv) {
  vkg::util::IgnoreSigPipe();
  vkg::perfbench::Args args;
  if (!vkg::perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: vkg_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> | --selftest\n");
    return 2;
  }
  return vkg::perfbench::Run(args);
}
