#include "server/chaos.h"

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <thread>
#include <utility>

#include "util/failpoint.h"
#include "util/string_util.h"

namespace vkg::server {

namespace {

// The one place the storm's randomized schedules come from: every site
// gets a fresh COUNT*ACTION sequence each round, ending in a bare
// `off` so exhausted sequences pass instead of sticking.
std::string RandomSchedule(util::Rng& rng, bool worker_site,
                           double max_delay_ms) {
  std::string spec;
  const size_t segments = 1 + rng.UniformIndex(4);
  for (size_t s = 0; s < segments; ++s) {
    const size_t count = 1 + rng.UniformIndex(12);
    spec += util::StrFormat("%zu*", count);
    const double roll = rng.Uniform();
    if (roll < 0.55) {
      spec += "off";
    } else if (roll < 0.80) {
      spec += "fail";
    } else if (worker_site && roll < 0.90) {
      spec += util::StrFormat("timeout(%.2f)",
                              rng.Uniform(0.1, max_delay_ms));
    } else {
      spec += util::StrFormat("delay(%.2f)",
                              rng.Uniform(0.1, max_delay_ms));
    }
    spec += ",";
  }
  spec += "off";
  return spec;
}

uint64_t SumTrips(const ServerStats& stats) {
  uint64_t trips = 0;
  for (const auto& shard : stats.shards) trips += shard.breaker.trips;
  return trips;
}

uint64_t SumRecoveries(const ServerStats& stats) {
  uint64_t recoveries = 0;
  for (const auto& shard : stats.shards) {
    recoveries += shard.breaker.recoveries;
  }
  return recoveries;
}

}  // namespace

std::vector<std::string> AllChaosSites() {
  return {"server.admit",  "server.cache",   "server.shard_dispatch",
          "server.queue",  "cracking.split", "cracking.publish",
          "alloc.scratch", "alloc.arena"};
}

std::vector<ChaosOracle> BuildChaosOracle(
    VkgServer& server, const std::vector<query::ServerRequest>& slots) {
  std::vector<ChaosOracle> oracle(slots.size());
  for (size_t i = 0; i < slots.size(); ++i) {
    query::ServerRequest req = slots[i];
    req.deadline_ms = 0.0;
    req.budget = util::ResourceBudget{};
    req.bypass_cache = true;
    req.priority = 1;
    query::ServerResponse r = server.Execute(std::move(req));
    if (!r.ok()) continue;
    oracle[i].valid = true;
    if (slots[i].kind == query::RequestKind::kAggregate) {
      oracle[i].is_aggregate = true;
      oracle[i].aggregate_value = r.aggregate.value;
      oracle[i].aggregate_exact = r.aggregate.quality.exact;
    } else {
      oracle[i].topk = r.topk;
    }
  }
  return oracle;
}

bool MatchesOracle(const query::ServerResponse& got, const ChaosOracle& want) {
  if (want.is_aggregate) {
    if (!got.aggregate.quality.exact || !want.aggregate_exact) return true;
    const double tol =
        1e-9 * std::max(1.0, std::abs(want.aggregate_value));
    if (std::abs(got.aggregate.value - want.aggregate_value) > tol) {
      std::fprintf(stderr, "chaos mismatch: aggregate got=%.12f want=%.12f\n",
                   got.aggregate.value, want.aggregate_value);
      return false;
    }
    return true;
  }
  if (!got.topk.quality.exact || !want.topk.quality.exact) return true;
  if (got.topk.hits.size() != want.topk.hits.size()) {
    std::fprintf(stderr, "chaos mismatch: topk size got=%zu want=%zu\n",
                 got.topk.hits.size(), want.topk.hits.size());
    return false;
  }
  for (size_t h = 0; h < got.topk.hits.size(); ++h) {
    if (got.topk.hits[h].entity != want.topk.hits[h].entity ||
        std::abs(got.topk.hits[h].distance - want.topk.hits[h].distance) >
            1e-9) {
      std::fprintf(stderr,
                   "chaos mismatch: topk hit %zu got=%llu/%.12f "
                   "want=%llu/%.12f\n",
                   h,
                   static_cast<unsigned long long>(got.topk.hits[h].entity),
                   got.topk.hits[h].distance,
                   static_cast<unsigned long long>(want.topk.hits[h].entity),
                   want.topk.hits[h].distance);
      return false;
    }
  }
  return true;
}

bool ChaosReport::Passed(const ChaosConfig& config) const {
  if (resolved != submitted) return false;
  if (mismatches != 0) return false;
  if (config.breaker_phase && !(breaker_tripped && breaker_recovered)) {
    return false;
  }
  if (config.expiry_phase &&
      !(expiry_observed && expired_in_queue >= 1)) {
    return false;
  }
  if (config.shutdown_phase && !shutdown_clean) return false;
  return true;
}

std::string ChaosReport::ToString() const {
  return util::StrFormat(
      "submitted=%zu resolved=%zu ok=%zu rejected=%zu failed=%zu "
      "deadline=%zu unavailable=%zu mismatches=%zu trips=%llu "
      "recoveries=%llu expired_in_queue=%llu tripped=%d recovered=%d "
      "expiry=%d shutdown_clean=%d",
      submitted, resolved, ok, rejected, failed, deadline, unavailable,
      mismatches, static_cast<unsigned long long>(breaker_trips),
      static_cast<unsigned long long>(breaker_recoveries),
      static_cast<unsigned long long>(expired_in_queue),
      breaker_tripped ? 1 : 0, breaker_recovered ? 1 : 0,
      expiry_observed ? 1 : 0, shutdown_clean ? 1 : 0);
}

ChaosReport RunChaosCampaign(
    VkgServer& server, const std::vector<query::ServerRequest>& slots,
    const ChaosConfig& config) {
  ChaosReport report;
  if (slots.empty()) return report;
  util::FailPointRegistry& registry = util::FailPointRegistry::Instance();
  registry.Clear();

  // --- Oracle pass (sequential, fault-free, unlimited) --------------------
  const std::vector<ChaosOracle> oracle = BuildChaosOracle(server, slots);

  // --- Phase 1: randomized multi-client storm -----------------------------
  std::atomic<size_t> submitted{0};
  std::atomic<size_t> resolved{0};
  std::atomic<size_t> count_ok{0};
  std::atomic<size_t> count_rejected{0};
  std::atomic<size_t> count_failed{0};
  std::atomic<size_t> count_deadline{0};
  std::atomic<size_t> count_unavailable{0};
  std::atomic<size_t> count_mismatch{0};

  // `slot >= oracle.size()` opts out of the differential check (used
  // for phase-3 blockers whose k was perturbed to defeat coalescing).
  auto classify = [&](const query::ServerResponse& r, size_t slot) {
    resolved.fetch_add(1, std::memory_order_relaxed);
    if (r.ok()) {
      count_ok.fetch_add(1, std::memory_order_relaxed);
      if (slot < oracle.size() && oracle[slot].valid &&
          !MatchesOracle(r, oracle[slot])) {
        count_mismatch.fetch_add(1, std::memory_order_relaxed);
      }
      return;
    }
    switch (r.status.code()) {
      case util::StatusCode::kResourceExhausted:
        count_rejected.fetch_add(1, std::memory_order_relaxed);
        break;
      case util::StatusCode::kDeadlineExceeded:
        count_deadline.fetch_add(1, std::memory_order_relaxed);
        break;
      case util::StatusCode::kUnavailable:
        count_unavailable.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        count_failed.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  };

  const size_t rounds = std::max<size_t>(config.rounds, 1);
  const size_t clients = std::max<size_t>(config.clients, 1);
  const size_t per_thread =
      (config.requests + rounds * clients - 1) / (rounds * clients);
  const std::vector<std::string> sites = AllChaosSites();
  util::Rng arm_rng(config.seed);
  for (size_t round = 0; round < rounds; ++round) {
    for (const std::string& site : sites) {
      // `server.queue` runs on workers, where timeout = slow-then-
      // broken shard; submit-side sites only delay or fail.
      (void)registry.ConfigureSite(
          site, RandomSchedule(arm_rng, site == "server.queue",
                               config.max_delay_ms));
    }
    std::vector<std::thread> storm;
    storm.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      storm.emplace_back([&, c, round] {
        util::Rng rng(config.seed ^ (0x9e3779b97f4a7c15ULL * (c + 1)) ^
                      (round * 1000003ULL));
        std::vector<std::pair<VkgServer::Ticket, size_t>> batch;
        batch.reserve(8);
        for (size_t i = 0; i < per_thread; ++i) {
          const size_t slot = rng.UniformIndex(slots.size());
          query::ServerRequest req = slots[slot];
          req.client_id = util::StrFormat("chaos-%zu", c);
          req.bypass_cache = rng.Bernoulli(0.2);
          req.priority = rng.Bernoulli(0.5) ? 1 : 0;
          if (rng.Bernoulli(config.deadline_fraction)) {
            req.deadline_ms = config.deadline_ms;
          }
          submitted.fetch_add(1, std::memory_order_relaxed);
          batch.emplace_back(server.Submit(std::move(req)), slot);
          if (batch.size() >= 8) {
            for (auto& [ticket, s] : batch) classify(ticket.Get(), s);
            batch.clear();
          }
        }
        for (auto& [ticket, s] : batch) classify(ticket.Get(), s);
      });
    }
    for (std::thread& t : storm) t.join();
    server.Drain();
  }
  registry.Clear();
  server.Drain();

  // --- Phase 2: deterministic breaker trip + recovery ---------------------
  // Pick a top-k slot; drive its shard's breaker with hard worker
  // faults, then probe it back to Closed with the faults disarmed.
  size_t probe_slot = slots.size();
  for (size_t i = 0; i < slots.size(); ++i) {
    if (slots[i].kind == query::RequestKind::kTopK && oracle[i].valid) {
      probe_slot = i;
      break;
    }
  }
  if (config.breaker_phase && probe_slot < slots.size()) {
    const size_t target =
        server.ShardOf(slots[probe_slot].routing_query());
    const BreakerConfig& breaker = server.config().breaker;
    auto probe = [&]() {
      query::ServerRequest req = slots[probe_slot];
      req.bypass_cache = true;
      req.priority = 1;
      submitted.fetch_add(1, std::memory_order_relaxed);
      query::ServerResponse r = server.Execute(std::move(req));
      classify(r, probe_slot);
      return r;
    };
    (void)registry.ConfigureSite("server.queue", "fail");
    for (int i = 0; i < breaker.failure_threshold; ++i) probe();
    registry.Clear();
    report.breaker_tripped =
        server.shard_breaker(target).state() == BreakerState::kOpen;
    // Recovery: wait out the cool-down, then feed probe successes until
    // the breaker closes (bounded so a broken state machine cannot hang
    // the campaign).
    std::this_thread::sleep_for(std::chrono::duration<double>(
        breaker.open_seconds + 0.05));
    for (int i = 0; i < 50 * breaker.half_open_successes; ++i) {
      if (server.shard_breaker(target).state() == BreakerState::kClosed) {
        break;
      }
      probe();
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    report.breaker_recovered =
        server.shard_breaker(target).state() == BreakerState::kClosed;
  }

  // --- Phase 3: deterministic queue expiry --------------------------------
  // Blockers (same routing slot, distinct k => distinct keys, no
  // coalescing) occupy every worker of one shard inside a long
  // `server.queue` delay; a short-deadline victim queued behind them
  // must be expired, never computed.
  if (config.expiry_phase && probe_slot < slots.size()) {
    server.Drain();
    const size_t workers =
        std::max<size_t>(server.config().threads_per_shard, 1);
    (void)registry.ConfigureSite(
        "server.queue", util::StrFormat("%zu*delay(150),off", workers));
    std::vector<VkgServer::Ticket> blockers;
    for (size_t b = 0; b < workers; ++b) {
      query::ServerRequest req = slots[probe_slot];
      req.bypass_cache = true;
      req.priority = 1;
      req.k = slots[probe_slot].k + 1 + b;
      submitted.fetch_add(1, std::memory_order_relaxed);
      blockers.push_back(server.Submit(std::move(req)));
    }
    query::ServerRequest victim = slots[probe_slot];
    victim.bypass_cache = true;
    victim.priority = 1;
    victim.deadline_ms = 25.0;
    submitted.fetch_add(1, std::memory_order_relaxed);
    VkgServer::Ticket victim_ticket = server.Submit(std::move(victim));
    query::ServerResponse vr = victim_ticket.Get();
    classify(vr, probe_slot);
    report.expiry_observed =
        vr.status.code() == util::StatusCode::kDeadlineExceeded &&
        vr.meta.expired_in_queue;
    for (auto& ticket : blockers) classify(ticket.Get(), oracle.size());
    registry.Clear();
  }

  // --- Phase 4: shutdown storm --------------------------------------------
  // Queue a burst behind slowed workers, Stop() immediately, and prove
  // every outstanding ticket still resolves definitively.
  if (config.shutdown_phase) {
    (void)registry.ConfigureSite("server.queue", "delay(2)");
    std::vector<std::pair<VkgServer::Ticket, size_t>> tail;
    for (size_t i = 0; i < 64; ++i) {
      const size_t slot = i % slots.size();
      query::ServerRequest req = slots[slot];
      req.bypass_cache = true;
      req.priority = 1;
      submitted.fetch_add(1, std::memory_order_relaxed);
      tail.emplace_back(server.Submit(std::move(req)), slot);
    }
    server.Stop();
    for (auto& [ticket, s] : tail) classify(ticket.Get(), s);
    report.shutdown_clean = true;  // reaching here = no ticket hung
    registry.Clear();
  }

  const ServerStats stats = server.Stats();
  report.submitted = submitted.load();
  report.resolved = resolved.load();
  report.ok = count_ok.load();
  report.rejected = count_rejected.load();
  report.failed = count_failed.load();
  report.deadline = count_deadline.load();
  report.unavailable = count_unavailable.load();
  report.mismatches = count_mismatch.load();
  report.breaker_trips = SumTrips(stats);
  report.breaker_recoveries = SumRecoveries(stats);
  report.expired_in_queue = stats.expired_in_queue;
  return report;
}

}  // namespace vkg::server
