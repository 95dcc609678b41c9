#include "server/shard.h"

#include <exception>
#include <string>
#include <utility>

#include "util/string_util.h"

namespace vkg::server {

Shard::Shard(size_t id, const core::VirtualKnowledgeGraph& vkg,
             const ShardOptions& options)
    : id_(id),
      options_(options),
      cache_(options.cache_bytes, options.cache_entries),
      breaker_(options.breaker) {
  // Each shard cracks its own tree over the shared (immutable) S2
  // points: queries routed here refine only this tree, so shards never
  // contend on a crack mutex and this tree's generation is exactly
  // "publications caused by this shard's traffic".
  tree_ = std::make_unique<index::CrackingRTree>(&vkg.points_s2(),
                                                 vkg.options().rtree);
  topk_engine_ = std::make_unique<query::RTreeTopKEngine>(
      &vkg.graph(), &vkg.embeddings(), &vkg.jl(), tree_.get(),
      vkg.options().eps,
      /*crack_after_query=*/true, util::StrFormat("server-shard-%zu", id));
  aggregate_engine_ = std::make_unique<query::AggregateEngine>(
      &vkg.graph(), &vkg.embeddings(), &vkg.jl(), tree_.get(),
      vkg.options().eps,
      /*crack_after_query=*/true);
  pool_ = std::make_unique<util::ThreadPool>(
      options.threads == 0 ? 1 : options.threads);
}

bool Shard::TryReserveSlot() {
  size_t cur = depth_.load(std::memory_order_relaxed);
  while (true) {
    if (options_.queue_capacity > 0 && cur >= options_.queue_capacity) {
      return false;
    }
    if (depth_.compare_exchange_weak(cur, cur + 1,
                                     std::memory_order_relaxed)) {
      break;
    }
  }
  size_t peak = peak_depth_.load(std::memory_order_relaxed);
  while (peak < cur + 1 && !peak_depth_.compare_exchange_weak(
                               peak, cur + 1, std::memory_order_relaxed)) {
  }
  return true;
}

void Shard::ReleaseSlot() {
  depth_.fetch_sub(1, std::memory_order_relaxed);
}

bool Shard::JoinOrRegister(const query::QueryKey& key,
                           const std::shared_ptr<Waiter>& follower) {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  auto [it, inserted] = inflight_.try_emplace(key);
  if (!inserted) it->second.push_back(follower);
  return inserted;
}

std::vector<std::shared_ptr<Waiter>> Shard::FinishInFlight(
    const query::QueryKey& key) {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  auto it = inflight_.find(key);
  if (it == inflight_.end()) return {};
  std::vector<std::shared_ptr<Waiter>> followers = std::move(it->second);
  inflight_.erase(it);
  return followers;
}

size_t Shard::in_flight() const {
  std::lock_guard<std::mutex> lock(inflight_mu_);
  return inflight_.size();
}

namespace {

// One reusable context per worker thread: shard pools own their
// threads, so a context never serves two shards, and
// ApplyRequestControl rearms deadline/budget per request.
query::QueryContext& WorkerContext() {
  thread_local query::QueryContext ctx;
  return ctx;
}

// Memory pressure forces a budget only onto queries that would
// otherwise run unlimited: an explicit request/server budget is already
// bounded and is never loosened *or* tightened behind the caller's back.
bool ForcePressureBudget(const util::ResourceBudget& pressure_budget,
                         query::QueryContext& ctx) {
  if (!ctx.control().budget().Unlimited()) return false;
  ctx.control().set_budget(pressure_budget);
  return true;
}

}  // namespace

query::ServerResponse Shard::ComputeTopK(const query::ServerRequest& request,
                                         const query::QueryKey& key,
                                         util::Deadline deadline,
                                         bool pressure_degrade) {
  query::ServerResponse response;
  response.meta.shard = id_;
  try {
    query::QueryContext& ctx = WorkerContext();
    query::ApplyRequestControlAbsolute(request, deadline,
                                       options_.default_budget, ctx);
    if (pressure_degrade) {
      response.meta.degraded_by_pressure =
          ForcePressureBudget(options_.pressure_budget, ctx);
    }
    response.topk = topk_engine_->TopKQuery(request.query, request.k, ctx);
    // Stamp with the generation current at completion. The query's own
    // crack (if any) published *before* this read, so the entry is
    // fresh unless a later publication bumps the generation — at which
    // point the invalidation contract retires it.
    response.meta.generation = tree_->crack_generation();
    response.status = util::Status::OK();
    cache_.Store(key, response.topk, response.meta.generation);
    SweepStaleCacheEntries();
  } catch (const std::bad_alloc&) {
    response.status =
        util::Status::ResourceExhausted("allocation failed during top-k");
  } catch (const std::exception& e) {
    response.status = util::Status::Internal(
        util::StrFormat("top-k computation failed: %s", e.what()));
  }
  return response;
}

query::ServerResponse Shard::ComputeAggregate(
    const query::ServerRequest& request, util::Deadline deadline,
    bool pressure_degrade) {
  query::ServerResponse response;
  response.meta.shard = id_;
  try {
    query::QueryContext& ctx = WorkerContext();
    query::ApplyRequestControlAbsolute(request, deadline,
                                       options_.default_budget, ctx);
    if (pressure_degrade) {
      response.meta.degraded_by_pressure =
          ForcePressureBudget(options_.pressure_budget, ctx);
    }
    util::Result<query::AggregateResult> result =
        aggregate_engine_->Aggregate(request.aggregate, ctx);
    response.meta.generation = tree_->crack_generation();
    if (result.ok()) {
      response.aggregate = std::move(result).value();
      response.status = util::Status::OK();
    } else {
      response.status = result.status();
    }
    SweepStaleCacheEntries();
  } catch (const std::bad_alloc&) {
    response.status = util::Status::ResourceExhausted(
        "allocation failed during aggregate");
  } catch (const std::exception& e) {
    response.status = util::Status::Internal(
        util::StrFormat("aggregate computation failed: %s", e.what()));
  }
  return response;
}

void Shard::SweepStaleCacheEntries() {
  const uint64_t current = tree_->crack_generation();
  uint64_t seen = swept_generation_.load(std::memory_order_relaxed);
  if (seen == current) return;
  // One sweeper per bump is enough; racers that lose simply skip (the
  // lazy Lookup check still guards every read).
  if (!swept_generation_.compare_exchange_strong(
          seen, current, std::memory_order_relaxed)) {
    return;
  }
  cache_.InvalidateStale(current);
}

}  // namespace vkg::server
