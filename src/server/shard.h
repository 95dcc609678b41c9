#ifndef VKG_SERVER_SHARD_H_
#define VKG_SERVER_SHARD_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "core/virtual_graph.h"
#include "index/cracking_rtree.h"
#include "query/aggregate_engine.h"
#include "query/request.h"
#include "query/topk_engine.h"
#include "server/health.h"
#include "server/result_cache.h"
#include "util/deadline.h"
#include "util/thread_pool.h"

namespace vkg::server {

class Waiter;  // server.h: a submitter's one-shot completion

/// Per-shard construction knobs (derived from ServerConfig).
struct ShardOptions {
  size_t threads = 1;          // worker pool size
  size_t queue_capacity = 1024;  // max in-flight requests (admit + queued)
  size_t cache_bytes = 0;      // 0 disables this shard's cache segment
  size_t cache_entries = 0;    // 0 = bounded by bytes only
  double default_deadline_ms = 0.0;
  util::ResourceBudget default_budget;
  /// Circuit-breaker thresholds for this shard (DESIGN.md §6h).
  BreakerConfig breaker;
  /// Budget forced onto otherwise-unlimited queries at PressureLevel
  /// kDegraded and above.
  util::ResourceBudget pressure_budget;
};

/// One worker shard of the query server (DESIGN.md §6g). A shard owns
/// everything a request needs after routing:
///
///  * its *own* CrackingRTree over the VKG's shared S2 point set, plus
///    top-k and aggregate engines bound to it — shards crack
///    independently, so two shards never contend on a crack mutex and a
///    shard's crack generation moves only when *its* queries crack;
///  * its own util::ThreadPool (bounded by queue_capacity through the
///    server's depth accounting);
///  * one ResultCache segment, invalidated by this tree's generation;
///  * the in-flight coalescing map: duplicate (h, r, k) requests
///    submitted while an identical computation is pending attach their
///    Waiter to it instead of computing again.
///
/// Thread safety: Compute* run on pool workers (thread-local
/// QueryContext per worker); the coalescing map and cache are
/// internally locked; the tree is lock-free for readers and serializes
/// its own cracks.
class Shard {
 public:
  Shard(size_t id, const core::VirtualKnowledgeGraph& vkg,
        const ShardOptions& options);

  size_t id() const { return id_; }
  uint64_t generation() const { return tree_->crack_generation(); }
  const query::TopKEngine& topk_engine() const { return *topk_engine_; }
  ResultCache& cache() { return cache_; }
  util::ThreadPool& pool() { return *pool_; }
  CircuitBreaker& breaker() { return breaker_; }
  index::IndexStats TreeStats() const { return tree_->Stats(); }

  // --- Depth accounting (the server's backpressure bound) -----------------

  /// Claims a queue slot; false when the shard is at capacity (the
  /// request must be rejected, not queued).
  bool TryReserveSlot();
  void ReleaseSlot();
  size_t depth() const { return depth_.load(std::memory_order_relaxed); }
  size_t peak_depth() const {
    return peak_depth_.load(std::memory_order_relaxed);
  }

  // --- Coalescing ---------------------------------------------------------

  /// Registers `key` as in flight and returns true when no identical
  /// computation is pending: the caller leads, enqueues the compute task
  /// and later calls FinishInFlight. Otherwise attaches `follower` to
  /// the pending computation and returns false.
  bool JoinOrRegister(const query::QueryKey& key,
                      const std::shared_ptr<Waiter>& follower);

  /// Unregisters `key` and hands back its followers (leader side,
  /// before resolving anyone).
  std::vector<std::shared_ptr<Waiter>> FinishInFlight(
      const query::QueryKey& key);
  size_t in_flight() const;

  // --- Compute (worker-thread side) ---------------------------------------

  /// Answers a top-k request on this shard's engine, stamps the
  /// response with the tree generation current at completion, and
  /// populates the cache under `key` (exact results only). `deadline`
  /// is the request's *absolute* end-to-end deadline (stamped at
  /// admission — queue wait has already burned part of it);
  /// `pressure_degrade` forces the shard's pressure budget onto
  /// otherwise-unlimited queries (DESIGN.md §6h).
  query::ServerResponse ComputeTopK(const query::ServerRequest& request,
                                    const query::QueryKey& key,
                                    util::Deadline deadline,
                                    bool pressure_degrade);

  /// Answers an aggregate request (not cached or coalesced).
  query::ServerResponse ComputeAggregate(const query::ServerRequest& request,
                                         util::Deadline deadline,
                                         bool pressure_degrade);

  /// Eagerly sweeps this shard's cache segment when the tree generation
  /// moved past the last observed one. Cheap no-op otherwise.
  void SweepStaleCacheEntries();

 private:
  const size_t id_;
  const ShardOptions options_;

  std::unique_ptr<index::CrackingRTree> tree_;
  std::unique_ptr<query::RTreeTopKEngine> topk_engine_;
  std::unique_ptr<query::AggregateEngine> aggregate_engine_;
  std::unique_ptr<util::ThreadPool> pool_;
  ResultCache cache_;
  CircuitBreaker breaker_;

  std::atomic<size_t> depth_{0};
  std::atomic<size_t> peak_depth_{0};
  std::atomic<uint64_t> swept_generation_{0};

  mutable std::mutex inflight_mu_;
  // key -> followers of the computation in flight under it.
  std::unordered_map<query::QueryKey, std::vector<std::shared_ptr<Waiter>>,
                     query::QueryKeyHash>
      inflight_;
};

}  // namespace vkg::server

#endif  // VKG_SERVER_SHARD_H_
