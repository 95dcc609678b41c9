#ifndef VKG_SERVER_SHARD_H_
#define VKG_SERVER_SHARD_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "query/request.h"
#include "server/health.h"
#include "server/result_cache.h"
#include "util/thread_pool.h"

namespace vkg::server {

class Waiter;  // server.h: a submitter's one-shot completion

/// Per-shard construction knobs (derived from ServerConfig).
struct ShardOptions {
  size_t threads = 1;          // worker pool size
  size_t queue_capacity = 1024;  // max in-flight requests (admit + queued)
  size_t cache_bytes = 0;      // 0 disables this shard's cache segment
  size_t cache_entries = 0;    // 0 = bounded by bytes only
  /// Circuit-breaker thresholds for this shard (DESIGN.md §6h).
  BreakerConfig breaker;
};

/// One worker shard of the query server (DESIGN.md §6g). A shard owns
/// the serving state of the (anchor, relation) slots routed to it, and
/// no index state — every shard computes on the VKG's own engines and
/// its one cracking tree:
///
///  * its own util::ThreadPool (bounded by queue_capacity through the
///    depth accounting below);
///  * one ResultCache segment, stamped with the VKG tree's generation;
///  * one CircuitBreaker;
///  * the in-flight coalescing map: duplicate (h, r, k) requests
///    submitted while an identical computation is pending attach their
///    Waiter to it instead of computing again.
///
/// Thread safety: the depth counters are atomic; the coalescing map and
/// cache are internally locked.
class Shard {
 public:
  Shard(size_t id, const ShardOptions& options);

  size_t id() const { return id_; }
  ResultCache& cache() { return cache_; }
  util::ThreadPool& pool() { return pool_; }
  CircuitBreaker& breaker() { return breaker_; }

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

 private:
  const size_t id_;
  const size_t queue_capacity_;

  ResultCache cache_;
  CircuitBreaker breaker_;

  std::atomic<size_t> depth_{0};
  std::atomic<size_t> peak_depth_{0};

  mutable std::mutex inflight_mu_;
  // key -> followers of the computation in flight under it.
  std::unordered_map<query::QueryKey, std::vector<std::shared_ptr<Waiter>>,
                     query::QueryKeyHash>
      inflight_;

  // Last: destroyed first, so ~ThreadPool runs any backlog while the
  // cache, breaker and coalescing map are still alive.
  util::ThreadPool pool_;
};

}  // namespace vkg::server

#endif  // VKG_SERVER_SHARD_H_
