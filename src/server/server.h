#ifndef VKG_SERVER_SERVER_H_
#define VKG_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "core/virtual_graph.h"
#include "query/request.h"
#include "server/admission.h"
#include "server/health.h"
#include "server/memory.h"
#include "server/result_cache.h"
#include "server/shard.h"
#include "util/deadline.h"
#include "util/status.h"

namespace vkg::server {

/// Configuration of a VkgServer (DESIGN.md §6g).
struct ServerConfig {
  /// Worker shards. Requests route by hash(anchor, relation), so one
  /// (h, r) slot always lands on the same shard — its cache entries and
  /// in-flight computations are local. Every shard computes on the
  /// VKG's one cracking tree.
  size_t shards = 2;
  /// Worker threads per shard (each shard owns its pool).
  size_t threads_per_shard = 1;
  /// Max requests admitted-but-unfinished per shard; past it requests
  /// are rejected with a retry hint instead of queueing unboundedly.
  /// 0 = unbounded.
  size_t queue_capacity = 1024;
  /// Total result-cache budget in bytes, split evenly across shard
  /// segments. 0 disables the cache.
  size_t cache_bytes = 8u << 20;
  /// Optional per-shard entry bound on top of the byte bound (0 = byte
  /// bound only).
  size_t cache_entries = 0;
  /// Per-client admission rate (tokens/second); <= 0 disables rate
  /// limiting. Every request costs one token.
  double qps_limit = 0.0;
  /// Token-bucket burst capacity; <= 0 defaults to max(qps_limit, 1).
  double burst = 0.0;
  /// Retry hint attached to overload (queue-full) rejections.
  double overload_retry_ms = 10.0;
  /// Default per-request resilience limits (overridable per request).
  double default_deadline_ms = 0.0;
  util::ResourceBudget default_budget;
  /// Per-shard circuit-breaker thresholds (DESIGN.md §6h).
  BreakerConfig breaker;
  /// Memory-pressure ladder; budget_bytes == 0 disables tracking (and
  /// its per-submit accounting cost) entirely.
  MemoryBudgetConfig memory;
  /// Fraction of each cache segment's byte bound kept at PressureLevel
  /// kElevated and above (restored in full at kNormal).
  double pressure_cache_keep = 0.5;
  /// Budget forced onto otherwise-unlimited queries at kDegraded+.
  /// Left unlimited, a 4096-point budget is applied.
  util::ResourceBudget pressure_budget;
  /// Estimated bytes of in-flight state per queued request, charged
  /// against memory.budget_bytes alongside cache residency.
  size_t pressure_request_bytes = 64u << 10;
};

/// Point-in-time serving statistics (exact, unlike the sharded obs
/// counters these are single atomics — test- and gate-friendly).
struct ServerStats {
  uint64_t requests = 0;
  uint64_t admitted = 0;
  uint64_t rejected_rate = 0;      // admission-control rejections
  uint64_t rejected_overload = 0;  // shard-queue-full rejections
  uint64_t rejected_breaker = 0;   // circuit-breaker fast-fails
  uint64_t rejected_shed = 0;      // memory-pressure shedding
  uint64_t rejected_shutdown = 0;  // submitted after Stop()
  uint64_t invalid = 0;            // failed validation
  uint64_t coalesced = 0;          // attached to an in-flight duplicate
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  uint64_t cache_invalidated = 0;  // generation-stamp evictions
  uint64_t computed_topk = 0;      // actual engine computations
  uint64_t computed_aggregate = 0;
  /// Requests whose deadline expired while still queued: failed with
  /// kDeadlineExceeded, never handed to an engine (DESIGN.md §6h).
  uint64_t expired_in_queue = 0;
  /// Coalesced followers whose own deadline expired before the shared
  /// computation resolved (the leader still finishes and populates the
  /// cache).
  uint64_t expired_waiting = 0;
  /// Requests forced into budgeted mode by memory pressure.
  uint64_t pressure_degraded = 0;
  /// Crack generation of the VKG's tree: the stamp every cache segment
  /// is checked against.
  uint64_t generation = 0;

  struct ShardView {
    size_t shard = 0;
    size_t depth = 0;
    size_t peak_depth = 0;
    size_t in_flight = 0;
    ResultCache::Stats cache;
    CircuitBreaker::Stats breaker;
  };
  std::vector<ShardView> shards;
  MemoryBudget::Stats memory;
};

/// Receives one submitted request's response (VkgServer::Submit).
using Completion = std::function<void(query::ServerResponse)>;

/// One submitter's completion, resolved exactly once: by the shared
/// computation's result, or — for a coalesced follower — by its own
/// deadline, whichever comes first; the second is a no-op.
class Waiter {
 public:
  Waiter(Completion done, util::Deadline deadline, size_t shard)
      : deadline_(deadline), shard_(shard), done_(std::move(done)) {}

  /// Runs the completion with `response`, unless already resolved.
  void Resolve(query::ServerResponse response);
  /// Resolves kDeadlineExceeded and counts it in `expired_waiting`,
  /// unless already resolved.
  void Expire(std::atomic<uint64_t>& expired_waiting);

  bool resolved() const { return resolved_.load(std::memory_order_acquire); }
  const util::Deadline& deadline() const { return deadline_; }
  size_t shard() const { return shard_; }

 private:
  const util::Deadline deadline_;
  const size_t shard_;
  Completion done_;
  std::atomic<bool> resolved_{false};
};

/// The long-running, in-process query front end over a
/// VirtualKnowledgeGraph (DESIGN.md §6g): converts the library into a
/// service. A request travels
///
///   Submit -> shutdown check -> admission (token bucket per client)
///          -> memory pressure (shed lowest priority at kShedding)
///          -> route (hash(anchor, relation) -> shard) -> validate
///          -> backpressure (bounded shard depth)
///          -> result cache (generation-checked; hits bypass the
///             breaker — an Open shard still serves cached results)
///          -> circuit breaker (Open shards fast-fail compute-bound
///             work, DESIGN.md §6h)
///          -> coalesce (attach to identical in-flight computation)
///          -> shard worker pool -> queue-expiry check -> engine
///             compute (absolute deadline stamped at admission)
///             -> cache store -> breaker outcome
///
/// and every early exit (rejection, cache hit, validation error) runs
/// the completion inline, on the caller's thread. All submission-side
/// steps run there too; only the actual computation runs on the owning
/// shard's pool, which also runs the completion (and those of coalesced
/// followers). Safe for concurrent Submit/Execute from any number of
/// threads.
///
/// Every shard computes on the VKG's own engines and its one cracking
/// tree, read from the VKG on every request. The server holds shared
/// ownership of the VKG; callers must not run LoadIndex on it while the
/// server is serving (it replaces the tree and engines that workers read
/// lock-free, and a reloaded tree restarts the generation the cache
/// stamps are checked against).
class VkgServer {
 public:
  static util::Result<std::unique_ptr<VkgServer>> Create(
      std::shared_ptr<core::VirtualKnowledgeGraph> vkg,
      const ServerConfig& config);

  ~VkgServer();
  VkgServer(const VkgServer&) = delete;
  VkgServer& operator=(const VkgServer&) = delete;

  /// Submits one request and calls `done` exactly once with its
  /// response (DESIGN.md §6g): inline, before Submit returns, for
  /// rejections, validation errors and cache hits; on the shard worker
  /// for computed results and for the coalesced followers of one. A
  /// follower with a finite deadline is resolved kDeadlineExceeded by
  /// ExpireWaiting (or Ticket::Get) once that deadline passes, if the
  /// leader has not answered it by then. `done` must not block; the
  /// `server.shard_dispatch` failpoint's delay action stalls the caller.
  void Submit(query::ServerRequest request, Completion done);

  /// Handle to one submitted request, for in-process callers: a promise
  /// resolved by the completion. Get() blocks until the response is
  /// available (immediately for rejections, cache hits, and validation
  /// errors) and may be called once per ticket from any thread;
  /// requesters coalesced onto a shared computation each get their own
  /// copy with their own serving metadata.
  class Ticket {
   public:
    Ticket() = default;
    /// For coalesced followers with a finite deadline, Get() waits at
    /// most until that deadline: a follower inherits the leader's
    /// result only if its own deadline still permits, and otherwise
    /// resolves to kDeadlineExceeded while the leader finishes (and
    /// populates the cache) on its own time.
    query::ServerResponse Get();

   private:
    friend class VkgServer;
    std::shared_future<query::ServerResponse> future_;
    /// Set for coalesced followers with a finite deadline only.
    std::shared_ptr<Waiter> waiter_;
    /// Owned by the server's Stats block; shared so an expired wait can
    /// be counted even if the server object is gone by then.
    std::shared_ptr<std::atomic<uint64_t>> expired_waiting_;
  };

  /// Submit with a Ticket instead of a completion.
  Ticket Submit(query::ServerRequest request);

  /// Synchronous convenience form: Submit + Get.
  query::ServerResponse Execute(query::ServerRequest request);

  /// Resolves kDeadlineExceeded every coalesced follower whose own
  /// deadline has passed while its leader is still computing. One
  /// atomic load when none is waiting; an event loop calls it per tick.
  void ExpireWaiting();

  /// Shard owning `query`'s (anchor, relation) slot.
  size_t ShardOf(const data::Query& query) const;
  size_t num_shards() const { return shards_.size(); }

  /// The cache-invalidation stamp `shard` checks against: the crack
  /// generation of the VKG's tree, one counter shared by every shard.
  uint64_t ShardGeneration(size_t shard) const;

  /// The cache/coalescing key `request` computes under (tests, benches).
  query::QueryKey MakeKey(const query::ServerRequest& request) const;

  /// Blocks until every enqueued computation has finished.
  void Drain();

  /// Graceful shutdown: rejects new submissions with kUnavailable,
  /// resolves every queued/coalesced request (queued work past this
  /// point fails fast with kUnavailable instead of computing), and
  /// returns once all shard pools are idle. Idempotent; also run by the
  /// destructor, so no completion is ever abandoned.
  void Stop();
  bool stopping() const {
    return stopping_.load(std::memory_order_relaxed);
  }

  /// Current rung of the memory-pressure ladder (DESIGN.md §6h).
  PressureLevel memory_pressure() const { return memory_budget_.level(); }
  /// The pressure tracker itself (tests pin usage via
  /// SetUsageOverride; the next Submit applies the resulting level).
  MemoryBudget& memory_budget() { return memory_budget_; }
  /// One shard's breaker (tests and diagnostics).
  CircuitBreaker& shard_breaker(size_t shard) {
    return shards_[shard]->breaker();
  }

  ServerStats Stats() const;

  /// Mirrors the generation and per-shard depth/cache gauges into the
  /// global obs registry (vkg_server_*; cold path, call before scraping).
  void PublishStats() const;

  const ServerConfig& config() const { return config_; }
  const core::VirtualKnowledgeGraph& vkg() const { return *vkg_; }

 private:
  VkgServer(std::shared_ptr<core::VirtualKnowledgeGraph> vkg,
            const ServerConfig& config);

  /// Submit's body; stores a deadline-bounded follower's Waiter into
  /// `*bounded_follower` when that is non-null (Ticket::Get's bound).
  void SubmitImpl(query::ServerRequest request, Completion done,
                  std::shared_ptr<Waiter>* bounded_follower);

  /// Shard-worker half of the request path: observes queue wait,
  /// expires still-queued requests past their deadline (never
  /// computing them), runs the VKG's engine with the absolute deadline,
  /// stores an exact top-k answer in the shard's cache segment, and
  /// feeds the outcome to the shard's breaker. `key` is null for
  /// aggregates (no cache/coalescing).
  query::ServerResponse ComputeOnWorker(Shard& shard,
                                        const query::ServerRequest& request,
                                        const query::QueryKey* key,
                                        util::Deadline deadline,
                                        util::Deadline::Clock::time_point
                                            admit_time,
                                        bool pressure_degrade);

  /// Crack generation of the VKG's tree: every cache stamp.
  uint64_t Generation() const { return vkg_->rtree().crack_generation(); }

  /// Eagerly sweeps every cache segment once per generation bump; a
  /// cheap no-op otherwise (Lookup's stamp check guards every read).
  void SweepStaleCacheEntries();

  /// Re-measures usage (cache residency + queue-depth estimate),
  /// updates the pressure level, and applies reversible transitions
  /// (cache shrink/restore). No-op when memory.budget_bytes == 0.
  void RefreshMemoryPressure();

  std::shared_ptr<core::VirtualKnowledgeGraph> vkg_;
  ServerConfig config_;
  uint64_t opts_hash_ = 0;
  AdmissionController admission_;
  std::vector<std::unique_ptr<Shard>> shards_;
  size_t cache_segment_bytes_ = 0;  // per-shard byte bound at kNormal
  /// Budget forced onto otherwise-unlimited queries at kDegraded+.
  util::ResourceBudget pressure_budget_;
  std::atomic<uint64_t> swept_generation_{0};
  MemoryBudget memory_budget_;

  std::atomic<bool> stopping_{false};
  std::mutex pressure_mu_;  // serializes ApplyPressure transitions
  PressureLevel applied_pressure_ = PressureLevel::kNormal;

  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> admitted_{0};
  std::atomic<uint64_t> rejected_rate_{0};
  std::atomic<uint64_t> rejected_overload_{0};
  std::atomic<uint64_t> rejected_breaker_{0};
  std::atomic<uint64_t> rejected_shed_{0};
  std::atomic<uint64_t> rejected_shutdown_{0};
  std::atomic<uint64_t> invalid_{0};
  std::atomic<uint64_t> coalesced_{0};
  std::atomic<uint64_t> computed_topk_{0};
  std::atomic<uint64_t> computed_aggregate_{0};
  std::atomic<uint64_t> expired_in_queue_{0};
  std::atomic<uint64_t> pressure_degraded_{0};
  std::shared_ptr<std::atomic<uint64_t>> expired_waiting_ =
      std::make_shared<std::atomic<uint64_t>>(0);

  /// Coalesced followers with a finite deadline, for ExpireWaiting.
  /// Resolved entries are compacted away on the next register or sweep.
  std::mutex waiting_mu_;
  std::vector<std::shared_ptr<Waiter>> waiting_;  // guarded by waiting_mu_
  std::atomic<size_t> waiting_count_{0};          // waiting_.size()
};

}  // namespace vkg::server

#endif  // VKG_SERVER_SERVER_H_
