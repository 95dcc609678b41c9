#ifndef VKG_QUERY_REQUEST_H_
#define VKG_QUERY_REQUEST_H_

#include <cstddef>
#include <cstdint>
#include <string>

#include "data/workload.h"
#include "query/aggregate_engine.h"
#include "query/query_context.h"
#include "query/topk_engine.h"
#include "util/deadline.h"
#include "util/status.h"

namespace vkg::query {

/// Request/response vocabulary of the in-process query server
/// (server::VkgServer, DESIGN.md §6g). Lives in query/ rather than
/// server/ so engines, benches, and alternative front ends (a future
/// wire protocol) share one set of structs without depending on the
/// server implementation.

enum class RequestKind : uint8_t { kTopK = 0, kAggregate = 1 };

std::string_view RequestKindName(RequestKind kind);

/// One client request. `client_id` names the admission-control
/// principal (empty = the anonymous default client); per-request
/// deadline/budget override the server defaults when set.
struct ServerRequest {
  std::string client_id;
  RequestKind kind = RequestKind::kTopK;

  /// Top-k form: anchor/relation/direction plus k.
  data::Query query;
  size_t k = 10;

  /// Aggregate form (kind == kAggregate); `aggregate.query` is the
  /// routed anchor, `query` above is ignored.
  AggregateSpec aggregate;

  /// Per-request resilience overrides; 0 / zero-fields fall back to the
  /// server's configured defaults (ServerConfig).
  double deadline_ms = 0.0;
  util::ResourceBudget budget;

  /// Scheduling priority under memory pressure: at PressureLevel
  /// kShedding, requests with priority <= 0 are rejected while positive
  /// priorities still run. Has no effect below that rung.
  int priority = 0;

  /// Skips the result cache for this request (always computes; the
  /// fresh result is still stored for later hits).
  bool bypass_cache = false;

  /// The query this request routes on (top-k query or aggregate
  /// anchor).
  const data::Query& routing_query() const {
    return kind == RequestKind::kAggregate ? aggregate.query : query;
  }
};

/// Serving metadata attached to every response: where the request ran
/// and which fast path (if any) produced the answer.
struct ServerMeta {
  /// Worker shard that owns the request's (anchor, relation) slot.
  size_t shard = 0;
  /// Served straight from the result cache (bit-identical to the
  /// computation that populated the entry).
  bool cache_hit = false;
  /// Attached to an identical in-flight computation instead of
  /// computing again.
  bool coalesced = false;
  /// Crack generation of the VKG's tree that the answer is
  /// valid for (the cache-invalidation stamp, DESIGN.md §6g).
  uint64_t generation = 0;
  /// For rejected requests: suggested back-off before retrying. One
  /// contract across every rejection path (asserted by
  /// tests/server_test.cc RetryAfterHintIsConsistent...):
  ///   * 0 on every non-rejected response — the hint is only
  ///     meaningful when rejected() is true;
  ///   * token-bucket rate limit: a refill ESTIMATE — milliseconds
  ///     until the client's bucket holds the tokens this request
  ///     costs. Negative when the cost exceeds burst capacity
  ///     (retrying can never succeed);
  ///   * circuit breaker open: the REMAINING COOLDOWN of the open
  ///     window — retrying sooner is guaranteed to fast-fail again,
  ///     so the hint never exceeds BreakerConfig::open_seconds;
  ///   * queue-full / memory-shed: the fixed
  ///     ServerConfig::overload_retry_ms pacing hint (the server has
  ///     no model of when capacity frees; the constant spreads the
  ///     retry herd);
  ///   * connection/pipeline caps at the TCP front end: the fixed
  ///     NetServerConfig::overload_retry_after_ms pacing hint, same
  ///     fixed-constant semantics as queue-full (net/wire.h).
  /// Consumers (util/retry.h) let a positive hint override their
  /// exponential back-off when the hint is larger; a negative hint
  /// means retrying can never succeed and the call should give up.
  double retry_after_ms = 0.0;
  /// The request sat in the shard queue past its deadline and was
  /// failed without being computed (status kDeadlineExceeded).
  bool expired_in_queue = false;
  /// Memory pressure forced this request into budgeted/degraded mode
  /// (PressureLevel kDegraded or above; DESIGN.md §6h).
  bool degraded_by_pressure = false;
};

/// One answered (or rejected / failed) request. `status` follows the
/// per-slot Result<> contract of the batch executor: a deadline or
/// budget trip is NOT an error — the payload carries a degraded result
/// with quality metadata — while admission rejection surfaces as
/// ResourceExhausted with meta.retry_after_ms set.
struct ServerResponse {
  util::Status status;
  TopKResult topk;            // kind == kTopK and status.ok()
  AggregateResult aggregate;  // kind == kAggregate and status.ok()
  ServerMeta meta;

  bool ok() const { return status.ok(); }
  bool rejected() const {
    return status.code() == util::StatusCode::kResourceExhausted;
  }
};

/// Canonical identity of a cacheable/coalescable top-k computation:
/// the (h, r, direction, k) tuple plus a fingerprint of every engine
/// option that changes answers (eps, alpha, method, jl seed — fixed per
/// server, hashed once at startup). Two requests with equal keys are
/// answered by the same computation.
struct QueryKey {
  kg::EntityId anchor = kg::kInvalidEntity;
  kg::RelationId relation = kg::kInvalidRelation;
  kg::Direction direction = kg::Direction::kTail;
  uint32_t k = 0;
  uint64_t opts_hash = 0;

  friend bool operator==(const QueryKey& a, const QueryKey& b) {
    return a.anchor == b.anchor && a.relation == b.relation &&
           a.direction == b.direction && a.k == b.k &&
           a.opts_hash == b.opts_hash;
  }
};

struct QueryKeyHash {
  size_t operator()(const QueryKey& key) const;
};

/// FNV-1a over a byte span; the building block of QueryKeyHash and the
/// server's option fingerprints.
uint64_t HashBytes(const void* data, size_t len, uint64_t seed = 0);

/// Applies a request's resilience limits (or the given defaults) to a
/// query context: the QueryControl plumbing between the server front
/// end and the engines. The deadline is taken fresh so it covers
/// exactly this request's compute phase.
void ApplyRequestControl(const ServerRequest& request,
                         double default_deadline_ms,
                         const util::ResourceBudget& default_budget,
                         QueryContext& ctx);

/// End-to-end variant: installs an *absolute* deadline stamped at
/// admission, so time spent queued behind other requests burns this
/// request's own budget and a late-dequeued query degrades instead of
/// overshooting its SLA (DESIGN.md §6h). The budget fallback matches
/// ApplyRequestControl.
void ApplyRequestControlAbsolute(const ServerRequest& request,
                                 util::Deadline deadline,
                                 const util::ResourceBudget& default_budget,
                                 QueryContext& ctx);

}  // namespace vkg::query

#endif  // VKG_QUERY_REQUEST_H_
