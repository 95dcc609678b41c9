#ifndef VKG_QUERY_QUERY_CONTEXT_H_
#define VKG_QUERY_QUERY_CONTEXT_H_

#include <algorithm>
#include <cstdint>
#include <new>
#include <vector>

#include "obs/trace.h"
#include "util/arena.h"
#include "util/deadline.h"
#include "util/failpoint.h"

namespace vkg::query {

/// How trustworthy a query answer is. Attached to every TopKResult and
/// AggregateResult so callers can distinguish a complete answer from a
/// best-effort one produced under a deadline, a cancellation, or a
/// resource budget.
struct ResultQuality {
  /// True when the query ran to completion; false when it stopped early
  /// and the answer is the best found so far.
  bool exact = true;
  /// Why the query stopped early (kNone when exact).
  util::StopReason stop_reason = util::StopReason::kNone;
  /// S2 radius around the query center inside which every point was
  /// examined before the query stopped. The Theorem 2/3 guarantees hold
  /// within this radius even for a degraded answer; 0 when nothing was
  /// certified (or the engine has no spatial traversal order).
  double certified_radius = 0.0;

  bool truncated() const { return !exact; }
  bool deadline_exceeded() const {
    return stop_reason == util::StopReason::kDeadline;
  }
};

/// Per-query mutable scratch state. Engines themselves are immutable
/// while answering a query (`TopKQuery` is const); everything a single
/// query mutates — the visit-stamp deduplication array, reusable
/// candidate/distance buffers, and the deadline/budget control block —
/// lives here. A context is cheap to reuse across queries and must not
/// be shared between concurrent callers: batched execution keeps one
/// context per worker thread.
class QueryContext {
 public:
  QueryContext() = default;

  /// The deadline / cancellation / resource-budget control block checked
  /// cooperatively by the engines. Configure it before issuing a query;
  /// call control().ResetForQuery() when reusing one context across
  /// queries (the batch executor does this automatically).
  util::QueryControl& control() { return control_; }
  const util::QueryControl& control() const { return control_; }

  /// The visit-stamp array sized for `n` entities, plus a fresh stamp
  /// value. An entity was already examined in the current query iff
  /// stamps[id] == stamp. Handles stamp wrap-around by zero-filling.
  ///
  /// Enforces ResourceBudget::max_scratch_bytes: when the array would
  /// exceed the budget the query is flagged stopped (scratch-budget) so
  /// the engine degrades to its seed candidates, but the allocation
  /// still happens — the caller gets a valid (best-effort) answer
  /// instead of a crash or an empty result.
  struct Stamped {
    uint32_t* stamps;
    uint32_t stamp;
  };
  Stamped BeginQuery(size_t n) {
    if (VKG_FAILPOINT("alloc.scratch")) throw std::bad_alloc();
    const size_t budget = control_.budget().max_scratch_bytes;
    if (budget > 0 && n * sizeof(uint32_t) > budget) {
      control_.NoteScratchOverflow();
    }
    if (visit_stamp_.size() != n) {
      visit_stamp_.assign(n, 0);
      stamp_ = 0;
    }
    return NextStamp();
  }

  /// A fresh stamp over the array the last BeginQuery sized, for a second
  /// pass of the same query (the aggregate's ball walk after its d_min
  /// probe). No budget check: the array is already allocated.
  Stamped NextStamp() {
    if (++stamp_ == 0) {  // wrapped: every old stamp is stale
      std::fill(visit_stamp_.begin(), visit_stamp_.end(), 0);
      stamp_ = 1;
    }
    return {visit_stamp_.data(), stamp_};
  }

  /// The per-query bump arena: candidate/distance buffers, re-rank
  /// heaps, query-center and JL projection scratch. Engines Reset() it
  /// on entry, so anything allocated from it lives until the next query
  /// on this context (util::Arena lifetime rules, DESIGN.md §6j).
  /// Contexts are per-worker-thread, so arenas are per-shard for free.
  util::Arena& arena() { return arena_; }

  /// The per-query trace the engines record phase spans into, or null
  /// (the default) when this query is not being traced. The context does
  /// not own the trace; the caller attaches one before the query and
  /// reads it after (see BatchOptions::trace_hook and the CLI --trace
  /// flag). Untraced queries pay one pointer compare per span site.
  obs::Trace* trace() const { return trace_; }
  void set_trace(obs::Trace* trace) { trace_ = trace; }

 private:
  util::QueryControl control_;
  obs::Trace* trace_ = nullptr;
  std::vector<uint32_t> visit_stamp_;
  uint32_t stamp_ = 0;
  util::Arena arena_;
};

}  // namespace vkg::query

#endif  // VKG_QUERY_QUERY_CONTEXT_H_
