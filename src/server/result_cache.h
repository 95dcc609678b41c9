#ifndef VKG_SERVER_RESULT_CACHE_H_
#define VKG_SERVER_RESULT_CACHE_H_

#include <atomic>
#include <cstdint>
#include <optional>

#include "query/request.h"
#include "query/topk_engine.h"
#include "util/lru_cache.h"

namespace vkg::server {

/// One shard's segment of the server's result cache: a bounded LRU of
/// exact top-k results, each stamped with the crack generation of the
/// VKG's tree it was computed against (DESIGN.md §6g).
///
/// Invalidation contract: an entry is served only while its stamp
/// equals the tree's *current* crack generation. A crack publication
/// bumps the generation, so every entry stamped earlier becomes
/// unservable at that instant — Lookup() treats it as a miss and
/// erases it (lazy), and InvalidateStale() sweeps a whole segment
/// (eager, run by the server on every segment right after it observes
/// a bump).
///
/// Only *exact* results (quality.exact, no stop reason) are stored:
/// degraded answers depend on the requester's deadline/budget and must
/// never be replayed to a request with laxer limits. Cached payloads
/// are returned by value, bit-identical to the computation that stored
/// them.
class ResultCache {
 public:
  struct Entry {
    query::TopKResult result;
    uint64_t generation = 0;
  };

  /// `max_bytes` == 0 disables the cache entirely (Lookup always
  /// misses without counting, Store drops).
  ResultCache(size_t max_bytes, size_t max_entries);

  bool enabled() const { return enabled_; }

  /// The entry under `key` if present AND stamped `current_generation`;
  /// a stale entry is erased and counted as an invalidation + miss.
  std::optional<Entry> Lookup(const query::QueryKey& key,
                              uint64_t current_generation);

  /// Stores an exact result stamped `generation`. Degraded results are
  /// ignored (see class comment).
  void Store(const query::QueryKey& key, const query::TopKResult& result,
             uint64_t generation);

  /// Erases every entry whose stamp differs from `current_generation`.
  /// Returns the number evicted (counted as invalidations).
  size_t InvalidateStale(uint64_t current_generation);

  /// Re-bounds this segment's byte budget and evicts cold entries until
  /// it holds — the memory-pressure shrink/restore path (DESIGN.md
  /// §6h). A disabled cache stays disabled. Returns entries evicted.
  size_t SetByteBudget(size_t max_bytes);

  void Clear();

  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t stores = 0;
    uint64_t invalidated = 0;  // generation-stamp evictions (lazy+eager)
    uint64_t evictions = 0;    // capacity-driven LRU evictions
    size_t entries = 0;
    size_t bytes = 0;
  };
  Stats stats() const;

  /// Approximate heap cost of caching `result` (charged to the LRU's
  /// byte bound).
  static size_t EntryBytes(const query::TopKResult& result);

 private:
  bool enabled_;
  util::LruCache<query::QueryKey, Entry, query::QueryKeyHash> lru_;
  // Cache-semantics counters, distinct from the raw LRU's: a stale
  // entry is a *miss* here even though the LRU found the key.
  std::atomic<uint64_t> hits_{0};
  std::atomic<uint64_t> misses_{0};
  std::atomic<uint64_t> invalidated_{0};
  std::atomic<uint64_t> stores_{0};
};

}  // namespace vkg::server

#endif  // VKG_SERVER_RESULT_CACHE_H_
