#include "server/result_cache.h"

namespace vkg::server {

ResultCache::ResultCache(size_t max_bytes, size_t max_entries)
    : enabled_(max_bytes > 0),
      lru_(max_entries, enabled_ ? max_bytes : 1) {}

std::optional<ResultCache::Entry> ResultCache::Lookup(
    const query::QueryKey& key, uint64_t current_generation) {
  if (!enabled_) return std::nullopt;
  std::optional<Entry> entry = lru_.Get(key);
  if (!entry.has_value()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  if (entry->generation != current_generation) {
    // Stale under the invalidation contract: a publication on the
    // tree happened after the entry was stamped. Never serve
    // it; evict so the slot is reusable immediately.
    lru_.Erase(key);
    invalidated_.fetch_add(1, std::memory_order_relaxed);
    misses_.fetch_add(1, std::memory_order_relaxed);
    return std::nullopt;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  return entry;
}

void ResultCache::Store(const query::QueryKey& key,
                        const query::TopKResult& result,
                        uint64_t generation) {
  if (!enabled_) return;
  if (!result.quality.exact) return;  // never replay degraded answers
  lru_.Put(key, Entry{result, generation}, EntryBytes(result));
  stores_.fetch_add(1, std::memory_order_relaxed);
}

size_t ResultCache::InvalidateStale(uint64_t current_generation) {
  if (!enabled_) return 0;
  const size_t removed =
      lru_.EraseIf([current_generation](const query::QueryKey&,
                                        const Entry& entry) {
        return entry.generation != current_generation;
      });
  invalidated_.fetch_add(removed, std::memory_order_relaxed);
  return removed;
}

size_t ResultCache::SetByteBudget(size_t max_bytes) {
  if (!enabled_) return 0;
  // Keep the segment bounded even when asked for 0: a shrink-to-zero
  // becomes "evict everything, stay enabled" rather than unbounding.
  return lru_.SetMaxBytes(max_bytes > 0 ? max_bytes : 1);
}

void ResultCache::Clear() { lru_.Clear(); }

ResultCache::Stats ResultCache::stats() const {
  util::LruCacheStats lru = lru_.stats();
  Stats s;
  s.hits = hits_.load(std::memory_order_relaxed);
  s.misses = misses_.load(std::memory_order_relaxed);
  s.stores = stores_.load(std::memory_order_relaxed);
  s.invalidated = invalidated_.load(std::memory_order_relaxed);
  s.evictions = lru.evictions;
  s.entries = lru_.size();
  s.bytes = lru_.bytes();
  return s;
}

size_t ResultCache::EntryBytes(const query::TopKResult& result) {
  // Key + list/map node overhead, plus the hit vector's heap block.
  constexpr size_t kFixed =
      sizeof(query::QueryKey) + sizeof(Entry) + 96;
  return kFixed + result.hits.capacity() * sizeof(query::TopKHit);
}

}  // namespace vkg::server
