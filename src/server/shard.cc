#include "server/shard.h"

#include <utility>

namespace vkg::server {

Shard::Shard(size_t id, const ShardOptions& options)
    : id_(id),
      queue_capacity_(options.queue_capacity),
      cache_(options.cache_bytes, options.cache_entries),
      breaker_(options.breaker),
      pool_(options.threads == 0 ? 1 : options.threads) {}

bool Shard::TryReserveSlot() {
  size_t cur = depth_.load(std::memory_order_relaxed);
  while (true) {
    if (queue_capacity_ > 0 && cur >= queue_capacity_) {
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

}  // namespace vkg::server
