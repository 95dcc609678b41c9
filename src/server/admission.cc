#include "server/admission.h"

#include <algorithm>

#include "util/failpoint.h"

namespace vkg::server {

AdmissionController::AdmissionController(double qps_limit, double burst)
    : qps_limit_(qps_limit),
      burst_(burst > 0.0 ? burst : std::max(qps_limit, 1.0)) {}

AdmissionController::Decision AdmissionController::Admit(
    const std::string& client_id) {
  return AdmitAt(client_id, util::TokenBucket::SecondsNow());
}

AdmissionController::Decision AdmissionController::AdmitAt(
    const std::string& client_id, double now_seconds) {
  // Injected admission fault: this request alone is turned away with a
  // nominal back-off; the client's bucket is not charged.
  if (VKG_FAILPOINT("server.admit")) {
    rejected_count_.fetch_add(1, std::memory_order_relaxed);
    return {false, 1.0};
  }
  if (qps_limit_ <= 0.0) {
    admitted_count_.fetch_add(1, std::memory_order_relaxed);
    return {true, 0.0};
  }
  util::TokenBucket::Decision d;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = buckets_.find(client_id);
    if (it == buckets_.end()) {
      it = buckets_
               .emplace(std::piecewise_construct,
                        std::forward_as_tuple(client_id),
                        std::forward_as_tuple(qps_limit_, burst_))
               .first;
    }
    d = it->second.TryAcquire(1.0, now_seconds);
  }
  if (d.admitted) {
    admitted_count_.fetch_add(1, std::memory_order_relaxed);
    return {true, 0.0};
  }
  rejected_count_.fetch_add(1, std::memory_order_relaxed);
  return {false, d.retry_after_ms};
}

uint64_t AdmissionController::admitted() const {
  return admitted_count_.load(std::memory_order_relaxed);
}

uint64_t AdmissionController::rejected() const {
  return rejected_count_.load(std::memory_order_relaxed);
}

size_t AdmissionController::num_clients() const {
  std::lock_guard<std::mutex> lock(mu_);
  return buckets_.size();
}

}  // namespace vkg::server
