#ifndef VKG_SERVER_ADMISSION_H_
#define VKG_SERVER_ADMISSION_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>

#include "util/token_bucket.h"

namespace vkg::server {

/// Per-client token-bucket admission control (DESIGN.md §6g): every
/// client id owns one util::TokenBucket refilling at `qps_limit`
/// tokens/second with `burst` capacity, created on first request. A
/// request past the client's budget is rejected *explicitly* with a
/// retry-after hint — the server never queues unboundedly on behalf of
/// one hot client.
///
/// Layered *before* the per-query deadline/budget machinery: admission
/// decides whether a request may consume compute at all; QueryControl
/// then bounds how much the admitted request consumes.
class AdmissionController {
 public:
  /// `qps_limit` <= 0 disables rate limiting (everything admits).
  /// `burst` <= 0 defaults to max(qps_limit, 1) — roughly one second of
  /// budget may be spent instantaneously.
  AdmissionController(double qps_limit, double burst);

  struct Decision {
    bool admitted = false;
    /// Back-off hint when rejected (ms); negative when the request can
    /// never be admitted. 0 when admitted.
    double retry_after_ms = 0.0;
  };

  /// Charges one token to `client_id` ("" = the shared anonymous
  /// client). The `server.admit` failpoint forces a rejection. Takes
  /// no lock when rate limiting is disabled.
  Decision Admit(const std::string& client_id);

  /// Test hook: identical math, caller-supplied clock.
  Decision AdmitAt(const std::string& client_id, double now_seconds);

  uint64_t admitted() const;
  uint64_t rejected() const;
  size_t num_clients() const;

 private:
  const double qps_limit_;
  const double burst_;

  mutable std::mutex mu_;
  std::map<std::string, util::TokenBucket> buckets_;  // guarded by mu_
  std::atomic<uint64_t> admitted_count_{0};
  std::atomic<uint64_t> rejected_count_{0};
};

}  // namespace vkg::server

#endif  // VKG_SERVER_ADMISSION_H_
