#ifndef VKG_SERVER_CHAOS_H_
#define VKG_SERVER_CHAOS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "query/request.h"
#include "server/server.h"
#include "util/random.h"

namespace vkg::server {

/// Seeded chaos campaign against a live VkgServer (DESIGN.md §6h): arms
/// every server./cracking./alloc. failpoint site with randomized
/// schedules under a multi-client storm, then drives deterministic
/// breaker-trip/recovery and queue-expiry phases, asserting the global
/// resilience invariants:
///
///   1. every Submit resolves to a definitive ServerResponse (no hung
///      Ticket — a hang shows up as the campaign never returning);
///   2. successful exact responses are differential-correct against a
///      sequential pre-campaign oracle;
///   3. breakers both trip AND recover;
///   4. requests whose deadline expired in the queue are never computed
///      (expired_in_queue counts them);
///   5. after the final shutdown storm, Stop() has resolved every
///      outstanding ticket.
///
/// The harness is library code (not test-only) so tests/server_chaos_
/// test.cc and tools/vkg_chaos_cli drive the identical campaign.

/// Every failpoint site a campaign arms (the server.*, cracking.* and
/// alloc.* subset of the catalog in util/failpoint.h; threadpool/
/// serialize/batch sites are not on the serving path).
std::vector<std::string> AllChaosSites();

/// A slot's sequential, fault-free answer: the reference for invariant
/// 2, shared with the socket-level campaign (net/chaos.h).
struct ChaosOracle {
  query::TopKResult topk;
  double aggregate_value = 0.0;
  bool aggregate_exact = false;
  bool is_aggregate = false;
  bool valid = false;  // false when the slot itself failed
};

/// Executes every slot once, unlimited and uncached. Call it before
/// arming any failpoint.
std::vector<ChaosOracle> BuildChaosOracle(
    VkgServer& server, const std::vector<query::ServerRequest>& slots);

/// False (printing the difference) when both answers are exact and
/// differ; degraded answers are not compared.
bool MatchesOracle(const query::ServerResponse& got, const ChaosOracle& want);

struct ChaosConfig {
  uint64_t seed = 42;
  /// Total randomized-storm submissions, split across clients & rounds.
  size_t requests = 10000;
  size_t clients = 4;
  /// Failpoint schedules are re-randomized between rounds so sequences
  /// exhaust and re-arm differently.
  size_t rounds = 8;
  /// Fraction of storm requests carrying a finite deadline.
  double deadline_fraction = 0.5;
  double deadline_ms = 50.0;
  /// Upper bound for injected delay/timeout actions (keeps campaign
  /// wall-clock bounded).
  double max_delay_ms = 3.0;
  /// Run the deterministic breaker trip/recovery phase.
  bool breaker_phase = true;
  /// Run the deterministic queue-expiry phase.
  bool expiry_phase = true;
  /// End with a burst submitted right before Stop() to prove shutdown
  /// abandons no ticket. Leaves the server stopped.
  bool shutdown_phase = true;
};

struct ChaosReport {
  size_t submitted = 0;
  size_t resolved = 0;  // == submitted when no ticket hung
  size_t ok = 0;
  size_t rejected = 0;     // admission/breaker/overload/shed
  size_t failed = 0;       // injected faults surfaced as errors
  size_t deadline = 0;     // kDeadlineExceeded (queue expiry, followers)
  size_t unavailable = 0;  // resolved during shutdown
  size_t mismatches = 0;   // differential-correctness violations
  uint64_t breaker_trips = 0;
  uint64_t breaker_recoveries = 0;
  uint64_t expired_in_queue = 0;
  bool breaker_tripped = false;
  bool breaker_recovered = false;
  bool expiry_observed = false;
  bool shutdown_clean = false;

  /// All invariants the campaign can check locally. (Sanitizer
  /// cleanliness is checked by the CI job running the binary.)
  bool Passed(const ChaosConfig& config) const;
  std::string ToString() const;
};

/// Runs the campaign. `slots` are request templates (top-k and/or
/// aggregate) the storm draws from; they must validate against
/// `server`. With shutdown_phase set the server is stopped on return.
/// Failpoints are cleared before and after.
ChaosReport RunChaosCampaign(VkgServer& server,
                             const std::vector<query::ServerRequest>& slots,
                             const ChaosConfig& config);

}  // namespace vkg::server

#endif  // VKG_SERVER_CHAOS_H_
