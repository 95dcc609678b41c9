#ifndef VKG_PERFBENCH_LOADGEN_H_
#define VKG_PERFBENCH_LOADGEN_H_

// Load generation over loopback TCP with the public frame and wire
// codecs: a seeded open-loop phase (Poisson arrivals, latency from due
// time) and a closed-loop phase on the same connections.
//
// Both phases run on one client thread that busy-polls its connections
// with non-blocking sends and receives. The open loop never sleeps: a
// response is timestamped when it arrives, and a request leaves when it
// is due, without a thread wake-up on the client side in either path.
// On a virtual machine a wake-up costs a varying amount, which would
// otherwise land in every latency. A closed loop blocks only while it
// has waited long for a response (see loadgen.cc).

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/frame.h"
#include "query/request.h"
#include "util/socket.h"
#include "util/status.h"

namespace vkg::perfbench {

/// One client connection, driven from a single thread.
struct Connection {
  util::Socket socket;
  net::FrameDecoder decoder;
  std::string out;  // encoded frames not yet written
  size_t in_flight = 0;
};

using Connections = std::vector<std::unique_ptr<Connection>>;

util::Result<Connections> ConnectAll(uint16_t port, size_t count);

/// Requests a connection holds back beyond this many unanswered ones, so
/// a host stall never runs into the server's per-connection pipeline cap
/// (NetServerConfig::max_pipeline, 64). A held request is still timed
/// from its due time.
inline constexpr size_t kMaxInFlight = 48;

struct OpenLoopResult {
  double start_s = 0.0;  // NowSeconds() at due time 0
  /// Per request: due time to response; NaN when the request failed.
  std::vector<double> latency_ms;
  /// How late the generator reached each request (reach time - due
  /// time); a request held back by kMaxInFlight is not late here.
  std::vector<double> lag_ms;
  size_t attempted = 0;
  size_t failed = 0;  // non-OK status, undecodable, or never answered
  std::string error;          // first transport or protocol failure
  std::string first_failure;  // status of the first non-OK response
};

/// Sends requests[i] at due_s[i] seconds after the start, over the
/// connections round-robin.
OpenLoopResult RunOpenLoop(Connections& conns,
                           const std::vector<query::ServerRequest>& requests,
                           const std::vector<double>& due_s);

struct ClosedLoopResult {
  size_t completed = 0;  // OK responses that arrived inside the window
  size_t attempted = 0;
  size_t failed = 0;
  double start_s = 0.0;              // NowSeconds() at the start
  std::vector<double> latency_ms;    // send to response
  std::vector<double> done_s;        // response time, from the start
  /// OK completions per `bucket_s` slice of the window.
  double bucket_s = 0.0;
  std::vector<size_t> bucket_completions;
  std::string error;
  std::string first_failure;
};

/// Each connection keeps `window` requests outstanding, drawing from
/// `stream` in order (cycling), until `seconds` pass or `max_requests`
/// are sent (0 = no cap). Completions are also counted per `bucket_s`
/// slice (0 = not at all).
ClosedLoopResult RunClosedLoop(Connections& conns,
                               const std::vector<query::ServerRequest>& stream,
                               double seconds, size_t max_requests,
                               size_t window, double bucket_s);

}  // namespace vkg::perfbench

#endif  // VKG_PERFBENCH_LOADGEN_H_
