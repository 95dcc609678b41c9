#ifndef VKG_NET_LISTENER_H_
#define VKG_NET_LISTENER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "net/frame.h"
#include "server/server.h"
#include "util/socket.h"
#include "util/timer.h"

namespace vkg::net {

/// Shape of the TCP front end (DESIGN.md §6i). Defaults are sized for
/// loopback tests; production deployments raise the caps and timeouts.
struct NetServerConfig {
  std::string host = "127.0.0.1";
  /// 0 = ephemeral; read the bound port back with NetServer::port().
  uint16_t port = 0;
  /// Global connection cap. An accept past it is answered with one
  /// kError{kRejected, retry_after_ms} frame and closed — the network
  /// edge of the admission layer's Rejected{retry_after} contract.
  size_t max_connections = 256;
  /// Per-IP connection cap (0 = disabled). Same rejection shape.
  size_t max_connections_per_ip = 0;
  /// Frame payload cap enforced on the *header*, before any payload
  /// byte is buffered.
  size_t max_frame_bytes = kDefaultMaxPayload;
  /// Max requests per connection submitted but not yet answered;
  /// excess requests are rejected (kResourceExhausted + retry hint),
  /// not queued — one connection cannot monopolize the shard pools.
  size_t max_pipeline = 64;
  /// No bytes at all for this long (and nothing in flight) closes the
  /// connection.
  double idle_timeout_ms = 60000.0;
  /// A partially received frame must complete within this window — the
  /// slowloris defense. Measured from the first byte of the partial
  /// frame, restarted per frame.
  double read_deadline_ms = 5000.0;
  /// Pending response bytes must drain within this window once the
  /// socket stops accepting them (a reader that never reads cannot pin
  /// buffer memory forever).
  double write_deadline_ms = 5000.0;
  /// Stop(): grace period for in-flight requests to finish and flush
  /// before remaining connections are force-closed.
  double drain_timeout_ms = 5000.0;
  /// retry_after_ms attached to connection-cap and pipeline-cap
  /// rejections (a fixed load-shedding hint, like queue-full's).
  double overload_retry_after_ms = 50.0;
  /// Test clock for timeout decisions (null = steady_clock::now). The
  /// event loop re-reads it every iteration, so tests advance a fake
  /// clock and observe deterministic idle/slowloris closes.
  std::function<std::chrono::steady_clock::time_point()> clock;
};

/// Exact counters for tests and the CLI report (the obs mirror is
/// PublishStats).
struct NetStats {
  uint64_t accepted = 0;
  uint64_t rejected_cap = 0;      // global connection cap
  uint64_t rejected_ip = 0;       // per-IP connection cap
  uint64_t open = 0;              // currently open connections
  uint64_t frames_rx = 0;
  uint64_t frames_tx = 0;
  uint64_t bytes_rx = 0;
  uint64_t bytes_tx = 0;
  uint64_t frame_errors = 0;      // malformed/corrupt frames
  uint64_t requests = 0;          // request frames dispatched
  uint64_t responses = 0;         // response frames queued
  uint64_t pipeline_rejected = 0; // over max_pipeline
  uint64_t idle_timeouts = 0;
  uint64_t read_timeouts = 0;     // slowloris closes
  uint64_t write_timeouts = 0;    // unread-response closes
  uint64_t io_errors = 0;         // read/write failures incl. EPIPE
  uint64_t force_closed = 0;      // drain timeout hit at Stop()
};

/// The TCP front end over a VkgServer: an accept loop plus
/// per-connection state machines on one event-loop thread, which
/// decodes each request and hands it to VkgServer::Submit with a
/// completion that encodes the response — inline on the loop for cache
/// hits and rejections, on the shard worker for computed results (one
/// thread hop per request, DESIGN.md §6i). Hostile-client-first:
/// every malformed input, stalled read, unread response, or cap
/// violation resolves to a clean error frame and/or close — never a
/// crash, a leak, or a stuck worker (tests/net_fuzz_test.cc,
/// tests/net_test.cc).
///
/// Lifecycle: Start() binds, spawns the loop, and serves until Stop()
/// — which stops accepting, lets in-flight requests finish and flush,
/// closes drained connections, force-closes whatever remains after
/// drain_timeout_ms, and returns only once every completion it handed
/// to Submit has run (a late one for a closed connection drops its
/// bytes), so none outlives the NetServer. Idempotent; the destructor
/// runs it too. The VkgServer must outlive the NetServer and is not
/// stopped by it.
class NetServer {
 public:
  static util::Result<std::unique_ptr<NetServer>> Start(
      server::VkgServer* server, const NetServerConfig& config);

  ~NetServer();
  NetServer(const NetServer&) = delete;
  NetServer& operator=(const NetServer&) = delete;

  /// Bound listening port (resolves config.port == 0).
  uint16_t port() const { return port_; }
  const NetServerConfig& config() const { return config_; }

  /// Graceful drain; blocks until the loop and every completion it
  /// submitted finished.
  void Stop();
  bool stopping() const {
    return stopping_.load(std::memory_order_relaxed);
  }

  NetStats Stats() const;

  /// Mirrors counters/gauges into the obs registry (vkg_net_*).
  void PublishStats() const;

 private:
  struct Connection;

  NetServer(server::VkgServer* server, const NetServerConfig& config);

  std::chrono::steady_clock::time_point Now() const {
    return config_.clock ? config_.clock()
                         : std::chrono::steady_clock::now();
  }

  void Loop();
  void AcceptPending();
  /// Reads available bytes and parses frames; true keeps the
  /// connection, false schedules it for close.
  bool HandleReadable(const std::shared_ptr<Connection>& conn);
  bool HandleFrame(const std::shared_ptr<Connection>& conn, Frame frame);
  /// Submits a decoded request; its completion calls Complete.
  void DispatchRequest(const std::shared_ptr<Connection>& conn,
                       uint64_t request_id, query::ServerRequest request);
  /// Encodes one response for `conn`: straight into the outbox on the
  /// loop thread, else into `pending` under its mutex (before the
  /// in_flight decrement) with a wake when `pending` was empty.
  void Complete(Connection& conn, uint64_t request_id,
                query::RequestKind kind, const util::WallTimer& timer,
                const query::ServerResponse& response);
  /// Flushes as much of the outbox as the socket accepts.
  bool FlushWrites(Connection& conn);
  bool CheckTimeouts(Connection& conn,
                     std::chrono::steady_clock::time_point now);
  void QueueFrame(Connection& conn, FrameType type,
                  std::string_view payload);
  void CloseConnection(size_t index);
  void WakeLoop();

  server::VkgServer* server_;  // not owned
  NetServerConfig config_;
  util::Socket listener_;
  uint16_t port_ = 0;
  util::Socket wake_rx_, wake_tx_;
  std::thread loop_;
  std::thread::id loop_id_;  // set by Loop() before its first Submit
  /// Completions handed to Submit that have not finished running;
  /// Stop() returns only at zero.
  std::atomic<size_t> outstanding_{0};

  std::vector<std::shared_ptr<Connection>> connections_;
  std::map<std::string, size_t> per_ip_;
  uint64_t next_connection_id_ = 1;

  std::atomic<bool> stopping_{false};
  std::mutex stop_mu_;  // serializes Stop()
  bool stopped_ = false;

  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_cap_{0};
  std::atomic<uint64_t> rejected_ip_{0};
  std::atomic<uint64_t> frames_rx_{0};
  std::atomic<uint64_t> frames_tx_{0};
  std::atomic<uint64_t> bytes_rx_{0};
  std::atomic<uint64_t> bytes_tx_{0};
  std::atomic<uint64_t> frame_errors_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> responses_{0};
  std::atomic<uint64_t> pipeline_rejected_{0};
  std::atomic<uint64_t> idle_timeouts_{0};
  std::atomic<uint64_t> read_timeouts_{0};
  std::atomic<uint64_t> write_timeouts_{0};
  std::atomic<uint64_t> io_errors_{0};
  std::atomic<uint64_t> force_closed_{0};
  std::atomic<uint64_t> open_{0};
};

}  // namespace vkg::net

#endif  // VKG_NET_LISTENER_H_
