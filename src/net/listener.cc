#include "net/listener.h"

#include <errno.h>
#include <fcntl.h>
#include <poll.h>
#include <string.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <utility>

#include "net/wire.h"
#include "obs/metrics.h"
#include "util/failpoint.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace vkg::net {

namespace {

using Clock = std::chrono::steady_clock;

double MillisBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

obs::Histogram& RttHistogram() {
  static obs::Histogram& hist =
      obs::MetricsRegistry::Global().GetHistogram("vkg_net_rtt_us");
  return hist;
}

}  // namespace

/// Per-connection state machine. The event loop owns everything except
/// `mu`/`pending`/`in_flight`/`closed`, which shard workers use to hand
/// computed responses back.
struct NetServer::Connection {
  uint64_t id = 0;
  util::Socket socket;
  std::string peer_ip;
  FrameDecoder decoder;

  // Worker-facing half.
  std::mutex mu;
  // Encoded frames queued by workers (guard: mu). The worker that makes
  // it non-empty wakes the loop; the loop empties it.
  std::string pending;
  std::atomic<size_t> in_flight{0};
  std::atomic<bool> closed{false};

  // Loop-owned half.
  std::string outbox;   // bytes being written to the socket
  bool input_dead = false;        // EOF / goodbye / poisoned decoder
  bool close_after_flush = false;
  bool has_partial = false;       // decoder is mid-frame
  bool write_blocked = false;     // socket refused outbox bytes
  Clock::time_point last_activity;
  Clock::time_point partial_since;
  Clock::time_point write_blocked_since;

  explicit Connection(Clock::time_point now, size_t max_payload)
      : decoder(max_payload), last_activity(now) {}

  /// Moves worker-queued bytes into the loop's outbox.
  void CollectPending() {
    std::lock_guard<std::mutex> lock(mu);
    if (!pending.empty()) {
      outbox.append(pending);
      pending.clear();
    }
  }

  bool FlushedAndIdle() {
    if (in_flight.load(std::memory_order_acquire) != 0) return false;
    // in_flight hits 0 only after the worker queued its response, so
    // collecting here observes every response of a drained connection.
    CollectPending();
    return outbox.empty();
  }
};

util::Result<std::unique_ptr<NetServer>> NetServer::Start(
    server::VkgServer* server, const NetServerConfig& config) {
  if (server == nullptr) {
    return util::Status::InvalidArgument("NetServer needs a VkgServer");
  }
  util::IgnoreSigPipe();
  std::unique_ptr<NetServer> net(new NetServer(server, config));

  VKG_ASSIGN_OR_RETURN(net->listener_,
                       util::ListenTcp(config.host, config.port));
  VKG_RETURN_IF_ERROR(util::SetNonBlocking(net->listener_));
  VKG_ASSIGN_OR_RETURN(net->port_, util::LocalPort(net->listener_));

  int pipe_fds[2];
  if (pipe(pipe_fds) != 0) {
    return util::Status::IoError(
        util::StrFormat("pipe: %s", strerror(errno)));
  }
  net->wake_rx_ = util::Socket(pipe_fds[0]);
  net->wake_tx_ = util::Socket(pipe_fds[1]);
  fcntl(net->wake_rx_.fd(), F_SETFL, O_NONBLOCK);
  fcntl(net->wake_tx_.fd(), F_SETFL, O_NONBLOCK);

  net->loop_ = std::thread([raw = net.get()] { raw->Loop(); });
  return net;
}

NetServer::NetServer(server::VkgServer* server,
                     const NetServerConfig& config)
    : server_(server), config_(config) {
  config_.max_connections = std::max<size_t>(1, config_.max_connections);
  config_.max_pipeline = std::max<size_t>(1, config_.max_pipeline);
}

NetServer::~NetServer() { Stop(); }

void NetServer::WakeLoop() {
  char byte = 1;
  ssize_t ignored = write(wake_tx_.fd(), &byte, 1);
  (void)ignored;  // a full pipe already wakes the loop
}

void NetServer::Stop() {
  std::lock_guard<std::mutex> lock(stop_mu_);
  if (stopped_) return;
  stopping_.store(true, std::memory_order_relaxed);
  WakeLoop();
  // The loop exits only once every completion it submitted has run.
  if (loop_.joinable()) loop_.join();
  stopped_ = true;
}

void NetServer::Loop() {
  loop_id_ = std::this_thread::get_id();
  bool draining = false;
  Clock::time_point drain_start{};
  std::vector<struct pollfd> fds;
  std::vector<size_t> fd_conn;  // pollfd index -> connections_ index

  for (;;) {
    if (!draining && stopping_.load(std::memory_order_relaxed)) {
      draining = true;
      drain_start = Now();
      listener_.Close();
      // Stop reading: in-flight requests finish and flush, new frames
      // are not taken. Connections close as they drain.
      for (auto& conn : connections_) conn->input_dead = true;
    }

    fds.clear();
    fd_conn.clear();
    if (listener_.valid()) {
      fds.push_back({listener_.fd(), POLLIN, 0});
    }
    fds.push_back({wake_rx_.fd(), POLLIN, 0});
    for (size_t i = 0; i < connections_.size(); ++i) {
      Connection& conn = *connections_[i];
      short events = 0;
      if (!conn.input_dead) events |= POLLIN;
      if (!conn.outbox.empty() || conn.write_blocked) events |= POLLOUT;
      if (events == 0) events = POLLIN;  // watch for hangup at least
      fd_conn.push_back(i);
      fds.push_back({conn.socket.fd(), events, 0});
    }

    // 10ms tick: timeouts consult the (possibly injected) clock every
    // iteration, so a fake-clock advance is noticed within one tick.
    (void)poll(fds.data(), fds.size(), 10);

    size_t fd_index = 0;
    if (listener_.valid()) {
      if ((fds[fd_index].revents & POLLIN) != 0) AcceptPending();
      ++fd_index;
    }
    if ((fds[fd_index].revents & POLLIN) != 0) {
      char drain[256];
      while (read(wake_rx_.fd(), drain, sizeof(drain)) > 0) {
      }
    }
    ++fd_index;
    // Coalesced followers past their own deadline resolve here, within
    // one tick, even while their leader still computes.
    server_->ExpireWaiting();

    const Clock::time_point now = Now();
    std::vector<size_t> to_close;
    for (size_t p = fd_index; p < fds.size(); ++p) {
      const size_t ci = fd_conn[p - fd_index];
      const std::shared_ptr<Connection>& shared = connections_[ci];
      Connection& conn = *shared;
      bool keep = true;
      conn.CollectPending();
      if (keep && (fds[p].revents & (POLLIN | POLLHUP | POLLERR)) != 0 &&
          !conn.input_dead) {
        keep = HandleReadable(shared);
      }
      conn.CollectPending();
      if (keep && !conn.outbox.empty()) keep = FlushWrites(conn);
      if (keep) keep = CheckTimeouts(conn, now);
      if (keep && (conn.close_after_flush || conn.input_dead) &&
          conn.FlushedAndIdle()) {
        keep = false;
      }
      if (!keep) to_close.push_back(ci);
    }
    // Close from the back so indices stay valid.
    std::sort(to_close.rbegin(), to_close.rend());
    for (size_t ci : to_close) CloseConnection(ci);

    if (draining) {
      if (!connections_.empty() &&
          MillisBetween(drain_start, Now()) > config_.drain_timeout_ms) {
        force_closed_.fetch_add(connections_.size(),
                                std::memory_order_relaxed);
        while (!connections_.empty()) {
          CloseConnection(connections_.size() - 1);
        }
      }
      // Late completions for force-closed connections drop their bytes;
      // the loop keeps ticking (and expiring followers) until they ran.
      if (connections_.empty() &&
          outstanding_.load(std::memory_order_acquire) == 0) {
        break;
      }
    }
  }
}

void NetServer::AcceptPending() {
  for (;;) {
    std::string peer_ip;
    util::Result<util::Socket> accepted =
        util::Accept(listener_, &peer_ip);
    if (!accepted.ok()) return;  // queue drained (or transient)
    util::Socket socket = std::move(accepted).value();
    if (VKG_FAILPOINT("net.accept")) {
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      continue;  // injected accept fault: drop the connection
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);

    const bool over_global =
        connections_.size() >= config_.max_connections;
    const bool over_ip =
        config_.max_connections_per_ip > 0 &&
        per_ip_[peer_ip] >= config_.max_connections_per_ip;
    if (over_global || over_ip) {
      (over_global ? rejected_cap_ : rejected_ip_)
          .fetch_add(1, std::memory_order_relaxed);
      // The network edge of the admission layer: an explicit
      // Rejected{retry_after} frame, serialized before close.
      WireError error;
      error.code = WireErrorCode::kRejected;
      error.retry_after_ms = config_.overload_retry_after_ms;
      error.message = over_global ? "connection cap reached"
                                  : "per-IP connection cap reached";
      const std::string frame =
          EncodeFrame(FrameType::kError, EncodeWireError(error));
      (void)util::SendAll(socket, frame.data(), frame.size(),
                          util::Deadline::AfterMillis(100.0));
      continue;  // socket closes on scope exit
    }

    (void)util::SetNonBlocking(socket);
    (void)util::SetNoDelay(socket);
    auto conn =
        std::make_shared<Connection>(Now(), config_.max_frame_bytes);
    conn->id = next_connection_id_++;
    conn->socket = std::move(socket);
    conn->peer_ip = peer_ip;
    ++per_ip_[peer_ip];
    connections_.push_back(std::move(conn));
    open_.store(connections_.size(), std::memory_order_relaxed);
  }
}

bool NetServer::HandleReadable(const std::shared_ptr<Connection>& shared) {
  Connection& conn = *shared;
  char buf[16384];
  // Bounded reads per iteration so one firehose connection cannot
  // starve the others.
  for (int round = 0; round < 4; ++round) {
    if (VKG_FAILPOINT("net.read")) {
      io_errors_.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    const ssize_t rc = recv(conn.socket.fd(), buf, sizeof(buf), 0);
    if (rc > 0) {
      bytes_rx_.fetch_add(static_cast<uint64_t>(rc),
                          std::memory_order_relaxed);
      conn.last_activity = Now();
      conn.decoder.Feed(std::string_view(buf, static_cast<size_t>(rc)));
      if (static_cast<size_t>(rc) < sizeof(buf)) break;
      continue;
    }
    if (rc == 0) {  // clean EOF: flush what is in flight, then close
      conn.input_dead = true;
      break;
    }
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    if (errno == EINTR) continue;
    io_errors_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }

  Frame frame;
  for (;;) {
    const FrameDecoder::Next next = conn.decoder.Pull(&frame);
    if (next == FrameDecoder::Next::kFrame) {
      frames_rx_.fetch_add(1, std::memory_order_relaxed);
      if (!HandleFrame(shared, std::move(frame))) return false;
      continue;
    }
    if (next == FrameDecoder::Next::kError) {
      // Framing is unrecoverable: answer with the decode error and
      // close once it flushed.
      frame_errors_.fetch_add(1, std::memory_order_relaxed);
      WireError error;
      error.code = WireErrorCode::kMalformed;
      error.message = conn.decoder.error().message();
      QueueFrame(conn, FrameType::kError, EncodeWireError(error));
      conn.input_dead = true;
      conn.close_after_flush = true;
      break;
    }
    break;  // kNeedMore
  }

  const bool mid = conn.decoder.mid_frame() && !conn.decoder.poisoned();
  if (mid && !conn.has_partial) {
    conn.has_partial = true;
    conn.partial_since = Now();
  } else if (!mid) {
    conn.has_partial = false;
  }
  return true;
}

bool NetServer::HandleFrame(const std::shared_ptr<Connection>& shared,
                            Frame frame) {
  Connection& conn = *shared;
  if (VKG_FAILPOINT("net.frame")) {
    frame_errors_.fetch_add(1, std::memory_order_relaxed);
    WireError error;
    error.code = WireErrorCode::kMalformed;
    error.message = "injected frame fault (net.frame)";
    QueueFrame(conn, FrameType::kError, EncodeWireError(error));
    conn.input_dead = true;
    conn.close_after_flush = true;
    return true;
  }
  switch (frame.type) {
    case FrameType::kPing:
      QueueFrame(conn, FrameType::kPong, "");
      return true;
    case FrameType::kGoodbye:
      // Client-initiated drain: no more requests will arrive; finish
      // what is in flight, flush, close.
      conn.input_dead = true;
      conn.close_after_flush = true;
      return true;
    case FrameType::kRequest:
      break;
    default: {
      // kResponse/kPong/kError are server-to-client vocabulary; a
      // client sending them is broken or hostile.
      frame_errors_.fetch_add(1, std::memory_order_relaxed);
      WireError error;
      error.code = WireErrorCode::kMalformed;
      error.message = "unexpected frame type from client";
      QueueFrame(conn, FrameType::kError, EncodeWireError(error));
      conn.input_dead = true;
      conn.close_after_flush = true;
      return true;
    }
  }

  if (stopping_.load(std::memory_order_relaxed)) {
    WireError error;
    error.code = WireErrorCode::kShuttingDown;
    error.message = "server draining";
    QueueFrame(conn, FrameType::kError, EncodeWireError(error));
    conn.input_dead = true;
    conn.close_after_flush = true;
    return true;
  }

  uint64_t request_id = 0;
  query::ServerRequest request;
  const util::Status decoded =
      DecodeRequest(frame.payload, &request_id, &request);
  if (!decoded.ok()) {
    frame_errors_.fetch_add(1, std::memory_order_relaxed);
    WireError error;
    error.code = WireErrorCode::kMalformed;
    error.message = decoded.message();
    QueueFrame(conn, FrameType::kError, EncodeWireError(error));
    conn.input_dead = true;
    conn.close_after_flush = true;
    return true;
  }

  if (conn.in_flight.load(std::memory_order_acquire) >=
      config_.max_pipeline) {
    // Per-request rejection, same shape the in-process admission layer
    // produces: the client sees ResourceExhausted + retry hint and the
    // connection stays usable.
    pipeline_rejected_.fetch_add(1, std::memory_order_relaxed);
    query::ServerResponse response;
    response.status = util::Status::ResourceExhausted(
        util::StrFormat("pipeline cap %zu reached",
                        config_.max_pipeline));
    response.meta.retry_after_ms = config_.overload_retry_after_ms;
    QueueFrame(conn, FrameType::kResponse,
               EncodeResponse(request_id, response, request.kind));
    return true;
  }

  DispatchRequest(shared, request_id, std::move(request));
  return true;
}

void NetServer::DispatchRequest(const std::shared_ptr<Connection>& conn,
                                uint64_t request_id,
                                query::ServerRequest request) {
  conn->in_flight.fetch_add(1, std::memory_order_acq_rel);
  requests_.fetch_add(1, std::memory_order_relaxed);
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  const query::RequestKind kind = request.kind;
  const util::WallTimer timer;
  auto done = [this, conn, request_id, kind, timer](query::ServerResponse r) {
    Complete(*conn, request_id, kind, timer, r);
  };
  server_->Submit(std::move(request), std::move(done));
}

void NetServer::Complete(Connection& conn, uint64_t request_id,
                         query::RequestKind kind, const util::WallTimer& timer,
                         const query::ServerResponse& response) {
  RttHistogram().Observe(timer.ElapsedMicros());
  const std::string frame = EncodeFrame(
      FrameType::kResponse, EncodeResponse(request_id, response, kind));
  if (std::this_thread::get_id() == loop_id_) {
    // Inline (cache hit, rejection, follower expired by the loop's
    // sweep): the loop owns the outbox, no lock and no wake needed.
    if (!conn.closed.load(std::memory_order_relaxed)) {
      conn.outbox.append(frame);
      responses_.fetch_add(1, std::memory_order_relaxed);
      frames_tx_.fetch_add(1, std::memory_order_relaxed);
    }
    conn.in_flight.fetch_sub(1, std::memory_order_acq_rel);
  } else {
    // Shard worker: append before the in_flight decrement, so the
    // loop's flush-and-close check never loses a response.
    bool wake = false;
    {
      std::lock_guard<std::mutex> lock(conn.mu);
      if (!conn.closed.load(std::memory_order_relaxed)) {
        // A non-empty `pending` already has a wake outstanding.
        wake = conn.pending.empty();
        conn.pending.append(frame);
        responses_.fetch_add(1, std::memory_order_relaxed);
        frames_tx_.fetch_add(1, std::memory_order_relaxed);
      }
    }
    conn.in_flight.fetch_sub(1, std::memory_order_acq_rel);
    if (wake) WakeLoop();
  }
  // Last touch of `this`: Stop() may return as soon as this reads zero.
  outstanding_.fetch_sub(1, std::memory_order_release);
}

void NetServer::QueueFrame(Connection& conn, FrameType type,
                           std::string_view payload) {
  conn.outbox.append(EncodeFrame(type, payload));
  frames_tx_.fetch_add(1, std::memory_order_relaxed);
}

bool NetServer::FlushWrites(Connection& conn) {
  if (VKG_FAILPOINT("net.write")) {
    io_errors_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  while (!conn.outbox.empty()) {
    const ssize_t rc = send(conn.socket.fd(), conn.outbox.data(),
                            conn.outbox.size(), MSG_NOSIGNAL);
    if (rc > 0) {
      bytes_tx_.fetch_add(static_cast<uint64_t>(rc),
                          std::memory_order_relaxed);
      conn.outbox.erase(0, static_cast<size_t>(rc));
      continue;
    }
    if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      if (!conn.write_blocked) {
        conn.write_blocked = true;
        conn.write_blocked_since = Now();
      }
      return true;  // wait for POLLOUT
    }
    if (rc < 0 && errno == EINTR) continue;
    // EPIPE/ECONNRESET and friends: the reader vanished mid-write. The
    // Status-shaped cousin of this surface lives in util::SendAll; here
    // the connection just closes.
    io_errors_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  conn.write_blocked = false;
  return true;
}

bool NetServer::CheckTimeouts(Connection& conn, Clock::time_point now) {
  if (conn.has_partial &&
      MillisBetween(conn.partial_since, now) > config_.read_deadline_ms) {
    // Slowloris: a frame begun but trickled. One best-effort error
    // frame, then close regardless of flush.
    read_timeouts_.fetch_add(1, std::memory_order_relaxed);
    WireError error;
    error.code = WireErrorCode::kIdle;
    error.message = "read deadline exceeded mid-frame";
    QueueFrame(conn, FrameType::kError, EncodeWireError(error));
    (void)FlushWrites(conn);
    return false;
  }
  if (conn.write_blocked &&
      MillisBetween(conn.write_blocked_since, now) >
          config_.write_deadline_ms) {
    // A reader that never reads cannot pin response memory forever.
    write_timeouts_.fetch_add(1, std::memory_order_relaxed);
    return false;
  }
  if (config_.idle_timeout_ms > 0.0 && !conn.has_partial &&
      conn.in_flight.load(std::memory_order_acquire) == 0 &&
      conn.outbox.empty() &&
      MillisBetween(conn.last_activity, now) > config_.idle_timeout_ms) {
    idle_timeouts_.fetch_add(1, std::memory_order_relaxed);
    WireError error;
    error.code = WireErrorCode::kIdle;
    error.message = "idle timeout";
    QueueFrame(conn, FrameType::kError, EncodeWireError(error));
    (void)FlushWrites(conn);
    return false;
  }
  return true;
}

void NetServer::CloseConnection(size_t index) {
  std::shared_ptr<Connection> conn = connections_[index];
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->closed.store(true, std::memory_order_relaxed);
    conn->pending.clear();
  }
  conn->socket.Close();
  auto it = per_ip_.find(conn->peer_ip);
  if (it != per_ip_.end() && --it->second == 0) per_ip_.erase(it);
  connections_.erase(connections_.begin() +
                     static_cast<ptrdiff_t>(index));
  open_.store(connections_.size(), std::memory_order_relaxed);
}

NetStats NetServer::Stats() const {
  NetStats stats;
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.rejected_cap = rejected_cap_.load(std::memory_order_relaxed);
  stats.rejected_ip = rejected_ip_.load(std::memory_order_relaxed);
  stats.open = open_.load(std::memory_order_relaxed);
  stats.frames_rx = frames_rx_.load(std::memory_order_relaxed);
  stats.frames_tx = frames_tx_.load(std::memory_order_relaxed);
  stats.bytes_rx = bytes_rx_.load(std::memory_order_relaxed);
  stats.bytes_tx = bytes_tx_.load(std::memory_order_relaxed);
  stats.frame_errors = frame_errors_.load(std::memory_order_relaxed);
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.responses = responses_.load(std::memory_order_relaxed);
  stats.pipeline_rejected =
      pipeline_rejected_.load(std::memory_order_relaxed);
  stats.idle_timeouts = idle_timeouts_.load(std::memory_order_relaxed);
  stats.read_timeouts = read_timeouts_.load(std::memory_order_relaxed);
  stats.write_timeouts = write_timeouts_.load(std::memory_order_relaxed);
  stats.io_errors = io_errors_.load(std::memory_order_relaxed);
  stats.force_closed = force_closed_.load(std::memory_order_relaxed);
  return stats;
}

void NetServer::PublishStats() const {
  obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
  const NetStats stats = Stats();
  reg.GetGauge("vkg_net_connections_open")
      .Set(static_cast<double>(stats.open));
  reg.GetGauge("vkg_net_connections_accepted")
      .Set(static_cast<double>(stats.accepted));
  reg.GetGauge("vkg_net_connections_rejected")
      .Set(static_cast<double>(stats.rejected_cap + stats.rejected_ip));
  reg.GetGauge("vkg_net_frames_rx").Set(static_cast<double>(stats.frames_rx));
  reg.GetGauge("vkg_net_frames_tx").Set(static_cast<double>(stats.frames_tx));
  reg.GetGauge("vkg_net_bytes_rx").Set(static_cast<double>(stats.bytes_rx));
  reg.GetGauge("vkg_net_bytes_tx").Set(static_cast<double>(stats.bytes_tx));
  reg.GetGauge("vkg_net_frame_errors")
      .Set(static_cast<double>(stats.frame_errors));
  reg.GetGauge("vkg_net_requests").Set(static_cast<double>(stats.requests));
  reg.GetGauge("vkg_net_responses")
      .Set(static_cast<double>(stats.responses));
  reg.GetGauge("vkg_net_timeouts_idle")
      .Set(static_cast<double>(stats.idle_timeouts));
  reg.GetGauge("vkg_net_timeouts_read")
      .Set(static_cast<double>(stats.read_timeouts));
  reg.GetGauge("vkg_net_timeouts_write")
      .Set(static_cast<double>(stats.write_timeouts));
  reg.GetGauge("vkg_net_io_errors")
      .Set(static_cast<double>(stats.io_errors));
  reg.GetGauge("vkg_net_force_closed")
      .Set(static_cast<double>(stats.force_closed));
}

}  // namespace vkg::net
