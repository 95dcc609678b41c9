#include "loadgen.h"

#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <deque>
#include <limits>

#include "net/wire.h"
#include "util/deadline.h"

namespace vkg::perfbench {

namespace {

using Clock = std::chrono::steady_clock;

int64_t NanosSince(Clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              t0)
      .count();
}

// The NowSeconds() reading of `t`.
double SecondsOf(Clock::time_point t) {
  return std::chrono::duration<double>(t.time_since_epoch()).count();
}

constexpr size_t kRecvChunk = 64u << 10;
// A response that has not arrived this long after the phase ends is
// lost; the run fails instead of hanging.
constexpr int64_t kDrainGraceNs = 30'000'000'000;

// A closed loop that has seen no response for kSpinNs blocks until one
// arrives (or kMaxIdleWaitNs passes) instead of spinning on. A
// saturating loop never waits; a sequential probe of multi-millisecond
// requests pays one wake-up per response instead of keeping a core busy
// beside the computation it times, which moved the probe's median by
// up to 25% between runs. The open loop always spins: there a blocked
// client's wake-up added about 0.2 ms to every response it timestamped.
constexpr int64_t kSpinNs = 100'000;
constexpr int64_t kMaxIdleWaitNs = 10'000'000;

void WaitIdle(const Connections& conns) {
  std::vector<pollfd> fds;
  for (const auto& conn : conns) {
    short events = conn->in_flight > 0 ? POLLIN : 0;
    if (!conn->out.empty()) events |= POLLOUT;
    if (events != 0) fds.push_back({conn->socket.fd(), events, 0});
  }
  const timespec timeout{0, kMaxIdleWaitNs};
  ::ppoll(fds.data(), fds.size(), &timeout, nullptr);
}

std::string RequestFrame(uint64_t id, const query::ServerRequest& request) {
  return net::EncodeFrame(net::FrameType::kRequest,
                          net::EncodeRequest(id, request));
}

// Writes as much of `conn.out` as the socket takes without blocking.
bool Flush(Connection& conn, std::string* error) {
  size_t sent = 0;
  while (sent < conn.out.size()) {
    const ssize_t rc =
        ::send(conn.socket.fd(), conn.out.data() + sent,
               conn.out.size() - sent, MSG_DONTWAIT | MSG_NOSIGNAL);
    if (rc > 0) {
      sent += static_cast<size_t>(rc);
    } else if (rc < 0 && errno == EINTR) {
      continue;
    } else if (rc < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      break;
    } else {
      *error = std::string("send: ") + std::strerror(errno);
      return false;
    }
  }
  conn.out.erase(0, sent);
  return true;
}

// Reads whatever has arrived, without blocking, and hands each response
// to `on_response(id, response, arrival_ns)`. False (with `error`) on a
// transport, framing or decoding failure, or when `on_response` refuses.
template <typename OnResponse>
bool Drain(Connection& conn, std::vector<char>& buf, Clock::time_point t0,
           std::string* error, OnResponse&& on_response) {
  while (true) {
    const ssize_t rc =
        ::recv(conn.socket.fd(), buf.data(), buf.size(), MSG_DONTWAIT);
    if (rc < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      *error = std::string("recv: ") + std::strerror(errno);
      return false;
    }
    if (rc == 0) {
      *error = "server closed the connection";
      return false;
    }
    const int64_t arrival_ns = NanosSince(t0);
    conn.decoder.Feed(std::string_view(buf.data(), static_cast<size_t>(rc)));
    net::Frame frame;
    while (true) {
      const net::FrameDecoder::Next next = conn.decoder.Pull(&frame);
      if (next == net::FrameDecoder::Next::kNeedMore) break;
      if (next == net::FrameDecoder::Next::kError) {
        *error = "frame: " + conn.decoder.error().ToString();
        return false;
      }
      if (frame.type != net::FrameType::kResponse) {
        net::WireError wire;
        *error = frame.type == net::FrameType::kError &&
                         net::DecodeWireError(frame.payload, &wire).ok()
                     ? "server error frame: " + wire.message
                     : "unexpected frame type";
        return false;
      }
      uint64_t id = 0;
      query::ServerResponse response;
      const util::Status decoded =
          net::DecodeResponse(frame.payload, &id, &response);
      if (!decoded.ok()) {
        *error = "decode: " + decoded.ToString();
        return false;
      }
      if (!on_response(id, std::move(response), arrival_ns)) return false;
    }
    if (static_cast<size_t>(rc) < buf.size()) return true;
  }
}

}  // namespace

util::Result<Connections> ConnectAll(uint16_t port, size_t count) {
  Connections conns;
  for (size_t i = 0; i < count; ++i) {
    auto socket = util::ConnectTcp("127.0.0.1", port,
                                   util::Deadline::AfterMillis(2000));
    if (!socket.ok()) return socket.status();
    auto conn = std::make_unique<Connection>();
    conn->socket = std::move(socket).value();
    conns.push_back(std::move(conn));
  }
  return conns;
}

OpenLoopResult RunOpenLoop(Connections& conns,
                           const std::vector<query::ServerRequest>& requests,
                           const std::vector<double>& due_s) {
  OpenLoopResult result;
  const size_t n = std::min(requests.size(), due_s.size());
  const size_t c = conns.size();
  result.attempted = n;
  if (n == 0 || c == 0) return result;

  std::vector<int64_t> due_ns(n);
  for (size_t i = 0; i < n; ++i) {
    due_ns[i] = static_cast<int64_t>(due_s[i] * 1e9);
  }
  std::vector<int64_t> reached_ns(n, -1);
  std::vector<int64_t> done_ns(n, -1);
  std::vector<uint8_t> ok(n, 0);
  std::vector<std::deque<size_t>> held(c);  // due, not yet sent
  std::vector<char> buf(kRecvChunk);
  std::string error;

  const Clock::time_point t0 = Clock::now() + std::chrono::milliseconds(5);
  result.start_s = SecondsOf(t0);
  const int64_t hard_end_ns = due_ns[n - 1] + kDrainGraceNs;
  size_t next = 0;
  size_t answered = 0;
  while (answered < n && error.empty()) {
    const int64_t now = NanosSince(t0);
    if (now > hard_end_ns) {
      error = "responses missing after the drain grace period";
      break;
    }
    for (; next < n && due_ns[next] <= now; ++next) {
      reached_ns[next] = now;
      held[next % c].push_back(next);
    }
    for (size_t ci = 0; ci < c && error.empty(); ++ci) {
      Connection& conn = *conns[ci];
      std::deque<size_t>& queue = held[ci];
      while (!queue.empty() && conn.in_flight < kMaxInFlight) {
        conn.out += RequestFrame(queue.front(), requests[queue.front()]);
        ++conn.in_flight;
        queue.pop_front();
      }
      if (!conn.out.empty() && !Flush(conn, &error)) break;
      if (conn.in_flight == 0) continue;
      Drain(conn, buf, t0, &error,
            [&](uint64_t id, query::ServerResponse response, int64_t at) {
              if (id >= n || id % c != ci || done_ns[id] >= 0) {
                error = "response id out of sequence";
                return false;
              }
              done_ns[id] = at;
              ok[id] = response.ok() ? 1 : 0;
              if (!response.ok() && result.first_failure.empty()) {
                result.first_failure = response.status.ToString();
              }
              --conn.in_flight;
              ++answered;
              return true;
            });
    }
  }

  result.latency_ms.assign(n, std::numeric_limits<double>::quiet_NaN());
  result.lag_ms.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (reached_ns[i] >= 0) {
      result.lag_ms.push_back((reached_ns[i] - due_ns[i]) * 1e-6);
    }
    if (done_ns[i] < 0 || ok[i] == 0) {
      ++result.failed;
      continue;
    }
    result.latency_ms[i] = (done_ns[i] - due_ns[i]) * 1e-6;
  }
  result.error = error;
  return result;
}

ClosedLoopResult RunClosedLoop(Connections& conns,
                               const std::vector<query::ServerRequest>& stream,
                               double seconds, size_t max_requests,
                               size_t window, double bucket_s) {
  ClosedLoopResult result;
  if (conns.empty() || stream.empty()) return result;
  const size_t buckets =
      bucket_s > 0 ? static_cast<size_t>(std::ceil(seconds / bucket_s)) : 0;
  result.bucket_s = bucket_s;
  result.bucket_completions.assign(buckets, 0);

  // Request i of the phase carries id i % m and reuses that frame; a
  // stream longer than everything in flight keeps the ids unique.
  const size_t m = stream.size();
  std::vector<std::string> frames(m);
  for (size_t i = 0; i < m; ++i) frames[i] = RequestFrame(i, stream[i]);
  std::vector<int64_t> sent_ns(m, -1);
  std::vector<char> buf(kRecvChunk);
  std::string error;
  size_t claimed = 0;

  const Clock::time_point t0 = Clock::now();
  result.start_s = SecondsOf(t0);
  const int64_t end_ns = static_cast<int64_t>(seconds * 1e9);
  // Queues the next request on `conn`, or false once the phase is over.
  auto claim = [&](Connection& conn, int64_t now) {
    if (now >= end_ns || (max_requests > 0 && claimed >= max_requests)) {
      return false;
    }
    const size_t id = claimed++ % m;
    if (sent_ns[id] >= 0) {
      error = "closed-loop stream shorter than the requests in flight";
      return false;
    }
    conn.out += frames[id];
    sent_ns[id] = now;
    ++conn.in_flight;
    ++result.attempted;
    return true;
  };
  for (auto& conn : conns) {
    for (size_t w = 0; w < window && claim(*conn, 0); ++w) {
    }
  }

  int64_t last_activity = 0;
  while (error.empty()) {
    const int64_t now = NanosSince(t0);
    if (now > end_ns + kDrainGraceNs) {
      error = "closed-loop responses missing";
      break;
    }
    const size_t progress = result.latency_ms.size();
    size_t busy = 0;
    for (auto& conn_ptr : conns) {
      Connection& conn = *conn_ptr;
      if (!conn.out.empty() && !Flush(conn, &error)) break;
      if (conn.in_flight > 0) {
        Drain(conn, buf, t0, &error,
              [&](uint64_t id, query::ServerResponse response, int64_t at) {
                if (id >= m || sent_ns[id] < 0) {
                  error = "closed-loop response id out of sequence";
                  return false;
                }
                result.latency_ms.push_back((at - sent_ns[id]) * 1e-6);
                result.done_s.push_back(at * 1e-9);
                sent_ns[id] = -1;
                --conn.in_flight;
                if (!response.ok()) {
                  ++result.failed;
                  if (result.first_failure.empty()) {
                    result.first_failure = response.status.ToString();
                  }
                } else if (at <= end_ns || max_requests > 0) {
                  ++result.completed;
                  if (bucket_s > 0) {
                    const size_t b = static_cast<size_t>(at * 1e-9 / bucket_s);
                    if (b < buckets) ++result.bucket_completions[b];
                  }
                }
                claim(conn, at);
                return error.empty();
              });
      }
      busy += conn.in_flight + conn.out.size();
    }
    if (busy == 0) break;
    if (result.latency_ms.size() != progress) {
      last_activity = now;
    } else if (now - last_activity > kSpinNs) {
      WaitIdle(conns);
    }
  }
  for (auto& conn : conns) {
    result.failed += conn->in_flight;
    conn->in_flight = 0;
    conn->out.clear();
  }
  result.error = error;
  return result;
}

}  // namespace vkg::perfbench
