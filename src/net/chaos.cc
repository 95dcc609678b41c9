#include "net/chaos.h"

#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <utility>

#include "net/client.h"
#include "server/chaos.h"
#include "util/failpoint.h"
#include "util/random.h"
#include "util/socket.h"
#include "util/string_util.h"

namespace vkg::net {

namespace {

/// Same spirit as server/chaos RandomSchedule, tuned for loop-side
/// sites: a failed net.read/net.write kills a whole connection, so
/// faults are rarer and sequences end in `off`.
std::string RandomSchedule(util::Rng& rng, double max_delay_ms) {
  std::string spec;
  const size_t segments = 1 + rng.UniformIndex(3);
  for (size_t s = 0; s < segments; ++s) {
    const size_t count = 1 + rng.UniformIndex(20);
    spec += util::StrFormat("%zu*", count);
    const double roll = rng.Uniform();
    if (roll < 0.75) {
      spec += "off";
    } else if (roll < 0.92) {
      spec += "fail";
    } else {
      spec += util::StrFormat("delay(%.2f)",
                              rng.Uniform(0.1, max_delay_ms));
    }
    spec += ",";
  }
  spec += "off";
  return spec;
}

/// One hostile byte sequence, seeded. Every variant must end with the
/// server closing the connection (our write end shuts down, so even a
/// silent truncation resolves to EOF on the server side).
std::string HostileBytes(util::Rng& rng,
                         const query::ServerRequest& slot) {
  const double roll = rng.Uniform();
  if (roll < 0.2) {
    // Pure garbage: bad magic on the first frame.
    std::string garbage;
    const size_t n = 1 + rng.UniformIndex(64);
    for (size_t i = 0; i < n; ++i) {
      garbage.push_back(static_cast<char>(rng.UniformIndex(256)));
    }
    return garbage;
  }
  std::string frame =
      EncodeFrame(FrameType::kRequest, EncodeRequest(7, slot));
  if (roll < 0.4) {
    // Oversized length field: rejected at the header, payload unread.
    frame[8] = static_cast<char>(0xff);
    frame[9] = static_cast<char>(0xff);
    frame[10] = static_cast<char>(0xff);
    frame[11] = static_cast<char>(0x7f);
    return frame.substr(0, kFrameHeaderSize);
  }
  if (roll < 0.6) {
    // Truncated mid-frame; our EOF must unblock the server.
    return frame.substr(0, 1 + rng.UniformIndex(frame.size() - 1));
  }
  if (roll < 0.8) {
    // One flipped bit: checksum (or an earlier header check) trips.
    const size_t byte = rng.UniformIndex(frame.size());
    frame[byte] = static_cast<char>(
        static_cast<unsigned char>(frame[byte]) ^
        (1u << rng.UniformIndex(8)));
    return frame;
  }
  // A valid request followed by garbage: the request is answered, the
  // garbage kills the connection.
  std::string tail;
  for (size_t i = 0; i < 16; ++i) {
    tail.push_back(static_cast<char>(rng.UniformIndex(256)));
  }
  return frame + tail;
}

}  // namespace

std::vector<std::string> AllNetChaosSites() {
  return {"net.accept", "net.read", "net.write", "net.frame"};
}

bool NetChaosReport::Passed(const NetChaosConfig& config) const {
  if (resolved != submitted) return false;
  if (mismatches != 0) return false;
  if (config.hostile_phase &&
      (hostile_handled != hostile_sent || !post_hostile_alive)) {
    return false;
  }
  if (config.drain_phase && !drain_clean) return false;
  if (net.open != 0) return false;
  return true;
}

std::string NetChaosReport::ToString() const {
  return util::StrFormat(
      "submitted=%zu resolved=%zu ok=%zu rejected=%zu failed=%zu "
      "deadline=%zu unavailable=%zu transport=%zu reconnects=%zu "
      "mismatches=%zu hostile=%zu/%zu post_hostile_alive=%d "
      "drain_clean=%d | accepted=%llu frames_rx=%llu frame_errors=%llu "
      "io_errors=%llu force_closed=%llu open=%llu",
      submitted, resolved, ok, rejected, failed, deadline, unavailable,
      transport_errors, reconnects, mismatches, hostile_handled,
      hostile_sent, post_hostile_alive ? 1 : 0, drain_clean ? 1 : 0,
      static_cast<unsigned long long>(net.accepted),
      static_cast<unsigned long long>(net.frames_rx),
      static_cast<unsigned long long>(net.frame_errors),
      static_cast<unsigned long long>(net.io_errors),
      static_cast<unsigned long long>(net.force_closed),
      static_cast<unsigned long long>(net.open));
}

NetChaosReport RunNetChaosCampaign(
    server::VkgServer& server,
    const std::vector<query::ServerRequest>& slots,
    const NetChaosConfig& config) {
  NetChaosReport report;
  if (slots.empty()) return report;
  util::FailPointRegistry& registry = util::FailPointRegistry::Instance();
  registry.Clear();

  NetServerConfig net_config = config.net;
  net_config.host = "127.0.0.1";
  net_config.port = 0;
  util::Result<std::unique_ptr<NetServer>> started =
      NetServer::Start(&server, net_config);
  if (!started.ok()) {
    std::fprintf(stderr, "net chaos: listener failed: %s\n",
                 started.status().ToString().c_str());
    return report;
  }
  std::unique_ptr<NetServer> net = std::move(started).value();
  NetClientConfig client_config;
  client_config.port = net->port();
  client_config.call_timeout_ms = 10000.0;

  // --- Oracle pass (in-process, fault-free) -------------------------------
  const std::vector<server::ChaosOracle> oracle =
      server::BuildChaosOracle(server, slots);

  std::atomic<size_t> submitted{0};
  std::atomic<size_t> resolved{0};
  std::atomic<size_t> count_ok{0};
  std::atomic<size_t> count_rejected{0};
  std::atomic<size_t> count_failed{0};
  std::atomic<size_t> count_deadline{0};
  std::atomic<size_t> count_unavailable{0};
  std::atomic<size_t> count_transport{0};
  std::atomic<size_t> count_mismatch{0};
  std::atomic<size_t> count_reconnect{0};

  auto classify = [&](const util::Result<query::ServerResponse>& r,
                      size_t slot) {
    resolved.fetch_add(1, std::memory_order_relaxed);
    if (r.ok()) {
      const query::ServerResponse& response = r.value();
      if (response.ok()) {
        count_ok.fetch_add(1, std::memory_order_relaxed);
        if (slot < oracle.size() && oracle[slot].valid &&
            !server::MatchesOracle(response, oracle[slot])) {
          count_mismatch.fetch_add(1, std::memory_order_relaxed);
        }
        return;
      }
      switch (response.status.code()) {
        case util::StatusCode::kResourceExhausted:
          count_rejected.fetch_add(1, std::memory_order_relaxed);
          return;
        case util::StatusCode::kDeadlineExceeded:
          count_deadline.fetch_add(1, std::memory_order_relaxed);
          return;
        case util::StatusCode::kUnavailable:
          count_unavailable.fetch_add(1, std::memory_order_relaxed);
          return;
        default:
          count_failed.fetch_add(1, std::memory_order_relaxed);
          return;
      }
    }
    // Transport-level failure: the connection died under us (injected
    // net.* fault, cap rejection, drain). Always a definitive Status.
    count_transport.fetch_add(1, std::memory_order_relaxed);
    switch (r.status().code()) {
      case util::StatusCode::kResourceExhausted:
        count_rejected.fetch_add(1, std::memory_order_relaxed);
        break;
      default:
        count_unavailable.fetch_add(1, std::memory_order_relaxed);
        break;
    }
  };

  // --- Phase 1: randomized storm over real sockets ------------------------
  const size_t rounds = std::max<size_t>(config.rounds, 1);
  const size_t clients = std::max<size_t>(config.clients, 1);
  const size_t per_thread =
      (config.requests + rounds * clients - 1) / (rounds * clients);
  const std::vector<std::string> net_sites = AllNetChaosSites();
  const std::vector<std::string> server_sites = server::AllChaosSites();
  util::Rng arm_rng(config.seed);
  for (size_t round = 0; round < rounds; ++round) {
    for (const std::string& site : net_sites) {
      (void)registry.ConfigureSite(
          site, RandomSchedule(arm_rng, config.max_delay_ms));
    }
    if (config.arm_server_sites) {
      for (const std::string& site : server_sites) {
        (void)registry.ConfigureSite(
            site, RandomSchedule(arm_rng, config.max_delay_ms));
      }
    }
    std::vector<std::thread> storm;
    storm.reserve(clients);
    for (size_t c = 0; c < clients; ++c) {
      storm.emplace_back([&, c, round] {
        util::Rng rng(config.seed ^ (0x9e3779b97f4a7c15ULL * (c + 1)) ^
                      (round * 1000003ULL));
        std::unique_ptr<NetClient> client;
        for (size_t i = 0; i < per_thread; ++i) {
          if (client == nullptr || !client->connected()) {
            util::Result<std::unique_ptr<NetClient>> conn =
                NetClient::Connect(client_config);
            if (!conn.ok()) {
              // Count the failed attempt as a resolved submission so a
              // refused connect cannot silently shrink the campaign.
              submitted.fetch_add(1, std::memory_order_relaxed);
              classify(conn.status(), oracle.size());
              continue;
            }
            client = std::move(conn).value();
            count_reconnect.fetch_add(1, std::memory_order_relaxed);
          }
          const size_t slot = rng.UniformIndex(slots.size());
          query::ServerRequest req = slots[slot];
          req.client_id = util::StrFormat("net-chaos-%zu", c);
          req.bypass_cache = rng.Bernoulli(0.2);
          req.priority = rng.Bernoulli(0.5) ? 1 : 0;
          if (rng.Bernoulli(config.deadline_fraction)) {
            req.deadline_ms = config.deadline_ms;
          }
          submitted.fetch_add(1, std::memory_order_relaxed);
          classify(client->Call(req), slot);
        }
        if (client != nullptr) client->Goodbye();
      });
    }
    for (std::thread& t : storm) t.join();
    registry.Clear();
    server.Drain();
  }

  // --- Phase 2: deterministic hostile connections -------------------------
  if (config.hostile_phase) {
    util::Rng rng(config.seed ^ 0xdeadbeefULL);
    for (size_t h = 0; h < config.hostile_connections; ++h) {
      util::Result<util::Socket> conn = util::ConnectTcp(
          "127.0.0.1", net->port(), util::Deadline::AfterMillis(2000.0));
      if (!conn.ok()) continue;
      util::Socket socket = std::move(conn).value();
      const std::string bytes =
          HostileBytes(rng, slots[rng.UniformIndex(slots.size())]);
      ++report.hostile_sent;
      (void)util::SendAll(socket, bytes.data(), bytes.size(),
                          util::Deadline::AfterMillis(2000.0));
      // Our write end closes, so a silent truncation resolves to EOF on
      // the server side instead of waiting out the read deadline.
      shutdown(socket.fd(), SHUT_WR);
      // Handled = the server closes the connection (error frames before
      // the close are fine). A server that neither answers nor closes
      // within the window has hung on hostile input.
      const util::Deadline deadline = util::Deadline::AfterMillis(5000.0);
      char buf[4096];
      bool closed = false;
      for (;;) {
        util::Result<size_t> got =
            util::RecvSome(socket, buf, sizeof(buf), deadline);
        if (!got.ok()) {
          closed = got.status().code() != util::StatusCode::kDeadlineExceeded;
          break;
        }
        if (got.value() == 0) {
          closed = true;
          break;
        }
      }
      if (closed) ++report.hostile_handled;
    }
    // The server must still answer a well-formed client. The storm may
    // have legitimately tripped circuit breakers or pressure state that
    // self-heals on its own cooldown, so the liveness probe retries
    // inside a bounded window: the invariant is "the stack recovers to
    // serving OK", not "the first post-storm request gets lucky".
    const util::Deadline probe_deadline = util::Deadline::AfterMillis(5000.0);
    while (!probe_deadline.Expired()) {
      util::Result<std::unique_ptr<NetClient>> probe =
          NetClient::Connect(client_config);
      if (probe.ok()) {
        query::ServerRequest req = slots[0];
        req.bypass_cache = true;
        req.priority = 1;
        submitted.fetch_add(1, std::memory_order_relaxed);
        util::Result<query::ServerResponse> r = probe.value()->Call(req);
        classify(r, 0);
        report.post_hostile_alive = r.ok() && r.value().ok();
        probe.value()->Goodbye();
        if (report.post_hostile_alive) break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }

  // --- Phase 3: graceful drain under load ---------------------------------
  if (config.drain_phase) {
    std::atomic<bool> drained{false};
    std::vector<std::thread> burst;
    for (size_t c = 0; c < clients; ++c) {
      burst.emplace_back([&, c] {
        util::Rng rng(config.seed ^ (0xabcdef1234ULL * (c + 1)));
        std::unique_ptr<NetClient> client;
        while (!drained.load(std::memory_order_relaxed)) {
          if (client == nullptr || !client->connected()) {
            util::Result<std::unique_ptr<NetClient>> conn =
                NetClient::Connect(client_config);
            if (!conn.ok()) break;  // listener is gone: drain finished
            client = std::move(conn).value();
          }
          const size_t slot = rng.UniformIndex(slots.size());
          submitted.fetch_add(1, std::memory_order_relaxed);
          util::Result<query::ServerResponse> r = client->Call(slots[slot]);
          classify(r, slot);
          if (!r.ok()) break;  // drain reached us; every call resolved
        }
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    net->Stop();
    drained.store(true, std::memory_order_relaxed);
    for (std::thread& t : burst) t.join();
    // The drain must leave the in-process server serving. Same bounded
    // retry as the post-hostile probe: breakers tripped by the burst
    // (or by the storm rounds) recover on their own cooldown, and that
    // recovery — not first-request luck — is the invariant.
    const util::Deadline probe_deadline = util::Deadline::AfterMillis(5000.0);
    while (!probe_deadline.Expired()) {
      query::ServerRequest probe = slots[0];
      probe.bypass_cache = true;
      probe.priority = 1;
      query::ServerResponse r = server.Execute(std::move(probe));
      report.drain_clean = r.ok();
      if (report.drain_clean) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(25));
    }
  }

  net->Stop();
  report.net = net->Stats();
  registry.Clear();
  server.Drain();

  report.submitted = submitted.load();
  report.resolved = resolved.load();
  report.ok = count_ok.load();
  report.rejected = count_rejected.load();
  report.failed = count_failed.load();
  report.deadline = count_deadline.load();
  report.unavailable = count_unavailable.load();
  report.transport_errors = count_transport.load();
  report.reconnects = count_reconnect.load();
  report.mismatches = count_mismatch.load();
  return report;
}

}  // namespace vkg::net
