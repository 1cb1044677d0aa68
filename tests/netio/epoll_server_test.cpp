// The epoll frame server against real sockets: echo semantics, partial-frame
// resume (bytes dribbled across many writes decode to the same frames), write
// backpressure past the 4 MiB queue budget (pause, then resume in order),
// idle-timeout reaping, graceful drain, per-connection handler state, a
// concurrent many-connection sweep, malformed-frame drops, bind failures,
// and fd-recycling churn under stop().
#include "netio/epoll_server.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "netio/frame_channel.hpp"
#include "netio/socket.hpp"
#include "obs/registry.hpp"
#include "wire/frame.hpp"

namespace baps::netio {
namespace {

using Clock = std::chrono::steady_clock;

EpollFrameServer::Params fast_params() {
  EpollFrameServer::Params p;
  p.drain_timeout_ms = 500;
  return p;
}

/// Echoes every frame back; the default handler for these tests.
EpollFrameServer::FrameHandler echo_handler() {
  return [](EpollFrameServer::Connection& conn, wire::Frame&& frame) {
    return conn.send(frame.kind, frame.payload);
  };
}

std::optional<FrameChannel> dial(std::uint16_t port) {
  NetError err;
  auto conn = TcpConnection::connect("127.0.0.1", port, 2000, &err);
  if (!conn.has_value()) return std::nullopt;
  return FrameChannel(std::move(*conn), Deadlines{2000, 5000, 5000});
}

TEST(EpollFrameServerTest, EchoesFramesOverRealSockets) {
  EpollFrameServer server(fast_params(), echo_handler());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  ASSERT_NE(server.port(), 0);

  auto channel = dial(server.port());
  ASSERT_TRUE(channel.has_value());
  for (int i = 0; i < 10; ++i) {
    const std::string payload = "ping-" + std::to_string(i);
    NetError err;
    ASSERT_TRUE(channel->send(wire::FrameKind::kHello, payload, &err));
    const auto frame = channel->recv(&err);
    ASSERT_TRUE(frame.has_value()) << err.message;
    EXPECT_EQ(frame->kind, wire::FrameKind::kHello);
    EXPECT_EQ(frame->payload, payload);
  }
  channel->close();
  server.stop();
  EXPECT_GE(server.sessions_handled(), 1u);
}

TEST(EpollFrameServerTest, PartialFramesResumeAcrossDribbledWrites) {
  EpollFrameServer server(fast_params(), echo_handler());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  NetError err;
  auto conn = TcpConnection::connect("127.0.0.1", server.port(), 2000, &err);
  ASSERT_TRUE(conn.has_value()) << err.message;

  // Two frames encoded back to back, then pushed through the socket a few
  // bytes at a time: every chunk boundary lands mid-header or mid-payload at
  // some point, so the server's read FSM must park a partial frame and
  // resume it on the next readiness edge.
  const std::string p1(300, 'a');
  const std::string p2 = "tail-frame";
  std::string bytes = wire::encode_frame(wire::FrameKind::kHello, p1);
  bytes += wire::encode_frame(wire::FrameKind::kBye, p2);
  for (std::size_t off = 0; off < bytes.size();) {
    const std::size_t n = std::min<std::size_t>(7, bytes.size() - off);
    ASSERT_TRUE(conn->write_all(bytes.data() + off, n, 2000, &err));
    off += n;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  FrameChannel channel(std::move(*conn), Deadlines{2000, 5000, 5000});
  auto f1 = channel.recv(&err);
  ASSERT_TRUE(f1.has_value()) << err.message;
  EXPECT_EQ(f1->kind, wire::FrameKind::kHello);
  EXPECT_EQ(f1->payload, p1);
  auto f2 = channel.recv(&err);
  ASSERT_TRUE(f2.has_value()) << err.message;
  EXPECT_EQ(f2->kind, wire::FrameKind::kBye);
  EXPECT_EQ(f2->payload, p2);
  server.stop();
}

TEST(EpollFrameServerTest, CoalescedFramesAllReachTheHandler) {
  EpollFrameServer server(fast_params(), echo_handler());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  NetError err;
  auto conn = TcpConnection::connect("127.0.0.1", server.port(), 2000, &err);
  ASSERT_TRUE(conn.has_value()) << err.message;
  // Many frames in ONE write: a single readiness edge carries them all, so
  // the decode loop must keep consuming until kNeedMore, not stop at one.
  std::string bytes;
  for (int i = 0; i < 32; ++i) {
    bytes += wire::encode_frame(wire::FrameKind::kStatsRequest,
                                "req-" + std::to_string(i));
  }
  ASSERT_TRUE(conn->write_all(bytes.data(), bytes.size(), 2000, &err));
  FrameChannel channel(std::move(*conn), Deadlines{2000, 5000, 5000});
  for (int i = 0; i < 32; ++i) {
    const auto frame = channel.recv(&err);
    ASSERT_TRUE(frame.has_value()) << "frame " << i << ": " << err.message;
    EXPECT_EQ(frame->payload, "req-" + std::to_string(i));
  }
  server.stop();
}

TEST(EpollFrameServerTest, HandlerFalseEndsSessionAfterFlushingReplies) {
  // Replies queued by the final frame must still reach the client (the
  // proxy's "send error reply, then drop" pattern).
  EpollFrameServer server(
      fast_params(),
      [](EpollFrameServer::Connection& conn, wire::Frame&& frame) {
        conn.send(wire::FrameKind::kError, frame.payload);
        return false;
      });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  auto channel = dial(server.port());
  ASSERT_TRUE(channel.has_value());
  NetError err;
  ASSERT_TRUE(channel->send(wire::FrameKind::kHello, "doomed", &err));
  const auto reply = channel->recv(&err);
  ASSERT_TRUE(reply.has_value()) << err.message;
  EXPECT_EQ(reply->kind, wire::FrameKind::kError);
  EXPECT_EQ(reply->payload, "doomed");
  // Then the server closes: the next read sees EOF, not a timeout.
  EXPECT_FALSE(channel->recv(&err).has_value());
  EXPECT_EQ(err.status, NetStatus::kClosed);
  server.stop();
}

TEST(EpollFrameServerTest, PerConnectionStatePersistsAcrossFrames) {
  EpollFrameServer server(
      fast_params(),
      [](EpollFrameServer::Connection& conn, wire::Frame&&) {
        auto count = std::static_pointer_cast<int>(conn.state());
        if (count == nullptr) {
          count = std::make_shared<int>(0);
          conn.state() = count;
        }
        ++*count;
        return conn.send(wire::FrameKind::kStatsResponse,
                         std::to_string(*count));
      });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  auto a = dial(server.port());
  auto b = dial(server.port());
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  NetError err;
  for (int i = 1; i <= 3; ++i) {
    ASSERT_TRUE(a->send(wire::FrameKind::kStatsRequest, "", &err));
    const auto fa = a->recv(&err);
    ASSERT_TRUE(fa.has_value());
    EXPECT_EQ(fa->payload, std::to_string(i)) << "state lost or shared";
  }
  // Connection b has its own counter: the state slot is per-connection.
  ASSERT_TRUE(b->send(wire::FrameKind::kStatsRequest, "", &err));
  const auto fb = b->recv(&err);
  ASSERT_TRUE(fb.has_value());
  EXPECT_EQ(fb->payload, "1");
  server.stop();
}

TEST(EpollFrameServerTest, IdleConnectionsAreReaped) {
  EpollFrameServer::Params params = fast_params();
  params.idle_timeout_ms = 150;
  EpollFrameServer server(params, echo_handler());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  auto channel = dial(server.port());
  ASSERT_TRUE(channel.has_value());
  // Active traffic keeps the connection alive past the idle budget...
  NetError err;
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(channel->send(wire::FrameKind::kHello, "tick", &err));
    ASSERT_TRUE(channel->recv(&err).has_value());
    std::this_thread::sleep_for(std::chrono::milliseconds(60));
  }
  // ...then silence: the server must close it within a few timeouts.
  const auto frame = channel->recv(&err);
  EXPECT_FALSE(frame.has_value());
  EXPECT_EQ(err.status, NetStatus::kClosed);
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (server.connections_active() != 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_EQ(server.connections_active(), 0u);
  server.stop();
}

TEST(EpollFrameServerTest, StopDrainsQueuedWritesBeforeClosing) {
  // The handler replies with a large frame and the client reads slowly:
  // stop() must let the queued bytes flush (within drain_timeout_ms), so the
  // client still receives a complete, CRC-valid frame after stop() begins.
  const std::string big(2u << 20, 'x');
  EpollFrameServer::Params params = fast_params();
  params.drain_timeout_ms = 5000;
  EpollFrameServer server(
      params, [&big](EpollFrameServer::Connection& conn, wire::Frame&&) {
        conn.send(wire::FrameKind::kFetchResponse, big);
        conn.close_after_flush();
        return true;
      });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  auto channel = dial(server.port());
  ASSERT_TRUE(channel.has_value());
  NetError err;
  ASSERT_TRUE(channel->send(wire::FrameKind::kFetchRequest, "want", &err));
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::thread stopper([&server] { server.stop(); });
  const auto frame = channel->recv(&err);
  stopper.join();
  ASSERT_TRUE(frame.has_value()) << err.message;
  EXPECT_EQ(frame->payload.size(), big.size());
  EXPECT_FALSE(server.running());
}

TEST(EpollFrameServerTest, WriteQueueBackpressurePausesAndResumes) {
  // 24 requests land in one write while the client reads nothing. Their 1 MiB
  // replies outgrow the kernel's socket buffers plus the server's 4 MiB
  // write-queue budget, so the connection must pause inbound processing
  // with requests still buffered, and resume them once the client reads.
  constexpr int kRequests = 24;
  const auto reply_for = [](int i) {
    std::string reply = "reply-" + std::to_string(i) + ":";
    reply.resize(1u << 20, static_cast<char>('a' + i % 26));
    return reply;
  };
  const auto stalls = [] {
    std::uint64_t total = 0;
    for (const auto& inst : obs::Registry::global().snapshot().counters) {
      if (inst.name == "netio_epoll_writeq_stall_total") total += inst.value;
    }
    return total;
  };
  const std::uint64_t stalls_before = stalls();

  std::atomic<int> handled{0};
  EpollFrameServer server(
      fast_params(), [&](EpollFrameServer::Connection& conn, wire::Frame&& f) {
        const int i = std::stoi(f.payload);
        handled.fetch_add(1);
        return conn.send(wire::FrameKind::kFetchResponse, reply_for(i));
      });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  NetError err;
  auto conn = TcpConnection::connect("127.0.0.1", server.port(), 2000, &err);
  ASSERT_TRUE(conn.has_value()) << err.message;
  std::string bytes;
  for (int i = 0; i < kRequests; ++i) {
    bytes += wire::encode_frame(wire::FrameKind::kFetchRequest,
                                std::to_string(i));
  }
  ASSERT_TRUE(conn->write_all(bytes.data(), bytes.size(), 2000, &err));

  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (stalls() == stalls_before && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_GE(stalls(), stalls_before + 1);
  // Paused for good while nothing reads: the kernel cannot absorb the rest.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_LT(handled.load(), kRequests);

  FrameChannel channel(std::move(*conn), Deadlines{2000, 5000, 5000});
  for (int i = 0; i < kRequests; ++i) {
    const auto frame = channel.recv(&err);
    ASSERT_TRUE(frame.has_value()) << "reply " << i << ": " << err.message;
    EXPECT_EQ(frame->kind, wire::FrameKind::kFetchResponse);
    EXPECT_TRUE(frame->payload == reply_for(i)) << "reply " << i << " garbled";
  }
  EXPECT_EQ(handled.load(), kRequests);
  server.stop();
}

TEST(EpollFrameServerTest, ManyConcurrentConnectionsAllEcho) {
  EpollFrameServer server(fast_params(), echo_handler());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Open a batch of connections FIRST, then exchange on all of them: the
  // server is demonstrably holding them concurrently, not serially.
  constexpr int kConns = 64;
  std::vector<FrameChannel> channels;
  channels.reserve(kConns);
  for (int i = 0; i < kConns; ++i) {
    auto channel = dial(server.port());
    ASSERT_TRUE(channel.has_value()) << "dial " << i;
    channels.push_back(std::move(*channel));
  }
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (server.connections_active() < kConns && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.connections_active(), static_cast<std::size_t>(kConns));
  NetError err;
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < kConns; ++i) {
      const std::string payload =
          std::to_string(round) + ":" + std::to_string(i);
      ASSERT_TRUE(channels[static_cast<std::size_t>(i)].send(
          wire::FrameKind::kHello, payload, &err));
      const auto frame = channels[static_cast<std::size_t>(i)].recv(&err);
      ASSERT_TRUE(frame.has_value()) << err.message;
      EXPECT_EQ(frame->payload, payload);
    }
  }
  for (auto& c : channels) c.close();
  server.stop();
  EXPECT_GE(server.sessions_handled(), static_cast<std::uint64_t>(kConns));
}

TEST(EpollFrameServerTest, ConnectionCeilingParksAcceptUntilACloseFreesASlot) {
  EpollFrameServer::Params params = fast_params();
  params.max_connections = 2;
  EpollFrameServer server(params, echo_handler());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  auto a = dial(server.port());
  auto b = dial(server.port());
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  NetError err;
  ASSERT_TRUE(a->send(wire::FrameKind::kHello, "a", &err));
  ASSERT_TRUE(a->recv(&err).has_value());
  ASSERT_TRUE(b->send(wire::FrameKind::kHello, "b", &err));
  ASSERT_TRUE(b->recv(&err).has_value());

  // A third dial connects at TCP level (backlog) but is not accepted: its
  // frame gets no echo while the ceiling holds.
  auto c = dial(server.port());
  ASSERT_TRUE(c.has_value());
  ASSERT_TRUE(c->send(wire::FrameKind::kHello, "c", &err));
  EXPECT_EQ(server.connections_active(), 2u);

  // Closing one parked-out connection frees the slot; the server un-parks
  // and finally serves c.
  a->close();
  const auto frame = c->recv(&err);
  ASSERT_TRUE(frame.has_value()) << err.message;
  EXPECT_EQ(frame->payload, "c");
  server.stop();
}

TEST(EpollFrameServerTest, StopUnblocksIdleSessionsQuickly) {
  EpollFrameServer server(fast_params(), echo_handler());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  // Connect and go silent: the session has nothing queued and no frame in
  // flight, so stop() must end it at once instead of waiting for the peer.
  auto channel = dial(server.port());
  ASSERT_TRUE(channel.has_value());
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (server.connections_active() == 0 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.connections_active(), 1u);

  const auto start = Clock::now();
  server.stop();
  const auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           Clock::now() - start)
                           .count();
  EXPECT_LT(stop_ms, 5000) << "stop() must not wait out idle sessions";
  EXPECT_FALSE(server.running());
}

TEST(EpollFrameServerTest, MalformedFramesDropTheConnection) {
  const auto decode_errors = [] {
    std::uint64_t total = 0;
    for (const auto& inst : obs::Registry::global().snapshot().counters) {
      if (inst.name == "wire_decode_errors_total") total += inst.value;
    }
    return total;
  };
  const std::uint64_t before = decode_errors();

  EpollFrameServer server(fast_params(), echo_handler());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  NetError err;
  auto conn = TcpConnection::connect("127.0.0.1", server.port(), 1000, &err);
  ASSERT_TRUE(conn.has_value());
  // Garbage that can never parse as a frame header.
  const std::string junk(64, 'Z');
  ASSERT_TRUE(conn->write_all(junk.data(), junk.size(), 1000, &err));
  // The server rejects the header and drops the session: our next read sees
  // EOF (possibly after the bytes in flight drain).
  char byte = 0;
  EXPECT_FALSE(conn->read_exact(&byte, 1, 2000, &err));
  EXPECT_NE(err.status, NetStatus::kTimeout) << "connection should be closed";
  server.stop();
  EXPECT_GT(decode_errors(), before);
}

TEST(EpollFrameServerTest, RapidSessionChurnDoesNotShutDownRecycledFds) {
  // A closed session's fd number goes straight back to the kernel, and the
  // next accept may be handed it. The loop keys sessions by id, never by fd,
  // and removes an fd from the epoll set before closing it, so a recycled
  // number can never receive a stale session's events or be closed twice.
  // Churn short sessions from several threads while stop() fires mid-flight;
  // TSan (the CI job runs this test under it) sees the cross-thread
  // ordering, and any cross-kill shows up as a hung or failed exchange.
  EpollFrameServer server(fast_params(), echo_handler());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const std::uint16_t port = server.port();

  std::atomic<bool> halt{false};
  std::atomic<int> exchanges{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < 4; ++t) {
    clients.emplace_back([&] {
      while (!halt.load()) {
        auto channel = dial(port);
        if (!channel.has_value()) continue;  // accept backlog under churn
        NetError err;
        if (!channel->send(wire::FrameKind::kHello, "churn", &err)) continue;
        if (channel->recv(&err).has_value()) exchanges.fetch_add(1);
        channel->close();  // next dial immediately recycles this fd number
      }
    });
  }
  // Let the churn run, then stop the server while dials are still in
  // flight.
  const auto deadline = Clock::now() + std::chrono::seconds(2);
  while (exchanges.load() < 50 && Clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  server.stop();
  halt.store(true);
  for (auto& c : clients) c.join();
  EXPECT_GT(exchanges.load(), 0);
  EXPECT_FALSE(server.running());
}

TEST(EpollFrameServerTest, StartFailsOnUnbindablePort) {
  auto params = fast_params();
  EpollFrameServer first(params, echo_handler());
  std::string error;
  ASSERT_TRUE(first.start(&error)) << error;

  params.port = first.port();  // already taken
  EpollFrameServer second(params, echo_handler());
  EXPECT_FALSE(second.start(&error));
  EXPECT_FALSE(error.empty());
  first.stop();
}

}  // namespace
}  // namespace baps::netio
