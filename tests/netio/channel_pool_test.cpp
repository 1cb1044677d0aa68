// ChannelPool's idle cap: a target keeps at most four parked channels, a
// release beyond that closes the channel and counts a discard, and acquire
// hands back the most recently parked channel first.
#include "netio/channel_pool.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "netio/epoll_server.hpp"
#include "obs/registry.hpp"
#include "wire/frame.hpp"

namespace baps::netio {
namespace {

std::uint64_t discards() {
  std::uint64_t total = 0;
  for (const auto& inst : obs::Registry::global().snapshot().counters) {
    if (inst.name == "netio_pool_discard_total") total += inst.value;
  }
  return total;
}

TEST(ChannelPoolTest, ReleaseBeyondTheIdleCapDiscards) {
  EpollFrameServer server(
      EpollFrameServer::Params{},
      [](EpollFrameServer::Connection& conn, wire::Frame&& frame) {
        return conn.send(frame.kind, frame.payload);
      });
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  const std::string host = "127.0.0.1";

  ChannelPool pool(ChannelPool::Params{});
  std::vector<std::unique_ptr<FrameChannel>> dialed;
  for (int i = 0; i < 5; ++i) {
    NetError err;
    ChannelPool::Acquired a = pool.acquire(host, server.port(), &err);
    ASSERT_NE(a.channel, nullptr) << err.message;
    EXPECT_FALSE(a.reused);
    dialed.push_back(std::move(a.channel));
  }
  const FrameChannel* last_parked = dialed[3].get();

  const std::uint64_t discards_before = discards();
  for (auto& channel : dialed) {
    pool.release(host, server.port(), std::move(channel));
  }
  EXPECT_EQ(pool.idle_count(), 4u);
  EXPECT_EQ(discards(), discards_before + 1);

  NetError err;
  ChannelPool::Acquired again = pool.acquire(host, server.port(), &err);
  ASSERT_NE(again.channel, nullptr) << err.message;
  EXPECT_TRUE(again.reused);
  EXPECT_EQ(again.channel.get(), last_parked);
  EXPECT_EQ(pool.idle_count(), 3u);
  ASSERT_TRUE(again.channel->send(wire::FrameKind::kHello, "still-live", &err));
  const auto echo = again.channel->recv(&err);
  ASSERT_TRUE(echo.has_value()) << err.message;
  EXPECT_EQ(echo->payload, "still-live");

  again.channel.reset();
  pool.clear();
  server.stop();
}

}  // namespace
}  // namespace baps::netio
