// A keyed pool of idle FrameChannels: peer fetches and observer polls that
// used to dial a fresh TCP connection per operation now reuse a warm one —
// at 10k-connection scale the three-way handshake and slow-start tax per
// fetch is what dominates, not the frame bytes. Channels are returned to
// the pool only when the full request/response exchange succeeded; any
// failure discards the channel so a stale half-dead socket can never serve
// a second request.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "netio/frame_channel.hpp"
#include "netio/socket.hpp"

namespace baps::netio {

class ChannelPool {
 public:
  struct Params {
    Deadlines deadlines;
    std::uint64_t max_frame_payload = wire::kDefaultMaxPayload;
  };

  struct Acquired {
    std::unique_ptr<FrameChannel> channel;  ///< null when the dial failed
    bool reused = false;  ///< true: pooled socket — retry-once on failure
  };

  explicit ChannelPool(Params params) : params_(params) {}

  /// Pops the most recently parked channel for host:port, or dials a new
  /// one within the connect deadline. `reused` tells the caller whether a
  /// failure should be retried on a fresh dial (a pooled socket may have
  /// died while parked) or reported.
  Acquired acquire(const std::string& host, std::uint16_t port, NetError* err);

  /// Parks a healthy channel for reuse; beyond four idle channels per
  /// host:port target the channel is simply closed. Never park a channel after a failed or
  /// half-finished exchange.
  void release(const std::string& host, std::uint16_t port,
               std::unique_ptr<FrameChannel> channel);

  /// Closes every idle channel (shutdown path).
  void clear();

  std::size_t idle_count() const;

 private:
  static std::string key_of(const std::string& host, std::uint16_t port) {
    return host + ":" + std::to_string(port);
  }

  Params params_;
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::vector<std::unique_ptr<FrameChannel>>>
      idle_;
};

}  // namespace baps::netio
