// The client side of the wire protocol: a Transport that speaks to a
// ProxyServer over TCP. Each client id gets one persistent proxy connection
// (established lazily with Hello/HelloAck) and one peer listener — an
// EpollFrameServer on one loop thread that answers PeerFetch frames out of
// the client host's browser stores and never times a connection out, so
// the proxy's pooled peer connections stay warm however long they idle.
// Observer traffic (stats, public key, live telemetry) identifies as
// kObserverClientId, registers nothing, and reuses one pooled connection
// across polls.
//
// Failure policy: refused/reset proxy connections are retried with bounded
// backoff (the daemon may still be starting); timeouts are not retried.
// A request that cannot complete after the retry budget is an invariant
// violation — the engine's callers assume fetch() returns a document.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "netio/epoll_server.hpp"
#include "netio/frame_channel.hpp"
#include "netio/retry.hpp"
#include "runtime/transport.hpp"

namespace baps::runtime {

class TcpTransport final : public Transport {
 public:
  struct Params {
    std::string proxy_host = "127.0.0.1";
    std::uint16_t proxy_port = 0;
    /// Deadlines of the proxy and observer connections.
    netio::Deadlines deadlines;
    netio::RetryPolicy retry;
    std::uint64_t max_frame_payload = wire::kDefaultMaxPayload;
  };

  explicit TcpTransport(const Params& params);
  ~TcpTransport() override;
  TcpTransport(const TcpTransport&) = delete;
  TcpTransport& operator=(const TcpTransport&) = delete;

  void bind_peer_host(PeerHost* host) override;
  ProxyCore::Reply fetch(ClientId client, const Url& url, bool avoid_peers,
                         const obs::TraceContext& trace) override;
  bool index_update(ClientId claimed_sender, bool is_add, DocStore::Key key,
                    const crypto::Md5Digest& mac) override;
  crypto::RsaPublicKey proxy_public_key() override;
  ProxyStats stats() override;

  /// Client-side tracer: request frames carry sampled contexts, proxy and
  /// peer channels record frame spans, and the peer listeners record a
  /// peer_transfer span for each serve. Attach before traffic flows.
  void set_tracer(obs::Tracer* tracer) override;

  /// One-shot observer TraceStatsRequest: the proxy's live introspection
  /// JSON (baps.trace_stats.v1), `max_spans` most recent spans included.
  std::string trace_stats(std::uint32_t max_spans);

  /// One-shot observer TimeSeriesRequest: the proxy's live interval window
  /// JSON (baps.timeseries_window.v1), up to `max_intervals` most recent
  /// interval records (0 = everything in the sampler's ring).
  std::string time_series(std::uint32_t max_intervals);

  // --- fault injection ----------------------------------------------------
  /// Kills `client`'s peer listener without telling the proxy: its index
  /// registration stays, so the next peer fetch routed there finds a dead
  /// port and must degrade to an origin fetch within the peer deadline.
  void kill_peer_server(ClientId client);

  /// Frame faults (drop/corrupt) are injected on real wire frames in the
  /// peer-deliver path. Attach before traffic flows.
  void set_fault_plan(fault::FaultPlan* plan) override { plan_ = plan; }

 private:
  /// The proxy connection for `client`, dialing + Hello on first use.
  netio::FrameChannel* channel_for(ClientId client);
  void drop_channel(ClientId client);
  /// One frame on `client`'s peer listener, on its loop thread: answers a
  /// PeerFetch out of the host's browser store, or applies a frame fault.
  bool serve_peer_frame(ClientId client,
                        netio::EpollFrameServer::Connection& conn,
                        const wire::Frame& frame);
  /// Observer exchange over the pooled observer connection (dialed +
  /// Hello(kObserverClientId) on first use, re-dialed after failures).
  bool observer_session(
      const std::function<bool(netio::FrameChannel&, wire::HelloAck&)>& op);

  Params params_;
  PeerHost* host_ = nullptr;
  fault::FaultPlan* plan_ = nullptr;  ///< optional, not owned
  obs::Tracer* tracer_ = nullptr;     ///< optional, not owned
  /// Peer listeners, one per client id; null after kill_peer_server.
  std::vector<std::unique_ptr<netio::EpollFrameServer>> peer_servers_;
  std::vector<std::uint16_t> peer_ports_;
  /// Persistent proxy connections, one per client id.
  std::vector<std::unique_ptr<netio::FrameChannel>> channels_;
  /// The pooled observer connection: Hello'd once as kObserverClientId and
  /// reused across stats/trace/time-series polls (a dashboard polling every
  /// second used to dial a fresh socket per poll). Dropped on any failed
  /// exchange; the next poll re-dials.
  std::unique_ptr<netio::FrameChannel> observer_channel_;
  wire::HelloAck observer_ack_;
};

}  // namespace baps::runtime
