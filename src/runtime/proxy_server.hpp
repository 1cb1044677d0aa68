// The BAPS proxy daemon core: a ProxyCore served over TCP by one
// EpollFrameServer. Sessions speak the wire protocol — Hello/HelloAck,
// FetchRequest/Response, IndexUpdate/Ack, StatsRequest/Response, Bye — and
// peer fetches go out over pooled connections to the holder's registered
// peer listener, carrying only the document key (§6.2).
//
// The loop thread advances each session's state machine (on_session_frame)
// once per decoded frame, and proxy state is serialized under one mutex, so
// requests are handled one at a time: cache, index, and round-robin
// evolution stay identical to the in-process loopback for any serial client
// workload. The peer leg runs on the loop thread too: a holder that is dead or unreachable
// costs one bounded peer-deadline wait and then degrades to an origin fetch
// (a false forward) — never a hang — but every other session, introspection
// (TraceStats/TimeSeries) included, queues behind it until the peer leg
// goes asynchronous (ROADMAP item 2).
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <unordered_map>

#include "netio/channel_pool.hpp"
#include "netio/epoll_server.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "runtime/proxy_core.hpp"

namespace baps::runtime {

class ProxyServer {
 public:
  struct Params {
    ProxyCore::Params core;
    /// Listener and event loop: host/port, frame limit, idle timeout, drain,
    /// connection ceiling. Peer fetches dial holders on
    /// `net.host` with the same frame limit.
    netio::EpollFrameServer::Params net;
    /// Deadlines for outbound peer fetches — kept short so a dead holder
    /// degrades to origin quickly.
    netio::Deadlines peer_deadlines{500, 1000, 1000};
    /// Compatibility stub, required true: the epoll loop is the only server.
    /// The benchmark's fetch rig still assigns it; the next change to the
    /// benchmark deletes that assignment, and then this field.
    bool event_driven = true;
  };

  explicit ProxyServer(const Params& params);
  ~ProxyServer();
  ProxyServer(const ProxyServer&) = delete;
  ProxyServer& operator=(const ProxyServer&) = delete;

  /// Binds and serves. False (with *error) if the listener cannot bind.
  bool start(std::string* error);
  void stop();

  bool running() const { return server_.running(); }
  std::uint16_t port() const { return server_.port(); }

  /// Direct access to the proxy state, for in-process inspection by tests
  /// and the daemon's shutdown report. Not synchronized with live sessions —
  /// use while no client traffic is in flight, or go through the wire.
  ProxyCore& core() { return core_; }

  /// Attaches the proxy-side tracer: sessions and peer fetches record frame
  /// spans, the core records stage spans, and TraceStatsRequest answers
  /// include its recent spans. Attach before start(); nullptr detaches;
  /// not owned.
  void set_tracer(obs::Tracer* tracer);

  /// Attaches the daemon's time-series sampler, the one source of live
  /// rates: TimeSeriesRequest frames serve its interval ring and
  /// TraceStatsRequest its latest interval. Attach before start(); nullptr
  /// detaches; not owned. Without a sampler both answer an empty window —
  /// still a valid baps.timeseries_window.v1 document.
  void set_sampler(obs::TimeSeriesSampler* sampler);

  /// The baps.trace_stats.v1 introspection document served to
  /// TraceStatsRequest: live registry snapshot with latency quantiles, the
  /// sampler's most recent interval under "window" (counter deltas and
  /// rates), tracer totals, recent spans (up to `max_spans`), and the top-K
  /// slowest trace trees.
  obs::JsonValue trace_stats_json(std::uint32_t max_spans);

 private:
  /// Per-session protocol state, hung off the connection's state slot.
  struct Session {
    bool hello_done = false;
    bool observer = false;
    ClientId client_id = 0;
  };

  /// Advances one session by one inbound frame. Returns false when the
  /// session must end (protocol error, Bye, or a failed send).
  bool on_session_frame(Session& s, netio::EpollFrameServer::Connection& conn,
                        const wire::Frame& frame);

  /// The baps.timeseries_window.v1 envelope of the sampler's last
  /// `max_intervals` intervals (0: the whole ring); empty without a sampler.
  obs::JsonValue window_json(std::size_t max_intervals) const;

  std::optional<Document> peer_fetch(ClientId holder, DocStore::Key key,
                                     const obs::TraceContext& trace);

  Params params_;
  ProxyCore core_;
  std::mutex core_mu_;
  obs::Tracer* tracer_ = nullptr;  ///< optional, not owned
  obs::TimeSeriesSampler* sampler_ = nullptr;  ///< optional, not owned

  std::mutex ports_mu_;
  std::unordered_map<ClientId, std::uint16_t> peer_ports_;

  netio::ChannelPool peer_pool_;
  /// Last member: its loop thread uses everything above.
  netio::EpollFrameServer server_;
};

}  // namespace baps::runtime
