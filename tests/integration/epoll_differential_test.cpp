// The TCP transport equivalence proof: the same 1000-request preset trace
// slice runs through a live TCP proxy (the EpollFrameServer loop, with every
// holder's peer listener on its own EpollFrameServer) and through the
// in-process LoopbackTransport, and must produce
//
//   (1) byte-identical per-request outcomes (source, body, verification),
//   (2) equal final ProxyStats, and
//   (3) on the TCP run, for every wire_frames_total{kind} and for
//       wire_bytes_total, a dir=tx delta equal to the dir=rx delta: every
//       frame one end counts as sent, the other end counts as received,
//       frame for frame and byte for byte.
//
// (3) pits the client-side FrameChannel counting points against the
// server-side EpollFrameServer ones, so any divergence in framing, a resent
// frame, or a short-circuit path shows up as a counter mismatch. It holds
// exactly because the peer listeners never drop an idle connection: a pooled
// peer connection that went stale would cost a redial and a resent
// PeerFetch. Deltas are compared (not absolute values) because
// Registry::global() is shared across every test in this binary.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "obs/registry.hpp"
#include "runtime/proxy_server.hpp"
#include "runtime/system.hpp"
#include "runtime/tcp_transport.hpp"
#include "trace/presets.hpp"

namespace baps::runtime {
namespace {

constexpr std::uint32_t kClients = 8;
constexpr std::uint64_t kSeed = 11;
constexpr std::size_t kRequests = 1000;

struct Outcome {
  std::string source;
  std::string body;
  bool verified = false;

  bool operator==(const Outcome& o) const {
    return source == o.source && body == o.body && verified == o.verified;
  }
};

using WireCounts = std::map<std::string, std::uint64_t>;

/// Every wire_frames_total{kind,dir} and wire_bytes_total{dir} instance,
/// keyed by "name|kind|dir" so the map compares structurally.
WireCounts wire_counts() {
  WireCounts counts;
  for (const obs::CounterSample& c : obs::Registry::global().snapshot().counters) {
    if (c.name != "wire_frames_total" && c.name != "wire_bytes_total") {
      continue;
    }
    std::string key = c.name;
    for (const auto& [k, v] : c.labels) {
      key += "|" + k + "=" + v;
    }
    counts[key] += c.value;
  }
  return counts;
}

WireCounts delta(const WireCounts& before, const WireCounts& after) {
  WireCounts d;
  for (const auto& [key, value] : after) {
    const auto it = before.find(key);
    const std::uint64_t prev = it == before.end() ? 0 : it->second;
    if (value != prev) d[key] = value - prev;
  }
  return d;
}

ProxyServer::Params proxy_params() {
  ProxyServer::Params p;
  p.core.num_clients = kClients;
  p.core.seed = kSeed;
  p.peer_deadlines = netio::Deadlines{300, 1000, 1000};
  return p;
}

BapsSystem::Params system_params() {
  BapsSystem::Params sp;
  sp.num_clients = kClients;
  sp.seed = kSeed;
  return sp;
}

void browse_slice(BapsSystem& system, const trace::Trace& t,
                  std::vector<Outcome>* outcomes) {
  std::size_t done = 0;
  for (const trace::Request& req : t.requests()) {
    if (done == kRequests) break;
    const auto client = static_cast<ClientId>(req.client % kClients);
    const FetchOutcome out = system.browse(client, t.url_of(req.doc));
    outcomes->push_back(
        Outcome{source_name(out.source), out.body, out.verified});
    ++done;
  }
  ASSERT_EQ(done, kRequests) << "preset slice shorter than expected";
}

/// Runs the slice against a fresh TCP proxy and reports outcomes, final
/// proxy stats, and the wire-counter delta attributable to the slice itself
/// (the snapshot window closes before teardown, so Bye/close traffic — which
/// races server shutdown — never enters the comparison).
void run_tcp_slice(const trace::Trace& t, std::vector<Outcome>* outcomes,
                   ProxyStats* stats, WireCounts* wire_delta) {
  const WireCounts before = wire_counts();
  ProxyServer server(proxy_params());
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  TcpTransport::Params tp;
  tp.proxy_port = server.port();
  TcpTransport transport(tp);
  BapsSystem system(system_params(), transport);
  browse_slice(system, t, outcomes);
  *stats = server.core().stats();
  // Close the measurement window while every counted frame is determined:
  // the client holds the last response, so both sides have already counted
  // everything the slice sent.
  *wire_delta = delta(before, wire_counts());
  server.stop();
}

TEST(EpollDifferentialTest, PresetSliceIsBitIdenticalAcrossTransports) {
  const trace::Trace t = trace::load_preset(trace::Preset::kBu95);

  std::vector<Outcome> loopback_outcomes;
  BapsSystem loopback(system_params());
  browse_slice(loopback, t, &loopback_outcomes);

  std::vector<Outcome> tcp_outcomes;
  ProxyStats tcp_stats;
  WireCounts tcp_wire;
  run_tcp_slice(t, &tcp_outcomes, &tcp_stats, &tcp_wire);

  // (1) Per-request outcomes.
  ASSERT_EQ(loopback_outcomes.size(), tcp_outcomes.size());
  for (std::size_t i = 0; i < loopback_outcomes.size(); ++i) {
    ASSERT_TRUE(loopback_outcomes[i] == tcp_outcomes[i])
        << "request " << i << " diverged: loopback="
        << loopback_outcomes[i].source << " tcp=" << tcp_outcomes[i].source;
  }

  // (2) Final proxy counters.
  EXPECT_EQ(loopback.proxy_hits(), tcp_stats.proxy_hits);
  EXPECT_EQ(loopback.peer_hits(), tcp_stats.peer_hits);
  EXPECT_EQ(loopback.origin_fetches(), tcp_stats.origin_fetches);
  EXPECT_EQ(loopback.false_forwards(), tcp_stats.false_forwards);
  EXPECT_EQ(loopback.rejected_index_updates(),
            tcp_stats.rejected_index_updates);

  // (3) Every frame sent was received: each dir=tx instance's delta equals
  // its dir=rx counterpart's, and neither direction has an instance the
  // other lacks.
  ASSERT_FALSE(tcp_wire.empty()) << "the TCP run counted no wire traffic";
  for (const auto& [key, value] : tcp_wire) {
    const std::size_t at = key.find("dir=");
    ASSERT_NE(at, std::string::npos) << key;
    std::string counterpart = key;
    counterpart.replace(at + 4, 2, key.compare(at + 4, 2, "tx") == 0 ? "rx"
                                                                     : "tx");
    const auto it = tcp_wire.find(counterpart);
    ASSERT_NE(it, tcp_wire.end()) << "no counterpart for " << key;
    EXPECT_EQ(value, it->second) << key;
  }
}

}  // namespace
}  // namespace baps::runtime
