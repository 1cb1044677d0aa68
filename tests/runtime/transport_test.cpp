#include "runtime/transport.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "obs/registry.hpp"
#include "runtime/loopback_transport.hpp"
#include "runtime/proxy_server.hpp"
#include "runtime/system.hpp"
#include "runtime/tcp_transport.hpp"

namespace baps::runtime {
namespace {

BapsSystem::Params small_params() {
  BapsSystem::Params p;
  p.num_clients = 3;
  p.proxy_cache_bytes = 8 << 10;  // small enough to evict under pressure
  p.browser_cache_bytes = 16 << 10;
  p.seed = 42;
  return p;
}

// Pushes the target document out of the proxy cache so the next request for
// it must route through the browser index (same idiom as system_test.cpp).
void evict_proxy_cache(BapsSystem& sys, ClientId filler_client) {
  for (int i = 0; i < 64; ++i) {
    sys.browse(filler_client, "http://filler.example/" + std::to_string(i));
  }
}

ProxyServer::Params server_params(const BapsSystem::Params& p) {
  ProxyServer::Params sp;
  sp.core.num_clients = p.num_clients;
  sp.core.proxy_cache_bytes = p.proxy_cache_bytes;
  sp.core.seed = p.seed;
  sp.core.rsa_modulus_bits = p.rsa_modulus_bits;
  sp.peer_deadlines = netio::Deadlines{200, 500, 500};
  return sp;
}

TcpTransport::Params transport_params(std::uint16_t port) {
  TcpTransport::Params tp;
  tp.proxy_port = port;
  tp.deadlines = netio::Deadlines{1000, 2000, 2000};
  return tp;
}

// A deterministic little workload with re-references (peer/proxy/local hits),
// spread across clients.
std::vector<std::pair<ClientId, std::string>> workload(std::uint32_t clients,
                                                       int n) {
  std::vector<std::pair<ClientId, std::string>> ops;
  for (int i = 0; i < n; ++i) {
    const auto c =
        static_cast<ClientId>(static_cast<std::uint32_t>(i * 7 + i / 5) %
                              clients);
    const int url = (i * 13) % 17;
    ops.emplace_back(c, "http://doc" + std::to_string(url) + ".test/");
  }
  return ops;
}

TEST(TransportTest, LoopbackExposesEmbeddedProxyState) {
  BapsSystem sys(small_params());
  sys.browse(0, "http://a.test/");
  EXPECT_EQ(sys.origin_fetches(), 1u);
  EXPECT_EQ(sys.origin().fetch_count(), 1u);
  EXPECT_TRUE(sys.browser_index().holds(0, url_key("http://a.test/")));
}

TEST(TransportTest, TcpProxyPublicKeyMatchesTheCore) {
  const auto params = small_params();
  ProxyServer server(server_params(params));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;

  TcpTransport transport(transport_params(server.port()));
  const crypto::RsaPublicKey over_wire = transport.proxy_public_key();
  EXPECT_EQ(over_wire.n, server.core().public_key().n);
  EXPECT_EQ(over_wire.e, server.core().public_key().e);
  server.stop();
}

TEST(TransportTest, TcpFetchOutcomesMatchLoopbackExactly) {
  const auto params = small_params();

  BapsSystem loopback(params);

  ProxyServer server(server_params(params));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  TcpTransport transport(transport_params(server.port()));
  BapsSystem tcp(params, transport);

  for (const auto& [client, url] : workload(params.num_clients, 120)) {
    const FetchOutcome a = loopback.browse(client, url);
    const FetchOutcome b = tcp.browse(client, url);
    ASSERT_EQ(source_name(a.source), source_name(b.source))
        << "diverged at client " << client << " url " << url;
    ASSERT_EQ(a.body, b.body);
    ASSERT_EQ(a.verified, b.verified);
    ASSERT_EQ(a.tamper_recovered, b.tamper_recovered);
  }

  EXPECT_EQ(loopback.local_hits(), tcp.local_hits());
  EXPECT_EQ(loopback.proxy_hits(), tcp.proxy_hits());
  EXPECT_EQ(loopback.peer_hits(), tcp.peer_hits());
  EXPECT_EQ(loopback.origin_fetches(), tcp.origin_fetches());
  EXPECT_EQ(loopback.false_forwards(), tcp.false_forwards());
  server.stop();
}

TEST(TransportTest, TcpTamperedPeerDeliveryIsDetectedAndRecovered) {
  auto params = small_params();
  ProxyServer server(server_params(params));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  TcpTransport transport(transport_params(server.port()));
  BapsSystem sys(params, transport);

  const std::string url = "http://tampered.test/";
  sys.browse(0, url);  // client0 now holds the document
  evict_proxy_cache(sys, 2);
  sys.set_tampering(0, true);

  const FetchOutcome out = sys.browse(1, url);
  EXPECT_TRUE(out.verified);
  EXPECT_TRUE(out.tamper_recovered);
  EXPECT_EQ(out.source, FetchOutcome::Source::kOrigin);
  EXPECT_GE(sys.tamper_detections(), 1u);
  server.stop();
}

TEST(TransportTest, TcpSpoofedIndexRemoveIsRejected) {
  auto params = small_params();
  ProxyServer server(server_params(params));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  TcpTransport transport(transport_params(server.port()));
  BapsSystem sys(params, transport);

  const std::string url = "http://victim.test/";
  sys.browse(1, url);  // client1 registers the document
  evict_proxy_cache(sys, 0);
  EXPECT_FALSE(sys.spoof_index_remove(/*attacker=*/2, /*victim=*/1, url));
  EXPECT_EQ(sys.rejected_index_updates(), 1u);
  // The victim's registration survived: client2's request is served by peer.
  const FetchOutcome out = sys.browse(2, url);
  EXPECT_EQ(out.source, FetchOutcome::Source::kRemoteBrowser);
  server.stop();
}

TEST(TransportTest, DeadPeerDegradesToOriginWithinDeadline) {
  auto params = small_params();
  auto sp = server_params(params);
  ProxyServer server(sp);
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  TcpTransport transport(transport_params(server.port()));
  BapsSystem sys(params, transport);

  const std::string url = "http://dying-peer.test/";
  sys.browse(0, url);  // client0 holds + registers the document
  evict_proxy_cache(sys, 2);
  transport.kill_peer_server(0);

  // The proxy's index still routes to client0's (now dead) peer port. The
  // fetch must not hang: one bounded connect failure, then origin.
  const auto start = std::chrono::steady_clock::now();
  const FetchOutcome out = sys.browse(1, url);
  const auto ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                      std::chrono::steady_clock::now() - start)
                      .count();
  EXPECT_EQ(out.source, FetchOutcome::Source::kOrigin);
  EXPECT_TRUE(out.verified);
  EXPECT_EQ(sys.false_forwards(), 1u);
  EXPECT_LT(ms, 5000) << "dead peer must cost a bounded wait, not a hang";

  // The stale entry was dropped: the next miss goes straight to origin
  // without another false forward.
  sys.browse(2, url);
  EXPECT_EQ(sys.false_forwards(), 1u);
  server.stop();
}

std::uint64_t counter_total(const std::string& name) {
  std::uint64_t total = 0;
  for (const auto& c : obs::Registry::global().snapshot().counters) {
    if (c.name == name) total += c.value;
  }
  return total;
}

TEST(TransportTest, PooledPeerConnectionOutlivesTheReadDeadline) {
  // A holder's peer listener never drops an idle connection, so the proxy's
  // pooled peer connection is still warm after a gap longer than any read
  // deadline: the second peer hit reuses it instead of redialing.
  auto params = small_params();
  ProxyServer server(server_params(params));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  // Short enough to keep the idle gap below brief, long enough that no
  // fetch (an origin fetch signs) runs into it on a loaded machine.
  TcpTransport::Params tp = transport_params(server.port());
  tp.deadlines.read_ms = 500;
  TcpTransport transport(tp);
  BapsSystem sys(params, transport);

  const std::string first = "http://idle-first.test/";
  const std::string second = "http://idle-second.test/";
  sys.browse(0, first);  // client0 holds both documents
  sys.browse(0, second);
  evict_proxy_cache(sys, 2);
  ASSERT_EQ(sys.browse(1, first).source, FetchOutcome::Source::kRemoteBrowser);

  std::this_thread::sleep_for(
      std::chrono::milliseconds(3 * tp.deadlines.read_ms));
  const std::uint64_t reuse_before = counter_total("netio_pool_reuse_total");
  const std::uint64_t dial_before = counter_total("netio_pool_dial_total");
  ASSERT_EQ(sys.browse(1, second).source,
            FetchOutcome::Source::kRemoteBrowser);
  EXPECT_EQ(counter_total("netio_pool_reuse_total"), reuse_before + 1);
  EXPECT_EQ(counter_total("netio_pool_dial_total"), dial_before);
  server.stop();
}

TEST(TransportTest, ObserverConnectionsRegisterNothing) {
  auto params = small_params();
  ProxyServer server(server_params(params));
  std::string error;
  ASSERT_TRUE(server.start(&error)) << error;
  TcpTransport transport(transport_params(server.port()));
  BapsSystem sys(params, transport);

  sys.browse(0, "http://stats.test/");
  const ProxyStats stats = transport.stats();  // transient observer session
  EXPECT_EQ(stats.origin_fetches, 1u);
  EXPECT_EQ(stats.proxy_hits, 0u);
  server.stop();
}

}  // namespace
}  // namespace baps::runtime
