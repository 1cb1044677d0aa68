// The fetch workloads: an epoll ProxyServer and TcpTransport clients in
// this process, driven closed or open loop, checked and measured.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <memory>
#include <thread>
#include <unistd.h>
#include <unordered_map>

#include "internal.hpp"
#include "obs/span.hpp"
#include "runtime/proxy_server.hpp"
#include "runtime/system.hpp"
#include "runtime/tcp_transport.hpp"
#include "store/tiered_store.hpp"

namespace perfbench {

namespace br = baps::runtime;
namespace bo = baps::obs;
using baps::trace::Trace;

namespace {

/// Traced runs: the per-layer self times must sum to the measured browse
/// time within this share (see README.md, "Sum check").
constexpr double kSumTolerance = 0.05;

// ---------------------------------------------------------------------------
// The fetch rig: proxy daemon core + client hosts, all in this process.

/// One generator's client host: a BapsSystem over TcpTransport, behind the
/// timing decorator. Members are declared in dependency order so they are
/// destroyed system first, plan last.
struct ClientHost {
  std::unique_ptr<baps::fault::FaultPlan> plan;
  std::unique_ptr<br::TcpTransport> tcp;
  std::unique_ptr<TimedTransport> timed;
  std::unique_ptr<br::BapsSystem> system;
};

class FetchRig {
 public:
  FetchRig(const FetchShape& shape, std::uint64_t seed, std::string store_dir,
           bool traced)
      : shape_(shape), store_dir_(std::move(store_dir)) {
    if (traced) {
      // Sample rate 1: every request is traced. Each side gets a private
      // registry so its span histograms stay out of the global one.
      bo::Tracer::Params tp;
      tp.seed = kSystemSeed;
      tp.sample_rate = 1.0;
      tp.recent_capacity = 1 << 18;
      tp.service = "proxyd";
      proxy_tracer_ = std::make_unique<bo::Tracer>(tp, &proxy_registry_);
      tp.service = "client";
      client_tracer_ = std::make_unique<bo::Tracer>(tp, &client_registry_);
    }
    br::ProxyServer::Params pp;
    pp.core.num_clients = shape.trace.num_clients;
    pp.core.proxy_cache_bytes = shape.proxy_ram_bytes;
    pp.core.seed = kSystemSeed;
    if (shape.durable_tier) {
      std::filesystem::remove_all(store_dir_);
      pp.core.store.dir = store_dir_;
    }
    pp.event_driven = true;
    server_ = std::make_unique<br::ProxyServer>(pp);
    if (traced) server_->set_tracer(proxy_tracer_.get());
    std::string error;
    if (!server_->start(&error)) {
      throw std::runtime_error("proxy failed to start: " + error);
    }
    hosts_.resize(shape.generator_threads);
    for (std::uint32_t g = 0; g < shape.generator_threads; ++g) {
      ClientHost& h = hosts_[g];
      if (shape.slow_peer_rate > 0.0) {
        baps::fault::FaultRates rates;
        rates.of(baps::fault::FaultKind::kSlowPeer) = shape.slow_peer_rate;
        rates.slow_peer_delay_ms = shape.slow_peer_delay_ms;
        h.plan = std::make_unique<baps::fault::FaultPlan>(seed * 31 + g, rates);
      }
      br::TcpTransport::Params tp;
      tp.proxy_port = server_->port();
      h.tcp = std::make_unique<br::TcpTransport>(tp);
      h.timed = std::make_unique<TimedTransport>(*h.tcp, h.plan.get());
      br::BapsSystem::Params sp;
      sp.num_clients = shape.trace.num_clients;
      sp.browser_cache_bytes = shape.browser_bytes;
      sp.seed = kSystemSeed;
      h.system = std::make_unique<br::BapsSystem>(sp, *h.timed);
      if (traced) h.system->set_tracer(client_tracer_.get());
    }
  }

  ~FetchRig() {
    hosts_.clear();
    server_->stop();
    server_.reset();
    if (shape_.durable_tier) {
      std::error_code ec;
      std::filesystem::remove_all(store_dir_, ec);
    }
  }

  FetchRig(const FetchRig&) = delete;
  FetchRig& operator=(const FetchRig&) = delete;

  br::ProxyServer& server() { return *server_; }
  std::vector<ClientHost>& hosts() { return hosts_; }
  /// The host whose generator browses as `client`.
  ClientHost& host_of(br::ClientId client) {
    return hosts_[hosts_.size() == 1 ? 0 : client];
  }
  bo::Tracer* proxy_tracer() { return proxy_tracer_.get(); }
  bo::Tracer* client_tracer() { return client_tracer_.get(); }

 private:
  FetchShape shape_;
  std::string store_dir_;
  bo::Registry proxy_registry_;
  bo::Registry client_registry_;
  std::unique_ptr<bo::Tracer> proxy_tracer_;
  std::unique_ptr<bo::Tracer> client_tracer_;
  std::unique_ptr<br::ProxyServer> server_;
  std::vector<ClientHost> hosts_;
};

/// browse() under the host's lock (TimedTransport's contract). The client's
/// in-memory message audit log is emptied after every request so memory
/// does not grow with the number of requests served.
br::FetchOutcome browse(ClientHost& h, br::ClientId client,
                        const std::string& url) {
  const std::lock_guard<std::mutex> lock(h.timed->client_mutex());
  br::FetchOutcome out = h.system->browse(client, url);
  h.system->messages().clear();
  return out;
}

/// Set-up warm-up: every shared document fetched once, round-robin over the
/// clients, so browsers and proxy start the timed window populated.
void warm_up(FetchRig& rig, const FetchShape& shape, const Trace& trace) {
  for (std::uint32_t d = 0; d < shape.warm_docs; ++d) {
    const br::ClientId client = d % shape.trace.num_clients;
    ClientHost& h = rig.host_of(client);
    browse(h, client, trace.url_of(d));
    h.timed->take_log();
  }
}

std::string store_dir_for(const std::string& work_dir, int k) {
  return work_dir + "/store-" + std::to_string(::getpid()) + "-" +
         std::to_string(k);
}

struct Setup {
  Trace trace;
  std::unique_ptr<FetchRig> rig;
  double seconds = 0.0;
  double generate_s = 0.0;
};

Setup set_up(const RunOptions& o, const FetchShape& shape, bool traced,
             int k) {
  Setup s;
  const double t0 = now_s();
  s.trace = make_trace(o.workload, o.seed);
  s.generate_s = now_s() - t0;
  s.rig = std::make_unique<FetchRig>(shape, o.seed,
                                     store_dir_for(o.work_dir, k), traced);
  warm_up(*s.rig, shape, s.trace);
  s.seconds = now_s() - t0;
  return s;
}

// ---------------------------------------------------------------------------
// The timed window.

/// One timed browse().
struct Sample {
  double due_s = 0.0;    ///< open loop: scheduled send; closed: = start_s
  double start_s = 0.0;
  double end_s = 0.0;
  double fetch_s = 0.0;  ///< inside TimedTransport::fetch
  double fetch_start_s = 0.0;  ///< the first fetch's interval
  double fetch_end_s = 0.0;
  double index_s = 0.0;  ///< inside TimedTransport::index_update
  std::uint64_t trace_id = 0;
  std::uint64_t body_hash = 0;
  std::uint32_t index = 0;  ///< position in the trace
  std::uint16_t fetches = 0;
  std::uint16_t index_updates = 0;
  std::uint16_t index_removes = 0;
  br::FetchOutcome::Source source = br::FetchOutcome::Source::kOrigin;
  bool verified = false;
  bool tamper_recovered = false;
  bool threw = false;

  double latency_ms() const { return (end_s - due_s) * 1e3; }
  double first_fetch_s() const { return fetch_end_s - fetch_start_s; }
  bool hit() const { return source != br::FetchOutcome::Source::kOrigin; }
};

/// Completions by one instant of the window.
struct Tick {
  double t = 0.0;
  std::uint64_t completed = 0;
};

struct Window {
  std::vector<Sample> samples;
  /// About one per second. Throughput is the median over the slices
  /// between ticks: the host's speed drifts by 10-20% within seconds (it is
  /// shared), and the median slice is steadier than the mean.
  std::vector<Tick> ticks;
  double cpu_s = 0.0;  ///< process CPU time spent in the window
  double start_s = 0.0;
  double last_end_s = 0.0;
  Usage after;
  br::ProxyStats stats_before;
  br::ProxyStats stats_after;
  bo::Snapshot registry_before;
  bo::Snapshot registry_after;
  std::uint64_t disk_appends = 0;
  double max_sessions = 0.0;  ///< netio_connections_active, sampled per request
  std::string first_error;

  double elapsed() const { return last_end_s - start_s; }
  /// Median over the window's slices of at least half a second.
  double slice_rps() const;
};

double Window::slice_rps() const {
  std::vector<double> v;
  for (std::size_t i = 1; i < ticks.size(); ++i) {
    const double dt = ticks[i].t - ticks[i - 1].t;
    if (dt < 0.5) continue;
    const std::uint64_t n = ticks[i].completed - ticks[i - 1].completed;
    v.push_back(static_cast<double>(n) / dt);
  }
  return quantile(v, 0.5);
}

/// One generator thread's assignment and outputs.
struct Generator {
  ClientHost* host = nullptr;
  std::vector<std::uint32_t> order;  ///< trace positions, in trace order
  double phase_s = 0.0;              ///< open loop: offset of its schedule
  std::vector<Sample> samples;
  double max_sessions = 0.0;
  std::string first_error;
};

/// What the generator threads share: the completion count and the ticks,
/// which generator 0 alone records.
struct GenShared {
  const Trace* trace = nullptr;
  double start_s = 0.0;
  double end_s = 0.0;
  double period_s = 0.0;  ///< per-generator interval; 0 = closed loop
  std::atomic<std::uint64_t> completed{0};
  std::vector<Tick> ticks;
};

/// One generator thread: browses its share of the trace in order, closed
/// loop (back to back) or open loop (each request at its due time).
void generate(Generator& gen, GenShared& shared, bool ticker) {
  bo::Gauge& sessions =
      bo::Registry::global().gauge("netio_connections_active");
  ClientHost& host = *gen.host;
  double next_tick = shared.start_s + 1.0;
  gen.samples.reserve(gen.order.size());
  for (std::size_t k = 0; k < gen.order.size(); ++k) {
    Sample s;
    if (shared.period_s > 0.0) {
      s.due_s = shared.start_s + gen.phase_s +
                static_cast<double>(k) * shared.period_s;
      if (s.due_s >= shared.end_s) break;
      std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double>(s.due_s))));
    } else if (now_s() >= shared.end_s) {
      break;
    }
    const baps::trace::Request& req = shared.trace->requests()[gen.order[k]];
    const std::string url = shared.trace->url_of(req.doc);
    br::FetchOutcome outcome;
    TimedTransport::CallLog log;
    {
      const std::lock_guard<std::mutex> lock(host.timed->client_mutex());
      host.timed->take_log();
      s.start_s = now_s();
      try {
        outcome = host.system->browse(req.client, url);
      } catch (const std::exception& e) {
        s.threw = true;
        if (gen.first_error.empty()) gen.first_error = e.what();
      }
      s.end_s = now_s();
      log = host.timed->take_log();
      host.system->messages().clear();
    }
    const std::uint64_t completed = ++shared.completed;
    if (shared.period_s <= 0.0) s.due_s = s.start_s;
    s.fetch_s = log.fetch_s;
    s.fetch_start_s = log.first_fetch_start_s;
    s.fetch_end_s = log.first_fetch_end_s;
    s.index_s = log.index_s;
    s.fetches = static_cast<std::uint16_t>(log.fetches);
    s.index_updates = static_cast<std::uint16_t>(log.index_updates);
    s.index_removes = static_cast<std::uint16_t>(log.index_removes);
    s.trace_id = log.trace_id;
    s.index = gen.order[k];
    s.source = outcome.source;
    s.verified = outcome.verified;
    s.tamper_recovered = outcome.tamper_recovered;
    s.body_hash = fnv1a(outcome.body);
    gen.samples.push_back(s);
    gen.max_sessions = std::max(gen.max_sessions, sessions.value());
    if (ticker && s.end_s >= next_tick) {
      shared.ticks.push_back({s.end_s, completed});
      next_tick = s.end_s + 1.0;
    }
  }
}

Window measure(FetchRig& rig, const FetchShape& shape, const Trace& trace,
               double seconds) {
  const std::uint32_t threads = shape.generator_threads;
  std::vector<Generator> gens(threads);
  for (std::uint32_t g = 0; g < threads; ++g) gens[g].host = &rig.hosts()[g];
  for (std::uint32_t i = 0; i < trace.size(); ++i) {
    gens[threads == 1 ? 0 : trace.requests()[i].client].order.push_back(i);
  }
  GenShared shared;
  shared.trace = &trace;
  shared.period_s = shape.offered_rps > 0.0 ? threads / shape.offered_rps : 0.0;
  for (std::uint32_t g = 0; g < threads; ++g) {
    gens[g].phase_s = shared.period_s * g / threads;
  }

  Window w;
  const auto disk_appends = [&rig] {
    const baps::store::DiskStore* disk =
        rig.server().core().object_store().disk();
    return disk != nullptr ? disk->stats().appends : 0;
  };
  w.stats_before = rig.server().core().stats();
  w.registry_before = bo::Registry::global().snapshot();
  const std::uint64_t appends_before = disk_appends();
  const double cpu_before = usage_now().cpu_s;
  w.start_s = shared.start_s = now_s();
  shared.end_s = w.start_s + seconds;
  shared.ticks.push_back({w.start_s, 0});
  if (threads == 1) {
    generate(gens[0], shared, /*ticker=*/true);
  } else {
    std::vector<std::thread> pool;
    for (std::uint32_t g = 0; g < threads; ++g) {
      pool.emplace_back([&, g] { generate(gens[g], shared, g == 0); });
    }
    for (std::thread& t : pool) t.join();
  }
  w.after = usage_now();
  shared.ticks.push_back({now_s(), shared.completed.load()});
  w.cpu_s = w.after.cpu_s - cpu_before;
  w.ticks = std::move(shared.ticks);
  w.registry_after = bo::Registry::global().snapshot();
  w.stats_after = rig.server().core().stats();
  w.disk_appends = disk_appends() - appends_before;

  for (Generator& g : gens) {
    w.samples.insert(w.samples.end(), g.samples.begin(), g.samples.end());
    w.max_sessions = std::max(w.max_sessions, g.max_sessions);
    if (w.first_error.empty()) w.first_error = g.first_error;
  }
  std::sort(w.samples.begin(), w.samples.end(),
            [](const Sample& a, const Sample& b) { return a.due_s < b.due_s; });
  w.last_end_s = w.start_s;
  for (const Sample& s : w.samples) {
    w.last_end_s = std::max(w.last_end_s, s.end_s);
  }
  return w;
}

// ---------------------------------------------------------------------------
// Checks and metrics of a fetch window.

/// Correctness of every response plus the validity of the load generator.
void check_window(Result& r, const Window& w, const FetchShape& shape,
                  const Trace& trace, std::size_t client_hosts) {
  const br::OriginServer reference(kSystemSeed);
  std::uint64_t bad = 0;
  std::uint64_t local = 0;
  std::uint64_t retries = 0;  // a §6.1 retry asks the proxy a second time
  std::uint64_t removes = 0;
  for (const Sample& s : w.samples) {
    const std::string body =
        reference.fetch(trace.url_of(trace.requests()[s.index].doc));
    if (s.threw || !s.verified || s.body_hash != fnv1a(body)) ++bad;
    if (s.source == br::FetchOutcome::Source::kLocalBrowser) ++local;
    if (s.tamper_recovered) ++retries;
    removes += s.index_removes;
  }
  const std::uint64_t n = w.samples.size();
  r.attempted += n;
  r.failed += bad;
  r.check(n > 0, "no request completed in the window");
  r.check(bad == 0, std::to_string(bad) +
                        " responses threw, failed verification or differ "
                        "from the origin's body" +
                        (w.first_error.empty() ? "" : ": " + w.first_error));
  // Source counts: the clients' local hits plus what the proxy's own
  // counters say it served (proxy cache, peer, origin) must account for
  // every request attempted.
  const std::uint64_t proxy_served =
      (w.stats_after.proxy_hits - w.stats_before.proxy_hits) +
      (w.stats_after.peer_hits - w.stats_before.peer_hits) +
      (w.stats_after.origin_fetches - w.stats_before.origin_fetches);
  r.check(local + proxy_served == n + retries,
          "source counts: " + std::to_string(local) + " local + " +
              std::to_string(proxy_served) + " proxy-served != " +
              std::to_string(n) + " requests + " + std::to_string(retries) +
              " retries");
  // Load-generator validity: every generator thread and every loaded proxy
  // session must have a core. The gauge also counts one idle observer
  // session per client host (opened to read the proxy's public key).
  const double load_sessions =
      w.max_sessions - static_cast<double>(client_hosts);
  r.check(shape.generator_threads <= cores(),
          "more generator threads than cores");
  r.check(load_sessions <= cores(), "more loaded proxy sessions than cores");
  // With several client hosts, a browser eviction's index remove holds its
  // host lock across a proxy round trip (see TimedTransport) and can stall
  // a concurrent peer leg; the workload is sized so that none happens.
  r.check(shape.generator_threads == 1 || removes == 0,
          std::to_string(removes) + " browser evictions in a multi-host run");
  if (shape.offered_rps > 0.0) {
    std::vector<double> lag;
    for (const Sample& s : w.samples) {
      lag.push_back((s.start_s - s.due_s) * 1e3);
    }
    const double lag_p99 = quantile(lag, 0.99);
    r.check(lag_p99 <= shape.max_generator_lag_ms,
            "generator fell behind: lag p99 " + std::to_string(lag_p99) +
                " ms > " + std::to_string(shape.max_generator_lag_ms) + " ms");
  }
}

/// Latency quantiles of a window: all requests, and hits only.
struct Latencies {
  std::vector<double> all;
  std::vector<double> hits;
};

Latencies latencies(const Window& w) {
  Latencies l;
  for (const Sample& s : w.samples) {
    l.all.push_back(s.latency_ms());
    if (s.hit()) l.hits.push_back(s.latency_ms());
  }
  return l;
}

void end_to_end(Table& t, const Window& w, double setup_s) {
  const Latencies l = latencies(w);
  t.set("setup_s", setup_s);
  t.set("fetch_rps", w.slice_rps());
  t.set("fetch_p50_ms", quantile(l.all, 0.5));
  t.set("fetch_p90_ms", quantile(l.all, 0.9));
  t.set("hit_p50_ms", quantile(l.hits, 0.5));
  t.set("hit_p90_ms", quantile(l.hits, 0.9));
  t.set("hit_ratio", ratio(static_cast<double>(l.hits.size()),
                           static_cast<double>(l.all.size())));
  t.set("cpu_ms_per_request",
        ratio(w.cpu_s * 1e3, static_cast<double>(l.all.size())));
  t.set("peak_rss_mb", w.after.peak_rss_mb);
}

/// Span-derived layer times of the traced window. Spans of one browse share
/// its trace id: the client's root span and request frame, the proxy's
/// request decode, stage spans and response frame, and — under the proxy's
/// peer_transfer span — the peer leg's frames and the holder's serve.
///
/// Self times follow the rule "a span's time minus what its children
/// cover". A browse's children are its transport calls (timed by
/// TimedTransport); a fetch's children are the proxy's decode and stage
/// spans, which run back to back on the loop thread, and the two frame
/// sends of the request path. A send keeps only the part of its span that
/// no decode or stage span covers and that lies inside the fetch: a sender
/// descheduled right after its write (the receiver woke on its core) keeps
/// its span open while the receiver works. What the fetch's children leave
/// uncovered is proxy.queue_wait: loopback transit, wake-ups and, under
/// load, the wait for core_mu_.
struct SpanTotals {
  std::vector<double> cache_probe_us, index_lookup_us, peer_transfer_ms,
      origin_fetch_ms, queue_wait_ms, frame_send_us, frame_recv_us;
  std::vector<double> client_self_ms;
  double self_sum_s = 0.0;    ///< Σ per-request layer self times
  double browse_sum_s = 0.0;  ///< Σ per-request browse times
  std::size_t incomplete = 0;  ///< fetches without a root or decode span
};

SpanTotals span_totals(FetchRig& rig, const Window& w) {
  struct Tagged {
    bo::SpanRecord span;
    bool proxy = false;  ///< recorded by the proxy's tracer
  };
  std::unordered_map<std::uint64_t, std::vector<Tagged>> by_trace;
  for (bo::Tracer* tracer : {rig.proxy_tracer(), rig.client_tracer()}) {
    for (const bo::SpanRecord& s : tracer->recent_spans(0)) {
      by_trace[s.trace_id].push_back({s, tracer == rig.proxy_tracer()});
    }
  }
  const auto secs = [](std::uint64_t ns) {
    return static_cast<double>(ns) * 1e-9;
  };
  SpanTotals t;
  for (const Sample& s : w.samples) {
    const double browse_s = s.end_s - s.start_s;
    const double client_self_s =
        std::max(0.0, browse_s - s.fetch_s - s.index_s);
    t.client_self_ms.push_back(client_self_s * 1e3);
    double self_s = client_self_s + s.index_s + (s.fetch_s - s.first_fetch_s());
    if (s.fetches > 0) {
      const std::vector<Tagged>& spans = by_trace[s.trace_id];
      std::uint64_t root = 0;
      for (const Tagged& x : spans) {
        if (x.span.kind == bo::SpanKind::kClientFetch &&
            x.span.parent_id == 0) {
          root = x.span.span_id;
        }
      }
      // Decode and stage spans: the proxy's work for this request. Their
      // durations are NOT clipped to the fetch, so spans that do not fit
      // inside the client's own timing break the sum check below.
      std::vector<std::pair<double, double>> work;
      double work_s = 0.0;
      const std::size_t decodes_before = t.frame_recv_us.size();
      for (const Tagged& tagged : spans) {
        const bo::SpanRecord& x = tagged.span;
        const double d = secs(x.duration_ns());
        std::vector<double>* bucket = nullptr;
        double scale = 1e6;
        switch (x.kind) {
          case bo::SpanKind::kCacheProbe: bucket = &t.cache_probe_us; break;
          case bo::SpanKind::kIndexLookup: bucket = &t.index_lookup_us; break;
          case bo::SpanKind::kPeerTransfer:
            // The proxy's peer_transfer spans only: the holder's serve span
            // shares the kind but hangs under the proxy's.
            if (x.parent_id != root) continue;
            bucket = &t.peer_transfer_ms;
            scale = 1e3;
            break;
          case bo::SpanKind::kOriginFetch:
            bucket = &t.origin_fetch_ms;
            scale = 1e3;
            break;
          case bo::SpanKind::kFrameRecv:
            // The epoll loop's request decode. Blocking channels' recv spans
            // also cover the wait for the frame, so they are not layer time.
            if (x.parent_id != root || !tagged.proxy) continue;
            bucket = &t.frame_recv_us;
            break;
          default: continue;
        }
        bucket->push_back(d * scale);
        work.emplace_back(secs(x.start_ns), secs(x.end_ns));
        work_s += d;
      }
      if (root == 0 || t.frame_recv_us.size() == decodes_before) ++t.incomplete;
      std::sort(work.begin(), work.end());
      double send_s = 0.0;
      for (const Tagged& tagged : spans) {
        const bo::SpanRecord& x = tagged.span;
        if (x.kind != bo::SpanKind::kFrameSend || x.parent_id != root) continue;
        double lo = std::max(secs(x.start_ns), s.fetch_start_s);
        const double hi = std::min(secs(x.end_ns), s.fetch_end_s);
        double own = 0.0;
        for (const auto& [a, b] : work) {  // back to back, sorted by start
          if (b <= lo || a >= hi) continue;
          own += std::max(0.0, a - lo);
          lo = std::max(lo, b);
        }
        own += std::max(0.0, hi - lo);
        t.frame_send_us.push_back(own * 1e6);
        send_s += own;
      }
      const double queue_s = std::max(0.0, s.first_fetch_s() - work_s - send_s);
      t.queue_wait_ms.push_back(queue_s * 1e3);
      self_s += work_s + send_s + queue_s;
    }
    t.self_sum_s += self_s;
    t.browse_sum_s += browse_s;
  }
  return t;
}

/// Every per-layer metric of a traced fetch window.
void layer_metrics(Table& t, Result& r, FetchRig& rig, const Window& w,
                   const FetchShape& shape, const Trace& trace,
                   const std::string& work_dir) {
  const double n = static_cast<double>(w.samples.size());
  std::vector<double> browse_ms, fetch_ms, lag_ms;
  double index_s = 0.0, index_calls = 0.0, verifies = 0.0;
  std::vector<std::uint32_t> served, origin_served;
  for (const Sample& s : w.samples) {
    browse_ms.push_back((s.end_s - s.start_s) * 1e3);
    if (s.fetches > 0) fetch_ms.push_back(s.fetch_s * 1e3 / s.fetches);
    index_s += s.index_s;
    index_calls += s.index_updates;
    verifies += s.tamper_recovered ? 2.0 : 1.0;
    lag_ms.push_back((s.start_s - s.due_s) * 1e3);
    served.push_back(s.index);
    if (!s.hit()) origin_served.push_back(s.index);
  }
  t.set("client.browse_p50_ms", quantile(browse_ms, 0.5));
  t.set("client.browse_p99_ms", quantile(browse_ms, 0.99));
  t.set("transport.fetch_p50_ms", quantile(fetch_ms, 0.5));
  t.set("transport.fetch_p99_ms", quantile(fetch_ms, 0.99));
  t.set("transport.index_update_ms", ratio(index_s * 1e3, index_calls));
  t.set("transport.index_updates_per_request", ratio(index_calls, n));
  t.set("crypto.verifies_per_request", ratio(verifies, n));
  t.set("bench.generator_lag_p99_ms",
        shape.offered_rps > 0.0 ? quantile(lag_ms, 0.99) : 0.0);

  const SpanTotals spans = span_totals(rig, w);
  t.set("client.self_ms", mean(spans.client_self_ms));
  t.set("proxy.cache_probe_us", mean(spans.cache_probe_us));
  t.set("proxy.index_lookup_us", mean(spans.index_lookup_us));
  t.set("proxy.peer_transfer_ms", mean(spans.peer_transfer_ms));
  t.set("proxy.origin_fetch_ms", mean(spans.origin_fetch_ms));
  t.set("proxy.queue_wait_ms", mean(spans.queue_wait_ms));
  t.set("wire.frame_send_us", mean(spans.frame_send_us));
  t.set("wire.frame_recv_us", mean(spans.frame_recv_us));
  const double sum_gap = std::abs(spans.self_sum_s - spans.browse_sum_s);
  const double sum_error = ratio(sum_gap, spans.browse_sum_s);
  t.set("bench.sum_check_error", sum_error);
  r.check(spans.incomplete == 0, std::to_string(spans.incomplete) +
                                     " traced fetches lack their root or "
                                     "request-decode span");
  r.check(sum_error <= kSumTolerance,
          "layer self times sum to " + std::to_string(spans.self_sum_s) +
              " s against " + std::to_string(spans.browse_sum_s) +
              " s of browse time");

  const auto delta = [&w](const std::string& name, const bo::Labels& l = {}) {
    return static_cast<double>(counter_sum(w.registry_after, name, l) -
                               counter_sum(w.registry_before, name, l));
  };
  const double origin = static_cast<double>(w.stats_after.origin_fetches -
                                            w.stats_before.origin_fetches);
  const double peer_hits = static_cast<double>(w.stats_after.peer_hits -
                                               w.stats_before.peer_hits);
  const double false_fwd = static_cast<double>(w.stats_after.false_forwards -
                                               w.stats_before.false_forwards);
  t.set("crypto.signs_per_request", ratio(origin, n));
  t.set("store.demotions_per_request",
        ratio(delta("store_demotions_total"), n));
  t.set("store.appends_per_request",
        ratio(static_cast<double>(w.disk_appends), n));
  t.set("index.false_forward_ratio", ratio(false_fwd, peer_hits + false_fwd));
  t.set("index.peer_hit_share", ratio(peer_hits, n));
  const double reuse = delta("netio_pool_reuse_total");
  t.set("netio.pool_reuse_ratio",
        ratio(reuse, reuse + delta("netio_pool_dial_total")));
  const bo::Labels fetch_op = {{"op", "fetch"}};
  const HistTotals h0 =
      histogram_totals(w.registry_before, "netio_request_seconds", fetch_op);
  const HistTotals h1 =
      histogram_totals(w.registry_after, "netio_request_seconds", fetch_op);
  const auto fetches = static_cast<double>(h1.count - h0.count);
  t.set("netio.proxy_fetch_ms", ratio((h1.sum - h0.sum) * 1e3, fetches));
  t.set("netio.epoll_wakeups_per_request",
        ratio(delta("netio_epoll_wakeups_total"), n));
  const bo::Labels tx = {{"dir", "tx"}};
  t.set("wire.bytes_per_request", ratio(delta("wire_bytes_total", tx), n));
  t.set("wire.frames_per_request", ratio(delta("wire_frames_total", tx), n));
  t.set("bench.load_connections",
        w.max_sessions - static_cast<double>(rig.hosts().size()));
  t.set("bench.generator_threads", shape.generator_threads);
  t.set("bench.fail_ratio", ratio(static_cast<double>(r.failed),
                                  static_cast<double>(r.attempted)));

  ReplayInputs in = replay_inputs(trace, served, origin_served);
  in.clients = shape.trace.num_clients;
  in.proxy_ram_bytes = shape.proxy_ram_bytes;
  in.durable_tier = shape.durable_tier;
  replay_layers(in, work_dir, t);
}

}  // namespace

Result run_fetch(const RunOptions& o) {
  const FetchShape shape = fetch_shape(o.workload);
  Result r;
  if (!o.traced) {
    std::vector<double> setup_s;
    Setup kept;
    for (int k = 0; k < kSetups; ++k) {
      kept = Setup{};  // tears the previous rig down before the next set-up
      kept = set_up(o, shape, /*traced=*/false, k);
      setup_s.push_back(kept.seconds);
    }
    const Window w = measure(*kept.rig, shape, kept.trace, o.seconds);
    check_window(r, w, shape, kept.trace, kept.rig->hosts().size());
    Table t(end_to_end_metrics());
    end_to_end(t, w, quantile(setup_s, 0.5));
    t.emit(r);
    return r;
  }
  // Traced run: the same trace prefix untraced, then traced, each on a
  // fresh set-up; the throughput ratio is the tracing overhead.
  Table t(per_layer_metrics());
  double untraced_rps = 0.0;
  {
    Setup s = set_up(o, shape, /*traced=*/false, 0);
    const Window w = measure(*s.rig, shape, s.trace, o.seconds / 2);
    check_window(r, w, shape, s.trace, s.rig->hosts().size());
    untraced_rps = w.slice_rps();
    const Latencies l = latencies(w);
    t.set("bench.fetch_p99_ms", quantile(l.all, 0.99));
    t.set("bench.hit_p99_ms", quantile(l.hits, 0.99));
  }
  Setup s = set_up(o, shape, /*traced=*/true, 1);
  const Window w = measure(*s.rig, shape, s.trace, o.seconds / 2);
  check_window(r, w, shape, s.trace, s.rig->hosts().size());
  t.set("trace.generate_s", s.generate_s);
  t.set("bench.trace_overhead_ratio",
        ratio(w.slice_rps(), untraced_rps));
  layer_metrics(t, r, *s.rig, w, shape, s.trace, o.work_dir);
  s.rig.reset();
  set_sim_rates(t, sim_rates(s.trace, 0.05));
  t.emit(r);
  return r;
}

std::vector<std::string> source_stream(Workload w, const Trace& trace,
                                       std::size_t n, bool tcp,
                                       const std::string& work_dir) {
  const FetchShape shape = fetch_shape(w);
  if (shape.generator_threads != 1) {
    throw std::logic_error("source_stream needs a closed-loop workload");
  }
  const std::string dir = store_dir_for(work_dir, tcp ? 90 : 91);
  std::vector<std::string> out;
  if (tcp) {
    FetchRig rig(shape, 1, dir, /*traced=*/false);
    warm_up(rig, shape, trace);
    for (std::size_t i = 0; i < n && i < trace.size(); ++i) {
      const baps::trace::Request& req = trace.requests()[i];
      out.push_back(br::source_name(
          browse(rig.hosts()[0], req.client, trace.url_of(req.doc)).source));
    }
    return out;
  }
  br::BapsSystem::Params sp;
  sp.num_clients = shape.trace.num_clients;
  sp.proxy_cache_bytes = shape.proxy_ram_bytes;
  sp.browser_cache_bytes = shape.browser_bytes;
  sp.seed = kSystemSeed;
  if (shape.durable_tier) {
    std::filesystem::remove_all(dir);
    sp.store.dir = dir;
  }
  {
    br::BapsSystem system(sp);
    for (std::uint32_t d = 0; d < shape.warm_docs; ++d) {
      system.browse(d % shape.trace.num_clients, trace.url_of(d));
    }
    for (std::size_t i = 0; i < n && i < trace.size(); ++i) {
      const baps::trace::Request& req = trace.requests()[i];
      out.push_back(br::source_name(
          system.browse(req.client, trace.url_of(req.doc)).source));
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return out;
}

}  // namespace perfbench
