// replay-sim, and the layer replay and simulator rates every traced run
// reports.
#include <algorithm>
#include <chrono>
#include <filesystem>
#include <unistd.h>
#include <unordered_set>

#include "core/runner.hpp"
#include "crypto/watermark.hpp"
#include "index/browser_index.hpp"
#include "runtime/proxy_core.hpp"
#include "runtime/wire_bridge.hpp"
#include "sim/organization.hpp"
#include "store/tiered_store.hpp"
#include "trace/stats.hpp"
#include "wire/messages.hpp"

#include "internal.hpp"

namespace perfbench {

namespace br = baps::runtime;
using baps::trace::Trace;

namespace {

/// Layer-replay sample sizes.
constexpr std::size_t kReplayDocs = 256;
constexpr std::size_t kReplaySigns = 24;
constexpr int kReplayVerifyReps = 8;
constexpr std::size_t kReplayLookups = 20000;

// ---------------------------------------------------------------------------
// replay-sim.

/// Per-request service times of one replay of the BAPS organization: each
/// process() call timed on its own, hits told apart by the miss counter.
struct TimedReplay {
  double p50_ms = 0.0, p90_ms = 0.0, p99_ms = 0.0;
  double hit_p50_ms = 0.0, hit_p90_ms = 0.0, hit_p99_ms = 0.0;
  double seconds = 0.0;
};

TimedReplay timed_replay(const baps::sim::SimConfig& cfg, const Trace& trace,
                         std::vector<double>& all, std::vector<double>& hits) {
  all.clear();
  hits.clear();
  const double t0 = now_s();
  const auto org = baps::sim::Organization::create(
      baps::sim::OrgKind::kBrowsersAware, cfg, trace.num_clients());
  const baps::sim::Metrics& m = org->metrics();
  for (const baps::trace::Request& req : trace.requests()) {
    org->churn_step(req);
    const std::uint64_t misses = m.misses;
    const auto a = std::chrono::steady_clock::now();
    org->process(req);
    const auto b = std::chrono::steady_clock::now();
    const double ms = std::chrono::duration<double, std::milli>(b - a).count();
    all.push_back(ms);
    if (m.misses == misses) hits.push_back(ms);
  }
  org->finish();
  TimedReplay out;
  out.seconds = now_s() - t0;
  std::sort(all.begin(), all.end());
  std::sort(hits.begin(), hits.end());
  constexpr double kTickMs = 1e-6;  // steady_clock reads whole nanoseconds
  out.p50_ms = grouped_quantile(all, 0.5, kTickMs);
  out.p90_ms = grouped_quantile(all, 0.9, kTickMs);
  out.p99_ms = grouped_quantile(all, 0.99, kTickMs);
  out.hit_p50_ms = grouped_quantile(hits, 0.5, kTickMs);
  out.hit_p90_ms = grouped_quantile(hits, 0.9, kTickMs);
  out.hit_p99_ms = grouped_quantile(hits, 0.99, kTickMs);
  return out;
}

void check_sim(Result& r, const baps::sim::Metrics& m, const Trace& trace,
               std::uint64_t expected_hits) {
  const std::uint64_t located = m.local_browser_hits + m.proxy_hits +
                                m.remote_browser_hits + m.misses;
  const bool ok = located == trace.size() && m.hits.hits() == expected_hits;
  r.attempted += trace.size();
  if (!ok) r.failed += trace.size();
  r.check(located == trace.size(),
          "hit locations sum to " + std::to_string(located) + " of " +
              std::to_string(trace.size()) + " requests");
  r.check(m.hits.hits() == expected_hits, "replays of one trace disagree");
}

}  // namespace

Result run_replay_sim(const RunOptions& o) {
  Result r;
  std::vector<double> setup_s, generate_s;
  Trace trace;
  baps::sim::SimConfig cfg;
  for (int k = 0; k < kSetups; ++k) {
    const double t0 = now_s();
    trace = make_trace(o.workload, o.seed);
    generate_s.push_back(now_s() - t0);
    cfg = baps::core::build_config(baps::trace::compute_stats(trace), {});
    setup_s.push_back(now_s() - t0);
  }
  const auto bu = baps::sim::OrgKind::kBrowsersAware;
  const baps::sim::Metrics reference =
      baps::sim::run_organization(bu, cfg, trace);
  const std::uint64_t expected_hits = reference.hits.hits();
  std::vector<double> all, hits;

  if (o.traced) {
    Table t(per_layer_metrics());
    t.set("trace.generate_s", quantile(generate_s, 0.5));
    const auto rates = sim_rates(trace, o.seconds * 0.1);
    set_sim_rates(t, rates);
    std::vector<double> timed_s, p99, hit_p99;
    double timed_busy = 0.0;
    while (timed_busy < o.seconds * 0.2 || timed_s.empty()) {
      const TimedReplay tr = timed_replay(cfg, trace, all, hits);
      timed_s.push_back(tr.seconds);
      p99.push_back(tr.p99_ms);
      hit_p99.push_back(tr.hit_p99_ms);
      timed_busy += tr.seconds;
    }
    t.set("bench.fetch_p99_ms", quantile(p99, 0.5));
    t.set("bench.hit_p99_ms", quantile(hit_p99, 0.5));
    // The per-request clock reads are this workload's tracing.
    t.set("bench.trace_overhead_ratio",
          ratio(static_cast<double>(trace.size()) / quantile(timed_s, 0.5),
                rates.at(bu)));
    std::vector<std::uint32_t> served(trace.size());
    for (std::uint32_t i = 0; i < trace.size(); ++i) served[i] = i;
    ReplayInputs in = replay_inputs(trace, served, {});
    in.clients = trace.num_clients();
    replay_layers(in, o.work_dir, t);
    t.set("bench.generator_threads", 1);
    check_sim(r, reference, trace, expected_hits);
    t.emit(r);
    return r;
  }

  // Medians over replays, as on the fetch workloads' slices: one replay is
  // ~45 ms and the host's speed drifts within seconds.
  const double start = now_s();
  std::vector<double> replay_s, replay_cpu_ms;
  while (now_s() < start + o.seconds * 0.6 || replay_s.empty()) {
    const double cpu0 = usage_now().cpu_s;
    const double t0 = now_s();
    const baps::sim::Metrics m = baps::sim::run_organization(bu, cfg, trace);
    replay_s.push_back(now_s() - t0);
    replay_cpu_ms.push_back((usage_now().cpu_s - cpu0) * 1e3);
    check_sim(r, m, trace, expected_hits);
  }
  std::vector<double> p50, p90, hit_p50, hit_p90;
  while (now_s() < start + o.seconds || p50.empty()) {
    const TimedReplay tr = timed_replay(cfg, trace, all, hits);
    p50.push_back(tr.p50_ms);
    p90.push_back(tr.p90_ms);
    hit_p50.push_back(tr.hit_p50_ms);
    hit_p90.push_back(tr.hit_p90_ms);
  }
  const Usage after = usage_now();

  const baps::sim::Metrics plb = baps::sim::run_organization(
      baps::sim::OrgKind::kProxyAndLocalBrowser, cfg, trace);
  r.check(reference.hit_ratio() >= plb.hit_ratio(),
          "BAPS hit ratio below proxy-and-local-browser on the same trace");

  Table t(end_to_end_metrics());
  t.set("setup_s", quantile(setup_s, 0.5));
  const auto per_trace = static_cast<double>(trace.size());
  t.set("fetch_rps", per_trace / quantile(replay_s, 0.5));
  t.set("fetch_p50_ms", quantile(p50, 0.5));
  t.set("fetch_p90_ms", quantile(p90, 0.5));
  t.set("hit_p50_ms", quantile(hit_p50, 0.5));
  t.set("hit_p90_ms", quantile(hit_p90, 0.5));
  t.set("hit_ratio", reference.hit_ratio());
  t.set("cpu_ms_per_request", quantile(replay_cpu_ms, 0.5) / per_trace);
  t.set("peak_rss_mb", after.peak_rss_mb);
  t.emit(r);
  return r;
}

// ---------------------------------------------------------------------------
// Layer replay: the documents and keys the traced run touched, fed back
// through each layer's public functions one call at a time. Without a
// workload store (replay-sim) the store replay uses fetch-cold's: 64 KiB of
// RAM in front of the durable tier.

void replay_layers(const ReplayInputs& in, const std::string& work_dir,
                   Table& t) {
  br::ProxyCore::Params cp;
  cp.num_clients = in.clients;
  cp.seed = kSystemSeed;
  const br::ProxyCore keys(cp);  // the same key pair the proxy signs with
  const br::OriginServer origin(kSystemSeed);

  std::vector<double> body_us;
  std::vector<br::Document> docs;
  for (const std::string& url : in.urls) {
    const double t0 = now_s();
    std::string body = origin.fetch(url);
    body_us.push_back((now_s() - t0) * 1e6);
    docs.push_back({std::move(body), {}});
  }
  t.set("origin.body_us", mean(body_us));

  std::vector<double> sign_ms;
  std::vector<br::Document> signed_docs;
  for (const std::string& url : in.sign_urls) {
    br::Document d{origin.fetch(url), {}};
    const double t0 = now_s();
    d.mark = baps::crypto::issue_watermark(d.body, keys.private_key());
    sign_ms.push_back((now_s() - t0) * 1e3);
    signed_docs.push_back(std::move(d));
  }
  t.set("crypto.sign_ms", mean(sign_ms));

  std::vector<double> verify_ms;
  for (int rep = 0; rep < kReplayVerifyReps; ++rep) {
    for (const br::Document& d : signed_docs) {
      const double t0 = now_s();
      const bool ok =
          baps::crypto::verify_watermark(d.body, d.mark, keys.public_key());
      verify_ms.push_back((now_s() - t0) * 1e3);
      if (!ok) throw std::runtime_error("layer replay: watermark rejected");
    }
  }
  t.set("crypto.verify_ms", mean(verify_ms));
  for (std::size_t i = 0; i < docs.size() && !signed_docs.empty(); ++i) {
    docs[i].mark = signed_docs[i % signed_docs.size()].mark;
  }

  {
    baps::store::TieredObjectStore::Params sp;
    sp.ram_bytes = in.proxy_ram_bytes;
    const std::string dir = work_dir + "/replay-" + std::to_string(::getpid());
    std::filesystem::remove_all(dir);
    if (in.durable_tier) sp.disk.dir = dir;
    baps::store::TieredObjectStore store(sp);
    std::string error;
    if (!store.open(&error)) throw std::runtime_error("layer replay: " + error);
    std::vector<double> put_us, get_us;
    for (std::size_t i = 0; i < docs.size(); ++i) {
      const double t0 = now_s();
      store.put(br::url_key(in.urls[i]), docs[i]);
      put_us.push_back((now_s() - t0) * 1e6);
    }
    for (const std::string& url : in.urls) {
      const double t0 = now_s();
      const auto doc = store.get(br::url_key(url));
      get_us.push_back((now_s() - t0) * 1e6);
    }
    t.set("store.put_us", mean(put_us));
    t.set("store.get_us", mean(get_us));
    std::filesystem::remove_all(dir);
  }

  {
    // Lookups are ~10 ns: time the whole pass, not each call.
    baps::index::BrowserIndex index(in.clients);
    for (const auto& [client, key] : in.requests) index.add(client, key);
    std::size_t found = 0;
    const double t0 = now_s();
    for (const auto& [client, key] : in.requests) {
      if (index.find_holder(key, client).has_value()) ++found;
    }
    const double elapsed = now_s() - t0;
    t.set("index.find_holder_us",
          ratio(elapsed * 1e6, static_cast<double>(in.requests.size())));
    // Consumes the lookups' results so the loop cannot be elided.
    if (found > in.requests.size()) throw std::logic_error("unreachable");
  }

  std::vector<double> codec_us;
  for (const br::Document& d : docs) {
    baps::wire::FetchResponse m;
    m.body = d.body;
    m.watermark = br::watermark_to_bytes(d.mark);
    const double t0 = now_s();
    const std::string bytes = baps::wire::encode(m);
    baps::wire::FetchResponse back;
    const bool ok = baps::wire::decode(bytes, &back);
    codec_us.push_back((now_s() - t0) * 1e6);
    if (!ok) throw std::runtime_error("layer replay: decode failed");
  }
  t.set("wire.codec_us", mean(codec_us));
}

ReplayInputs replay_inputs(const Trace& trace,
                           const std::vector<std::uint32_t>& served,
                           const std::vector<std::uint32_t>& origin_served) {
  ReplayInputs in;
  std::unordered_set<std::string> seen;
  for (const std::uint32_t i : served) {
    const std::string url = trace.url_of(trace.requests()[i].doc);
    if (in.requests.size() < kReplayLookups) {
      in.requests.emplace_back(trace.requests()[i].client, br::url_key(url));
    }
    if (in.urls.size() < kReplayDocs && seen.insert(url).second) {
      in.urls.push_back(url);
    }
  }
  for (const std::uint32_t i : origin_served) {
    if (in.sign_urls.size() == kReplaySigns) break;
    in.sign_urls.push_back(trace.url_of(trace.requests()[i].doc));
  }
  for (const std::string& url : in.urls) {
    if (in.sign_urls.size() == kReplaySigns) break;
    in.sign_urls.push_back(url);
  }
  return in;
}

/// Requests per second of each organization on `trace`: its median replay
/// over at least `min_seconds` of replays.
std::map<baps::sim::OrgKind, double> sim_rates(const Trace& trace,
                                               double min_seconds) {
  const baps::sim::SimConfig cfg =
      baps::core::build_config(baps::trace::compute_stats(trace), {});
  std::map<baps::sim::OrgKind, double> rates;
  for (const baps::sim::OrgKind kind : baps::sim::kAllOrganizations) {
    std::vector<double> replay_s;
    double busy = 0.0;
    while (busy < min_seconds || replay_s.empty()) {
      const double t0 = now_s();
      baps::sim::run_organization(kind, cfg, trace);
      replay_s.push_back(now_s() - t0);
      busy += replay_s.back();
    }
    rates[kind] = static_cast<double>(trace.size()) / quantile(replay_s, 0.5);
  }
  return rates;
}

void set_sim_rates(Table& t,
                   const std::map<baps::sim::OrgKind, double>& rates) {
  for (const auto& [kind, rps] : rates) {
    if (kind != baps::sim::OrgKind::kBrowsersAware) {
      t.set(org_metric(kind), rps);
    }
  }
}

}  // namespace perfbench
