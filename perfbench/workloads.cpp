#include "workloads.hpp"

#include <algorithm>
#include <filesystem>

#include "internal.hpp"
#include "trace/presets.hpp"

namespace perfbench {

std::string org_metric(baps::sim::OrgKind kind) {
  return "sim.rps." + baps::sim::org_name(kind);
}

const std::vector<MetricDef>& end_to_end_metrics() {
  static const std::vector<MetricDef> defs = {
      {"setup_s", "s"},          {"fetch_rps", "1/s"},
      {"fetch_p50_ms", "ms"},    {"fetch_p90_ms", "ms"},
      {"hit_p50_ms", "ms"},      {"hit_p90_ms", "ms"},
      {"hit_ratio", "ratio"},    {"cpu_ms_per_request", "ms"},
      {"peak_rss_mb", "MB"},
  };
  return defs;
}

const std::vector<MetricDef>& per_layer_metrics() {
  static const std::vector<MetricDef> defs = [] {
    std::vector<MetricDef> d = {
        {"client.browse_p50_ms", "ms"},
        {"client.browse_p99_ms", "ms"},
        {"client.self_ms", "ms"},
        {"transport.fetch_p50_ms", "ms"},
        {"transport.fetch_p99_ms", "ms"},
        {"transport.index_update_ms", "ms"},
        {"transport.index_updates_per_request", "count"},
        {"proxy.cache_probe_us", "us"},
        {"proxy.index_lookup_us", "us"},
        {"proxy.peer_transfer_ms", "ms"},
        {"proxy.origin_fetch_ms", "ms"},
        {"proxy.queue_wait_ms", "ms"},
        {"crypto.sign_ms", "ms"},
        {"crypto.verify_ms", "ms"},
        {"crypto.signs_per_request", "count"},
        {"crypto.verifies_per_request", "count"},
        {"origin.body_us", "us"},
        {"store.put_us", "us"},
        {"store.get_us", "us"},
        {"store.demotions_per_request", "count"},
        {"store.appends_per_request", "count"},
        {"index.find_holder_us", "us"},
        {"index.false_forward_ratio", "ratio"},
        {"index.peer_hit_share", "ratio"},
        {"netio.pool_reuse_ratio", "ratio"},
        {"netio.proxy_fetch_ms", "ms"},
        {"netio.epoll_wakeups_per_request", "count"},
        {"wire.frame_send_us", "us"},
        {"wire.frame_recv_us", "us"},
        {"wire.codec_us", "us"},
        {"wire.bytes_per_request", "B"},
        {"wire.frames_per_request", "count"},
    };
    for (const baps::sim::OrgKind kind : baps::sim::kAllOrganizations) {
      if (kind == baps::sim::OrgKind::kBrowsersAware) continue;  // fetch_rps
      d.push_back({org_metric(kind), "1/s"});
    }
    d.insert(d.end(), {
                          {"trace.generate_s", "s"},
                          {"bench.fetch_p99_ms", "ms"},
                          {"bench.hit_p99_ms", "ms"},
                          {"bench.generator_lag_p99_ms", "ms"},
                          {"bench.trace_overhead_ratio", "ratio"},
                          {"bench.sum_check_error", "ratio"},
                          {"bench.load_connections", "count"},
                          {"bench.generator_threads", "count"},
                          {"bench.fail_ratio", "ratio"},
                      });
    return d;
  }();
  return defs;
}

const std::vector<Workload>& all_workloads() {
  static const std::vector<Workload> all = {
      Workload::kFetchCold, Workload::kFetchShared, Workload::kFetchContended,
      Workload::kReplaySim};
  return all;
}

std::string workload_name(Workload w) {
  switch (w) {
    case Workload::kFetchCold: return "fetch-cold";
    case Workload::kFetchShared: return "fetch-shared";
    case Workload::kFetchContended: return "fetch-contended";
    case Workload::kReplaySim: return "replay-sim";
  }
  return "?";
}

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload w : all_workloads()) {
    if (workload_name(w) == name) return w;
  }
  return std::nullopt;
}

FetchShape fetch_shape(Workload w) {
  FetchShape s;
  baps::trace::GeneratorParams& g = s.trace;
  switch (w) {
    case Workload::kFetchCold:
      // Large universe, re-references only through the temporal stack and
      // Zipf repeats: ~83% of requests reach the origin and get signed. The
      // share keeps fetch_p50 in the middle of the miss mode: with ~60%
      // misses it lies in that mode's lower tail, which only the host's fast
      // phases reach, and it swings by up to 28% from run to run.
      g.num_requests = 100'000;
      g.num_clients = 4;
      g.shared_docs = 200'000;
      g.shared_alpha = 0.6;
      g.private_docs_per_client = 50'000;
      g.shared_prob = 0.5;
      g.temporal_prob = 0.15;
      s.proxy_ram_bytes = 64 << 10;   // far below the bytes fetched: demotes
      s.browser_bytes = 128 << 10;    // browsers evict: index removes flow;
                                      // >90% of the hits stay local
      s.durable_tier = true;
      break;
    case Workload::kFetchShared:
      // 80 shared documents, all signed once in set-up. Browsers hold ~70%
      // of them, the proxy RAM ~25%: requests are local, proxy or peer hits,
      // and fewer than 1% go back to the origin.
      g.num_requests = 100'000;
      g.num_clients = 4;
      g.shared_docs = 80;
      g.private_docs_per_client = 0;
      g.shared_prob = 1.0;
      g.shared_alpha = 0.8;
      g.temporal_prob = 0.1;
      s.proxy_ram_bytes = 24 << 10;
      s.browser_bytes = 64 << 10;
      s.warm_docs = 80;
      break;
    case Workload::kFetchContended:
      // Three independent users (open loop) at a fixed 75 req/s in total:
      // 90% of requests go to 200 shared documents (the 96 most popular
      // warmed), 10% to private ones; ~12% miss, ~13% are peer hits, the
      // rest local. Browsers never evict within a run (TimedTransport's
      // locking relies on it, see harness.hpp). 90% of peer serves stall
      // 10 ms, well under the proxy's 1 s peer read deadline. The shares
      // put fetch_p50 inside the local-hit mode and hit_p90 inside the
      // slow-peer mode: a quantile on the sparse edge between two modes
      // swings from run to run.
      s.generator_threads = 3;
      g.num_requests = 30'000;
      g.num_clients = 3;
      g.shared_docs = 200;
      g.private_docs_per_client = 50'000;
      g.shared_prob = 0.9;
      g.shared_alpha = 0.7;
      g.temporal_prob = 0.35;
      s.proxy_ram_bytes = 24 << 10;
      s.browser_bytes = 8 << 20;
      s.warm_docs = 96;
      s.offered_rps = 75.0;
      s.slow_peer_rate = 0.9;
      s.slow_peer_delay_ms = 10;
      s.max_generator_lag_ms = 50.0;
      break;
    case Workload::kReplaySim:
      throw std::logic_error("replay-sim is not a fetch workload");
  }
  return s;
}

baps::trace::Trace make_trace(Workload w, std::uint64_t seed) {
  if (w == Workload::kReplaySim) {
    return baps::trace::generate_trace(
        workload_name(w),
        baps::trace::preset_params(baps::trace::Preset::kBu95), seed);
  }
  return baps::trace::generate_trace(workload_name(w), fetch_shape(w).trace,
                                     seed);
}

Result run(const RunOptions& options) {
  std::filesystem::create_directories(options.work_dir);
  return options.workload == Workload::kReplaySim ? run_replay_sim(options)
                                                 : run_fetch(options);
}

}  // namespace perfbench
