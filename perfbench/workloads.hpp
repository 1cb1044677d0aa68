// The benchmark's workloads (see README.md for why each exists and which
// layer metric should move which end-to-end metric on it).
//
//   fetch-cold       closed loop, write path: origin + RSA sign + durable store
//   fetch-shared     closed loop, read path: local / proxy / peer hits + verify
//   fetch-contended  open loop, 3 generator threads, slow peer legs
//   replay-sim       the paper's simulator: the BAPS organization (all five
//                    in the traced run)
//
// The fetch workloads drive an in-process epoll runtime::ProxyServer on
// 127.0.0.1 with runtime::BapsSystem clients over runtime::TcpTransport, so
// every request crosses the host's loopback interface. Every trace comes
// from trace::generate_trace with the run's seed; the proxy's keys and the
// origin's bodies use kSystemSeed, so only the request stream varies.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "harness.hpp"
#include "trace/generator.hpp"

namespace perfbench {

enum class Workload { kFetchCold, kFetchShared, kFetchContended, kReplaySim };

const std::vector<Workload>& all_workloads();
std::string workload_name(Workload w);
std::optional<Workload> parse_workload(std::string_view name);

/// One metric the benchmark reports: its name and unit.
struct MetricDef {
  std::string name;
  std::string unit;
};
/// Printed by every untraced run, in this order.
const std::vector<MetricDef>& end_to_end_metrics();
/// Printed by every traced run, in this order.
const std::vector<MetricDef>& per_layer_metrics();

/// Seed of everything that is configuration rather than input: the proxy's
/// RSA key pair, the client MAC keys and the origin's document bodies.
inline constexpr std::uint64_t kSystemSeed = 7;

/// The shape of one fetch workload.
struct FetchShape {
  /// 1 (browses every client id), or one per client id, each thread with
  /// its own BapsSystem.
  std::uint32_t generator_threads = 1;
  baps::trace::GeneratorParams trace;   ///< num_clients: the proxy's clients
  std::uint64_t proxy_ram_bytes = 0;
  std::uint64_t browser_bytes = 0;
  bool durable_tier = false;            ///< proxy disk tier under work_dir
  std::uint32_t warm_docs = 0;          ///< shared docs fetched in set-up
  double offered_rps = 0.0;             ///< 0 = closed loop
  double slow_peer_rate = 0.0;          ///< share of peer serves delayed
  int slow_peer_delay_ms = 0;
  /// Open loop only: the run is invalid if the generator started a request
  /// later than this after its due time (p99).
  double max_generator_lag_ms = 0.0;
};

FetchShape fetch_shape(Workload w);

/// The workload's request stream for `seed`.
baps::trace::Trace make_trace(Workload w, std::uint64_t seed);

/// Per-request source names ("local-browser", ...) of the first `n` timed
/// requests of a closed-loop fetch workload, after its set-up warm-up. With
/// `tcp` the benchmark's own rig serves them (epoll proxy, TcpTransport
/// clients); without, a loopback BapsSystem with the same parameters does.
std::vector<std::string> source_stream(Workload w,
                                       const baps::trace::Trace& trace,
                                       std::size_t n, bool tcp,
                                       const std::string& work_dir);

struct RunOptions {
  Workload workload = Workload::kFetchCold;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool traced = false;
  std::string work_dir;  ///< created if missing; durable-tier files
};

/// One benchmark run: end-to-end metrics untraced, per-layer metrics traced.
Result run(const RunOptions& options);

}  // namespace perfbench
