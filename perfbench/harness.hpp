// Measurement plumbing shared by baps_perfbench and its self-tests:
// clocks, quantiles, process resource usage, the result line, and the
// benchmark's Transport decorator that times every client→proxy call.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "fault/fault_plan.hpp"
#include "obs/registry.hpp"
#include "runtime/transport.hpp"
#include "trace/record.hpp"

namespace perfbench {

/// Monotonic clock in seconds (steady_clock; the tracer's time base too).
double now_s();

/// Linear-interpolated quantile (q in [0,1]) of `values`, the definition
/// numpy and Python's statistics module call "inclusive". 0 when empty.
double quantile(std::vector<double> values, double q);
double mean(const std::vector<double>& values);
/// Quantile of readings from a clock that ticks in steps of `tick`, sorted
/// ascending: the reading at the quantile's rank stands for the interval
/// [v - tick/2, v + tick/2), over which its tied readings are spread evenly
/// (the grouped-data quantile). Short intervals read in whole nanoseconds
/// then still yield a continuous estimate. 0 when empty.
double grouped_quantile(const std::vector<double>& sorted, double q,
                        double tick);

/// Process CPU time (user + system, all threads) and peak resident set.
struct Usage {
  double cpu_s = 0.0;
  double peak_rss_mb = 0.0;
};
Usage usage_now();

/// Cores the scheduler gives this process (sched_getaffinity), at least 1.
unsigned cores();

/// FNV-1a over bytes: cheap body fingerprints for the correctness check.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t h = 0xcbf29ce484222325ULL);

/// Digest of a trace's request stream (client, doc, size) and universe.
std::uint64_t trace_digest(const baps::trace::Trace& trace);

/// Sum of every global-registry counter instance named `name` whose labels
/// include all of `match` (empty = every instance).
std::uint64_t counter_sum(const baps::obs::Snapshot& snap,
                          const std::string& name,
                          const baps::obs::Labels& match = {});
/// Count and sum of the histogram `name` with exactly `labels`.
struct HistTotals {
  std::uint64_t count = 0;
  double sum = 0.0;
};
HistTotals histogram_totals(const baps::obs::Snapshot& snap,
                            const std::string& name,
                            const baps::obs::Labels& labels = {});

/// One reported metric, in the order it is printed.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// The benchmark's verdict for one run; printed as the last stdout line.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// Failed checks, one line each (stderr only).
  std::vector<std::string> problems;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a check; a false `ok` makes the run incorrect.
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      problems.push_back(what);
    }
  }
  std::string json() const;
};

/// The benchmark's decorator over the public Transport interface. It times each
/// fetch and index update a BapsSystem makes (the transport layer's busy
/// time, seen from the client), and serializes the client host: a generator
/// thread holds client_mutex() around browse(), and the decorator releases
/// it while a fetch or an index add is on the wire so the proxy can reach
/// this host's peer listener meanwhile. Index removes keep the lock — one
/// may fire from inside a browser-cache insertion, whose store must not be
/// read concurrently.
///
/// With a fault plan, the decorator also plays the slow peer: a share of
/// peer serves (FaultPlan::decide(kSlowPeer)) sleep `slow_peer_delay_ms`
/// before they take the host lock, so the delay stalls the proxy's peer leg
/// but not this host's own browsing.
class TimedTransport final : public baps::runtime::Transport,
                             private baps::runtime::PeerHost {
 public:
  /// What one browse() spent in the transport.
  struct CallLog {
    double fetch_s = 0.0;
    double index_s = 0.0;
    std::uint32_t fetches = 0;
    std::uint32_t index_updates = 0;
    std::uint32_t index_removes = 0;
    std::uint64_t trace_id = 0;  ///< the browse's trace (0 when untraced)
    double first_fetch_start_s = 0.0;  ///< the first fetch's interval
    double first_fetch_end_s = 0.0;
  };

  explicit TimedTransport(baps::runtime::Transport& inner,
                          baps::fault::FaultPlan* slow_peers = nullptr)
      : inner_(inner), slow_peers_(slow_peers) {}
  TimedTransport(const TimedTransport&) = delete;
  TimedTransport& operator=(const TimedTransport&) = delete;

  std::mutex& client_mutex() { return mu_; }
  /// The calls since the last take_log(); resets it.
  CallLog take_log();

  void bind_peer_host(baps::runtime::PeerHost* host) override;
  baps::runtime::ProxyCore::Reply fetch(
      baps::runtime::ClientId client, const baps::runtime::Url& url,
      bool avoid_peers, const baps::obs::TraceContext& trace) override;
  bool index_update(baps::runtime::ClientId claimed_sender, bool is_add,
                    baps::runtime::DocStore::Key key,
                    const baps::crypto::Md5Digest& mac) override;
  baps::crypto::RsaPublicKey proxy_public_key() override {
    return inner_.proxy_public_key();
  }
  baps::runtime::ProxyStats stats() override { return inner_.stats(); }
  void set_fault_plan(baps::fault::FaultPlan* plan) override {
    inner_.set_fault_plan(plan);
  }
  void set_tracer(baps::obs::Tracer* tracer) override {
    inner_.set_tracer(tracer);
  }

 private:
  std::uint32_t num_clients() const override { return host_->num_clients(); }
  std::optional<baps::runtime::Document> serve_peer_fetch(
      baps::runtime::ClientId holder,
      baps::runtime::DocStore::Key key) override;

  baps::runtime::Transport& inner_;
  baps::runtime::PeerHost* host_ = nullptr;
  baps::fault::FaultPlan* slow_peers_;  ///< optional, not owned
  std::mutex mu_;  ///< guards the client host's browser stores
  CallLog log_;    ///< touched only by the thread holding mu_'s browse
};

}  // namespace perfbench
