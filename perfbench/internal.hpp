// Private to baps_perfbench: what workloads.cpp, fetch.cpp and
// replay.cpp share.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

#include "runtime/types.hpp"
#include "sim/config.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Set-up runs this many times per untraced run; setup_s is the median.
inline constexpr int kSetups = 5;

std::string org_metric(baps::sim::OrgKind kind);

/// Collects metric values by name and emits them in catalog order, so every
/// run prints exactly the catalog's names. Layers a workload never enters
/// report 0 (e.g. the socket layers on replay-sim).
class Table {
 public:
  explicit Table(const std::vector<MetricDef>& defs) : defs_(defs) {}
  void set(const std::string& name, double value) {
    const bool known = std::any_of(defs_.begin(), defs_.end(),
                                   [&](const MetricDef& d) {
                                     return d.name == name;
                                   });
    if (!known) throw std::logic_error("metric not in catalog: " + name);
    values_[name] = value;
  }
  void emit(Result& r) const {
    for (const MetricDef& d : defs_) {
      const auto it = values_.find(d.name);
      r.add(d.name, it == values_.end() ? 0.0 : it->second, d.unit);
    }
  }

 private:
  const std::vector<MetricDef>& defs_;
  std::map<std::string, double> values_;
};

inline double ratio(double num, double den) {
  return den > 0.0 ? num / den : 0.0;
}

/// Layer replay: the documents and keys a traced run touched, fed back
/// through each layer's public functions one call at a time.
struct ReplayInputs {
  std::vector<std::string> urls;       ///< distinct, in first-use order
  std::vector<std::string> sign_urls;  ///< origin-served first
  std::vector<std::pair<baps::runtime::ClientId, std::uint64_t>> requests;
  std::uint32_t clients = 4;
  std::uint64_t proxy_ram_bytes = 64 << 10;
  bool durable_tier = true;
};

/// Inputs from the trace positions a run served, in order.
ReplayInputs replay_inputs(const baps::trace::Trace& trace,
                           const std::vector<std::uint32_t>& served,
                           const std::vector<std::uint32_t>& origin_served);
/// Sets the crypto, origin, store, index and codec per-call metrics.
void replay_layers(const ReplayInputs& in, const std::string& work_dir,
                   Table& t);

/// Requests per second of each organization on `trace`: its median replay
/// over at least `min_seconds` of replays.
std::map<baps::sim::OrgKind, double> sim_rates(const baps::trace::Trace& trace,
                                               double min_seconds);
/// Sets sim.rps.<org> for every organization but the browsers-aware one.
void set_sim_rates(Table& t,
                   const std::map<baps::sim::OrgKind, double>& rates);

Result run_fetch(const RunOptions& o);
Result run_replay_sim(const RunOptions& o);

}  // namespace perfbench
