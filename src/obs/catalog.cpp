#include "obs/catalog.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <vector>

#include "wire/frame.hpp"

namespace baps::obs {

namespace {

using enum MetricKind;
using enum ValueRule;

constexpr MetricFamily kFamilies[] = {
    // Namespace rules: they apply to every family of the kind under the
    // prefix, next to the family's own row.
    {"wire_", kCounter, "", kNonNegative, true},
    {"netio_", kCounter, "", kNonNegative, true},
    {"netio_", kGauge, "", kNonNegative},
    {"store_", kCounter, "", kNonNegative, true},
    {"connload_", kCounter, "", kNonNegative},
    {"connload_", kGauge, "", kNonNegative},

    // Simulator, sweep runner, thread pool, object caches, event sinks.
    {"sim_requests_total", kCounter},
    {"sim_hits_total", kCounter},
    {"sim_misses_total", kCounter},
    {"runner_run_seconds", kHistogram},
    {"sweep_seconds", kHistogram},
    {"threadpool_tasks_total", kCounter},
    {"threadpool_queue_depth", kGauge},
    {"threadpool_workers", kGauge},
    {"threadpool_busy_seconds_total", kGauge},
    {"threadpool_task_wait_seconds", kHistogram},
    {"threadpool_task_run_seconds", kHistogram},
    {"cache_insertions_total", kCounter},
    {"cache_evictions_total", kCounter},
    {"cache_erases_total", kCounter},
    {"cache_hits_total", kCounter},
    {"cache_rejected_too_large_total", kCounter},
    {"events_dropped_total", kCounter},

    // Runtime proxy.
    {"proxy_fetch_requests_total", kCounter},
    {"proxy_fetch_served_total", kCounter},
    {"proxy_false_forwards_total", kCounter},

    // Wire and socket layers (netio/netio_metrics.hpp).
    {"wire_frames_total", kCounter, "dir=tx|rx"},
    {"wire_bytes_total", kCounter, "dir=tx|rx"},
    {"wire_decode_errors_total", kCounter},
    {"netio_timeouts_total", kCounter},
    {"netio_retries_total", kCounter},
    {"netio_connections_total", kCounter},
    {"netio_accept_errors_total", kCounter},
    {"netio_epoll_wakeups_total", kCounter},
    {"netio_epoll_accept_backpressure_total", kCounter},
    {"netio_epoll_writeq_stall_total", kCounter},
    {"netio_epoll_idle_closes_total", kCounter},
    {"netio_epoll_drained_total", kCounter},
    {"netio_pool_reuse_total", kCounter},
    {"netio_pool_dial_total", kCounter},
    {"netio_pool_discard_total", kCounter},
    {"netio_connections_active", kGauge},
    {"netio_request_seconds", kHistogram},

    // Connection-load bench (bench/bench_connload.cpp).
    {"connload_connections_target", kGauge},
    {"connload_connections_peak", kGauge},
    {"connload_accept_rate_per_second", kGauge},
    {"connload_established_total", kCounter},
    {"connload_connect_failures_total", kCounter},
    {"connload_roundtrips_total", kCounter},
    {"connload_roundtrip_quantile_seconds", kGauge, "q=p50|p99|p999"},
    {"connload_roundtrip_seconds", kHistogram},

    // Fault injection (fault/fault_plan.hpp).
    {"fault_injected_total", kCounter, "kind", kNonNegative},
    {"fault_recovered_total", kCounter, "kind", kNonNegative},
    {"stale_index_hits_total", kCounter, "", kNonNegative},

    // Tracing (obs/span.hpp).
    {"trace_spans_total", kCounter, "kind", kNonNegative},
    {"trace_stage_seconds", kHistogram, "stage", kNonNegative},
    {"latency_quantile_seconds", kGauge, "q=p50|p95|p99|p999 stage",
     kFiniteNonNegative},

    // Durable store (store/tiered_store.hpp).
    {"store_probes_total", kCounter},
    {"store_hits_total", kCounter},
    {"store_misses_total", kCounter},
    {"store_demotions_total", kCounter},
    {"store_promotions_total", kCounter},
    {"store_integrity_failures_total", kCounter},
    {"store_bytes_total", kCounter, "dir=read|written"},
    {"store_stage_seconds", kHistogram, "op", kNonNegative},

    // Sharded replay (sim/sharded_replay.hpp).
    {"shard_requests_total", kCounter, "org shard", kNonNegative, false, true},
    {"shard_merged_requests_total", kCounter, "org", kNonNegative, false, true},
    {"shard_replay_seconds", kGauge},
    {"shard_merge_seconds", kGauge},
    {"shard_count", kGauge},

    // Replay bench (bench/bench_replay.cpp).
    {"replay_requests_per_second", kGauge, "org", kFinitePositive},
    {"replay_latency_quantile_seconds", kGauge, "q=p50|p95|p99|p999 org",
     kFiniteNonNegative},
    {"replay_tracing_overhead_pct", kGauge},
    {"replay_timeseries_overhead_pct", kGauge},
    {"store_replay_requests_per_second", kGauge},
};

enum class Cmp { kAtMost, kEqual };

/// factor × Σ lhs {<= | ==} Σ rhs, per value of the `by` label (all
/// instances form one group when `by` is empty). A group missing on one
/// side sums to 0 under kAtMost and is a violation under kEqual.
struct SumRelation {
  std::string_view lhs;  ///< families summed, space-separated
  double factor;
  Cmp cmp;
  std::string_view rhs;
  std::string_view by;
  std::string_view why;  ///< violation text
};

constexpr SumRelation kSums[] = {
    // A frame never costs fewer bytes than its header.
    {"wire_frames_total", static_cast<double>(wire::kHeaderSize),
     Cmp::kAtMost, "wire_bytes_total", "dir",
     "fewer bytes in wire_bytes_total than frame headers"},
    // A fault is recovered only after it was injected (injecting counts even
    // when recovery fails).
    {"fault_recovered_total", 1.0, Cmp::kAtMost, "fault_injected_total",
     "kind", "exceeds fault_injected_total"},
    // Every disk probe resolves to exactly one of hit or miss (a quarantined
    // corrupt record is a miss: nothing was served).
    {"store_hits_total store_misses_total", 1.0, Cmp::kEqual,
     "store_probes_total", "", "must sum to store_probes_total"},
    // The counter half of the sharded engine's merge contract; every run
    // adds the same total to both sides, so it holds on any snapshot.
    {"shard_requests_total", 1.0, Cmp::kEqual,
     "shard_merged_requests_total", "org",
     "per-shard counts must sum to shard_merged_requests_total"},
    // Peak concurrency never exceeds the connections that ever completed a
    // connect.
    {"connload_connections_peak", 1.0, Cmp::kAtMost,
     "connload_established_total", "", "exceeds connload_established_total"},
};

/// Per value of `scope` (one set when empty), the gauges of `family` are
/// non-decreasing in q, taking q in the order the family's q label rule
/// lists it. A `complete` set must carry every listed q.
struct QuantileSet {
  std::string_view family;
  std::string_view scope;
  bool complete;
};

constexpr QuantileSet kQuantileSets[] = {
    {"latency_quantile_seconds", "stage", false},
    {"replay_latency_quantile_seconds", "org", false},
    // bench_connload emits all three together; a lone quantile means the
    // report was stitched by hand or the bench died mid-emit.
    {"connload_roundtrip_quantile_seconds", "", true},
};

/// One registry instance that has a catalog row and passed its checks.
/// Views point into the checked registry JSON.
struct Instance {
  std::string_view name;
  const JsonValue* labels;
  double value;
  bool monotone;
};

bool fail(std::string* error, std::string what) {
  if (error != nullptr) *error = std::move(what);
  return false;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> parts;
  while (!s.empty()) {
    const std::size_t at = s.find(sep);
    parts.push_back(s.substr(0, at));
    if (at == std::string_view::npos) break;
    s.remove_prefix(at + 1);
  }
  return parts;
}

std::string join(const std::vector<std::string_view>& parts,
                 std::string_view sep) {
  std::string out;
  for (const std::string_view p : parts) {
    if (!out.empty()) out += sep;
    out += p;
  }
  return out;
}

bool contains(const std::vector<std::string_view>& parts,
              std::string_view s) {
  return std::find(parts.begin(), parts.end(), s) != parts.end();
}

/// The string value of label `key` ("" when absent or not a string).
std::string label_text(const JsonValue* labels, std::string_view key) {
  const JsonValue* v =
      labels != nullptr ? labels->find(std::string(key)) : nullptr;
  return v != nullptr && v->is_string() ? v->as_string() : "";
}

/// "name{k=v,...}": how error messages and the monotonicity check name one
/// instance. Snapshots emit labels sorted, so this matches across reports
/// from the same process.
std::string instance_name(std::string_view name, const JsonValue* labels) {
  std::string out(name);
  if (labels == nullptr || !labels->is_object()) return out;
  char sep = '{';
  for (const auto& [k, v] : labels->as_object()) {
    out += sep + k + '=' + (v.is_string() ? v.as_string() : v.dump());
    sep = ',';
  }
  return sep == ',' ? out + '}' : out;
}

std::string scoped(std::string_view name, std::string_view by,
                   const std::string& group) {
  std::string out(name);
  if (!by.empty()) out += "{" + std::string(by) + "=" + group + "}";
  return out;
}

/// What `v` must be under `rule` when it is not, else nullptr.
const char* value_violation(ValueRule rule, const JsonValue* v) {
  const double x = v != nullptr && v->is_number()
                       ? v->as_double()
                       : std::numeric_limits<double>::quiet_NaN();
  switch (rule) {
    case kAny:
      return nullptr;
    case kNonNegative:
      return x >= 0.0 ? nullptr : "a non-negative number";
    case kFiniteNonNegative:
      return std::isfinite(x) && x >= 0.0 ? nullptr
                                          : "finite and non-negative";
    case kFinitePositive:
      return std::isfinite(x) && x > 0.0 ? nullptr : "finite and positive";
  }
  return nullptr;
}

bool check_labels(std::string_view rules, const std::string& who,
                  const JsonValue* labels, std::string* error) {
  for (const std::string_view rule : split(rules, ' ')) {
    const std::size_t eq = rule.find('=');
    const std::string key(rule.substr(0, eq));
    const std::string got = label_text(labels, key);
    if (eq == std::string_view::npos) {
      if (got.empty()) {
        return fail(error, who + ": needs a non-empty " + key + " label");
      }
    } else if (const auto allowed = split(rule.substr(eq + 1), '|');
               !contains(allowed, got)) {
      return fail(error, who + ": " + key + " label must be " +
                             join(allowed, " or "));
    }
  }
  return true;
}

const MetricFamily* find_row(MetricKind kind, std::string_view name,
                             bool namespace_rule) {
  for (const MetricFamily& f : kFamilies) {
    if (f.kind == kind && f.name.ends_with('_') == namespace_rule &&
        (namespace_rule ? name.starts_with(f.name) : name == f.name)) {
      return &f;
    }
  }
  return nullptr;
}

/// Checks the registry's shape and every instance against its own row and
/// its namespace rule, and collects the instances that have either.
bool collect(const JsonValue& registry, std::vector<Instance>* out,
             std::string* error) {
  static constexpr std::pair<const char*, MetricKind> kSections[] = {
      {"counters", kCounter}, {"gauges", kGauge}, {"histograms", kHistogram}};
  for (const auto& [section, kind] : kSections) {
    const JsonValue* arr = registry.find(section);
    if (arr == nullptr || !arr->is_array()) {
      return fail(error, "registry: needs counters/gauges/histograms arrays");
    }
    for (const JsonValue& inst : arr->as_array()) {
      const JsonValue* name = inst.find("name");
      if (name == nullptr || !name->is_string()) {
        return fail(error, std::string("registry.") + section +
                               ": instrument needs a name");
      }
      const std::string_view n = name->as_string();
      const MetricFamily* rows[] = {find_row(kind, n, false),
                                    find_row(kind, n, true)};
      if (rows[0] == nullptr && rows[1] == nullptr) continue;
      const JsonValue* labels = inst.find("labels");
      const char* field = kind == kHistogram ? "count" : "value";
      const JsonValue* value = inst.find(field);
      const double x =
          value != nullptr && value->is_number() ? value->as_double() : 0.0;
      const bool unlabeled = labels == nullptr || !labels->is_object() ||
                             labels->as_object().empty();
      if (rows[0] != nullptr && rows[0]->unlabeled_zero_ok && unlabeled &&
          value != nullptr && value->is_number() && x == 0.0) {
        continue;
      }
      const std::string who = instance_name(n, labels);
      bool monotone = false;
      for (const MetricFamily* row : rows) {
        if (row == nullptr) continue;
        if (const char* want = value_violation(row->value, value)) {
          return fail(error, who + ": " + field + " must be " + want);
        }
        if (!check_labels(row->labels, who, labels, error)) return false;
        monotone = monotone || row->monotone;
      }
      out->push_back({n, labels, x, monotone});
    }
  }
  return true;
}

bool check_sum(const SumRelation& r, const std::vector<Instance>& all,
               std::string* error) {
  const auto lhs_names = split(r.lhs, ' ');
  std::map<std::string, double> lhs, rhs;
  for (const Instance& i : all) {
    if (i.name == r.rhs) {
      rhs[label_text(i.labels, r.by)] += i.value;
    } else if (contains(lhs_names, i.name)) {
      lhs[label_text(i.labels, r.by)] += i.value;
    }
  }
  const std::string lhs_name = join(lhs_names, " + ");
  for (const auto& [group, sum] : lhs) {
    const auto it = rhs.find(group);
    if (it == rhs.end() && r.cmp == Cmp::kEqual) {
      return fail(error, scoped(lhs_name, r.by, group) + ": no " +
                             std::string(r.rhs) + " to match");
    }
    const double scaled = r.factor * sum;
    const double bound = it == rhs.end() ? 0.0 : it->second;
    if (r.cmp == Cmp::kEqual ? scaled != bound : scaled > bound) {
      return fail(error, scoped(lhs_name, r.by, group) + ": " +
                             std::string(r.why) + " (" +
                             JsonValue(scaled).dump() + " vs " +
                             JsonValue(bound).dump() + ")");
    }
  }
  for (const auto& [group, sum] : rhs) {
    if (r.cmp == Cmp::kEqual && lhs.count(group) == 0) {
      return fail(error, scoped(r.rhs, r.by, group) + ": no " + lhs_name +
                             " to account for it");
    }
  }
  return true;
}

bool check_quantiles(const QuantileSet& s, const std::vector<Instance>& all,
                     std::string* error) {
  // The family's q label rule lists the quantiles in ascending order.
  std::vector<std::string_view> qs;
  for (const std::string_view rule :
       split(find_row(kGauge, s.family, false)->labels, ' ')) {
    if (rule.starts_with("q=")) qs = split(rule.substr(2), '|');
  }
  std::map<std::string, std::vector<std::optional<double>>> scopes;
  for (const Instance& i : all) {
    if (i.name != s.family) continue;
    auto& slots = scopes[label_text(i.labels, s.scope)];
    slots.resize(qs.size());
    const std::string q = label_text(i.labels, "q");
    slots[static_cast<std::size_t>(
        std::find(qs.begin(), qs.end(), q) - qs.begin())] = i.value;
  }
  for (const auto& [scope, slots] : scopes) {
    const std::string who = scoped(s.family, s.scope, scope);
    double prev = -std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < qs.size(); ++k) {
      if (!slots[k].has_value()) {
        if (!s.complete) continue;
        return fail(error, who + ": missing q=" + std::string(qs[k]));
      }
      if (*slots[k] < prev) {
        return fail(error, who + ": quantiles not monotone in q");
      }
      prev = *slots[k];
    }
  }
  return true;
}

}  // namespace

const MetricFamily* find_metric_family(MetricKind kind,
                                       std::string_view name) {
  return find_row(kind, name, false);
}

bool check_registry(const JsonValue& registry, std::string* error) {
  std::vector<Instance> all;
  if (!collect(registry, &all, error)) return false;
  for (const SumRelation& r : kSums) {
    if (!check_sum(r, all, error)) return false;
  }
  for (const QuantileSet& s : kQuantileSets) {
    if (!check_quantiles(s, all, error)) return false;
  }
  return true;
}

bool check_monotone(const JsonValue& earlier, const JsonValue& later,
                    std::string* error) {
  std::vector<Instance> before, after;
  if (!collect(earlier, &before, error) || !collect(later, &after, error)) {
    return false;
  }
  std::map<std::string, double> now;
  for (const Instance& i : after) {
    if (i.monotone) now[instance_name(i.name, i.labels)] = i.value;
  }
  for (const Instance& i : before) {
    if (!i.monotone) continue;
    const std::string key = instance_name(i.name, i.labels);
    const auto it = now.find(key);
    if (it != now.end() && it->second < i.value) {
      return fail(error, key + ": counter went backwards (" +
                             JsonValue(i.value).dump() + " -> " +
                             JsonValue(it->second).dump() + ")");
    }
  }
  return true;
}

}  // namespace baps::obs
