#include "obs/report.hpp"

#include <cmath>
#include <fstream>
#include <utility>

#include "obs/catalog.hpp"
#include "sim/config.hpp"

namespace baps::obs {

namespace {

JsonValue ratio_json(const RatioCounter& r) {
  return json_object({{"count", JsonValue(r.hits())},
                      {"total", JsonValue(r.total())},
                      {"ratio", JsonValue(r.ratio())}});
}

}  // namespace

JsonValue metrics_to_json(const sim::Metrics& m) {
  const JsonValue locations = json_object(
      {{"local_browser", json_object({{"hits", JsonValue(m.local_browser_hits)},
                                      {"bytes",
                                       JsonValue(m.local_browser_hit_bytes)}})},
       {"proxy", json_object({{"hits", JsonValue(m.proxy_hits)},
                              {"bytes", JsonValue(m.proxy_hit_bytes)}})},
       {"remote_browser",
        json_object({{"hits", JsonValue(m.remote_browser_hits)},
                     {"bytes", JsonValue(m.remote_browser_hit_bytes)}})},
       {"miss", json_object({{"count", JsonValue(m.misses)},
                             {"bytes", JsonValue(m.miss_bytes)}})}});

  const JsonValue overheads = json_object(
      {{"remote_transfer_time_s", JsonValue(m.remote_transfer_time_s)},
       {"remote_contention_time_s", JsonValue(m.remote_contention_time_s)},
       {"remote_transfer_bytes", JsonValue(m.remote_transfer_bytes)},
       {"index_messages", JsonValue(m.index_messages)},
       {"false_forwards", JsonValue(m.false_forwards)},
       {"stale_remote_probes", JsonValue(m.stale_remote_probes)},
       {"remote_overhead_fraction", JsonValue(m.remote_overhead_fraction())},
       {"contention_fraction_of_comm",
        JsonValue(m.contention_fraction_of_comm())}});

  const JsonValue latency = json_object(
      {{"count", JsonValue(m.log_latency.count())},
       {"p50_s", JsonValue(m.latency_quantile(0.5))},
       {"p90_s", JsonValue(m.latency_quantile(0.9))},
       {"p99_s", JsonValue(m.latency_quantile(0.99))}});

  const JsonValue churn =
      json_object({{"departures", JsonValue(m.churn_departures)},
                   {"rejoins", JsonValue(m.churn_rejoins)},
                   {"wiped_docs", JsonValue(m.churn_wiped_docs)}});

  return json_object(
      {{"hits", ratio_json(m.hits)},
       {"byte_hits", ratio_json(m.byte_hits)},
       {"locations", locations},
       {"memory",
        json_object({{"memory_hit_bytes", JsonValue(m.memory_hit_bytes)},
                     {"disk_hit_bytes", JsonValue(m.disk_hit_bytes)},
                     {"memory_byte_hit_ratio",
                      JsonValue(m.memory_byte_hit_ratio())}})},
       {"size_change_misses", JsonValue(m.size_change_misses)},
       {"overheads", overheads},
       {"service_time",
        json_object({{"total_s", JsonValue(m.total_service_time_s)},
                     {"hit_latency_s", JsonValue(m.total_hit_latency_s)}})},
       {"latency", latency},
       {"churn", churn}});
}

JsonValue sweep_to_json(const std::vector<core::CacheSizePoint>& points) {
  JsonArray out;
  for (const auto& p : points) {
    JsonArray orgs;
    for (const auto& [org, m] : p.by_org) {
      orgs.push_back(json_object({{"org", JsonValue(sim::org_name(org))},
                                  {"metrics", metrics_to_json(m)}}));
    }
    out.push_back(json_object(
        {{"relative_cache_size", JsonValue(p.relative_cache_size)},
         {"orgs", JsonValue(std::move(orgs))}}));
  }
  return JsonValue(std::move(out));
}

JsonValue client_scaling_to_json(
    const std::vector<core::ClientScalingPoint>& points) {
  JsonArray out;
  for (const auto& p : points) {
    out.push_back(json_object(
        {{"client_fraction", JsonValue(p.client_fraction)},
         {"num_clients", JsonValue(p.num_clients)},
         {"browsers_aware", metrics_to_json(p.browsers_aware)},
         {"proxy_and_local", metrics_to_json(p.proxy_and_local)},
         {"hit_ratio_increment_pct", JsonValue(p.hit_ratio_increment_pct)},
         {"byte_hit_ratio_increment_pct",
          JsonValue(p.byte_hit_ratio_increment_pct)}}));
  }
  return JsonValue(std::move(out));
}

ReportBuilder::ReportBuilder(std::string tool) {
  doc_.set("schema", JsonValue(kReportSchema));
  doc_.set("tool", JsonValue(std::move(tool)));
}

ReportBuilder& ReportBuilder::set_title(std::string title) {
  doc_.set("title", JsonValue(std::move(title)));
  return *this;
}

ReportBuilder& ReportBuilder::set_args(int argc, char** argv) {
  JsonArray args;
  for (int i = 1; i < argc; ++i) args.push_back(JsonValue(argv[i]));
  doc_.set("args", JsonValue(std::move(args)));
  return *this;
}

ReportBuilder& ReportBuilder::set_trace(const trace::Trace& t) {
  std::uint64_t total_bytes = 0;
  for (const auto& r : t.requests()) total_bytes += r.size;
  doc_.set("trace", json_object({{"name", JsonValue(t.name())},
                                 {"requests", JsonValue(t.size())},
                                 {"clients", JsonValue(t.num_clients())},
                                 {"docs", JsonValue(t.num_docs())},
                                 {"total_bytes", JsonValue(total_bytes)}}));
  return *this;
}

ReportBuilder& ReportBuilder::add_phases(const PhaseTimers& phases) {
  doc_.set("phases", phases.to_json());
  return *this;
}

ReportBuilder& ReportBuilder::add_sweep(
    const std::vector<core::CacheSizePoint>& points) {
  doc_.set("sweep", sweep_to_json(points));
  return *this;
}

ReportBuilder& ReportBuilder::add_client_scaling(
    const std::vector<core::ClientScalingPoint>& points,
    const std::string& trace_label) {
  JsonValue entries = client_scaling_to_json(points);
  if (!trace_label.empty()) {
    for (auto& entry : entries.as_array()) {
      entry.set("trace", JsonValue(trace_label));
    }
  }
  // Appends across calls so a multi-trace bench (Figure 8 runs three
  // presets) accumulates one flat array.
  JsonValue* existing = doc_.find("client_scaling");
  if (existing == nullptr) {
    doc_.set("client_scaling", std::move(entries));
  } else {
    for (auto& entry : entries.as_array()) {
      existing->as_array().push_back(std::move(entry));
    }
  }
  return *this;
}

ReportBuilder& ReportBuilder::set_registry(const Snapshot& snapshot) {
  doc_.set("registry", to_json(snapshot));
  return *this;
}

JsonValue ReportBuilder::build() const { return doc_; }

bool ReportBuilder::write(const std::string& path, std::string* error) const {
  std::ofstream out(path);
  if (!out) {
    if (error) *error = "cannot open " + path + " for writing";
    return false;
  }
  doc_.dump_to(out, /*indent=*/2);
  out << '\n';
  out.flush();
  if (!out) {
    if (error) *error = "write to " + path + " failed";
    return false;
  }
  return true;
}

// --------------------------------------------------------------------------
// Validation. Every field is type-checked before it is read, so a malformed
// report is rejected with a message naming the field instead of throwing.

namespace {

bool fail(std::string* error, const std::string& what) {
  if (error && error->empty()) *error = what;
  return false;
}

bool check_ratio(const JsonValue* v, const std::string& where,
                 std::string* error) {
  if (v == nullptr || !v->is_object()) {
    return fail(error, where + ": not an object");
  }
  const JsonValue* count = v->find("count");
  const JsonValue* total = v->find("total");
  const JsonValue* ratio = v->find("ratio");
  if (!count || !total || !ratio || !is_count(*count) || !is_count(*total) ||
      !ratio->is_number()) {
    return fail(error, where +
                           ": needs non-negative integer count/total and a "
                           "numeric ratio");
  }
  if (count->as_uint() > total->as_uint()) {
    return fail(error, where + ": count exceeds total");
  }
  const double recomputed =
      total->as_uint()
          ? static_cast<double>(count->as_uint()) /
                static_cast<double>(total->as_uint())
          : 0.0;
  if (std::fabs(recomputed - ratio->as_double()) > 1e-9) {
    return fail(error, where + ": ratio does not match count/total");
  }
  return true;
}

bool check_metrics(const JsonValue& m, const std::string& where,
                   std::string* error) {
  if (!m.is_object()) return fail(error, where + ": metrics not an object");
  if (!check_ratio(m.find("hits"), where + ".hits", error)) return false;
  if (!check_ratio(m.find("byte_hits"), where + ".byte_hits", error)) {
    return false;
  }
  const JsonValue* loc = m.find("locations");
  if (!loc || !loc->is_object()) {
    return fail(error, where + ": missing locations");
  }
  // The four locations partition the requests.
  std::uint64_t sum = 0;
  for (const auto& [name, field] :
       {std::pair{"local_browser", "hits"}, std::pair{"proxy", "hits"},
        std::pair{"remote_browser", "hits"}, std::pair{"miss", "count"}}) {
    const JsonValue* entry = loc->find(name);
    const JsonValue* n = entry != nullptr ? entry->find(field) : nullptr;
    if (n == nullptr || !is_count(*n)) {
      return fail(error, where + ".locations." + name + "." + field +
                             ": needs a non-negative integer");
    }
    sum += n->as_uint();
  }
  if (sum != m.find("hits")->find("total")->as_uint()) {
    return fail(error, where + ": location counts do not sum to total");
  }
  return true;
}

}  // namespace

bool validate_report(const JsonValue& report, std::string* error) {
  if (error) error->clear();
  if (!report.is_object()) return fail(error, "report: not a JSON object");
  const JsonValue* schema = report.find("schema");
  if (!schema || !schema->is_string() ||
      schema->as_string() != kReportSchema) {
    return fail(error, std::string("report: schema must be ") + kReportSchema);
  }
  const JsonValue* tool = report.find("tool");
  if (!tool || !tool->is_string() || tool->as_string().empty()) {
    return fail(error, "report: missing tool");
  }
  if (const JsonValue* phases = report.find("phases")) {
    if (!phases->is_array()) return fail(error, "phases: not an array");
    for (std::size_t i = 0; i < phases->as_array().size(); ++i) {
      const JsonValue& p = phases->as_array()[i];
      if (!p.is_object() || !p.find("name") || !p.find("seconds") ||
          !p.find("count")) {
        return fail(error, "phases: entry needs name/seconds/count");
      }
      const std::string where = "phases[" + std::to_string(i) + "].seconds";
      if (!p.find("seconds")->is_number()) {
        return fail(error, where + ": not a number");
      }
      if (p.find("seconds")->as_double() < 0.0) {
        return fail(error, where + ": negative wall time");
      }
    }
  }
  if (const JsonValue* sweep = report.find("sweep")) {
    if (!sweep->is_array()) return fail(error, "sweep: not an array");
    for (const auto& point : sweep->as_array()) {
      const JsonValue* orgs = point.find("orgs");
      if (!point.find("relative_cache_size") || !orgs || !orgs->is_array()) {
        return fail(error, "sweep: point needs relative_cache_size + orgs");
      }
      for (const auto& entry : orgs->as_array()) {
        const JsonValue* org = entry.find("org");
        const JsonValue* metrics = entry.find("metrics");
        if (!org || !org->is_string() || !metrics) {
          return fail(error, "sweep: org entry needs org + metrics");
        }
        if (!check_metrics(*metrics, "sweep[" + org->as_string() + "]",
                           error)) {
          return false;
        }
      }
    }
  }
  if (const JsonValue* scaling = report.find("client_scaling")) {
    if (!scaling->is_array()) {
      return fail(error, "client_scaling: not an array");
    }
    for (const auto& point : scaling->as_array()) {
      if (!point.is_object() || !point.find("client_fraction")) {
        return fail(error, "client_scaling: point needs client_fraction");
      }
      for (const char* side : {"browsers_aware", "proxy_and_local"}) {
        if (const JsonValue* metrics = point.find(side)) {
          if (!check_metrics(*metrics, std::string("client_scaling.") + side,
                             error)) {
            return false;
          }
        }
      }
    }
  }
  if (const JsonValue* registry = report.find("registry")) {
    return check_registry(*registry, error);
  }
  return true;
}

bool validate_transport_monotonicity(const JsonValue& earlier,
                                     const JsonValue& later,
                                     std::string* error) {
  if (error) error->clear();
  const JsonValue* before = earlier.find("registry");
  const JsonValue* after = later.find("registry");
  if (before == nullptr || after == nullptr) return true;
  return check_monotone(*before, *after, error);
}

}  // namespace baps::obs
