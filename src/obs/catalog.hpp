// Metric catalog: one table row per metric family a report's registry
// section may carry (kind, required labels, value rule, monotone across
// snapshots), plus a short table of cross-family relations, both in
// catalog.cpp. One generic checker reads both tables; validate_report and
// validate_transport_monotonicity (obs/report.hpp) call it.
//
// A new family gets a row in kFamilies, and a relation if its value is
// bound to other families. tests/integration/metric_families_test.cpp fails
// for any family a run registers without a row.
#pragma once

#include <string>
#include <string_view>

#include "obs/json.hpp"

namespace baps::obs {

enum class MetricKind { kCounter, kGauge, kHistogram };

/// What every instance's value (a histogram's count) must be.
enum class ValueRule { kAny, kNonNegative, kFiniteNonNegative, kFinitePositive };

struct MetricFamily {
  /// Family name. A name ending in '_' is a namespace rule, applied to every
  /// family of the kind under that prefix on top of the family's own row.
  std::string_view name;
  MetricKind kind;
  /// Labels every instance must carry, space-separated: "org" needs any
  /// non-empty value, "dir=tx|rx" one of the listed values (a "q" label
  /// lists its quantiles in ascending order).
  std::string_view labels = "";
  ValueRule value = ValueRule::kAny;
  /// Never decreases between snapshots of one process.
  bool monotone = false;
  /// An unlabeled zero-valued instance passes: the placeholder eager
  /// registration leaves before any labeled traffic.
  bool unlabeled_zero_ok = false;
};

/// The family's own row (namespace rules aside), or nullptr.
const MetricFamily* find_metric_family(MetricKind kind, std::string_view name);

/// Checks a report's "registry" section: its shape, every instance against
/// its rows, and every relation. False, with *error, on the first violation.
bool check_registry(const JsonValue& registry, std::string* error);

/// Checks that no monotone counter present in both registry sections
/// (matched by name + labels) decreased from `earlier` to `later`.
bool check_monotone(const JsonValue& earlier, const JsonValue& later,
                    std::string* error);

}  // namespace baps::obs
