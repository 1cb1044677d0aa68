// Performance-regression comparator over committed artifacts: diffs two
// baps.report.v1 reports (or a baps.bench_hotpath.v1 history file against a
// report) on their throughput gauges, with tolerance bands, and says whether
// the current side regressed. tools/report_diff wraps this as the CI gate
// for the Release replay-throughput job.
//
// Two modes, auto-detected from the schemas:
//
//  * report vs report — the same machine produced both (an A/B in one CI
//    job), so absolute req/s are comparable: every throughput gauge present
//    in both is compared directly, regression = current below baseline by
//    more than the tolerance.
//
//  * hotpath baseline involved — BENCH_hotpath.json entries were measured
//    on different machines than the CI runner, so absolute req/s are NOT
//    comparable. Both sides are geomean-normalized over the shared
//    organizations first, and the gate checks the *shape*: an org whose
//    normalized throughput falls more than the tolerance below the
//    baseline's normalized value regressed relative to its peers. A uniform
//    slowdown (slower machine) cancels out; a lopsided one (someone broke
//    the browsers-aware fast path) does not. The default tolerance is
//    correspondingly loose.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "obs/json.hpp"

namespace baps::obs {

struct ReportDiffOptions {
  /// Allowed relative drop in percent before a comparison fails. Negative
  /// selects the mode default: 20 for report-vs-report, 50 for the
  /// geomean-normalized hotpath mode.
  double tolerance_pct = -1.0;

  /// Per-metric-name overrides of tolerance_pct.
  std::map<std::string, double> metric_tolerances;

  /// Self-test hook: scales every current-side value down by this percent
  /// (after normalization in hotpath mode, so the seeded regression cannot
  /// cancel out) to prove the gate actually fails when throughput drops.
  double inject_regression_pct = 0.0;
};

struct ReportDiffResult {
  bool ok = true;
  /// Human-readable regression findings (empty iff ok).
  std::vector<std::string> findings;
  /// Non-failing observations: improvements, skipped instances, mode notes.
  std::vector<std::string> notes;
  /// Comparisons that actually ran; 0 comparisons with ok=true means the
  /// inputs shared nothing — the caller should treat that as suspicious.
  std::size_t compared = 0;
};

/// Diffs `current` against `baseline` (each a parsed baps.report.v1 or
/// baps.bench_hotpath.v1 document). Never throws on malformed input: an
/// unrecognized schema or missing metrics produce ok=false with a finding.
ReportDiffResult diff_reports(const JsonValue& baseline,
                              const JsonValue& current,
                              const ReportDiffOptions& options = {});

}  // namespace baps::obs
