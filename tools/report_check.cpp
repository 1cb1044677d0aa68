// report_check — validates baps.report.v1 JSON reports.
//
// Parses each file and runs obs::validate_report: schema shape, every
// derived ratio recomputed from its exact integer counters, and the registry
// section against the metric catalog (src/obs/catalog.cpp), which states
// each metric family's labels, value rule and cross-family relations. Given
// several files, they are treated as successive snapshots of one process and
// every counter the catalog marks monotone must not decrease in argument
// order. Exit 0 when valid, 1 when not (with the first violation on stderr).
// Used by scripts/check.sh to gate the bench artifacts.
//
// --timeseries FILE validates a baps.timeseries.v1 JSONL export instead
// (per-line schema plus the cross-record delta/rate/quantile invariants);
// the flag may repeat and mix with report files.
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "obs/report.hpp"
#include "obs/timeseries.hpp"

namespace {

std::optional<baps::obs::JsonValue> load_report(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::cerr << "cannot open " << path << "\n";
    return std::nullopt;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  std::string error;
  auto doc = baps::obs::json_parse(buf.str(), &error);
  if (!doc) {
    std::cerr << path << ": parse error: " << error << "\n";
    return std::nullopt;
  }
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::cerr << "usage: report_check [--timeseries <stream.jsonl>]... "
                 "[<report.json> ...]\n";
    return 2;
  }
  std::vector<baps::obs::JsonValue> reports;
  std::vector<std::string> report_names;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--timeseries") {
      if (i + 1 >= argc) {
        std::cerr << "--timeseries needs a file\n";
        return 2;
      }
      const std::string path = argv[++i];
      std::string error;
      if (!baps::obs::validate_timeseries_file(path, &error)) {
        std::cerr << path << ": invalid time series: " << error << "\n";
        return 1;
      }
      std::cout << path << ": valid " << baps::obs::kTimeSeriesSchema << "\n";
      continue;
    }
    auto doc = load_report(argv[i]);
    if (!doc.has_value()) return 1;
    std::string error;
    if (!baps::obs::validate_report(*doc, &error)) {
      std::cerr << argv[i] << ": invalid report: " << error << "\n";
      return 1;
    }
    reports.push_back(std::move(*doc));
    report_names.push_back(argv[i]);
    std::cout << argv[i] << ": valid " << baps::obs::kReportSchema << "\n";
  }
  for (std::size_t i = 1; i < reports.size(); ++i) {
    std::string error;
    if (!baps::obs::validate_transport_monotonicity(reports[i - 1],
                                                    reports[i], &error)) {
      std::cerr << report_names[i - 1] << " vs " << report_names[i] << ": "
                << error << "\n";
      return 1;
    }
  }
  if (reports.size() > 1) {
    std::cout << "transport counters monotone across " << reports.size()
              << " reports\n";
  }
  return 0;
}
