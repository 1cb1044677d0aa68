// The benchmark's own tests. Run with `python3 perfbench/run.py --self-test`
// (or ctest in the benchmark's build directory).
//
//  * Protocol differential: on a short slice of the fetch-cold and
//    fetch-shared traces, the per-request source stream the benchmark's TCP
//    rig produces equals that of an in-process loopback BapsSystem with the
//    same parameters — the benchmark drives the protocol the repository's
//    goldens pin, not a variant of it.
//  * Seeds: the same seed gives the same trace digest, another seed a
//    different one, for every workload.
//  * Smoke: a short untraced and traced run of every workload passes its
//    correctness checks and prints exactly the catalog's metrics.
#include <filesystem>
#include <iostream>
#include <regex>
#include <set>
#include <string>
#include <vector>

#include "workloads.hpp"

namespace {

int failures = 0;

void expect(bool ok, const std::string& what) {
  std::cout << (ok ? "ok   " : "FAIL ") << what << "\n";
  if (!ok) ++failures;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  const std::string work_dir =
      argc > 1 ? argv[1] : ".bench_build/selftest-work";
  std::filesystem::create_directories(work_dir);

  for (const Workload w : all_workloads()) {
    const std::string name = workload_name(w);
    const std::uint64_t a = trace_digest(make_trace(w, 11));
    expect(a == trace_digest(make_trace(w, 11)),
           name + ": same seed, same trace digest");
    expect(a != trace_digest(make_trace(w, 12)),
           name + ": another seed, another trace digest");
  }

  for (const Workload w : {Workload::kFetchCold, Workload::kFetchShared}) {
    const baps::trace::Trace trace = make_trace(w, 5);
    const std::size_t n = 150;
    const auto tcp = source_stream(w, trace, n, /*tcp=*/true, work_dir);
    const auto loop = source_stream(w, trace, n, /*tcp=*/false, work_dir);
    std::set<std::string> kinds(tcp.begin(), tcp.end());
    expect(tcp.size() == n && tcp == loop,
           workload_name(w) + ": TCP source stream equals loopback over " +
               std::to_string(n) + " requests (" +
               std::to_string(kinds.size()) + " distinct sources)");
  }

  const std::regex name_re("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  const std::regex unit_re("[A-Za-z0-9_/%.-]{1,16}");
  std::set<std::string> names;
  for (const auto* defs : {&end_to_end_metrics(), &per_layer_metrics()}) {
    for (const MetricDef& m : *defs) {
      expect(std::regex_match(m.name, name_re) &&
                 std::regex_match(m.unit, unit_re) &&
                 names.insert(m.name).second,
             "metric " + m.name + " [" + m.unit +
                 "] is well-formed and unique");
    }
  }

  for (const Workload w : all_workloads()) {
    for (const bool traced : {false, true}) {
      RunOptions o;
      o.workload = w;
      o.seed = 3;
      o.seconds = 0.4;
      o.traced = traced;
      o.work_dir = work_dir;
      const Result r = run(o);
      const auto& defs = traced ? per_layer_metrics() : end_to_end_metrics();
      bool same = r.metrics.size() == defs.size();
      for (std::size_t i = 0; same && i < defs.size(); ++i) {
        same = r.metrics[i].name == defs[i].name &&
               r.metrics[i].unit == defs[i].unit;
      }
      for (const std::string& p : r.problems) std::cout << "     " << p << "\n";
      expect(r.correct && r.failed == 0 && r.attempted > 0 && same,
             workload_name(w) + (traced ? " traced" : " untraced") +
                 ": checks pass, every metric printed");
    }
  }

  std::filesystem::remove_all(work_dir);
  std::cout << (failures == 0
                    ? "all self-tests passed\n"
                    : std::to_string(failures) + " self-tests failed\n");
  return failures == 0 ? 0 : 1;
}
