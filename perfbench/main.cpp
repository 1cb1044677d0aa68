// baps_perfbench: one benchmark run of one workload.
//
//   baps_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  [--work-dir DIR]
//   baps_perfbench --list-metrics
//
// The last stdout line is the run's JSON result (see harness.hpp); failed
// checks are listed on stderr and make the exit status 1. perfbench/run.py
// builds this binary and is the documented entry point.
#include <exception>
#include <iostream>
#include <string>

#include "util/args.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  using namespace perfbench;
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  std::uint64_t trace = 0;
  std::string work_dir = ".bench_build/work";
  bool list = false;
  baps::util::ArgParser parser(argv[0]);
  parser.option("--workload", &workload, "NAME",
                "fetch-cold | fetch-shared | fetch-contended | replay-sim")
      .option("--seed", &seed, "N", "workload seed (the request stream)")
      .option("--seconds", &seconds, "S", "length of the timed window")
      .option("--trace", &trace, "0|1",
              "0: end-to-end metrics; 1: traced run, per-layer metrics")
      .option("--work-dir", &work_dir, "DIR",
              "directory for durable-tier files")
      .flag("--list-metrics", &list, "print every metric name and unit");
  std::string error;
  if (!parser.parse(argc, argv, &error)) {
    std::cerr << error << "\n" << parser.usage();
    return 2;
  }
  if (parser.help_requested()) {
    std::cout << parser.usage();
    return 0;
  }
  if (list) {
    for (const MetricDef& m : end_to_end_metrics()) {
      std::cout << "end_to_end " << m.name << " " << m.unit << "\n";
    }
    for (const MetricDef& m : per_layer_metrics()) {
      std::cout << "per_layer " << m.name << " " << m.unit << "\n";
    }
    return 0;
  }
  const auto w = parse_workload(workload);
  if (!w.has_value() || seconds <= 0.0 || trace > 1) {
    std::cerr << "need --workload NAME, --seconds > 0 and --trace 0|1\n"
              << parser.usage();
    return 2;
  }
  RunOptions options;
  options.workload = *w;
  options.seed = seed;
  options.seconds = seconds;
  options.traced = trace == 1;
  options.work_dir = work_dir;
  try {
    const Result result = run(options);
    for (const std::string& p : result.problems) {
      std::cerr << "check failed: " << p << "\n";
    }
    std::cout << result.json() << std::endl;
    return result.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "benchmark aborted: " << e.what() << "\n";
    return 1;
  }
}
