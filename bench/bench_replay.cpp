// Trace-replay throughput harness for the flat-memory hot path.
//
// Replays the BU-95 preset end to end through all five organizations and
// reports requests/second per organization. Each organization is timed
// --reps times and the best run wins: single-core containers time noisily,
// and the minimum is the measurement least polluted by scheduler
// interference. The simulated Metrics are emitted as a one-point sweep in
// the baps.report.v1 report (so report_check recomputes every ratio), and
// throughput lands in the registry as replay_requests_per_second{org=...}
// gauges plus replay_latency_quantile_seconds{org=...,q=p50|p99} from the
// simulated latency distribution, which report_check validates as families.
// BENCH_hotpath.json at the repo root records the committed history of
// these numbers.
//
// --overhead-guard PCT re-times the hot organization with a sampling-off
// tracer paying one root-span check per request — the exact cost a rate-0
// tracer adds to the runtime engine — and fails unless the simulated
// metrics stay bit-identical and the throughput regression stays under
// PCT percent. CI runs this to keep tracing free when it is off.
// --ts-interval/--ts-out run the continuous TimeSeriesSampler over the whole
// bench and export its baps.timeseries.v1 JSONL; --ts-overhead-guard PCT is
// the matching budget check — it A/B-times the hot organization with the
// sampler running against a sampler-free baseline and fails unless the
// simulated metrics stay bit-identical and the throughput cost stays under
// PCT percent. CI runs this to keep continuous telemetry within its 2%
// budget (and provably zero when off).
// --store-dir DIR adds a disk-tier replay phase: the same trace pushed
// through the runtime two-tier object store (RAM DocStore + durable slab
// segments under DIR), publishing the store_* metric family and a
// store_replay_requests_per_second gauge so the durable tier's throughput is
// tracked alongside the simulated organizations.
//
// --shards LIST (e.g. "1,2,4,8") adds a multi-core section: each listed N
// replays every organization through the shared-nothing sharded engine
// (sim/sharded_replay.hpp) and publishes two gauges per (org, N) —
// replay_requests_per_second{org,shards,mode=wall} for end-to-end wall
// clock on THIS machine's affinity mask, and {mode=critical_path} for
// route + slowest-shard + merge, the time an N-core mask converges to.
// The engine's shard_requests_total / shard_merged_requests_total counters
// ride along, and report_check verifies sum(shards) == merged.
// --shard-differential is the correctness gate behind those numbers: it
// byte-compares the merged sharded metrics against the unsharded engine
// (N=1 on the pressured config; N=1 and N=4 on an eviction-free config,
// where doc partitioning must be EXACT) and exits nonzero on any mismatch.
// Parallelism inside a replay is --shards. The figure benches' --threads
// runs independent sweep points in parallel; this harness times one replay
// at a time, so it has no such option.
#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>

#include "bench_common.hpp"
#include "fault/fault_plan.hpp"
#include "obs/span.hpp"
#include "obs/timeseries.hpp"
#include "sim/sharded_replay.hpp"
#include "store/tiered_store.hpp"

namespace {

/// "1,2,4,8" → {1,2,4,8}; empty/garbage/0 entries are parse errors.
bool parse_shard_list(const std::string& csv,
                      std::vector<std::uint32_t>* out, std::string* error) {
  std::stringstream ss(csv);
  std::string item;
  while (std::getline(ss, item, ',')) {
    try {
      const unsigned long v = std::stoul(item);
      if (v == 0 || v > 1024) {
        *error = "--shards entries must be in [1,1024], got '" + item + "'";
        return false;
      }
      out->push_back(static_cast<std::uint32_t>(v));
    } catch (const std::exception&) {
      *error = "--shards expects a comma-separated list of counts, got '" +
               item + "'";
      return false;
    }
  }
  if (out->empty()) {
    *error = "--shards expects a non-empty list, e.g. 1,2,4,8";
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace baps;
  bench::BenchArgs args;
  args.argc = argc;
  args.argv = argv;
  std::uint64_t reps = 5;
  double overhead_guard = 0.0;
  std::string shards_csv;
  bool shard_differential = false;
  std::string store_dir;
  std::uint64_t store_capacity = 16 << 20;
  std::uint64_t store_ram = 256 << 10;
  double ts_interval = 0.0;
  std::string ts_out;
  double ts_overhead_guard = 0.0;
  util::ArgParser parser(argv[0]);
  parser.flag("--csv", &args.csv, "emit CSV instead of an aligned table")
      .option("--overhead-guard", &overhead_guard, "PCT",
              "fail if a sampling-off tracer costs more than PCT percent "
              "throughput (default 0: guard off)")
      .option("--scale", &args.scale, "F",
              "shrink the preset trace by F in (0,1]")
      .option("--metrics-out", &args.metrics_out, "FILE",
              "write a baps.report.v1 JSON report of the runs")
      .option("--reps", &reps, "N",
              "time N replays per organization and keep the best")
      .option("--churn-rate", &args.churn_rate, "P",
              "per-request client churn probability in [0,1] (default 0)")
      .option("--churn-seed", &args.churn_seed, "S",
              "seed for the churn event stream")
      .option("--shards", &shards_csv, "LIST",
              "also time the sharded engine at each N in LIST (e.g. 1,2,4,8)")
      .flag("--shard-differential", &shard_differential,
            "verify sharded merged metrics match the unsharded engine "
            "byte-for-byte, exit nonzero on mismatch")
      .option("--store-dir", &store_dir, "DIR",
              "also replay through the runtime disk tier rooted at DIR")
      .bytes("--store-capacity", &store_capacity, "BYTES",
              "disk tier capacity for --store-dir, k/m/g ok (default 16m)")
      .bytes("--store-ram", &store_ram, "BYTES",
              "RAM tier in front of --store-dir, k/m/g ok (default 256k)")
      .duration("--ts-interval", &ts_interval, "DUR",
                "run the continuous time-series sampler over the bench, "
                "e.g. 1s / 250ms (default 0: sampler off)")
      .option("--ts-out", &ts_out, "FILE",
              "write baps.timeseries.v1 interval records as JSONL "
              "(requires --ts-interval)")
      .option("--ts-overhead-guard", &ts_overhead_guard, "PCT",
              "fail if a running time-series sampler costs more than PCT "
              "percent throughput or perturbs the simulated metrics "
              "(default 0: guard off)");
  std::string error;
  if (!parser.parse(argc, argv, &error)) {
    std::cerr << error << "\n" << parser.usage();
    return 2;
  }
  if (parser.help_requested()) {
    std::cout << parser.usage();
    return 0;
  }
  if (args.scale <= 0.0 || args.scale > 1.0) {
    std::cerr << "--scale must be in (0,1]\n";
    return 2;
  }
  if (reps == 0) {
    std::cerr << "--reps must be >= 1\n";
    return 2;
  }
  if (args.churn_rate < 0.0 || args.churn_rate > 1.0) {
    std::cerr << "--churn-rate must be in [0,1]\n";
    return 2;
  }
  std::vector<std::uint32_t> shard_list;
  if (!shards_csv.empty() &&
      !parse_shard_list(shards_csv, &shard_list, &error)) {
    std::cerr << error << "\n";
    return 2;
  }
  if (!shard_list.empty() && overhead_guard > 0.0) {
    std::cerr << "--overhead-guard A/B-times the unsharded engine; combining "
                 "it with --shards would compare different engines. Run the "
                 "guard and the shard sweep as separate invocations.\n";
    return 2;
  }
  if (!ts_out.empty() && ts_interval <= 0.0) {
    std::cerr << "--ts-out requires --ts-interval > 0\n";
    return 2;
  }
  // Eager: the shard_* families appear (zero-valued) in every report this
  // harness writes, sharded run or not, so report_check can always apply
  // the sum(shards) == merged invariant.
  sim::register_shard_metric_families();

  // Continuous telemetry over the bench. Families are pre-registered so the
  // seq-0 baseline already carries the full schema.
  std::unique_ptr<obs::TimeSeriesSampler> ts_sampler;
  std::ofstream ts_stream;
  if (ts_interval > 0.0 || ts_overhead_guard > 0.0) {
    store::register_store_metric_families();
    fault::register_fault_metric_families();
    obs::register_trace_metric_families();
  }
  if (ts_interval > 0.0) {
    obs::TimeSeriesSampler::Params sp;
    sp.interval_seconds = ts_interval;
    ts_sampler = std::make_unique<obs::TimeSeriesSampler>(sp);
    if (!ts_out.empty()) {
      ts_stream.open(ts_out);
      if (!ts_stream) {
        std::cerr << "cannot open " << ts_out << "\n";
        return 1;
      }
      ts_sampler->set_sink(&ts_stream);
    }
    ts_sampler->start();
  }

  obs::PhaseTimers phases;
  trace::Trace t;
  {
    const auto scope = phases.scope("load_trace");
    t = bench::load(trace::Preset::kBu95, args);
  }
  const trace::TraceStats stats = trace::compute_stats(t);
  core::RunSpec spec;  // paper defaults: LRU, minimum browser sizing, 10%
  spec.churn_rate = args.churn_rate;
  spec.churn_seed = args.churn_seed;
  const sim::SimConfig cfg = core::build_config(stats, spec);

  core::CacheSizePoint point;
  point.relative_cache_size = spec.relative_cache_size;

  Table table(
      {"Organization", "Requests", "Best Seconds", "Requests/s", "Hit Ratio"});
  {
    const auto scope = phases.scope("replay");
    for (const core::OrgKind kind : sim::kAllOrganizations) {
      double best_secs = 0.0;
      for (std::uint64_t rep = 0; rep < reps; ++rep) {
        // Construction (including the capacity reservations) counts as part
        // of the replay: it is work a fresh simulation always pays.
        // run_organization dispatches to the concrete organization once, so
        // the per-request loop is free of virtual calls.
        const double start = obs::monotonic_seconds();
        const sim::Metrics m = sim::run_organization(kind, cfg, t);
        const double secs = obs::monotonic_seconds() - start;
        if (rep == 0 || secs < best_secs) best_secs = secs;
        if (rep + 1 == reps) point.by_org.emplace(kind, m);
      }
      const double rps = static_cast<double>(t.size()) / best_secs;
      obs::Registry::global()
          .gauge("replay_requests_per_second", {{"org", sim::org_name(kind)}})
          .set(rps);
      const sim::Metrics& m = point.by_org.at(kind);
      if (m.log_latency.count() > 0) {
        const std::pair<const char*, double> quantiles[] = {{"p50", 0.5},
                                                            {"p99", 0.99}};
        for (const auto& [qname, q] : quantiles) {
          obs::Registry::global()
              .gauge("replay_latency_quantile_seconds",
                     {{"org", sim::org_name(kind)}, {"q", qname}})
              .set(m.latency_quantile(q));
        }
      }
      table.row()
          .cell(sim::org_name(kind))
          .cell(static_cast<std::uint64_t>(t.size()))
          .cell(best_secs, 4)
          .cell(rps, 0)
          .cell_percent(m.hit_ratio());
    }
  }

  std::cout << "Trace-replay throughput, " << trace::preset_name(trace::Preset::kBu95)
            << ", best of " << reps << " run(s), default RunSpec\n";
  bench::emit(table, args);

  if (!shard_list.empty()) {
    // Multi-core section: same trace, same config, shared-nothing shards.
    // Wall req/s is honest end-to-end time under THIS process's CPU affinity
    // mask; critical-path req/s is route + slowest shard + merge — what the
    // wall time converges to once the mask actually spans N cores. The
    // critical path is timed on the SEQUENTIAL schedule (bit-identical to
    // the parallel one by the engine's determinism contract): when the
    // affinity mask holds fewer cores than shards, concurrent shard threads
    // timeshare and each shard's wall clock absorbs descheduled time, which
    // would inflate max(shard_seconds) toward the serial total. Back-to-back
    // execution times each shard's actual work instead.
    const auto scope = phases.scope("sharded_replay");
    Table stable({"Organization", "Shards", "Best Seconds", "Wall req/s",
                  "Critical-path req/s", "CP speedup"});
    for (const core::OrgKind kind : sim::kAllOrganizations) {
      double cp_baseline = 0.0;  // critical-path req/s at the smallest N
      for (const std::uint32_t n : shard_list) {
        sim::ShardedReplayOptions opts;
        opts.shards = n;
        double best_secs = 0.0, best_cp_rps = 0.0;
        for (std::uint64_t rep = 0; rep < reps; ++rep) {
          const double start = obs::monotonic_seconds();
          sim::run_organization_sharded(kind, cfg, t, opts);
          const double secs = obs::monotonic_seconds() - start;
          if (rep == 0 || secs < best_secs) best_secs = secs;
          sim::ShardedReplayOptions seq = opts;
          seq.parallel = false;
          const sim::ShardedReplayResult r =
              sim::run_organization_sharded(kind, cfg, t, seq);
          best_cp_rps =
              std::max(best_cp_rps, r.critical_path_requests_per_second());
        }
        const double wall_rps = static_cast<double>(t.size()) / best_secs;
        auto& reg = obs::Registry::global();
        reg.gauge("replay_requests_per_second",
                  {{"org", sim::org_name(kind)},
                   {"shards", std::to_string(n)},
                   {"mode", "wall"}})
            .set(wall_rps);
        reg.gauge("replay_requests_per_second",
                  {{"org", sim::org_name(kind)},
                   {"shards", std::to_string(n)},
                   {"mode", "critical_path"}})
            .set(best_cp_rps);
        if (cp_baseline == 0.0) cp_baseline = best_cp_rps;
        stable.row()
            .cell(sim::org_name(kind))
            .cell(static_cast<std::uint64_t>(n))
            .cell(best_secs, 4)
            .cell(wall_rps, 0)
            .cell(best_cp_rps, 0)
            .cell(cp_baseline > 0.0 ? best_cp_rps / cp_baseline : 0.0, 2);
      }
    }
    std::cout << "\nSharded replay (shared-nothing, doc-hash routed; "
                 "local-browser-only routes by client), best of "
              << reps << " run(s)\n";
    bench::emit(stable, args);
  }

  if (shard_differential) {
    // The correctness gate: merged sharded metrics must reproduce the
    // unsharded engine byte for byte in every regime where that is defined
    // (see the determinism contract in sim/sharded_replay.hpp). Comparison
    // is on the serialized metrics JSON — the same bit-identity test the
    // overhead guard uses.
    const auto scope = phases.scope("shard_differential");
    // Eviction-free config: caches big enough that nothing evicts, one
    // memory tier — the regime where doc partitioning must be EXACT for
    // every organization and any N.
    core::RunSpec dspec = spec;
    dspec.memory_fraction = 1.0;
    sim::SimConfig dcfg = core::build_config(stats, dspec);
    const std::uint64_t huge = stats.infinite_cache_bytes * 16;
    dcfg.proxy_cache_bytes = huge;
    for (auto& bytes : dcfg.browser_cache_bytes) bytes = huge;

    bool ok = true;
    const auto check = [&](core::OrgKind kind, const sim::SimConfig& c,
                           std::uint32_t n, const std::string& expect,
                           const char* what) {
      sim::ShardedReplayOptions opts;
      opts.shards = n;
      const std::string got = obs::metrics_to_json(
          sim::run_organization_sharded(kind, c, t, opts).merged).dump();
      if (got != expect) {
        std::cerr << "shard-differential: " << sim::org_name(kind) << " "
                  << what << " (N=" << n << ") diverges from the unsharded "
                  << "engine\n";
        ok = false;
      }
    };
    for (const core::OrgKind kind : sim::kAllOrganizations) {
      const std::string pressured =
          obs::metrics_to_json(sim::run_organization(kind, cfg, t)).dump();
      check(kind, cfg, 1, pressured, "pressured config");
      const std::string decoupled =
          obs::metrics_to_json(sim::run_organization(kind, dcfg, t)).dump();
      check(kind, dcfg, 1, decoupled, "eviction-free config");
      check(kind, dcfg, 4, decoupled, "eviction-free config");
    }
    if (!ok) return 1;
    std::cout << "shard-differential: merged metrics bit-identical to the "
                 "unsharded engine (N=1 pressured; N=1 and N=4 "
                 "eviction-free) across all five organizations\n";
  }

  if (!store_dir.empty()) {
    // Disk-tier replay: every request probes the two-tier store and a miss
    // installs the document (RAM first, demotions spilling to the slab log).
    // Bodies are synthetic ('x' * size) — the store times byte movement, not
    // origin fetches — and the watermark is a cheap stand-in signature; RSA
    // issuance is benchmarked elsewhere.
    const auto scope = phases.scope("store_replay");
    store::TieredObjectStore::Params sp;
    sp.ram_bytes = store_ram;
    sp.disk.dir = store_dir;
    sp.disk.capacity_bytes = store_capacity;
    store::TieredObjectStore tiered(sp);
    if (!tiered.open(&error)) {
      std::cerr << "cannot open store: " << error << "\n";
      return 1;
    }
    std::uint64_t hits = 0;
    const double start = obs::monotonic_seconds();
    for (const trace::Request& req : t.requests()) {
      if (tiered.get(req.doc).has_value()) {
        ++hits;
        continue;
      }
      runtime::Document doc;
      doc.body.assign(req.size, 'x');
      doc.mark.signature = crypto::BigUInt(req.doc);
      tiered.put(req.doc, std::move(doc));
    }
    tiered.sync();
    const double secs = obs::monotonic_seconds() - start;
    const double rps =
        secs > 0.0 ? static_cast<double>(t.size()) / secs : 0.0;
    obs::Registry::global()
        .gauge("store_replay_requests_per_second")
        .set(rps);
    std::cout << "store replay: requests=" << t.size() << " hits=" << hits
              << " seconds=" << secs << " requests/s=" << rps
              << " segments=" << tiered.disk()->segment_count()
              << " disk_bytes=" << tiered.disk()->total_bytes() << "\n";
  }

  if (overhead_guard > 0.0) {
    // A/B on the hot organization: a plain replay against the same replay
    // plus the per-request cost a sampling-off tracer adds to the runtime
    // engine (one root-span start per request, which collapses to a single
    // branch when the sampler is off — no id minting, no clock read, no
    // registry write).
    const auto scope = phases.scope("overhead_guard");
    const core::OrgKind kind = core::OrgKind::kBrowsersAware;
    obs::Tracer::Params tp;
    tp.seed = 1;
    tp.sample_rate = 0.0;
    tp.service = "bench";
    obs::Tracer tracer(tp);
    // The percentage budget is tight (default 2%), so each timing sample
    // must dwarf clock/scheduler noise: batch enough replays per sample to
    // fill ~100ms, sized from a calibration run (which also provides the
    // metrics for the bit-identity check below).
    double start = obs::monotonic_seconds();
    const sim::Metrics plain_metrics = sim::run_organization(kind, cfg, t);
    const double calib_secs = obs::monotonic_seconds() - start;
    const sim::Metrics traced_metrics = sim::run_organization(kind, cfg, t);
    std::uint64_t iters = 1;
    if (calib_secs > 0.0 && calib_secs < 0.1) {
      iters = static_cast<std::uint64_t>(0.1 / calib_secs) + 1;
    }
    const std::uint64_t guard_reps = reps < 5 ? 5 : reps;
    double best_plain = 0.0, best_traced = 0.0;
    for (std::uint64_t rep = 0; rep < guard_reps; ++rep) {
      start = obs::monotonic_seconds();
      for (std::uint64_t it = 0; it < iters; ++it) {
        sim::run_organization(kind, cfg, t);
      }
      const double plain_secs = obs::monotonic_seconds() - start;
      start = obs::monotonic_seconds();
      for (std::uint64_t it = 0; it < iters; ++it) {
        sim::run_organization(kind, cfg, t);
        for (std::size_t i = 0; i < t.size(); ++i) {
          obs::Span root = tracer.start_root_span(obs::SpanKind::kClientFetch);
        }
      }
      const double traced_secs = obs::monotonic_seconds() - start;
      if (rep == 0 || plain_secs < best_plain) best_plain = plain_secs;
      if (rep == 0 || traced_secs < best_traced) best_traced = traced_secs;
    }
    // Bit-identical first: an unsampled tracer must not perturb a single
    // simulated counter, histogram bucket, or derived ratio.
    const std::string plain_json = obs::metrics_to_json(plain_metrics).dump();
    const std::string traced_json =
        obs::metrics_to_json(traced_metrics).dump();
    if (plain_json != traced_json) {
      std::cerr << "overhead-guard: metrics differ with a sampling-off "
                   "tracer present\n";
      return 1;
    }
    const double regression_pct =
        best_plain > 0.0 ? (best_traced - best_plain) / best_plain * 100.0
                         : 0.0;
    obs::Registry::global()
        .gauge("replay_tracing_overhead_pct",
               {{"org", sim::org_name(kind)}})
        .set(regression_pct);
    std::cout << "overhead-guard: sampling-off tracer costs "
              << regression_pct << "% (budget " << overhead_guard << "%)\n";
    if (regression_pct > overhead_guard) {
      std::cerr << "overhead-guard: regression " << regression_pct
                << "% exceeds budget " << overhead_guard << "%\n";
      return 1;
    }
  }

  // The export sampler has covered every bench phase by now. Stop it before
  // the ts guard so the guard's sampler-free baseline is actually
  // sampler-free, and before write_report so the final interval record is
  // flushed ahead of the report.
  if (ts_sampler != nullptr) {
    ts_sampler->stop();
    if (!ts_out.empty()) std::cerr << "wrote " << ts_out << "\n";
  }

  if (ts_overhead_guard > 0.0) {
    // A/B on the hot organization: a plain replay against the same replay
    // with a TimeSeriesSampler ticking on its own thread. The sampler never
    // touches the simulation, so the simulated metrics must stay
    // bit-identical; the throughput cost is whatever its periodic registry
    // snapshots steal from the replay core, and that must stay under the
    // budget. Same batching discipline as --overhead-guard: each timing
    // sample is sized to ~100ms so the tight percentage budget is measured
    // above clock/scheduler noise.
    const auto scope = phases.scope("ts_overhead_guard");
    const core::OrgKind kind = core::OrgKind::kBrowsersAware;
    double start = obs::monotonic_seconds();
    const sim::Metrics off_metrics = sim::run_organization(kind, cfg, t);
    const double calib_secs = obs::monotonic_seconds() - start;
    std::uint64_t iters = 1;
    if (calib_secs > 0.0 && calib_secs < 0.1) {
      iters = static_cast<std::uint64_t>(0.1 / calib_secs) + 1;
    }
    const std::uint64_t guard_reps = reps < 5 ? 5 : reps;
    double best_off = 0.0;
    for (std::uint64_t rep = 0; rep < guard_reps; ++rep) {
      start = obs::monotonic_seconds();
      for (std::uint64_t it = 0; it < iters; ++it) {
        sim::run_organization(kind, cfg, t);
      }
      const double off_secs = obs::monotonic_seconds() - start;
      if (rep == 0 || off_secs < best_off) best_off = off_secs;
    }
    obs::TimeSeriesSampler::Params gp;
    gp.interval_seconds = ts_interval > 0.0 ? ts_interval : 0.05;
    obs::TimeSeriesSampler guard_sampler(gp);
    guard_sampler.start();
    const sim::Metrics on_metrics = sim::run_organization(kind, cfg, t);
    double best_on = 0.0;
    for (std::uint64_t rep = 0; rep < guard_reps; ++rep) {
      start = obs::monotonic_seconds();
      for (std::uint64_t it = 0; it < iters; ++it) {
        sim::run_organization(kind, cfg, t);
      }
      const double on_secs = obs::monotonic_seconds() - start;
      if (rep == 0 || on_secs < best_on) best_on = on_secs;
    }
    guard_sampler.stop();
    // Bit-identical first: a running sampler must not perturb a single
    // simulated counter, histogram bucket, or derived ratio.
    const std::string off_json = obs::metrics_to_json(off_metrics).dump();
    const std::string on_json = obs::metrics_to_json(on_metrics).dump();
    if (off_json != on_json) {
      std::cerr << "ts-overhead-guard: simulated metrics differ with the "
                   "sampler running\n";
      return 1;
    }
    const double regression_pct =
        best_off > 0.0 ? (best_on - best_off) / best_off * 100.0 : 0.0;
    obs::Registry::global()
        .gauge("replay_timeseries_overhead_pct",
               {{"org", sim::org_name(kind)}})
        .set(regression_pct);
    std::cout << "ts-overhead-guard: sampler at " << gp.interval_seconds
              << "s costs " << regression_pct << "% (budget "
              << ts_overhead_guard << "%, " << guard_sampler.intervals_captured()
              << " intervals captured)\n";
    if (regression_pct > ts_overhead_guard) {
      std::cerr << "ts-overhead-guard: regression " << regression_pct
                << "% exceeds budget " << ts_overhead_guard << "%\n";
      return 1;
    }
  }

  bench::write_report(args, "bench_replay", "Trace-replay throughput, BU-95",
                      t, {point}, phases);
  return 0;
}
