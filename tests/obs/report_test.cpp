#include "obs/report.hpp"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "core/runner.hpp"
#include "trace/presets.hpp"

namespace baps::obs {
namespace {

const trace::Trace& shared_trace() {
  static const trace::Trace t =
      trace::load_preset_scaled(trace::Preset::kNlanrUc, 0.05);
  return t;
}

std::vector<core::CacheSizePoint> shared_sweep() {
  core::RunSpec spec;
  spec.sizing = core::BrowserSizing::kMinimum;
  return core::sweep_cache_sizes(
      shared_trace(), {0.05, 0.10},
      {core::OrgKind::kProxyAndLocalBrowser, core::OrgKind::kBrowsersAware},
      spec);
}

TEST(MetricsJsonTest, CountersAreExactAndRatiosConsistent) {
  sim::Metrics m;
  m.hits.hit(3);
  m.hits.miss(1);
  m.byte_hits.hit(3000);
  m.byte_hits.miss(500);
  m.local_browser_hits = 1;
  m.proxy_hits = 1;
  m.remote_browser_hits = 1;
  m.misses = 1;

  const JsonValue j = metrics_to_json(m);
  EXPECT_EQ(j.at("hits").at("count").as_uint(), 3u);
  EXPECT_EQ(j.at("hits").at("total").as_uint(), 4u);
  EXPECT_DOUBLE_EQ(j.at("hits").at("ratio").as_double(), 0.75);
  EXPECT_EQ(j.at("locations").at("miss").at("count").as_uint(), 1u);
}

TEST(ReportTest, BuildsValidatesAndRoundTrips) {
  const auto points = shared_sweep();

  PhaseTimers phases;
  phases.add("sweep", 0.25);

  const ReportBuilder builder =
      ReportBuilder("report_test")
          .set_title("round trip")
          .set_trace(shared_trace())
          .add_phases(phases)
          .add_sweep(points)
          .set_registry(Registry::global().snapshot());
  const JsonValue report = builder.build();

  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;

  // Dump → parse → the emitted hit-ratio fields must match the in-memory
  // Metrics EXACTLY (%.17g doubles survive the round trip bit-for-bit).
  const auto parsed = json_parse(report.dump(2), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(validate_report(*parsed, &error)) << error;

  const JsonValue& sweep = *parsed->find("sweep");
  ASSERT_EQ(sweep.as_array().size(), points.size());
  for (std::size_t i = 0; i < points.size(); ++i) {
    const JsonValue& entry = sweep.as_array()[i];
    EXPECT_EQ(entry.at("relative_cache_size").as_double(),
              points[i].relative_cache_size);
    const auto& orgs = entry.at("orgs").as_array();
    ASSERT_EQ(orgs.size(), points[i].by_org.size());
    for (const auto& org_entry : orgs) {
      const std::string org = org_entry.at("org").as_string();
      const sim::Metrics* m = nullptr;
      for (const auto& [kind, metrics] : points[i].by_org) {
        if (sim::org_name(kind) == org) m = &metrics;
      }
      ASSERT_NE(m, nullptr) << "unknown org " << org;
      const JsonValue& mj = org_entry.at("metrics");
      EXPECT_EQ(mj.at("hits").at("count").as_uint(), m->hits.hits());
      EXPECT_EQ(mj.at("hits").at("total").as_uint(), m->hits.total());
      EXPECT_EQ(mj.at("hits").at("ratio").as_double(), m->hit_ratio());
      EXPECT_EQ(mj.at("byte_hits").at("ratio").as_double(),
                m->byte_hit_ratio());
    }
  }

  // Phases survived.
  const JsonValue& ph = *parsed->find("phases");
  ASSERT_EQ(ph.as_array().size(), 1u);
  EXPECT_EQ(ph.as_array()[0].at("name").as_string(), "sweep");
}

TEST(ReportTest, WriteProducesAParseableFile) {
  const std::string path =
      ::testing::TempDir() + "/baps_report_test_out.json";
  std::string error;
  ASSERT_TRUE(ReportBuilder("report_test")
                  .add_sweep(shared_sweep())
                  .write(path, &error))
      << error;

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::ostringstream buf;
  buf << in.rdbuf();
  const auto parsed = json_parse(buf.str(), &error);
  ASSERT_TRUE(parsed.has_value()) << error;
  EXPECT_TRUE(validate_report(*parsed, &error)) << error;
  EXPECT_EQ(parsed->at("tool").as_string(), "report_test");
}

TEST(ReportTest, ClientScalingSectionValidatesWithTraceLabels) {
  core::RunSpec spec;
  spec.relative_cache_size = 0.10;
  const auto points =
      core::client_scaling_sweep(shared_trace(), {0.5, 1.0}, spec);

  const JsonValue report = ReportBuilder("report_test")
                               .add_client_scaling(points, "NLANR-uc")
                               .build();
  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;
  const auto& entries = report.at("client_scaling").as_array();
  ASSERT_EQ(entries.size(), 2u);
  EXPECT_EQ(entries[0].at("trace").as_string(), "NLANR-uc");
  EXPECT_EQ(entries[1].at("num_clients").as_uint(),
            points[1].num_clients);
}

TEST(ValidateTest, RejectsCorruptedReports) {
  std::string error;
  // Wrong schema id.
  JsonValue bad;
  bad.set("schema", JsonValue("nope.v0"));
  bad.set("tool", JsonValue("x"));
  EXPECT_FALSE(validate_report(bad, &error));

  // A tampered ratio must be caught by the recompute check.
  JsonValue report = ReportBuilder("report_test")
                         .add_sweep(shared_sweep())
                         .build();
  JsonValue& sweep = *report.find("sweep");
  JsonValue& metrics =
      *sweep.as_array()[0].find("orgs")->as_array()[0].find("metrics");
  metrics.find("hits")->set("ratio", JsonValue(0.123456));
  EXPECT_FALSE(validate_report(report, &error));
  EXPECT_NE(error.find("ratio"), std::string::npos) << error;
}

// Malformed fields of the wrong type or sign must be rejected with an error
// naming the field, never thrown out of the validator.
TEST(ValidateTest, RejectsMalformedFieldsWithoutThrowing) {
  PhaseTimers phases;
  phases.add("sweep", 0.25);
  const JsonValue good = ReportBuilder("report_test")
                             .add_phases(phases)
                             .add_sweep(shared_sweep())
                             .build();
  const auto first_metrics = [](JsonValue& report) -> JsonValue& {
    return *report.find("sweep")->as_array()[0].find("orgs")->as_array()[0]
                .find("metrics");
  };
  std::string error;

  JsonValue no_local = good;
  std::erase_if(first_metrics(no_local).find("locations")->as_object(),
                [](const auto& kv) { return kv.first == "local_browser"; });
  EXPECT_FALSE(validate_report(no_local, &error));
  EXPECT_NE(error.find("locations.local_browser"), std::string::npos)
      << error;

  JsonValue text_seconds = good;
  *text_seconds.find("phases")->as_array()[0].find("seconds") =
      JsonValue("fast");
  EXPECT_FALSE(validate_report(text_seconds, &error));
  EXPECT_NE(error.find("phases[0].seconds"), std::string::npos) << error;

  JsonValue negative_count = good;
  *first_metrics(negative_count).find("hits")->find("count") = JsonValue(-1);
  EXPECT_FALSE(validate_report(negative_count, &error));
  EXPECT_NE(error.find(".hits"), std::string::npos) << error;
}

JsonValue counter_json(const std::string& name, JsonObject labels,
                       double value) {
  return json_object({{"name", JsonValue(name)},
                      {"labels", JsonValue(std::move(labels))},
                      {"value", JsonValue(value)}});
}

JsonValue report_with_counters(JsonArray counters) {
  JsonValue registry;
  registry.set("counters", JsonValue(std::move(counters)));
  registry.set("gauges", JsonValue(JsonArray{}));
  registry.set("histograms", JsonValue(JsonArray{}));
  JsonValue report;
  report.set("schema", JsonValue(kReportSchema));
  report.set("tool", JsonValue("transport_test"));
  report.set("registry", std::move(registry));
  return report;
}

TEST(TransportMetricsTest, AcceptsConsistentWireCounters) {
  const JsonValue report = report_with_counters({
      counter_json("wire_frames_total", {{"dir", "tx"}, {"kind", "hello"}},
                   3),
      counter_json("wire_frames_total", {{"dir", "tx"}, {"kind", "bye"}}, 2),
      counter_json("wire_frames_total", {{"dir", "rx"}, {"kind", "hello"}},
                   5),
      counter_json("wire_bytes_total", {{"dir", "tx"}}, 5 * 16 + 40),
      counter_json("wire_bytes_total", {{"dir", "rx"}}, 5 * 16),
      counter_json("netio_timeouts_total", {{"op", "read"}}, 1),
  });
  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;
}

TEST(TransportMetricsTest, RejectsBadDirLabel) {
  const JsonValue report = report_with_counters({
      counter_json("wire_frames_total", {{"dir", "up"}, {"kind", "hello"}},
                   1),
  });
  std::string error;
  EXPECT_FALSE(validate_report(report, &error));
  EXPECT_NE(error.find("dir label"), std::string::npos) << error;
}

TEST(TransportMetricsTest, RejectsFrameBytesBelowTheHeaderFloor) {
  // 10 frames can never cost fewer than 10 headers of bytes.
  const JsonValue report = report_with_counters({
      counter_json("wire_frames_total", {{"dir", "tx"}, {"kind", "hello"}},
                   10),
      counter_json("wire_bytes_total", {{"dir", "tx"}}, 100),
  });
  std::string error;
  EXPECT_FALSE(validate_report(report, &error));
  EXPECT_NE(error.find("fewer bytes"), std::string::npos) << error;
}

TEST(TransportMetricsTest, RejectsNegativeTransportCounters) {
  const JsonValue report = report_with_counters({
      counter_json("netio_retries_total", {{"op", "fetch"}}, -1),
  });
  std::string error;
  EXPECT_FALSE(validate_report(report, &error));
  EXPECT_NE(error.find("negative"), std::string::npos) << error;
}

TEST(TransportMetricsTest, MonotonicityAcceptsGrowthAndNewCounters) {
  const JsonValue earlier = report_with_counters({
      counter_json("wire_frames_total", {{"dir", "tx"}, {"kind", "hello"}},
                   3),
  });
  const JsonValue later = report_with_counters({
      counter_json("wire_frames_total", {{"dir", "tx"}, {"kind", "hello"}},
                   7),
      counter_json("netio_timeouts_total", {{"op", "read"}}, 2),
  });
  std::string error;
  EXPECT_TRUE(validate_transport_monotonicity(earlier, later, &error))
      << error;
}

TEST(TransportMetricsTest, MonotonicityRejectsACounterGoingBackwards) {
  const JsonValue earlier = report_with_counters({
      counter_json("wire_bytes_total", {{"dir", "rx"}}, 640),
  });
  const JsonValue later = report_with_counters({
      counter_json("wire_bytes_total", {{"dir", "rx"}}, 639),
  });
  std::string error;
  EXPECT_FALSE(validate_transport_monotonicity(earlier, later, &error));
  EXPECT_NE(error.find("backwards"), std::string::npos) << error;
}

TEST(TransportMetricsTest, MonotonicityDistinguishesLabelSets) {
  // tx dropping while rx grows must still fail: instances are matched by
  // their full label set, not just the name.
  const JsonValue earlier = report_with_counters({
      counter_json("wire_bytes_total", {{"dir", "tx"}}, 100),
      counter_json("wire_bytes_total", {{"dir", "rx"}}, 100),
  });
  const JsonValue later = report_with_counters({
      counter_json("wire_bytes_total", {{"dir", "tx"}}, 50),
      counter_json("wire_bytes_total", {{"dir", "rx"}}, 200),
  });
  std::string error;
  EXPECT_FALSE(validate_transport_monotonicity(earlier, later, &error));
  EXPECT_NE(error.find("dir=tx"), std::string::npos) << error;
}

TEST(TransportMetricsTest, ReportsWithoutWireCountersPassTrivially) {
  const JsonValue report = ReportBuilder("report_test")
                               .add_sweep(shared_sweep())
                               .build();
  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;
  EXPECT_TRUE(
      validate_transport_monotonicity(report, report, &error))
      << error;
}

JsonValue report_with_gauges(JsonArray gauges) {
  JsonValue registry;
  registry.set("counters", JsonValue(JsonArray{}));
  registry.set("gauges", JsonValue(std::move(gauges)));
  registry.set("histograms", JsonValue(JsonArray{}));
  JsonValue report;
  report.set("schema", JsonValue(kReportSchema));
  report.set("tool", JsonValue("replay_test"));
  report.set("registry", std::move(registry));
  return report;
}

TEST(ReplayMetricsTest, AcceptsLabeledPositiveGauges) {
  const JsonValue report = report_with_gauges({
      counter_json("replay_requests_per_second",
                   {{"org", "browsers-aware-proxy-server"}}, 2.5e6),
      counter_json("replay_requests_per_second", {{"org", "proxy-cache-only"}},
                   7.1e6),
      counter_json("some_other_gauge", {}, 0.0),  // not the family: ignored
  });
  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;
}

TEST(ReplayMetricsTest, RejectsMissingOrgLabel) {
  const JsonValue report = report_with_gauges({
      counter_json("replay_requests_per_second", {}, 1.0e6),
  });
  std::string error;
  EXPECT_FALSE(validate_report(report, &error));
  EXPECT_NE(error.find("org label"), std::string::npos) << error;
}

TEST(ReplayMetricsTest, RejectsNonPositiveThroughput) {
  const JsonValue report = report_with_gauges({
      counter_json("replay_requests_per_second", {{"org", "proxy-cache-only"}},
                   0.0),
  });
  std::string error;
  EXPECT_FALSE(validate_report(report, &error));
  EXPECT_NE(error.find("finite and positive"), std::string::npos) << error;
}

TEST(ReplayMetricsTest, ReportsWithoutReplayGaugesPassTrivially) {
  const JsonValue report =
      ReportBuilder("report_test").add_sweep(shared_sweep()).build();
  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;
}

TEST(FaultMetricsTest, AcceptsKindLabeledFaultCounters) {
  const JsonValue report = report_with_counters({
      counter_json("fault_injected_total", {{"kind", "drop_frame"}}, 7),
      counter_json("fault_recovered_total", {{"kind", "drop_frame"}}, 7),
      counter_json("fault_injected_total", {{"kind", "peer_depart"}}, 3),
      counter_json("stale_index_hits_total", {}, 2),
  });
  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;
}

TEST(FaultMetricsTest, RejectsRecoveredExceedingInjected) {
  const JsonValue report = report_with_counters({
      counter_json("fault_injected_total", {{"kind", "corrupt_frame"}}, 2),
      counter_json("fault_recovered_total", {{"kind", "corrupt_frame"}}, 3),
  });
  std::string error;
  EXPECT_FALSE(validate_report(report, &error));
  EXPECT_NE(error.find("exceeds"), std::string::npos) << error;
}

TEST(FaultMetricsTest, RejectsRecoveredForAKindNeverInjected) {
  const JsonValue report = report_with_counters({
      counter_json("fault_recovered_total", {{"kind", "slow_peer"}}, 1),
  });
  std::string error;
  EXPECT_FALSE(validate_report(report, &error));
  EXPECT_NE(error.find("exceeds"), std::string::npos) << error;
}

TEST(FaultMetricsTest, RejectsMissingKindLabel) {
  const JsonValue report = report_with_counters({
      counter_json("fault_injected_total", {}, 1),
  });
  std::string error;
  EXPECT_FALSE(validate_report(report, &error));
  EXPECT_NE(error.find("kind label"), std::string::npos) << error;
}

TEST(FaultMetricsTest, RejectsNegativeStaleIndexHits) {
  const JsonValue report = report_with_counters({
      counter_json("stale_index_hits_total", {}, -1),
  });
  std::string error;
  EXPECT_FALSE(validate_report(report, &error));
  EXPECT_NE(error.find("negative"), std::string::npos) << error;
}

TEST(FaultMetricsTest, ReportsWithoutFaultCountersPassTrivially) {
  const JsonValue report =
      ReportBuilder("report_test").add_sweep(shared_sweep()).build();
  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;
}

JsonValue store_stage_json(const std::string& op, double count) {
  JsonObject labels;
  if (!op.empty()) labels.emplace_back("op", JsonValue(op));
  return json_object({{"name", JsonValue("store_stage_seconds")},
                      {"labels", JsonValue(std::move(labels))},
                      {"count", JsonValue(count)}});
}

JsonValue report_with_store_registry(JsonArray counters,
                                     JsonArray histograms) {
  JsonValue registry;
  registry.set("counters", JsonValue(std::move(counters)));
  registry.set("gauges", JsonValue(JsonArray{}));
  registry.set("histograms", JsonValue(std::move(histograms)));
  JsonValue report;
  report.set("schema", JsonValue(kReportSchema));
  report.set("tool", JsonValue("store_test"));
  report.set("registry", std::move(registry));
  return report;
}

TEST(StoreMetricsTest, AcceptsConsistentStoreFamily) {
  const JsonValue report = report_with_store_registry(
      {
          counter_json("store_probes_total", {}, 10),
          counter_json("store_hits_total", {}, 7),
          counter_json("store_misses_total", {}, 3),
          counter_json("store_demotions_total", {}, 12),
          counter_json("store_promotions_total", {}, 7),
          counter_json("store_integrity_failures_total", {}, 0),
          counter_json("store_bytes_total", {{"dir", "read"}}, 9000),
          counter_json("store_bytes_total", {{"dir", "written"}}, 15000),
      },
      {
          store_stage_json("probe", 10),
          store_stage_json("demote", 12),
          store_stage_json("promote", 7),
      });
  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;
}

TEST(StoreMetricsTest, RejectsProbesNotSplittingIntoHitsAndMisses) {
  const JsonValue report = report_with_store_registry(
      {
          counter_json("store_probes_total", {}, 10),
          counter_json("store_hits_total", {}, 7),
          counter_json("store_misses_total", {}, 2),  // one probe unaccounted
      },
      {});
  std::string error;
  EXPECT_FALSE(validate_report(report, &error));
  EXPECT_NE(error.find("store_probes_total"), std::string::npos) << error;
}

TEST(StoreMetricsTest, RejectsBytesWithoutReadOrWrittenDir) {
  const JsonValue report = report_with_store_registry(
      {
          counter_json("store_bytes_total", {{"dir", "sideways"}}, 100),
      },
      {});
  std::string error;
  EXPECT_FALSE(validate_report(report, &error));
  EXPECT_NE(error.find("read or written"), std::string::npos) << error;
}

TEST(StoreMetricsTest, RejectsNegativeStoreCounter) {
  const JsonValue report = report_with_store_registry(
      {
          counter_json("store_integrity_failures_total", {}, -1),
      },
      {});
  std::string error;
  EXPECT_FALSE(validate_report(report, &error));
  EXPECT_NE(error.find("negative"), std::string::npos) << error;
}

TEST(StoreMetricsTest, RejectsStageHistogramWithoutOpLabel) {
  const JsonValue report =
      report_with_store_registry({}, {store_stage_json("", 3)});
  std::string error;
  EXPECT_FALSE(validate_report(report, &error));
  EXPECT_NE(error.find("op label"), std::string::npos) << error;
}

TEST(StoreMetricsTest, StoreCountersJoinMonotonicityChecks) {
  const JsonValue earlier = report_with_store_registry(
      {counter_json("store_hits_total", {}, 5)}, {});
  const JsonValue later = report_with_store_registry(
      {counter_json("store_hits_total", {}, 4)}, {});
  std::string error;
  EXPECT_FALSE(validate_transport_monotonicity(earlier, later, &error));
  EXPECT_NE(error.find("store_hits_total"), std::string::npos) << error;
  EXPECT_TRUE(validate_transport_monotonicity(later, earlier, &error))
      << error;
}

TEST(StoreMetricsTest, ReportsWithoutStoreInstrumentsPassTrivially) {
  const JsonValue report =
      ReportBuilder("report_test").add_sweep(shared_sweep()).build();
  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;
}

JsonValue gauge_json(const std::string& name, JsonObject labels,
                     double value) {
  return json_object({{"name", JsonValue(name)},
                      {"labels", JsonValue(std::move(labels))},
                      {"value", JsonValue(value)}});
}

JsonValue report_with_netio_registry(JsonArray counters, JsonArray gauges) {
  JsonValue registry;
  registry.set("counters", JsonValue(std::move(counters)));
  registry.set("gauges", JsonValue(std::move(gauges)));
  registry.set("histograms", JsonValue(JsonArray{}));
  JsonValue report;
  report.set("schema", JsonValue(kReportSchema));
  report.set("tool", JsonValue("netio_test"));
  report.set("registry", std::move(registry));
  return report;
}

TEST(NetioMetricsTest, AcceptsConsistentConnloadFamily) {
  const JsonValue report = report_with_netio_registry(
      {
          counter_json("netio_connections_total", {}, 10000),
          counter_json("netio_epoll_wakeups_total", {}, 123456),
          counter_json("connload_established_total", {}, 10000),
          counter_json("connload_roundtrips_total", {}, 10000),
      },
      {
          gauge_json("netio_connections_active", {}, 0),
          gauge_json("connload_connections_peak", {}, 10000),
          gauge_json("connload_accept_rate_per_second", {}, 9360.4),
          gauge_json("connload_roundtrip_quantile_seconds", {{"q", "p50"}},
                     0.016),
          gauge_json("connload_roundtrip_quantile_seconds", {{"q", "p99"}},
                     0.048),
          gauge_json("connload_roundtrip_quantile_seconds", {{"q", "p999"}},
                     0.058),
      });
  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;
}

TEST(NetioMetricsTest, RejectsNonMonotoneQuantiles) {
  const JsonValue report = report_with_netio_registry(
      {},
      {
          gauge_json("connload_roundtrip_quantile_seconds", {{"q", "p50"}},
                     0.050),
          gauge_json("connload_roundtrip_quantile_seconds", {{"q", "p99"}},
                     0.048),
          gauge_json("connload_roundtrip_quantile_seconds", {{"q", "p999"}},
                     0.058),
      });
  std::string error;
  EXPECT_FALSE(validate_report(report, &error));
  EXPECT_NE(error.find("monotone"), std::string::npos) << error;
}

TEST(NetioMetricsTest, RejectsALoneQuantileInstance) {
  const JsonValue report = report_with_netio_registry(
      {},
      {
          gauge_json("connload_roundtrip_quantile_seconds", {{"q", "p50"}},
                     0.016),
      });
  std::string error;
  EXPECT_FALSE(validate_report(report, &error));
  EXPECT_NE(error.find("missing q="), std::string::npos) << error;
}

TEST(NetioMetricsTest, RejectsBadQuantileLabel) {
  const JsonValue report = report_with_netio_registry(
      {},
      {
          gauge_json("connload_roundtrip_quantile_seconds", {{"q", "p42"}},
                     0.016),
      });
  std::string error;
  EXPECT_FALSE(validate_report(report, &error));
}

TEST(NetioMetricsTest, RejectsPeakAboveEstablished) {
  const JsonValue report = report_with_netio_registry(
      {
          counter_json("connload_established_total", {}, 100),
      },
      {
          gauge_json("connload_connections_peak", {}, 101),
      });
  std::string error;
  EXPECT_FALSE(validate_report(report, &error));
  EXPECT_NE(error.find("peak"), std::string::npos) << error;
}

TEST(NetioMetricsTest, RejectsNegativeNetioGauge) {
  const JsonValue report = report_with_netio_registry(
      {},
      {
          gauge_json("netio_connections_active", {}, -1),
      });
  std::string error;
  EXPECT_FALSE(validate_report(report, &error));
}

TEST(NetioMetricsTest, ReportsWithoutNetioInstrumentsPassTrivially) {
  const JsonValue report =
      ReportBuilder("report_test").add_sweep(shared_sweep()).build();
  std::string error;
  EXPECT_TRUE(validate_report(report, &error)) << error;
}

}  // namespace
}  // namespace baps::obs
