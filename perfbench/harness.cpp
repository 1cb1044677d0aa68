#include "harness.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <thread>

namespace perfbench {

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  return std::accumulate(values.begin(), values.end(), 0.0) /
         static_cast<double>(values.size());
}

double grouped_quantile(const std::vector<double>& sorted, double q,
                        double tick) {
  if (sorted.empty()) return 0.0;
  const double target = q * static_cast<double>(sorted.size());
  const std::size_t at =
      std::min(sorted.size() - 1, static_cast<std::size_t>(target));
  const double v = sorted[at];
  const auto [first, last] = std::equal_range(sorted.begin(), sorted.end(), v);
  const auto below = static_cast<double>(first - sorted.begin());
  const auto ties = static_cast<double>(last - first);
  return v - tick / 2 + tick * (target - below) / ties;
}

Usage usage_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  Usage u;
  u.cpu_s = secs(ru.ru_utime) + secs(ru.ru_stime);
  u.peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
  return u;
}

unsigned cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<unsigned>(n) : 1U;
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t h) {
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t trace_digest(const baps::trace::Trace& trace) {
  std::uint64_t h = fnv1a(trace.name());
  const auto mix = [&h](std::uint64_t v) {
    h = fnv1a(std::string_view(reinterpret_cast<const char*>(&v), sizeof(v)),
              h);
  };
  mix(trace.num_clients());
  mix(trace.num_docs());
  for (const baps::trace::Request& r : trace.requests()) {
    mix(r.client);
    mix(r.doc);
    mix(r.size);
  }
  return h;
}

namespace {

bool labels_include(const baps::obs::Labels& have,
                    const baps::obs::Labels& want) {
  return std::all_of(want.begin(), want.end(), [&](const auto& kv) {
    return std::find(have.begin(), have.end(), kv) != have.end();
  });
}

}  // namespace

std::uint64_t counter_sum(const baps::obs::Snapshot& snap,
                          const std::string& name,
                          const baps::obs::Labels& match) {
  std::uint64_t total = 0;
  for (const baps::obs::CounterSample& c : snap.counters) {
    if (c.name == name && labels_include(c.labels, match)) total += c.value;
  }
  return total;
}

HistTotals histogram_totals(const baps::obs::Snapshot& snap,
                            const std::string& name,
                            const baps::obs::Labels& labels) {
  for (const baps::obs::HistogramSample& h : snap.histograms) {
    if (h.name == name && h.labels == labels) return {h.count, h.sum};
  }
  return {};
}

std::string Result::json() const {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  char num[64];
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    // Full precision: every digit the measurement has.
    std::snprintf(num, sizeof(num), "%.17g", metrics[i].value);
    if (i > 0) out += ", ";
    out += "\"" + metrics[i].name + "\": {\"value\": " + num +
           ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  return out;
}

TimedTransport::CallLog TimedTransport::take_log() {
  CallLog out = log_;
  log_ = CallLog{};
  return out;
}

void TimedTransport::bind_peer_host(baps::runtime::PeerHost* host) {
  host_ = host;
  inner_.bind_peer_host(this);
}

baps::runtime::ProxyCore::Reply TimedTransport::fetch(
    baps::runtime::ClientId client, const baps::runtime::Url& url,
    bool avoid_peers, const baps::obs::TraceContext& trace) {
  mu_.unlock();
  const double t0 = now_s();
  baps::runtime::ProxyCore::Reply reply;
  try {
    reply = inner_.fetch(client, url, avoid_peers, trace);
  } catch (...) {
    mu_.lock();
    throw;
  }
  const double t1 = now_s();
  mu_.lock();
  if (log_.fetches == 0) {
    log_.trace_id = trace.trace_id;
    log_.first_fetch_start_s = t0;
    log_.first_fetch_end_s = t1;
  }
  log_.fetch_s += t1 - t0;
  ++log_.fetches;
  return reply;
}

bool TimedTransport::index_update(baps::runtime::ClientId claimed_sender,
                                  bool is_add,
                                  baps::runtime::DocStore::Key key,
                                  const baps::crypto::Md5Digest& mac) {
  if (is_add) mu_.unlock();
  const double t0 = now_s();
  bool accepted = false;
  try {
    accepted = inner_.index_update(claimed_sender, is_add, key, mac);
  } catch (...) {
    if (is_add) mu_.lock();
    throw;
  }
  const double t1 = now_s();
  if (is_add) mu_.lock();
  log_.index_s += t1 - t0;
  ++log_.index_updates;
  if (!is_add) ++log_.index_removes;
  return accepted;
}

std::optional<baps::runtime::Document> TimedTransport::serve_peer_fetch(
    baps::runtime::ClientId holder, baps::runtime::DocStore::Key key) {
  if (slow_peers_ != nullptr &&
      slow_peers_->decide(baps::fault::FaultKind::kSlowPeer)) {
    std::this_thread::sleep_for(
        std::chrono::milliseconds(slow_peers_->rates().slow_peer_delay_ms));
  }
  const std::lock_guard<std::mutex> lock(mu_);
  return host_->serve_peer_fetch(holder, key);
}

}  // namespace perfbench
