// perfbench: runs one benchmark workload per invocation.
//
//   perfbench --workload city|sweep|backhaul|capture --seed N --seconds S
//             --trace 0|1 --work-dir DIR
//
// Prints the run's context and every metric as `name value unit` lines,
// then one JSON object as the last line of stdout:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...},
//    "context": {...}}
// With --trace 0 the metrics are the end-to-end ones; with --trace 1 the
// per-layer ones (a layer a workload does not reach reports 0), and the
// spans are written to DIR/spans.jsonl. perfbench/run.py builds this
// binary and selects the metrics BENCHMARK.json declares.
#include <sched.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <string>

#include "perfbench/perfbench.h"

#ifndef G80211_BUILD_TYPE
#define G80211_BUILD_TYPE "unspecified"
#endif
#ifndef G80211_LTO
#define G80211_LTO 0
#endif
#ifndef G80211_COMPILER
#define G80211_COMPILER "unknown"
#endif

namespace perfbench {

// --- clocks ------------------------------------------------------------------

double wall_now() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double cpu_now() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  // VmHWM belongs to this process image; getrusage's ru_maxrss survives
  // exec and would report the launching interpreter's peak instead.
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0.0;
  while (std::fgets(line, sizeof line, f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) kib = std::strtod(line + 6, nullptr);
  }
  std::fclose(f);
  return kib / 1024.0;
}

// --- spans -------------------------------------------------------------------

int Tracer::begin(const char* name, int parent, int run) {
  if (!enabled_) return -1;
  const double now = wall_now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, now, now, parent, run});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int id) {
  if (id < 0) return;
  const double now = wall_now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end = now;
}

void Tracer::record(const char* name, double start, double end, int parent,
                    int run) {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(Span{name, start, end, parent, run});
}

void Tracer::write_jsonl(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"start_us\":%.3f,\"end_us\":%.3f,"
                 "\"id\":%zu,\"parent\":%d,\"run\":%d}\n",
                 s.name, (s.start - t0_) * 1e6, (s.end - t0_) * 1e6, i,
                 s.parent, s.run);
  }
  std::fclose(f);
}

std::map<std::string, Tracer::NameTotals> Tracer::totals() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    }
  }
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const double dur = spans_[i].end - spans_[i].start;
    NameTotals& t = out[spans_[i].name];
    ++t.count;
    t.total_ms += dur * 1e3;
    // Parallel children (campaign jobs) can cover more than the parent.
    t.self_ms += std::max(0.0, dur - child[i]) * 1e3;
  }
  return out;
}

// --- taps --------------------------------------------------------------------

void install_taps(g80211::Mac& mac, TapCounts& counts) {
  auto tx = std::move(mac.tx_sniffer);
  mac.tx_sniffer = [tx = std::move(tx), &counts](const g80211::Frame& f,
                                                 g80211::Time start,
                                                 g80211::Time end) {
    if (tx) tx(f, start, end);
    ++counts.tx_frames;
  };
  auto rx = std::move(mac.sniffer);
  const int self = mac.id();
  mac.sniffer = [rx = std::move(rx), &counts, self](const g80211::Frame& f,
                                                    const g80211::RxInfo& info) {
    if (rx) rx(f, info);
    ++counts.rx_frames;
    if (f.ra == self) ++counts.rx_addressed;
    if (info.corrupted) ++counts.rx_corrupted;
  };
}

void MacTotals::add(const g80211::MacStats& s) {
  data_sent += s.data_sent;
  data_success += s.data_success;
  data_retries += s.data_retries;
  nav_updates += s.nav_updates;
  queue_drops += s.queue_drops;
  spoofed_acks += s.spoofed_acks_sent;
  fake_acks += s.fake_acks_sent;
  rx_data_ok += s.rx_data_ok;
}

MacTotals& MacTotals::operator+=(const MacTotals& o) {
  data_sent += o.data_sent;
  data_success += o.data_success;
  data_retries += o.data_retries;
  nav_updates += o.nav_updates;
  queue_drops += o.queue_drops;
  spoofed_acks += o.spoofed_acks;
  fake_acks += o.fake_acks;
  rx_data_ok += o.rx_data_ok;
  return *this;
}

// --- digests -----------------------------------------------------------------

Digest& Digest::add(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h_ ^= (v >> (8 * i)) & 0xffu;
    h_ *= 1099511628211ull;
  }
  return *this;
}

Digest& Digest::add(const g80211::StreamingStat& s) {
  return add(s.count()).add(s.mean()).add(s.min()).add(s.max()).add(s.p25())
      .add(s.p50()).add(s.p75());
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index) {
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

// --- statistics --------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

// --- report ------------------------------------------------------------------

void Report::op(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

namespace {

// Every per-layer metric with its unit. A traced run reports each one; a
// layer the workload does not reach reports 0.
const std::pair<const char*, const char*> kLayerMetrics[] = {
    {"scenario.spec_parse_s", "s"},
    {"scenario.plan_s", "s"},
    {"scenario.build_s", "s"},
    {"scenario.window_wall_ms.p50", "ms"},
    {"scenario.window_wall_ms.p90", "ms"},
    {"scenario.handoffs", "count"},
    {"sim.events", "count"},
    {"sim.events_per_sim_s", "1/sim-s"},
    {"sim.ns_per_event", "ns"},
    {"sim.pool_slots", "count"},
    {"sim.tombstones", "count"},
    {"channel.tx_frames", "count"},
    {"channel.rx_per_tx", "ratio"},
    {"channel.link_tables_rebuilt", "count"},
    {"phy.rx_frames", "count"},
    {"phy.rx_addressed_share", "ratio"},
    {"phy.rx_corrupted_share", "ratio"},
    {"mac.data_sent", "count"},
    {"mac.success_share", "ratio"},
    {"mac.retry_share", "ratio"},
    {"mac.nav_updates", "count"},
    {"mac.queue_drops", "count"},
    {"transport.honest_mbps", "Mb/s"},
    {"transport.greedy_mbps", "Mb/s"},
    {"greedy.spoofed_acks", "count"},
    {"greedy.fake_acks", "count"},
    {"detect.nav_detections", "count"},
    {"detect.spoof_detections", "count"},
    {"runner.runs", "count"},
    {"runner.run_wall_ms.p50", "ms"},
    {"runner.run_wall_ms.p90", "ms"},
    {"runner.busy_share", "ratio"},
    {"runner.speedup", "x"},
    {"shard.epochs", "count"},
    {"shard.cross_packets", "count"},
    {"shard.wall_us_per_epoch", "us"},
    {"shard.cpu_share", "ratio"},
    {"shard.speedup", "x"},
    {"capture.frames_written", "count"},
    {"capture.bytes_per_frame", "B"},
    {"capture.write_ns_per_frame", "ns"},
    {"capture.write_share", "ratio"},
    {"capture.parse_frames_per_s", "frames/s"},
    {"capture.parse_share", "ratio"},
    {"monitor.detect_frames_per_s", "frames/s"},
    {"monitor.windows", "count"},
    {"monitor.alerts", "count"},
    {"monitor.shard_speedup", "x"},
    {"monitor.stream_imbalance", "ratio"},
    {"trace.overhead_share", "ratio"},
};

int nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return 1;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "city|sweep|backhaul|capture --seed N --seconds S --trace 0|1 "
               "--work-dir DIR\n",
               why);
  std::exit(2);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out;
}

Options parse_args(int argc, char** argv) {
  Options opt;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (a == "--workload") {
      opt.workload = v;
    } else if (a == "--seed") {
      opt.seed = std::strtoull(v.c_str(), &end, 10);
      if (end == v.c_str() || *end != '\0') usage("--seed takes an integer");
      have_seed = true;
    } else if (a == "--seconds") {
      opt.seconds = std::strtod(v.c_str(), &end);
      if (end == v.c_str() || *end != '\0' || !(opt.seconds > 0.0) ||
          opt.seconds > 600.0) {
        usage("--seconds takes a number in (0, 600]");
      }
    } else if (a == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      opt.trace = v == "1";
    } else if (a == "--work-dir") {
      opt.work_dir = v;
    } else {
      usage(("unknown argument " + a).c_str());
    }
  }
  if (opt.workload.empty()) usage("--workload is required");
  if (!have_seed) usage("--seed is required");
  if (opt.work_dir.empty()) usage("--work-dir is required");
  return opt;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt = parse_args(argc, argv);

  // Speed claims are Release + LTO measurements; refuse anything else, as
  // bench/compare_simperf.py refuses a build-type mismatch.
  if (std::string(G80211_BUILD_TYPE) != "release" || G80211_LTO != 1) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a '%s' build (LTO %d); "
                 "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 G80211_BUILD_TYPE, G80211_LTO);
    return 3;
  }
  // Every input is pinned here, never through the library's env knobs.
  for (const char* var :
       {"G80211_QUICK", "G80211_JOBS", "G80211_METRICS_DIR", "G80211_CAPTURE"}) {
    unsetenv(var);
  }
  const int cpus = nproc();
  opt.workers = std::min(4, cpus);

  void (*workload)(const Options&, Tracer&, Report&) = nullptr;
  if (opt.workload == "city") workload = run_city;
  if (opt.workload == "sweep") workload = run_sweep;
  if (opt.workload == "backhaul") workload = run_backhaul;
  if (opt.workload == "capture") workload = run_capture;
  if (workload == nullptr) usage(("unknown workload " + opt.workload).c_str());

  std::error_code ec;
  std::filesystem::create_directories(opt.work_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s: %s\n",
                 opt.work_dir.c_str(), ec.message().c_str());
    return 2;
  }

  Tracer tracer(opt.trace);
  Report report;
  report.context["workload"] = opt.workload;
  report.context["seed"] = std::to_string(opt.seed);
  report.context["seconds"] = std::to_string(opt.seconds);
  report.context["trace"] = opt.trace ? "1" : "0";
  report.context["nproc"] = std::to_string(cpus);
  report.context["workers"] = std::to_string(opt.workers);
  report.context["g80211_build_type"] = G80211_BUILD_TYPE;
  report.context["lto"] = G80211_LTO ? "on" : "off";
  report.context["compiler"] = G80211_COMPILER;
  try {
    workload(opt, tracer, report);
  } catch (const std::exception& e) {
    report.op(false, std::string("exception: ") + e.what());
  }

  if (opt.trace) {
    for (const auto& [name, unit] : kLayerMetrics) {
      if (report.metrics.count(name) == 0) report.set(name, 0.0, unit);
    }
    const std::string spans = opt.work_dir + "/spans.jsonl";
    tracer.write_jsonl(spans);
    report.context["spans"] = spans;
    for (const auto& [name, t] : tracer.totals()) {
      std::printf("span %-36s n=%-6lld total_ms=%-12.3f self_ms=%.3f\n",
                  name.c_str(), static_cast<long long>(t.count), t.total_ms,
                  t.self_ms);
    }
  } else {
    if (report.metrics.count("peak_rss_mb") == 0) {
      report.set("peak_rss_mb", peak_rss_mb(), "MiB");  // the run failed early
    }
    report.set("ops_failed_ratio",
               ratio(static_cast<double>(report.failed),
                     static_cast<double>(report.attempted)),
               "ratio");
  }

  for (const std::string& f : report.failures) {
    std::printf("FAILED %s\n", f.c_str());
  }
  for (const auto& [k, v] : report.context) {
    std::printf("context %s %s\n", k.c_str(), v.c_str());
  }
  for (const auto& [name, m] : report.metrics) {
    std::printf("metric %s %.17g %s\n", name.c_str(), m.value, m.unit.c_str());
  }

  const bool correct = report.failed == 0 && report.attempted > 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(report.attempted);
  json += ", \"failed\": " + std::to_string(report.failed);
  json += ", \"metrics\": {";
  bool first = true;
  char num[64];
  for (const auto& [name, m] : report.metrics) {
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(num, sizeof num, "%.17g", v);
    json += first ? "" : ", ";
    first = false;
    json += "\"" + json_escape(name) + "\": {\"value\": " + num +
            ", \"unit\": \"" + json_escape(m.unit) + "\"}";
  }
  json += "}, \"context\": {";
  first = true;
  for (const auto& [k, v] : report.context) {
    json += first ? "" : ", ";
    first = false;
    json += "\"" + json_escape(k) + "\": \"" + json_escape(v) + "\"";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}
