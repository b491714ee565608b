// perfbench — the repository benchmark's shared plumbing: clocks, the
// in-memory span tracer, the per-station counting taps, output digests and
// the metric report every workload fills in.
//
// A workload runs through the library's public API only. Untraced runs time
// the end-to-end path; traced runs (--trace 1) additionally record spans
// around each call into a layer and install counting taps, and report the
// per-layer metrics. Nothing here reads an environment variable.
#pragma once

#include <cstdint>
#include <cstring>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "src/mac/mac.h"
#include "src/runner/stream_stats.h"

namespace perfbench {

// --- clocks ------------------------------------------------------------------

// Wall seconds on the monotonic clock.
double wall_now();
// Process CPU seconds (user + sys, every thread).
double cpu_now();
// Peak resident set size of this process, MiB.
double peak_rss_mb();

// --- options -----------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;  // scratch directory for journals and span files
  int workers = 1;       // min(4, nproc), pinned per run
};

// --- spans -------------------------------------------------------------------

// In-memory span recorder. begin()/end() are thread-safe (campaign job
// bodies run on worker threads); disabled tracers record nothing and cost a
// branch. Spans are written out once, at exit.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), t0_(wall_now()) {}

  // Returns the span id (-1 when disabled). `parent` -1 = root.
  int begin(const char* name, int parent, int run);
  void end(int id);
  // A span whose start and end the caller timed (wall_now() seconds).
  void record(const char* name, double start, double end, int parent,
              int run);

  // RAII span on the calling thread.
  class Scope {
   public:
    Scope(Tracer& t, const char* name, int parent, int run)
        : t_(t), id_(t.begin(name, parent, run)) {}
    ~Scope() { t_.end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    int id() const { return id_; }

   private:
    Tracer& t_;
    int id_;
  };

  // One JSON object per line: name, start_us, end_us, id, parent, run.
  void write_jsonl(const std::string& path) const;
  // Per span name: count, total and self time (duration minus the part
  // covered by child spans), in ms.
  struct NameTotals {
    std::int64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;
  };
  std::map<std::string, NameTotals> totals() const;

 private:
  struct Span {
    const char* name = "";
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    int run = -1;
  };
  bool enabled_;
  double t0_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

// --- counting taps -----------------------------------------------------------

// Frame counts seen through Mac::tx_sniffer / Mac::sniffer taps. The taps
// chain onto whatever hook is already installed (GRC, capture writers) and
// draw no randomness, so they must not change the run: traced digests are
// compared against untraced ones to prove it.
struct TapCounts {
  std::int64_t tx_frames = 0;
  std::int64_t rx_frames = 0;
  std::int64_t rx_addressed = 0;
  std::int64_t rx_corrupted = 0;

  TapCounts& operator+=(const TapCounts& o) {
    tx_frames += o.tx_frames;
    rx_frames += o.rx_frames;
    rx_addressed += o.rx_addressed;
    rx_corrupted += o.rx_corrupted;
    return *this;
  }
};
// `counts` must outlive the MAC's run.
void install_taps(g80211::Mac& mac, TapCounts& counts);

// Summed MacStats over a set of stations.
struct MacTotals {
  std::int64_t data_sent = 0;
  std::int64_t data_success = 0;
  std::int64_t data_retries = 0;
  std::int64_t nav_updates = 0;
  std::int64_t queue_drops = 0;
  std::int64_t spoofed_acks = 0;
  std::int64_t fake_acks = 0;
  std::int64_t rx_data_ok = 0;  // DATA frames delivered up the stack

  void add(const g80211::MacStats& s);
  MacTotals& operator+=(const MacTotals& o);
};

// --- digests -----------------------------------------------------------------

// FNV-1a over the exact bit patterns fed in.
class Digest {
 public:
  Digest& add(std::uint64_t v);
  Digest& add(std::int64_t v) { return add(static_cast<std::uint64_t>(v)); }
  Digest& add(int v) { return add(static_cast<std::uint64_t>(v)); }
  Digest& add(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return add(bits);
  }
  Digest& add(const g80211::StreamingStat& s);
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ull;
};

// Counter-based seed derivation (splitmix64 of seed and index).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

// --- statistics --------------------------------------------------------------

double median(std::vector<double> v);
double quantile(std::vector<double> v, double q);  // linear interpolation
double ratio(double num, double den);               // 0 when den == 0

// --- report ------------------------------------------------------------------

// Everything one workload run measured. `metrics` holds the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run); `context`
// describes the run (host, build, seed).
struct Report {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> failures;  // first few, for the log
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics;
  std::map<std::string, std::string> context;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  // Record one op's outcome; a failed op keeps its reason (first 8).
  void op(bool ok, const std::string& what);
};

// --- workloads ---------------------------------------------------------------

void run_city(const Options& opt, Tracer& tracer, Report& report);
void run_sweep(const Options& opt, Tracer& tracer, Report& report);
void run_backhaul(const Options& opt, Tracer& tracer, Report& report);
void run_capture(const Options& opt, Tracer& tracer, Report& report);

}  // namespace perfbench
