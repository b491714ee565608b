// Shared experiment runners for the per-figure/table bench binaries.
//
// Every seeded bench follows the same pattern: each printed table is one
// named Campaign (src/runner/campaign.h) whose metric names are the
// table's columns, or the per-flow values a derived column averages. The
// bench adds every sweep point with default_runs() seeds (median-of-5, as
// in the paper), runs the campaign once, prints the paper-style table from
// the points' medians, and exposes the headline numbers as
// google-benchmark counters. The campaign exports every table to
// $G80211_METRICS_DIR/<figure>.{jsonl,csv}.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/runner/campaign.h"
#include "src/scenario/scenario.h"
#include "src/scenario/topology.h"
#include "src/sim/time.h"

namespace g80211::bench {

// Environment variable G80211_QUICK=1 shrinks runs/durations (used by the
// test suite so integration tests stay fast; benches run full-size).
bool quick_mode();

// Number of seeded repetitions per data point: 5 (paper) or 2 in quick mode.
int default_runs();

// Measurement window per run: 10 s, or 2 s in quick mode.
Time default_measure();

// Fixed-width paper-style table printer. NOT thread-safe: like all stdout
// output in the harness it must only be used from the aggregation (main)
// thread, after Campaign::run has returned — never from job bodies.
class TableWriter {
 public:
  explicit TableWriter(std::vector<std::string> columns, int width = 12);

  void print_header() const;
  void print_row(const std::vector<double>& values,
                 const std::string& label = "") const;
  void print_text_row(const std::vector<std::string>& cells) const;

 private:
  std::vector<std::string> columns_;
  int width_;
};

// Base configuration used across experiments (802.11b, RTS/CTS on, the
// paper's defaults); measure window honours G80211_QUICK.
SimConfig base_config(Standard standard = Standard::B80211,
                      std::uint64_t seed = 1);

// --- N sender->receiver pairs, all in range --------------------------------

struct PairsSpec {
  int n_pairs = 2;
  bool tcp = true;
  double udp_rate_mbps = 12.0;
  SimConfig cfg;
  // When non-empty, record a frame capture of each run at the first
  // sender's vantage to `<capture_stem>_seed<seed>.{pcap,jsonl}` (see
  // src/capture/). Benches set this from run_capture_stem(), which returns
  // "" unless G80211_CAPTURE=1, so default runs stay bit-identical.
  std::string capture_stem;
  // Called after nodes/flows exist, before the run: install greedy
  // policies, GRC, per-link error rates, ...
  std::function<void(Sim&, std::vector<Node*>& senders,
                     std::vector<Node*>& receivers)>
      customize;
};

struct PairsResult {
  std::vector<double> goodput_mbps;  // per flow
  std::vector<double> sender_avg_cw;
  std::vector<double> avg_cwnd;      // per TCP flow (empty for UDP)
  std::vector<double> rts_sent;      // per sender
  ReadyQueueStats ready_queue;       // the run's scheduler mode switches
  std::uint64_t events = 0;          // events the run executed
  std::int64_t queue_drops = 0;      // MacStats::queue_drops over all nodes
  // The channel's fan-out counters (Channel::receptions_sensed etc.).
  std::uint64_t receptions_sensed = 0;
  std::uint64_t rx_callbacks = 0;
  std::uint64_t frames_demodulated = 0;
  std::uint64_t measurements_drawn = 0;
  std::uint64_t tails_skipped = 0;
};

PairsResult run_pairs(const PairsSpec& spec, std::uint64_t seed);

// --- One AP serving N clients ----------------------------------------------

struct SharedApSpec {
  int n_clients = 2;
  bool tcp = true;
  double udp_rate_mbps = 6.0;
  // Use the capture-safe layout (victims near, greedy client far) required
  // by ACK-spoofing scenarios; see scenario/topology.h.
  bool spoof_layout = false;
  SimConfig cfg;
  std::function<void(Sim&, Node& ap, std::vector<Node*>& clients)> customize;
};

struct SharedApResult {
  std::vector<double> goodput_mbps;  // per client flow
  std::vector<double> avg_cwnd;      // per TCP flow
};

SharedApResult run_shared_ap(const SharedApSpec& spec, std::uint64_t seed);

// --- Remote senders behind a wired link (Figs 15/16) ------------------------

struct RemoteSpec {
  Time wired_latency = milliseconds(2);
  SimConfig cfg;
  // Configure the greedy receiver (clients[1]); nullptr = honest.
  std::function<void(Sim&, Node& ap, std::vector<Node*>& clients)> customize;
};

// Returns {victim goodput, greedy goodput}.
std::vector<double> run_remote(const RemoteSpec& spec, std::uint64_t seed);

// --- Hidden-terminal pairs (misbehavior 3, Figs 18/19, Table IV) ------------

struct HiddenSpec {
  double fake_gp_r1 = 0.0;  // greedy percentage of receiver 1 (0 = honest)
  double fake_gp_r2 = 0.0;
  Standard standard = Standard::B80211;
  Time measure = 0;  // 0: default_measure()
};

struct HiddenResult {
  double goodput_r1 = 0.0;
  double goodput_r2 = 0.0;
  double cw_s1 = 0.0;
  double cw_s2 = 0.0;
};

HiddenResult run_hidden(const HiddenSpec& spec, std::uint64_t seed);

// --- Campaign integration ----------------------------------------------------
//
// Job bodies run on the campaign's worker threads, all points at once. A
// body must therefore capture its spec *by value*, so that it is a pure
// function of the seed; spec.customize must likewise capture its sweep
// parameters by value, never by reference to a loop variable.

// Metric names for a goodput vector of `n_normal` honest flows followed by
// one greedy flow: normal1_mbps, ..., normal<n>_mbps, greedy_mbps.
std::vector<std::string> goodput_names(int n_normal);

// Print aggregated campaign points as a paper-style table: the x value in
// the first column, then the per-metric medians. Call only after
// Campaign::run, from the main thread.
void print_points(const TableWriter& table,
                  const std::vector<CampaignPoint>& points);

// Register a benchmark that runs `fn` exactly once and reports its
// wall-clock; `fn` may set counters on the state.
void register_once(const char* name,
                   const std::function<void(benchmark::State&)>& fn);

}  // namespace g80211::bench
