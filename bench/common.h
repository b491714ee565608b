// Shared experiment runners for the per-figure/table bench binaries.
//
// Every bench follows the same pattern: build the paper's scenario through
// these helpers, sweep the x-axis, run default_runs() seeds per point
// (median-of-5, as in the paper), print the paper-style series, and expose
// the headline numbers as google-benchmark counters.
#pragma once

#include <benchmark/benchmark.h>

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "src/runner/campaign.h"
#include "src/scenario/experiment.h"
#include "src/scenario/scenario.h"
#include "src/scenario/topology.h"

namespace g80211::bench {

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

// Median-of-seeds over the flow goodputs only (the common case).
std::vector<double> median_pair_goodputs(const PairsSpec& spec, int runs,
                                         std::uint64_t base_seed);

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

std::vector<double> median_shared_ap_goodputs(const SharedApSpec& spec,
                                              int runs,
                                              std::uint64_t base_seed);

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
// Sweep jobs for the parallel campaign runner (src/runner/campaign.h).
// Each job captures its spec *by value*, so the body is a pure function of
// the seed and safe to run on any worker thread; spec.customize must
// likewise capture its sweep parameters by value, never by reference to a
// loop variable.

// Goodput-per-flow job over run_pairs.
CampaignJob pairs_goodput_job(std::string label, double x, PairsSpec spec,
                              int runs, std::uint64_t base_seed);

// Goodput-per-client job over run_shared_ap.
CampaignJob shared_ap_goodput_job(std::string label, double x,
                                  SharedApSpec spec, int runs,
                                  std::uint64_t base_seed);

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
