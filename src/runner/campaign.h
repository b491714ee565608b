// Parallel campaign runner.
//
// Every paper figure is a parameter sweep of independent (scenario, seed)
// simulations, and a run is a pure function of (scenario, seed) (see
// src/sim/scheduler.h). A Campaign exploits that: it takes a grid of jobs
// — each a (label, x, base_seed, runs) point with a body mapping a seed to
// a metric vector — executes all grid_points × runs simulations
// concurrently on a fixed-size ThreadPool, and aggregates per-point
// medians and quartiles **ordered by job index, never by completion
// order**. N-thread output is therefore bit-identical to 1-thread output;
// G80211_JOBS=1 is the determinism reference.
//
// Thread count: explicit `thread_override` argument, else G80211_JOBS,
// else hardware_concurrency. Named campaigns additionally export
// structured results through MetricSink (G80211_METRICS_DIR) and print a
// wall-clock summary line to stderr; every seeded bench table is one named
// campaign. Campaigns with an empty figure name are silent (perfbench's
// timed sweep, the tests).
//
// Job bodies run on worker threads: they must be self-contained pure
// functions of the seed (build their own Sim, no shared mutable state) and
// must not print. All aggregation, table printing and metric export happen
// on the calling thread after every run completes.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace g80211 {

// Aggregated result for one grid point, in job-insertion order.
struct CampaignPoint {
  std::string label;
  double x = 0.0;
  std::uint64_t base_seed = 0;
  int n_runs = 0;
  std::vector<double> median;  // per metric
  std::vector<double> p25;
  std::vector<double> p75;
  double wall_ms = 0.0;  // summed wall-clock of this point's runs
};

class Campaign {
 public:
  // `figure` names the campaign for metric export and the summary line
  // (empty = quiet). `metric_names` label exported metrics; when empty,
  // metrics are exported as m0, m1, ... When a point has names (its own
  // or the campaign's), its body must return exactly that many values.
  Campaign(std::string figure, std::vector<std::string> metric_names);

  // Adds one grid point: `label` names it on the sweep axis ("0.6"), `x`
  // is its numeric sweep value, and `body` maps each of the `runs` seeds
  // base_seed, base_seed+1, ... to a metric vector. A non-empty
  // `metric_names` names this point's metrics instead of the campaign's
  // (a table whose rows differ in width, such as one goodput per flow as
  // the flow count varies). Throws std::invalid_argument on runs <= 0 or
  // a missing body. Real error handling, not assert: a Release build must
  // fail loudly rather than silently mis-aggregate.
  void add(std::string label, double x, std::uint64_t base_seed, int runs,
           std::function<std::vector<double>(std::uint64_t)> body,
           std::vector<std::string> metric_names = {});

  std::size_t size() const { return jobs_.size(); }
  const std::string& figure() const { return figure_; }

  // Execute all jobs × runs and aggregate. `thread_override` picks the
  // worker count (0 = G80211_JOBS, else hardware_concurrency; 1 runs
  // everything inline on the calling thread). Rethrows the exception of
  // the earliest-submitted failing run, if any; throws std::runtime_error
  // when a job's runs disagree on the metric-vector size (or disagree with
  // the point's metric names). Results are ordered by job index regardless of
  // completion order.
  std::vector<CampaignPoint> run(unsigned thread_override = 0);

 private:
  struct Job {
    std::string label;
    double x = 0.0;
    std::uint64_t base_seed = 0;
    int runs = 1;
    std::function<std::vector<double>(std::uint64_t seed)> body;
    std::vector<std::string> metric_names;  // empty: the campaign's
  };

  std::string figure_;
  std::vector<std::string> metric_names_;
  std::vector<Job> jobs_;
};

}  // namespace g80211
