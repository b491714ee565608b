#include "src/runner/campaign.h"

#include <chrono>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "src/analysis/stats.h"
#include "src/runner/metric_sink.h"
#include "src/runner/thread_pool.h"

namespace g80211 {
namespace {

double elapsed_ms(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

Campaign::Campaign(std::string figure, std::vector<std::string> metric_names)
    : figure_(std::move(figure)), metric_names_(std::move(metric_names)) {}

void Campaign::add(std::string label, double x, std::uint64_t base_seed,
                   int runs,
                   std::function<std::vector<double>(std::uint64_t)> body,
                   std::vector<std::string> metric_names) {
  if (runs <= 0) {
    throw std::invalid_argument("Campaign '" + figure_ + "' point '" + label +
                                "': runs must be > 0, got " +
                                std::to_string(runs));
  }
  if (!body) {
    throw std::invalid_argument("Campaign '" + figure_ + "' point '" + label +
                                "': missing job body");
  }
  jobs_.push_back(Job{std::move(label), x, base_seed, runs, std::move(body),
                      std::move(metric_names)});
}

std::vector<CampaignPoint> Campaign::run(unsigned thread_override) {
  const auto t0 = std::chrono::steady_clock::now();
  const unsigned requested = thread_override > 0 ? thread_override : job_count();

  // Per-(job, run) result slots, pre-sized so workers never touch shared
  // structure — each run writes only its own slot.
  std::vector<std::vector<std::vector<double>>> raw(jobs_.size());
  std::vector<std::vector<double>> run_ms(jobs_.size());
  std::size_t total_runs = 0;
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    raw[j].resize(static_cast<std::size_t>(jobs_[j].runs));
    run_ms[j].resize(static_cast<std::size_t>(jobs_[j].runs));
    total_runs += static_cast<std::size_t>(jobs_[j].runs);
  }

  {
    // 1 requested worker = run inline on the calling thread (the
    // determinism reference spawns no threads at all).
    ThreadPool pool(requested <= 1 ? 0 : requested);
    for (std::size_t j = 0; j < jobs_.size(); ++j) {
      const Job& job = jobs_[j];
      for (int r = 0; r < job.runs; ++r) {
        // pool.wait() below fences every job before job/raw/run_ms leave
        // scope — the block owns the pool, so the by-ref captures are safe.
        // NOLINTNEXTLINE(callback-capture): frame outlives the pool
        pool.submit([&job, &raw, &run_ms, j, r] {
          const auto rt0 = std::chrono::steady_clock::now();
          raw[j][static_cast<std::size_t>(r)] =
              job.body(job.base_seed + static_cast<std::uint64_t>(r));
          run_ms[j][static_cast<std::size_t>(r)] = elapsed_ms(rt0);
        });
      }
    }
    pool.wait();  // rethrows the earliest-submitted failure
  }

  // Aggregate strictly in job order on this thread.
  MetricSink sink(figure_);
  std::vector<CampaignPoint> points;
  points.reserve(jobs_.size());
  for (std::size_t j = 0; j < jobs_.size(); ++j) {
    const Job& job = jobs_[j];
    const std::vector<std::string>& names =
        !job.metric_names.empty() ? job.metric_names : metric_names_;
    const std::size_t n_metrics =
        !names.empty() ? names.size() : raw[j][0].size();
    for (int r = 0; r < job.runs; ++r) {
      if (raw[j][static_cast<std::size_t>(r)].size() != n_metrics) {
        throw std::runtime_error(
            "Campaign '" + figure_ + "' point '" + job.label + "': run " +
            std::to_string(r) + " returned " +
            std::to_string(raw[j][static_cast<std::size_t>(r)].size()) +
            " metrics, expected " + std::to_string(n_metrics));
      }
    }

    CampaignPoint pt;
    pt.label = job.label;
    pt.x = job.x;
    pt.base_seed = job.base_seed;
    pt.n_runs = job.runs;
    for (const double ms : run_ms[j]) pt.wall_ms += ms;
    for (std::size_t m = 0; m < n_metrics; ++m) {
      std::vector<double> samples;
      samples.reserve(static_cast<std::size_t>(job.runs));
      for (int r = 0; r < job.runs; ++r) {
        samples.push_back(raw[j][static_cast<std::size_t>(r)][m]);
      }
      pt.median.push_back(median(samples));
      pt.p25.push_back(percentile(samples, 25.0));
      pt.p75.push_back(percentile(samples, 75.0));
    }

    if (sink.enabled()) {
      for (std::size_t m = 0; m < n_metrics; ++m) {
        MetricRow row;
        row.figure = figure_;
        row.label = pt.label;
        // The fallback name is formatted into a stack buffer: building it
        // with string operator+/append on a std::to_string temporary trips
        // GCC 12's bogus -Wrestrict at -O3 (GCC PR 105651), and CI builds
        // with -Werror.
        if (m < names.size()) {
          row.metric = names[m];
        } else {
          char fallback[24];
          std::snprintf(fallback, sizeof(fallback), "m%zu", m);
          row.metric = fallback;
        }
        row.median = pt.median[m];
        row.p25 = pt.p25[m];
        row.p75 = pt.p75[m];
        row.n_runs = pt.n_runs;
        row.seed = pt.base_seed;
        row.wall_ms = pt.wall_ms;
        sink.write(row);
      }
    }
    points.push_back(std::move(pt));
  }

  if (!figure_.empty()) {
    // Summary goes to stderr so stdout stays byte-stable table output.
    std::fprintf(stderr,
                 "[campaign] %s: %zu points, %zu runs, %u worker(s), %.1f ms\n",
                 figure_.c_str(), jobs_.size(), total_runs, requested,
                 elapsed_ms(t0));
  }
  return points;
}

}  // namespace g80211
