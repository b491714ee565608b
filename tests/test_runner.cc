// Campaign runner: determinism across thread counts, exception
// propagation, edge cases, metric export, and a two-Sims-on-two-threads
// smoke test guarding against shared-mutable-state regressions in the
// simulator core.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "src/runner/campaign.h"
#include "src/runner/metric_sink.h"
#include "src/runner/thread_pool.h"
#include "src/scenario/scenario.h"
#include "src/scenario/topology.h"
#include "src/sim/rng.h"
#include "tests/test_artifacts.h"

namespace g80211 {
namespace {

// Export directory of the running test, under the system temp dir.
std::filesystem::path scratch_dir() {
  return test::artifact_dir(std::filesystem::temp_directory_path() /
                            "g80211_runner_test");
}

// A cheap deterministic "simulation": a few RNG-driven metrics that depend
// on every bit of the seed and the per-job parameters.
std::vector<double> fake_metrics(std::uint64_t seed, double x, int n_metrics) {
  Rng rng(seed);
  std::vector<double> out;
  for (int m = 0; m < n_metrics; ++m) {
    out.push_back(x + rng.uniform() + 0.01 * rng.normal());
  }
  return out;
}

Campaign make_campaign(const std::string& figure, int points, int runs,
                       int n_metrics) {
  Campaign c(figure, {});
  for (int j = 0; j < points; ++j) {
    const double x = 0.5 * j;
    c.add(std::to_string(j), x, 1000 + static_cast<std::uint64_t>(10 * j), runs,
          [x, n_metrics](std::uint64_t seed) {
            return fake_metrics(seed, x, n_metrics);
          });
  }
  return c;
}

bool points_identical(const std::vector<CampaignPoint>& a,
                      const std::vector<CampaignPoint>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].label != b[i].label || a[i].x != b[i].x ||
        a[i].n_runs != b[i].n_runs || a[i].base_seed != b[i].base_seed ||
        a[i].median != b[i].median || a[i].p25 != b[i].p25 ||
        a[i].p75 != b[i].p75) {
      return false;
    }
  }
  return true;
}

TEST(ThreadPool, RunsAllTasksAcrossWorkers) {
  ThreadPool pool(4);
  std::atomic<int> count{0};
  for (int i = 0; i < 100; ++i) {
    pool.submit([&count] { count.fetch_add(1, std::memory_order_relaxed); });
  }
  pool.wait();
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, InlineModeRunsOnCaller) {
  ThreadPool pool(0);
  const auto caller = std::this_thread::get_id();
  std::thread::id ran_on;
  pool.submit([&] { ran_on = std::this_thread::get_id(); });
  pool.wait();
  EXPECT_EQ(ran_on, caller);
  EXPECT_EQ(pool.size(), 0u);
}

TEST(ThreadPool, WaitRethrowsEarliestSubmittedFailure) {
  ThreadPool pool(3);
  for (int i = 0; i < 20; ++i) {
    pool.submit([i] {
      if (i == 4 || i == 11) {
        throw std::runtime_error("task " + std::to_string(i) + " failed");
      }
    });
  }
  try {
    pool.wait();
    FAIL() << "expected wait() to rethrow";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "task 4 failed");
  }
  pool.wait();  // error consumed; pool reusable
}

// The core determinism contract: aggregated output is bit-identical
// between 1 worker (the serial reference) and many, over several
// differently-shaped campaigns.
TEST(Campaign, DeterministicAcrossThreadCounts) {
  const struct {
    int points, runs, metrics;
  } shapes[] = {{5, 5, 3}, {9, 2, 1}, {1, 7, 4}};
  int i = 0;
  for (const auto& s : shapes) {
    const std::string fig;  // quiet campaigns: no export, no summary line
    auto serial = make_campaign(fig, s.points, s.runs, s.metrics).run(1);
    auto parallel8 = make_campaign(fig, s.points, s.runs, s.metrics).run(8);
    auto parallel3 = make_campaign(fig, s.points, s.runs, s.metrics).run(3);
    EXPECT_TRUE(points_identical(serial, parallel8)) << "shape " << i;
    EXPECT_TRUE(points_identical(serial, parallel3)) << "shape " << i;
    ++i;
  }
}

TEST(Campaign, PropagatesJobExceptions) {
  Campaign c("", {});
  c.add("ok", 0.0, 1, 3, [](std::uint64_t) { return std::vector<double>{1.0}; });
  c.add("boom", 1.0, 2, 3, [](std::uint64_t seed) -> std::vector<double> {
    if (seed == 3) throw std::runtime_error("seed 3 exploded");
    return {1.0};
  });
  try {
    c.run(4);
    FAIL() << "expected run() to rethrow the job failure";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "seed 3 exploded");
  }
}

TEST(Campaign, EmptyCampaignYieldsNoPoints) {
  Campaign c("", {});
  EXPECT_TRUE(c.run(4).empty());
  EXPECT_TRUE(c.run(1).empty());
}

TEST(Campaign, SingleJobSingleRun) {
  Campaign c("", {});
  c.add("only", 2.5, 42, 1,
        [](std::uint64_t seed) { return fake_metrics(seed, 2.5, 2); });
  const auto pts = c.run(4);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_EQ(pts[0].median, fake_metrics(42, 2.5, 2));
  EXPECT_EQ(pts[0].p25, pts[0].median);  // one sample: all quantiles equal
  EXPECT_EQ(pts[0].p75, pts[0].median);
}

// Aggregation is element-wise over a point's runs: metric m's median and
// quartiles come from the m-th value of every run, and nothing else.
TEST(Campaign, MediansAndQuartilesAreElementwise) {
  Campaign c("", {});
  c.add("", 0.0, 10, 3, [](std::uint64_t seed) {
    const double s = static_cast<double>(seed - 10);  // 0, 1, 2
    return std::vector<double>{s, 10.0 - s};
  });
  const auto pts = c.run(1);
  ASSERT_EQ(pts.size(), 1u);
  EXPECT_EQ(pts[0].n_runs, 3);
  EXPECT_EQ(pts[0].median, (std::vector<double>{1.0, 9.0}));
  EXPECT_EQ(pts[0].p25, (std::vector<double>{0.5, 8.5}));
  EXPECT_EQ(pts[0].p75, (std::vector<double>{1.5, 9.5}));
}

TEST(Campaign, RejectsNonPositiveRuns) {
  Campaign c("", {});
  EXPECT_THROW(
      c.add("bad", 0.0, 1, 0,
            [](std::uint64_t) { return std::vector<double>{}; }),
      std::invalid_argument);
  EXPECT_THROW(
      c.add("bad", 0.0, 1, -2,
            [](std::uint64_t) { return std::vector<double>{}; }),
      std::invalid_argument);
  EXPECT_THROW(c.add("nobody", 0.0, 1, 1, nullptr), std::invalid_argument);
}

TEST(Campaign, RejectsInconsistentMetricSizes) {
  Campaign c("", {});
  c.add("ragged", 0.0, 10, 3, [](std::uint64_t seed) {
    return std::vector<double>(seed == 11 ? 2 : 3, 1.0);
  });
  EXPECT_THROW(c.run(1), std::runtime_error);
}

TEST(Campaign, RejectsMetricCountMismatchWithNames) {
  Campaign c("", {"a", "b"});
  c.add("short", 0.0, 1, 1,
        [](std::uint64_t) { return std::vector<double>{1.0}; });
  EXPECT_THROW(c.run(1), std::runtime_error);
}

// Structured export: JSONL/CSV files appear under G80211_METRICS_DIR and
// every non-timing byte is identical between 1 and 8 workers.
TEST(MetricSink, ExportIsThreadCountInvariant) {
  const auto dir = scratch_dir();
  std::filesystem::remove_all(dir);
  ASSERT_EQ(setenv("G80211_METRICS_DIR", dir.c_str(), 1), 0);

  // wall_ms is the one documented timing field; everything else must be
  // byte-identical across thread counts. It is the "wall_ms":N JSON pair,
  // and the final ,N column before each CSV newline.
  const auto slurp_without_wall_ms = [&](const char* name) {
    std::ifstream in(dir / name);
    std::string all((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    EXPECT_FALSE(all.empty()) << name;
    all = std::regex_replace(all, std::regex(R"(\"wall_ms\":[0-9.]+)"), "");
    return std::regex_replace(all, std::regex(R"(,[0-9.]+\n)"), "\n");
  };

  Campaign c1("export_check", {"gp_a", "gp_b"});
  c1.add("p0", 0.0, 5, 3,
         [](std::uint64_t seed) { return fake_metrics(seed, 0.0, 2); });
  c1.add("p1", 1.0, 15, 3,
         [](std::uint64_t seed) { return fake_metrics(seed, 1.0, 2); });
  c1.run(1);
  const std::string jsonl_serial = slurp_without_wall_ms("export_check.jsonl");
  const std::string csv_serial = slurp_without_wall_ms("export_check.csv");

  Campaign c8("export_check", {"gp_a", "gp_b"});
  c8.add("p0", 0.0, 5, 3,
         [](std::uint64_t seed) { return fake_metrics(seed, 0.0, 2); });
  c8.add("p1", 1.0, 15, 3,
         [](std::uint64_t seed) { return fake_metrics(seed, 1.0, 2); });
  c8.run(8);
  EXPECT_EQ(slurp_without_wall_ms("export_check.jsonl"), jsonl_serial);
  EXPECT_EQ(slurp_without_wall_ms("export_check.csv"), csv_serial);

  EXPECT_NE(jsonl_serial.find("\"figure\":\"export_check\""), std::string::npos);
  EXPECT_NE(jsonl_serial.find("\"metric\":\"gp_b\""), std::string::npos);
  EXPECT_NE(csv_serial.find("figure,label,metric,median,p25,p75,n_runs,seed"),
            std::string::npos);

  ASSERT_EQ(unsetenv("G80211_METRICS_DIR"), 0);
  std::filesystem::remove_all(dir);
}

// A point that names its own metrics (a table whose rows differ in width)
// exports under those names, and its runs must return exactly that many
// values; the other points keep the campaign's names.
TEST(MetricSink, PointMetricNamesOverrideCampaignNames) {
  const auto dir = scratch_dir();
  std::filesystem::remove_all(dir);
  ASSERT_EQ(setenv("G80211_METRICS_DIR", dir.c_str(), 1), 0);

  Campaign c("point_names", {"a", "b"});
  c.add("two", 0.0, 1, 2,
        [](std::uint64_t seed) { return fake_metrics(seed, 0.0, 2); });
  c.add("three", 1.0, 5, 2,
        [](std::uint64_t seed) { return fake_metrics(seed, 1.0, 3); },
        {"x", "y", "z"});
  const auto pts = c.run(2);
  ASSERT_EQ(pts.size(), 2u);
  EXPECT_EQ(pts[0].median.size(), 2u);
  EXPECT_EQ(pts[1].median.size(), 3u);

  std::ifstream in(dir / "point_names.jsonl");
  std::vector<std::string> metrics;
  const std::regex metric_re(R"re("metric":"([^"]*)")re");
  for (std::string line; std::getline(in, line);) {
    std::smatch m;
    ASSERT_TRUE(std::regex_search(line, m, metric_re)) << line;
    metrics.push_back(m[1]);
  }
  EXPECT_EQ(metrics, (std::vector<std::string>{"a", "b", "x", "y", "z"}));

  Campaign short_point("", {"a", "b"});
  short_point.add("short", 0.0, 1, 1,
                  [](std::uint64_t) { return std::vector<double>{1.0, 2.0}; },
                  {"x", "y", "z"});
  EXPECT_THROW(short_point.run(1), std::runtime_error);

  ASSERT_EQ(unsetenv("G80211_METRICS_DIR"), 0);
  std::filesystem::remove_all(dir);
}

// CSV cells are RFC 4180-quoted uniformly: a label carrying commas and
// quotes must survive a round trip through a standard CSV reader with the
// column count intact (the header/row contract downstream tooling relies
// on).
TEST(MetricSink, CsvQuotingRoundTrip) {
  const auto dir = scratch_dir();
  std::filesystem::remove_all(dir);
  ASSERT_EQ(setenv("G80211_METRICS_DIR", dir.c_str(), 1), 0);

  MetricRow row;
  row.figure = "csv_quote_check";
  row.label = "rate=\"5,5\",greedy";  // commas and embedded quotes
  row.metric = "goodput,mbps";
  row.median = 1.5;
  row.p25 = 1.25;
  row.p75 = 1.75;
  row.n_runs = 5;
  row.seed = 100;
  {
    MetricSink sink("csv_quote_check");
    ASSERT_TRUE(sink.enabled());
    sink.write(row);
  }

  // Minimal RFC 4180 reader: split one line into cells, honouring quoted
  // cells with doubled embedded quotes.
  const auto split_csv = [](const std::string& line) {
    std::vector<std::string> cells;
    std::string cell;
    bool quoted = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
      const char c = line[i];
      if (quoted) {
        if (c == '"' && i + 1 < line.size() && line[i + 1] == '"') {
          cell += '"';
          ++i;
        } else if (c == '"') {
          quoted = false;
        } else {
          cell += c;
        }
      } else if (c == '"') {
        quoted = true;
      } else if (c == ',') {
        cells.push_back(cell);
        cell.clear();
      } else {
        cell += c;
      }
    }
    cells.push_back(cell);
    return cells;
  };

  std::ifstream in(dir / "csv_quote_check.csv");
  std::string header, data;
  ASSERT_TRUE(std::getline(in, header));
  ASSERT_TRUE(std::getline(in, data));
  const auto header_cells = split_csv(header);
  const auto data_cells = split_csv(data);
  ASSERT_EQ(header_cells.size(), 9u);
  ASSERT_EQ(data_cells.size(), header_cells.size());
  EXPECT_EQ(data_cells[0], row.figure);
  EXPECT_EQ(data_cells[1], row.label);
  EXPECT_EQ(data_cells[2], row.metric);
  EXPECT_EQ(data_cells[6], "5");
  EXPECT_EQ(data_cells[7], "100");

  // The JSONL twin escapes the same label JSON-style.
  std::ifstream jin(dir / "csv_quote_check.jsonl");
  std::string jline;
  ASSERT_TRUE(std::getline(jin, jline));
  EXPECT_NE(jline.find("\"label\":\"rate=\\\"5,5\\\",greedy\""),
            std::string::npos);

  ASSERT_EQ(unsetenv("G80211_METRICS_DIR"), 0);
  std::filesystem::remove_all(dir);
}

TEST(MetricSink, DisabledWithoutEnvVar) {
  unsetenv("G80211_METRICS_DIR");
  MetricSink sink("nope");
  EXPECT_FALSE(sink.enabled());
  sink.write(MetricRow{});  // no-op, must not crash
}

TEST(JobCount, EnvOverride) {
  ASSERT_EQ(setenv("G80211_JOBS", "3", 1), 0);
  EXPECT_EQ(job_count(), 3u);
  ASSERT_EQ(setenv("G80211_JOBS", "0", 1), 0);  // invalid: fall back to hw
  EXPECT_GE(job_count(), 1u);
  ASSERT_EQ(unsetenv("G80211_JOBS"), 0);
  EXPECT_GE(job_count(), 1u);
}

// Two full Sims running concurrently on two threads must produce exactly
// the results they produce serially — the guard against any future
// shared-mutable-state creeping into the simulator core.
TEST(ParallelSims, TwoSimsOnTwoThreadsMatchSerial) {
  const auto run_scenario = [](std::uint64_t seed) {
    SimConfig cfg;
    cfg.measure = milliseconds(300);
    cfg.seed = seed;
    Sim sim(cfg);
    const PairLayout layout = pairs_in_range(2);
    Node& s0 = sim.add_node(layout.senders[0]);
    Node& s1 = sim.add_node(layout.senders[1]);
    Node& r0 = sim.add_node(layout.receivers[0]);
    Node& r1 = sim.add_node(layout.receivers[1]);
    auto f0 = sim.add_udp_flow(s0, r0);
    auto f1 = sim.add_udp_flow(s1, r1);
    sim.make_nav_inflator(r1, NavFrameMask::cts_only(), milliseconds(2));
    sim.run();
    return std::vector<double>{f0.goodput_mbps(), f1.goodput_mbps(),
                               static_cast<double>(sim.scheduler().executed())};
  };

  const auto ref7 = run_scenario(7);
  const auto ref8 = run_scenario(8);
  std::vector<double> par7, par8;
  {
    std::jthread t1([&] { par7 = run_scenario(7); });
    std::jthread t2([&] { par8 = run_scenario(8); });
  }
  EXPECT_EQ(par7, ref7);
  EXPECT_EQ(par8, ref8);
}

}  // namespace
}  // namespace g80211
