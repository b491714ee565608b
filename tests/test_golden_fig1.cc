// Golden-output guard for the Fig 1 scenario.
//
// Runs a fixed-seed slice of the Fig 1 sweep (two UDP pairs, CTS NAV
// inflation on the second receiver) and hashes the exact bit patterns of
// the resulting metric vector. The committed hash pins the simulator's
// output bit-for-bit: any change to event ordering, RNG draw sequence, or
// floating-point arithmetic anywhere in the stack — including "pure"
// performance work like the PHY link-state caches or the scheduler's heap
// — flips the hash and fails loudly here instead of silently shifting the
// paper's figures.
//
// The config is fully explicit (warmup/measure set here, not via
// base_config), so the result is independent of the G80211_QUICK
// environment that ctest sets.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/common.h"
#include "src/greedy/nav_inflation.h"
#include "src/scenario/scenario.h"
#include "tests/test_artifacts.h"

namespace g80211 {
namespace {

std::uint64_t fnv1a_bits(const std::vector<double>& values) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  for (const double d : values) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    for (int i = 0; i < 8; ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ULL;  // FNV prime
    }
  }
  return h;
}

// `capture_stem` non-empty: record a capture of the first sweep point.
std::vector<double> fig1_metric_vector(SchedulerBackend backend,
                                       const std::string& capture_stem) {
  std::vector<double> metrics;
  for (const Time inflation :
       {microseconds(0), microseconds(600), milliseconds(2)}) {
    bench::PairsSpec spec;
    spec.tcp = false;
    spec.udp_rate_mbps = 12.0;
    spec.cfg.standard = Standard::B80211;
    spec.cfg.rts_cts = true;
    spec.cfg.warmup = milliseconds(500);
    spec.cfg.measure = seconds(2);
    spec.cfg.scheduler_backend = backend;
    if (inflation == 0) spec.capture_stem = capture_stem;
    spec.customize = [inflation](Sim& sim, std::vector<Node*>&,
                                 std::vector<Node*>& rx) {
      if (inflation > 0) {
        sim.make_nav_inflator(*rx[1], NavFrameMask::cts_only(), inflation);
      }
    };
    for (const std::uint64_t seed : {std::uint64_t{100}, std::uint64_t{101}}) {
      const bench::PairsResult r = bench::run_pairs(spec, seed);
      metrics.insert(metrics.end(), r.goodput_mbps.begin(),
                     r.goodput_mbps.end());
      metrics.insert(metrics.end(), r.sender_avg_cw.begin(),
                     r.sender_avg_cw.end());
      metrics.insert(metrics.end(), r.rts_sent.begin(), r.rts_sent.end());
    }
  }

  return metrics;
}

// Recorded from the current engine. A mismatch means simulation output
// changed; if the change is intended (a modelling fix, not a perf
// refactor), re-record this constant and say so in the commit message.
constexpr std::uint64_t kGolden = 0x045ffda2b5fd0c2fULL;

void expect_golden(const std::vector<double>& metrics) {
  const std::uint64_t h = fnv1a_bits(metrics);
  if (h != kGolden) {
    std::printf("golden metric vector (%zu doubles):\n", metrics.size());
    for (const double d : metrics) std::printf("  %.17g\n", d);
    std::printf("hash: 0x%016llx\n",
                static_cast<unsigned long long>(h));
  }
  EXPECT_EQ(h, kGolden)
      << "fig1 metric vector changed bit-for-bit; see stdout for values";
}

TEST(GoldenFig1, MetricVectorBitIdentical) {
  // Record a capture during the first sweep point (both seeds). The hash
  // must not move: attaching a capture draws no randomness and must leave
  // the simulated run bit-identical. The files double as CI artifacts —
  // the workflow uploads capture_test_artifacts/ when this test (or the
  // capture suite) fails, so a red run ships its evidence.
  const std::filesystem::path dir =
      test::artifact_dir("capture_test_artifacts");
  expect_golden(fig1_metric_vector(kDefaultSchedulerBackend,
                                   (dir / "golden_fig1").string()));
}

TEST(GoldenFig1, MetricVectorBitIdenticalOnBothSchedulerBackends) {
  // The ready-queue backend is pure mechanics: heap or wheel, the engine
  // must dispatch the identical event sequence and therefore reproduce the
  // identical metric bits.
  expect_golden(fig1_metric_vector(SchedulerBackend::kDaryHeap, ""));
  expect_golden(fig1_metric_vector(SchedulerBackend::kTimingWheel, ""));
}

}  // namespace
}  // namespace g80211
