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
//
// Fig 1 is the sparse regime, where the scheduler's ready queue stays a
// heap; a dense twin (a Fig 4 TCP world whose queue spills into the timing
// wheel and collapses back) pins its own hash across the queue's mode
// switches.
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

void append_pairs_metrics(const bench::PairsResult& r,
                          std::vector<double>& metrics) {
  metrics.insert(metrics.end(), r.goodput_mbps.begin(), r.goodput_mbps.end());
  metrics.insert(metrics.end(), r.sender_avg_cw.begin(),
                 r.sender_avg_cw.end());
  metrics.insert(metrics.end(), r.rts_sent.begin(), r.rts_sent.end());
}

// A slice's metric vector plus its ready-queue mode switches, executed
// events, queue drops and channel fan-out counters, summed over the
// slice's runs.
struct SliceRun {
  std::vector<double> metrics;
  ReadyQueueStats ready_queue;
  std::uint64_t events = 0;
  std::int64_t queue_drops = 0;
  std::uint64_t receptions_sensed = 0;
  std::uint64_t rx_callbacks = 0;
  std::uint64_t frames_demodulated = 0;
  std::uint64_t measurements_drawn = 0;
  std::uint64_t tails_skipped = 0;
};

void add_stats(const ReadyQueueStats& run, ReadyQueueStats& total) {
  total.spills += run.spills;
  total.collapses += run.collapses;
  total.cascades += run.cascades;
}

// `capture_stem` non-empty: record a capture of the first sweep point.
SliceRun fig1_metric_vector(const std::string& capture_stem) {
  SliceRun out;
  for (const Time inflation :
       {microseconds(0), microseconds(600), milliseconds(2)}) {
    bench::PairsSpec spec;
    spec.tcp = false;
    spec.udp_rate_mbps = 12.0;
    spec.cfg.standard = Standard::B80211;
    spec.cfg.rts_cts = true;
    spec.cfg.warmup = milliseconds(500);
    spec.cfg.measure = seconds(2);
    if (inflation == 0) spec.capture_stem = capture_stem;
    spec.customize = [inflation](Sim& sim, std::vector<Node*>&,
                                 std::vector<Node*>& rx) {
      if (inflation > 0) {
        sim.make_nav_inflator(*rx[1], NavFrameMask::cts_only(), inflation);
      }
    };
    for (const std::uint64_t seed : {std::uint64_t{100}, std::uint64_t{101}}) {
      const bench::PairsResult r = bench::run_pairs(spec, seed);
      append_pairs_metrics(r, out.metrics);
      add_stats(r.ready_queue, out.ready_queue);
      out.events += r.events;
      out.queue_drops += r.queue_drops;
      out.receptions_sensed += r.receptions_sensed;
      out.rx_callbacks += r.rx_callbacks;
      out.frames_demodulated += r.frames_demodulated;
      out.measurements_drawn += r.measurements_drawn;
      out.tails_skipped += r.tails_skipped;
    }
  }
  return out;
}

// Recorded from the current engine. A mismatch means simulation output
// changed; if the change is intended (a modelling fix, not a perf
// refactor), re-record this constant and say so in the commit message.
constexpr std::uint64_t kGolden = 0x045ffda2b5fd0c2fULL;

// The dense twin's hash, recorded when a heap-only reference queue still
// ran beside the default one and both gave these bits.
constexpr std::uint64_t kDenseGolden = 0x576118bc0fb1ff38ULL;

void expect_golden(const std::vector<double>& metrics, std::uint64_t golden,
                   const char* what) {
  const std::uint64_t h = fnv1a_bits(metrics);
  if (h != golden) {
    std::printf("%s metric vector (%zu doubles):\n", what, metrics.size());
    for (const double d : metrics) std::printf("  %.17g\n", d);
    std::printf("hash: 0x%016llx\n",
                static_cast<unsigned long long>(h));
  }
  EXPECT_EQ(h, golden) << what
                       << " metric vector changed bit-for-bit; see stdout "
                          "for values";
}

TEST(GoldenFig1, MetricVectorBitIdentical) {
  // Record a capture during the first sweep point (both seeds). The hash
  // must not move: attaching a capture makes the vantage radio draw its
  // own RSSI noise, a stream that feeds nothing else, and must leave the
  // simulated run bit-identical. The files double as CI artifacts —
  // the workflow uploads capture_test_artifacts/ when this test (or the
  // capture suite) fails, so a red run ships its evidence.
  const std::filesystem::path dir =
      test::artifact_dir("capture_test_artifacts");
  const SliceRun run = fig1_metric_vector((dir / "golden_fig1").string());
  expect_golden(run.metrics, kGolden, "fig1");
  // Fig 1's two pairs are the sparse regime: the ready queue never holds
  // more than its spill threshold, so the whole slice runs as a heap.
  EXPECT_EQ(run.ready_queue.spills, 0u);
  EXPECT_EQ(run.ready_queue.cascades, 0u);
  // The engine's work, pinned exactly: a change in either count with the
  // hash unchanged means the engine now does more (or less) to produce
  // the same output, and must be deliberate.
  EXPECT_EQ(run.events, 72287u);
  EXPECT_EQ(run.queue_drops, 36774);
  // Every station decodes every frame here, so every receiver visit of
  // the fan-out calls into its PHY, except at the tails the channel
  // skips.
  EXPECT_EQ(run.receptions_sensed, 78789u);
  EXPECT_EQ(run.rx_callbacks, 131110u);
  EXPECT_EQ(run.frames_demodulated, 78479u);
  // Loss-free: only the captured sender (first point) and the NAV
  // inflator (the other two) draw RSSI noise.
  EXPECT_EQ(run.measurements_drawn, 15309u);
  // An idle, unobserved receiver skips the tails of the other pair's
  // frames: both receivers in the first point, the honest one in the
  // other two (the NAV inflator is a greedy receiver).
  EXPECT_EQ(run.tails_skipped, 26158u);
}

// Fig 1's twin in the dense regime: Fig 4's two TCP pairs with the CTS
// NAV inflated by 10 ms. TCP's bursts take the ready queue from ~30 to
// ~220 entries and back, so it spills into its wheel and collapses back
// into its heap mid-run.
SliceRun dense_metric_vector() {
  SliceRun out;
  bench::PairsSpec spec;
  spec.tcp = true;
  spec.cfg.standard = Standard::B80211;
  spec.cfg.rts_cts = true;
  spec.cfg.warmup = milliseconds(500);
  spec.cfg.measure = seconds(2);
  spec.customize = [](Sim& sim, std::vector<Node*>&, std::vector<Node*>& rx) {
    sim.make_nav_inflator(*rx[1], NavFrameMask::cts_only(), milliseconds(10));
  };
  for (const std::uint64_t seed : {std::uint64_t{100}, std::uint64_t{101}}) {
    const bench::PairsResult r = bench::run_pairs(spec, seed);
    append_pairs_metrics(r, out.metrics);
    out.metrics.insert(out.metrics.end(), r.avg_cwnd.begin(),
                       r.avg_cwnd.end());
    add_stats(r.ready_queue, out.ready_queue);
  }
  return out;
}

TEST(GoldenFig1, DenseTwinBitIdenticalOnBothSchedulerBackends) {
  const SliceRun run = dense_metric_vector();
  expect_golden(run.metrics, kDenseGolden, "dense twin");
  // The queue's switches are a pure function of the run, so they are
  // pinned exactly: a change here with the hash above unchanged means the
  // queue's mechanics moved.
  EXPECT_EQ(run.ready_queue.spills, 4u);
  EXPECT_EQ(run.ready_queue.collapses, 2u);
  // Most of the MAC's gaps (EIFS, control airtimes, timeouts) fit in the
  // wheel's 1.05 ms level 0, so few pops cascade.
  EXPECT_EQ(run.ready_queue.cascades, 1500u);
}

}  // namespace
}  // namespace g80211
