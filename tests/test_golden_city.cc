// Golden-output guard for a city world: examples/city_small.toml built
// through BuiltWorld and run to the end.
//
// Fig 1's golden hash (test_golden_fig1.cc) runs one CBR source per
// interface queue, so it cannot see how several sources share one queue:
// who gets a freed slot, and in what order. This world has that and every
// other spec feature: churn, roaming, web on/off sessions, TCP, all three
// misbehaviours and GRC. It runs in well under a second.
//
// The hash covers the exact bits of every window report, of the summary,
// and of every node's MacStats (queue drops included). It was recorded
// before sources learned to pause on a full queue, so it also pins that
// pausing changes no output.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>

#include "src/mac/mac_stats.h"
#include "src/scenario/spec/world_builder.h"
#include "src/scenario/spec/world_spec.h"

namespace g80211::spec {
namespace {

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ULL;  // FNV prime
    }
  }
  void add(std::int64_t v) { add(static_cast<std::uint64_t>(v)); }
  void add(int v) { add(static_cast<std::int64_t>(v)); }
  void add(double d) {
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    add(bits);
  }
  void add(const StreamingStat& s) {
    add(s.count());
    add(s.mean());
    add(s.min());
    add(s.max());
    add(s.p25());
    add(s.p50());
    add(s.p75());
  }
  void add(const MacStats& s) {
    for (const std::int64_t v :
         {s.rts_sent, s.data_sent, s.data_retries, s.data_success,
          s.data_dropped, s.cts_timeouts, s.ack_timeouts, s.queue_drops,
          s.acks_ignored, s.cts_sent, s.acks_sent, s.spoofed_acks_sent,
          s.fake_acks_sent, s.cts_suppressed_by_nav, s.rx_data_ok,
          s.rx_data_dup, s.rx_corrupted, s.nav_updates}) {
      add(v);
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;  // FNV offset basis
};

// Recorded from the engine before sources paused on full queues. A
// mismatch means simulation output changed; if the change is intended (a
// modelling fix, not a perf refactor), re-record this constant and say so
// in the commit message.
constexpr std::uint64_t kGolden = 0x0c5a2069f6e3ddceULL;

TEST(GoldenCity, SmallWorldBitIdentical) {
  BuiltWorld world(load_world_spec(G80211_EXAMPLES_DIR "/city_small.toml"));
  Fnv1a h;
  int windows = 0;
  world.run([&](const BuiltWorld::WindowReport& w) {
    ++windows;
    h.add(w.index);
    h.add(w.t_start_s);
    h.add(w.t_end_s);
    h.add(w.honest_mbps);
    h.add(w.greedy_mbps);
    for (const BuiltWorld::RingWindow& r : w.rings) {
      h.add(r.stations);
      h.add(r.total_mbps);
      h.add(r.mean_mbps);
      h.add(r.p25);
      h.add(r.p50);
      h.add(r.p75);
    }
  });
  const BuiltWorld::Summary& s = world.summary();
  h.add(s.windows);
  h.add(s.honest_mbps);
  h.add(s.greedy_mbps);
  for (const StreamingStat& r : s.ring_mbps) h.add(r);
  for (const std::int64_t n : s.ring_stations) h.add(n);
  h.add(s.handoffs);
  h.add(s.nav_detections);
  h.add(s.spoof_detections);
  Sim& sim = world.sim();
  std::int64_t queue_drops = 0;
  for (int id = 0; id < sim.num_nodes(); ++id) {
    const MacStats stats = sim.node(id).mac().stats();
    h.add(stats);
    queue_drops += stats.queue_drops;
  }

  EXPECT_EQ(windows, 5);
  EXPECT_GT(queue_drops, 0) << "the world must saturate shared queues";
  // The fan-out's work, pinned exactly like the output. Two-thirds of a
  // frame's receivers only sense it (55/99 m ranges), and they cost the
  // channel no call into their PHY unless it is demodulating or its MAC
  // wants the edge.
  const Channel& channel = sim.channel();
  EXPECT_EQ(channel.receptions_sensed(), 670720u);
  EXPECT_EQ(channel.rx_callbacks(), 395331u);
  EXPECT_EQ(channel.frames_demodulated(), 219785u);
  // The world has no bit errors, so only radios whose MAC reads
  // measurements (greedy stations, GRC-protected APs) draw RSSI noise:
  // 13.4% of reception tails, the rest skip it.
  EXPECT_EQ(channel.measurements_drawn(), 29400u);
  // 71.3% of tails are frames addressed elsewhere at an idle, unobserved
  // station, which the channel records without calling its PHY.
  EXPECT_EQ(channel.tails_skipped(), 156705u);
  // Its roamers' moves: each sender patches the moved radio's entry, and
  // only the tables of the radios that moved are rebuilt.
  EXPECT_EQ(channel.link_tables_rebuilt(), 106u);
  EXPECT_EQ(channel.links_patched(), 2429u);
  if (h.value() != kGolden) {
    std::printf("hash: 0x%016llx\n",
                static_cast<unsigned long long>(h.value()));
  }
  EXPECT_EQ(h.value(), kGolden)
      << "city_small output changed bit-for-bit; see stdout for the hash";
}

}  // namespace
}  // namespace g80211::spec
