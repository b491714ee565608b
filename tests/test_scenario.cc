// Scenario toolkit: topology geometry, Sim wiring, the bench harness's
// quick-mode knobs, determinism.
#include <gtest/gtest.h>

#include <cstdlib>

#include "bench/common.h"
#include "src/scenario/scenario.h"
#include "src/scenario/topology.h"

namespace g80211 {
namespace {

TEST(Topology, PairsInRangeGeometry) {
  const auto l = pairs_in_range(4);
  ASSERT_EQ(l.senders.size(), 4u);
  ASSERT_EQ(l.receivers.size(), 4u);
  Propagation prop;
  for (int i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(distance(l.senders[i], l.receivers[i]), 2.0);
    for (int j = 0; j < 4; ++j) {
      if (i == j) continue;
      // Capture safety: own peer at 2 m beats any foreign station by >10x.
      const double foreign = distance(l.senders[i], l.receivers[j]);
      EXPECT_GT(prop.rx_power_w(2.0) / prop.rx_power_w(foreign), 10.0);
    }
  }
}

TEST(Topology, SharedApClientsEquidistant) {
  const auto l = shared_ap(8);
  ASSERT_EQ(l.clients.size(), 8u);
  for (const auto& c : l.clients) {
    EXPECT_NEAR(distance(l.ap, c), 2.0, 1e-9);
  }
}

TEST(Topology, HiddenPairsAreActuallyHidden) {
  const auto l = hidden_pairs();
  const double sender_gap = distance(l.senders[0], l.senders[1]);
  EXPECT_GT(sender_gap, l.cs_range_m) << "senders must not sense each other";
  for (const auto& r : l.receivers) {
    EXPECT_LE(distance(l.senders[0], r), l.comm_range_m);
    EXPECT_LE(distance(l.senders[1], r), l.comm_range_m);
  }
}

TEST(Topology, DistanceSweepSeparation) {
  const auto l = distance_sweep(40.0);
  EXPECT_DOUBLE_EQ(l.s2.x - l.s1.x, 40.0);
  EXPECT_DOUBLE_EQ(l.comm_range_m, 55.0);
  EXPECT_DOUBLE_EQ(l.cs_range_m, 99.0);
}

TEST(Experiment, QuickModeReadsEnvironment) {
  // The test harness sets G80211_QUICK=1.
  EXPECT_TRUE(bench::quick_mode());
  EXPECT_EQ(bench::default_runs(), 2);
  EXPECT_EQ(bench::default_measure(), seconds(2));
}

TEST(SimBuilder, SameSeedGivesIdenticalGoodput) {
  auto run = [](std::uint64_t seed) {
    SimConfig cfg;
    cfg.measure = seconds(2);
    cfg.seed = seed;
    Sim sim(cfg);
    const auto l = pairs_in_range(2);
    Node& s1 = sim.add_node(l.senders[0]);
    Node& s2 = sim.add_node(l.senders[1]);
    Node& r1 = sim.add_node(l.receivers[0]);
    Node& r2 = sim.add_node(l.receivers[1]);
    auto f1 = sim.add_udp_flow(s1, r1);
    auto f2 = sim.add_udp_flow(s2, r2);
    sim.run();
    return std::pair{f1.goodput_mbps(), f2.goodput_mbps()};
  };
  const auto a = run(5);
  const auto b = run(5);
  const auto c = run(6);
  EXPECT_DOUBLE_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
  EXPECT_NE(a.first, c.first) << "different seed, different microdynamics";
}

TEST(SimBuilder, TcpFlowRoundTripsOverWireless) {
  SimConfig cfg;
  cfg.measure = seconds(2);
  Sim sim(cfg);
  const auto l = pairs_in_range(1);
  Node& s = sim.add_node(l.senders[0]);
  Node& r = sim.add_node(l.receivers[0]);
  auto f = sim.add_tcp_flow(s, r);
  sim.run();
  EXPECT_GT(f.goodput_mbps(), 1.5);
}

TEST(SimBuilder, RemoteTcpFlowTraversesWire) {
  SimConfig cfg;
  cfg.measure = seconds(3);
  Sim sim(cfg);
  const auto l = shared_ap(1);
  Node& ap = sim.add_node(l.ap);
  Node& client = sim.add_node(l.clients[0]);
  WiredHost& host = sim.add_wired_host(ap, milliseconds(20));
  auto f = sim.add_remote_tcp_flow(host, ap, client);
  sim.run();
  EXPECT_GT(f.goodput_mbps(), 0.5) << "remote sender must make progress";
}

TEST(SimBuilder, RunMoreExtendsTheClock) {
  SimConfig cfg;
  cfg.measure = seconds(1);
  Sim sim(cfg);
  const auto l = pairs_in_range(1);
  Node& s = sim.add_node(l.senders[0]);
  Node& r = sim.add_node(l.receivers[0]);
  auto f = sim.add_udp_flow(s, r);
  sim.run();
  const Time t1 = sim.scheduler().now();
  const std::int64_t p1 = f.sink->packets();
  sim.run_more(seconds(1));
  EXPECT_EQ(sim.scheduler().now(), t1 + seconds(1));
  EXPECT_GT(f.sink->packets(), p1);
}

TEST(SimBuilder, UdpDefaultRateSaturates) {
  SimConfig cfg;
  cfg.measure = seconds(2);
  Sim sim(cfg);
  const auto l = pairs_in_range(1);
  Node& s = sim.add_node(l.senders[0]);
  Node& r = sim.add_node(l.receivers[0]);
  auto f = sim.add_udp_flow(s, r);
  sim.run();
  // A single saturated 802.11b flow with RTS/CTS lands in 3-4 Mbps.
  EXPECT_GT(f.goodput_mbps(), 3.0);
  EXPECT_LT(f.goodput_mbps(), 4.5);
  EXPECT_GT(s.mac().stats().queue_drops, 0) << "offered load exceeds capacity";
}

TEST(SimBuilder, StandardSelectsPhy) {
  SimConfig cfg;
  cfg.standard = Standard::A80211;
  Sim sim(cfg);
  EXPECT_EQ(sim.params().slot, microseconds(9));
  EXPECT_DOUBLE_EQ(sim.params().data_rate_mbps, 6.0);
}

}  // namespace
}  // namespace g80211
