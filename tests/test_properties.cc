// Property-based / parameterized sweeps (gtest TEST_P): invariants that
// must hold across whole parameter grids, not just single points.
#include <gtest/gtest.h>

#include <cstdint>
#include <ostream>
#include <string>

#include "src/analysis/nav_model.h"
#include "src/scenario/scenario.h"
#include "src/scenario/topology.h"

namespace g80211 {
namespace {

// ctest lists each case under the name gtest gives it, and for a parameter
// struct that name is a dump of the struct's bytes. Padding bytes are
// uninitialised and a pointer's value changes from run to run, so the structs
// below have no padding, and the one that holds a pointer prints itself.

// --- Conservation: no configuration may create goodput from nothing -------

struct ConservationParam {
  Standard standard;
  std::int32_t rts_cts;  // a bool, as wide as the padding it would leave
  Time inflation;
  double ber;
  std::uint64_t seed;
};

class GoodputConservation : public ::testing::TestWithParam<ConservationParam> {};

TEST_P(GoodputConservation, TotalBelowPhyRateAndNonNegative) {
  const auto p = GetParam();
  SimConfig cfg;
  cfg.standard = p.standard;
  cfg.rts_cts = p.rts_cts != 0;
  cfg.default_ber = p.ber;
  cfg.measure = seconds(2);
  cfg.seed = p.seed;
  Sim sim(cfg);
  const auto l = pairs_in_range(2);
  Node& s1 = sim.add_node(l.senders[0]);
  Node& s2 = sim.add_node(l.senders[1]);
  Node& r1 = sim.add_node(l.receivers[0]);
  Node& r2 = sim.add_node(l.receivers[1]);
  auto f1 = sim.add_udp_flow(s1, r1);
  auto f2 = sim.add_udp_flow(s2, r2);
  if (p.inflation > 0) {
    sim.make_nav_inflator(r2, NavFrameMask::cts_only(), p.inflation);
  }
  sim.run();
  const double total = f1.goodput_mbps() + f2.goodput_mbps();
  EXPECT_GE(f1.goodput_mbps(), 0.0);
  EXPECT_GE(f2.goodput_mbps(), 0.0);
  EXPECT_LT(total, sim.params().data_rate_mbps)
      << "goodput cannot exceed the PHY rate";
}

INSTANTIATE_TEST_SUITE_P(
    Grid, GoodputConservation,
    ::testing::Values(
        ConservationParam{Standard::B80211, true, 0, 0.0, 1},
        ConservationParam{Standard::B80211, true, microseconds(300), 0.0, 2},
        ConservationParam{Standard::B80211, true, milliseconds(31), 0.0, 3},
        ConservationParam{Standard::B80211, false, microseconds(600), 0.0, 4},
        ConservationParam{Standard::B80211, true, milliseconds(5), 2e-4, 5},
        ConservationParam{Standard::A80211, true, 0, 0.0, 6},
        ConservationParam{Standard::A80211, true, milliseconds(2), 0.0, 7},
        ConservationParam{Standard::A80211, false, milliseconds(10), 1e-4, 8}));

// --- Greedy percentage: more cheating never helps the victim ---------------

class GreedyPercentageSweep : public ::testing::TestWithParam<double> {};

TEST_P(GreedyPercentageSweep, VictimNeverGainsFromMoreCheating) {
  const double gp = GetParam();
  auto victim_goodput = [](double greedy_pct) {
    SimConfig cfg;
    cfg.measure = seconds(3);
    cfg.seed = 31;
    Sim sim(cfg);
    const auto l = pairs_in_range(2);
    Node& ns = sim.add_node(l.senders[0]);
    Node& gs = sim.add_node(l.senders[1]);
    Node& nr = sim.add_node(l.receivers[0]);
    Node& gr = sim.add_node(l.receivers[1]);
    auto fn = sim.add_udp_flow(ns, nr);
    auto fg = sim.add_udp_flow(gs, gr);
    if (greedy_pct > 0) {
      sim.make_nav_inflator(gr, NavFrameMask::cts_only(), milliseconds(5),
                            greedy_pct);
    }
    sim.run();
    (void)fg;
    return fn.goodput_mbps();
  };
  // Compare against the honest baseline with generous noise margin.
  const double honest = victim_goodput(0.0);
  const double cheated = victim_goodput(gp);
  EXPECT_LT(cheated, honest * 1.05 + 0.05);
  if (gp >= 0.5) {
    EXPECT_LT(cheated, honest * 0.6) << "heavy cheating clearly hurts";
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, GreedyPercentageSweep,
                         ::testing::Values(0.1, 0.25, 0.5, 0.75, 1.0));

// --- Eq (1)/(2) model tracks the simulator across the inflation sweep ------

class NavModelAgreement : public ::testing::TestWithParam<int> {};

TEST_P(NavModelAgreement, ModelRatioMatchesMeasuredRtsRatio) {
  const int v_slots = GetParam();
  SimConfig cfg;
  cfg.measure = seconds(6);
  cfg.seed = 41;
  Sim sim(cfg);
  const auto l = pairs_in_range(2);
  Node& ns = sim.add_node(l.senders[0]);
  Node& gs = sim.add_node(l.senders[1]);
  Node& nr = sim.add_node(l.receivers[0]);
  Node& gr = sim.add_node(l.receivers[1]);
  auto fn = sim.add_udp_flow(ns, nr);
  auto fg = sim.add_udp_flow(gs, gr);
  if (v_slots > 0) {
    sim.make_nav_inflator(gr, NavFrameMask::cts_only(),
                          v_slots * sim.params().slot);
  }
  sim.run();

  const auto probs = nav_inflation_send_prob(
      normalize_histogram(gs.mac().backoff().cw_histogram()),
      normalize_histogram(ns.mac().backoff().cw_histogram()), v_slots);
  const double measured_ratio =
      static_cast<double>(gs.mac().stats().rts_sent) /
      static_cast<double>(gs.mac().stats().rts_sent + ns.mac().stats().rts_sent);
  EXPECT_NEAR(probs.gs_ratio(), measured_ratio, 0.12)
      << "v=" << v_slots << " model=" << probs.gs_ratio()
      << " measured=" << measured_ratio;
  (void)fn;
  (void)fg;
}

INSTANTIATE_TEST_SUITE_P(Sweep, NavModelAgreement,
                         ::testing::Values(0, 4, 8, 12, 16, 20, 24, 28));

// --- Determinism across the scenario space ---------------------------------

struct DeterminismParam {
  std::string name;
  int mode;  // 0 nav, 1 spoof, 2 fake
};

void PrintTo(const DeterminismParam& p, std::ostream* os) { *os << p.name; }

class Determinism : public ::testing::TestWithParam<DeterminismParam> {};

TEST_P(Determinism, SameSeedSameResult) {
  auto run = [&](std::uint64_t seed) {
    const int mode = GetParam().mode;
    SimConfig cfg;
    cfg.measure = seconds(2);
    cfg.seed = seed;
    if (mode == 2) {
      cfg.rts_cts = false;
      const auto h = hidden_pairs();
      cfg.comm_range_m = h.comm_range_m;
      cfg.cs_range_m = h.cs_range_m;
    }
    if (mode == 1) {
      cfg.default_ber = 2e-4;
      cfg.capture_threshold = 10.0;
    }
    Sim sim(cfg);
    const auto l = mode == 2 ? PairLayout{hidden_pairs().senders,
                                          hidden_pairs().receivers}
                             : pairs_in_range(2);
    Node& s1 = sim.add_node(l.senders[0]);
    Node& s2 = sim.add_node(l.senders[1]);
    Node& r1 = sim.add_node(l.receivers[0]);
    Node& r2 = sim.add_node(l.receivers[1]);
    double g1 = 0, g2 = 0;
    if (mode == 1) {
      auto f1 = sim.add_tcp_flow(s1, r1);
      auto f2 = sim.add_tcp_flow(s2, r2);
      sim.make_ack_spoofer(r2, 1.0, {r1.id()});
      sim.run();
      g1 = f1.goodput_mbps();
      g2 = f2.goodput_mbps();
    } else {
      auto f1 = sim.add_udp_flow(s1, r1);
      auto f2 = sim.add_udp_flow(s2, r2);
      if (mode == 0) {
        sim.make_nav_inflator(r2, NavFrameMask::cts_only(), milliseconds(1));
      } else {
        sim.make_fake_acker(r2, 1.0);
      }
      sim.run();
      g1 = f1.goodput_mbps();
      g2 = f2.goodput_mbps();
    }
    return std::pair{g1, g2};
  };
  const auto a = run(77);
  const auto b = run(77);
  EXPECT_DOUBLE_EQ(a.first, b.first);
  EXPECT_DOUBLE_EQ(a.second, b.second);
}

INSTANTIATE_TEST_SUITE_P(Modes, Determinism,
                         ::testing::Values(DeterminismParam{"nav", 0},
                                           DeterminismParam{"spoof", 1},
                                           DeterminismParam{"fake", 2}),
                         [](const auto& info) { return info.param.name; });

// --- Error model: FER is a proper probability over the whole grid ----------

struct FerParam {
  std::int32_t type;  // a FrameType, as wide as the padding it would leave
  std::int32_t packet_bytes;
};

FerParam fer_param(FrameType type, int packet_bytes) {
  return {static_cast<std::int32_t>(type), packet_bytes};
}

class FerGrid : public ::testing::TestWithParam<FerParam> {};

TEST_P(FerGrid, MonotoneProbabilityInBer) {
  const auto p = GetParam();
  const int len =
      ErrorModel::error_len(static_cast<FrameType>(p.type), p.packet_bytes);
  double prev = -1.0;
  for (double ber = 0.0; ber <= 2e-3; ber += 1e-4) {
    const double f = ErrorModel::fer(ber, len);
    EXPECT_GE(f, 0.0);
    EXPECT_LE(f, 1.0);
    EXPECT_GE(f, prev);
    prev = f;
  }
}

INSTANTIATE_TEST_SUITE_P(Grid, FerGrid,
                         ::testing::Values(fer_param(FrameType::kAck, 0),
                                           fer_param(FrameType::kCts, 0),
                                           fer_param(FrameType::kRts, 0),
                                           fer_param(FrameType::kData, 40),
                                           fer_param(FrameType::kData, 1064),
                                           fer_param(FrameType::kData, 1540)));

// --- Spoofing never hurts the attacker across the loss sweep ---------------

class SpoofBerSweep : public ::testing::TestWithParam<double> {};

TEST_P(SpoofBerSweep, GreedyReceiverNeverWorseOffThanVictim) {
  const double ber = GetParam();
  SimConfig cfg;
  cfg.measure = seconds(3);
  cfg.seed = 51;
  cfg.default_ber = ber;
  cfg.capture_threshold = 10.0;
  Sim sim(cfg);
  const auto l = pairs_in_range(2);
  Node& ns = sim.add_node(l.senders[0]);
  Node& gs = sim.add_node(l.senders[1]);
  Node& nr = sim.add_node(l.receivers[0]);
  Node& gr = sim.add_node(l.receivers[1]);
  auto fn = sim.add_tcp_flow(ns, nr);
  auto fg = sim.add_tcp_flow(gs, gr);
  sim.make_ack_spoofer(gr, 1.0, {nr.id()});
  sim.run();
  EXPECT_GE(fg.goodput_mbps() + 0.05, fn.goodput_mbps())
      << "spoofing at BER " << ber;
}

INSTANTIATE_TEST_SUITE_P(Sweep, SpoofBerSweep,
                         ::testing::Values(1e-5, 1e-4, 2e-4, 4e-4, 8e-4));

}  // namespace
}  // namespace g80211
