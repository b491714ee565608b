// Fig 24: GRC against ACK spoofing under a varying loss rate. With the
// RSSI-based detector attached at the victim's sender, flagged ACKs are
// ignored and the MAC retransmits as it should: both flows track the
// no-attack goodput curves.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/common.h"
#include "src/detect/spoof_detector.h"

using namespace g80211;
using namespace g80211::bench;

namespace {

std::vector<double> run_case(double ber, bool attack, bool grc_on,
                             std::uint64_t seed) {
  SimConfig cfg;
  cfg.default_ber = ber;
  cfg.capture_threshold = 10.0;
  cfg.measure = default_measure();
  cfg.seed = seed;
  Sim sim(cfg);
  const PairLayout l = pairs_in_range(2);
  Node& ns = sim.add_node(l.senders[0]);
  Node& gs = sim.add_node(l.senders[1]);
  Node& nr = sim.add_node(l.receivers[0]);
  Node& gr = sim.add_node(l.receivers[1]);
  auto fn = sim.add_tcp_flow(ns, nr);
  auto fg = sim.add_tcp_flow(gs, gr);
  if (attack) sim.make_ack_spoofer(gr, 1.0, {nr.id()});
  SpoofDetector detector(1.0);
  if (grc_on) detector.attach(ns.mac());
  sim.run();
  return {fn.goodput_mbps(), fg.goodput_mbps()};
}

void run(benchmark::State& state) {
  Campaign campaign("fig24_grc_spoof", {"noGR_R1", "noGR_R2", "GR_R1", "GR_R2",
                                        "GRC_R1", "GRC_R2"});
  for (const double ber : {0.0, 1e-4, 2e-4, 4e-4, 8e-4, 1.1e-3, 1.4e-3}) {
    char label[32];
    std::snprintf(label, sizeof(label), "%g", ber);
    campaign.add(label, ber, 3000, default_runs(), [ber](std::uint64_t s) {
      auto none = run_case(ber, false, false, s);
      auto att = run_case(ber, true, false, s);
      auto grc = run_case(ber, true, true, s);
      return std::vector<double>{none[0], none[1], att[0], att[1], grc[0], grc[1]};
    });
  }
  const auto points = campaign.run();

  std::printf("Fig 24: GRC vs ACK spoofing across BER (TCP, 802.11b)\n");
  TableWriter table({"ber", "noGR_R1", "noGR_R2", "GR_R1", "GR_R2", "GRC_R1",
                     "GRC_R2"},
                    9);
  table.print_header();
  print_points(table, points);
  std::printf("\n");
  const auto& at_2e4 = points[2].median;  // ber = 2e-4
  state.counters["victim_recovery_ratio_2e-4"] =
      at_2e4[0] > 0 ? at_2e4[4] / at_2e4[0] : 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  register_once("Fig24/GrcVsAckSpoofing", run);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
