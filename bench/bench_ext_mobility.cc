// Extension: the mobile-client detection trade-off (paper Section VII-B).
// On a stationary victim, the 1 dB RSSI profile detects spoofed ACKs with
// few false positives. On a mobile victim the profile chases a moving
// target: honest ACKs get rejected (each costs a retransmission) while
// the cross-layer TCP/MAC correlation keeps working — exactly why the
// paper proposes it for mobile clients.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/common.h"
#include "src/detect/cross_layer_detector.h"
#include "src/detect/spoof_detector.h"
#include "src/net/mobility.h"

using namespace g80211;
using namespace g80211::bench;

namespace {

// Returns {rssi_fp, rssi_tp, xlayer}: the share of honest ACKs the RSSI
// detector rejected, the share of spoofs it flagged, and the cross-layer
// verdict (0/1).
std::vector<double> run_case(bool mobile, bool attack, std::uint64_t seed) {
  SimConfig cfg;
  cfg.measure = default_measure();
  cfg.seed = seed;
  cfg.default_ber = 2e-4;
  cfg.capture_threshold = 10.0;
  Sim sim(cfg);
  const PairLayout l = pairs_in_range(2);
  Node& ns = sim.add_node(l.senders[0]);
  Node& gs = sim.add_node(l.senders[1]);
  Node& nr = sim.add_node(l.receivers[0]);
  Node& gr = sim.add_node(l.receivers[1]);
  auto fn = sim.add_tcp_flow(ns, nr);
  auto fg = sim.add_tcp_flow(gs, gr);
  if (attack) sim.make_ack_spoofer(gr, 1.0, {nr.id()});
  // Observe-only RSSI detector so its recovery does not erase the
  // cross-layer detector's evidence (a rejected spoof never looks
  // MAC-acked); each detector is graded on its own classifications.
  SpoofDetector rssi(1.0);
  rssi.recovery_enabled = false;
  rssi.attach(ns.mac());
  CrossLayerDetector xl(5);
  xl.attach(ns.mac(), *fn.sender);
  WaypointMobility walk(sim.scheduler(), nr.phy(), {{25, 0}, {2, 6}, {18, 3}},
                        3.0);
  if (mobile) walk.start(0);
  sim.run();
  (void)fg;
  const double honest_total =
      static_cast<double>(rssi.false_positives() + rssi.true_negatives());
  const double spoof_total =
      static_cast<double>(rssi.true_positives() + rssi.false_negatives());
  return {honest_total > 0 ? rssi.false_positives() / honest_total : 0.0,
          spoof_total > 0 ? rssi.true_positives() / spoof_total : 0.0,
          xl.detected() ? 1.0 : 0.0};
}

void run(benchmark::State& state) {
  Campaign campaign("ext_mobility", {"rssi_fp", "rssi_tp", "xlayer"});
  for (const bool mobile : {false, true}) {
    for (const bool attack : {false, true}) {
      campaign.add(std::string(mobile ? "mobile" : "static") +
                       (attack ? "_attack" : "_honest"),
                   attack ? 1.0 : 0.0, 3800, default_runs(),
                   [mobile, attack](std::uint64_t s) {
                     return run_case(mobile, attack, s);
                   });
    }
  }
  const auto points = campaign.run();

  std::printf(
      "Extension: spoof detection on stationary vs mobile victims (TCP, "
      "BER=2e-4)\n");
  TableWriter table({"victim", "attack", "rssi_fp", "rssi_tp", "xlayer"}, 10);
  table.print_header();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& med = points[i].median;
    table.print_row({points[i].x, med[0], med[1], med[2]},
                    i < 2 ? "static" : "mobile");
  }
  const double mobile_fp = points[2].median[0];
  const double mobile_xl = points[3].median[2];
  std::printf(
      "\nMobility sends the RSSI detector's false-positive rate to %.0f%%;\n"
      "the cross-layer detector still convicts the spoofer (%s).\n\n",
      100.0 * mobile_fp, mobile_xl > 0.5 ? "detected" : "missed");
  state.counters["mobile_rssi_fp_rate"] = mobile_fp;
  state.counters["mobile_xlayer_detected"] = mobile_xl;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  register_once("Extension/MobileClientDetection", run);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
