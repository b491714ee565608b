// Ablation (DESIGN.md): the capture effect in the ACK-spoofing scenario.
// The paper's evaluation assumes physical capture resolves simultaneous
// real/spoofed ACKs ("no collision even if both receivers send ACKs").
// With capture disabled, the spoofed ACK collides with the victim's real
// ACK whenever the victim did receive the data — adding a jamming
// component on top of the retransmission suppression, which hurts the
// victim even more (the paper notes the combined attack is strictly
// worse). This bench quantifies that difference.
#include <cstdio>

#include "bench/common.h"

using namespace g80211;
using namespace g80211::bench;

int main() {
  Campaign campaign("ablation_capture", {"normal_mbps", "greedy_mbps"});
  for (const bool capture : {true, false}) {
    PairsSpec spec;
    spec.tcp = true;
    spec.cfg = base_config();
    spec.cfg.default_ber = 2e-4;
    spec.cfg.capture_threshold = capture ? 10.0 : 0.0;
    spec.customize = [](Sim& sim, std::vector<Node*>&, std::vector<Node*>& rx) {
      sim.make_ack_spoofer(*rx[1], 1.0, {rx[0]->id()});
    };
    campaign.add(capture ? "on" : "off", capture ? 1.0 : 0.0, 3100,
                 default_runs(), [spec](std::uint64_t seed) {
                   return run_pairs(spec, seed).goodput_mbps;
                 });
  }
  const auto points = campaign.run();

  std::printf("Ablation: ACK spoofing with capture on vs off (TCP, BER=2e-4)\n");
  TableWriter table({"capture", "normal_mbps", "greedy_mbps", "total"});
  table.print_header();
  for (const auto& pt : points) {
    const auto& med = pt.median;
    table.print_row({pt.x, med[0], med[1], med[0] + med[1]});
  }
  const double victim_capture_on = points[0].median[0];
  const double victim_capture_off = points[1].median[0];
  std::printf(
      "Without capture the spoof also jams the victim's real ACKs; the\n"
      "victim's goodput drops further (%0.3f -> %0.3f Mbps).\n\n",
      victim_capture_on, victim_capture_off);
  print_headlines({{"victim_capture_on", victim_capture_on},
                   {"victim_capture_off", victim_capture_off}});
}
