// Fig 12: ACK spoofing under a varying greedy percentage (how often GR
// spoofs when it sniffs the victim's data) across low/moderate/high loss.
//
// One campaign per BER level; every gp point and seed runs concurrently on
// the G80211_JOBS pool with sweep-ordered aggregation.
#include <cstdio>

#include "bench/common.h"

using namespace g80211;
using namespace g80211::bench;

int main() {
  double gain_gp100_moderate = 0.0;
  for (const double ber : {1e-5, 2e-4, 8e-4}) {
    char figure[64];
    std::snprintf(figure, sizeof(figure), "fig12_spoof_gp_ber%g", ber);
    Campaign campaign(figure, {"normal_mbps", "greedy_mbps"});
    for (const int gp : {0, 20, 40, 60, 80, 100}) {
      PairsSpec spec;
      spec.tcp = true;
      spec.cfg = base_config();
      spec.cfg.default_ber = ber;
      spec.cfg.capture_threshold = 10.0;
      spec.customize = [gp](Sim& sim, std::vector<Node*>&,
                            std::vector<Node*>& rx) {
        if (gp > 0) sim.make_ack_spoofer(*rx[1], gp / 100.0, {rx[0]->id()});
      };
      campaign.add(std::to_string(gp), gp,
                   1300 + static_cast<std::uint64_t>(gp), default_runs(),
                   [spec = std::move(spec)](std::uint64_t seed) {
                     return run_pairs(spec, seed).goodput_mbps;
                   });
    }
    const auto points = campaign.run();

    std::printf("Fig 12: ACK spoofing, greedy-percentage sweep, BER=%g (802.11b)\n",
                ber);
    TableWriter table({"gp_pct", "normal_mbps", "greedy_mbps"});
    table.print_header();
    print_points(table, points);
    std::printf("\n");
    if (ber == 2e-4) {
      const auto& at100 = points.back();
      gain_gp100_moderate = at100.median[1] - at100.median[0];
    }
  }
  print_headlines({{"gain_gp100_ber2e-4", gain_gp100_moderate}});
}
