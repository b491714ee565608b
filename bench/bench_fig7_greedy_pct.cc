// Fig 7: two TCP flows where GR inflates its CTS NAV by 5, 10, or 31 ms on
// only a fraction (the Greedy Percentage) of its CTS frames — cheating on
// half the frames already buys a large share of the medium.
#include <cstdio>

#include "bench/common.h"

using namespace g80211;
using namespace g80211::bench;

int main() {
  double gain_gp50_10ms = 0.0;
  for (const Time inflation : {milliseconds(5), milliseconds(10), milliseconds(31)}) {
    char figure[64];
    std::snprintf(figure, sizeof(figure), "fig7_greedy_pct_nav%gms",
                  to_millis(inflation));
    Campaign campaign(figure, {"normal_mbps", "greedy_mbps"});
    for (const int gp : {0, 25, 50, 75, 100}) {
      PairsSpec spec;
      spec.tcp = true;
      spec.cfg = base_config();
      spec.customize = [inflation, gp](Sim& sim, std::vector<Node*>&,
                                       std::vector<Node*>& rx) {
        if (gp > 0) {
          sim.make_nav_inflator(*rx[1], NavFrameMask::cts_only(), inflation,
                                gp / 100.0);
        }
      };
      campaign.add(std::to_string(gp), gp, 700 + gp, default_runs(),
                   [spec](std::uint64_t s) {
                     return run_pairs(spec, s).goodput_mbps;
                   });
    }
    const auto points = campaign.run();

    std::printf("Fig 7: TCP goodput vs greedy percentage, CTS NAV +%g ms\n",
                to_millis(inflation));
    TableWriter table({"gp_pct", "normal_mbps", "greedy_mbps"});
    table.print_header();
    print_points(table, points);
    std::printf("\n");
    if (inflation == milliseconds(10)) {
      const auto& at50 = points[2].median;  // gp = 50
      gain_gp50_10ms = at50[1] - at50[0];
    }
  }
  print_headlines({{"gain_mbps_gp50_10ms", gain_gp50_10ms}});
}
