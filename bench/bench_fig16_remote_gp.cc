// Fig 16: remote TCP senders (wireless BER=2e-5) with the greedy
// percentage and the wired latency both varying. The paper highlights that
// around 200 ms, spoofing only 20% of sniffed DATA frames already costs
// the victim most of its goodput.
#include <cstdio>

#include "bench/common.h"

using namespace g80211;
using namespace g80211::bench;

int main() {
  double victim_gp20_200ms = 0.0, victim_gp0_200ms = 0.0;
  for (const Time latency : {milliseconds(2), milliseconds(50), milliseconds(200),
                             milliseconds(400)}) {
    char figure[64];
    std::snprintf(figure, sizeof(figure), "fig16_remote_gp_lat%gms",
                  to_millis(latency));
    Campaign campaign(figure, {"normal_mbps", "greedy_mbps"});
    for (const int gp : {0, 20, 40, 60, 80, 100}) {
      RemoteSpec spec;
      spec.wired_latency = latency;
      spec.cfg = base_config();
      spec.cfg.default_ber = 2e-5;
      spec.cfg.capture_threshold = 10.0;
      spec.cfg.measure = std::max<Time>(default_measure(), 100 * latency);
      spec.customize = [gp](Sim& sim, Node&, std::vector<Node*>& clients) {
        if (gp > 0) {
          sim.make_ack_spoofer(*clients[1], gp / 100.0, {clients[0]->id()});
        }
      };
      campaign.add(std::to_string(gp), gp, 1700 + gp, default_runs(),
                   [spec](std::uint64_t s) { return run_remote(spec, s); });
    }
    const auto points = campaign.run();

    std::printf("Fig 16: remote senders, GP sweep, wired latency %g ms\n",
                to_millis(latency));
    TableWriter table({"gp_pct", "normal_mbps", "greedy_mbps"});
    table.print_header();
    print_points(table, points);
    std::printf("\n");
    if (latency == milliseconds(200)) {
      victim_gp0_200ms = points[0].median[0];
      victim_gp20_200ms = points[1].median[0];
    }
  }
  const double victim_loss_pct =
      victim_gp0_200ms > 0
          ? 100.0 * (victim_gp0_200ms - victim_gp20_200ms) / victim_gp0_200ms
          : 0.0;
  print_headlines({{"victim_loss_pct_gp20_200ms", victim_loss_pct}});
}
