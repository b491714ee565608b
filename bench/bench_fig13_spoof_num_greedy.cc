// Fig 13: two TCP flows under 0, 1, or 2 ACK-spoofing receivers at
// BER=2e-4. With two spoofers, each disables the other's MAC-layer
// retransmissions, losses flood up to TCP on both flows, and total goodput
// drops — more so at higher greedy percentages.
#include <cstdio>

#include "bench/common.h"

using namespace g80211;
using namespace g80211::bench;

namespace {

constexpr int kGps[] = {50, 100};
constexpr int kNumGreedy[] = {0, 1, 2};

}  // namespace

int main() {
  Campaign campaign("fig13_spoof_num_greedy", {"flow1_mbps", "flow2_mbps"});
  for (const int gp : kGps) {
    for (const int n_greedy : kNumGreedy) {
      PairsSpec spec;
      spec.tcp = true;
      spec.cfg = base_config();
      spec.cfg.default_ber = 2e-4;
      spec.cfg.capture_threshold = 10.0;
      spec.customize = [gp, n_greedy](Sim& sim, std::vector<Node*>&,
                                      std::vector<Node*>& rx) {
        if (n_greedy >= 1) sim.make_ack_spoofer(*rx[1], gp / 100.0, {rx[0]->id()});
        if (n_greedy >= 2) sim.make_ack_spoofer(*rx[0], gp / 100.0, {rx[1]->id()});
      };
      campaign.add("gp" + std::to_string(gp) + "_n" + std::to_string(n_greedy),
                   gp, 1400 + n_greedy, default_runs(),
                   [spec](std::uint64_t s) {
                     return run_pairs(spec, s).goodput_mbps;
                   });
    }
  }
  const auto points = campaign.run();

  std::printf("Fig 13: 0/1/2 ACK spoofers, BER=2e-4 (TCP, 802.11b)\n");
  TableWriter table({"gp_pct", "n_greedy", "flow1_mbps", "flow2_mbps", "total"});
  table.print_header();
  double total_honest = 0.0, total_mutual = 0.0;
  std::size_t i = 0;
  for (const int gp : kGps) {
    for (const int n_greedy : kNumGreedy) {
      const auto& med = points[i++].median;
      const double total = med[0] + med[1];
      table.print_row({static_cast<double>(gp), static_cast<double>(n_greedy),
                       med[0], med[1], total});
      if (gp == 100 && n_greedy == 0) total_honest = total;
      if (gp == 100 && n_greedy == 2) total_mutual = total;
    }
  }
  std::printf("\n");
  print_headlines({{"total_honest", total_honest},
                   {"total_mutual_spoofing", total_mutual}});
}
