// Fig 17: ACK spoofing against UDP — one AP sends CBR traffic to a normal
// and a greedy receiver; GR spoofs NR's MAC ACKs. Disabling the victim's
// MAC retransmissions shifts service time toward GR, but without TCP
// congestion control to exploit the gain is milder than in Fig 11.
#include <cstdio>

#include "bench/common.h"

using namespace g80211;
using namespace g80211::bench;

int main() {
  // Both columns of a row share the row's seeds: each run plays the honest
  // AP and then the attacked one.
  Campaign campaign("fig17_spoof_udp",
                    {"noGR_R1", "noGR_R2", "wGR_NR", "wGR_GR"});
  for (const double ber : {0.0, 1e-5, 1e-4, 2e-4, 4.4e-4, 8e-4}) {
    SharedApSpec honest;
    honest.n_clients = 2;
    honest.spoof_layout = true;
    honest.tcp = false;
    honest.udp_rate_mbps = 6.0;
    honest.cfg = base_config();
    honest.cfg.default_ber = ber;
    honest.cfg.capture_threshold = 10.0;
    SharedApSpec attacked = honest;
    attacked.customize = [](Sim& sim, Node&, std::vector<Node*>& clients) {
      sim.make_ack_spoofer(*clients[1], 1.0, {clients[0]->id()});
    };
    char label[32];
    std::snprintf(label, sizeof(label), "%g", ber);
    campaign.add(label, ber, 1800, default_runs(),
                 [honest, attacked](std::uint64_t s) {
                   std::vector<double> row = run_shared_ap(honest, s).goodput_mbps;
                   const auto att = run_shared_ap(attacked, s).goodput_mbps;
                   row.insert(row.end(), att.begin(), att.end());
                   return row;
                 });
  }
  const auto points = campaign.run();

  std::printf("Fig 17: UDP spoofing, 1 AP -> {NR, GR}, loss sweep (802.11b)\n");
  TableWriter table({"ber", "noGR_R1", "noGR_R2", "wGR_NR", "wGR_GR"});
  table.print_header();
  print_points(table, points);
  std::printf("\n");
  double gap_at_44 = 0.0;
  for (const auto& pt : points) {
    if (pt.x == 4.4e-4) gap_at_44 = pt.median[3] - pt.median[2];
  }
  print_headlines({{"greedy_gap_at_4.4e-4", gap_at_44}});
}
