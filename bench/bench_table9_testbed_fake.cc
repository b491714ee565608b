// Table IX (testbed): emulated fake ACKs — as in the paper, the sender's
// contention window toward the greedy receiver is pinned at CWmin (a fake
// ACK prevents every doubling), while transmissions toward the normal
// receiver back off normally. One AP, two UDP receivers, 802.11a without
// RTS/CTS, mild inherent loss so backoff actually engages.
#include <cstdio>

#include "bench/common.h"

using namespace g80211;
using namespace g80211::bench;

int main() {
  const double ber =
      ErrorModel::ber_for_fer(0.2, ErrorModel::error_len(FrameType::kData, 1064));

  SharedApSpec honest;
  honest.n_clients = 2;
  honest.tcp = false;
  honest.udp_rate_mbps = 6.0;
  honest.cfg = base_config(Standard::A80211);
  honest.cfg.rts_cts = false;
  honest.cfg.default_ber = ber;
  SharedApSpec attacked = honest;
  attacked.customize = [](Sim&, Node& ap, std::vector<Node*>& clients) {
    ap.mac().clamp_cw_to(clients[1]->id());
  };
  Campaign campaign("table9_testbed_fake", {"flow1", "flow2"});
  campaign.add("no_gr", 0.0, 2600, default_runs(), [honest](std::uint64_t s) {
    return run_shared_ap(honest, s).goodput_mbps;
  });
  campaign.add("one_gr", 1.0, 2610, default_runs(), [attacked](std::uint64_t s) {
    return run_shared_ap(attacked, s).goodput_mbps;
  });
  const auto points = campaign.run();

  std::printf("Table IX (testbed emulation): fake ACKs via pinned CW\n");
  std::printf("%28s %10s %10s\n", "", "flow1", "flow2");
  const auto& base = points[0].median;
  const auto& att = points[1].median;
  std::printf("%28s %10.3f %10.3f\n", "no GR (NR1 / NR2)", base[0], base[1]);
  std::printf("%28s %10.3f %10.3f\n", "1 GR (NR / GR)", att[0], att[1]);
  std::printf("\n");

  print_headlines({{"normal_mbps_under_attack", att[0]},
                   {"greedy_mbps_under_attack", att[1]}});
}
