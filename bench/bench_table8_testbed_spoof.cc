// Table VIII (testbed): emulated ACK spoofing — exactly as the paper did
// it, the sender's MAC is modified to skip retransmissions toward the
// normal receiver (a successfully spoofed ACK makes the sender move on),
// while the greedy receiver's traffic retransmits as usual. One AP, two
// TCP receivers, 802.11a without RTS/CTS, mild inherent loss (the paper's
// office channel was not clean; without loss there is nothing to spoof).
#include <cstdio>

#include "bench/common.h"

using namespace g80211;
using namespace g80211::bench;

int main() {
  const double ber =
      ErrorModel::ber_for_fer(0.15, ErrorModel::error_len(FrameType::kData, 1064));

  SharedApSpec honest;
  honest.n_clients = 2;
  honest.tcp = true;
  honest.cfg = base_config(Standard::A80211);
  honest.cfg.rts_cts = false;
  honest.cfg.default_ber = ber;
  SharedApSpec attacked = honest;
  attacked.customize = [](Sim&, Node& ap, std::vector<Node*>& clients) {
    // Emulate GR (clients[1]) spoofing NR's (clients[0]) ACKs.
    ap.mac().disable_retransmissions_to(clients[0]->id());
  };
  Campaign campaign("table8_testbed_spoof", {"flow1", "flow2"});
  campaign.add("no_gr", 0.0, 2500, default_runs(), [honest](std::uint64_t s) {
    return run_shared_ap(honest, s).goodput_mbps;
  });
  campaign.add("one_gr", 1.0, 2510, default_runs(), [attacked](std::uint64_t s) {
    return run_shared_ap(attacked, s).goodput_mbps;
  });
  const auto points = campaign.run();

  std::printf(
      "Table VIII (testbed emulation): spoofed-ACK via disabled retransmission\n");
  std::printf("%28s %10s %10s\n", "", "flow1", "flow2");
  const auto& base = points[0].median;
  const auto& att = points[1].median;
  std::printf("%28s %10.3f %10.3f\n", "no GR (NR1 / NR2)", base[0], base[1]);
  std::printf("%28s %10.3f %10.3f\n", "1 GR (NR / GR)", att[0], att[1]);
  std::printf("\n");

  print_headlines({{"normal_mbps_under_attack", att[0]},
                   {"greedy_mbps_under_attack", att[1]}});
}
