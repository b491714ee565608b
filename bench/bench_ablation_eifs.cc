// Ablation (DESIGN.md): EIFS deference after corrupted receptions. EIFS
// matters under loss: a station that cannot decode a frame must defer long
// enough for the unseen ACK exchange to complete. Disabling it lets
// bystanders stomp ACKs, which changes loss dynamics in every BER-driven
// experiment. This bench quantifies the effect on the Fig 11 operating
// point (two TCP flows, BER=2e-4, no misbehavior).
#include <cstdio>

#include "bench/common.h"

using namespace g80211;
using namespace g80211::bench;

int main() {
  Campaign campaign("ablation_eifs", {"flow1_mbps", "flow2_mbps"});
  for (const bool eifs : {true, false}) {
    PairsSpec spec;
    spec.tcp = true;
    spec.cfg = base_config();
    spec.cfg.default_ber = 2e-4;
    spec.customize = [eifs](Sim&, std::vector<Node*>& senders,
                            std::vector<Node*>& receivers) {
      if (!eifs) {
        for (Node* n : senders) n->mac().set_eifs_enabled(false);
        for (Node* n : receivers) n->mac().set_eifs_enabled(false);
      }
    };
    campaign.add(eifs ? "on" : "off", eifs ? 1.0 : 0.0, 3200, default_runs(),
                 [spec](std::uint64_t seed) {
                   return run_pairs(spec, seed).goodput_mbps;
                 });
  }
  const auto points = campaign.run();

  std::printf("Ablation: EIFS on vs off (two honest TCP flows, BER=2e-4)\n");
  TableWriter table({"eifs", "flow1_mbps", "flow2_mbps", "total"});
  table.print_header();
  for (const auto& pt : points) {
    const auto& med = pt.median;
    table.print_row({pt.x, med[0], med[1], med[0] + med[1]});
  }
  std::printf("\n");
  print_headlines({
      {"total_eifs_on", points[0].median[0] + points[0].median[1]},
      {"total_eifs_off", points[1].median[0] + points[1].median[1]},
  });
}
