// Fig 19: one fake-ACKing receiver competes with a varying number of
// normal pairs, all flows experiencing the same inherent loss rate. The
// paper's observations: the greedy impact grows with the loss rate, the
// absolute gap shrinks with more competitors (per-flow goodput falls), but
// the relative gap stays high.
#include <cstdio>

#include "bench/common.h"

using namespace g80211;
using namespace g80211::bench;

int main() {
  double rel_gap_4pairs = 0.0;
  for (const double fer : {0.2, 0.5}) {
    const double ber =
        ErrorModel::ber_for_fer(fer, ErrorModel::error_len(FrameType::kData, 1064));
    char figure[64];
    std::snprintf(figure, sizeof(figure), "fig19_fake_pairs_fer%.1f", fer);
    // Each row has its own flow count, so each point names its own metrics.
    Campaign campaign(figure, {});
    for (const int n_pairs : {2, 3, 4, 6, 8}) {
      PairsSpec spec;
      spec.n_pairs = n_pairs;
      spec.tcp = false;
      spec.cfg = base_config();
      spec.cfg.rts_cts = false;
      spec.cfg.default_ber = ber;
      spec.customize = [](Sim& sim, std::vector<Node*>&, std::vector<Node*>& rx) {
        sim.make_fake_acker(*rx.back(), 1.0);
      };
      campaign.add(std::to_string(n_pairs), n_pairs, 2200 + n_pairs,
                   default_runs(),
                   [spec](std::uint64_t s) {
                     return run_pairs(spec, s).goodput_mbps;
                   },
                   goodput_names(n_pairs - 1));
    }
    const auto points = campaign.run();

    std::printf("Fig 19: fake ACKs, n pairs, data FER=%.1f (UDP, 802.11b)\n", fer);
    TableWriter table({"n_pairs", "avg_normal", "greedy_mbps", "rel_gap"});
    table.print_header();
    for (const auto& pt : points) {
      const auto& med = pt.median;
      const int n_pairs = static_cast<int>(med.size());
      double normal_sum = 0.0;
      for (int i = 0; i + 1 < n_pairs; ++i) normal_sum += med[i];
      const double avg_normal = normal_sum / (n_pairs - 1);
      const double rel = avg_normal > 0 ? med.back() / avg_normal : 0.0;
      table.print_row({pt.x, avg_normal, med.back(), rel});
      if (fer == 0.5 && n_pairs == 4) rel_gap_4pairs = rel;
    }
    std::printf("\n");
  }
  print_headlines({{"relative_gap_4pairs_fer0.5", rel_gap_4pairs}});
}
