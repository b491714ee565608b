// Extension (related-work baseline, paper Section III): greedy *senders*
// and their detection. A sender that draws backoff from a shrunken window
// (Kyasanur & Vaidya's misbehavior) steals bandwidth; a DOMINO-style
// observer (Raya et al.) flags it by measuring actual backoffs on the air.
// This is the sender-side counterpart that motivates why the paper's
// receiver-side attacks — invisible to DOMINO — need their own detectors.
#include <cstdio>

#include "bench/common.h"
#include "src/detect/backoff_monitor.h"

using namespace g80211;
using namespace g80211::bench;

int main() {
  Campaign campaign("ext_greedy_sender",
                    {"honest_mbps", "greedy_mbps", "obs_backoff", "flagged"});
  for (const double cheat : {1.0, 0.5, 0.25, 0.1}) {
    char label[32];
    std::snprintf(label, sizeof(label), "%g", cheat);
    campaign.add(label, cheat, 3400, default_runs(), [cheat](std::uint64_t s) {
      SimConfig cfg;
      cfg.measure = default_measure();
      cfg.seed = s;
      Sim sim(cfg);
      const PairLayout l = pairs_in_range(2);
      Node& honest_s = sim.add_node(l.senders[0]);
      Node& greedy_s = sim.add_node(l.senders[1]);
      Node& r1 = sim.add_node(l.receivers[0]);
      Node& r2 = sim.add_node(l.receivers[1]);
      auto f1 = sim.add_udp_flow(honest_s, r1);
      auto f2 = sim.add_udp_flow(greedy_s, r2);
      greedy_s.mac().set_backoff_cheat(cheat);
      BackoffMonitor monitor(sim.scheduler(), sim.params());
      monitor.attach(r1.mac());
      sim.run();
      return std::vector<double>{f1.goodput_mbps(), f2.goodput_mbps(),
                                 monitor.observed_backoff(greedy_s.id()),
                                 monitor.flagged(greedy_s.id()) ? 1.0 : 0.0};
    });
  }
  const auto points = campaign.run();

  std::printf(
      "Extension: greedy sender (backoff cheat) vs DOMINO-style detection\n");
  TableWriter table({"cheat", "honest_mbps", "greedy_mbps", "obs_backoff",
                     "flagged"},
                    12);
  table.print_header();
  print_points(table, points);
  const auto& at_01 = points.back().median;  // cheat = 0.1
  std::printf(
      "\nA receiver-side cheater never appears in this table: its sender\n"
      "backs off honestly, which is why the paper's GRC detectors exist.\n\n");
  print_headlines({{"greedy_mbps_cheat0.1", at_01[1]},
                   {"flagged_cheat0.1", at_01[3] > 0.5 ? 1.0 : 0.0}});
}
