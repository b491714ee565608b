// Table II: average TCP congestion window for the normal and greedy flows
// under CTS NAV inflation, comparing the shared-sender (1 AP -> NR, GR)
// and two-sender (NS->NR, GS->GR) cases. The paper's reading: inflation
// skews the windows far more with separate senders, but the shared-sender
// skew is still significant.
#include <cstdio>

#include "bench/common.h"

using namespace g80211;
using namespace g80211::bench;

int main() {
  // Two points per inflation, on their own seeds: one sender serving both
  // receivers ("1s", the table's first two columns) and two independent
  // senders ("2s", the last two).
  Campaign campaign("table2_cwnd", {"normal_cwnd", "greedy_cwnd"});
  for (const Time inflation :
       {microseconds(0), milliseconds(1), milliseconds(2), milliseconds(5),
        milliseconds(10), milliseconds(20), milliseconds(31)}) {
    char ms[32];
    std::snprintf(ms, sizeof(ms), "%g", to_millis(inflation));

    SharedApSpec shared;
    shared.n_clients = 2;
    shared.tcp = true;
    shared.cfg = base_config();
    shared.customize = [inflation](Sim& sim, Node&, std::vector<Node*>& clients) {
      if (inflation > 0) {
        sim.make_nav_inflator(*clients[1], NavFrameMask::cts_only(), inflation);
      }
    };
    campaign.add(std::string("1s_") + ms, to_millis(inflation), 1100,
                 default_runs(), [shared](std::uint64_t s) {
                   return run_shared_ap(shared, s).avg_cwnd;
                 });

    PairsSpec pairs;
    pairs.tcp = true;
    pairs.cfg = base_config();
    pairs.customize = [inflation](Sim& sim, std::vector<Node*>&,
                                  std::vector<Node*>& rx) {
      if (inflation > 0) {
        sim.make_nav_inflator(*rx[1], NavFrameMask::cts_only(), inflation);
      }
    };
    campaign.add(std::string("2s_") + ms, to_millis(inflation), 1110,
                 default_runs(), [pairs](std::uint64_t s) {
                   return run_pairs(pairs, s).avg_cwnd;
                 });
  }
  const auto points = campaign.run();

  std::printf("Table II: average TCP congestion window (segments)\n");
  TableWriter table({"nav_inc_ms", "1s_S-NR", "1s_S-GR", "2s_NS-NR", "2s_GS-GR"});
  table.print_header();
  double two_sender_gap_at_10 = 0.0;
  for (std::size_t i = 0; i < points.size(); i += 2) {
    const auto& one = points[i].median;
    const auto& two = points[i + 1].median;
    table.print_row({points[i].x, one[0], one[1], two[0], two[1]});
    if (points[i].x == 10.0) two_sender_gap_at_10 = two[1] - two[0];
  }
  std::printf("\n");
  print_headlines({{"two_sender_cwnd_gap_10ms", two_sender_gap_at_10}});
}
