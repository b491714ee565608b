// Fig 5: the Fig 4 sweeps on 802.11a. The paper's observation: for the
// same NAV inflation the damage is larger than on 802.11b because
// inter-frame spacings and transmission times are smaller, so the same
// absolute reservation buys relatively more stolen airtime.
#include <cstdio>

#include "bench/common.h"

using namespace g80211;
using namespace g80211::bench;

namespace {

double sweep(const char* title, const char* figure, NavFrameMask mask,
             std::uint64_t base_seed) {
  Campaign campaign(figure, {"normal_mbps", "greedy_mbps"});
  for (const Time inflation :
       {microseconds(0), microseconds(500), milliseconds(1), milliseconds(2),
        milliseconds(5), milliseconds(10), milliseconds(20), milliseconds(31)}) {
    PairsSpec spec;
    spec.tcp = true;
    spec.cfg = base_config(Standard::A80211);
    spec.customize = [mask, inflation](Sim& sim, std::vector<Node*>&,
                                       std::vector<Node*>& rx) {
      if (inflation > 0) sim.make_nav_inflator(*rx[1], mask, inflation);
    };
    char label[32];
    std::snprintf(label, sizeof(label), "%g", to_millis(inflation));
    campaign.add(label, to_millis(inflation), base_seed, default_runs(),
                 [spec](std::uint64_t seed) {
                   return run_pairs(spec, seed).goodput_mbps;
                 });
  }
  const auto points = campaign.run();

  std::printf("%s\n", title);
  TableWriter table({"nav_inc_ms", "normal_mbps", "greedy_mbps"});
  table.print_header();
  print_points(table, points);
  std::printf("\n");
  double gap_at_2ms = 0.0;
  for (const auto& pt : points) {
    if (pt.x == 2.0) gap_at_2ms = pt.median[1] - pt.median[0];
  }
  return gap_at_2ms;
}

}  // namespace

int main() {
  sweep("Fig 5(a): TCP, inflated CTS NAV (802.11a)", "fig5a_tcp_nav_cts",
        NavFrameMask::cts_only(), 500);
  sweep("Fig 5(b): TCP, inflated RTS+CTS NAV (802.11a)",
        "fig5b_tcp_nav_rtscts", NavFrameMask::rts_and_cts(), 510);
  sweep("Fig 5(c): TCP, inflated ACK NAV (802.11a)", "fig5c_tcp_nav_ack",
        NavFrameMask::ack_only(), 520);
  const double gap =
      sweep("Fig 5(d): TCP, inflated NAV on all frames (802.11a)",
            "fig5d_tcp_nav_all", NavFrameMask::all(), 530);
  print_headlines({{"gap_mbps_allframes_2ms", gap}});
}
