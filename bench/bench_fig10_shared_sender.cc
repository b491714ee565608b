// Fig 10: one sender (the AP) serving multiple receivers, one of which
// inflates its CTS NAV. Head-of-line blocking at the shared interface
// queue softens the attack:
//  (a) 2 TCP receivers — the greedy one still gains noticeably;
//  (b) 8 TCP receivers — the gain shrinks further;
//  (c) 2 UDP receivers — both flows lose; the cheater gains nothing.
#include <cstdio>

#include "bench/common.h"

using namespace g80211;
using namespace g80211::bench;

namespace {

void sweep(const char* title, const char* figure, int n_clients, bool tcp,
           std::uint64_t seed, double* greedy_at_10ms, double* normal_at_10ms) {
  Campaign campaign(figure, goodput_names(n_clients - 1));
  for (const Time inflation :
       {microseconds(0), milliseconds(1), milliseconds(2), milliseconds(5),
        milliseconds(10), milliseconds(20), milliseconds(31)}) {
    SharedApSpec spec;
    spec.n_clients = n_clients;
    spec.tcp = tcp;
    spec.udp_rate_mbps = 6.0;
    spec.cfg = base_config();
    spec.customize = [inflation](Sim& sim, Node&, std::vector<Node*>& clients) {
      if (inflation > 0) {
        sim.make_nav_inflator(*clients.back(), NavFrameMask::cts_only(),
                              inflation);
      }
    };
    char label[32];
    std::snprintf(label, sizeof(label), "%g", to_millis(inflation));
    campaign.add(label, to_millis(inflation), seed, default_runs(),
                 [spec](std::uint64_t s) {
                   return run_shared_ap(spec, s).goodput_mbps;
                 });
  }
  const auto points = campaign.run();

  std::printf("%s\n", title);
  TableWriter table({"nav_inc_ms", "avg_normal", "greedy_mbps"});
  table.print_header();
  for (const auto& pt : points) {
    const auto& med = pt.median;
    double normal_sum = 0.0;
    for (int i = 0; i + 1 < n_clients; ++i) normal_sum += med[i];
    const double avg_normal = normal_sum / (n_clients - 1);
    table.print_row({pt.x, avg_normal, med.back()});
    if (pt.x == 10.0) {
      if (greedy_at_10ms != nullptr) *greedy_at_10ms = med.back();
      if (normal_at_10ms != nullptr) *normal_at_10ms = avg_normal;
    }
  }
  std::printf("\n");
}

}  // namespace

int main() {
  double g_tcp2 = 0, n_tcp2 = 0, g_udp = 0, n_udp = 0;
  sweep("Fig 10(a): 1 sender -> 2 TCP receivers, greedy CTS NAV",
        "fig10a_shared_sender_tcp2", 2, true, 1000, &g_tcp2, &n_tcp2);
  sweep("Fig 10(b): 1 sender -> 8 TCP receivers, greedy CTS NAV",
        "fig10b_shared_sender_tcp8", 8, true, 1010, nullptr, nullptr);
  sweep("Fig 10(c): 1 sender -> 2 UDP receivers, greedy CTS NAV",
        "fig10c_shared_sender_udp2", 2, false, 1020, &g_udp, &n_udp);
  print_headlines({{"tcp2_greedy_minus_normal_10ms", g_tcp2 - n_tcp2},
                   {"udp_greedy_minus_normal_10ms", g_udp - n_udp}});
}
