// Fig 23: GRC against inflated CTS NAV over distance. Two sender->receiver
// pairs, 55 m communication / 99 m interference range; pair 2's receiver
// inflates its CTS NAV by 31 ms. Three cases per distance: no greedy
// receiver, greedy without GRC, greedy with GRC on pair 1's stations.
// Expected shape: the attack only bites while R2's CTS reaches pair 1
// (below ~55 m); GRC restores pair 1 — exactly below ~50 m where S1/R1
// also hear S2's RTS and know the true exchange length, and approximately
// (via the 1500-byte MTU bound) beyond that; both flows jump once the
// senders stop interfering (~99 m).
#include <cstdio>

#include "bench/common.h"
#include "src/detect/grc.h"

using namespace g80211;
using namespace g80211::bench;

namespace {

struct Point {
  double flow1 = 0.0;
  double flow2 = 0.0;
};

Point run_case(double separation, bool greedy, bool grc_on, bool tcp,
               std::uint64_t seed) {
  const DistanceSweepLayout layout = distance_sweep(separation);
  SimConfig cfg;
  cfg.rts_cts = true;
  cfg.comm_range_m = layout.comm_range_m;
  cfg.cs_range_m = layout.cs_range_m;
  cfg.measure = default_measure();
  cfg.seed = seed;
  Sim sim(cfg);
  Node& s1 = sim.add_node(layout.s1);
  Node& r1 = sim.add_node(layout.r1);
  Node& s2 = sim.add_node(layout.s2);
  Node& r2 = sim.add_node(layout.r2);

  double g1 = 0, g2 = 0;
  Grc grc(sim.scheduler(), sim.params(), {.spoof_detection = false});
  if (greedy) sim.make_nav_inflator(r2, NavFrameMask::cts_only(), milliseconds(31));
  if (grc_on) {
    grc.protect(s1.mac());
    grc.protect(r1.mac());
  }
  if (tcp) {
    auto f1 = sim.add_tcp_flow(s1, r1);
    auto f2 = sim.add_tcp_flow(s2, r2);
    sim.run();
    g1 = f1.goodput_mbps();
    g2 = f2.goodput_mbps();
  } else {
    auto f1 = sim.add_udp_flow(s1, r1);
    auto f2 = sim.add_udp_flow(s2, r2);
    sim.run();
    g1 = f1.goodput_mbps();
    g2 = f2.goodput_mbps();
  }
  return {g1, g2};
}

void sweep(const char* title, const char* figure, bool tcp, std::uint64_t seed,
           double* recovered) {
  Campaign campaign(figure,
                    {"noGR_f1", "noGR_f2", "GR_f1", "GR_f2", "GRC_f1", "GRC_f2"});
  for (const double d : {15.0, 25.0, 35.0, 45.0, 55.0, 65.0, 85.0, 95.0, 105.0,
                         115.0}) {
    char label[32];
    std::snprintf(label, sizeof(label), "%g", d);
    campaign.add(label, d, seed, default_runs(), [d, tcp](std::uint64_t s) {
      const Point none = run_case(d, false, false, tcp, s);
      const Point att = run_case(d, true, false, tcp, s);
      const Point grc = run_case(d, true, true, tcp, s);
      return std::vector<double>{none.flow1, none.flow2, att.flow1,
                                 att.flow2,  grc.flow1,  grc.flow2};
    });
  }
  const auto points = campaign.run();

  std::printf("%s\n", title);
  TableWriter table({"dist_m", "noGR_f1", "noGR_f2", "GR_f1", "GR_f2",
                     "GRC_f1", "GRC_f2"},
                    9);
  table.print_header();
  print_points(table, points);
  std::printf("\n");
  if (recovered != nullptr) *recovered = points[1].median[4];  // d = 25 m
}

}  // namespace

int main() {
  double udp_recovered = 0.0;
  sweep("Fig 23(b): UDP goodput vs distance (no GR / GR / GR+GRC)",
        "fig23b_grc_nav_udp", false, 2900, &udp_recovered);
  sweep("Fig 23(c): TCP goodput vs distance (no GR / GR / GR+GRC)",
        "fig23c_grc_nav_tcp", true, 2950, nullptr);
  print_headlines({{"udp_victim_mbps_with_grc_25m", udp_recovered}});
}
