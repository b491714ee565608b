// Fig 3: the analytical model of Equations (1) and (2) versus the measured
// RTS sending ratio between GS-GR and NS-NR under CTS NAV inflation
// (saturated UDP, 802.11b). The model is evaluated by plugging in the
// empirical contention-window distributions collected from each sender's
// Backoff, exactly as the paper does.
#include <cmath>
#include <cstdio>

#include "bench/common.h"
#include "src/analysis/nav_model.h"

using namespace g80211;
using namespace g80211::bench;

int main() {
  Campaign campaign("fig3_nav_model", {"model_ratio", "measured"});
  const Time slot = WifiParams::b11().slot;
  SimConfig base = base_config();
  base.measure = 2 * default_measure();  // extra samples for the CW hist
  for (const int v : {0, 2, 4, 8, 12, 16, 20, 24, 28, 31}) {
    campaign.add(std::to_string(v), v, 300, default_runs(),
                 [base, v, slot](std::uint64_t s) {
      SimConfig cfg = base;
      cfg.seed = s;
      Sim sim(cfg);
      const PairLayout l = pairs_in_range(2);
      Node& ns = sim.add_node(l.senders[0]);
      Node& gs = sim.add_node(l.senders[1]);
      Node& nr = sim.add_node(l.receivers[0]);
      Node& gr = sim.add_node(l.receivers[1]);
      auto fn = sim.add_udp_flow(ns, nr);
      auto fg = sim.add_udp_flow(gs, gr);
      if (v > 0) sim.make_nav_inflator(gr, NavFrameMask::cts_only(), v * slot);
      sim.run();
      const auto probs = nav_inflation_send_prob(
          normalize_histogram(gs.mac().backoff().cw_histogram()),
          normalize_histogram(ns.mac().backoff().cw_histogram()), v);
      const double measured =
          static_cast<double>(gs.mac().stats().rts_sent) /
          static_cast<double>(gs.mac().stats().rts_sent +
                              ns.mac().stats().rts_sent);
      (void)fn;
      (void)fg;
      return std::vector<double>{probs.gs_ratio(), measured};
    });
  }
  const auto points = campaign.run();

  std::printf(
      "Fig 3: Eq(1)/(2) model vs measured RTS sending ratio (GS share)\n");
  TableWriter table({"nav_slots", "model_ratio", "measured", "abs_err"});
  table.print_header();
  double worst_err = 0.0;
  for (const auto& pt : points) {
    const auto& med = pt.median;
    const double err = std::abs(med[0] - med[1]);
    table.print_row({pt.x, med[0], med[1], err});
    worst_err = std::max(worst_err, err);
  }
  std::printf("\n");
  print_headlines({{"worst_abs_err", worst_err}});
}
