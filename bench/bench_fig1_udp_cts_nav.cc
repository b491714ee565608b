// Fig 1: goodput of two UDP flows NS->NR and GS->GR, where GR inflates the
// NAV in its CTS frames (802.11b). The paper's headline: +0.6 ms already
// lets the greedy receiver grab the whole medium.
//
// Runs as one campaign: all inflation points and their seeded repetitions
// execute concurrently (G80211_JOBS workers); the table and the exported
// metrics are aggregated in sweep order, so output is identical at any
// thread count.
#include <cstdio>

#include "bench/common.h"
#include "src/capture/capture_writer.h"

using namespace g80211;
using namespace g80211::bench;

int main() {
  Campaign campaign("fig1_udp_cts_nav", {"normal_mbps", "greedy_mbps"});
  for (const Time inflation :
       {microseconds(0), microseconds(200), microseconds(400), microseconds(600),
        milliseconds(1), milliseconds(2), milliseconds(5), milliseconds(10),
        milliseconds(31)}) {
    PairsSpec spec;
    spec.tcp = false;
    spec.cfg = base_config();
    spec.customize = [inflation](Sim& sim, std::vector<Node*>&,
                                 std::vector<Node*>& rx) {
      if (inflation > 0) {
        sim.make_nav_inflator(*rx[1], NavFrameMask::cts_only(), inflation);
      }
    };
    char label[32];
    std::snprintf(label, sizeof(label), "%g", to_millis(inflation));
    // Opt-in per-run frame captures next to the exported metrics
    // (G80211_CAPTURE=1 + G80211_METRICS_DIR; "" keeps captures off).
    spec.capture_stem = run_capture_stem("fig1_udp_cts_nav", label);
    campaign.add(label, to_millis(inflation), 100, default_runs(),
                 [spec = std::move(spec)](std::uint64_t seed) {
                   return run_pairs(spec, seed).goodput_mbps;
                 });
  }
  const auto points = campaign.run();

  std::printf("Fig 1: UDP goodput vs CTS NAV inflation (802.11b, RTS/CTS)\n");
  TableWriter table({"nav_inc_ms", "normal_mbps", "greedy_mbps"});
  table.print_header();
  print_points(table, points);
  std::printf("\n");
  print_headlines({{"greedy_mbps_at_31ms", points.back().median[1]},
                   {"normal_mbps_at_31ms", points.back().median[0]}});
}
