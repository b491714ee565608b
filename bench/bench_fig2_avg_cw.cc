// Fig 2: average contention window of GS and NS as GR inflates its ACK
// NAV (two saturated UDP flows, 802.11b). The paper's shape: GS stays near
// CWmin; NS's average CW climbs while it still competes (its few frames
// see an increasing collision fraction) and falls back to CWmin once it is
// fully starved and cannot send at all.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/common.h"

using namespace g80211;
using namespace g80211::bench;

namespace {

void run(benchmark::State& state) {
  Campaign campaign("fig2_avg_cw", {"ns_avg_cw", "gs_avg_cw"});
  const Time slot = WifiParams::b11().slot;
  for (const int v : {0, 5, 10, 15, 20, 24, 28, 32, 40, 100}) {
    PairsSpec spec;
    spec.tcp = false;
    spec.cfg = base_config();
    spec.customize = [v, slot](Sim& sim, std::vector<Node*>&,
                               std::vector<Node*>& rx) {
      if (v > 0) sim.make_nav_inflator(*rx[1], NavFrameMask::ack_only(), v * slot);
    };
    campaign.add(std::to_string(v), v, 200, default_runs(),
                 [spec](std::uint64_t s) {
                   return run_pairs(spec, s).sender_avg_cw;
                 });
  }
  const auto points = campaign.run();

  std::printf("Fig 2: average CW of GS and NS vs ACK NAV inflation (802.11b)\n");
  TableWriter table({"nav_slots", "ns_avg_cw", "gs_avg_cw"});
  table.print_header();
  print_points(table, points);
  double peak_ns_cw = 0.0;
  for (const auto& pt : points) peak_ns_cw = std::max(peak_ns_cw, pt.median[0]);
  std::printf("\n");
  state.counters["peak_ns_avg_cw"] = peak_ns_cw;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  register_once("Fig2/AvgContentionWindow", run);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
