// Fig 6: 8 TCP flows, one of which has a greedy receiver with an
// increasing CTS NAV (802.11b). The greedy flow's gain comes at the
// expense of the 7 normal flows; ~10 ms of inflation dominates the medium.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/common.h"

using namespace g80211;
using namespace g80211::bench;

namespace {

void run(benchmark::State& state) {
  // Flow 4 (index 3) belongs to the greedy receiver.
  Campaign campaign("fig6_eight_flows",
                    {"normal1_mbps", "normal2_mbps", "normal3_mbps",
                     "greedy_mbps", "normal4_mbps", "normal5_mbps",
                     "normal6_mbps", "normal7_mbps"});
  for (const Time inflation :
       {microseconds(0), milliseconds(1), milliseconds(2), milliseconds(5),
        milliseconds(10), milliseconds(31)}) {
    PairsSpec spec;
    spec.n_pairs = 8;
    spec.tcp = true;
    spec.cfg = base_config();
    spec.customize = [inflation](Sim& sim, std::vector<Node*>&,
                                 std::vector<Node*>& rx) {
      if (inflation > 0) {
        sim.make_nav_inflator(*rx[3], NavFrameMask::cts_only(), inflation);
      }
    };
    char label[32];
    std::snprintf(label, sizeof(label), "%g", to_millis(inflation));
    campaign.add(label, to_millis(inflation), 600, default_runs(),
                 [spec](std::uint64_t s) {
                   return run_pairs(spec, s).goodput_mbps;
                 });
  }
  const auto points = campaign.run();

  std::printf("Fig 6: 8 TCP flows, one greedy receiver, CTS NAV sweep (802.11b)\n");
  TableWriter table({"nav_inc_ms", "greedy_mbps", "avg_normal", "sum_normal"});
  table.print_header();
  double greedy_at_10ms = 0.0;
  for (const auto& pt : points) {
    const auto& med = pt.median;
    double sum_normal = 0.0;
    for (int i = 0; i < 8; ++i) {
      if (i != 3) sum_normal += med[i];
    }
    table.print_row({pt.x, med[3], sum_normal / 7.0, sum_normal});
    if (pt.x == 10.0) greedy_at_10ms = med[3];
  }
  std::printf("\n");
  state.counters["greedy_mbps_at_10ms"] = greedy_at_10ms;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  register_once("Fig6/EightTcpFlows", run);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
