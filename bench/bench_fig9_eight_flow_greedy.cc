// Fig 9: 8 TCP flows with a varying number of greedy receivers, each
// inflating its CTS NAV by 31 ms at GP=100%. The paper's observation: with
// more than one greedy receiver only one of them survives — 31 ms is large
// enough that whoever reserves first keeps the channel round after round.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>

#include "bench/common.h"

using namespace g80211;
using namespace g80211::bench;

namespace {

void run(benchmark::State& state) {
  Campaign campaign("fig9_eight_flow_greedy",
                    {"flow1_mbps", "flow2_mbps", "flow3_mbps", "flow4_mbps",
                     "flow5_mbps", "flow6_mbps", "flow7_mbps", "flow8_mbps"});
  for (const int n_greedy : {0, 1, 2, 4, 8}) {
    PairsSpec spec;
    spec.n_pairs = 8;
    spec.tcp = true;
    spec.cfg = base_config();
    // The first n_greedy flows belong to greedy receivers.
    spec.customize = [n_greedy](Sim& sim, std::vector<Node*>&,
                                std::vector<Node*>& rx) {
      for (int i = 0; i < n_greedy; ++i) {
        sim.make_nav_inflator(*rx[i], NavFrameMask::cts_only(), milliseconds(31));
      }
    };
    campaign.add(std::to_string(n_greedy), n_greedy, 900 + n_greedy,
                 default_runs(), [spec](std::uint64_t s) {
                   return run_pairs(spec, s).goodput_mbps;
                 });
  }
  const auto points = campaign.run();

  std::printf(
      "Fig 9: 8 TCP flows, varying number of 31 ms CTS-NAV inflators\n");
  TableWriter table({"n_greedy", "top_mbps", "2nd_mbps", "sum_rest"}, 12);
  table.print_header();
  double second_with_two_greedy = -1.0;
  for (const auto& pt : points) {
    auto med = pt.median;
    std::sort(med.begin(), med.end(), std::greater<>());
    double rest = 0.0;
    for (std::size_t i = 2; i < med.size(); ++i) rest += med[i];
    table.print_row({pt.x, med[0], med[1], rest});
    if (pt.x == 2.0) second_with_two_greedy = med[1];
  }
  std::printf("\n");
  state.counters["second_mbps_with_2_greedy"] = second_with_two_greedy;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  register_once("Fig9/EightFlowsManyGreedy", run);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
