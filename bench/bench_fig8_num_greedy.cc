// Fig 8: two TCP flows under 0, 1, or 2 greedy receivers for CTS NAV
// inflations of 5, 10, 31 ms. With two cheaters, whoever grabs the medium
// first keeps re-reserving it; the split becomes winner-takes-most.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/common.h"

using namespace g80211;
using namespace g80211::bench;

namespace {

constexpr Time kInflations[] = {milliseconds(5), milliseconds(10),
                                milliseconds(31)};
constexpr int kNumGreedy[] = {0, 1, 2};

void run(benchmark::State& state) {
  Campaign campaign("fig8_num_greedy", {"flow1_mbps", "flow2_mbps"});
  for (const Time inflation : kInflations) {
    for (const int n_greedy : kNumGreedy) {
      PairsSpec spec;
      spec.tcp = true;
      spec.cfg = base_config();
      spec.customize = [inflation, n_greedy](Sim& sim, std::vector<Node*>&,
                                             std::vector<Node*>& rx) {
        if (n_greedy >= 1) {
          sim.make_nav_inflator(*rx[1], NavFrameMask::cts_only(), inflation);
        }
        if (n_greedy >= 2) {
          sim.make_nav_inflator(*rx[0], NavFrameMask::cts_only(), inflation);
        }
      };
      char label[32];
      std::snprintf(label, sizeof(label), "%gms_n%d", to_millis(inflation),
                    n_greedy);
      campaign.add(label, n_greedy, 800 + n_greedy, default_runs(),
                   [spec](std::uint64_t s) {
                     return run_pairs(spec, s).goodput_mbps;
                   });
    }
  }
  const auto points = campaign.run();

  std::printf("Fig 8: goodput under 0/1/2 greedy receivers (TCP, 802.11b)\n");
  TableWriter table({"nav_inc_ms", "n_greedy", "flow1_mbps", "flow2_mbps"});
  table.print_header();
  double victim_with_one_greedy_31 = 0.0;
  std::size_t i = 0;
  for (const Time inflation : kInflations) {
    for (const int n_greedy : kNumGreedy) {
      const auto& med = points[i++].median;
      table.print_row({to_millis(inflation), static_cast<double>(n_greedy),
                       med[0], med[1]});
      if (n_greedy == 1 && inflation == milliseconds(31)) {
        victim_with_one_greedy_31 = med[0];
      }
    }
  }
  std::printf("\n");
  state.counters["victim_mbps_1greedy_31ms"] = victim_with_one_greedy_31;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  register_once("Fig8/NumGreedyReceivers", run);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
