// Table VI (testbed): TCP throughput when GR inflates the NAV in the RTS
// frames it sends for its TCP ACKs, to the 32767 us maximum. The paper ran
// this on MadWiFi at a fixed 6 Mbps 802.11a rate; we run the identical
// scenario on the simulator's 802.11a PHY. Expected shape: a fair split
// without the greedy receiver; near-total starvation of the normal
// receiver with it.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/common.h"

using namespace g80211;
using namespace g80211::bench;

namespace {

void run(benchmark::State& state) {
  PairsSpec honest;
  honest.tcp = true;
  honest.cfg = base_config(Standard::A80211);
  PairsSpec attacked = honest;
  attacked.customize = [](Sim& sim, std::vector<Node*>&, std::vector<Node*>& rx) {
    NavFrameMask mask;
    mask.rts = true;
    sim.make_nav_inflator(*rx[1], mask, WifiParams::kMaxNav);
  };
  Campaign campaign("table6_testbed_nav_tcp", {"flow1", "flow2"});
  campaign.add("no_gr", 0.0, 2300, default_runs(), [honest](std::uint64_t s) {
    return run_pairs(honest, s).goodput_mbps;
  });
  campaign.add("one_gr", 1.0, 2310, default_runs(), [attacked](std::uint64_t s) {
    return run_pairs(attacked, s).goodput_mbps;
  });
  const auto points = campaign.run();

  std::printf("Table VI (testbed emulation): GR inflates RTS NAV for TCP ACKs\n");
  std::printf("%28s %10s %10s\n", "", "flow1", "flow2");
  const auto& base = points[0].median;
  const auto& att = points[1].median;
  std::printf("%28s %10.3f %10.3f\n", "no GR (NR1 / NR2)", base[0], base[1]);
  std::printf("%28s %10.3f %10.3f\n", "1 GR (NR / GR)", att[0], att[1]);
  std::printf("\n");

  state.counters["normal_mbps_under_attack"] = att[0];
  state.counters["greedy_mbps_under_attack"] = att[1];
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  register_once("Table6/TestbedNavTcp", run);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
