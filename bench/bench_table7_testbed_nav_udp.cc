// Table VII (testbed): UDP throughput when GR injects CTS/ACK frames with
// the maximum NAV (32767 us), for three configurations matching the
// paper's rows: ACK inflation without RTS/CTS, CTS inflation with RTS/CTS,
// and CTS+ACK inflation with RTS/CTS. 802.11a at 6 Mbps, as in the testbed.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/common.h"

using namespace g80211;
using namespace g80211::bench;

namespace {

struct Row {
  const char* label;
  const char* key;  // export label stem
  bool rts_cts;
  NavFrameMask mask;
};

void run(benchmark::State& state) {
  const Row rows[] = {
      {"no RTS/CTS, inflated NAV on ACK", "ack_basic", false,
       NavFrameMask::ack_only()},
      {"with RTS/CTS, inflated NAV on CTS", "cts_rtscts", true,
       NavFrameMask::cts_only()},
      {"with RTS/CTS, inflated NAV on CTS+ACK", "cts_ack_rtscts", true,
       {.cts = true, .ack = true}},
  };
  // Two points per row, each on its own seed: the honest pair and the
  // attacked one.
  Campaign campaign("table7_testbed_nav_udp", {"flow1", "flow2"});
  std::uint64_t seed = 2400;
  for (const Row& row : rows) {
    PairsSpec honest;
    honest.tcp = false;
    honest.cfg = base_config(Standard::A80211);
    honest.cfg.rts_cts = row.rts_cts;
    campaign.add(std::string(row.key) + "_no_gr", 0.0, seed++, default_runs(),
                 [honest](std::uint64_t s) {
                   return run_pairs(honest, s).goodput_mbps;
                 });

    PairsSpec attacked = honest;
    attacked.customize = [mask = row.mask](Sim& sim, std::vector<Node*>&,
                                           std::vector<Node*>& rx) {
      sim.make_nav_inflator(*rx[1], mask, WifiParams::kMaxNav);
    };
    campaign.add(std::string(row.key) + "_one_gr", 1.0, seed++, default_runs(),
                 [attacked](std::uint64_t s) {
                   return run_pairs(attacked, s).goodput_mbps;
                 });
  }
  const auto points = campaign.run();

  std::printf("Table VII (testbed emulation): UDP, max NAV inflation (802.11a)\n");
  std::printf("%42s %9s %9s %9s %9s\n", "", "noGR_R1", "noGR_R2", "GR", "NR");
  double greedy_cts = 0.0, normal_cts = 0.0;
  for (std::size_t i = 0; i < std::size(rows); ++i) {
    const Row& row = rows[i];
    const auto& base = points[2 * i].median;
    const auto& att = points[2 * i + 1].median;
    std::printf("%42s %9.3f %9.3f %9.3f %9.3f\n", row.label, base[0], base[1],
                att[1], att[0]);
    if (row.rts_cts && !row.mask.ack) {
      greedy_cts = att[1];
      normal_cts = att[0];
    }
  }
  std::printf("\n");
  state.counters["greedy_mbps_cts_row"] = greedy_cts;
  state.counters["normal_mbps_cts_row"] = normal_cts;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  register_once("Table7/TestbedNavUdp", run);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
