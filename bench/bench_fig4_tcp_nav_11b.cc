// Fig 4: goodput of two competing TCP flows under NAV inflation on (a) CTS,
// (b) RTS+CTS, (c) ACK, (d) all frames (802.11b). A TCP receiver transmits
// RTS/DATA frames for its TCP ACKs, so all four masks are available to it.
//
// Each sub-figure is one campaign; within it every inflation point and
// seed runs concurrently on the G80211_JOBS pool with sweep-ordered
// aggregation, so tables and exported metrics are thread-count invariant.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/common.h"

using namespace g80211;
using namespace g80211::bench;

namespace {

void sweep(const char* title, const char* figure, NavFrameMask mask,
           Standard standard, std::uint64_t base_seed, double* greedy_at_2ms) {
  Campaign campaign(figure, {"normal_mbps", "greedy_mbps"});
  for (const Time inflation :
       {microseconds(0), microseconds(500), milliseconds(1), milliseconds(2),
        milliseconds(5), milliseconds(10), milliseconds(20), milliseconds(31)}) {
    PairsSpec spec;
    spec.tcp = true;
    spec.cfg = base_config(standard);
    spec.customize = [mask, inflation](Sim& sim, std::vector<Node*>&,
                                       std::vector<Node*>& rx) {
      if (inflation > 0) sim.make_nav_inflator(*rx[1], mask, inflation);
    };
    char label[32];
    std::snprintf(label, sizeof(label), "%g", to_millis(inflation));
    campaign.add(label, to_millis(inflation), base_seed, default_runs(),
                 [spec = std::move(spec)](std::uint64_t seed) {
                   return run_pairs(spec, seed).goodput_mbps;
                 });
  }
  const auto points = campaign.run();

  std::printf("%s\n", title);
  TableWriter table({"nav_inc_ms", "normal_mbps", "greedy_mbps"});
  table.print_header();
  print_points(table, points);
  std::printf("\n");
  if (greedy_at_2ms != nullptr) {
    for (const auto& pt : points) {
      if (pt.x == 2.0) *greedy_at_2ms = pt.median[1];
    }
  }
}

void run(benchmark::State& state) {
  double greedy_all_2ms = 0.0;
  sweep("Fig 4(a): TCP, inflated CTS NAV (802.11b)", "fig4a_tcp_nav_cts",
        NavFrameMask::cts_only(), Standard::B80211, 400, nullptr);
  sweep("Fig 4(b): TCP, inflated RTS+CTS NAV (802.11b)", "fig4b_tcp_nav_rtscts",
        NavFrameMask::rts_and_cts(), Standard::B80211, 410, nullptr);
  sweep("Fig 4(c): TCP, inflated ACK NAV (802.11b)", "fig4c_tcp_nav_ack",
        NavFrameMask::ack_only(), Standard::B80211, 420, nullptr);
  sweep("Fig 4(d): TCP, inflated NAV on all frames (802.11b)",
        "fig4d_tcp_nav_all", NavFrameMask::all(), Standard::B80211, 430,
        &greedy_all_2ms);
  state.counters["greedy_mbps_allframes_2ms"] = greedy_all_2ms;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  register_once("Fig4/TcpNav80211b", run);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
