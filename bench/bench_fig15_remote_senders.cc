// Fig 15: both TCP senders sit behind a wired link of varying one-way
// latency (2-400 ms); wireless BER=2e-5; the greedy receiver spoofs the
// victim's MAC ACKs. The paper's shape: wireline latency makes end-to-end
// recovery costlier, widening the gap up to ~200 ms, beyond which the
// attacker's own ACK-clocked throughput also sags.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/common.h"

using namespace g80211;
using namespace g80211::bench;

namespace {

void run(benchmark::State& state) {
  // Both columns of a row share the row's seeds: each run plays the honest
  // pair and then the attacked pair.
  Campaign campaign("fig15_remote_senders",
                    {"noGR_R1", "noGR_R2", "wGR_NR", "wGR_GR"});
  for (const Time latency :
       {milliseconds(2), milliseconds(10), milliseconds(50), milliseconds(100),
        milliseconds(200), milliseconds(400)}) {
    RemoteSpec honest;
    honest.wired_latency = latency;
    honest.cfg = base_config();
    honest.cfg.default_ber = 2e-5;
    honest.cfg.capture_threshold = 10.0;
    // Longer pipes need longer runs to converge.
    honest.cfg.measure = std::max<Time>(default_measure(), 100 * latency);
    RemoteSpec attacked = honest;
    attacked.customize = [](Sim& sim, Node&, std::vector<Node*>& clients) {
      sim.make_ack_spoofer(*clients[1], 1.0, {clients[0]->id()});
    };
    char label[32];
    std::snprintf(label, sizeof(label), "%g", to_millis(latency));
    campaign.add(label, to_millis(latency), 1600, default_runs(),
                 [honest, attacked](std::uint64_t s) {
                   std::vector<double> row = run_remote(honest, s);
                   const auto att = run_remote(attacked, s);
                   row.insert(row.end(), att.begin(), att.end());
                   return row;
                 });
  }
  const auto points = campaign.run();

  std::printf("Fig 15: remote TCP senders, wired latency sweep (802.11b)\n");
  TableWriter table({"latency_ms", "noGR_R1", "noGR_R2", "wGR_NR", "wGR_GR"});
  table.print_header();
  print_points(table, points);
  std::printf("\n");
  double gap_200ms = 0.0;
  for (const auto& pt : points) {
    if (pt.x == to_millis(milliseconds(200))) {
      gap_200ms = pt.median[3] - pt.median[2];
    }
  }
  state.counters["greedy_gap_at_200ms"] = gap_200ms;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  register_once("Fig15/RemoteSenders", run);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
