// Extension: simulator validation against Bianchi's analytical model of
// DCF saturation throughput (IEEE JSAC 2000). Every attack result in this
// reproduction perturbs an honest saturated baseline; this table shows
// that baseline agrees with the canonical closed-form analysis across
// station counts and both access modes.
#include <benchmark/benchmark.h>

#include <cmath>
#include <cstdio>

#include "bench/common.h"
#include "src/analysis/bianchi.h"

using namespace g80211;
using namespace g80211::bench;

namespace {

double simulate_total(int n, bool rts_cts, std::uint64_t seed) {
  SimConfig cfg;
  cfg.rts_cts = rts_cts;
  cfg.measure = default_measure();
  cfg.seed = seed;
  Sim sim(cfg);
  const PairLayout l = pairs_in_range(n);
  std::vector<Node*> senders, receivers;
  for (int i = 0; i < n; ++i) senders.push_back(&sim.add_node(l.senders[i]));
  for (int i = 0; i < n; ++i) receivers.push_back(&sim.add_node(l.receivers[i]));
  std::vector<Sim::UdpFlow> flows;
  for (int i = 0; i < n; ++i) {
    flows.push_back(sim.add_udp_flow(*senders[i], *receivers[i]));
  }
  sim.run();
  double total = 0.0;
  for (const auto& f : flows) total += f.goodput_mbps();
  return total;
}

void run(benchmark::State& state) {
  constexpr bool kModes[] = {true, false};
  constexpr int kStations[] = {1, 2, 4, 8};
  Campaign campaign("ext_bianchi", {"sim"});
  for (const bool rts_cts : kModes) {
    for (const int n : kStations) {
      campaign.add(std::string(rts_cts ? "rts" : "basic") + "_n" +
                       std::to_string(n),
                   n, 3700 + n, default_runs(), [n, rts_cts](std::uint64_t s) {
                     return std::vector<double>{simulate_total(n, rts_cts, s)};
                   });
    }
  }
  const auto points = campaign.run();

  std::printf(
      "Extension: honest saturation throughput, simulator vs Bianchi model\n");
  TableWriter table({"n", "mode", "model", "sim", "err_pct"}, 10);
  table.print_header();
  double worst = 0.0;
  std::size_t i = 0;
  for (const bool rts_cts : kModes) {
    for (const int n : kStations) {
      BianchiConfig cfg;
      cfg.n_stations = n;
      cfg.rts_cts = rts_cts;
      const auto model = bianchi_saturation(WifiParams::b11(), cfg);
      const double sim = points[i++].median[0];
      const double err = 100.0 * std::abs(sim - model.throughput_mbps) /
                         model.throughput_mbps;
      worst = std::max(worst, err);
      table.print_text_row({std::to_string(n), rts_cts ? "rts" : "basic",
                            std::to_string(model.throughput_mbps).substr(0, 5),
                            std::to_string(sim).substr(0, 5),
                            std::to_string(err).substr(0, 4)});
    }
  }
  std::printf("worst disagreement: %.1f%%\n\n", worst);
  state.counters["worst_err_pct"] = worst;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  register_once("Extension/BianchiValidation", run);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
