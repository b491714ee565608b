// Fig 11: goodput of two TCP flows under a varying wireless loss rate,
// where the greedy receiver spoofs MAC ACKs on behalf of the normal
// receiver, for 802.11b and 802.11a. The paper's shape: the greedy gain
// first grows with BER (more victim losses to exploit), then shrinks as
// the attacker's own link degrades and it overhears fewer frames.
// The last column is analytic: PFTK steady-state TCP throughput at
// p = the raw data frame error rate — the loss rate the victim's TCP sees
// once spoofed ACKs disable MAC retransmission. It tracks the measured
// victim curve, which is the quantitative version of the paper's "losses
// are propagated to TCP" argument.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/common.h"
#include "src/analysis/tcp_model.h"
#include "src/phy/error_model.h"

using namespace g80211;
using namespace g80211::bench;

namespace {

double sweep(const char* title, const char* figure, Standard standard,
             std::uint64_t seed) {
  // Both columns of a row share the row's seeds: each run plays the honest
  // pair and then the attacked pair.
  Campaign campaign(figure, {"noGR_R1", "noGR_R2", "wGR_NR", "wGR_GR"});
  for (const double ber : {0.0, 1e-5, 1e-4, 2e-4, 3.2e-4, 4.4e-4, 8e-4}) {
    PairsSpec honest;
    honest.tcp = true;
    honest.cfg = base_config(standard);
    honest.cfg.default_ber = ber;
    honest.cfg.capture_threshold = 10.0;  // paper Section IV-B capture setup
    PairsSpec attacked = honest;
    attacked.customize = [](Sim& sim, std::vector<Node*>&,
                            std::vector<Node*>& rx) {
      sim.make_ack_spoofer(*rx[1], 1.0, {rx[0]->id()});
    };
    char label[32];
    std::snprintf(label, sizeof(label), "%g", ber);
    campaign.add(label, ber, seed, default_runs(),
                 [honest, attacked](std::uint64_t s) {
                   std::vector<double> row = run_pairs(honest, s).goodput_mbps;
                   const auto att = run_pairs(attacked, s).goodput_mbps;
                   row.insert(row.end(), att.begin(), att.end());
                   return row;
                 });
  }
  const auto points = campaign.run();

  std::printf("%s\n", title);
  TableWriter table(
      {"ber", "noGR_R1", "noGR_R2", "wGR_NR", "wGR_GR", "pftk_NR"});
  table.print_header();
  double greedy_gain_2e4 = 0.0;
  PftkConfig model;
  model.rtt = milliseconds(8);  // two contended MAC exchanges
  for (const auto& pt : points) {
    const auto& med = pt.median;
    const double p =
        ErrorModel::fer(pt.x, ErrorModel::error_len(FrameType::kData, 1064));
    // The victim is limited by whichever binds: TCP-over-loss (PFTK) or
    // its contended channel share (the measured honest baseline).
    const double predicted = std::min(pftk_throughput_mbps(model, p), med[0]);
    table.print_row({pt.x, med[0], med[1], med[2], med[3], predicted});
    if (pt.x == 2e-4) greedy_gain_2e4 = med[3] - med[2];
  }
  std::printf("\n");
  return greedy_gain_2e4;
}

void run(benchmark::State& state) {
  const double gain_b = sweep("Fig 11(a): ACK spoofing vs BER (802.11b, TCP)",
                              "fig11a_spoof_ber_11b", Standard::B80211, 1200);
  const double gain_a = sweep("Fig 11(b): ACK spoofing vs BER (802.11a, TCP)",
                              "fig11b_spoof_ber_11a", Standard::A80211, 1210);
  state.counters["greedy_gain_2e-4_11b"] = gain_b;
  state.counters["greedy_gain_2e-4_11a"] = gain_a;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  register_once("Fig11/SpoofVsBer", run);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
