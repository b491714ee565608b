// Fig 14: one ACK-spoofing receiver competing with a varying number of
// normal receivers, (a) all sharing one AP, (b) each with its own AP
// (TCP, 802.11b, BER=2e-4). Head-of-line blocking at the shared AP narrows
// the greedy/normal gap.
#include <benchmark/benchmark.h>

#include <cstdio>
#include <set>

#include "bench/common.h"

using namespace g80211;
using namespace g80211::bench;

namespace {

// Prints one sub-figure's table and returns the greedy-minus-average-normal
// gap at 4 normal receivers.
double print_table(const char* title, const std::vector<CampaignPoint>& points) {
  std::printf("%s\n", title);
  TableWriter table({"n_normal", "avg_normal", "greedy_mbps"});
  table.print_header();
  double gap_4 = 0.0;
  for (const auto& pt : points) {
    const auto& med = pt.median;
    const int n_normal = static_cast<int>(med.size()) - 1;
    double normal_sum = 0.0;
    for (int i = 0; i < n_normal; ++i) normal_sum += med[i];
    const double avg_normal = normal_sum / n_normal;
    table.print_row({pt.x, avg_normal, med.back()});
    if (n_normal == 4) gap_4 = med.back() - avg_normal;
  }
  std::printf("\n");
  return gap_4;
}

void run(benchmark::State& state) {
  // Each row has its own flow count, so each point names its own metrics.
  Campaign shared("fig14a_spoof_shared_ap", {});
  Campaign separate("fig14b_spoof_separate_aps", {});
  for (const int n_normal : {1, 2, 4, 7}) {
    SharedApSpec ap;
    ap.n_clients = n_normal + 1;
    ap.spoof_layout = true;
    ap.tcp = true;
    ap.cfg = base_config();
    ap.cfg.default_ber = 2e-4;
    ap.cfg.capture_threshold = 10.0;
    ap.customize = [](Sim& sim, Node&, std::vector<Node*>& clients) {
      std::set<int> victims;
      for (int i = 0; i + 1 < static_cast<int>(clients.size()); ++i) {
        victims.insert(clients[i]->id());
      }
      sim.make_ack_spoofer(*clients.back(), 1.0, victims);
    };
    shared.add(
        std::to_string(n_normal), n_normal, 1500 + n_normal, default_runs(),
        [ap](std::uint64_t s) { return run_shared_ap(ap, s).goodput_mbps; },
        goodput_names(n_normal));

    PairsSpec pairs;
    pairs.n_pairs = n_normal + 1;
    pairs.tcp = true;
    pairs.cfg = ap.cfg;
    pairs.customize = [](Sim& sim, std::vector<Node*>&, std::vector<Node*>& rx) {
      std::set<int> victims;
      for (int i = 0; i + 1 < static_cast<int>(rx.size()); ++i) {
        victims.insert(rx[i]->id());
      }
      sim.make_ack_spoofer(*rx.back(), 1.0, victims);
    };
    separate.add(
        std::to_string(n_normal), n_normal, 1550 + n_normal, default_runs(),
        [pairs](std::uint64_t s) { return run_pairs(pairs, s).goodput_mbps; },
        goodput_names(n_normal));
  }

  const double gap_shared_4 = print_table(
      "Fig 14(a): spoofing GR + n normal receivers, one shared AP",
      shared.run());
  const double gap_separate_4 = print_table(
      "Fig 14(b): spoofing GR + n normal receivers, separate APs",
      separate.run());
  state.counters["gap_shared_ap_4normal"] = gap_shared_4;
  state.counters["gap_separate_ap_4normal"] = gap_separate_4;
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  register_once("Fig14/SpoofVsNumPairs", run);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
