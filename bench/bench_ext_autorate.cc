// Extension (the paper's future work, Section IX): greedy receivers under
// ARF rate adaptation.
//
//  * Fake ACKs backfire: ARF needs honest MAC feedback to find the
//    channel's rate cliff; a receiver that fake-ACKs corrupted frames
//    pins its own sender above the cliff and destroys its own goodput —
//    "the damage of faking ACKs may reduce under autorate".
//  * ACK spoofing gets worse: the victim's sender, fed spoofed ACKs,
//    never steps its rate down to what the victim can decode —
//    "the damage of spoofing ACKs can increase with auto-rate".
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/common.h"

using namespace g80211;
using namespace g80211::bench;

namespace {

void fake_ack_part(benchmark::State& state) {
  Campaign campaign("ext_autorate_fake_ack", {"goodput", "arf_ups"});
  for (const bool fake : {false, true}) {
    campaign.add(fake ? "fake" : "honest", fake ? 1.0 : 0.0, 3300,
                 default_runs(), [fake](std::uint64_t s) {
      SimConfig cfg;
      cfg.rts_cts = false;
      cfg.measure = default_measure();
      cfg.seed = s;
      Sim sim(cfg);
      const PairLayout l = pairs_in_range(1);
      Node& gs = sim.add_node(l.senders[0]);
      Node& gr = sim.add_node(l.receivers[0]);
      auto f = sim.add_udp_flow(gs, gr);
      gs.mac().enable_auto_rate(1.0);
      sim.channel().error_model().set_link_rate_limit(gs.id(), gr.id(), 5.5);
      if (fake) sim.make_fake_acker(gr, 1.0);
      sim.run();
      const auto* ctrl = gs.mac().rate_controller(gr.id());
      return std::vector<double>{f.goodput_mbps(),
                                 static_cast<double>(ctrl ? ctrl->ups() : 0)};
    });
  }
  const auto points = campaign.run();

  std::printf(
      "Extension A: fake ACKs vs ARF (single flow, channel cliff at 5.5 Mbps)\n");
  TableWriter table({"mode", "goodput", "arf_ups"}, 14);
  table.print_header();
  print_points(table, points);
  const double honest_goodput = points[0].median[0];
  const double faked_goodput = points[1].median[0];
  std::printf(
      "Faking ACKs under ARF costs the cheater %.0f%% of its own goodput.\n\n",
      100.0 * (1.0 - faked_goodput / honest_goodput));
  state.counters["fake_self_damage_pct"] =
      100.0 * (1.0 - faked_goodput / honest_goodput);
}

void spoof_part(benchmark::State& state) {
  Campaign campaign("ext_autorate_spoof", {"victim", "greedy"});
  for (const bool attack : {false, true}) {
    campaign.add(attack ? "spoof" : "honest", attack ? 1.0 : 0.0, 3310,
                 default_runs(), [attack](std::uint64_t s) {
      SimConfig cfg;
      cfg.rts_cts = false;
      cfg.capture_threshold = 10.0;
      cfg.measure = default_measure();
      cfg.seed = s;
      Sim sim(cfg);
      const PairLayout l = pairs_in_range(2);
      Node& ns = sim.add_node(l.senders[0]);
      Node& gs = sim.add_node(l.senders[1]);
      Node& nr = sim.add_node(l.receivers[0]);
      Node& gr = sim.add_node(l.receivers[1]);
      auto fn = sim.add_udp_flow(ns, nr, 6.0);
      auto fg = sim.add_udp_flow(gs, gr, 6.0);
      ns.mac().enable_auto_rate(1.0);
      sim.channel().error_model().set_link_rate_limit(ns.id(), nr.id(), 5.5);
      if (attack) sim.make_ack_spoofer(gr, 1.0, {nr.id()});
      sim.run();
      return std::vector<double>{fn.goodput_mbps(), fg.goodput_mbps()};
    });
  }
  const auto points = campaign.run();

  std::printf(
      "Extension B: ACK spoofing vs ARF (victim's link cliff at 5.5 Mbps)\n");
  TableWriter table({"mode", "victim", "greedy"}, 14);
  table.print_header();
  print_points(table, points);
  const double honest_victim = points[0].median[0];
  const double blinded_victim = points[1].median[0];
  std::printf(
      "Spoofing also blinds the victim's rate control: victim %.3f -> %.3f "
      "Mbps.\n\n",
      honest_victim, blinded_victim);
  state.counters["victim_honest"] = honest_victim;
  state.counters["victim_blinded"] = blinded_victim;
}

void run(benchmark::State& state) {
  fake_ack_part(state);
  spoof_part(state);
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  register_once("Extension/AutoRateMisbehavior", run);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
