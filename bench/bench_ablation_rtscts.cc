// Ablation: RTS/CTS on vs off across the three misbehaviors.
//
// The paper notes the attack surface differs by mode: CTS NAV inflation
// needs RTS/CTS; ACK NAV inflation works either way; ACK spoofing and
// fake ACKs are access-mode independent. This table verifies each claim
// and shows what basic access costs/buys the attacker.
#include <cstdio>

#include "bench/common.h"

using namespace g80211;
using namespace g80211::bench;

namespace {

PairsSpec nav_spec(bool rts_cts, NavFrameMask mask) {
  PairsSpec spec;
  spec.tcp = false;
  spec.cfg = base_config();
  spec.cfg.rts_cts = rts_cts;
  spec.customize = [mask](Sim& sim, std::vector<Node*>&,
                          std::vector<Node*>& rx) {
    sim.make_nav_inflator(*rx[1], mask, milliseconds(10));
  };
  return spec;
}

PairsSpec spoof_spec(bool rts_cts) {
  PairsSpec spec;
  spec.tcp = true;
  spec.cfg = base_config();
  spec.cfg.rts_cts = rts_cts;
  spec.cfg.default_ber = 2e-4;
  spec.cfg.capture_threshold = 10.0;
  spec.customize = [](Sim& sim, std::vector<Node*>&, std::vector<Node*>& rx) {
    sim.make_ack_spoofer(*rx[1], 1.0, {rx[0]->id()});
  };
  return spec;
}

struct Row {
  const char* attack;
  bool rts_cts;
  std::uint64_t seed;
  PairsSpec spec;
};

}  // namespace

int main() {
  const Row rows[] = {
      {"cts_nav", true, 4000, nav_spec(true, NavFrameMask::cts_only())},
      {"cts_nav", false, 4010, nav_spec(false, NavFrameMask::cts_only())},
      {"ack_nav", true, 4020, nav_spec(true, NavFrameMask::ack_only())},
      {"ack_nav", false, 4030, nav_spec(false, NavFrameMask::ack_only())},
      {"spoof", true, 4040, spoof_spec(true)},
      {"spoof", false, 4050, spoof_spec(false)},
  };
  Campaign campaign("ablation_rtscts", {"victim", "greedy"});
  for (const Row& row : rows) {
    campaign.add(std::string(row.attack) + (row.rts_cts ? "_rtscts" : "_basic"),
                 row.rts_cts ? 1.0 : 0.0, row.seed, default_runs(),
                 [spec = row.spec](std::uint64_t seed) {
                   return run_pairs(spec, seed).goodput_mbps;
                 });
  }
  const auto points = campaign.run();

  std::printf("Ablation: attack effectiveness with and without RTS/CTS\n");
  TableWriter table({"attack", "rtscts", "victim", "greedy"}, 12);
  table.print_header();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& med = points[i].median;
    table.print_row({points[i].x, med[0], med[1]}, rows[i].attack);
  }

  const double cts_off_victim = points[1].median[0];
  const double ack_off_victim = points[3].median[0];
  std::printf(
      "\nWithout RTS/CTS no CTS frames exist, so CTS inflation is inert\n"
      "(victim keeps %.2f Mbps) — but the same receiver just inflates its\n"
      "ACKs instead (victim %.2f). Spoofing is unaffected by the access\n"
      "mode.\n\n",
      cts_off_victim, ack_off_victim);
  print_headlines({{"victim_cts_inflation_no_rtscts", cts_off_victim},
                   {"victim_ack_inflation_no_rtscts", ack_off_victim}});
}
