// Extension: the paper's Section IV claim, quantified — "only a small NAV
// increase is required for GR to starve other flows due to additional
// data traffic, whereas a large NAV inflation is required to launch the
// type of DOS considered in [2]" (Bellardo & Savage CTS jamming).
//
// A greedy receiver's sender refills every reserved gap with fresh data,
// so each tiny inflation chains into the next exchange. A traffic-less
// jammer must cover the whole timeline out of its injected Durations, so
// it needs NAV ~ period to have any effect — and gains nothing for it.
// GRC's NAV validation also blunts the jammer: each rogue CTS gets
// clamped to the 1500-byte-MTU exchange bound.
#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/common.h"
#include "src/detect/grc.h"
#include "src/greedy/cts_jammer.h"

using namespace g80211;
using namespace g80211::bench;

namespace {

// Both runners return {victim, attacker, airtime}: the competing honest
// goodput (Mbps), the attacker's own goodput (greedy receiver only) and
// the attacker's own transmission airtime fraction.
std::vector<double> run_greedy(Time inflation, std::uint64_t seed) {
  SimConfig cfg;
  cfg.measure = default_measure();
  cfg.seed = seed;
  Sim sim(cfg);
  const PairLayout l = pairs_in_range(2);
  Node& ns = sim.add_node(l.senders[0]);
  Node& gs = sim.add_node(l.senders[1]);
  Node& nr = sim.add_node(l.receivers[0]);
  Node& gr = sim.add_node(l.receivers[1]);
  auto fn = sim.add_udp_flow(ns, nr);
  auto fg = sim.add_udp_flow(gs, gr);
  sim.make_nav_inflator(gr, NavFrameMask::cts_only(), inflation);
  sim.run();
  return {fn.goodput_mbps(), fg.goodput_mbps(), 0.0};
}

std::vector<double> run_jammer(Time nav, bool grc_on, std::uint64_t seed) {
  SimConfig cfg;
  cfg.measure = default_measure();
  cfg.seed = seed;
  Sim sim(cfg);
  const PairLayout l = pairs_in_range(2);
  Node& s1 = sim.add_node(l.senders[0]);
  Node& s2 = sim.add_node(l.senders[1]);
  Node& r1 = sim.add_node(l.receivers[0]);
  Node& r2 = sim.add_node(l.receivers[1]);
  Node& attacker = sim.add_node({1, 4});
  auto f1 = sim.add_udp_flow(s1, r1);
  auto f2 = sim.add_udp_flow(s2, r2);
  CtsJammer::Config jc;
  jc.nav = nav;
  CtsJammer jammer(sim.scheduler(), attacker, jc);
  jammer.start(0);
  Grc grc(sim.scheduler(), sim.params(), {.spoof_detection = false});
  if (grc_on) {
    for (Node* n : {&s1, &s2, &r1, &r2}) grc.protect(n->mac());
  }
  sim.run();
  return {f1.goodput_mbps() + f2.goodput_mbps(), 0.0, jammer.airtime_fraction()};
}

void run(benchmark::State& state) {
  const struct {
    const char* attacker;
    double nav_ms;
    std::uint64_t seed;
    std::function<std::vector<double>(std::uint64_t)> body;
  } rows[] = {
      {"greedy_rcvr", 0.6, 3600,
       [](std::uint64_t s) { return run_greedy(microseconds(600), s); }},
      {"jammer", 0.6, 3610,
       [](std::uint64_t s) { return run_jammer(microseconds(600), false, s); }},
      {"jammer", 32.767, 3620,
       [](std::uint64_t s) { return run_jammer(WifiParams::kMaxNav, false, s); }},
      {"jammer+GRC", 32.767, 3630,
       [](std::uint64_t s) { return run_jammer(WifiParams::kMaxNav, true, s); }},
  };
  Campaign campaign("ext_dos_comparison",
                    {"victim", "att_gain", "airtime"});
  for (const auto& row : rows) {
    char label[48];
    std::snprintf(label, sizeof(label), "%s_%gms", row.attacker, row.nav_ms);
    campaign.add(label, row.nav_ms, row.seed, default_runs(), row.body);
  }
  const auto points = campaign.run();

  std::printf(
      "Extension: greedy receiver vs [2]-style CTS jammer (competing UDP)\n");
  TableWriter table({"attacker", "nav_ms", "victim", "att_gain", "airtime%"}, 12);
  table.print_header();
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto& m = points[i].median;
    table.print_row({points[i].x, m[0], m[1], 100.0 * m[2]}, rows[i].attacker);
  }
  const double greedy_victim = points[0].median[0];
  const double jam_small_victim = points[1].median[0];
  std::printf(
      "\nThe greedy receiver starves its competitor with 0.6 ms inflations\n"
      "(victim %.2f Mbps) while PROFITING; the jammer needs the 32.8 ms\n"
      "maximum to hurt anyone (0.6 ms: victims keep %.2f Mbps) and GRC\n"
      "claws most of it back.\n\n",
      greedy_victim, jam_small_victim);
  state.counters["greedy_victim_0.6ms"] = greedy_victim;
  state.counters["jammer_victim_0.6ms"] = jam_small_victim;
  state.counters["jammer_victim_max"] = points[2].median[0];
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  register_once("Extension/DosComparison", run);
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
