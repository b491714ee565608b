// Extension: MAC-level fragmentation.
//
// Part 1 — the classic trade-off the feature exists for: smaller
// fragments slash the per-frame error probability, so past a BER around
// 1e-3 (where whole-MSDU frames start dying faster than the retry limit
// can save them) fragmentation wins — while on clean channels its
// per-fragment PLCP/ACK overhead only hurts.
//
// Part 2 — the detection angle: fragments are the one case where an
// honest ACK carries a nonzero NAV. The paper's strict "ACK NAV must be 0"
// rule misfires on every fragment burst; the fragmentation-aware validator
// accepts honest bursts while still catching a greedy receiver that hides
// NAV inflation inside them.
#include <cstdio>

#include "bench/common.h"
#include "src/detect/nav_validator.h"

using namespace g80211;
using namespace g80211::bench;

namespace {

void throughput_part(Headlines& headlines) {
  Campaign campaign("ext_fragmentation_goodput",
                    {"ber=0", "ber=6e-4", "ber=1.5e-3"});
  for (const int threshold : {0, 256, 532}) {
    campaign.add(std::to_string(threshold), threshold, 3500, default_runs(),
                 [threshold](std::uint64_t s) {
      std::vector<double> goodputs;
      for (const double ber : {0.0, 6e-4, 1.5e-3}) {
        SimConfig cfg;
        cfg.rts_cts = false;
        cfg.default_ber = ber;
        cfg.measure = default_measure();
        cfg.seed = s;
        Sim sim(cfg);
        const PairLayout l = pairs_in_range(1);
        Node& tx = sim.add_node(l.senders[0]);
        Node& rx = sim.add_node(l.receivers[0]);
        auto f = sim.add_udp_flow(tx, rx);
        if (threshold > 0) tx.mac().set_fragmentation_threshold(threshold);
        sim.run();
        goodputs.push_back(f.goodput_mbps());
      }
      return goodputs;
    });
  }
  const auto points = campaign.run();

  std::printf("Extension: fragmentation threshold vs goodput (single UDP flow)\n");
  TableWriter table({"frag_bytes", "ber=0", "ber=6e-4", "ber=1.5e-3"}, 12);
  table.print_header();
  for (const auto& pt : points) table.print_row(pt.median, pt.label);
  const double clean_full = points[0].median[0];
  const double lossy_full = points[0].median[2];
  const double lossy_frag = points[2].median[2];
  std::printf(
      "On a clean channel fragmentation only adds overhead; at BER 1.5e-3\n"
      "the 532-byte threshold beats whole-MSDU frames (%0.2f -> %0.2f Mbps).\n\n",
      lossy_full, lossy_frag);
  headlines.push_back({"clean_unfragmented", clean_full});
  headlines.push_back({"lossy_frag_gain", lossy_frag - lossy_full});
}

void detection_part(Headlines& headlines) {
  Campaign campaign("ext_fragmentation_detection", {"strict_det", "aware_det"});
  for (const bool greedy : {false, true}) {
    campaign.add(greedy ? "greedy" : "honest", greedy ? 1.0 : 0.0, 3510,
                 default_runs(), [greedy](std::uint64_t s) {
      SimConfig cfg;
      cfg.rts_cts = false;
      cfg.measure = default_measure();
      cfg.seed = s;
      Sim sim(cfg);
      const PairLayout l = pairs_in_range(2);
      Node& ns = sim.add_node(l.senders[0]);
      Node& gs = sim.add_node(l.senders[1]);
      Node& nr = sim.add_node(l.receivers[0]);
      Node& gr = sim.add_node(l.receivers[1]);
      auto f1 = sim.add_udp_flow(ns, nr);
      auto f2 = sim.add_udp_flow(gs, gr);
      ns.mac().set_fragmentation_threshold(532);
      gs.mac().set_fragmentation_threshold(532);
      if (greedy) {
        sim.make_nav_inflator(gr, NavFrameMask::ack_only(), milliseconds(5));
      }
      NavValidator strict(sim.scheduler(), sim.params());
      NavValidator aware(sim.scheduler(), sim.params());
      aware.assume_fragmentation = true;
      strict.attach(nr.mac());
      aware.attach(ns.mac());
      sim.run();
      (void)f1;
      (void)f2;
      return std::vector<double>{static_cast<double>(strict.detections()),
                                 static_cast<double>(aware.detections())};
    });
  }
  const auto points = campaign.run();

  std::printf(
      "Extension: NAV validation under fragmentation (honest vs inflating GR)\n");
  TableWriter table({"scenario", "strict_det", "aware_det"}, 13);
  table.print_header();
  for (const auto& pt : points) table.print_row(pt.median, pt.label);
  const double aware_honest = points[0].median[1];
  const double aware_greedy = points[1].median[1];
  std::printf(
      "The strict rule cries wolf on honest bursts; the aware rule is\n"
      "silent on honest traffic (%0.0f) yet still catches the inflator "
      "(%0.0f detections).\n\n",
      aware_honest, aware_greedy);
  headlines.push_back({"aware_false_positives", aware_honest});
  headlines.push_back({"aware_true_detections", aware_greedy});
}

}  // namespace

int main() {
  Headlines headlines;
  throughput_part(headlines);
  detection_part(headlines);
  print_headlines(headlines);
}
