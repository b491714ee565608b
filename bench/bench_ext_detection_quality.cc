// Extension: detector operating characteristics measured in-simulator
// (companion to Fig 22's synthetic RSSI study).
//
// Part 1 — live ROC of the spoofed-ACK detector: sweep the RSSI threshold
// in a running attack and report true/false positive rates from the
// detector's own confusion counters.
//
// Part 2 — detection latency: how long after the attack starts does each
// GRC detector first fire? (Operationally the number an operator cares
// about.)
#include <cstdio>

#include "bench/common.h"
#include "src/detect/fake_ack_detector.h"
#include "src/detect/grc.h"
#include "src/detect/spoof_detector.h"

using namespace g80211;
using namespace g80211::bench;

namespace {

void roc_part(Headlines& headlines) {
  Campaign campaign("ext_detection_roc", {"tp_rate", "fp_rate"});
  for (const double thresh : {0.25, 0.5, 1.0, 2.0, 3.0, 5.0}) {
    char label[32];
    std::snprintf(label, sizeof(label), "%g", thresh);
    campaign.add(label, thresh, 3900, default_runs(), [thresh](std::uint64_t s) {
      SimConfig cfg;
      cfg.measure = default_measure();
      cfg.seed = s;
      cfg.default_ber = 2e-4;
      cfg.capture_threshold = 10.0;
      Sim sim(cfg);
      const PairLayout l = pairs_in_range(2);
      Node& ns = sim.add_node(l.senders[0]);
      Node& gs = sim.add_node(l.senders[1]);
      Node& nr = sim.add_node(l.receivers[0]);
      Node& gr = sim.add_node(l.receivers[1]);
      auto fn = sim.add_tcp_flow(ns, nr);
      auto fg = sim.add_tcp_flow(gs, gr);
      sim.make_ack_spoofer(gr, 1.0, {nr.id()});
      SpoofDetector det(thresh);
      det.recovery_enabled = false;  // observe-only: measure classification
      det.attach(ns.mac());
      sim.run();
      (void)fn;
      (void)fg;
      const double spoofs =
          static_cast<double>(det.true_positives() + det.false_negatives());
      const double honest =
          static_cast<double>(det.false_positives() + det.true_negatives());
      return std::vector<double>{
          spoofs > 0 ? det.true_positives() / spoofs : 0.0,
          honest > 0 ? det.false_positives() / honest : 0.0};
    });
  }
  const auto points = campaign.run();

  std::printf(
      "Extension: live ROC of the RSSI spoof detector (TCP, BER=2e-4)\n");
  TableWriter table({"thresh_db", "tp_rate", "fp_rate"});
  table.print_header();
  print_points(table, points);
  double tp_1db = 0.0, fp_1db = 0.0;
  for (const auto& pt : points) {
    if (pt.x == 1.0) {
      tp_1db = pt.median[0];
      fp_1db = pt.median[1];
    }
  }
  std::printf("at the paper's 1 dB operating point: TP=%.2f FP=%.3f\n\n", tp_1db,
              fp_1db);
  headlines.push_back({"tp_rate_1db", tp_1db});
  headlines.push_back({"fp_rate_1db", fp_1db});
}

// NAV validator vs a 10 ms CTS inflator switching on at t=1s.
std::vector<double> nav_detection_ms(std::uint64_t s) {
  SimConfig cfg;
  cfg.warmup = seconds(0);
  cfg.measure = seconds(4);
  cfg.seed = s;
  Sim sim(cfg);
  const PairLayout l = pairs_in_range(2);
  Node& ns = sim.add_node(l.senders[0]);
  Node& gs = sim.add_node(l.senders[1]);
  Node& nr = sim.add_node(l.receivers[0]);
  Node& gr = sim.add_node(l.receivers[1]);
  auto f1 = sim.add_udp_flow(ns, nr);
  auto f2 = sim.add_udp_flow(gs, gr);
  sim.scheduler().at(seconds(1), [&] {
    sim.make_nav_inflator(gr, NavFrameMask::cts_only(), milliseconds(10));
  });
  NavValidator validator(sim.scheduler(), sim.params());
  validator.attach(ns.mac());
  double first_ms = -1.0;
  std::function<void()> poll = [&] {
    if (first_ms < 0 && validator.detections() > 0) {
      first_ms = to_millis(sim.scheduler().now() - seconds(1));
    }
    if (first_ms < 0) sim.scheduler().after(microseconds(500), poll);
  };
  sim.scheduler().at(seconds(1), poll);
  sim.run();
  (void)f1;
  (void)f2;
  return {first_ms};
}

// RSSI spoof detector vs a full-rate spoofer switching on at t=1s.
std::vector<double> spoof_detection_ms(std::uint64_t s) {
  SimConfig cfg;
  cfg.warmup = seconds(0);
  cfg.measure = seconds(6);
  cfg.seed = s;
  cfg.default_ber = 2e-4;
  cfg.capture_threshold = 10.0;
  Sim sim(cfg);
  const PairLayout l = pairs_in_range(2);
  Node& ns = sim.add_node(l.senders[0]);
  Node& gs = sim.add_node(l.senders[1]);
  Node& nr = sim.add_node(l.receivers[0]);
  Node& gr = sim.add_node(l.receivers[1]);
  auto f1 = sim.add_tcp_flow(ns, nr);
  auto f2 = sim.add_tcp_flow(gs, gr);
  sim.scheduler().at(seconds(1), [&] {
    sim.make_ack_spoofer(gr, 1.0, {nr.id()});
  });
  SpoofDetector det(1.0);
  det.attach(ns.mac());
  double first_ms = -1.0;
  std::function<void()> poll = [&] {
    if (first_ms < 0 && det.true_positives() > 0) {
      first_ms = to_millis(sim.scheduler().now() - seconds(1));
    }
    if (first_ms < 0) sim.scheduler().after(microseconds(500), poll);
  };
  sim.scheduler().at(seconds(1), poll);
  sim.run();
  (void)f1;
  (void)f2;
  return {first_ms};
}

void latency_part(Headlines& headlines) {
  Campaign campaign("ext_detection_latency", {"first_detection_ms"});
  campaign.add("nav", 0.0, 3910, default_runs(), nav_detection_ms);
  campaign.add("spoof", 1.0, 3920, default_runs(), spoof_detection_ms);
  const auto points = campaign.run();

  std::printf("Extension: time from attack onset to first detection\n");
  TableWriter table({"detector", "median_ms"}, 14);
  table.print_header();
  for (const auto& pt : points) table.print_row(pt.median, pt.label);

  std::printf(
      "\nThe NAV validator convicts on the first inflated frame; the RSSI\n"
      "detector needs the first spoof that actually reaches the sender.\n\n");
  headlines.push_back({"nav_detect_ms", points[0].median[0]});
  headlines.push_back({"spoof_detect_ms", points[1].median[0]});
}

}  // namespace

int main() {
  Headlines headlines;
  roc_part(headlines);
  latency_part(headlines);
  print_headlines(headlines);
}
