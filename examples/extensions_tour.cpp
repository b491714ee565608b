// Tour of the library's extensions beyond the paper's core evaluation:
// ARF auto-rate under attack (the paper's future work), fragmentation and
// fragmentation-aware NAV validation, the greedy-sender baseline with
// DOMINO-style detection, and frame-level tracing.
//
//   $ ./build/examples/extensions_tour
#include <cstdio>
#include <deque>

#include "src/analysis/stats.h"
#include "src/capture/capture_tap.h"
#include "src/detect/backoff_monitor.h"
#include "src/detect/nav_validator.h"
#include "src/scenario/scenario.h"
#include "src/scenario/topology.h"

using namespace g80211;

namespace {

void autorate_tour() {
  std::printf("1) ARF auto-rate vs fake ACKs (channel cliff at 5.5 Mbps)\n");
  for (const bool fake : {false, true}) {
    SimConfig cfg;
    cfg.measure = seconds(5);
    cfg.seed = 31;
    cfg.rts_cts = false;
    Sim sim(cfg);
    const PairLayout l = pairs_in_range(1);
    Node& gs = sim.add_node(l.senders[0]);
    Node& gr = sim.add_node(l.receivers[0]);
    auto f = sim.add_udp_flow(gs, gr);
    gs.mac().enable_auto_rate(1.0);
    sim.channel().error_model().set_link_rate_limit(gs.id(), gr.id(), 5.5);
    if (fake) sim.make_fake_acker(gr, 1.0);
    sim.run();
    std::printf("   %s: %.3f Mbps, final rate %.1f Mbps\n",
                fake ? "fake ACKs" : "honest   ", f.goodput_mbps(),
                gs.mac().data_rate_to(gr.id()));
  }
  std::printf("   Lying to ARF costs the liar most of its own goodput.\n\n");
}

void fragmentation_tour() {
  std::printf("2) Fragment burst, traced at a bystander:\n");
  SimConfig cfg;
  cfg.measure = seconds(1);
  cfg.rts_cts = false;
  Sim sim(cfg);
  const PairLayout l = pairs_in_range(1);
  Node& tx = sim.add_node(l.senders[0]);
  Node& rx = sim.add_node(l.receivers[0]);
  Node& bystander = sim.add_node({5, 5});
  tx.mac().set_fragmentation_threshold(400);
  // Keep the burst's last 8 frames, like a ring-buffered tcpdump.
  std::deque<CapturedFrame> tail;
  tap_frames(bystander.mac(), [&tail](const CapturedFrame& r) {
    tail.push_back(r);
    if (tail.size() > 8) tail.pop_front();
  });
  auto f = sim.add_udp_flow(tx, rx, 0.5);
  sim.run();
  int shown = 0;
  for (const auto& r : tail) {
    if (shown++ >= 6) break;
    std::printf("   %s\n", trace_line(r).c_str());
  }
  std::printf("   Nonzero ACK NAVs above are honest: they chain the burst.\n\n");
  (void)f;
  (void)rx;
}

void greedy_sender_tour() {
  std::printf("3) Greedy sender (backoff/4) vs DOMINO-style monitor\n");
  SimConfig cfg;
  cfg.measure = seconds(5);
  cfg.seed = 33;
  Sim sim(cfg);
  const PairLayout l = pairs_in_range(2);
  Node& honest_s = sim.add_node(l.senders[0]);
  Node& greedy_s = sim.add_node(l.senders[1]);
  Node& r1 = sim.add_node(l.receivers[0]);
  Node& r2 = sim.add_node(l.receivers[1]);
  auto f1 = sim.add_udp_flow(honest_s, r1);
  auto f2 = sim.add_udp_flow(greedy_s, r2);
  greedy_s.mac().set_backoff_cheat(0.25);
  BackoffMonitor monitor(sim.scheduler(), sim.params());
  monitor.attach(r1.mac());
  sim.run();
  std::printf("   honest %.3f | greedy %.3f Mbps (Jain fairness %.2f)\n",
              f1.goodput_mbps(), f2.goodput_mbps(),
              jain_fairness({f1.goodput_mbps(), f2.goodput_mbps()}));
  std::printf("   observed backoffs: honest %.1f slots, greedy %.1f slots -> %s\n\n",
              monitor.observed_backoff(honest_s.id()),
              monitor.observed_backoff(greedy_s.id()),
              monitor.flagged(greedy_s.id()) ? "FLAGGED" : "missed");
}

}  // namespace

int main() {
  std::printf("greedy80211 extensions tour\n\n");
  autorate_tour();
  fragmentation_tour();
  greedy_sender_tour();
  return 0;
}
