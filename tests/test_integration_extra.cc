// Cross-cutting integration sweeps: scenario families the benches sweep
// in full, pinned here at single operating points so regressions surface
// in seconds (shared-AP head-of-line blocking, spoofing with many pairs,
// fake-ACK scaling, fairness-index ranking of the attacks).
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <vector>

#include "src/analysis/stats.h"
#include "src/detect/backoff_monitor.h"
#include "src/detect/grc.h"
#include "src/scenario/scenario.h"
#include "src/scenario/topology.h"

namespace g80211 {
namespace {

SimConfig base_cfg(std::uint64_t seed) {
  SimConfig cfg;
  cfg.measure = seconds(4);
  cfg.seed = seed;
  return cfg;
}

TEST(SharedApTcp, GreedyGainShrinksWithMoreClients) {
  // Fig 10(a) vs 10(b): head-of-line blocking dilutes the attack as the
  // AP serves more honest clients.
  auto relative_gain = [](int n_clients) {
    Sim sim(base_cfg(101));
    const auto l = shared_ap(n_clients);
    Node& ap = sim.add_node(l.ap);
    std::vector<Node*> clients;
    for (int i = 0; i < n_clients; ++i) clients.push_back(&sim.add_node(l.clients[i]));
    std::vector<Sim::TcpFlow> flows;
    for (int i = 0; i < n_clients; ++i) flows.push_back(sim.add_tcp_flow(ap, *clients[i]));
    sim.make_nav_inflator(*clients.back(), NavFrameMask::cts_only(), milliseconds(10));
    sim.run();
    double normal = 0.0;
    for (int i = 0; i + 1 < n_clients; ++i) normal += flows[i].goodput_mbps();
    normal /= (n_clients - 1);
    return flows.back().goodput_mbps() / std::max(normal, 1e-6);
  };
  const double gain2 = relative_gain(2);
  const double gain6 = relative_gain(6);
  EXPECT_GT(gain2, 1.5) << "two clients: clear gain";
  EXPECT_LT(gain6, gain2) << "six clients: diluted gain";
}

TEST(SpoofScaling, GreedyDominatesUnderBothApArrangements) {
  // Fig 14: the attacker wins decisively whether the victims share its AP
  // or have their own. (The paper additionally reports a *smaller* gap
  // under one shared AP; in our reproduction that contrast is muted —
  // at GP=100 the victims' TCP collapses so completely that head-of-line
  // coupling has little left to couple. See EXPERIMENTS.md.)
  const double ber = 2e-4;
  double shared_gap = 0.0, separate_gap = 0.0;
  {
    SimConfig cfg = base_cfg(102);
    cfg.default_ber = ber;
    cfg.capture_threshold = 10.0;
    Sim sim(cfg);
    const auto l = spoof_shared_ap(3);  // capture-safe: spoofing, not jamming
    Node& ap = sim.add_node(l.ap);
    Node& n1 = sim.add_node(l.clients[0]);
    Node& n2 = sim.add_node(l.clients[1]);
    Node& gr = sim.add_node(l.clients[2]);
    auto f1 = sim.add_tcp_flow(ap, n1);
    auto f2 = sim.add_tcp_flow(ap, n2);
    auto fg = sim.add_tcp_flow(ap, gr);
    sim.make_ack_spoofer(gr, 1.0, {n1.id(), n2.id()});
    sim.run();
    shared_gap = fg.goodput_mbps() - 0.5 * (f1.goodput_mbps() + f2.goodput_mbps());
  }
  {
    SimConfig cfg = base_cfg(103);
    cfg.default_ber = ber;
    cfg.capture_threshold = 10.0;
    Sim sim(cfg);
    const auto l = pairs_in_range(3);
    std::vector<Node*> senders, receivers;
    for (int i = 0; i < 3; ++i) senders.push_back(&sim.add_node(l.senders[i]));
    for (int i = 0; i < 3; ++i) receivers.push_back(&sim.add_node(l.receivers[i]));
    std::vector<Sim::TcpFlow> flows;
    for (int i = 0; i < 3; ++i) flows.push_back(sim.add_tcp_flow(*senders[i], *receivers[i]));
    sim.make_ack_spoofer(*receivers[2], 1.0,
                         {receivers[0]->id(), receivers[1]->id()});
    sim.run();
    separate_gap = flows[2].goodput_mbps() -
                   0.5 * (flows[0].goodput_mbps() + flows[1].goodput_mbps());
  }
  EXPECT_GT(shared_gap, 0.5) << "decisive win behind a shared AP";
  EXPECT_GT(separate_gap, 0.5) << "decisive win with separate APs";
  EXPECT_NEAR(separate_gap, shared_gap, 0.8 * std::max(separate_gap, shared_gap));
}

TEST(FakeAckScaling, RelativeGapSurvivesMorePairs) {
  // Fig 19: more competitors shrink everyone's share, but the greedy
  // receiver's RELATIVE advantage persists.
  auto gaps = [](int n_pairs) {
    SimConfig cfg = base_cfg(104);
    cfg.rts_cts = false;
    cfg.default_ber =
        ErrorModel::ber_for_fer(0.5, ErrorModel::error_len(FrameType::kData, 1064));
    Sim sim(cfg);
    const auto l = pairs_in_range(n_pairs);
    std::vector<Node*> senders, receivers;
    for (int i = 0; i < n_pairs; ++i) senders.push_back(&sim.add_node(l.senders[i]));
    for (int i = 0; i < n_pairs; ++i) receivers.push_back(&sim.add_node(l.receivers[i]));
    std::vector<Sim::UdpFlow> flows;
    for (int i = 0; i < n_pairs; ++i) {
      flows.push_back(sim.add_udp_flow(*senders[i], *receivers[i]));
    }
    sim.make_fake_acker(*receivers.back(), 1.0);
    sim.run();
    double normal = 0.0;
    for (int i = 0; i + 1 < n_pairs; ++i) normal += flows[i].goodput_mbps();
    normal /= (n_pairs - 1);
    const double greedy = flows.back().goodput_mbps();
    return std::pair{greedy - normal, greedy / std::max(normal, 1e-6)};
  };
  const auto [abs2, rel2] = gaps(2);
  const auto [abs6, rel6] = gaps(6);
  EXPECT_LT(abs6, abs2) << "absolute gap shrinks with competition";
  EXPECT_GT(rel6, 1.4) << "relative gap persists";
  (void)rel2;
}

TEST(FairnessRanking, AttacksOrderByJainIndex) {
  // The fairness index summarises attack severity: honest ~1, partial
  // cheating in between, full starvation ~0.5 (one of two flows holds
  // everything).
  auto fairness = [](Time inflation, double gp) {
    Sim sim(base_cfg(105));
    const auto l = pairs_in_range(2);
    Node& ns = sim.add_node(l.senders[0]);
    Node& gs = sim.add_node(l.senders[1]);
    Node& nr = sim.add_node(l.receivers[0]);
    Node& gr = sim.add_node(l.receivers[1]);
    auto fn = sim.add_udp_flow(ns, nr);
    auto fg = sim.add_udp_flow(gs, gr);
    if (inflation > 0) {
      sim.make_nav_inflator(gr, NavFrameMask::cts_only(), inflation, gp);
    }
    sim.run();
    return jain_fairness({fn.goodput_mbps(), fg.goodput_mbps()});
  };
  const double honest = fairness(0, 0);
  const double partial = fairness(microseconds(300), 1.0);
  const double full = fairness(milliseconds(10), 1.0);
  EXPECT_GT(honest, 0.97);
  EXPECT_LT(partial, honest);
  EXPECT_GT(partial, full);
  EXPECT_NEAR(full, 0.5, 0.02);
}

TEST(ProtocolMix, TcpFlowSurvivesNextToSaturatedUdp) {
  // A saturated UDP flow must not starve a competing TCP flow outright —
  // DCF still gives the TCP sender and its receiver's ACK path airtime.
  Sim sim(base_cfg(106));
  const auto l = pairs_in_range(2);
  Node& s1 = sim.add_node(l.senders[0]);
  Node& s2 = sim.add_node(l.senders[1]);
  Node& r1 = sim.add_node(l.receivers[0]);
  Node& r2 = sim.add_node(l.receivers[1]);
  auto udp = sim.add_udp_flow(s1, r1);
  auto tcp = sim.add_tcp_flow(s2, r2);
  sim.run();
  EXPECT_GT(tcp.goodput_mbps(), 0.4);
  EXPECT_GT(udp.goodput_mbps(), 1.0);
}

TEST(Standards, AttackShapesHoldOn80211a) {
  // Spot-check that a core misbehavior works identically on the OFDM PHY.
  SimConfig cfg = base_cfg(107);
  cfg.standard = Standard::A80211;
  Sim sim(cfg);
  const auto l = pairs_in_range(2);
  Node& ns = sim.add_node(l.senders[0]);
  Node& gs = sim.add_node(l.senders[1]);
  Node& nr = sim.add_node(l.receivers[0]);
  Node& gr = sim.add_node(l.receivers[1]);
  auto fn = sim.add_udp_flow(ns, nr);
  auto fg = sim.add_udp_flow(gs, gr);
  sim.make_nav_inflator(gr, NavFrameMask::cts_only(), microseconds(600));
  sim.run();
  EXPECT_LT(fn.goodput_mbps(), 0.2);
  EXPECT_GT(fg.goodput_mbps(), 3.5);
}

// FNV-1a over the exact bits of each value added.
class Digest {
 public:
  template <typename T>
  void add(T value) {
    std::uint64_t bits = 0;
    static_assert(sizeof(value) <= sizeof(bits));
    std::memcpy(&bits, &value, sizeof(value));
    for (std::size_t i = 0; i < sizeof(value); ++i) {
      h_ ^= (bits >> (8 * i)) & 0xffu;
      h_ *= 1099511628211ULL;  // FNV prime
    }
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 1469598103934665603ULL;  // FNV offset basis
};

// Sits in front of a flow's sink: hashes every packet delivered to it, and
// counts those that arrive while another frame is still in the air.
class DeliveryLog : public PacketSink {
 public:
  DeliveryLog(Sim& sim, Node& at, PacketSink& inner, Digest& digest)
      : sim_(&sim), at_(&at), inner_(&inner), digest_(&digest) {}
  void receive(const PacketPtr& p) override {
    digest_->add(at_->id());
    digest_->add(sim_->scheduler().now());
    digest_->add(p->flow_id);
    digest_->add(p->uid);
    digest_->add(p->seq);
    digest_->add(p->size_bytes);
    digest_->add(p->created);
    digest_->add(p->tcp.seq);
    digest_->add(p->tcp.ack);
    if (at_->phy().carrier_busy()) ++under_carrier_;
    ++delivered_;
    inner_->receive(p);
  }
  std::int64_t delivered() const { return delivered_; }
  std::int64_t under_carrier() const { return under_carrier_; }

 private:
  Sim* sim_;
  Node* at_;
  PacketSink* inner_;
  Digest* digest_;
  std::int64_t delivered_ = 0;
  std::int64_t under_carrier_ = 0;
};

// A MAC-level world in the paper's 55/99 m band, where most of a frame's
// receivers only sense it. Cell 1 (an AP with a UDP sink, a TCP sink and
// an idle station watched by a BackoffMonitor) and cell 2 (75-97 m away)
// hear each other's frames as interference only. The UDP sink never has
// a frame of its own, so it takes packets between the busy and idle edges
// of cell 2's frames; the TCP sink gains a frame inside its reception of
// each data segment; the watcher has no traffic, so only its monitor
// wants its edges. The digest covers every node's MacStats, every
// delivered packet and every monitor verdict. It was recorded on the
// engine that delivered every busy/idle edge to every MAC.
TEST(CarrierFanoutIdentity, MacWorldInInterferenceBand) {
  SimConfig cfg;
  cfg.comm_range_m = 55.0;
  cfg.cs_range_m = 99.0;
  cfg.capture_threshold = 10.0;
  cfg.warmup = milliseconds(200);
  cfg.measure = seconds(2);
  cfg.seed = 7;
  Sim sim(cfg);
  Node& ap = sim.add_node({0, 0});
  Node& udp_rx = sim.add_node({20, 0});
  Node& tcp_rx = sim.add_node({0, 20});
  Node& watcher = sim.add_node({10, 10});
  Node& ap2 = sim.add_node({95, 0});
  Node& sta2 = sim.add_node({115, 0});
  const Sim::UdpFlow udp = sim.add_udp_flow(ap, udp_rx, 2.0);
  const Sim::TcpFlow tcp = sim.add_tcp_flow(ap, tcp_rx);
  const Sim::UdpFlow far = sim.add_udp_flow(sta2, ap2, 6.0);
  BackoffMonitor monitor(sim.scheduler(), sim.params());
  monitor.attach(watcher.mac());

  Digest digest;
  DeliveryLog udp_log(sim, udp_rx, *udp.sink, digest);
  DeliveryLog tcp_data_log(sim, tcp_rx, *tcp.sink, digest);
  DeliveryLog tcp_ack_log(sim, ap, *tcp.sender, digest);
  DeliveryLog far_log(sim, ap2, *far.sink, digest);
  udp_rx.register_sink(udp.flow_id, &udp_log);
  tcp_rx.register_sink(tcp.flow_id, &tcp_data_log);
  ap.register_sink(tcp.flow_id, &tcp_ack_log);
  ap2.register_sink(far.flow_id, &far_log);
  sim.run();

  for (int id = 0; id < sim.num_nodes(); ++id) {
    const MacStats s = sim.node(id).mac().stats();
    for (const std::int64_t v :
         {s.rts_sent, s.data_sent, s.data_retries, s.data_success,
          s.data_dropped, s.cts_timeouts, s.ack_timeouts, s.queue_drops,
          s.acks_ignored, s.cts_sent, s.acks_sent, s.spoofed_acks_sent,
          s.fake_acks_sent, s.cts_suppressed_by_nav, s.rx_data_ok,
          s.rx_data_dup, s.rx_corrupted, s.nav_updates}) {
      digest.add(v);
    }
    digest.add(monitor.observed_backoff(id));
    digest.add(monitor.samples(id));
    digest.add(monitor.tx_share(id));
    digest.add(monitor.flagged(id));
  }

  EXPECT_GT(udp_log.under_carrier(), 0)
      << "the idle UDP sink must take packets while cell 2 is on the air";
  EXPECT_GT(tcp_data_log.delivered(), 0);
  EXPECT_GT(far_log.delivered(), 0);
  EXPECT_GT(monitor.samples(ap.id()), 20)
      << "the watcher's monitor must time the AP's accesses";
  if (digest.value() != 0x1d45c5f48c39f4f4ULL) {
    std::printf("hash: 0x%016llx\n",
                static_cast<unsigned long long>(digest.value()));
  }
  EXPECT_EQ(digest.value(), 0x1d45c5f48c39f4f4ULL);
}

// Who observes the world in ObservationIsFree: nobody, station X alone,
// or every MAC (X recording, the rest passive).
enum class Watch { kNone, kX, kAll };

struct ObservedRun {
  std::uint64_t digest = 0;  // MacStats, sinks, GRC, delivered packets
  std::vector<double> x_rssi;  // X's sniffed RSSI sequence
  bool x_measured = true;      // every RxInfo X's sniffer saw was measured
  std::int64_t x_delivered = 0;  // X's uplink packets at the AP
  std::int64_t fake_acks = 0;
  std::int64_t corrupted = 0;  // MacStats::rx_corrupted over all nodes
  std::uint64_t demodulated = 0;
  std::uint64_t drawn = 0;
  std::uint64_t skipped = 0;
};

// Cell 1: an AP with GRC, a UDP and a TCP receiver, a fake-ACKing UDP
// receiver and a station X with on/off uplink traffic (a web session).
// Cell 2, 95 m away, is in the 55/99 m interference band of cell 1 and
// runs its own UDP flow, its sender also on/off. The sessions make
// stations switch between idle, when they skip the tails of frames
// addressed elsewhere, and busy, when they run every tail, often while
// a NAV recorded by skipped tails still runs.
ObservedRun observed_world(double ber, Watch watch) {
  SimConfig cfg;
  cfg.comm_range_m = 55.0;
  cfg.cs_range_m = 99.0;
  cfg.capture_threshold = 10.0;
  cfg.default_ber = ber;
  cfg.warmup = milliseconds(200);
  cfg.measure = seconds(4);
  cfg.seed = 23;
  Sim sim(cfg);
  Node& ap = sim.add_node({0, 0});
  Node& udp_rx = sim.add_node({15, 0});
  Node& tcp_rx = sim.add_node({0, 15});
  Node& greedy = sim.add_node({-15, 0});
  Node& x = sim.add_node({10, 10});
  Node& ap2 = sim.add_node({95, 0});
  Node& sta2 = sim.add_node({110, 0});
  const Sim::UdpFlow udp = sim.add_udp_flow(ap, udp_rx, 1.0);
  const Sim::TcpFlow tcp = sim.add_tcp_flow(ap, tcp_rx);
  const Sim::UdpFlow greedy_udp = sim.add_udp_flow(ap, greedy, 1.0);
  const Sim::UdpFlow far = sim.add_udp_flow(sta2, ap2, 1.0);
  const Sim::UdpFlow x_up = sim.add_udp_flow(x, ap, 2.0);
  const FakeAckPolicy& fake = sim.make_fake_acker(greedy);
  Grc grc(sim.scheduler(), sim.params());
  grc.protect(ap.mac());

  // Exponential on/off periods, 150 ms on and 250 ms off on average.
  struct Session {
    Session(Scheduler& sched, CbrSource* src, Rng r)
        : source(src), rng(r), timer(sched, [this, &sched] {
            if (on) {
              source->stop(sched.now());
            } else {
              source->start(sched.now());
            }
            on = !on;
            const double mean_ms = on ? 150.0 : 250.0;
            timer.start(microseconds(
                1000 + static_cast<std::int64_t>(1e3 * rng.exponential(mean_ms))));
          }) {
      timer.start(milliseconds(100));
    }
    CbrSource* source;
    Rng rng;
    bool on = true;
    Timer timer;
  };
  Session x_session(sim.scheduler(), x_up.source, Rng(71));
  Session far_session(sim.scheduler(), far.source, Rng(72));

  ObservedRun out;
  if (watch != Watch::kNone) {
    for (int id = 0; id < sim.num_nodes(); ++id) {
      Mac& mac = sim.node(id).mac();
      const bool record = id == x.id();
      if (!record && watch == Watch::kX) continue;
      mac.sniffer = [&out, record, prev = std::move(mac.sniffer)](
                        const Frame& f, const RxInfo& i) {
        if (prev) prev(f, i);
        if (!record) return;
        out.x_rssi.push_back(i.rssi_dbm);
        out.x_measured = out.x_measured && i.measured;
      };
    }
  }

  Digest digest;
  DeliveryLog udp_log(sim, udp_rx, *udp.sink, digest);
  DeliveryLog tcp_data_log(sim, tcp_rx, *tcp.sink, digest);
  DeliveryLog tcp_ack_log(sim, ap, *tcp.sender, digest);
  DeliveryLog greedy_log(sim, greedy, *greedy_udp.sink, digest);
  DeliveryLog far_log(sim, ap2, *far.sink, digest);
  DeliveryLog x_log(sim, ap, *x_up.sink, digest);
  udp_rx.register_sink(udp.flow_id, &udp_log);
  tcp_rx.register_sink(tcp.flow_id, &tcp_data_log);
  ap.register_sink(tcp.flow_id, &tcp_ack_log);
  greedy.register_sink(greedy_udp.flow_id, &greedy_log);
  ap2.register_sink(far.flow_id, &far_log);
  ap.register_sink(x_up.flow_id, &x_log);
  sim.run();

  for (int id = 0; id < sim.num_nodes(); ++id) {
    const MacStats s = sim.node(id).mac().stats();
    for (const std::int64_t v :
         {s.rts_sent, s.data_sent, s.data_retries, s.data_success,
          s.data_dropped, s.cts_timeouts, s.ack_timeouts, s.queue_drops,
          s.acks_ignored, s.cts_sent, s.acks_sent, s.spoofed_acks_sent,
          s.fake_acks_sent, s.cts_suppressed_by_nav, s.rx_data_ok,
          s.rx_data_dup, s.rx_corrupted, s.nav_updates}) {
      digest.add(v);
    }
    out.corrupted += s.rx_corrupted;
  }
  for (const double mbps :
       {udp.goodput_mbps(), tcp.goodput_mbps(), greedy_udp.goodput_mbps(),
        far.goodput_mbps(), x_up.goodput_mbps()}) {
    digest.add(mbps);
  }
  digest.add(grc.nav_detections());
  digest.add(grc.spoof_detections());
  out.digest = digest.value();
  out.fake_acks = fake.fakes();
  out.demodulated = sim.channel().frames_demodulated();
  out.drawn = sim.channel().measurements_drawn();
  out.skipped = sim.channel().tails_skipped();
  out.x_delivered = x_log.delivered();
  return out;
}

// Observing a station must not change the world it observes. In a
// loss-free world a radio draws RSSI noise only while something on its
// MAC reads it, and an idle, unobserved station skips the tails of frames
// addressed elsewhere, so attaching sniffers changes which radios draw
// and which tails run; the run's outputs, and X's own samples, must not
// move. With bit errors every radio draws and every tail runs, observed
// or not.
TEST(ObservationIsFree, SniffersChangeNoOutputAndNoSample) {
  for (const double ber : {0.0, 1e-5}) {
    SCOPED_TRACE(ber);
    const ObservedRun none = observed_world(ber, Watch::kNone);
    const ObservedRun one = observed_world(ber, Watch::kX);
    const ObservedRun all = observed_world(ber, Watch::kAll);
    EXPECT_EQ(one.digest, none.digest);
    EXPECT_EQ(all.digest, none.digest);
    EXPECT_GT(one.x_rssi.size(), 500u);
    EXPECT_EQ(one.x_rssi, all.x_rssi)
        << "X's samples must not depend on who else observes";
    EXPECT_TRUE(one.x_measured);
    EXPECT_TRUE(all.x_measured);
    EXPECT_EQ(none.demodulated, all.demodulated);
    EXPECT_GT(none.x_delivered, 50) << "X's sessions must carry traffic";
    EXPECT_EQ(all.skipped, 0u) << "a sniffed station runs every tail";
    if (ber == 0.0) {
      EXPECT_GT(none.corrupted, 0)
          << "collisions must exercise the address-survival draw";
      EXPECT_LT(none.drawn, one.drawn);
      EXPECT_LT(one.drawn, all.drawn);
      EXPECT_EQ(all.drawn, all.demodulated);
      EXPECT_GT(one.skipped, 0u);
      EXPECT_LT(one.skipped, none.skipped)
          << "X skips some tails between its sessions";
    } else {
      EXPECT_GT(none.fake_acks, 0) << "bit errors must give fakes to send";
      for (const ObservedRun* r : {&none, &one, &all}) {
        EXPECT_EQ(r->drawn, r->demodulated);
        EXPECT_EQ(r->skipped, 0u);
      }
    }
  }
}

// Station S idles beside stations A, B and C, with or without a no-op
// sniffer; nothing else differs. What S overhears is put straight onto
// the air: an RTS from A that B answers with a CTS (no DATA follows, so
// only the NAV keeps S off the idle medium), or two frames from A and C
// that collide at S. Then S gets a packet and contends for the medium.
enum class Overheard { kRtsCts, kCollision };

struct IdleStationRun {
  Time guard = 0;     // the NAV expiry, or the end of the collision
  Time first_tx = -1;  // when S first keyed its radio
  std::vector<std::int64_t> stats;  // every node's MacStats
  std::uint64_t skipped = 0;
};

IdleStationRun idle_station(Overheard what, bool sniffed, bool eifs = true) {
  const WifiParams p = WifiParams::b11();
  Scheduler sched;
  Channel channel(sched, p);
  Node a(sched, channel, 0, {0, 0}, Rng(41));
  Node b(sched, channel, 1, {5, 0}, Rng(42));
  Node c(sched, channel, 2, {10, 0}, Rng(43));
  Node s(sched, channel, 3, {5, 5}, Rng(44));
  if (sniffed) s.mac().sniffer = [](const Frame&, const RxInfo&) {};
  s.mac().set_eifs_enabled(eifs);
  IdleStationRun out;
  s.mac().tx_sniffer = [&out](const Frame&, Time start, Time) {
    if (out.first_tx < 0) out.first_tx = start;
  };

  Frame rts;
  rts.type = FrameType::kRts;
  rts.ta = 0;
  rts.ra = 1;
  rts.duration = milliseconds(10);
  Frame data;
  data.type = FrameType::kData;
  data.ra = 9;  // nobody
  data.packet = make_packet();
  data.packet->size_bytes = 1064;
  data.duration = microseconds(400);
  const Time data_air = p.data_tx_time(1064);
  Time packet_at = 0;
  if (what == Overheard::kRtsCts) {
    sched.at(0, [&] { a.phy().transmit(rts, p.rts_tx_time()); });
    out.guard = p.rts_tx_time() + rts.duration;
    packet_at = p.rts_tx_time() + milliseconds(2);
  } else {
    // S and B sit midway between A and C: neither frame captures.
    sched.at(0, [&] {
      data.ta = 0;
      a.phy().transmit(data, data_air);
      data.ta = 2;
      c.phy().transmit(data, data_air);
    });
    out.guard = data_air;
    packet_at = data_air + microseconds(10);
  }
  sched.at(packet_at, [&] {
    auto pkt = make_packet();
    pkt->flow_id = 1;
    pkt->size_bytes = 1064;
    pkt->src_node = s.id();
    pkt->dst_node = a.id();
    s.send_packet(pkt);
  });
  sched.run_until(milliseconds(40));

  out.skipped = channel.tails_skipped();
  for (Node* n : {&a, &b, &c, &s}) {
    const MacStats m = n->mac().stats();
    for (const std::int64_t v :
         {m.rts_sent, m.data_sent, m.data_retries, m.data_success,
          m.data_dropped, m.cts_timeouts, m.ack_timeouts, m.queue_drops,
          m.acks_ignored, m.cts_sent, m.acks_sent, m.spoofed_acks_sent,
          m.fake_acks_sent, m.cts_suppressed_by_nav, m.rx_data_ok,
          m.rx_data_dup, m.rx_corrupted, m.nav_updates}) {
      out.stats.push_back(v);
    }
  }
  return out;
}

TEST(TailSkipping, NavFromSkippedTailsDefersLikeFullTails) {
  const WifiParams p = WifiParams::b11();
  const IdleStationRun plain = idle_station(Overheard::kRtsCts, false);
  const IdleStationRun sniffed = idle_station(Overheard::kRtsCts, true);
  ASSERT_GE(plain.first_tx, 0);
  EXPECT_EQ(plain.first_tx, sniffed.first_tx);
  EXPECT_GE(plain.first_tx, plain.guard + p.difs)
      << "the NAV that the RTS and CTS set must hold S";
  EXPECT_EQ(plain.stats, sniffed.stats);
  EXPECT_GT(plain.skipped, sniffed.skipped)
      << "only the unobserved S skips the RTS and CTS tails";
}

TEST(TailSkipping, EifsFromSkippedTailsDefersLikeFullTails) {
  const WifiParams p = WifiParams::b11();
  const IdleStationRun plain = idle_station(Overheard::kCollision, false);
  const IdleStationRun sniffed = idle_station(Overheard::kCollision, true);
  const IdleStationRun difs =
      idle_station(Overheard::kCollision, false, /*eifs=*/false);
  ASSERT_GE(plain.first_tx, 0);
  EXPECT_EQ(plain.first_tx, sniffed.first_tx);
  EXPECT_GE(plain.first_tx, plain.guard + p.eifs());
  EXPECT_EQ(plain.first_tx - difs.first_tx, p.eifs() - p.difs)
      << "the collision S skipped must arm its EIFS";
  EXPECT_EQ(plain.stats, sniffed.stats);
  EXPECT_GT(plain.skipped, sniffed.skipped);
}

TEST(TailSkipping, SnifferAttachedBetweenFramesSeesTheNext) {
  // A chained sniffer attached to an idle station mid-run sees the very
  // next frame, and the station skips again once it is removed.
  const WifiParams p = WifiParams::b11();
  Scheduler sched;
  Channel channel(sched, p);
  Node a(sched, channel, 0, {0, 0}, Rng(41));
  Node s(sched, channel, 1, {5, 0}, Rng(42));
  std::vector<Frame> frames(3);
  for (std::size_t i = 0; i < frames.size(); ++i) {
    Frame& f = frames[i];
    f.type = FrameType::kData;
    f.ta = 0;
    f.ra = 9;  // nobody
    f.uid = i + 1;
    f.packet = make_packet();
    f.packet->size_bytes = 1064;
    sched.at(milliseconds(2 * static_cast<std::int64_t>(f.uid)), [&a, &f, &p] {
      a.phy().transmit(f, p.data_tx_time(1064));
    });
  }
  std::vector<std::uint64_t> seen;
  sched.at(milliseconds(3), [&] {
    Mac& mac = s.mac();
    auto prev = std::move(mac.sniffer);
    mac.sniffer = [&seen, prev = std::move(prev)](const Frame& g,
                                                 const RxInfo& i) {
      if (prev) prev(g, i);
      seen.push_back(g.uid);
    };
  });
  sched.at(milliseconds(5), [&] { s.mac().sniffer = nullptr; });
  sched.run();
  EXPECT_EQ(seen, std::vector<std::uint64_t>{2});
  EXPECT_EQ(channel.frames_demodulated(), 3u);
  EXPECT_EQ(channel.tails_skipped(), 2u);
}

}  // namespace
}  // namespace g80211
