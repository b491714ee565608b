// DCF MAC behaviour: exchanges, retransmission, duplicate filtering, NAV
// deference, EIFS, emulation knobs, greedy hooks.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "src/greedy/ack_spoofing.h"
#include "src/greedy/fake_ack.h"
#include "src/greedy/nav_inflation.h"
#include "src/net/node.h"
#include "src/phy/channel.h"
#include "src/sim/scheduler.h"

namespace g80211 {
namespace {

struct CountingSink : PacketSink {
  std::vector<PacketPtr> packets;
  void receive(const PacketPtr& p) override { packets.push_back(p); }
};

class MacTest : public ::testing::Test {
 protected:
  MacTest() : channel_(sched_, WifiParams::b11()) {}

  Node& add_node(Position pos) {
    const int id = static_cast<int>(nodes_.size());
    nodes_.push_back(
        std::make_unique<Node>(sched_, channel_, id, pos, Rng(900 + id)));
    return *nodes_.back();
  }

  PacketPtr packet(int flow, int src, int dst, int bytes = 1064,
                   std::int64_t seq = 0) {
    auto p = make_packet();
    p->flow_id = flow;
    p->seq = seq;
    p->size_bytes = bytes;
    p->src_node = src;
    p->dst_node = dst;
    return p;
  }

  Scheduler sched_;
  Channel channel_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

TEST_F(MacTest, SingleDataDeliveryWithRtsCts) {
  Node& tx = add_node({0, 0});
  Node& rx = add_node({5, 0});
  CountingSink sink;
  rx.register_sink(1, &sink);
  tx.send_packet(packet(1, 0, 1));
  sched_.run_until(seconds(1));

  ASSERT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(tx.mac().stats().rts_sent, 1);
  EXPECT_EQ(rx.mac().stats().cts_sent, 1);
  EXPECT_EQ(tx.mac().stats().data_sent, 1);
  EXPECT_EQ(rx.mac().stats().acks_sent, 1);
  EXPECT_EQ(tx.mac().stats().data_success, 1);
  EXPECT_EQ(tx.mac().stats().ack_timeouts, 0);
}

TEST_F(MacTest, BasicAccessWithoutRtsCts) {
  Node& tx = add_node({0, 0});
  Node& rx = add_node({5, 0});
  tx.mac().set_rts_cts(false);
  rx.mac().set_rts_cts(false);
  CountingSink sink;
  rx.register_sink(1, &sink);
  tx.send_packet(packet(1, 0, 1));
  sched_.run_until(seconds(1));

  EXPECT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(tx.mac().stats().rts_sent, 0);
  EXPECT_EQ(rx.mac().stats().cts_sent, 0);
  EXPECT_EQ(rx.mac().stats().acks_sent, 1);
}

TEST_F(MacTest, ExchangeTimingIsSifsSpaced) {
  // RTS -> SIFS -> CTS -> SIFS -> DATA -> SIFS -> ACK, captured by a
  // promiscuous observer.
  Node& tx = add_node({0, 0});
  add_node({5, 0});
  Node& observer = add_node({5, 5});
  struct Obs {
    FrameType type;
    Time start;
  };
  std::vector<Obs> seen;
  observer.mac().sniffer = [&](const Frame& f, const RxInfo& i) {
    seen.push_back({f.type, i.start});
  };
  tx.send_packet(packet(1, 0, 1));
  sched_.run_until(seconds(1));

  ASSERT_EQ(seen.size(), 4u);
  const WifiParams p = WifiParams::b11();
  EXPECT_EQ(seen[0].type, FrameType::kRts);
  EXPECT_EQ(seen[1].type, FrameType::kCts);
  EXPECT_EQ(seen[2].type, FrameType::kData);
  EXPECT_EQ(seen[3].type, FrameType::kAck);
  EXPECT_EQ(seen[1].start - seen[0].start, p.rts_tx_time() + p.sifs);
  EXPECT_EQ(seen[2].start - seen[1].start, p.cts_tx_time() + p.sifs);
  EXPECT_EQ(seen[3].start - seen[2].start, p.data_tx_time(1064) + p.sifs);
}

TEST_F(MacTest, HonestDurationFieldsFollowStandard) {
  Node& tx = add_node({0, 0});
  add_node({5, 0});
  Node& observer = add_node({5, 5});
  std::vector<Frame> frames;
  observer.mac().sniffer = [&](const Frame& f, const RxInfo&) {
    frames.push_back(f);
  };
  tx.send_packet(packet(1, 0, 1));
  sched_.run_until(seconds(1));

  ASSERT_EQ(frames.size(), 4u);
  const WifiParams p = WifiParams::b11();
  EXPECT_EQ(frames[0].duration, Durations::rts(p, 1064));
  EXPECT_EQ(frames[1].duration, Durations::cts(p, 1064));
  EXPECT_EQ(frames[2].duration, Durations::data(p));
  EXPECT_EQ(frames[3].duration, 0);
}

TEST_F(MacTest, RetransmitsUntilRetryLimitThenDrops) {
  Node& tx = add_node({0, 0});
  Node& rx = add_node({5, 0});
  // DATA always corrupted on this link; control frames too, but the RTS
  // handshake is skipped for clarity.
  tx.mac().set_rts_cts(false);
  rx.mac().set_rts_cts(false);
  channel_.error_model().set_link_ber(0, 1, 1.0);
  CountingSink sink;
  rx.register_sink(1, &sink);

  bool done_acked = true;
  tx.mac().tx_done_cb = [&](const PacketPtr&, bool acked) { done_acked = acked; };
  tx.send_packet(packet(1, 0, 1));
  sched_.run_until(seconds(2));

  const auto& st = tx.mac().stats();
  const int attempts = WifiParams::b11().long_retry_limit + 1;
  EXPECT_EQ(st.data_sent, attempts);
  EXPECT_EQ(st.data_retries, attempts - 1);
  EXPECT_EQ(st.ack_timeouts, attempts);
  EXPECT_EQ(st.data_dropped, 1);
  EXPECT_EQ(st.data_success, 0);
  EXPECT_FALSE(done_acked);
  EXPECT_TRUE(sink.packets.empty());
  // CW was doubled along the way and reset after the drop.
  EXPECT_GT(tx.mac().backoff().average_cw(), WifiParams::b11().cw_min);
  EXPECT_EQ(tx.mac().backoff().cw(), WifiParams::b11().cw_min);
}

TEST_F(MacTest, LostAckCausesDuplicateThatIsFilteredAtReceiver) {
  Node& tx = add_node({0, 0});
  Node& rx = add_node({5, 0});
  tx.mac().set_rts_cts(false);
  rx.mac().set_rts_cts(false);
  // ACKs (rx -> tx) always corrupted: data arrives, MAC ACK never does.
  channel_.error_model().set_link_ber(1, 0, 1.0);
  CountingSink sink;
  rx.register_sink(1, &sink);
  tx.send_packet(packet(1, 0, 1));
  sched_.run_until(seconds(2));

  EXPECT_EQ(sink.packets.size(), 1u) << "duplicates must not reach the app";
  const auto& rst = rx.mac().stats();
  EXPECT_EQ(rst.rx_data_ok, 1);
  EXPECT_EQ(rst.rx_data_dup, WifiParams::b11().long_retry_limit);
  EXPECT_EQ(tx.mac().stats().data_dropped, 1);
}

TEST_F(MacTest, CtsTimeoutUsesShortRetryLimit) {
  Node& tx = add_node({0, 0});
  add_node({5, 0});
  channel_.error_model().set_link_ber(0, 1, 1.0);  // RTS never decodes
  tx.send_packet(packet(1, 0, 1));
  sched_.run_until(seconds(2));

  const auto& st = tx.mac().stats();
  const int attempts = WifiParams::b11().short_retry_limit + 1;
  EXPECT_EQ(st.rts_sent, attempts);
  EXPECT_EQ(st.cts_timeouts, attempts);
  EXPECT_EQ(st.data_sent, 0);
  EXPECT_EQ(st.data_dropped, 1);
}

TEST_F(MacTest, NavSuppressesCtsResponse) {
  // A third station's CTS with a long duration sets the victim's NAV; an
  // RTS arriving inside that window gets no CTS (paper Fig 10 mechanics).
  // The jammer must be out of the RTS sender's range, or the sender's own
  // NAV would stop it from transmitting at all.
  channel_.set_ranges(31.0, 31.0);
  Node& tx = add_node({0, 0});
  Node& victim = add_node({5, 0});
  Node& other = add_node({5, 31});  // hears victim (31 m), not tx (31.4 m)

  Frame cts;
  cts.type = FrameType::kCts;
  cts.ra = 3;  // neither the victim nor tx: both would apply it to NAV
  cts.duration = milliseconds(20);
  sched_.at(microseconds(10), [&] {
    other.phy().transmit(cts, WifiParams::b11().cts_tx_time());
  });
  sched_.at(microseconds(500), [&] { tx.send_packet(packet(1, 0, 1)); });
  sched_.run_until(milliseconds(10));

  EXPECT_GT(victim.mac().stats().cts_suppressed_by_nav, 0);
  EXPECT_EQ(victim.mac().stats().cts_sent, 0);
  EXPECT_GT(tx.mac().stats().cts_timeouts, 0);
}

TEST_F(MacTest, NavDefersTransmissionUntilExpiry) {
  Node& tx = add_node({0, 0});
  Node& rx = add_node({5, 0});
  Node& other = add_node({10, 0});

  const Time nav_dur = milliseconds(15);
  Frame cts;
  cts.type = FrameType::kCts;
  cts.ra = 3;
  cts.duration = nav_dur;
  sched_.at(0, [&] { other.phy().transmit(cts, WifiParams::b11().cts_tx_time()); });
  sched_.at(microseconds(400), [&] { tx.send_packet(packet(1, 0, 1)); });

  std::vector<Time> rts_times;
  rx.mac().sniffer = [&](const Frame& f, const RxInfo& i) {
    if (f.type == FrameType::kRts) rts_times.push_back(i.start);
  };
  sched_.run_until(milliseconds(30));

  ASSERT_FALSE(rts_times.empty());
  // The RTS may not start before the NAV set by the overheard CTS expires.
  const Time nav_expiry = WifiParams::b11().cts_tx_time() + nav_dur;
  EXPECT_GE(rts_times[0], nav_expiry);
}

TEST_F(MacTest, CorruptedFrameTriggersEifsDeference) {
  Node& tx = add_node({0, 0});
  Node& rx = add_node({5, 0});
  tx.mac().set_rts_cts(false);
  rx.mac().set_rts_cts(false);

  // A junk frame that corrupts at tx (and rx), then tx wants to send.
  Node& junk_src = add_node({10, 0});
  channel_.error_model().set_link_ber(2, 0, 1.0);
  channel_.error_model().set_link_ber(2, 1, 1.0);

  Frame junk;
  junk.type = FrameType::kData;
  junk.ta = 2;
  junk.ra = 3;
  junk.packet = make_packet();
  junk.packet->size_bytes = 1064;
  const Time junk_air = WifiParams::b11().data_tx_time(1064);
  sched_.at(0, [&] { junk_src.phy().transmit(junk, junk_air); });
  sched_.at(microseconds(1), [&] { tx.send_packet(packet(1, 0, 1)); });

  std::vector<Time> data_times;
  rx.mac().sniffer = [&](const Frame& f, const RxInfo& i) {
    if (f.type == FrameType::kData && f.ta == 0) data_times.push_back(i.start);
  };
  sched_.run_until(milliseconds(50));

  ASSERT_FALSE(data_times.empty());
  EXPECT_GT(tx.mac().stats().rx_corrupted, 0);
  // First transmission must defer at least EIFS past the junk frame's end.
  EXPECT_GE(data_times[0], junk_air + WifiParams::b11().eifs());
}

TEST_F(MacTest, DisableRetransmissionsEmulationMovesOnAfterTimeout) {
  Node& tx = add_node({0, 0});
  Node& rx = add_node({5, 0});
  tx.mac().set_rts_cts(false);
  rx.mac().set_rts_cts(false);
  channel_.error_model().set_link_ber(0, 1, 1.0);
  tx.mac().disable_retransmissions_to(1);

  tx.send_packet(packet(1, 0, 1, 1064, 0));
  tx.send_packet(packet(1, 0, 1, 1064, 1));
  sched_.run_until(seconds(1));

  const auto& st = tx.mac().stats();
  EXPECT_EQ(st.data_sent, 2);
  EXPECT_EQ(st.data_retries, 0) << "no retransmissions toward this dest";
  EXPECT_EQ(st.ack_timeouts, 2);
  // CW never grew: every draw happened at cw_min.
  EXPECT_DOUBLE_EQ(tx.mac().backoff().average_cw(), WifiParams::b11().cw_min);
}

TEST_F(MacTest, ClampCwEmulationFreezesWindow) {
  Node& tx = add_node({0, 0});
  Node& rx = add_node({5, 0});
  tx.mac().set_rts_cts(false);
  rx.mac().set_rts_cts(false);
  channel_.error_model().set_link_ber(0, 1, 1.0);
  tx.mac().clamp_cw_to(1);

  tx.send_packet(packet(1, 0, 1));
  sched_.run_until(seconds(1));

  EXPECT_GT(tx.mac().stats().ack_timeouts, 0);
  EXPECT_DOUBLE_EQ(tx.mac().backoff().average_cw(), WifiParams::b11().cw_min);
}

TEST_F(MacTest, QueueOverflowDropsAtTail) {
  Node& tx = add_node({0, 0});
  add_node({5, 0});
  for (int i = 0; i < 60; ++i) tx.send_packet(packet(1, 0, 1, 1064, i));
  // Queue limit is 50: one in service + 50 queued; the rest dropped.
  EXPECT_EQ(tx.mac().stats().queue_drops, 60 - 51);
}

TEST_F(MacTest, PerDestCountersTrackRetries) {
  Node& tx = add_node({0, 0});
  Node& rx1 = add_node({5, 0});
  Node& rx2 = add_node({0, 5});
  tx.mac().set_rts_cts(false);
  for (Node* n : {&rx1, &rx2}) n->mac().set_rts_cts(false);
  // Half of frames to rx1 corrupt; rx2 clean. 40 packets total fit the
  // 50-packet interface queue without tail drops.
  channel_.error_model().set_link_ber(
      0, 1, ErrorModel::ber_for_fer(0.5, ErrorModel::error_len(FrameType::kData, 1064)));
  for (int i = 0; i < 20; ++i) {
    tx.send_packet(packet(1, 0, 1, 1064, i));
    tx.send_packet(packet(2, 0, 2, 1064, i));
  }
  sched_.run_until(seconds(5));

  const auto& c1 = tx.mac().dest_counters(1);
  const auto& c2 = tx.mac().dest_counters(2);
  EXPECT_GT(c1.retry_fraction(), 0.25);
  EXPECT_DOUBLE_EQ(c2.retry_fraction(), 0.0);
  EXPECT_EQ(c2.successes, 20);
  EXPECT_EQ(tx.mac().dest_counters(99).attempts, 0);  // unknown dest: empty
}

TEST_F(MacTest, GreedyNavInflationAppearsOnAirAndClampsAtMax) {
  Node& tx = add_node({0, 0});
  Node& rx = add_node({5, 0});
  Node& observer = add_node({5, 5});
  NavInflationPolicy policy(NavFrameMask::cts_only(), seconds(10));  // silly big
  rx.mac().set_greedy_policy(&policy);

  std::vector<Frame> ctss;
  observer.mac().sniffer = [&](const Frame& f, const RxInfo&) {
    if (f.type == FrameType::kCts) ctss.push_back(f);
  };
  tx.send_packet(packet(1, 0, 1));
  sched_.run_until(seconds(1));

  ASSERT_EQ(ctss.size(), 1u);
  EXPECT_EQ(ctss[0].duration, WifiParams::kMaxNav) << "clamped to 32767 us";
  EXPECT_EQ(policy.inflations_applied(), 1);
}

TEST_F(MacTest, SpoofedAckSuppressesRetransmission) {
  // NS -> NR is fully corrupted, but GR (promiscuous, clean link from NS)
  // spoofs NR's ACK: NS believes delivery succeeded, no retries happen.
  Node& ns = add_node({0, 0});
  Node& nr = add_node({2, 0});
  Node& gr = add_node({9, 0});
  for (Node* n : {&ns, &nr, &gr}) n->mac().set_rts_cts(false);
  channel_.error_model().set_link_ber(0, 1, 1.0);
  AckSpoofingPolicy policy(1.0, {nr.id()});
  gr.mac().set_greedy_policy(&policy);

  ns.send_packet(packet(1, 0, 1));
  sched_.run_until(seconds(1));

  const auto& st = ns.mac().stats();
  EXPECT_EQ(st.data_sent, 1);
  EXPECT_EQ(st.data_success, 1) << "the spoofed ACK was accepted";
  EXPECT_EQ(st.ack_timeouts, 0);
  EXPECT_EQ(gr.mac().stats().spoofed_acks_sent, 1);
  EXPECT_EQ(nr.mac().stats().rx_data_ok, 0) << "yet NR never got the data";
}

TEST_F(MacTest, VictimAckCapturesOverSpoofedAck) {
  // When NR *does* receive the data, its ACK (2 m) captures GR's spoof
  // (9 m) at NS — delivery proceeds normally, no jamming.
  Node& ns = add_node({0, 0});
  Node& nr = add_node({2, 0});
  Node& gr = add_node({9, 0});
  for (Node* n : {&ns, &nr, &gr}) n->mac().set_rts_cts(false);
  AckSpoofingPolicy policy(1.0, {nr.id()});
  gr.mac().set_greedy_policy(&policy);
  CountingSink sink;
  nr.register_sink(1, &sink);

  ns.send_packet(packet(1, 0, 1));
  sched_.run_until(seconds(1));

  EXPECT_EQ(sink.packets.size(), 1u);
  EXPECT_EQ(ns.mac().stats().data_success, 1);
  EXPECT_EQ(gr.mac().stats().spoofed_acks_sent, 1);
  EXPECT_EQ(ns.mac().stats().ack_timeouts, 0);
}

TEST_F(MacTest, FakeAckPreventsBackoffGrowth) {
  Node& gs = add_node({0, 0});
  Node& gr = add_node({5, 0});
  for (Node* n : {&gs, &gr}) n->mac().set_rts_cts(false);
  // ~90% corrupted frames; addresses usually survive.
  channel_.error_model().set_link_ber(
      0, 1, ErrorModel::ber_for_fer(0.9, ErrorModel::error_len(FrameType::kData, 1064)));
  FakeAckPolicy policy(1.0);
  gr.mac().set_greedy_policy(&policy);

  for (int i = 0; i < 50; ++i) gs.send_packet(packet(1, 0, 1, 1064, i));
  sched_.run_until(seconds(5));

  EXPECT_GT(gr.mac().stats().fake_acks_sent, 20);
  // Fake ACKs were accepted as successes despite corruption.
  EXPECT_GT(gs.mac().stats().data_success, 40);
  // The contention window never left cw_min for those "successes".
  EXPECT_LT(gs.mac().backoff().average_cw(), WifiParams::b11().cw_min * 1.5);
}

TEST_F(MacTest, AckFilterForcesRetransmission) {
  // GRC recovery path: a sender whose ack_filter rejects everything keeps
  // retransmitting and finally drops.
  Node& tx = add_node({0, 0});
  Node& rx = add_node({5, 0});
  tx.mac().set_rts_cts(false);
  rx.mac().set_rts_cts(false);
  tx.mac().ack_filter = [](const Frame&, const RxInfo&, int) { return true; };

  tx.send_packet(packet(1, 0, 1));
  sched_.run_until(seconds(2));

  const auto& st = tx.mac().stats();
  EXPECT_EQ(st.acks_ignored, WifiParams::b11().long_retry_limit + 1);
  EXPECT_EQ(st.data_dropped, 1);
  EXPECT_EQ(st.data_success, 0);
}

TEST_F(MacTest, NavFilterRewritesNavUpdate) {
  // A nav_filter that zeroes every duration means overheard frames never
  // block this station.
  Node& tx = add_node({0, 0});
  add_node({5, 0});
  Node& bystander = add_node({10, 0});
  bystander.mac().nav_filter = [](const Frame&, const RxInfo&) -> Time { return 0; };

  tx.send_packet(packet(1, 0, 1));
  sched_.run_until(seconds(1));

  EXPECT_EQ(bystander.mac().stats().nav_updates, 0);
  EXPECT_FALSE(bystander.mac().nav().busy(sched_.now()));
}

TEST_F(MacTest, ReadsMeasurementsOnlyThroughAReader) {
  // Each hook and a greedy policy make the station a measurement reader;
  // Node, the upper layer, ignores the RxInfo, and an upper layer that
  // does not say so counts as a reader.
  Node& n = add_node({0, 0});
  Mac& mac = n.mac();
  EXPECT_FALSE(mac.reads_measurements());
  FakeAckPolicy policy(1.0);
  mac.set_greedy_policy(&policy);
  EXPECT_TRUE(mac.reads_measurements());
  mac.set_greedy_policy(nullptr);
  mac.sniffer = [](const Frame&, const RxInfo&) {};
  EXPECT_TRUE(mac.reads_measurements());
  mac.sniffer = nullptr;
  mac.nav_filter = [](const Frame& f, const RxInfo&) { return f.duration; };
  EXPECT_TRUE(mac.reads_measurements());
  mac.nav_filter = nullptr;
  mac.ack_filter = [](const Frame&, const RxInfo&, int) { return false; };
  EXPECT_TRUE(mac.reads_measurements());
  mac.ack_filter = nullptr;
  EXPECT_FALSE(mac.reads_measurements());
  struct Upper : MacUpper {
    void on_packet(const PacketPtr&, const RxInfo&) override {}
  } upper;
  mac.set_upper(&upper);
  EXPECT_TRUE(mac.reads_measurements());
  mac.set_upper(&n);
  EXPECT_FALSE(mac.reads_measurements());
}

TEST_F(MacTest, TailSkipBitTracksIdleUnobservedStations) {
  // RxState::skip_tail is set exactly while the MAC has no frame in
  // service, nothing reads measurements and the NAV-reset rule is off,
  // and always equals the MAC's live answer.
  Node& n = add_node({0, 0});
  add_node({5, 0});
  Mac& mac = n.mac();
  auto skips = [&] {
    EXPECT_EQ(n.phy().rx_state().skip_tail, mac.skips_overheard_tails());
    return n.phy().rx_state().skip_tail;
  };
  EXPECT_TRUE(skips()) << "an idle, unobserved MAC skips";

  // A frame in service, until it is delivered.
  n.send_packet(packet(1, 0, 1));
  EXPECT_FALSE(skips());
  sched_.run_until(seconds(1));
  ASSERT_EQ(mac.stats().data_success, 1);
  EXPECT_TRUE(skips());

  // Each hook, assigned and cleared.
  mac.sniffer = [](const Frame&, const RxInfo&) {};
  EXPECT_FALSE(skips());
  mac.sniffer = nullptr;
  EXPECT_TRUE(skips());
  mac.nav_filter = [](const Frame& f, const RxInfo&) { return f.duration; };
  EXPECT_FALSE(skips());
  mac.nav_filter = nullptr;
  EXPECT_TRUE(skips());
  mac.ack_filter = [](const Frame&, const RxInfo&, int) { return false; };
  EXPECT_FALSE(skips());
  mac.ack_filter = nullptr;
  EXPECT_TRUE(skips());

  // Moved from, as chaining attachers do; the moved-to hook is detached,
  // so neither a copy of it nor assigning to one reaches the MAC.
  mac.sniffer = [](const Frame&, const RxInfo&) {};
  auto prev = std::move(mac.sniffer);
  EXPECT_FALSE(static_cast<bool>(mac.sniffer));
  EXPECT_TRUE(static_cast<bool>(prev));
  EXPECT_TRUE(skips());
  auto copy = prev;
  copy = nullptr;
  EXPECT_TRUE(static_cast<bool>(prev));
  EXPECT_TRUE(skips());
  mac.sniffer = prev;  // copy-assigned into the MAC's hook
  EXPECT_FALSE(skips());
  mac.sniffer = std::move(copy);  // move-assigned (empty)
  EXPECT_TRUE(skips());
  mac.sniffer = [chained = std::move(prev)](const Frame& f, const RxInfo& i) {
    chained(f, i);
  };
  EXPECT_FALSE(skips());
  mac.sniffer = nullptr;
  EXPECT_TRUE(skips());

  // A greedy policy, a reading upper layer, the NAV-reset rule.
  FakeAckPolicy policy(1.0);
  mac.set_greedy_policy(&policy);
  EXPECT_FALSE(skips());
  mac.set_greedy_policy(nullptr);
  EXPECT_TRUE(skips());
  struct Upper : MacUpper {
    void on_packet(const PacketPtr&, const RxInfo&) override {}
  } upper;
  mac.set_upper(&upper);
  EXPECT_FALSE(skips());
  mac.set_upper(&n);
  EXPECT_TRUE(skips());
  mac.set_nav_rts_reset(true);
  EXPECT_FALSE(skips());
  mac.set_nav_rts_reset(false);
  EXPECT_TRUE(skips());
}

TEST_F(MacTest, SaturatedPairSustainsThroughput) {
  Node& tx = add_node({0, 0});
  Node& rx = add_node({5, 0});
  CountingSink sink;
  rx.register_sink(1, &sink);
  // Keep the queue fed.
  int seq = 0;
  std::function<void()> feed = [&] {
    while (tx.mac().queue_size() < 10) tx.send_packet(packet(1, 0, 1, 1064, seq++));
    sched_.after(milliseconds(10), feed);
  };
  sched_.at(0, feed);
  sched_.run_until(seconds(1));

  // 802.11b RTS/CTS + 1064 B at 11 Mbps: one exchange ~2.4 ms -> ~400/s.
  EXPECT_GT(sink.packets.size(), 300u);
  EXPECT_LT(sink.packets.size(), 520u);
}

}  // namespace
}  // namespace g80211
