// Channel + PHY: carrier-sense edges, reception, capture, collisions,
// range semantics, half-duplex behaviour, BER corruption delivery.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/phy/channel.h"
#include "src/phy/phy.h"
#include "src/sim/scheduler.h"

namespace g80211 {
namespace {

struct RecordingListener : PhyListener {
  struct Rx {
    Frame frame;
    RxInfo info;
  };
  std::vector<Rx> received;
  int busy_edges = 0;
  int idle_edges = 0;
  int tx_ends = 0;
  bool reads = true;   // the answer to reads_measurements()
  bool skips = false;  // the answer to skips_overheard_tails()

  void on_rx_end(const Frame& f, const RxInfo& i) override {
    received.push_back({f, i});
  }
  bool reads_measurements() const override { return reads; }
  bool skips_overheard_tails() const override { return skips; }
  void on_channel_busy() override { ++busy_edges; }
  void on_channel_idle() override { ++idle_edges; }
  void on_tx_end() override { ++tx_ends; }
};

class PhyChannelTest : public ::testing::Test {
 protected:
  PhyChannelTest() : channel_(sched_, WifiParams::b11()) {}

  Phy& add_phy(int id, Position pos) {
    phys_.push_back(std::make_unique<Phy>(channel_, id, pos, Rng(100 + id)));
    listeners_.push_back(std::make_unique<RecordingListener>());
    phys_.back()->set_listener(listeners_.back().get());
    // Disable RSSI measurement noise for exact assertions.
    phys_.back()->rssi_noise_db = 0.0;
    phys_.back()->rssi_outlier_prob = 0.0;
    return *phys_.back();
  }
  RecordingListener& listener(std::size_t i) { return *listeners_[i]; }

  Frame data_frame(int ta, int ra) {
    Frame f;
    f.type = FrameType::kData;
    f.ta = ta;
    f.ra = ra;
    f.packet = make_packet();
    f.packet->size_bytes = 1064;
    return f;
  }

  Scheduler sched_;
  Channel channel_;
  std::vector<std::unique_ptr<Phy>> phys_;
  std::vector<std::unique_ptr<RecordingListener>> listeners_;
};

TEST_F(PhyChannelTest, CleanReceptionDeliversUncorrupted) {
  Phy& tx = add_phy(0, {0, 0});
  add_phy(1, {5, 0});
  tx.transmit(data_frame(0, 1), microseconds(500));
  sched_.run();
  auto& l = listener(1);
  ASSERT_EQ(l.received.size(), 1u);
  EXPECT_FALSE(l.received[0].info.corrupted);
  EXPECT_EQ(l.received[0].frame.ta, 0);
  EXPECT_EQ(l.received[0].frame.true_tx, 0);
  EXPECT_EQ(l.received[0].info.end - l.received[0].info.start, microseconds(500));
}

TEST_F(PhyChannelTest, BusyIdleEdgesFireOnceEach) {
  Phy& tx = add_phy(0, {0, 0});
  add_phy(1, {5, 0});
  tx.transmit(data_frame(0, 1), microseconds(500));
  sched_.run();
  EXPECT_EQ(listener(1).busy_edges, 1);
  EXPECT_EQ(listener(1).idle_edges, 1);
  // The transmitter sees its own busy period and tx_end.
  EXPECT_EQ(listener(0).busy_edges, 1);
  EXPECT_EQ(listener(0).idle_edges, 1);
  EXPECT_EQ(listener(0).tx_ends, 1);
}

TEST_F(PhyChannelTest, PromiscuousDeliveryRegardlessOfAddressing) {
  Phy& tx = add_phy(0, {0, 0});
  add_phy(1, {5, 0});
  add_phy(2, {6, 0});
  tx.transmit(data_frame(0, 1), microseconds(500));
  sched_.run();
  EXPECT_EQ(listener(1).received.size(), 1u);
  EXPECT_EQ(listener(2).received.size(), 1u);  // sniffed someone else's frame
}

TEST_F(PhyChannelTest, OutOfCommRangeNotDelivered) {
  channel_.set_ranges(50.0, 100.0);
  Phy& tx = add_phy(0, {0, 0});
  add_phy(1, {70, 0});   // CS range only
  add_phy(2, {150, 0});  // out of everything
  tx.transmit(data_frame(0, 1), microseconds(500));
  sched_.run();
  EXPECT_TRUE(listener(1).received.empty());
  EXPECT_EQ(listener(1).busy_edges, 1);  // still senses the energy
  EXPECT_TRUE(listener(2).received.empty());
  EXPECT_EQ(listener(2).busy_edges, 0);
}

TEST_F(PhyChannelTest, CsRangeDefaultsToCommRange) {
  channel_.set_ranges(50.0, 0.0);
  EXPECT_DOUBLE_EQ(channel_.cs_range_m(), 50.0);
  Phy& tx = add_phy(0, {0, 0});
  add_phy(1, {60, 0});
  tx.transmit(data_frame(0, 1), microseconds(500));
  sched_.run();
  EXPECT_EQ(listener(1).busy_edges, 0);
}

TEST_F(PhyChannelTest, OverlappingComparablePowersCollide) {
  // Two transmitters equidistant from the receiver: power ratio 1 << 10.
  Phy& a = add_phy(0, {0, 0});
  Phy& b = add_phy(1, {20, 0});
  add_phy(2, {10, 0});
  a.transmit(data_frame(0, 2), microseconds(500));
  sched_.at(microseconds(100), [&] {
    b.transmit(data_frame(1, 2), microseconds(500));
  });
  sched_.run();
  auto& l = listener(2);
  ASSERT_EQ(l.received.size(), 1u);  // only the first is tracked as current
  EXPECT_TRUE(l.received[0].info.corrupted);
  EXPECT_TRUE(l.received[0].info.collided);
}

TEST_F(PhyChannelTest, StrongFirstFrameSurvivesWeakInterferer) {
  Phy& strong = add_phy(0, {9, 0});   // 1 m from receiver
  Phy& weak = add_phy(1, {60, 0});    // 50 m away: Friis ratio 2500 >> 10
  add_phy(2, {10, 0});
  strong.transmit(data_frame(0, 2), microseconds(500));
  sched_.at(microseconds(100), [&] {
    weak.transmit(data_frame(1, 2), microseconds(500));
  });
  sched_.run();
  auto& l = listener(2);
  ASSERT_EQ(l.received.size(), 1u);
  EXPECT_FALSE(l.received[0].info.corrupted) << "capture should save the frame";
  EXPECT_EQ(l.received[0].frame.true_tx, 0);
}

TEST_F(PhyChannelTest, StrongLateFrameCapturesReceiver) {
  Phy& weak = add_phy(0, {60, 0});
  Phy& strong = add_phy(1, {9, 0});
  add_phy(2, {10, 0});
  weak.transmit(data_frame(0, 2), microseconds(500));
  sched_.at(microseconds(100), [&] {
    strong.transmit(data_frame(1, 2), microseconds(300));
  });
  sched_.run();
  auto& l = listener(2);
  ASSERT_EQ(l.received.size(), 1u);
  EXPECT_EQ(l.received[0].frame.true_tx, 1) << "stronger frame captures";
  EXPECT_FALSE(l.received[0].info.corrupted);
}

TEST_F(PhyChannelTest, CaptureDisabledMakesEveryOverlapCollide) {
  channel_.capture_threshold = 0.0;  // ablation knob
  Phy& strong = add_phy(0, {9, 0});
  Phy& weak = add_phy(1, {60, 0});
  add_phy(2, {10, 0});
  strong.transmit(data_frame(0, 2), microseconds(500));
  sched_.at(microseconds(100), [&] {
    weak.transmit(data_frame(1, 2), microseconds(300));
  });
  sched_.run();
  auto& l = listener(2);
  ASSERT_EQ(l.received.size(), 1u);
  EXPECT_TRUE(l.received[0].info.corrupted);
}

TEST_F(PhyChannelTest, SimultaneousAcksResolveByCapture) {
  // The spoofed-ACK situation: two ACKs start at the same instant; the
  // closer transmitter wins at the receiver.
  Phy& near = add_phy(0, {2, 0});
  Phy& far = add_phy(1, {30, 0});
  add_phy(2, {0, 0});
  Frame ack;
  ack.type = FrameType::kAck;
  ack.ra = 2;
  const Time t = microseconds(50);
  sched_.at(t, [&] { near.transmit(ack, microseconds(304)); });
  sched_.at(t, [&] { far.transmit(ack, microseconds(304)); });
  sched_.run();
  auto& l = listener(2);
  ASSERT_EQ(l.received.size(), 1u);
  EXPECT_EQ(l.received[0].frame.true_tx, 0);
  EXPECT_FALSE(l.received[0].info.corrupted);
}

TEST_F(PhyChannelTest, TransmitterMissesFramesWhileTransmitting) {
  Phy& a = add_phy(0, {0, 0});
  Phy& b = add_phy(1, {10, 0});
  a.transmit(data_frame(0, 1), microseconds(500));
  sched_.at(microseconds(10), [&] {
    b.transmit(data_frame(1, 0), microseconds(100));
  });
  sched_.run();
  EXPECT_TRUE(listener(0).received.empty()) << "half duplex: tx cannot rx";
}

TEST_F(PhyChannelTest, TransmitAbortsInProgressReception) {
  Phy& a = add_phy(0, {0, 0});
  Phy& b = add_phy(1, {10, 0});
  a.transmit(data_frame(0, 1), microseconds(500));
  sched_.at(microseconds(50), [&] {
    b.transmit(data_frame(1, 0), microseconds(100));
  });
  sched_.run();
  EXPECT_TRUE(listener(1).received.empty()) << "own tx stomped the rx";
}

TEST_F(PhyChannelTest, EdgeInterestIsReadAfterTheReceptionTail) {
  // A listener with edge interest off gets no busy/idle edges. One that
  // turns it on inside its reception tail (as a MAC does when the tail
  // hands it a frame to send) gets the idle edge that follows the tail.
  struct WakeOnRx : RecordingListener {
    Phy* phy = nullptr;
    void on_rx_end(const Frame& f, const RxInfo& i) override {
      RecordingListener::on_rx_end(f, i);
      phy->set_edge_interest(true);
    }
  };
  Phy& tx = add_phy(0, {0, 0});
  Phy& rx = add_phy(1, {5, 0});
  WakeOnRx l;
  l.phy = &rx;
  rx.set_listener(&l);
  rx.set_edge_interest(false);
  tx.transmit(data_frame(0, 1), microseconds(500));
  sched_.run();
  ASSERT_EQ(l.received.size(), 1u);
  EXPECT_EQ(l.busy_edges, 0);
  EXPECT_EQ(l.idle_edges, 1);
  // Interest stays on: the next frame brings both edges.
  tx.transmit(data_frame(0, 1), microseconds(500));
  sched_.run();
  EXPECT_EQ(l.busy_edges, 1);
  EXPECT_EQ(l.idle_edges, 2);
}

TEST_F(PhyChannelTest, BerCorruptionIsDeliveredAsCorrupted) {
  channel_.error_model().set_default_ber(1.0);  // every frame corrupts
  Phy& tx = add_phy(0, {0, 0});
  add_phy(1, {5, 0});
  tx.transmit(data_frame(0, 1), microseconds(500));
  sched_.run();
  auto& l = listener(1);
  ASSERT_EQ(l.received.size(), 1u);
  EXPECT_TRUE(l.received[0].info.corrupted);
  EXPECT_FALSE(l.received[0].info.collided);
}

TEST_F(PhyChannelTest, PerLinkBerOnlyAffectsThatLink) {
  Phy& tx = add_phy(0, {0, 0});
  add_phy(1, {5, 0});
  add_phy(2, {6, 0});
  channel_.error_model().set_link_ber(0, 1, 1.0);
  tx.transmit(data_frame(0, 1), microseconds(500));
  sched_.run();
  EXPECT_TRUE(listener(1).received[0].info.corrupted);
  EXPECT_FALSE(listener(2).received[0].info.corrupted);
}

TEST_F(PhyChannelTest, RssiReflectsDistanceOrdering) {
  Phy& tx = add_phy(0, {0, 0});
  add_phy(1, {5, 0});
  add_phy(2, {50, 0});
  tx.transmit(data_frame(0, 1), microseconds(500));
  sched_.run();
  ASSERT_EQ(listener(1).received.size(), 1u);
  ASSERT_EQ(listener(2).received.size(), 1u);
  EXPECT_GT(listener(1).received[0].info.rssi_dbm,
            listener(2).received[0].info.rssi_dbm);
  // Noise-free RSSI equals the true received power in dBm.
  EXPECT_NEAR(listener(1).received[0].info.rssi_dbm,
              watts_to_dbm(listener(1).received[0].info.rss_w), 1e-9);
}

TEST_F(PhyChannelTest, InterferenceSumSurvivesOverlapChurn) {
  // Three comparable-power frames pile up and drain one by one; the
  // receiver's running interference sum must flag the pile-up as a
  // collision and then read exactly zero again, so a later lone frame
  // decodes cleanly (a stale positive residue would mark it collided).
  Phy& a = add_phy(0, {0, 0});
  Phy& b = add_phy(1, {20, 0});
  Phy& c = add_phy(2, {10, 11});
  add_phy(3, {10, 0});
  a.transmit(data_frame(0, 3), microseconds(500));
  sched_.at(microseconds(100), [&] {
    b.transmit(data_frame(1, 3), microseconds(500));
  });
  sched_.at(microseconds(200), [&] {
    c.transmit(data_frame(2, 3), microseconds(500));
  });
  sched_.at(milliseconds(2), [&] {
    a.transmit(data_frame(0, 3), microseconds(500));
  });
  sched_.run();
  auto& l = listener(3);
  ASSERT_EQ(l.received.size(), 2u);
  EXPECT_TRUE(l.received[0].info.collided) << "triple overlap must collide";
  EXPECT_FALSE(l.received[1].info.corrupted)
      << "clean frame after the channel drained must decode";
  EXPECT_EQ(l.received[1].frame.true_tx, 0);
}

TEST_F(PhyChannelTest, InterferenceSumResetsExactlyAtCaptureThresholdZero) {
  // The churn above at powers whose floating-point sum does not cancel:
  // +a+b+c-a-b-c leaves +3.4e-21 W, and with capture off any positive
  // interference marks a frame collided. Only the exact reset to zero
  // when the last transmission ends lets the lone frame decode.
  channel_.capture_threshold = 0.0;
  Phy& a = add_phy(0, {0, 0});
  Phy& b = add_phy(1, {18, 0});
  Phy& c = add_phy(2, {10, 3});
  add_phy(3, {10, 0});
  a.transmit(data_frame(0, 3), microseconds(500));
  sched_.at(microseconds(100), [&] {
    b.transmit(data_frame(1, 3), microseconds(500));
  });
  sched_.at(microseconds(200), [&] {
    c.transmit(data_frame(2, 3), microseconds(500));
  });
  sched_.at(milliseconds(2), [&] {
    a.transmit(data_frame(0, 3), microseconds(500));
  });
  sched_.run();
  auto& l = listener(3);
  ASSERT_EQ(l.received.size(), 2u);
  EXPECT_TRUE(l.received[0].info.collided) << "triple overlap must collide";
  EXPECT_FALSE(l.received[1].info.corrupted)
      << "clean frame after the channel drained must decode";
  EXPECT_EQ(l.received[1].frame.true_tx, 0);
}

TEST_F(PhyChannelTest, UnreadMeasurementsAreNotDrawn) {
  // A loss-free channel: a radio whose listener reads no measurements,
  // like one with no listener at all, skips its RSSI draws and reports
  // the noiseless power of its link.
  Phy& tx = add_phy(0, {0, 0});
  Phy& rx = add_phy(1, {7, 0});
  rx.rssi_noise_db = 0.4;  // a drawn sample then differs from the power
  listener(1).reads = false;
  Phy bare(channel_, 2, {9, 0}, Rng(102));
  tx.transmit(data_frame(0, 1), microseconds(300));
  sched_.run();
  const NeighborSoA& link = channel_.neighbors_of(&tx);
  ASSERT_EQ(link.size(), 2u);
  auto& got = listener(1).received;
  ASSERT_EQ(got.size(), 1u);
  EXPECT_FALSE(got[0].info.measured);
  EXPECT_EQ(got[0].info.rssi_dbm, link.power_dbm[0]);
  EXPECT_EQ(channel_.frames_demodulated(), 2u);
  EXPECT_EQ(channel_.measurements_drawn(), 0u);

  // Interest back on: the radio draws again. Its stream skipped the
  // unread draws, so this is the first sample of Rng(101) (add_phy's seed
  // for id 1; the fixture turns outliers off, so one normal is the draw).
  listener(1).reads = true;
  tx.transmit(data_frame(0, 1), microseconds(300));
  sched_.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_TRUE(got[1].info.measured);
  Rng fresh(101);
  EXPECT_EQ(got[1].info.rssi_dbm,
            link.power_dbm[0] + fresh.normal(0.0, rx.rssi_noise_db));
  EXPECT_NE(got[1].info.rssi_dbm, link.power_dbm[0]);
  EXPECT_EQ(channel_.frames_demodulated(), 4u);
  EXPECT_EQ(channel_.measurements_drawn(), 1u);
}

TEST_F(PhyChannelTest, AnyBitErrorRateMakesEveryRadioDraw) {
  // One nonzero BER, even on a link no frame here uses, makes the
  // frame-error chance a live draw on every radio's stream, so every
  // radio draws its measurements too: read or not, listener or none.
  Phy& tx = add_phy(0, {0, 0});
  add_phy(1, {5, 0});
  listener(1).reads = false;
  Phy bare(channel_, 2, {6, 0}, Rng(102));
  channel_.error_model().set_link_ber(1, 0, 1e-6);
  tx.transmit(data_frame(0, 1), microseconds(300));
  sched_.run();
  ASSERT_EQ(listener(1).received.size(), 1u);
  EXPECT_TRUE(listener(1).received[0].info.measured);
  EXPECT_EQ(channel_.frames_demodulated(), 2u);
  EXPECT_EQ(channel_.measurements_drawn(), 2u);
}

// Makes `l`, the listener of `phy`, one that only records the frames it
// overhears, and sets the radio's skip bit to match.
void only_records(Phy& phy, RecordingListener& l) {
  l.reads = false;
  l.skips = true;
  phy.rx_state().skip_tail = true;
}

TEST_F(PhyChannelTest, SkippedTailsRecordWithoutCallingTheRadio) {
  // At a radio whose skip bit is set, in a loss-free world, the channel
  // records a frame addressed elsewhere itself (RxState::record) and
  // calls no PHY or listener; the radio's edges still run.
  Phy& a = add_phy(0, {0, 0});
  Phy& b = add_phy(1, {5, 0});
  Phy& c = add_phy(2, {10, 0});
  only_records(b, listener(1));
  const Time air = microseconds(500);
  Frame away = data_frame(0, 7);
  away.duration = microseconds(300);
  a.transmit(away, air);
  sched_.run();
  auto& got = listener(1).received;
  EXPECT_TRUE(got.empty());
  EXPECT_EQ(channel_.tails_skipped(), 1u);
  EXPECT_EQ(b.rx_state().nav.expiry(), air + microseconds(300));
  EXPECT_EQ(b.rx_state().nav_updates, 1);
  EXPECT_EQ(listener(1).busy_edges, 1);
  EXPECT_EQ(listener(1).idle_edges, 1);
  // c's listener does not answer, so c runs the full tail.
  EXPECT_EQ(listener(2).received.size(), 1u);

  // A frame addressed to the radio, and a broadcast, run the full tail.
  sched_.at(sched_.now(), [&] { a.transmit(data_frame(0, 1), air); });
  sched_.run();
  sched_.at(sched_.now(), [&] { a.transmit(data_frame(0, kBroadcast), air); });
  sched_.run();
  ASSERT_EQ(got.size(), 2u);
  EXPECT_EQ(got[0].frame.ra, 1);
  EXPECT_EQ(got[1].frame.ra, kBroadcast);
  EXPECT_EQ(channel_.tails_skipped(), 1u);

  // Two equal-power frames collide at b: a skipped corrupted tail counts
  // the corruption and arms the EIFS; it leaves the NAV alone.
  const Time nav_before = b.rx_state().nav.expiry();
  sched_.at(sched_.now(), [&] {
    a.transmit(away, air);
    c.transmit(data_frame(2, 7), air);
  });
  sched_.run();
  EXPECT_EQ(got.size(), 2u);
  EXPECT_EQ(channel_.tails_skipped(), 2u);
  EXPECT_EQ(b.rx_state().rx_corrupted, 1);
  EXPECT_TRUE(b.rx_state().eifs);
  EXPECT_EQ(b.rx_state().nav.expiry(), nav_before);
}

TEST_F(PhyChannelTest, AnyBitErrorRateStopsTailSkipping) {
  // With a BER anywhere in the world the frame-error chance draws, so a
  // skipped tail would shift the radio's stream: every tail runs.
  for (const double ber : {1e-12, 1e-6, 1.0}) {
    SCOPED_TRACE(ber);
    Scheduler sched;
    Channel channel(sched, WifiParams::b11());
    Phy a(channel, 0, {0, 0}, Rng(100));
    Phy b(channel, 1, {5, 0}, Rng(101));
    RecordingListener lb;
    b.set_listener(&lb);
    only_records(b, lb);
    channel.error_model().set_link_ber(5, 6, ber);  // a link no frame uses
    a.transmit(data_frame(0, 7), microseconds(300));
    sched.run();
    EXPECT_EQ(channel.tails_skipped(), 0u);
    ASSERT_EQ(lb.received.size(), 1u);
    EXPECT_TRUE(lb.received[0].info.measured);
  }
}

TEST_F(PhyChannelTest, LinkTableServedFromCacheUntilTopologyChanges) {
  Phy& tx = add_phy(0, {0, 0});
  add_phy(1, {5, 0});
  const auto& warm = channel_.neighbors_of(&tx);
  ASSERT_EQ(warm.size(), 1u);
  const std::uint64_t rebuilds = channel_.link_tables_rebuilt();
  // Repeated queries and repeated transmissions reuse the table.
  channel_.neighbors_of(&tx);
  tx.transmit(data_frame(0, 1), microseconds(200));
  sched_.run();
  EXPECT_EQ(channel_.link_tables_rebuilt(), rebuilds);
  // A no-op move (zero-velocity mobility tick) must keep the cache warm.
  tx.set_position({0, 0});
  channel_.neighbors_of(&tx);
  EXPECT_EQ(channel_.link_tables_rebuilt(), rebuilds);
}

// Whether two link tables agree bit for bit: receivers (by node id) in
// the same order, and the same power_w, power_dbm and decodable bits.
::testing::AssertionResult same_table(const Channel& ca, const NeighborSoA& a,
                                      const Channel& cb, const NeighborSoA& b) {
  if (a.size() != b.size()) {
    return ::testing::AssertionFailure()
           << "sizes " << a.size() << " and " << b.size();
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ca.phys()[a.rx[i]]->id() != cb.phys()[b.rx[i]]->id() ||
        std::bit_cast<std::uint64_t>(a.power_w[i]) !=
            std::bit_cast<std::uint64_t>(b.power_w[i]) ||
        std::bit_cast<std::uint64_t>(a.power_dbm[i]) !=
            std::bit_cast<std::uint64_t>(b.power_dbm[i]) ||
        a.decodable[i] != b.decodable[i]) {
      return ::testing::AssertionFailure() << "entry " << i << " differs";
    }
  }
  return ::testing::AssertionSuccess();
}

TEST_F(PhyChannelTest, MovedNodeMatchesFreshlyBuiltChannel) {
  channel_.set_ranges(50.0, 100.0);
  Phy& tx = add_phy(0, {0, 0});
  add_phy(1, {10, 0});
  Phy& roamer = add_phy(2, {200, 0});  // out of sensing range entirely
  ASSERT_EQ(channel_.neighbors_of(&tx).size(), 1u);  // warm the cache
  const std::uint64_t rebuilds = channel_.link_tables_rebuilt();
  const std::uint64_t patched = channel_.links_patched();

  // A mid-simulation move into decode range patches the warm table: one
  // entry re-derived, no rebuild.
  roamer.set_position({20, 0});
  const auto& cached = channel_.neighbors_of(&tx);
  EXPECT_EQ(channel_.link_tables_rebuilt(), rebuilds);
  EXPECT_EQ(channel_.links_patched(), patched + 1);

  // The patched table must be indistinguishable from a channel built from
  // scratch at the post-move positions: same membership, same order, same
  // rx power bits, same decodability.
  Scheduler sched2;
  Channel chan2(sched2, WifiParams::b11());
  chan2.set_ranges(50.0, 100.0);
  Phy t2(chan2, 0, {0, 0}, Rng(100));
  Phy n2(chan2, 1, {10, 0}, Rng(101));
  Phy r2(chan2, 2, {20, 0}, Rng(102));
  EXPECT_TRUE(same_table(channel_, cached, chan2, chan2.neighbors_of(&t2)));

  // A sender that moved rebuilds its own table: one rebuild, no patch.
  tx.set_position({-31, 0});
  const auto& moved = channel_.neighbors_of(&tx);
  EXPECT_EQ(channel_.link_tables_rebuilt(), rebuilds + 1);
  EXPECT_EQ(channel_.links_patched(), patched + 1);
  Scheduler sched3;
  Channel chan3(sched3, WifiParams::b11());
  chan3.set_ranges(50.0, 100.0);
  Phy t3(chan3, 0, {-31, 0}, Rng(100));
  Phy n3(chan3, 1, {10, 0}, Rng(101));
  Phy r3(chan3, 2, {20, 0}, Rng(102));
  EXPECT_TRUE(same_table(channel_, moved, chan3, chan3.neighbors_of(&t3)));
  ASSERT_EQ(moved.size(), 2u);
  EXPECT_FALSE(moved.decodable[1]) << "the roamer is 51 m out: sensed only";

  // And the full delivery path agrees: the roamer receives from where the
  // sender was before its move.
  tx.set_position({0, 0});
  tx.transmit(data_frame(0, 1), microseconds(500));
  sched_.run();
  ASSERT_EQ(listener(2).received.size(), 1u);
  EXPECT_FALSE(listener(2).received[0].info.corrupted);
}

TEST_F(PhyChannelTest, MovedOutOfRangeNodeLeavesSensedSet) {
  channel_.set_ranges(50.0, 100.0);
  Phy& tx = add_phy(0, {0, 0});
  Phy& leaver = add_phy(1, {10, 0});
  ASSERT_EQ(channel_.neighbors_of(&tx).size(), 1u);
  leaver.set_position({500, 0});
  EXPECT_TRUE(channel_.neighbors_of(&tx).empty());
  tx.transmit(data_frame(0, 1), microseconds(500));
  sched_.run();
  EXPECT_TRUE(listener(1).received.empty());
  EXPECT_EQ(listener(1).busy_edges, 0);
}

TEST_F(PhyChannelTest, PropagationChangeInvalidatesCachedRxPower) {
  Phy& tx = add_phy(0, {0, 0});
  add_phy(1, {5, 0});
  const double before = channel_.neighbors_of(&tx).power_w[0];
  channel_.propagation().set_tx_power_w(channel_.propagation().tx_power_w() * 2.0);
  const double after = channel_.neighbors_of(&tx).power_w[0];
  EXPECT_EQ(after, 2.0 * before) << "cached rx power must track tx power";
}

// Link-table patching against its specification: seeded random walks on
// a mixed topology, after every step of which each sender's table must
// equal a freshly built channel's bit for bit. Moves go anywhere, land
// exactly on the communication and carrier-sense boundaries of another
// radio or one metre to either side (integer coordinates keep those
// distances exact), move senders themselves, and move radios to where
// they already are; a step moves one radio, or a batch of up to half of
// them (the same radio possibly twice), so one pass patches many entries
// too. A radio attaches and the propagation changes part-way through. The
// move log stays within the radio count throughout.
TEST(LinkTablePatching, RandomWalksMatchFreshlyBuiltChannels) {
  struct Ranges {
    double comm;
    double cs;
  };
  // Both bands; carrier sense equal to communication; unlimited ranges.
  for (const Ranges ranges : {Ranges{50, 100}, Ranges{50, 0}, Ranges{0, 0}}) {
    for (const std::uint64_t seed : {1u, 2u, 3u}) {
      SCOPED_TRACE("comm " + std::to_string(ranges.comm) + " cs " +
                   std::to_string(ranges.cs) + " seed " + std::to_string(seed));
      std::uint64_t state = 0x9E3779B97F4A7C15ULL * seed;
      auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
      };
      auto coord = [&] { return static_cast<double>(next() % 241) - 120.0; };
      Scheduler sched;
      Channel channel(sched, WifiParams::b11());
      channel.set_ranges(ranges.comm, ranges.cs);
      double tx_power = channel.propagation().tx_power_w();
      std::vector<std::unique_ptr<Phy>> phys;
      std::vector<Position> pos;
      auto add = [&](Position p) {
        const int id = static_cast<int>(phys.size());
        phys.push_back(std::make_unique<Phy>(channel, id, p, Rng(100 + id)));
        pos.push_back(p);
      };
      for (int i = 0; i < 12; ++i) add({coord(), coord()});
      // The range edges; with unlimited ranges, a move to an "edge" lands on
      // top of another radio or a metre from it.
      const double edges[] = {std::max(ranges.comm, 0.0),
                              std::max(channel.cs_range_m(), 0.0)};
      auto move = [&](std::size_t i) {
        Position p = pos[i];  // one move in four is a no-op
        const std::uint64_t kind = next() % 4;
        if (kind == 1) {
          p = {coord(), coord()};
        } else if (kind >= 2) {
          const Position& a = pos[next() % pos.size()];
          const double d = edges[next() % 2] + static_cast<double>(next() % 3) - 1.0;
          const Position around[] = {
              {a.x + d, a.y}, {a.x - d, a.y}, {a.x, a.y + d}, {a.x, a.y - d}};
          p = around[next() % 4];
        }
        phys[i]->set_position(p);
        pos[i] = p;
      };
      // The tables each sender was last served, to see what a patch did.
      std::vector<NeighborSoA> last(phys.size());
      std::uint64_t grew = 0;
      std::uint64_t shrank = 0;
      for (int step = 0; step < 400; ++step) {
        if (step == 150) {
          tx_power *= 1.5;
          channel.propagation().set_tx_power_w(tx_power);
        }
        if (step == 250) {
          add({coord(), coord()});
          last.emplace_back();
        }
        const std::size_t batch =
            next() % 4 == 0 ? 1 + next() % (phys.size() / 2) : 1;
        for (std::size_t k = 0; k < batch; ++k) move(next() % phys.size());
        ASSERT_LE(channel.move_log_size(), phys.size());

        Scheduler fresh_sched;
        Channel fresh(fresh_sched, WifiParams::b11());
        fresh.set_ranges(ranges.comm, ranges.cs);
        fresh.propagation().set_tx_power_w(tx_power);
        std::vector<std::unique_ptr<Phy>> fresh_phys;
        for (std::size_t i = 0; i < pos.size(); ++i) {
          fresh_phys.push_back(std::make_unique<Phy>(
              fresh, static_cast<int>(i), pos[i], Rng(100 + i)));
        }
        for (std::size_t i = 0; i < phys.size(); ++i) {
          SCOPED_TRACE("step " + std::to_string(step) + " sender " +
                       std::to_string(i));
          const std::uint64_t rebuilds = channel.link_tables_rebuilt();
          const std::uint64_t patched = channel.links_patched();
          const NeighborSoA& t = channel.neighbors_of(phys[i].get());
          ASSERT_TRUE(same_table(channel, t, fresh,
                                 fresh.neighbors_of(fresh_phys[i].get())));
          if (channel.link_tables_rebuilt() == rebuilds &&
              channel.links_patched() != patched) {
            grew += t.size() > last[i].size() ? 1 : 0;
            shrank += t.size() < last[i].size() ? 1 : 0;
          }
          last[i] = t;
        }
      }
      // The walk patched tables, inserting and erasing entries where the
      // ranges have edges, and also rebuilt them.
      EXPECT_GT(channel.links_patched(), 0u);
      EXPECT_GT(channel.link_tables_rebuilt(), phys.size() * 3);
      if (ranges.comm > 0) {
        EXPECT_GT(grew, 0u);
        EXPECT_GT(shrank, 0u);
      }
    }
  }
}

// FNV-1a over every listener's recorded output, bit for bit: its edge and
// tx-end counts and each delivered frame with its reception info.
std::uint64_t output_digest(
    const std::vector<std::unique_ptr<RecordingListener>>& listeners) {
  std::uint64_t h = 1469598103934665603ULL;  // FNV offset basis
  auto mix = [&h](auto value) {
    std::uint64_t bits = 0;
    static_assert(sizeof(value) <= sizeof(bits));
    std::memcpy(&bits, &value, sizeof(value));
    for (std::size_t i = 0; i < sizeof(value); ++i) {
      h ^= (bits >> (8 * i)) & 0xffu;
      h *= 1099511628211ULL;  // FNV prime
    }
  };
  for (const auto& l : listeners) {
    mix(l->busy_edges);
    mix(l->idle_edges);
    mix(l->tx_ends);
    mix(l->received.size());
    for (const RecordingListener::Rx& rx : l->received) {
      mix(rx.frame.true_tx);
      mix(rx.frame.ta);
      mix(rx.frame.ra);
      mix(rx.info.rss_w);
      mix(rx.info.rssi_dbm);
      mix(rx.info.corrupted);
      mix(rx.info.collided);
      mix(rx.info.addresses_intact);
      mix(rx.info.start);
      mix(rx.info.end);
    }
  }
  return h;
}

// The link-table fan-out against its specification, on a mixed topology:
// in comm range, interference band only, and out of sensing range, with
// overlapping transmissions to exercise the capture rule and RSSI noise
// left on so RNG draw sequences count too. Each sender's sensed set,
// decodability and rx power follow from the node positions through
// Propagation, and every delivered frame carries that power. The digest
// pins everything the listeners recorded; it was taken when a scalar
// per-receiver walk (distance and propagation math per frame) still ran
// beside the link-table sweep and both gave these bits.
TEST(ChannelFanoutIdentity, SoaMatchesScalarOnMixedTopology) {
  constexpr double kCommRange = 50.0;
  constexpr double kCsRange = 100.0;
  Scheduler sched;
  Channel channel{sched, WifiParams::b11()};
  channel.set_ranges(kCommRange, kCsRange);
  const Position pos[] = {{0, 0},  {10, 0},  {30, 0},
                          {70, 0},  // interference band: sensed only
                          {150, 0},  // out of sensing range entirely
                          {40, 30}};
  constexpr int kNodes = 6;
  std::vector<std::unique_ptr<Phy>> phys;
  std::vector<std::unique_ptr<RecordingListener>> listeners;
  for (int id = 0; id < kNodes; ++id) {
    phys.push_back(std::make_unique<Phy>(channel, id, pos[id], Rng(100 + id)));
    listeners.push_back(std::make_unique<RecordingListener>());
    phys.back()->set_listener(listeners.back().get());
  }

  auto frame = [](int ta, int ra) {
    Frame f;
    f.type = FrameType::kData;
    f.ta = ta;
    f.ra = ra;
    f.packet = make_packet();
    f.packet->size_bytes = 1064;
    return f;
  };
  phys[0]->transmit(frame(0, 1), microseconds(400));
  // Overlaps node 0's frame: capture/collision logic runs at every
  // receiver that hears both.
  sched.at(microseconds(100),
           [&] { phys[2]->transmit(frame(2, 5), microseconds(400)); });
  // Hidden-ish late joiner, partially overlapping node 2's frame.
  sched.at(microseconds(450),
           [&] { phys[5]->transmit(frame(5, 0), microseconds(300)); });
  // Clean back-to-back frame once the air is quiet again.
  sched.at(microseconds(900),
           [&] { phys[1]->transmit(frame(1, 0), microseconds(200)); });
  sched.run();

  // Every sender's sensed set: the other nodes within carrier-sense range,
  // in attach order, decodable within comm range, at Propagation's power.
  for (int tx = 0; tx < kNodes; ++tx) {
    SCOPED_TRACE("sender " + std::to_string(tx));
    const NeighborSoA& t = channel.neighbors_of(phys[tx].get());
    std::size_t k = 0;
    for (int rx = 0; rx < kNodes; ++rx) {
      const double d = distance(pos[tx], pos[rx]);
      if (rx == tx || d > kCsRange) continue;
      ASSERT_LT(k, t.size());
      EXPECT_EQ(channel.phys()[t.rx[k]]->id(), rx);
      EXPECT_EQ(t.power_w[k], channel.propagation().rx_power_w(d));
      EXPECT_EQ(t.power_dbm[k], watts_to_dbm(t.power_w[k]));
      EXPECT_EQ(t.decodable[k] != 0, d <= kCommRange);
      ++k;
    }
    EXPECT_EQ(k, t.size());
  }
  // Every delivery came from a sender in comm range, at its true power.
  for (int rx = 0; rx < kNodes; ++rx) {
    for (const RecordingListener::Rx& r : listeners[rx]->received) {
      const double d = distance(pos[r.frame.true_tx], pos[rx]);
      EXPECT_LE(d, kCommRange);
      EXPECT_EQ(r.info.rss_w, channel.propagation().rx_power_w(d));
    }
  }
  // The node out of everyone's sensing range never noticed the traffic.
  EXPECT_EQ(listeners[4]->busy_edges, 0);
  EXPECT_TRUE(listeners[4]->received.empty());
  EXPECT_EQ(output_digest(listeners), 0xdda4d060b9fa926bULL);
}

// The fan-out's twin with capture on (threshold 10) and the overlaps that
// the receivers' carrier state must get exactly right: an interference-only
// frame starting during a demodulation, which the demodulated frame powers
// through at one receiver and is lost to at another; a receiver that keys
// up mid-reception; a strong frame capturing a receiver; and a sender moved
// mid-frame, whose link table is rebuilt before its frame ends. That frame
// must leave each receiver's interference sum by the power it added at its
// start: a stale residue would mark the clean frame that follows collided.
// The digest was recorded on the engine that kept a list of every sensed
// transmission in each PHY.
TEST(ChannelFanoutIdentity, CaptureOverlapsMovesAndKeyUps) {
  Scheduler sched;
  Channel channel{sched, WifiParams::b11()};
  channel.set_ranges(50.0, 100.0);
  channel.capture_threshold = 10.0;
  enum { kR, kA, kB, kI, kK, kM, kFar, kNodes };
  const Position pos[kNodes] = {
      {0, 0},     // R: the receiver every phase aims at
      {10, 0},    // A: strong sender, 10 m from R
      {-38, 0},   // B: weak sender, 38 m from R, 48 m from A
      {0, 70},    // I: sensed-only at every other node
      {5, 5},     // K: keys up while demodulating A
      {20, 0},    // M: moved while its frame is in the air
      {150, 0}};  // out of everyone's sensing range
  std::vector<std::unique_ptr<Phy>> phys;
  std::vector<std::unique_ptr<RecordingListener>> listeners;
  for (int id = 0; id < kNodes; ++id) {
    phys.push_back(std::make_unique<Phy>(channel, id, pos[id], Rng(300 + id)));
    listeners.push_back(std::make_unique<RecordingListener>());
    phys.back()->set_listener(listeners.back().get());
  }
  auto send = [&](Time at, int tx, int ra, Time airtime) {
    sched.at(at, [&phys, tx, ra, airtime] {
      Frame f;
      f.type = FrameType::kData;
      f.ta = tx;
      f.ra = ra;
      f.packet = make_packet();
      f.packet->size_bytes = 1064;
      phys[static_cast<std::size_t>(tx)]->transmit(f, airtime);
    });
  };

  // Phase 1: I's frame starts while A's is being demodulated. At R (A at
  // 10 m, I at 70 m) A powers through; at B (A at 48 m, I at 80 m) the
  // two collide.
  send(0, kA, kR, microseconds(400));
  send(microseconds(100), kI, kR, microseconds(200));
  // Phase 2: K keys up while demodulating A, and I's frame reaches A while
  // A transmits.
  send(microseconds(1000), kA, kR, microseconds(400));
  send(microseconds(1050), kI, kB, microseconds(100));
  send(microseconds(1150), kK, kA, microseconds(100));
  // Phase 3: M's frame to R; M moves and its table is rebuilt mid-frame.
  // I's frame overlaps it at R (M at 20 m powers through), then A's frame
  // starts at R after M's ended but while I's is still in the air.
  const std::uint64_t rebuilds_before = channel.link_tables_rebuilt();
  send(microseconds(2000), kM, kR, microseconds(400));
  sched.at(microseconds(2050), [&] {
    phys[kM]->set_position({60, 0});
    channel.neighbors_of(phys[kM].get());
  });
  send(microseconds(2100), kI, kR, microseconds(500));
  send(microseconds(2450), kA, kR, microseconds(100));
  // Phase 4: B's frame to R is captured by A's, 16 times stronger at R.
  send(microseconds(3000), kB, kR, microseconds(400));
  send(microseconds(3100), kA, kR, microseconds(200));
  // Phase 5: I alone, sensed-only everywhere; then a clean frame.
  send(microseconds(4000), kI, kR, microseconds(200));
  send(microseconds(4500), kB, kR, microseconds(200));
  sched.run();

  EXPECT_GT(channel.link_tables_rebuilt(), rebuilds_before + 1)
      << "M's table must be rebuilt while its frame is in the air";
  auto from = [&](int rx, int tx) {
    std::vector<RxInfo> out;
    for (const RecordingListener::Rx& r : listeners[rx]->received) {
      if (r.frame.true_tx == tx) out.push_back(r.info);
    }
    return out;
  };
  // Phase 1 (and phase 2's first frame at R, hit by K's key-up frame).
  ASSERT_GE(from(kR, kA).size(), 2u);
  EXPECT_FALSE(from(kR, kA)[0].corrupted) << "A powers through I at R";
  EXPECT_TRUE(from(kR, kA)[1].collided) << "K's frame collides with A's";
  ASSERT_GE(from(kB, kA).size(), 1u);
  EXPECT_TRUE(from(kB, kA)[0].collided) << "I's frame ruins A's at B";
  // Phase 2: K abandoned A's second frame when it keyed up.
  ASSERT_EQ(from(kK, kA).size(), 3u);
  for (const RxInfo& info : from(kK, kA)) {
    EXPECT_NE(info.start, microseconds(1000));
  }
  // Phase 3: M's frame and A's clean third frame.
  ASSERT_EQ(from(kR, kM).size(), 1u);
  EXPECT_FALSE(from(kR, kM)[0].corrupted);
  ASSERT_GE(from(kR, kA).size(), 3u);
  EXPECT_FALSE(from(kR, kA)[2].corrupted)
      << "M's frame must leave R's interference sum exactly";
  // Phase 4: A captured R from B; B's frame is never delivered there.
  ASSERT_EQ(from(kR, kA).size(), 4u);
  EXPECT_FALSE(from(kR, kA)[3].corrupted);
  // Phase 5: B's only delivery at R is its clean frame.
  ASSERT_EQ(from(kR, kB).size(), 1u);
  EXPECT_FALSE(from(kR, kB)[0].corrupted);
  EXPECT_TRUE(from(kR, kI).empty()) << "I is never decodable at R";
  EXPECT_EQ(listeners[kFar]->busy_edges, 0);
  EXPECT_EQ(output_digest(listeners), 0x2ef95f889d2227c2ULL);
}

TEST_F(PhyChannelTest, BackToBackTransmissionsBothDelivered) {
  Phy& tx = add_phy(0, {0, 0});
  add_phy(1, {5, 0});
  tx.transmit(data_frame(0, 1), microseconds(200));
  sched_.at(microseconds(300), [&] {
    tx.transmit(data_frame(0, 1), microseconds(200));
  });
  sched_.run();
  EXPECT_EQ(listener(1).received.size(), 2u);
  EXPECT_EQ(listener(1).busy_edges, 2);
  EXPECT_EQ(listener(1).idle_edges, 2);
}

}  // namespace
}  // namespace g80211
