// Channel + PHY: carrier-sense edges, reception, capture, collisions,
// range semantics, half-duplex behaviour, BER corruption delivery.
#include <gtest/gtest.h>

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

  void on_rx_end(const Frame& f, const RxInfo& i) override {
    received.push_back({f, i});
  }
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

TEST_F(PhyChannelTest, MovedNodeMatchesFreshlyBuiltChannel) {
  channel_.set_ranges(50.0, 100.0);
  Phy& tx = add_phy(0, {0, 0});
  add_phy(1, {10, 0});
  Phy& roamer = add_phy(2, {200, 0});  // out of sensing range entirely
  ASSERT_EQ(channel_.neighbors_of(&tx).size(), 1u);  // warm the cache
  const std::uint64_t rebuilds = channel_.link_tables_rebuilt();

  // Mid-simulation move into decode range must invalidate the warm table.
  roamer.set_position({20, 0});
  const auto& cached = channel_.neighbors_of(&tx);
  EXPECT_EQ(channel_.link_tables_rebuilt(), rebuilds + 1);

  // The rebuilt table must be indistinguishable from a channel built from
  // scratch at the post-move positions: same membership, same order, same
  // rx power bits, same decodability.
  Scheduler sched2;
  Channel chan2(sched2, WifiParams::b11());
  chan2.set_ranges(50.0, 100.0);
  Phy t2(chan2, 0, {0, 0}, Rng(100));
  Phy n2(chan2, 1, {10, 0}, Rng(101));
  Phy r2(chan2, 2, {20, 0}, Rng(102));
  const auto& fresh = chan2.neighbors_of(&t2);
  ASSERT_EQ(cached.size(), fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_EQ(cached.rx[i]->id(), fresh.rx[i]->id());
    EXPECT_EQ(cached.power_w[i], fresh.power_w[i]);
    EXPECT_EQ(cached.power_dbm[i], fresh.power_dbm[i]);
    EXPECT_EQ(cached.decodable[i], fresh.decodable[i]);
  }

  // And the full delivery path agrees: the roamer now receives.
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
      EXPECT_EQ(t.rx[k]->id(), rx);
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
