// IEEE 802.11 9.2.5.4 NAV-reset rule (optional; off by default because the
// paper's ns-2 substrate lacks it): a station that armed its NAV from an
// RTS releases it when the reserved exchange evidently never happened.
#include <gtest/gtest.h>

#include "src/net/node.h"
#include "src/phy/channel.h"
#include "src/sim/scheduler.h"

namespace g80211 {
namespace {

class NavResetTest : public ::testing::Test {
 protected:
  NavResetTest() : channel_(sched_, WifiParams::b11()), params_(WifiParams::b11()) {}
  Node& add_node(Position pos) {
    const int id = static_cast<int>(nodes_.size());
    nodes_.push_back(
        std::make_unique<Node>(sched_, channel_, id, pos, Rng(900 + id)));
    return *nodes_.back();
  }
  void inject_rts(Node& from, int ta, int ra, Time duration) {
    Frame rts;
    rts.type = FrameType::kRts;
    rts.ta = ta;
    rts.ra = ra;
    rts.duration = duration;
    from.phy().transmit(rts, params_.rts_tx_time());
  }
  Scheduler sched_;
  Channel channel_;
  WifiParams params_;
  std::vector<std::unique_ptr<Node>> nodes_;
};

TEST_F(NavResetTest, DisabledByDefaultNavRunsFullTerm) {
  Node& jammer = add_node({0, 0});
  Node& victim = add_node({5, 0});
  inject_rts(jammer, 0, 99, milliseconds(20));  // RTS to nobody
  sched_.run_until(milliseconds(5));
  EXPECT_TRUE(victim.mac().nav().busy(sched_.now()))
      << "ns-2 semantics: a dead RTS reservation still holds";
  sched_.run_until(milliseconds(25));
  EXPECT_FALSE(victim.mac().nav().busy(sched_.now()));
}

TEST_F(NavResetTest, EnabledReleasesDeadReservation) {
  Node& jammer = add_node({0, 0});
  Node& victim = add_node({5, 0});
  victim.mac().set_nav_rts_reset(true);
  inject_rts(jammer, 0, 99, milliseconds(20));
  // Reset probe fires 2*SIFS + T_CTS + 2 slots after the RTS ends: ~364 us.
  sched_.run_until(params_.rts_tx_time() + microseconds(300));
  EXPECT_TRUE(victim.mac().nav().busy(sched_.now()));
  sched_.run_until(params_.rts_tx_time() + microseconds(400));
  EXPECT_FALSE(victim.mac().nav().busy(sched_.now()))
      << "no CTS followed: the reservation is released";
}

TEST_F(NavResetTest, DisablingTheRuleCancelsItsPendingReset) {
  // The rule armed a reset on hearing the RTS; turning the rule off before
  // it fires drops it, so the NAV runs its full term as if the rule had
  // never been on.
  Node& jammer = add_node({0, 0});
  Node& victim = add_node({5, 0});
  victim.mac().set_nav_rts_reset(true);
  inject_rts(jammer, 0, 99, milliseconds(20));
  const Time expiry = params_.rts_tx_time() + milliseconds(20);
  sched_.run_until(params_.rts_tx_time() + microseconds(100));
  ASSERT_TRUE(victim.mac().nav().busy(sched_.now()));
  victim.mac().set_nav_rts_reset(false);
  sched_.run_until(expiry - microseconds(1));
  EXPECT_TRUE(victim.mac().nav().busy(sched_.now()))
      << "a reset scheduled while the rule was on must not fire after it";
  EXPECT_EQ(victim.mac().nav().expiry(), expiry);
  sched_.run_until(expiry);
  EXPECT_FALSE(victim.mac().nav().busy(sched_.now()));
}

TEST_F(NavResetTest, LiveExchangeIsNotReset) {
  // A real exchange: the CTS (and data) keep the medium busy through the
  // probe window, so the NAV holds.
  Node& tx = add_node({0, 0});
  Node& rx = add_node({5, 0});
  Node& bystander = add_node({5, 5});
  bystander.mac().set_nav_rts_reset(true);

  auto p = make_packet();
  p->flow_id = 1;
  p->size_bytes = 1064;
  p->dst_node = rx.id();
  tx.send_packet(p);

  // Sample the bystander's NAV right after the CTS should have started.
  bool nav_held_mid_exchange = false;
  bool delivered = false;
  sched_.at(milliseconds(2), [&] {
    nav_held_mid_exchange = bystander.mac().nav().busy(sched_.now());
  });
  sched_.run_until(milliseconds(50));
  delivered = rx.mac().stats().rx_data_ok == 1;
  EXPECT_TRUE(delivered);
  EXPECT_TRUE(nav_held_mid_exchange)
      << "the probe must not fire while the exchange is alive";
}

TEST_F(NavResetTest, MitigatesDeadRtsReservationsUnderInflation) {
  // An RTS-NAV inflater whose exchanges die (its peer is deaf) holds the
  // medium hostage under ns-2 semantics; the reset rule reclaims it.
  auto victim_goodput = [&](bool reset_on) {
    Scheduler sched;
    Channel channel(sched, WifiParams::b11());
    Node tx(sched, channel, 0, {0, 0}, Rng(1));
    Node rx(sched, channel, 1, {2, 0}, Rng(2));
    Node jammer(sched, channel, 2, {5, 5}, Rng(3));
    if (reset_on) {
      tx.mac().set_nav_rts_reset(true);
      rx.mac().set_nav_rts_reset(true);
    }
    // Dead inflated RTS every 25 ms.
    Frame rts;
    rts.type = FrameType::kRts;
    rts.ta = 2;
    rts.ra = 99;
    rts.duration = milliseconds(20);
    std::function<void()> jam = [&] {
      if (!jammer.phy().transmitting()) {
        jammer.phy().transmit(rts, WifiParams::b11().rts_tx_time());
      }
      sched.after(milliseconds(25), jam);
    };
    sched.at(0, jam);
    // Saturated data from tx to rx.
    int delivered = 0;
    struct Sink : PacketSink {
      int* n;
      void receive(const PacketPtr&) override { ++*n; }
    } sink;
    sink.n = &delivered;
    rx.register_sink(1, &sink);
    std::int64_t seq = 0;
    std::function<void()> feed = [&] {
      while (tx.mac().queue_size() < 5) {
        auto p = make_packet();
        p->flow_id = 1;
        p->size_bytes = 1064;
        p->dst_node = 1;
        p->seq = seq++;
        tx.send_packet(p);
      }
      sched.after(milliseconds(5), feed);
    };
    sched.at(0, feed);
    sched.run_until(seconds(2));
    return delivered;
  };
  const int without = victim_goodput(false);
  const int with = victim_goodput(true);
  // Under saturation most dead RTSs collide with ongoing frames and never
  // arm a NAV; the reset rule reclaims the ones that land in idle gaps
  // (each worth a 20 ms reservation) — a solid double-digit gain.
  EXPECT_GT(with, 1.1 * without)
      << "reset rule reclaims the airtime dead RTS reservations stole";
}

}  // namespace
}  // namespace g80211
