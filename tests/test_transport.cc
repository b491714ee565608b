// Transport layer: CBR pacing, UDP sink accounting, TCP sender/sink
// dynamics (slow start, fast retransmit, NewReno recovery, RTO backoff).
#include <gtest/gtest.h>

#include <vector>

#include "src/sim/scheduler.h"
#include "src/transport/cbr.h"
#include "src/transport/tcp_sender.h"
#include "src/transport/tcp_sink.h"
#include "src/transport/udp_sink.h"

namespace g80211 {
namespace {

TEST(Cbr, PacesAtConfiguredRate) {
  Scheduler sched;
  CbrSource::Config cfg;
  cfg.payload_bytes = 1024;
  cfg.rate_mbps = 8.192;  // exactly 1000 packets/s
  CbrSource src(sched, cfg, 1, 0, 1);
  std::vector<PacketPtr> out;
  src.send_to([&](PacketPtr p) { out.push_back(std::move(p)); });
  src.start(0);
  sched.run_until(seconds(1));
  EXPECT_NEAR(static_cast<double>(out.size()), 1000.0, 10.0);
  EXPECT_EQ(out[0]->size_bytes, 1024 + 40);
  EXPECT_EQ(out[5]->seq, 5);
}

TEST(Cbr, StopHaltsGeneration) {
  Scheduler sched;
  CbrSource::Config cfg;
  CbrSource src(sched, cfg, 1, 0, 1);
  int n = 0;
  src.send_to([&](PacketPtr) { ++n; });
  src.start(0);
  src.stop(milliseconds(100));
  sched.run_until(seconds(1));
  const int at_100ms = n;
  sched.run_until(seconds(2));
  EXPECT_EQ(n, at_100ms);
  EXPECT_GT(n, 0);
}

TEST(UdpSink, CountsUniquePayloadAndGoodput) {
  Scheduler sched;
  UdpSink sink(sched, 1024);
  auto mk = [](std::int64_t seq) {
    auto p = make_packet();
    p->seq = seq;
    p->size_bytes = 1064;
    return p;
  };
  sink.receive(mk(0));
  sink.receive(mk(1));
  sink.receive(mk(1));  // transport-level duplicate
  sink.receive(mk(2));
  EXPECT_EQ(sink.packets(), 3);
  EXPECT_EQ(sink.duplicates(), 1);
  EXPECT_EQ(sink.payload_bytes_received(), 3 * 1024);
  sched.run_until(seconds(1));
  EXPECT_NEAR(sink.goodput_mbps(), 3 * 1024 * 8.0 / 1e6, 1e-9);
}

TEST(UdpSink, ResetStartsMeasurementWindow) {
  Scheduler sched;
  UdpSink sink(sched, 1024);
  auto p = make_packet();
  p->seq = 0;
  sink.receive(p);
  sched.run_until(seconds(1));
  sink.reset();
  EXPECT_EQ(sink.packets(), 0);
  EXPECT_DOUBLE_EQ(sink.goodput_mbps(), 0.0);
}

// --- A loopback harness for TCP: sender and sink joined by a configurable
// --- lossy, delayed pipe.
class TcpHarness {
 public:
  explicit TcpHarness(Time one_way = milliseconds(5),
                      TcpSender::Config cfg = TcpSender::Config{})
      : sender(sched, cfg, 1, 0, 1), sink(sched, 1, 1, 0, cfg.mss_bytes) {
    sender.output = [this, one_way](PacketPtr p) {
      if (drop_next_data > 0 && !p->tcp.is_ack) {
        --drop_next_data;
        ++dropped;
        return;
      }
      if (drop_seqs.count(p->tcp.seq) && !p->tcp.is_ack) {
        drop_seqs.erase(p->tcp.seq);
        ++dropped;
        return;
      }
      sched.after(one_way, [this, p] { sink.receive(p); });
    };
    sink.output = [this, one_way](PacketPtr p) {
      sched.after(one_way, [this, p] { sender.receive(p); });
    };
  }

  Scheduler sched;
  TcpSender sender;
  TcpSink sink;
  int drop_next_data = 0;
  std::set<std::int64_t> drop_seqs;
  int dropped = 0;
};

TEST(Tcp, LosslessDeliveryIsInOrderAndComplete) {
  TcpHarness h;
  h.sender.start(0);
  h.sched.run_until(seconds(2));
  EXPECT_EQ(h.sender.retransmissions(), 0);
  EXPECT_EQ(h.sender.timeouts(), 0);
  EXPECT_GT(h.sink.segments(), 1000);
  EXPECT_EQ(h.sink.next_expected(), h.sink.segments());
  EXPECT_EQ(h.sink.duplicates(), 0);
}

TEST(Tcp, SlowStartDoublesWindowPerRtt) {
  TcpHarness h(milliseconds(50));
  h.sender.start(0);
  // After ~3 RTTs of slow start from cwnd=2: roughly 2 -> 4 -> 8 -> 16.
  h.sched.run_until(milliseconds(320));
  EXPECT_GT(h.sender.cwnd(), 10.0);
  EXPECT_LT(h.sender.cwnd(), 40.0);
  EXPECT_EQ(h.sender.timeouts(), 0);
}

TEST(Tcp, SingleLossRecoversByFastRetransmit) {
  TcpHarness h;
  h.sender.start(0);
  h.sched.run_until(milliseconds(500));
  const auto timeouts_before = h.sender.timeouts();
  h.drop_next_data = 1;  // the next segment entering the pipe vanishes
  h.sched.run_until(seconds(2));
  EXPECT_EQ(h.sender.timeouts(), timeouts_before) << "no RTO for a single loss";
  EXPECT_GE(h.sender.retransmissions(), 1);
  EXPECT_EQ(h.sink.next_expected(), h.sink.segments());
}

TEST(Tcp, BurstLossRecoversViaNewRenoWithoutStall) {
  TcpHarness h;
  h.sender.start(0);
  h.sched.run_until(milliseconds(500));
  h.drop_next_data = 8;  // eight consecutive segments vanish
  const std::int64_t before = h.sink.segments();
  h.sched.run_until(seconds(3));
  // Recovery happened and the connection kept moving at a healthy rate.
  EXPECT_GE(h.sender.retransmissions(), 8);
  EXPECT_GT(h.sink.segments() - before, 2000) << "burst loss must not stall";
  EXPECT_EQ(h.sink.next_expected(), h.sink.segments());
}

TEST(Tcp, LossReducesCwnd) {
  TcpHarness h;
  h.sender.start(0);
  h.sched.run_until(milliseconds(500));
  const double before = h.sender.cwnd();
  h.drop_next_data = 1;
  h.sched.run_until(milliseconds(700));
  EXPECT_LT(h.sender.cwnd(), before);
}

TEST(Tcp, CompleteBlackoutBacksOffExponentially) {
  TcpHarness h;
  h.sender.start(0);
  h.sched.run_until(milliseconds(200));
  h.drop_next_data = 1000000;  // the pipe goes dark for data
  h.sched.run_until(seconds(10));
  EXPECT_GE(h.sender.timeouts(), 3);
  // RTO grew beyond its floor.
  EXPECT_GT(h.sender.rto(), milliseconds(400));
}

TEST(Tcp, RtoBackoffResetsOnNewAck) {
  TcpHarness h;
  h.sender.start(0);
  h.sched.run_until(milliseconds(200));
  h.drop_next_data = 50;
  h.sched.run_until(seconds(5));  // a few timeouts may occur
  const Time rto_after_recovery = h.sender.rto();
  // Once flowing again, the RTO must be back near its base.
  EXPECT_LT(rto_after_recovery, milliseconds(400));
  EXPECT_EQ(h.sink.next_expected(), h.sink.segments());
}

TEST(Tcp, AvgCwndIsTimeWeighted) {
  TcpHarness h;
  h.sender.start(0);
  h.sched.run_until(seconds(1));
  const double avg = h.sender.avg_cwnd();
  EXPECT_GT(avg, 1.0);
  EXPECT_LE(avg, 128.0);
  h.sender.reset_stats();
  h.sched.run_until(seconds(1) + milliseconds(1));
  // Right after a reset the average tracks the current window.
  EXPECT_NEAR(h.sender.avg_cwnd(), h.sender.cwnd(), h.sender.cwnd() * 0.5);
}

TEST(Tcp, MaxWindowCapsFlight) {
  TcpSender::Config cfg;
  cfg.max_window = 4;
  TcpHarness h(milliseconds(200), cfg);
  h.sender.start(0);
  h.sched.run_until(milliseconds(150));  // < 1 RTT: nothing acked yet
  EXPECT_LE(h.sender.segments_sent(), 4);
}

TEST(Tcp, SinkAcksCumulativelyThroughReordering) {
  Scheduler sched;
  TcpSink sink(sched, 1, 1, 0, 1024);
  std::vector<std::int64_t> acks;
  sink.output = [&](PacketPtr p) { acks.push_back(p->tcp.ack); };
  auto seg = [](std::int64_t seq) {
    auto p = make_packet();
    p->tcp.seq = seq;
    p->tcp.is_ack = false;
    p->size_bytes = 1064;
    return p;
  };
  sink.receive(seg(0));
  sink.receive(seg(2));  // hole at 1
  sink.receive(seg(3));
  sink.receive(seg(1));  // fills the hole
  ASSERT_EQ(acks.size(), 4u);
  EXPECT_EQ(acks[0], 1);
  EXPECT_EQ(acks[1], 1);  // dupack
  EXPECT_EQ(acks[2], 1);  // dupack
  EXPECT_EQ(acks[3], 4);  // cumulative jump
  EXPECT_EQ(sink.segments(), 4);
}

TEST(Tcp, SinkCountsDuplicateSegments) {
  Scheduler sched;
  TcpSink sink(sched, 1, 1, 0, 1024);
  sink.output = [](PacketPtr) {};
  auto seg = [](std::int64_t seq) {
    auto p = make_packet();
    p->tcp.seq = seq;
    p->size_bytes = 1064;
    return p;
  };
  sink.receive(seg(0));
  sink.receive(seg(0));
  EXPECT_EQ(sink.segments(), 1);
  EXPECT_EQ(sink.duplicates(), 1);
}

TEST(Tcp, SinkIgnoresAckPackets) {
  Scheduler sched;
  TcpSink sink(sched, 1, 1, 0, 1024);
  int emitted = 0;
  sink.output = [&](PacketPtr) { ++emitted; };
  auto p = make_packet();
  p->tcp.is_ack = true;
  sink.receive(p);
  EXPECT_EQ(emitted, 0);
  EXPECT_EQ(sink.segments(), 0);
}

TEST(Tcp, GoodputMatchesDeliveredPayload) {
  TcpHarness h;
  h.sender.start(0);
  h.sched.run_until(seconds(1));
  h.sink.reset();
  const std::int64_t before = h.sink.segments();
  h.sched.run_until(seconds(2));
  const double expect =
      static_cast<double>((h.sink.segments() - before) * 1024 * 8) / 1e6;
  EXPECT_NEAR(h.sink.goodput_mbps(), expect, 0.02 * expect + 0.01);
}

}  // namespace
}  // namespace g80211
