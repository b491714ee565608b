// Frame tracing through the capture tap (src/capture/capture_tap.h) and
// the fairness statistics added for the evaluation tooling.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/analysis/stats.h"
#include "src/capture/capture_tap.h"
#include "src/net/node.h"
#include "src/phy/channel.h"

namespace g80211 {
namespace {

class TraceTest : public ::testing::Test {
 protected:
  TraceTest() : channel_(sched_, WifiParams::b11()) {}
  Node& add_node(Position pos) {
    const int id = static_cast<int>(nodes_.size());
    nodes_.push_back(
        std::make_unique<Node>(sched_, channel_, id, pos, Rng(800 + id)));
    return *nodes_.back();
  }
  PacketPtr packet() {
    auto p = make_packet();
    p->flow_id = 1;
    p->size_bytes = 1064;
    p->src_node = 0;
    p->dst_node = 1;
    return p;
  }
  // Record every frame `node` sees into frames_.
  void trace(Node& node) {
    tap_frames(node.mac(),
               [this](const CapturedFrame& f) { frames_.push_back(f); });
  }
  std::int64_t count(bool (*pred)(const CapturedFrame&)) const {
    return std::count_if(frames_.begin(), frames_.end(), pred);
  }
  Scheduler sched_;
  Channel channel_;
  std::vector<std::unique_ptr<Node>> nodes_;
  std::vector<CapturedFrame> frames_;
};

TEST_F(TraceTest, CapturesFullExchange) {
  Node& tx = add_node({0, 0});
  add_node({5, 0});
  Node& observer = add_node({5, 5});
  trace(observer);
  tx.send_packet(packet());
  sched_.run_until(seconds(1));

  ASSERT_EQ(frames_.size(), 4u);  // RTS CTS DATA ACK
  EXPECT_EQ(frames_[0].type, FrameType::kRts);
  EXPECT_EQ(frames_[0].ta, 0);
  EXPECT_EQ(frames_[3].type, FrameType::kAck);
  EXPECT_FALSE(frames_[0].corrupted);
  EXPECT_FALSE(frames_[0].tx) << "a bystander only overhears";
  EXPECT_LT(frames_[0].end, frames_[1].start);
}

TEST_F(TraceTest, LiveSinkAndCount) {
  Node& tx = add_node({0, 0});
  add_node({5, 0});
  Node& observer = add_node({5, 5});
  int live = 0;
  tap_frames(observer.mac(), [&live](const CapturedFrame&) { ++live; });
  trace(observer);  // a second tap chains after the first
  tx.send_packet(packet());
  tx.send_packet(packet());
  sched_.run_until(seconds(1));
  EXPECT_EQ(live, 8);
  EXPECT_EQ(count([](const CapturedFrame& f) {
              return f.type == FrameType::kData;
            }),
            2);
}

TEST_F(TraceTest, TapsOwnTransmissions) {
  Node& tx = add_node({0, 0});
  add_node({5, 0});
  trace(tx);
  tx.send_packet(packet());
  sched_.run_until(seconds(1));

  // The sender keys RTS and DATA and hears CTS and ACK.
  ASSERT_EQ(frames_.size(), 4u);
  EXPECT_TRUE(frames_[0].tx);
  EXPECT_EQ(frames_[0].true_tx, tx.id());
  EXPECT_EQ(frames_[0].rssi_dbm, 0.0);
  EXPECT_FALSE(frames_[1].tx);
  EXPECT_TRUE(frames_[2].tx);
  EXPECT_EQ(frames_[2].type, FrameType::kData);
  EXPECT_EQ(frames_[2].flow_id, 1);
  EXPECT_FALSE(frames_[3].tx);
}

TEST_F(TraceTest, DumpAndToStringContainEssentials) {
  Node& tx = add_node({0, 0});
  add_node({5, 0});
  Node& observer = add_node({5, 5});
  trace(observer);
  tx.send_packet(packet());
  sched_.run_until(seconds(1));

  std::string out;
  for (const CapturedFrame& f : frames_) out += trace_line(f) + "\n";
  EXPECT_NE(out.find("RTS"), std::string::npos);
  EXPECT_NE(out.find("ACK"), std::string::npos);
  EXPECT_NE(out.find("dur="), std::string::npos);
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 4);

  // The layout is pinned for downstream greps.
  CapturedFrame f;
  f.start = microseconds(1500);
  f.type = FrameType::kData;
  f.ta = 2;
  f.ra = 7;
  f.duration = microseconds(314);
  f.seq = 42;
  f.retry = true;
  f.more_frags = true;
  EXPECT_EQ(trace_line(f),
            "    0.001500s DATA ta=2   ra=7   dur=   314.0us seq=42    retry "
            "frag+");
}

TEST_F(TraceTest, MarksCorruptedFrames) {
  Node& tx = add_node({0, 0});
  add_node({5, 0});
  Node& observer = add_node({5, 5});
  tx.mac().set_rts_cts(false);
  channel_.error_model().set_link_ber(0, 2, 1.0);  // corrupt at the observer
  trace(observer);
  tx.send_packet(packet());
  sched_.run_until(seconds(1));
  EXPECT_GT(count([](const CapturedFrame& f) { return f.corrupted; }), 0);
  std::string out;
  for (const CapturedFrame& f : frames_) out += trace_line(f);
  EXPECT_NE(out.find("CORRUPT"), std::string::npos);
}

TEST(JainFairness, KnownValues) {
  EXPECT_DOUBLE_EQ(jain_fairness({1, 1, 1, 1}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness({1, 0, 0, 0}), 0.25);
  EXPECT_NEAR(jain_fairness({4, 1}), 25.0 / 34.0, 1e-12);
  EXPECT_DOUBLE_EQ(jain_fairness({}), 0.0);
  EXPECT_DOUBLE_EQ(jain_fairness({0, 0}), 1.0);
  EXPECT_DOUBLE_EQ(jain_fairness({5}), 1.0);
}

TEST(JainFairness, ScaleInvariant) {
  EXPECT_NEAR(jain_fairness({1, 2, 3}), jain_fairness({10, 20, 30}), 1e-12);
}

}  // namespace
}  // namespace g80211
