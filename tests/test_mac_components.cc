// MAC building blocks in isolation: NAV update rule, backoff/CW state
// machine, duplicate detection.
#include <gtest/gtest.h>

#include "src/mac/backoff.h"
#include "src/mac/dedup.h"
#include "src/phy/nav.h"

namespace g80211 {
namespace {

// --- NAV -------------------------------------------------------------------

TEST(Nav, StartsIdle) {
  Nav nav;
  EXPECT_FALSE(nav.busy(0));
  EXPECT_EQ(nav.expiry(), 0);
}

TEST(Nav, UpdateSetsExpiry) {
  Nav nav;
  EXPECT_TRUE(nav.update(microseconds(100), microseconds(500)));
  EXPECT_TRUE(nav.busy(microseconds(300)));
  EXPECT_TRUE(nav.busy(microseconds(599)));
  EXPECT_FALSE(nav.busy(microseconds(600)));  // expiry is exclusive
}

TEST(Nav, OnlyLaterExpiryWins) {
  // The IEEE rule NAV inflation exploits: updates only apply when they
  // extend the reservation.
  Nav nav;
  EXPECT_TRUE(nav.update(0, microseconds(1000)));
  EXPECT_FALSE(nav.update(microseconds(100), microseconds(500)));  // 600 < 1000
  EXPECT_EQ(nav.expiry(), microseconds(1000));
  EXPECT_TRUE(nav.update(microseconds(100), microseconds(1500)));
  EXPECT_EQ(nav.expiry(), microseconds(1600));
}

TEST(Nav, ZeroDurationNeverBusies) {
  Nav nav;
  EXPECT_FALSE(nav.update(microseconds(50), 0));
  EXPECT_FALSE(nav.busy(microseconds(50)));
}

TEST(Nav, ResetClears) {
  Nav nav;
  nav.update(0, seconds(1));
  nav.reset();
  EXPECT_FALSE(nav.busy(1));
}

// --- Backoff ---------------------------------------------------------------

TEST(Backoff, StartsAtCwMin) {
  Backoff b(31, 1023);
  EXPECT_EQ(b.cw(), 31);
}

TEST(Backoff, DoublesOnFailureUpToMax) {
  Backoff b(31, 1023);
  const int expected[] = {63, 127, 255, 511, 1023, 1023, 1023};
  for (const int e : expected) {
    b.fail();
    EXPECT_EQ(b.cw(), e);
  }
}

TEST(Backoff, ResetReturnsToMin) {
  Backoff b(31, 1023);
  b.fail();
  b.fail();
  b.reset();
  EXPECT_EQ(b.cw(), 31);
}

TEST(Backoff, ClampedFailureKeepsWindow) {
  // The fake-ACK testbed-emulation knob: CW pinned at its current value.
  Backoff b(31, 1023);
  b.fail(/*clamped=*/true);
  EXPECT_EQ(b.cw(), 31);
  b.fail(false);
  b.fail(true);
  EXPECT_EQ(b.cw(), 63);
}

TEST(Backoff, DrawsWithinWindow) {
  Backoff b(31, 1023);
  Rng rng(17);
  for (int i = 0; i < 2000; ++i) {
    const int slots = b.draw(rng);
    ASSERT_GE(slots, 0);
    ASSERT_LE(slots, 31);
  }
}

TEST(Backoff, AverageCwTracksDraws) {
  Backoff b(31, 1023);
  Rng rng(18);
  b.draw(rng);  // cw = 31
  b.fail();
  b.draw(rng);  // cw = 63
  EXPECT_DOUBLE_EQ(b.average_cw(), 47.0);
  EXPECT_EQ(b.draws(), 2);
}

TEST(Backoff, AverageCwBeforeAnyDrawIsCwMin) {
  Backoff b(15, 1023);
  EXPECT_DOUBLE_EQ(b.average_cw(), 15.0);
}

TEST(Backoff, HistogramRecordsWindowPerDraw) {
  Backoff b(31, 1023);
  Rng rng(19);
  b.draw(rng);
  b.draw(rng);
  b.fail();
  b.draw(rng);
  const auto& h = b.cw_histogram();
  EXPECT_EQ(h.at(31), 2);
  EXPECT_EQ(h.at(63), 1);
}

TEST(Backoff, DrawDistributionIsRoughlyUniform) {
  Backoff b(7, 1023);
  Rng rng(20);
  int counts[8] = {0};
  const int n = 80000;
  for (int i = 0; i < n; ++i) ++counts[b.draw(rng)];
  for (int v = 0; v <= 7; ++v) {
    EXPECT_NEAR(static_cast<double>(counts[v]) / n, 1.0 / 8.0, 0.01) << v;
  }
}

// --- Dedup -----------------------------------------------------------------

TEST(Dedup, FreshFrameIsNotDuplicate) {
  DedupCache d;
  EXPECT_FALSE(d.is_duplicate(1, 10, false));
}

TEST(Dedup, RetryWithSameSeqIsDuplicate) {
  DedupCache d;
  EXPECT_FALSE(d.is_duplicate(1, 10, false));
  EXPECT_TRUE(d.is_duplicate(1, 10, true));
  EXPECT_TRUE(d.is_duplicate(1, 10, true));  // still duplicate
}

TEST(Dedup, RetryOfUnseenSeqIsNotDuplicate) {
  // A retry whose first transmission we missed must be delivered.
  DedupCache d;
  EXPECT_FALSE(d.is_duplicate(1, 10, true));
}

TEST(Dedup, NonRetryWithSameSeqIsNotDuplicate) {
  // Sequence numbers wrap in real 802.11; without the retry bit a repeat
  // seq is a new frame.
  DedupCache d;
  EXPECT_FALSE(d.is_duplicate(1, 10, false));
  EXPECT_FALSE(d.is_duplicate(1, 10, false));
}

TEST(Dedup, CacheIsPerTransmitter) {
  DedupCache d;
  EXPECT_FALSE(d.is_duplicate(1, 10, false));
  EXPECT_FALSE(d.is_duplicate(2, 10, true));  // different TA, unseen
}

TEST(Dedup, NewSeqReplacesCacheEntry) {
  DedupCache d;
  EXPECT_FALSE(d.is_duplicate(1, 10, false));
  EXPECT_FALSE(d.is_duplicate(1, 11, false));
  EXPECT_FALSE(d.is_duplicate(1, 10, true)) << "older seq fell out of cache";
}

}  // namespace
}  // namespace g80211
