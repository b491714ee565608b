// Unit tests for the discrete-event kernel: ordering, cancellation,
// determinism, timers, the pooled event slab and its generation handles,
// and the ready queue's heap/wheel mode switches.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "src/sim/dary_heap.h"
#include "src/sim/inplace_function.h"
#include "src/sim/scheduler.h"
#include "src/sim/timing_wheel.h"

namespace g80211 {
namespace {

// A bare ready-queue entry for driving the containers directly.
struct Item {
  Time when = 0;
  std::uint64_t seq = 0;
};
struct ItemBefore {
  bool operator()(const Item& a, const Item& b) const {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }
};
using ItemWheel = TimingWheel<Item, ItemBefore>;
using ItemHeap = DaryHeap<Item, ItemBefore>;

// The scheduler-facing cases run once, on the scheduler's one ready queue
// (a 4-ary heap that spills into a hierarchical timing wheel above 64
// entries). The one-valued parameter keeps each case's ctest id stable
// (Backends/SchedulerSuite.<case>/TimingWheel); gtest spells the
// parameter's bytes into that id, so the value stays 1.
enum class Queue { kTimingWheel = 1 };
class SchedulerSuite : public ::testing::TestWithParam<Queue> {};

INSTANTIATE_TEST_SUITE_P(Backends, SchedulerSuite,
                         ::testing::Values(Queue::kTimingWheel),
                         [](const ::testing::TestParamInfo<Queue>&) {
                           return "TimingWheel";
                         });

TEST_P(SchedulerSuite, RunsEventsInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.at(microseconds(30), [&] { order.push_back(3); });
  s.at(microseconds(10), [&] { order.push_back(1); });
  s.at(microseconds(20), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST_P(SchedulerSuite, TiesBreakInInsertionOrder) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.at(microseconds(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[i], i);
}

TEST_P(SchedulerSuite, NowAdvancesToEventTime) {
  Scheduler s;
  Time seen = -1;
  s.at(milliseconds(7), [&] { seen = s.now(); });
  s.run();
  EXPECT_EQ(seen, milliseconds(7));
  EXPECT_EQ(s.now(), milliseconds(7));
}

TEST_P(SchedulerSuite, RunUntilStopsAtHorizonAndAdvancesClock) {
  Scheduler s;
  int fired = 0;
  s.at(seconds(1), [&] { ++fired; });
  s.at(seconds(3), [&] { ++fired; });
  s.run_until(seconds(2));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(s.now(), seconds(2));
  s.run_until(seconds(4));
  EXPECT_EQ(fired, 2);
}

TEST_P(SchedulerSuite, EventsScheduledDuringRunExecute) {
  Scheduler s;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) s.after(microseconds(1), recurse);
  };
  s.after(microseconds(1), recurse);
  s.run();
  EXPECT_EQ(depth, 5);
}

TEST_P(SchedulerSuite, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  EventId id = s.at(microseconds(10), [&] { ran = true; });
  EXPECT_TRUE(id.pending());
  id.cancel();
  EXPECT_FALSE(id.pending());
  s.run();
  EXPECT_FALSE(ran);
}

TEST_P(SchedulerSuite, CancelAtSameTimestampBeforeDispatchWorks) {
  // An event at time T cancelling another event also at time T (scheduled
  // later in insertion order) must win — the MAC relies on this for
  // same-instant busy-edge vs timer races.
  Scheduler s;
  bool second_ran = false;
  EventId second;
  s.at(microseconds(5), [&] { second.cancel(); });
  second = s.at(microseconds(5), [&] { second_ran = true; });
  s.run();
  EXPECT_FALSE(second_ran);
}

TEST_P(SchedulerSuite, PendingReflectsFiredState) {
  Scheduler s;
  EventId id = s.at(microseconds(1), [] {});
  s.run();
  EXPECT_FALSE(id.pending());
}

TEST_P(SchedulerSuite, ExecutedCountsOnlyLiveEvents) {
  Scheduler s;
  EventId a = s.at(microseconds(1), [] {});
  s.at(microseconds(2), [] {});
  a.cancel();
  s.run();
  EXPECT_EQ(s.executed(), 1u);
}

TEST_P(SchedulerSuite, CancelAfterFireIsANoOp) {
  Scheduler s;
  int runs = 0;
  EventId id = s.at(microseconds(1), [&] { ++runs; });
  s.run();
  EXPECT_EQ(runs, 1);
  EXPECT_FALSE(id.pending());
  id.cancel();  // stale handle: must not disturb anything
  EXPECT_FALSE(id.pending());
  EXPECT_EQ(s.executed(), 1u);
  // The fired slot is reusable; the stale handle must not touch its new
  // occupant.
  bool ran = false;
  EventId fresh = s.at(microseconds(2), [&] { ran = true; });
  id.cancel();
  EXPECT_TRUE(fresh.pending());
  s.run();
  EXPECT_TRUE(ran);
}

TEST_P(SchedulerSuite, PendingAcrossGenerationReuseOfPooledSlot) {
  Scheduler s;
  EventId a = s.at(microseconds(1), [] {});
  a.cancel();  // frees the slot immediately
  EXPECT_FALSE(a.pending());
  // Only one slot was ever allocated, so b reuses a's slot at a fresh
  // generation.
  EventId b = s.at(microseconds(2), [] {});
  EXPECT_EQ(s.pool_slots(), 1u);
  EXPECT_FALSE(a.pending()) << "stale handle must not match the reused slot";
  EXPECT_TRUE(b.pending());
  a.cancel();  // stale cancel must not kill b
  EXPECT_TRUE(b.pending());
  s.run();
  EXPECT_FALSE(b.pending());
  EXPECT_EQ(s.executed(), 1u);
}

TEST_P(SchedulerSuite, CancelledPendingCountsTombstones) {
  Scheduler s;
  EventId a = s.at(microseconds(10), [] {});
  s.at(microseconds(20), [] {});
  EXPECT_EQ(s.cancelled_pending(), 0u);
  EXPECT_EQ(s.pending(), 2u);
  a.cancel();
  EXPECT_EQ(s.cancelled_pending(), 1u) << "tombstone stays queued until popped";
  EXPECT_EQ(s.queued(), 2u);
  EXPECT_EQ(s.pending(), 1u);
  s.run();
  EXPECT_EQ(s.cancelled_pending(), 0u);
  EXPECT_EQ(s.queued(), 0u);
}

TEST_P(SchedulerSuite, MassCancelStressDoesNotGrowPool) {
  Scheduler s;
  constexpr int kRounds = 50;
  constexpr std::size_t kBatch = 256;
  for (int round = 0; round < kRounds; ++round) {
    std::vector<EventId> ids;
    for (std::size_t i = 0; i < kBatch; ++i) {
      ids.push_back(s.after(microseconds(static_cast<Time>(i + 1)), [] {}));
    }
    EXPECT_EQ(s.pending(), kBatch);
    for (EventId& id : ids) id.cancel();
    EXPECT_EQ(s.pending(), 0u);
    EXPECT_EQ(s.cancelled_pending(), kBatch);
    // Slots are recycled at cancel time: the slab never exceeds the
    // high-water mark of concurrently pending events.
    EXPECT_LE(s.pool_slots(), kBatch);
    s.run();  // drains the tombstones without executing anything
    EXPECT_EQ(s.cancelled_pending(), 0u);
    EXPECT_EQ(s.queued(), 0u);
  }
  EXPECT_EQ(s.executed(), 0u);
  EXPECT_LE(s.pool_slots(), kBatch);
}

TEST_P(SchedulerSuite, GoldenEventOrderTrace) {
  // Golden trace locking in dispatch order across engine refactors:
  // same-time ties fire in insertion order, cancelled events (including a
  // same-instant cancel) drop out, and an event scheduled *during* the
  // current instant runs after everything already queued at that instant.
  Scheduler s;
  std::vector<std::string> trace;
  s.at(microseconds(20), [&] { trace.push_back("c1"); });
  s.at(microseconds(10), [&] {
    trace.push_back("a1");
    s.after(0, [&] { trace.push_back("a1-nested"); });
    s.at(microseconds(15), [&] { trace.push_back("b"); });
  });
  EventId dead = s.at(microseconds(10), [&] { trace.push_back("dead"); });
  s.at(microseconds(10), [&] { trace.push_back("a2"); });
  dead.cancel();
  s.at(microseconds(20), [&] { trace.push_back("c2"); });
  Timer t(s, [&] { trace.push_back("timer"); });
  t.start(microseconds(17));
  s.run();
  EXPECT_EQ(trace, (std::vector<std::string>{"a1", "a2", "a1-nested", "b",
                                             "timer", "c1", "c2"}));
}

// Small schedules run as the ready queue's heap. To keep the wheel's own
// mechanics under test, the *InWheelMode cases re-run a schedule after
// pre-loading the (fresh) scheduler past the spill threshold with
// cancelled fillers. One filler at time 0 pins the spill's cursor at tick
// 0, where a fresh wheel's cursor starts, so the test's own deadlines are
// placed exactly as before; the rest sit at `after`, past the test's last
// deadline, and hold the queue above the collapse threshold until then.
void spill_with_fillers(Scheduler& s, Time after) {
  s.at(0, [] {}).cancel();
  for (std::size_t i = 0; i < ItemWheel::kSpillAbove; ++i) {
    s.at(after, [] {}).cancel();
  }
}

// After a run that started from spill_with_fillers(): the queue ran the
// schedule in wheel mode and collapsed as the fillers drained.
void expect_ran_in_wheel_mode(const Scheduler& s) {
  const ReadyQueueStats& q = s.ready_queue_stats();
  EXPECT_GE(q.spills, 1u);
  EXPECT_GE(q.collapses, 1u);
}

// Deadlines spanning every wheel level — sub-tick, level 0, the higher
// windows, and far past the 2^42 ns span (overflow) — plus events
// scheduled mid-run.
void run_cross_level_times(Scheduler& s) {
  std::vector<int> order;
  const Time times[] = {
      nanoseconds(1),   nanoseconds(900),  microseconds(2),
      microseconds(90), milliseconds(3),   milliseconds(40),
      seconds(2),       seconds(70),       seconds(3600),
      seconds(5400),  // ~90 min: beyond the wheel span, overflow heap
  };
  int tag = 0;
  for (Time t : times) {
    const int id = tag++;
    s.at(t, [&order, id] { order.push_back(id); });
  }
  // Same-time tie at an already-used slot plus a nested reschedule.
  s.at(milliseconds(3), [&] {
    order.push_back(100);
    s.after(seconds(30), [&] { order.push_back(101); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 100, 5, 6, 101, 7, 8, 9}));
}

TEST_P(SchedulerSuite, CrossLevelTimesFireInOrder) {
  Scheduler s;
  run_cross_level_times(s);
}

TEST_P(SchedulerSuite, CrossLevelTimesFireInOrderInWheelMode) {
  Scheduler s;
  spill_with_fillers(s, seconds(9000));
  run_cross_level_times(s);
  expect_ran_in_wheel_mode(s);
}

// A lone far-future event forces the wheel to skip a long empty stretch
// (cursor jumps, not tick-by-tick crawling).
void run_idle_gap_then_late_event(Scheduler& s) {
  Time fired_at = -1;
  s.at(seconds(7200), [&] { fired_at = s.now(); });
  s.run();
  EXPECT_EQ(fired_at, seconds(7200));
  EXPECT_EQ(s.now(), seconds(7200));
}

TEST_P(SchedulerSuite, IdleGapThenLateEventFires) {
  Scheduler s;
  run_idle_gap_then_late_event(s);
}

TEST_P(SchedulerSuite, IdleGapThenLateEventFiresInWheelMode) {
  Scheduler s;
  spill_with_fillers(s, seconds(9000));
  run_idle_gap_then_late_event(s);
  expect_ran_in_wheel_mode(s);
}

// Regression: B lands one full level-0 window ahead of the cursor (tick
// delta exactly 256), parking it in a level-1 slot. A fires on the last
// tick of the window and schedules a nested event one tick past B. The
// cursor's step off the window edge must cascade the level-1 slot it
// enters, or the nested tick-257 entry leapfrogs B (tick 256).
void run_coarse_window_boundary(Scheduler& s) {
  std::vector<int> order;
  s.at(nanoseconds(262000), [&] {  // tick 255
    order.push_back(0);
    s.at(nanoseconds(263415), [&] { order.push_back(2); });  // tick 257
  });
  s.at(nanoseconds(263000), [&] { order.push_back(1); });  // tick 256
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
}

TEST_P(SchedulerSuite, CoarseWindowBoundaryDoesNotLeapfrogParkedEntry) {
  Scheduler s;
  run_coarse_window_boundary(s);
}

TEST_P(SchedulerSuite,
       CoarseWindowBoundaryDoesNotLeapfrogParkedEntryInWheelMode) {
  Scheduler s;
  spill_with_fillers(s, milliseconds(1));
  run_coarse_window_boundary(s);
  expect_ran_in_wheel_mode(s);
  // The window-edge step cascaded B's level-1 slot.
  EXPECT_GE(s.ready_queue_stats().cascades, 1u);
}

TEST(SchedulerEquivalence, BackendsDispatchIdenticalOrder) {
  // The dispatch specification on a pseudo-random schedule (bursty times
  // from ns to hours, nested re-scheduling, interleaved cancels): exactly
  // the uncancelled events fire, sorted by (when, order of scheduling).
  Scheduler s;
  // Every event ever scheduled, indexed by its order of scheduling.
  std::vector<Time> when;
  std::vector<bool> cancelled;
  std::vector<std::size_t> fired;
  std::uint64_t state = 0x2545F4914F6CDD1DULL;
  auto next = [&state] {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  std::vector<std::pair<EventId, std::size_t>> cancellable;
  for (int i = 0; i < 4000; ++i) {
    // Mix scales so every wheel level and the overflow heap see traffic.
    const std::uint64_t r = next();
    Time t = 0;
    switch (r % 4) {
      case 0: t = nanoseconds(static_cast<Time>(r % 2000)); break;
      case 1: t = microseconds(static_cast<Time>(r % 5000)); break;
      case 2: t = milliseconds(static_cast<Time>(r % 90000)); break;
      default: t = seconds(static_cast<Time>(r % 9000)); break;
    }
    const std::size_t id = when.size();
    when.push_back(t);
    cancelled.push_back(false);
    EventId e = s.at(t, [&s, &when, &cancelled, &fired, id, i] {
      fired.push_back(id);
      if (i % 7 == 0) {
        const Time delay = microseconds(static_cast<Time>(i) + 1);
        const std::size_t nested = when.size();
        when.push_back(s.now() + delay);
        cancelled.push_back(false);
        s.after(delay, [&fired, nested] { fired.push_back(nested); });
      }
    });
    if (r % 5 == 0) cancellable.emplace_back(e, id);
  }
  for (std::size_t i = 0; i < cancellable.size(); i += 2) {
    cancellable[i].first.cancel();
    cancelled[cancellable[i].second] = true;
  }
  s.run();

  std::vector<std::size_t> expected;
  for (std::size_t id = 0; id < when.size(); ++id) {
    if (!cancelled[id]) expected.push_back(id);
  }
  std::stable_sort(expected.begin(), expected.end(),
                   [&when](std::size_t a, std::size_t b) {
                     return when[a] < when[b];
                   });
  EXPECT_GT(when.size(), 4000u) << "nested events were scheduled";
  ASSERT_EQ(fired.size(), expected.size());
  EXPECT_EQ(fired, expected);
  // The schedule crossed the queue's spill threshold both ways.
  EXPECT_GE(s.ready_queue_stats().spills, 1u);
  EXPECT_GE(s.ready_queue_stats().collapses, 1u);
}

// The ready queue against the plain heap, below the scheduler: seeded
// random push/pop sequences whose size swings repeatedly across both mode
// thresholds, with deadlines at every wheel level and in overflow, pushes
// just behind the cursor right after each spill, and equal-`when` ties.
// Like the scheduler, pushes never go below the last popped time.
TEST(ReadyQueueDifferential, WheelPopsInHeapOrderAcrossModeSwitches) {
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    ItemWheel wheel;
    ItemHeap heap;
    std::uint64_t state = 0x9E3779B97F4A7C15ULL * seed;
    auto next = [&state] {
      state ^= state << 13;
      state ^= state >> 7;
      state ^= state << 17;
      return state;
    };
    Time now = 0;
    Time last_when = 0;
    std::uint64_t seq = 0;
    // The mode the thresholds imply, modelled apart from the wheel.
    bool wheel_mode = false;
    std::uint64_t want_spills = 0;
    std::uint64_t want_collapses = 0;
    std::uint64_t behind_pushes = 0;
    // Returns true when this push should spill the wheel.
    auto push = [&](Time when) {
      const Item x{when, seq++};
      wheel.push(x);
      heap.push(x);
      last_when = when;
      if (wheel_mode || heap.size() <= ItemWheel::kSpillAbove) return false;
      wheel_mode = true;
      ++want_spills;
      return true;
    };
    // Pops both; true when they agree on the entry.
    auto pop_matches = [&] {
      const Item w = wheel.top();
      const Item h = heap.top();
      wheel.pop();
      heap.pop();
      now = h.when;
      if (wheel_mode && heap.size() < ItemWheel::kCollapseBelow) {
        wheel_mode = false;
        ++want_collapses;
      }
      return w.when == h.when && w.seq == h.seq;
    };
    // Deadline offsets within one 1.024 us tick, within wheel levels 0..3
    // (up to 2^18, 2^26, 2^34, 2^42 ns ahead), in overflow, or tied with
    // the last push.
    auto deadline = [&]() -> Time {
      const std::uint64_t r = next();
      const std::uint64_t v = r >> 3;
      switch (r % 7) {
        case 0: return now + static_cast<Time>(v % 1024);
        case 1: return now + static_cast<Time>(v % (std::uint64_t{1} << 18));
        case 2: return now + static_cast<Time>(v % (std::uint64_t{1} << 26));
        case 3: return now + static_cast<Time>(v % (std::uint64_t{1} << 34));
        case 4: return now + static_cast<Time>(v % (std::uint64_t{1} << 42));
        case 5:
          return now + static_cast<Time>((std::uint64_t{1} << 42) +
                                         v % (std::uint64_t{1} << 44));
        default: return last_when >= now ? last_when : now;
      }
    };
    for (int cycle = 0; cycle < 60; ++cycle) {
      // Grow past the spill threshold (3 pushes per pop on average)...
      const std::size_t high = ItemWheel::kSpillAbove + 1 + next() % 120;
      while (heap.size() < high) {
        if (heap.empty() || next() % 4 != 0) {
          if (push(deadline())) {
            // The spill put the cursor at the earliest entry's tick. Push
            // into the tick just behind it, at its first instant, and tied
            // with the earliest entry itself.
            const Time min_when = heap.top().when;
            const Time cursor_at = (min_when >> 10) << 10;
            if (cursor_at - 1 >= now) {
              push(cursor_at - 1);
              ++behind_pushes;
            }
            push(cursor_at >= now ? cursor_at : now);
            push(min_when);
          }
        } else {
          ASSERT_TRUE(pop_matches());
        }
        ASSERT_EQ(wheel.size(), heap.size());
      }
      // ...then shrink below the collapse threshold, sometimes to empty.
      const std::size_t low = next() % ItemWheel::kCollapseBelow;
      while (heap.size() > low) {
        if (next() % 4 == 0) {
          push(deadline());
        } else {
          ASSERT_TRUE(pop_matches());
        }
        ASSERT_EQ(wheel.size(), heap.size());
      }
    }
    while (!heap.empty()) ASSERT_TRUE(pop_matches());
    EXPECT_TRUE(wheel.empty());
    EXPECT_EQ(wheel.stats().spills, want_spills);
    EXPECT_EQ(wheel.stats().collapses, want_collapses);
    EXPECT_GE(want_spills, 60u);
    EXPECT_GE(want_collapses, 60u);
    EXPECT_GT(behind_pushes, 0u);
    EXPECT_GT(wheel.stats().cascades, 0u);
  }
}

TEST(InplaceFunction, MoveTransfersTheCallable) {
  int hits = 0;
  InplaceFunction<64> f([&hits] { ++hits; });
  InplaceFunction<64> g(std::move(f));
  EXPECT_FALSE(static_cast<bool>(f));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(g));
  g();
  EXPECT_EQ(hits, 1);
  InplaceFunction<64> h;
  h = std::move(g);
  h();
  EXPECT_EQ(hits, 2);
}

TEST(InplaceFunction, DestroysCaptureExactlyOnce) {
  auto token = std::make_shared<int>(7);
  EXPECT_EQ(token.use_count(), 1);
  {
    InplaceFunction<64> f([token] { (void)*token; });
    EXPECT_EQ(token.use_count(), 2);
    InplaceFunction<64> g(std::move(f));
    EXPECT_EQ(token.use_count(), 2) << "move must not duplicate the capture";
    g.reset();
    EXPECT_EQ(token.use_count(), 1);
  }
  EXPECT_EQ(token.use_count(), 1);
}

TEST_P(SchedulerSuite, TimerStartCancelRestart) {
  Scheduler s;
  int fired = 0;
  Timer t(s, [&] { ++fired; });
  t.start(microseconds(10));
  EXPECT_TRUE(t.pending());
  t.cancel();
  s.run();
  EXPECT_EQ(fired, 0);
  t.start(microseconds(10));
  s.run();
  EXPECT_EQ(fired, 1);
}

TEST_P(SchedulerSuite, TimerRestartSupersedesPreviousDeadline) {
  Scheduler s;
  std::vector<Time> fire_times;
  Timer t(s, [&] { fire_times.push_back(s.now()); });
  t.start(microseconds(10));
  t.start(microseconds(50));  // replaces the earlier deadline
  s.run();
  ASSERT_EQ(fire_times.size(), 1u);
  EXPECT_EQ(fire_times[0], microseconds(50));
}

TEST_P(SchedulerSuite, TimerDestructionCancelsPendingEvent) {
  Scheduler s;
  int fired = 0;
  {
    Timer t(s, [&] { ++fired; });
    t.start(microseconds(5));
    EXPECT_TRUE(t.pending());
  }
  s.run();
  EXPECT_EQ(fired, 0) << "a destroyed timer's event must not fire";
}

TEST_P(SchedulerSuite, TimerStartAtAbsoluteTime) {
  Scheduler s;
  Time fired_at = -1;
  Timer t(s, [&] { fired_at = s.now(); });
  s.at(microseconds(5), [&] { t.start_at(microseconds(42)); });
  s.run();
  EXPECT_EQ(fired_at, microseconds(42));
}

TEST(TimeHelpers, ConversionsRoundTrip) {
  EXPECT_EQ(microseconds(1), nanoseconds(1000));
  EXPECT_EQ(milliseconds(1), microseconds(1000));
  EXPECT_EQ(seconds(1), milliseconds(1000));
  EXPECT_DOUBLE_EQ(to_seconds(seconds(3)), 3.0);
  EXPECT_DOUBLE_EQ(to_micros(microseconds(17)), 17.0);
  EXPECT_DOUBLE_EQ(to_millis(milliseconds(9)), 9.0);
}

TEST(TimeHelpers, TxTimeRoundsUp) {
  // 1 bit at 11 Mbps = 90.909... ns -> 91 ns.
  EXPECT_EQ(tx_time(1, 11.0), 91);
  // 8736 bits at 11 Mbps = 794181.8 ns -> 794182.
  EXPECT_EQ(tx_time(8736, 11.0), 794182);
  // Exact division does not round up: 1000 bits at 1 Mbps = 1 ms.
  EXPECT_EQ(tx_time(1000, 1.0), microseconds(1000));
}

}  // namespace
}  // namespace g80211
