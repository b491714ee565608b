// Deterministic discrete-event scheduler.
//
// Events are closures ordered by (time, insertion sequence); ties break in
// insertion order so that a run is a pure function of (scenario, seed).
// Events can be cancelled through the EventId returned at scheduling time;
// cancellation is O(1) (a generation bump frees the slot immediately) and
// the stale queue entry is dropped when it surfaces: when its wheel slot
// drains, or when it reaches the front of the queue.
//
// Hot-path design: callbacks live in an EventPool slab (no shared_ptr, no
// std::function, no per-event heap allocation in steady state) and the
// ready queue (a 4-ary heap while small, a timing wheel while large; see
// timing_wheel.h) holds 16-byte ReadyEntry records, {time, seq · slot}.
// See docs/architecture.md, "Event engine".
#pragma once

#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/check.h"
#include "src/sim/event_pool.h"
#include "src/sim/hot.h"
#include "src/sim/time.h"
#include "src/sim/timing_wheel.h"

namespace g80211 {

class Scheduler;

// One ready-queue entry: the event's time and a key that packs its
// scheduling sequence number above its EventPool slot. Sixteen bytes, so
// an entry travels in two registers and four fill a heap node's children.
// The slot's generation is EventPool::generation_of(seq), so the entry
// tests its own liveness with one compare and carries no generation.
struct ReadyEntry {
  // 2^40 sequence numbers outlast ~30 hours of events at 10 M/s, and 2^24
  // slots are 16.7 M concurrently pending events (city peaks at 145).
  static constexpr int kSlotBits = 24;
  static constexpr int kSeqBits = 64 - kSlotBits;
  static constexpr std::uint64_t kSlotMask =
      (std::uint64_t{1} << kSlotBits) - 1;

  Time when = 0;
  std::uint64_t key = 0;

  // The packing helper: fails with G80211_CHECK when `seq` or `slot`
  // outgrows its field, in every build type.
  static ReadyEntry make(Time when, std::uint64_t seq, std::uint32_t slot) {
    G80211_CHECK(seq >> kSeqBits == 0 && "event sequence outgrew its field");
    G80211_CHECK(slot >> kSlotBits == 0 && "event slot outgrew its field");
    return ReadyEntry{when, seq << kSlotBits | slot};
  }
  std::uint64_t seq() const { return key >> kSlotBits; }
  std::uint32_t slot() const {
    return static_cast<std::uint32_t>(key & kSlotMask);
  }
};

// The scheduler's strict total order: (when, seq). seq sits above the slot
// in `key`, so ordering by key is ordering by seq. The queue's pop
// sequence is therefore the sorted order of its pushes regardless of its
// internal layout or mode — the determinism contract TimingWheel relies
// on. Two compares, not one: a single 128-bit compare of (when, key)
// measured slower in the heap (BM_ReadyQueueHold, 55 against 23 ns per
// pop and push at 1024 entries, 24 against 18 at 32), and no faster end
// to end; here `when` alone settles almost every comparison.
struct ReadyBefore {
  bool operator()(const ReadyEntry& a, const ReadyEntry& b) const {
    if (a.when != b.when) return a.when < b.when;
    return a.key < b.key;
  }
};

// The scheduler's one ready queue. Nothing in the engine reads this
// value: the type and SimConfig::scheduler_backend stay only because the
// repository benchmark (perfbench/) still names them.
enum class SchedulerBackend { kTimingWheel };

// Handle to a scheduled event; cheap to copy, safe to outlive the event
// (but not the scheduler it came from).
class EventId {
 public:
  EventId() = default;
  // True if the event is still pending (not run, not cancelled).
  bool pending() const;
  void cancel();

 private:
  friend class Scheduler;
  EventId(Scheduler* sched, std::uint32_t index, std::uint64_t gen)
      : sched_(sched), index_(index), gen_(gen) {}
  Scheduler* sched_ = nullptr;
  std::uint32_t index_ = 0;
  std::uint64_t gen_ = 0;
};

class Scheduler {
 public:
  Scheduler() = default;
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  Time now() const { return now_; }
  // True once instant `t` is over: every event due at or before `t` has
  // run. Inside an event at time t that instant is still open (more events
  // at t may follow); once run_until(h) with h >= t returns, it is closed.
  // Paused CBR sources replay exactly the ticks this calls elapsed.
  bool elapsed(Time t) const { return t < now_ || t <= closed_; }

  // Schedule `fn` to run at absolute time `at` (must be >= now(); checked
  // in every build type). Templated so the callable is constructed
  // directly in its pool slot — the capture is written once at the call
  // site instead of being moved through an EventFn temporary (two 80-byte
  // relocations per event).
  template <typename F>
  EventId at(Time when, F&& fn) {
    G80211_CHECK(when >= now_ && "cannot schedule into the past");
    const std::uint64_t seq = next_seq_++;
    const std::uint32_t index = pool_.alloc(seq, std::forward<F>(fn));
    queue_.push(Entry::make(when, seq, index));
    ++live_;
    return EventId(this, index, EventPool::generation_of(seq));
  }
  // Schedule `fn` to run `delay` ns from now.
  template <typename F>
  EventId after(Time delay, F&& fn) {
    return at(now_ + delay, std::forward<F>(fn));
  }

  // Run every event with time <= horizon. The clock ends at `horizon`.
  // Hot root: the event drain is the simulator's main loop, and the AST
  // analyzer walks the packet path from here (src/sim/hot.h).
  G80211_HOT void run_until(Time horizon);
  // Run until no events remain.
  void run();

  // Number of events executed so far (diagnostics).
  std::uint64_t executed() const { return executed_; }
  // Number of events currently queued (including tombstones).
  std::size_t queued() const { return queue_.size(); }
  // Live events currently queued (scheduled, unfired, uncancelled).
  std::size_t pending() const { return live_; }
  // Cancelled tombstones still sitting in the queue. The queue drops them
  // where they surface: when their wheel slot (or the overflow heap)
  // drains into the ready heap, or when they reach its front. So buildup
  // here measures cancel churn ahead of the cursor.
  std::size_t cancelled_pending() const { return queue_.size() - live_; }
  // Event-slab high-water mark: the most events that were ever pending at
  // once. Stays flat under schedule/cancel churn (slots are reused).
  std::size_t pool_slots() const { return pool_.slots(); }
  // The ready queue's mode switches and cascades so far.
  const ReadyQueueStats& ready_queue_stats() const { return queue_.stats(); }

 private:
  friend class EventId;

  using Entry = ReadyEntry;
  // The queue's liveness test: the entry's slot still carries the
  // generation its sequence number was given.
  struct Live {
    const EventPool* pool;
    bool operator()(const Entry& e) const {
      return pool->live(e.slot(), EventPool::generation_of(e.seq()));
    }
  };

  bool event_live(std::uint32_t index, std::uint64_t gen) const {
    return pool_.live(index, gen);
  }
  void cancel_event(std::uint32_t index, std::uint64_t gen) {
    if (!pool_.live(index, gen)) return;  // fired, cancelled, or reused slot
    pool_.release(index);
    --live_;
  }

  bool step();          // pop+run one live event; false if queue empty
  void fire(Entry e);   // run a just-popped live entry

  Time now_ = 0;
  Time closed_ = -1;  // latest instant whose events have all run
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  EventPool pool_;
  // Non-const top(): the wheel drops dead entries and advances its cursor
  // lazily. Holds a pointer to pool_, so a Scheduler never moves.
  TimingWheel<Entry, ReadyBefore, Live> queue_{Live{&pool_}};
};

inline bool EventId::pending() const {
  return sched_ != nullptr && sched_->event_live(index_, gen_);
}
inline void EventId::cancel() {
  if (sched_ != nullptr) sched_->cancel_event(index_, gen_);
}

// A restartable one-shot timer bound to a scheduler; wraps the
// schedule/cancel pattern the MAC uses everywhere. The scheduled event
// captures only `this`, so restarts never copy the callback.
class Timer {
 public:
  Timer(Scheduler& sched, std::function<void()> fn)
      : sched_(&sched), fn_(std::move(fn)) {}
  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;
  ~Timer() { cancel(); }

  void start(Time delay) {
    cancel();
    id_ = sched_->after(delay, [this] { fn_(); });
  }
  void start_at(Time when) {
    cancel();
    id_ = sched_->at(when, [this] { fn_(); });
  }
  void cancel() { id_.cancel(); }
  bool pending() const { return id_.pending(); }

 private:
  Scheduler* sched_;
  std::function<void()> fn_;
  EventId id_;
};

}  // namespace g80211
