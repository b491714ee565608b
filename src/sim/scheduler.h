// Deterministic discrete-event scheduler.
//
// Events are closures ordered by (time, insertion sequence); ties break in
// insertion order so that a run is a pure function of (scenario, seed).
// Events can be cancelled through the EventId returned at scheduling time;
// cancellation is O(1) (a generation bump frees the slot immediately) and
// stale queue entries are skipped as tombstones when popped.
//
// Hot-path design: callbacks live in an EventPool slab (no shared_ptr, no
// std::function, no per-event heap allocation in steady state) and the
// ready queue (a 4-ary heap while small, a timing wheel while large; see
// timing_wheel.h) holds plain {time, seq, generation, index} records. See
// docs/architecture.md, "Event engine".
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
  Time now() const { return now_; }
  // True once instant `t` is over: every event due at or before `t` has
  // run. Inside an event at time t that instant is still open (more events
  // at t may follow); once run_until(h) with h >= t returns, it is closed.
  // Paused CBR sources replay exactly the ticks this calls elapsed.
  bool elapsed(Time t) const { return t < now_ || t <= closed_; }

  // Schedule `fn` to run at absolute time `at` (must be >= now()).
  // Templated so the callable is constructed directly in its pool slot —
  // the capture is written once at the call site instead of being moved
  // through an EventFn temporary (two 80-byte relocations per event).
  template <typename F>
  EventId at(Time when, F&& fn) {
    G80211_DCHECK(when >= now_ && "cannot schedule into the past");
    const std::uint32_t index = pool_.alloc(std::forward<F>(fn));
    const std::uint64_t gen = pool_.generation(index);
    queue_.push(Entry{when, next_seq_++, gen, index});
    ++live_;
    return EventId(this, index, gen);
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
  // Cancelled tombstones still sitting in the queue; they are discarded
  // lazily when they reach the top, so buildup here measures cancel churn.
  std::size_t cancelled_pending() const { return queue_.size() - live_; }
  // Event-slab high-water mark: the most events that were ever pending at
  // once. Stays flat under schedule/cancel churn (slots are reused).
  std::size_t pool_slots() const { return pool_.slots(); }
  // The ready queue's mode switches and cascades so far.
  const ReadyQueueStats& ready_queue_stats() const { return queue_.stats(); }

 private:
  friend class EventId;

  struct Entry {
    Time when = 0;
    std::uint64_t seq = 0;
    std::uint64_t gen = 0;
    std::uint32_t index = 0;
  };
  // Strict total order (seq values are unique), so the queue's pop
  // sequence is the sorted order of its pushes regardless of its internal
  // layout or mode — the determinism contract TimingWheel relies on.
  struct Earlier {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.when != b.when) return a.when < b.when;
      return a.seq < b.seq;
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

  bool step();                // pop+run one live event; false if queue empty
  const Entry* peek_live();   // drop cancelled tops; earliest live or null
  void fire(const Entry& e);  // run a just-popped live entry

  Time now_ = 0;
  Time closed_ = -1;  // latest instant whose events have all run
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::size_t live_ = 0;
  EventPool pool_;
  // Non-const top(): the wheel advances its cursor lazily.
  TimingWheel<Entry, Earlier> queue_;
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
