// Drop-tail interface queue between the network layer and the MAC
// (ns-2's Queue/DropTail, default limit 50 packets).
//
// Paused sources. A saturated CBR source mostly ticks into a full queue,
// and each such tick only bumps counters. A source that feeds this queue
// (CbrSource::feed) therefore sleeps here once a tick leaves the queue
// full, and schedules nothing until room opens; it then replays the ticks
// it skipped as drops. docs/architecture.md, "Paused sources", gives the
// admission rule and why it reproduces the per-tick run exactly.
#pragma once

#include <cstdint>
#include <deque>
#include <utility>
#include <vector>

#include "src/net/packet.h"
#include "src/sim/time.h"

namespace g80211 {

// A periodic source that can sleep on a full DropTailQueue (CbrSource).
class QueueSleeper {
 public:
  QueueSleeper(const QueueSleeper&) = delete;
  QueueSleeper& operator=(const QueueSleeper&) = delete;

 protected:
  QueueSleeper() = default;
  ~QueueSleeper() = default;

  bool asleep() const { return state_ == State::kAsleep; }
  bool woken() const { return state_ == State::kWoken; }

  // The source's next tick. While asleep it may lie in the past: every
  // tick since then met a full queue.
  Time next_tick_ = 0;

 private:
  friend class DropTailQueue;
  enum class State : std::uint8_t { kAwake, kAsleep, kWoken };

  // Replay every tick that has already elapsed as a drop and return how
  // many there were. Sets next_tick_ to kNever if the replay reached the
  // source's stop time (the chain ends there).
  virtual std::int64_t catch_up() = 0;
  // The count catch_up() would return, changing nothing.
  virtual std::int64_t elapsed_ticks() const = 0;
  // Schedule the tick at next_tick_, which has not elapsed.
  virtual void wake() = 0;

  State state_ = State::kAwake;
};

class DropTailQueue {
 public:
  explicit DropTailQueue(std::size_t limit = 50) : limit_(limit) {}
  // Sleeping sources hold the queue's address.
  DropTailQueue(const DropTailQueue&) = delete;
  DropTailQueue& operator=(const DropTailQueue&) = delete;

  // Returns false (and drops) if the queue is full.
  bool push(PacketPtr p, int dest_mac);
  bool empty() const { return q_.empty(); }
  bool full() const { return q_.size() >= limit_; }
  std::size_t size() const { return q_.size(); }
  std::size_t limit() const { return limit_; }
  // Congestion drops, including the ticks sleeping sources have skipped
  // up to now.
  std::int64_t drops() const;

  // Precondition: !empty(). Wakes sleepers the freed slot may admit.
  std::pair<PacketPtr, int> pop();

  // Remove every queued packet addressed to `dest_mac` (association
  // handoff: the old AP stops delivering to a departed station). Returns
  // the number of packets removed; they are not counted as drops() —
  // that counter means congestion.
  std::size_t erase_dest(int dest_mac);

  // --- paused sources (see the file comment) ------------------------------
  // `s` ticked and left the queue full: it sleeps until room opens.
  void sleep(QueueSleeper& s);
  // The tick of a woken `s` is running. `pushes` is false when it gives
  // up its turn instead (it reached its stop time); admission then runs
  // again.
  void woke(QueueSleeper& s, bool pushes);
  // Replay an asleep `s`'s elapsed ticks now, before it changes what its
  // next ticks do (a moved stop mark); the chain may end here. No-op
  // unless `s` is asleep.
  void settle(QueueSleeper& s);
  // `s` stops sleeping here (restart, re-pointed output, destruction),
  // settled first; a woken `s` gives its turn back. No-op for a source
  // that is neither.
  void release(QueueSleeper& s);

 private:
  // Catch every sleeper up to now, then wake sleepers in next-tick order
  // while fewer than the free slots' worth of woken sources tick first.
  void admit();

  std::size_t limit_;
  std::int64_t drops_ = 0;
  std::deque<std::pair<PacketPtr, int>> q_;
  // Sleepers in next-tick order as of the last admission (ties keep the
  // order they fell asleep in), and woken sources whose tick is pending.
  std::vector<QueueSleeper*> asleep_;
  std::vector<QueueSleeper*> woken_;
};

}  // namespace g80211
