#include "src/net/queue.h"

#include <algorithm>

#include "src/sim/check.h"
#include "src/sim/hot.h"


namespace g80211 {
namespace {

void remove_one(std::vector<QueueSleeper*>& list, const QueueSleeper* s) {
  const auto it = std::find(list.begin(), list.end(), s);
  G80211_DCHECK(it != list.end());
  list.erase(it);
}

}  // namespace

bool DropTailQueue::push(PacketPtr p, int dest_mac) {
  if (full()) {
    ++drops_;
    return false;
  }
  q_.emplace_back(std::move(p), dest_mac);
  return true;
}

std::int64_t DropTailQueue::drops() const {
  std::int64_t n = drops_;
  for (const QueueSleeper* s : asleep_) n += s->elapsed_ticks();
  return n;
}

std::pair<PacketPtr, int> DropTailQueue::pop() {
  G80211_DCHECK(!q_.empty());
  auto front = std::move(q_.front());
  q_.pop_front();
  admit();
  return front;
}

std::size_t DropTailQueue::erase_dest(int dest_mac) {
  const std::size_t before = q_.size();
  std::size_t kept = 0;
  for (std::size_t i = 0; i < q_.size(); ++i) {
    if (q_[i].second != dest_mac) {
      if (kept != i) q_[kept] = std::move(q_[i]);
      ++kept;
    }
  }
  q_.resize(kept);
  if (kept != before) admit();
  return before - kept;
}

void DropTailQueue::sleep(QueueSleeper& s) {
  G80211_ALLOC_OK(
      "asleep_ grows to the most sources ever asleep on this queue at once, "
      "then keeps its capacity");
  G80211_DCHECK(s.state_ == QueueSleeper::State::kAwake);
  s.state_ = QueueSleeper::State::kAsleep;
  asleep_.push_back(&s);
}

void DropTailQueue::woke(QueueSleeper& s, bool pushes) {
  G80211_DCHECK(s.state_ == QueueSleeper::State::kWoken);
  s.state_ = QueueSleeper::State::kAwake;
  remove_one(woken_, &s);
  if (!pushes) admit();
}

void DropTailQueue::settle(QueueSleeper& s) {
  if (s.state_ != QueueSleeper::State::kAsleep) return;
  drops_ += s.catch_up();
  if (s.next_tick_ == kNever) {
    s.state_ = QueueSleeper::State::kAwake;
    remove_one(asleep_, &s);
  }
}

void DropTailQueue::release(QueueSleeper& s) {
  settle(s);
  switch (s.state_) {
    case QueueSleeper::State::kAwake:
      return;
    case QueueSleeper::State::kAsleep:
      s.state_ = QueueSleeper::State::kAwake;
      remove_one(asleep_, &s);
      return;
    case QueueSleeper::State::kWoken:
      s.state_ = QueueSleeper::State::kAwake;
      remove_one(woken_, &s);
      admit();
      return;
  }
}

// Why waking by tick times is exact: after a pop or erase_dest leaves
// `room` free slots, a sleeper is left asleep only if at least `room`
// woken sources tick strictly before its next tick. Each of those ticks
// pushes (or finds the queue full), so the queue is full again when the
// sleeper's tick comes, exactly as in a run where it had ticked all along.
// Other pushes (TCP segments, probe echoes, sources that never sleep) only
// fill the queue sooner. A woken source that gives up its turn re-runs
// this, so the bound holds at every instant.
//
// One caveat: a woken tick at time T is scheduled here, where the per-tick
// run scheduled it back at the source's previous tick. Another event at
// exactly the same nanosecond T, scheduled between those two moments, can
// run in a different order relative to it. Every CBR source in the repo is
// jittered, so that needs a coincidence at nanosecond resolution.
void DropTailQueue::admit() {
  G80211_ALLOC_OK(
      "woken_ grows to the most sources ever woken on this queue at once, "
      "then keeps its capacity");
  if (asleep_.empty() || full()) return;
  const std::size_t room = limit_ - q_.size();
  // Catch every sleeper up: each elapsed tick met a full queue, since no
  // slot opened between the last admission and this one.
  std::size_t n = 0;
  for (QueueSleeper* s : asleep_) {
    drops_ += s->catch_up();
    if (s->next_tick_ == kNever) {
      s->state_ = QueueSleeper::State::kAwake;  // stopped while asleep
    } else {
      asleep_[n++] = s;
    }
  }
  asleep_.erase(asleep_.begin() + static_cast<std::ptrdiff_t>(n),
                asleep_.end());
  // Restore next-tick order. Insertion sort: the list is short and nearly
  // sorted, and equal ticks keep their order (never pointer order).
  for (std::size_t i = 1; i < asleep_.size(); ++i) {
    QueueSleeper* s = asleep_[i];
    std::size_t j = i;
    for (; j > 0 && asleep_[j - 1]->next_tick_ > s->next_tick_; --j) {
      asleep_[j] = asleep_[j - 1];
    }
    asleep_[j] = s;
  }
  std::size_t woken = 0;
  for (QueueSleeper* s : asleep_) {
    std::size_t ahead = 0;
    for (const QueueSleeper* w : woken_) {
      if (w->next_tick_ < s->next_tick_) ++ahead;
    }
    if (ahead >= room) break;
    s->state_ = QueueSleeper::State::kWoken;
    woken_.push_back(s);
    s->wake();
    ++woken;
  }
  asleep_.erase(asleep_.begin(),
                asleep_.begin() + static_cast<std::ptrdiff_t>(woken));
}

}  // namespace g80211
