#include "src/sim/scheduler.h"

#include <utility>

#include "src/sim/check.h"

namespace g80211 {

// Discard cancelled entries at the queue head and return the earliest
// live one, or nullptr when the queue drains. The pointer stays valid
// until the next queue operation.
const Scheduler::Entry* Scheduler::peek_live() {
  while (!queue_empty()) {
    const Entry& top = queue_top();
    if (pool_.live(top.index, top.gen)) return &top;
    queue_pop();
  }
  return nullptr;
}

void Scheduler::fire(const Entry& e) {
  G80211_DCHECK(e.when >= now_);
  now_ = e.when;
  --live_;
  ++executed_;
  // Runs the callback in its (chunk-stable) slot: no per-event move of the
  // inline capture. The pool frees the slot only after the call returns.
  pool_.fire(e.index);
}

bool Scheduler::step() {
  const Entry* top = peek_live();
  if (top == nullptr) return false;
  const Entry e = *top;
  queue_pop();
  fire(e);
  return true;
}

void Scheduler::run_until(Time horizon) {
  // Exactly one peek per queue entry (live or tombstone) and one pop per
  // consumed entry: peek_live() skips tombstones as it scans, and the
  // surviving top is copied out before the pop instead of re-fetched.
  for (;;) {
    const Entry* top = peek_live();
    if (top == nullptr || top->when > horizon) break;
    const Entry e = *top;
    queue_pop();
    fire(e);
  }
  if (now_ <= horizon) {
    now_ = horizon;
    closed_ = horizon;
  }
}

void Scheduler::run() {
  while (step()) {
  }
  closed_ = now_;
}

}  // namespace g80211
