#include "src/sim/scheduler.h"

#include <utility>

#include "src/sim/check.h"

namespace g80211 {

void Scheduler::fire(Entry e) {
  G80211_DCHECK(e.when >= now_);
  now_ = e.when;
  --live_;
  ++executed_;
  // Runs the callback in its (chunk-stable) slot: no per-event move of the
  // inline capture. The pool frees the slot only after the call returns.
  pool_.fire(e.slot());
}

bool Scheduler::step() {
  const Entry* top = queue_.top();
  if (top == nullptr) return false;
  const Entry e = *top;
  queue_.pop();
  fire(e);
  return true;
}

void Scheduler::run_until(Time horizon) {
  // One top() per event: it drops the tombstones ahead of the earliest
  // live entry, which is copied out (two registers) before the pop instead
  // of re-fetched.
  for (;;) {
    const Entry* top = queue_.top();
    if (top == nullptr || top->when > horizon) break;
    const Entry e = *top;
    queue_.pop();
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
