// Four-ary min-heap for the scheduler's ready queue.
//
// Replaces std::priority_queue's binary heap on the event hot path: with
// the scheduler's 16-byte entries a node's four children span 64 bytes, so
// a sift-down touches half as many levels and the level it does touch is
// one contiguous read. Entries are passed by value (two registers for the
// scheduler's). Sift-down picks the smallest child with a plain branch,
// which lets the CPU speculate down the tree: comparators without an
// early-out branch (one 128-bit compare of (when, key), or bitwise
// and/or of the field compares) measured 2.3-2.4x slower in the hold
// model at 1024 entries (BM_ReadyQueueHold).
//
// Determinism: the scheduler's comparator is a *strict total order*
// ((time, insertion-seq), no equal elements), so the sequence of pop()
// results is the sorted order of whatever was pushed — unique and
// independent of the heap's internal layout or arity. Swapping the binary
// heap for this one therefore cannot change event execution order; the
// golden event-order trace test in tests/test_scheduler.cc pins this.
#pragma once

#include <cstddef>
#include <span>
#include <utility>
#include <vector>

#include "src/sim/check.h"
#include "src/sim/hot.h"

namespace g80211 {

// Before(a, b) returns true when `a` must pop before `b`; it must be a
// strict total order for pop order to be unique (see header comment).
template <typename T, typename Before, std::size_t Arity = 4>
class DaryHeap {
  static_assert(Arity >= 2, "a heap needs at least two children per node");

 public:
  bool empty() const { return v_.empty(); }
  std::size_t size() const { return v_.size(); }
  const T& top() const {
    G80211_DCHECK(!v_.empty() && "top() of an empty heap");
    return v_.front();
  }

  void push(T x) {
    G80211_ALLOC_OK(
        "heap storage is amortized: capacity stops at the pending-event "
        "high-water mark and is reused for the rest of the run");
    v_.push_back(x);
    sift_up(v_.size() - 1);
  }

  void pop() {
    G80211_DCHECK(!v_.empty() && "pop() of an empty heap");
    if (v_.size() > 1) {
      T tail = std::move(v_.back());
      v_.pop_back();
      sift_down(std::move(tail));
    } else {
      v_.pop_back();
    }
  }

  // Every entry in storage (heap, not sorted) order, for a caller that
  // re-homes them all in place and then clear()s, which keeps the capacity.
  std::span<const T> unordered() const { return v_; }
  void clear() { v_.clear(); }

 private:
  void sift_up(std::size_t i) {
    T x = std::move(v_[i]);
    while (i > 0) {
      const std::size_t parent = (i - 1) / Arity;
      if (!before_(x, v_[parent])) break;
      v_[i] = std::move(v_[parent]);
      i = parent;
    }
    v_[i] = std::move(x);
  }

  // Place `x` (the displaced tail) as if at the root, walking a hole down
  // to its final position — one move per level instead of a swap.
  void sift_down(T x) {
    const std::size_t n = v_.size();
    std::size_t i = 0;
    for (;;) {
      const std::size_t first = i * Arity + 1;
      if (first >= n) break;
      const std::size_t last = first + Arity < n ? first + Arity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (before_(v_[c], v_[best])) best = c;
      }
      if (!before_(v_[best], x)) break;
      v_[i] = std::move(v_[best]);
      i = best;
    }
    v_[i] = std::move(x);
  }

  Before before_;
  std::vector<T> v_;
};

}  // namespace g80211
