// The scheduler's ready queue: a 4-ary heap while small, a hierarchical
// timing wheel while large.
//
// Two modes, chosen by the queue's own size (tombstones included, since
// they cost heap work too):
//   * heap mode, at most kSpillAbove (64) entries: every entry lives in
//     the `ready_` 4-ary heap and push/pop are plain heap operations. The
//     cursor sits at +infinity, so every push lands "behind" it, in
//     ready_, through the same branch wheel mode uses.
//   * wheel mode: the push that takes the queue above 64 *spills* every
//     entry into the slots behind a cursor at the earliest tick; the pop
//     that takes it below kCollapseBelow (16) *collapses* every slot and
//     the overflow heap back into ready_. The 4x band between the two
//     keeps a queue hovering near one threshold from flapping.
//
// Why 64: a hold model (N pending entries; each step pops the minimum and
// pushes now + uniform(0, 2 * mean gap)), -O2, ns per pop+push, best of 5.
// bench_ext_simperf's BM_ReadyQueueHold re-measures both rows on the
// scheduler's own ReadyEntry and comparator; its wheel stays in wheel mode
// at every N:
//
//   N                     4    8   16   32   64  128  256  1024
//   heap,  0.5 ms gap     7   13   14   19   17   22   21    24
//   wheel, 0.5 ms gap    15   14   12   13   13   14   14    15
//   heap,  5 ms gap       8   14   15   19   17   22   21    25
//   wheel, 5 ms gap      29   25   21   18   15   14   13    15
//
// A sparse wheel loses to a heap where most pops cascade from a coarser
// level, which is where the gaps outrun level 0. The wheel wins from 16
// entries at the saturated MAC's 0.5 ms gap and from 32 at 5 ms, by 1 ns
// there, so the model alone would allow a spill above 32. 64 stays: a
// spill at 32 would halve the 4x band between the thresholds, or need a
// collapse at 8, where the wheel loses by 11 ns at 5 ms; and no end-to-end
// run has measured a lower spill. The paper's own 2-8-station worlds hold
// 2-31 entries and run as a heap; city-scale worlds hold 64-255 and run as
// a wheel.
//
// Wheel layout: 4 levels of 256 slots over a tick of 2^12 ns (4.096 us).
// The tick sets level 0 to the MAC's timescale: its 1.05 ms window holds
// 802.11b's EIFS (364 us), RTS/CTS/ACK airtimes (304-352 us) and response
// timeouts (354 us), so most MAC timers land in level 0 and pop without a
// cascade. (With a 1.024 us tick, level 0 spanned 262 us and the wheel
// rows above read 27-20 and 32-15 ns from N = 4 to 1024. An 8.192 us tick
// ran perfbench's city at the same speed as this one; the finer tick puts
// fewer entries in each drained slot.) Level k spans 256^(k+1) ticks, so
// the wheel covers 2^44 ns (~4.9 simulated hours) ahead of the cursor;
// anything further sits in a small overflow heap and is re-placed when the
// cursor approaches. Push is O(1): two shifts and a vector push_back into
// the destination slot. Pop drains the cursor's level-0 slot into ready_,
// which orders the (rarely more than a handful of) entries sharing one
// 4.096 us tick.
//
// Dead entries: the caller may hand the queue a liveness test (`Live`, the
// scheduler's "is this event still pending?"; by default every entry is
// live). top() drops the dead entries it meets at the front, and a slot or
// the overflow heap that drains into ready_ drops its dead entries there
// instead of pushing them, so a cancelled entry that waited in a wheel
// slot costs no heap push or pop. A drop shrinks the queue like a pop, so
// the collapse test runs after drops too.
//
// Determinism: pop order is by the caller's strict total order (time,
// insertion-seq), the order a plain DaryHeap would give, in both modes and
// across every switch; dropping an entry that would never have fired
// moves nothing else. Slots partition time into disjoint tick ranges and
// are drained strictly in tick order (per-slot occupancy bitmaps make the
// in-order scan cheap); within a tick, and after a collapse, ready_
// applies the full comparator. tests/test_scheduler.cc pins the order: a
// container-level differential test against DaryHeap, and scheduler-level
// tests against the sorted (when, scheduling order) specification.
//
// Why a large wheel beats a heap: push/pop on the heap are O(log n) with
// data-dependent branches; the wheel replaces them with O(1) stores and a
// bitmap scan whose cost is amortised over the events of a tick. The MAC's
// schedule-then-cancel churn (NAV, difs/backoff timers) also dies cheaply:
// tombstones are dropped when their slot drains, never entering ready_.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "src/sim/check.h"
#include "src/sim/dary_heap.h"
#include "src/sim/time.h"

namespace g80211 {

// What a TimingWheel's mode switches and cursor moves cost, counted where
// they happen (never on the per-event path). A pure function of the
// push/pop sequence, so deterministic.
struct ReadyQueueStats {
  std::uint64_t spills = 0;     // heap mode -> wheel mode
  std::uint64_t collapses = 0;  // wheel mode -> heap mode
  std::uint64_t cascades = 0;   // coarse slots re-placed as the cursor moved
};

// The default liveness test: every entry is live until popped.
struct AllLive {
  template <typename T>
  constexpr bool operator()(const T&) const {
    return true;
  }
};

// T must expose a `when` (Time) member; Before must be the scheduler's
// strict total order over T; Live(x) says whether entry x may still fire
// (once false it must stay false). Interface mirrors DaryHeap except that
// top() is non-const and returns a pointer: it drops dead entries, and may
// advance the cursor and cascade slots lazily.
template <typename T, typename Before, typename Live = AllLive>
class TimingWheel {
 public:
  TimingWheel() = default;
  explicit TimingWheel(Live live) : live_(live) {}

  // Mode thresholds on size(); see the header comment.
  static constexpr std::size_t kSpillAbove = 64;
  static constexpr std::size_t kCollapseBelow = 16;
  // A tick is 2^kTickShift ns (4.096 us); see the header comment.
  static constexpr int kTickShift = 12;

  // Entries held, dead ones included until they are dropped.
  bool empty() const { return size_ == 0; }
  std::size_t size() const { return size_; }
  const ReadyQueueStats& stats() const { return stats_; }

  void push(T x) {
    ++size_;
    const std::uint64_t tick = tick_of(x.when);
    if (tick < next_tick_) {  // behind the cursor: always so in heap mode
      ready_.push(x);
      if (size_ > kSpillAbove && heap_mode()) spill();
      return;
    }
    place(x, tick);
  }

  // The earliest live entry, or nullptr when none is left; dead entries
  // ahead of it are dropped. The pointer stays valid until the next push
  // or pop. Fast path: ready_ already holds the minimum (always in heap
  // mode; in wheel mode for every event but the first of a tick), so the
  // cursor walk stays out of line and off the hot path.
  const T* top() {
    for (;;) {
      if (ready_.empty()) {
        if (heap_mode()) return nullptr;  // ready_ holds every entry
        advance();
        continue;
      }
      const T& x = ready_.top();
      if (live_(x)) return &x;
      pop();
    }
  }

  // Remove the entry the last top() returned.
  void pop() {
    ready_.pop();
    --size_;
    if (size_ < kCollapseBelow && !heap_mode()) collapse();
  }

 private:
  static constexpr int kSlotBits = 8;
  static constexpr std::size_t kSlots = 1u << kSlotBits;  // 256 per level
  static constexpr int kLevels = 4;
  static constexpr std::uint64_t kSlotMask = kSlots - 1;
  // Heap mode's cursor: past every real tick (a Time's tick is < 2^53).
  static constexpr std::uint64_t kHeapCursor = ~std::uint64_t{0};

  bool heap_mode() const { return next_tick_ == kHeapCursor; }

  static std::uint64_t tick_of(Time when) {
    G80211_DCHECK(when >= 0 && "wheel time must be non-negative");
    return static_cast<std::uint64_t>(when) >> kTickShift;
  }

  // 256-bit occupancy bitmap per level: the in-order slot scan is four
  // word reads plus a count-trailing-zeros.
  struct Bitmap {
    std::array<std::uint64_t, kSlots / 64> w{};
    void set(std::size_t i) { w[i >> 6] |= std::uint64_t{1} << (i & 63); }
    void clear(std::size_t i) { w[i >> 6] &= ~(std::uint64_t{1} << (i & 63)); }
    // First set index >= from, or -1.
    int next(std::size_t from) const {
      std::size_t word = from >> 6;
      std::uint64_t bits = w[word] & (~std::uint64_t{0} << (from & 63));
      for (;;) {
        if (bits != 0) {
          return static_cast<int>((word << 6) + static_cast<std::size_t>(
                                                    std::countr_zero(bits)));
        }
        if (++word == w.size()) return -1;
        bits = w[word];
      }
    }
    bool any() const {
      return (w[0] | w[1] | w[2] | w[3]) != 0;
    }
    bool test(std::size_t i) const {
      return (w[i >> 6] >> (i & 63)) & 1;
    }
  };

  // Route `x` (tick >= next_tick_) to the first level whose window, at that
  // level's granularity, still contains the tick; beyond level 3 it
  // overflows to the heap. Coarse-delta (not raw-delta) comparison keeps
  // every slot holding exactly one coarse-tick value at a time, which is
  // what makes the in-order drain correct across window wrap. Inlined:
  // it is the body of every wheel-mode push.
  [[gnu::always_inline]] void place(T x, std::uint64_t tick) {
    for (int k = 0; k < kLevels; ++k) {
      const int shift = kSlotBits * k;
      if ((tick >> shift) - (next_tick_ >> shift) < kSlots) {
        const std::size_t idx = (tick >> shift) & kSlotMask;
        slots_[k][idx].push_back(x);
        bm_[k].set(idx);
        ++in_wheel_;
        return;
      }
    }
    overflow_.push(x);
  }

  // An entry leaving a slot or the overflow heap: into ready_ if live,
  // otherwise dropped (the caller runs the collapse test).
  void admit(T x) {
    if (live_(x)) {
      ready_.push(x);
    } else {
      --size_;
    }
  }

  // Move every live entry of level-k slot `idx` into ready_ and drop the
  // rest; the slot keeps its capacity.
  void drain(int k, std::size_t idx) {
    std::vector<T>& slot = slots_[k][idx];
    for (const T& x : slot) admit(x);
    in_wheel_ -= slot.size();
    slot.clear();
    bm_[k].clear(idx);
  }

  // Heap mode -> wheel mode: place every entry of ready_ behind a cursor at
  // the earliest tick. The slots are empty in heap mode, so any cursor at
  // or below the minimum is consistent, and placing walks ready_'s storage
  // in place (order does not matter there). Cold and out of line, like
  // collapse(): a run switches modes a handful of times, and inlining either
  // into push()/pop() bloats every scheduling site and the event loop.
  [[gnu::cold, gnu::noinline]] void spill() {
    ++stats_.spills;
    next_tick_ = tick_of(ready_.top().when);
    for (const T& x : ready_.unordered()) place(x, tick_of(x.when));
    ready_.clear();
    G80211_DCHECK(ready_.empty() && in_wheel_ + overflow_.size() == size_);
  }

  // Wheel mode -> heap mode: every live entry of every occupied slot (found
  // through the bitmaps) and of the overflow heap joins ready_; dead ones
  // are dropped. Order-safe because ready_ applies the full comparator.
  [[gnu::cold, gnu::noinline]] void collapse() {
    ++stats_.collapses;
    for (int k = 0; k < kLevels; ++k) {
      for (int s = bm_[k].next(0); s >= 0; s = bm_[k].next(0)) {
        drain(k, static_cast<std::size_t>(s));
      }
    }
    for (const T& x : overflow_.unordered()) admit(x);
    overflow_.clear();
    next_tick_ = kHeapCursor;
    G80211_DCHECK(in_wheel_ == 0 && slots_empty() && overflow_.empty() &&
                  ready_.size() == size_);
  }

  bool slots_empty() const {
    for (const Bitmap& b : bm_) {
      if (b.any()) return false;
    }
    return true;
  }

  // Re-place every entry of level-k slot `idx` now that the cursor entered
  // its coarse tick; entries land at a strictly lower level (or level 0).
  void cascade(int k, std::size_t idx) {
    ++stats_.cascades;
    std::vector<T>& slot = slots_[k][idx];
    bm_[k].clear(idx);
    // Swap out: place() touches other slots of the same level only at
    // different indices, but keep the loop safe against any reallocation.
    std::vector<T> moved;
    moved.swap(slot);
    in_wheel_ -= moved.size();
    for (const T& x : moved) place(x, tick_of(x.when));
    moved.clear();
    // Hand the (empty, capacity-bearing) buffer back to the slot so steady
    // state re-uses it instead of reallocating.
    slot.swap(moved);
  }

  // Pull overflow entries that now fit inside the wheel span. Called after
  // the cursor crosses (or jumps over) a full-span boundary.
  void refill_from_overflow() {
    while (!overflow_.empty()) {
      const T& t = overflow_.top();
      const std::uint64_t tick = tick_of(t.when);
      const int top_shift = kSlotBits * (kLevels - 1);
      if ((tick >> top_shift) - (next_tick_ >> top_shift) >= kSlots) break;
      T x = t;
      overflow_.pop();
      place(x, tick);
    }
  }

  // Jump the cursor forward to tick `t`, restoring the invariant that the
  // cursor's own coarse slot at every level has been cascaded. Only called
  // with jump targets that cannot overshoot queued work (see advance()).
  void jump_to(std::uint64_t t) {
    const std::uint64_t old = next_tick_;
    G80211_DCHECK(t >= old);
    next_tick_ = t;
    // Fast path: a move within one level-1 coarse tick crosses no slot
    // boundary at any level (equal >>8 implies equal >>16, >>24), so there
    // is nothing to cascade and no overflow refill trigger. This is every
    // tick-to-tick step inside a 256-tick window — the common case.
    if ((old >> kSlotBits) == (t >> kSlotBits)) return;
    jump_slow(old, t);
  }

  void jump_slow(std::uint64_t old, std::uint64_t t) {
    // Overflow entries become placeable whenever the cursor enters a new
    // *top-level* coarse tick (the same granularity place() overflows at),
    // so that crossing — not a full-span one — is the refill trigger.
    if ((old >> (kSlotBits * (kLevels - 1))) !=
        (t >> (kSlotBits * (kLevels - 1)))) {
      refill_from_overflow();
    }
    // Top-down: a higher-level cascade may deposit into a lower landed
    // slot, which the later (finer) iteration then cascades in turn.
    for (int m = kLevels - 1; m >= 1; --m) {
      const int shift = kSlotBits * m;
      if ((old >> shift) == (t >> shift)) continue;
      const std::size_t idx = (t >> shift) & kSlotMask;
      if (bm_[m].test(idx)) cascade(m, idx);
    }
  }

  // Move the cursor forward until ready_ holds the queue's earliest
  // entry, or until drops take the queue below kCollapseBelow and it
  // collapses (wheel mode only: in heap mode ready_ holds every entry). Out
  // of line: it runs once per drained tick, not per event, and must not
  // bloat the loops that call top().
  // Invariants: every entry with tick < next_tick_ is in ready_; the
  // cursor's own slot at every level has already been cascaded/drained;
  // in wheel mode size_ >= kCollapseBelow, so there is an entry to find.
  [[gnu::noinline]] void advance() {
    G80211_DCHECK(size_ >= kCollapseBelow && !heap_mode());
    while (ready_.empty()) {
      // Drain the next occupied level-0 slot of the current window.
      const std::size_t idx0 = next_tick_ & kSlotMask;
      if (const int s = bm_[0].next(idx0); s >= 0) {
        const std::uint64_t tick =
            (next_tick_ - idx0) + static_cast<std::uint64_t>(s);
        drain(0, static_cast<std::size_t>(s));
        // Through jump_to, not a bare increment: stepping off the last tick
        // of a coarse window must cascade the newly entered higher-level
        // slots, or an entry parked there (pushed when its delta was
        // exactly one window) is leapfrogged by later level-0 work.
        jump_to(tick + 1);
        if (size_ < kCollapseBelow) {  // the drain dropped dead entries
          collapse();
          return;
        }
        continue;
      }
      if (in_wheel_ == 0) {
        // Whole wheel empty: jump straight to the earliest overflow entry.
        G80211_DCHECK(!overflow_.empty());
        jump_to(tick_of(overflow_.top().when));
        continue;
      }
      // Level-0 window exhausted: climb. At each level k, entries still
      // sitting below level k are at wrapped indices only (behind the
      // cursor index — reached -1 on the scan), which means they belong to
      // the next level-k coarse tick: step to that boundary and rescan
      // rather than risk overshooting them via a farther level-k slot.
      // With everything below empty, jump straight to the nearest occupied
      // slot ahead in level k's window and cascade it.
      for (int k = 1; k <= kLevels; ++k) {
        if (bm_[k - 1].any()) {
          const int shift = kSlotBits * k;
          jump_to(((next_tick_ >> shift) + 1) << shift);
          break;
        }
        G80211_DCHECK(k < kLevels && "in_wheel_ > 0 but every bitmap empty");
        if (k == kLevels) break;  // unreachable; keeps bm_[k] in bounds
        const int shift = kSlotBits * k;
        const std::size_t ck = (next_tick_ >> shift) & kSlotMask;
        const int j = bm_[k].next(ck);
        if (j < 0) continue;  // nothing ahead in this window; climb
        const std::uint64_t coarse =
            (next_tick_ >> shift) + (static_cast<std::uint64_t>(j) - ck);
        // jump_to cascades slot j itself (the landing slot at level k) and
        // any coarser landing slots the move crossed, and refills overflow
        // on top-level crossings.
        jump_to(coarse << shift);
        break;
      }
    }
  }

  // Level-0 cursor: all earlier ticks drained. kHeapCursor in heap mode.
  std::uint64_t next_tick_ = kHeapCursor;
  std::size_t size_ = 0;         // total entries (ready + wheel + overflow)
  std::size_t in_wheel_ = 0;     // entries currently in wheel slots
  std::array<std::array<std::vector<T>, kSlots>, kLevels> slots_;
  std::array<Bitmap, kLevels> bm_;
  // Heap mode: every entry. Wheel mode: drained ticks, in full comparator
  // order.
  DaryHeap<T, Before> ready_;
  [[no_unique_address]] Live live_;
  DaryHeap<T, Before> overflow_;  // beyond the wheel span
  ReadyQueueStats stats_;
};

}  // namespace g80211
