// Chunked slab + LIFO free list of event records, addressed by
// {index, generation}.
//
// Replaces the scheduler's former per-event std::make_shared<State> +
// std::function pair (two heap allocations per scheduled event) with a
// reusable slot array: scheduling in steady state touches no allocator at
// all once the slab has reached the high-water mark of concurrently
// pending events.
//
// Slots live in fixed-size chunks that never move once created (growth
// appends a chunk instead of reallocating), so a slot's address is stable
// across alloc() calls. That is what lets fire() run a callback *in place*
// — no per-event move of the 64-byte inline capture out of the slab —
// even though the callback itself usually alloc()s follow-up events.
//
// Generations are per-slot stamps with parity encoding liveness: alloc()
// sets a slot's generation to 2·seq + 1 for the event's scheduling
// sequence number `seq` (odd: live), and fire() or release() adds one
// (even: free). Sequence numbers only grow, so a slot never sees the same
// odd stamp twice, and a handle captured at alloc() time stops matching
// the moment the slot is released: stale handles (cancel-after-fire,
// cancel-after-reuse) are rejected by a single array compare — no
// shared_ptr, no ABA. Because the stamp is a function of the sequence
// number, a ready-queue entry that carries (seq, slot) needs no copy of
// the generation to test its own liveness.
#pragma once

#include <cstdint>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/sim/check.h"
#include "src/sim/hot.h"
#include "src/sim/inplace_function.h"

namespace g80211 {

// Callback storage for one scheduled event. 64 bytes of inline capture is
// enough for every call site in the simulator (the largest is the wired
// link's {PacketPtr, std::function} pair at 48); bigger captures fail to
// compile rather than silently allocating.
using EventFn = InplaceFunction<64>;

class EventPool {
 public:
  // The generation alloc() gives the event with scheduling sequence number
  // `seq`: odd, and unique per slot because sequence numbers only grow.
  static constexpr std::uint64_t generation_of(std::uint64_t seq) {
    return 2 * seq + 1;
  }

  // Store `fn` in a free slot (reusing one if available), stamp it with
  // generation_of(seq) and return its index. The slot is live until fire()
  // or release(). The callable is constructed directly in the slot's
  // inline storage (no EventFn temporary) when a raw lambda is passed.
  template <typename F>
  std::uint32_t alloc(std::uint64_t seq, F&& fn) {
    G80211_ALLOC_OK(
        "slab growth stops at the event high-water mark; steady state "
        "reuses slots through the free list");
    std::uint32_t idx;
    if (free_.empty()) {
      if (size_ == chunks_.size() * kChunkSize) {
        chunks_.push_back(std::make_unique<Slot[]>(kChunkSize));
        // Keep fire()/release() allocation-free: the free list can hold at
        // most one entry per slot, so reserving alongside chunk growth
        // means its push_back never reallocates mid-callback.
        free_.reserve(chunks_.size() * kChunkSize);
      }
      idx = static_cast<std::uint32_t>(size_++);
    } else {
      idx = free_.back();
      free_.pop_back();
    }
    Slot& s = slot(idx);
    G80211_DCHECK(generation_of(seq) > s.generation &&
                  "sequence numbers must grow");
    s.generation = generation_of(seq);  // odd: live
    if constexpr (std::is_same_v<std::decay_t<F>, EventFn>) {
      s.fn = std::forward<F>(fn);
    } else {
      s.fn.emplace(std::forward<F>(fn));
    }
    return idx;
  }

  // True while {idx, gen} names a live (scheduled, unfired, uncancelled)
  // event. `gen` must come from generation_of() for a slot alloc() handed
  // out, so it is odd and one compare decides.
  bool live(std::uint32_t idx, std::uint64_t gen) const {
    G80211_DCHECK(idx < size_ && (gen & 1) != 0);
    return slot(idx).generation == gen;
  }

  // Fire path: run the callback in its slot, then free the slot. The
  // generation flips to even *before* the call so handles captured for
  // this event stop matching (a cancel issued from inside the callback is
  // a stale no-op, exactly as when the callback was moved out first), and
  // the slot joins the free list only *after* the call so it cannot be
  // reused by events the callback schedules. Chunk stability keeps the
  // slot's address valid across that scheduling.
  void fire(std::uint32_t idx) {
    Slot& s = slot(idx);
    G80211_DCHECK((s.generation & 1) != 0 && "fire() of a free slot");
    ++s.generation;  // odd -> even: live handles stop matching
    s.fn();
    s.fn.reset();
    // NOLINTNEXTLINE(hot-path-alloc): capacity reserved at chunk growth in
    // alloc() — one slot per possible entry, so this never reallocates.
    free_.push_back(idx);
  }

  // Cancel path: drop the callback and free the slot.
  void release(std::uint32_t idx) {
    Slot& s = slot(idx);
    G80211_DCHECK((s.generation & 1) != 0 && "double free of event slot");
    s.fn.reset();
    ++s.generation;  // odd -> even: free
    // NOLINTNEXTLINE(hot-path-alloc): capacity reserved at chunk growth in
    // alloc() — one slot per possible entry, so this never reallocates.
    free_.push_back(idx);
  }

  // Slab high-water mark: total slots ever created.
  std::size_t slots() const { return size_; }
  // Slots currently free (slots() - free_slots() events are live).
  std::size_t free_slots() const { return free_.size(); }

 private:
  struct Slot {
    std::uint64_t generation = 0;
    EventFn fn;
  };

  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSize = 1u << kChunkShift;

  Slot& slot(std::uint32_t idx) {
    return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
  }
  const Slot& slot(std::uint32_t idx) const {
    return chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::size_t size_ = 0;  // slots ever created (high-water mark)
  std::vector<std::uint32_t> free_;
};

}  // namespace g80211
