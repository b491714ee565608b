// Small-buffer-optimized, move-only callable — the event hot path's
// replacement for std::function.
//
// std::function heap-allocates any capture larger than its tiny internal
// buffer and drags in RTTI-based type erasure; at millions of scheduled
// events per simulated second that allocation dominates the scheduler's
// cost. InplaceFunction stores the callable inline in a fixed-size buffer
// and *rejects oversized captures at compile time*, so a fat capture shows
// up as a build error at the call site instead of a silent heap hit.
//
// A trivially destructible capture (pointers and numbers, as most
// scheduler events hold) stores no destroy thunk, so reset() makes no
// indirect call for it: firing such an event costs one indirect call, the
// invoke.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace g80211 {

template <std::size_t Capacity, std::size_t Align = alignof(std::max_align_t)>
class InplaceFunction {
 public:
  InplaceFunction() = default;

  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InplaceFunction> &&
                                        std::is_invocable_r_v<void, D&>>>
  InplaceFunction(F&& f) {  // NOLINT: implicit by design, mirrors std::function
    emplace(std::forward<F>(f));
  }

  // Destroy the current callable (if any) and construct `f` directly in the
  // inline storage — the in-slot construction path the event pool uses to
  // avoid routing every capture through a temporary.
  template <typename F, typename D = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<D, InplaceFunction> &&
                                        std::is_invocable_r_v<void, D&>>>
  void emplace(F&& f) {
    static_assert(sizeof(D) <= Capacity,
                  "callback capture too large for InplaceFunction — shrink "
                  "the capture (capture pointers, not objects) or raise the "
                  "scheduler's event capacity");
    static_assert(alignof(D) <= Align, "over-aligned callback capture");
    static_assert(std::is_nothrow_move_constructible_v<D>,
                  "callback capture must be nothrow-movable");
    reset();
    ::new (static_cast<void*>(storage_)) D(std::forward<F>(f));
    invoke_ = [](void* s) { (*static_cast<D*>(s))(); };
    relocate_ = [](void* dst, void* src) {
      D* from = static_cast<D*>(src);
      ::new (dst) D(std::move(*from));
      from->~D();
    };
    if constexpr (std::is_trivially_destructible_v<D>) {
      destroy_ = nullptr;
    } else {
      destroy_ = [](void* s) { static_cast<D*>(s)->~D(); };
    }
  }

  InplaceFunction(InplaceFunction&& other) noexcept { move_from(other); }
  InplaceFunction& operator=(InplaceFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InplaceFunction(const InplaceFunction&) = delete;
  InplaceFunction& operator=(const InplaceFunction&) = delete;
  ~InplaceFunction() { reset(); }

  // Destroy the held callable (if any); leaves *this empty. No call at all
  // for a trivially destructible one.
  void reset() {
    if (destroy_) destroy_(storage_);
    invoke_ = nullptr;
    relocate_ = nullptr;
    destroy_ = nullptr;
  }

  explicit operator bool() const { return invoke_ != nullptr; }
  void operator()() { invoke_(storage_); }

 private:
  void move_from(InplaceFunction& other) noexcept {
    if (other.relocate_) {
      other.relocate_(storage_, other.storage_);
      invoke_ = other.invoke_;
      relocate_ = other.relocate_;
      destroy_ = other.destroy_;
      other.invoke_ = nullptr;
      other.relocate_ = nullptr;
      other.destroy_ = nullptr;
    }
  }

  alignas(Align) unsigned char storage_[Capacity];
  void (*invoke_)(void*) = nullptr;
  void (*relocate_)(void*, void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
};

}  // namespace g80211
