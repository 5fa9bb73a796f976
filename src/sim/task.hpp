// InlineTask — move-only callable with inline storage for event payloads.
//
// std::function's 16-byte small-buffer optimisation forces a heap
// allocation for any closure over 16 bytes — one malloc/free pair per
// event. The event queue stores InlineTask instead: any nothrow-movable
// callable up to kInlineBytes lives directly in the pooled event slot, so
// steady-state dispatch performs no heap traffic at all. Larger callables
// fall back to a heap box transparently (same observable semantics).
// The bulk of a dense run's events, receptions, no longer come through
// here: they are run items (sim/event.hpp), a plain function pointer
// each.
//
// A std::function is 32 bytes and therefore always fits inline, which is
// how legacy std::function-typed callables still ride the queue without
// double indirection: the function object (and whatever allocation it
// already made) is moved, never re-wrapped.
#pragma once

#include <cstddef>
#include <type_traits>
#include <utility>

#include "util/hot_path.hpp"
#include "util/ownership.hpp"

namespace ecgrid::sim {

class ECGRID_DOMAIN_PER_SCENARIO InlineTask {
 public:
  /// Sized for a closure carrying a net::Packet copy plus a pointer and
  /// a duration. Receptions queue run items, not closures; the largest
  /// hot closures are a std::function plus a small payload
  /// (paging/deliver). Anything bigger transparently boxes on the heap.
  static constexpr std::size_t kInlineBytes = 96;

  InlineTask() = default;

  template <class F,
            class = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineTask>>>
  InlineTask(F&& callable) {  // NOLINT(google-explicit-constructor)
    using Fn = std::decay_t<F>;
    if constexpr (sizeof(Fn) <= kInlineBytes &&
                  alignof(Fn) <= alignof(std::max_align_t) &&
                  std::is_nothrow_move_constructible_v<Fn>) {
      new (static_cast<void*>(storage_)) Fn(std::forward<F>(callable));
      invoke_ = [](void* p) { (*static_cast<Fn*>(p))(); };
      relocate_ = [](void* from, void* to) {
        Fn* src = static_cast<Fn*>(from);
        new (to) Fn(std::move(*src));
        src->~Fn();
      };
      destroy_ = [](void* p) { static_cast<Fn*>(p)->~Fn(); };
    } else {
      // Heap box: the slot stores only the pointer.
      new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(callable)));
      invoke_ = [](void* p) { (**static_cast<Fn**>(p))(); };
      relocate_ = [](void* from, void* to) {
        new (to) Fn*(*static_cast<Fn**>(from));
      };
      destroy_ = [](void* p) { delete *static_cast<Fn**>(p); };
    }
  }

  InlineTask(InlineTask&& other) noexcept { moveFrom(other); }
  InlineTask& operator=(InlineTask&& other) noexcept {
    if (this != &other) {
      reset();
      moveFrom(other);
    }
    return *this;
  }
  InlineTask(const InlineTask&) = delete;
  InlineTask& operator=(const InlineTask&) = delete;
  ~InlineTask() { reset(); }

  void operator()() { invoke_(storage_); }

  [[nodiscard]] explicit operator bool() const { return invoke_ != nullptr; }

  /// Destroy the held callable (no-op when empty).
  void reset() {
    if (destroy_ != nullptr) destroy_(storage_);
    invoke_ = nullptr;
    relocate_ = nullptr;
    destroy_ = nullptr;
  }

 private:
  void moveFrom(InlineTask& other) {
    if (other.invoke_ == nullptr) return;
    other.relocate_(other.storage_, storage_);
    invoke_ = other.invoke_;
    relocate_ = other.relocate_;
    destroy_ = other.destroy_;
    other.invoke_ = nullptr;
    other.relocate_ = nullptr;
    other.destroy_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
  void (*invoke_)(void*) = nullptr;
  void (*relocate_)(void*, void*) = nullptr;
  void (*destroy_)(void*) = nullptr;
};

/// One InlineTask sits in every pooled event slot of the queue; at
/// 100k hosts the slabs hold hundreds of thousands of these.
ECGRID_LAYOUT_BUDGET(InlineTask, 128);

}  // namespace ecgrid::sim
