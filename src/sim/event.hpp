// Cancellable events and the deterministic event queue.
//
// Events are closures scheduled at absolute simulation times. Ties in time
// are broken by insertion sequence number, making every run's event order a
// total order that is independent of heap internals — a prerequisite for
// bit-for-bit reproducibility across platforms.
//
// Storage is a slab: event records live in a pooled free-list and are
// addressed by (index, generation) handles, so steady-state scheduling
// performs no heap allocation at all — closures are stored as InlineTask
// (sim/task.hpp), which keeps hot-path captures in the slot itself (the
// pre-PR-9 design paid one std::function heap box per event whose capture
// exceeded 16 bytes, and the design before that a shared_ptr control
// block per event). The heap is an inlined binary heap of plain
// (time, sequence, slot) entries, indexed: a compact per-slot position
// array follows every sift move, so any queued entry can be found in O(1).
// The `alloc-audit` preset proves the zero-allocation property at runtime
// (src/check/alloc_audit.hpp).
//
// Cancellation is eager: cancel() removes the entry from the heap in
// O(log n) and recycles its slot at once, so the heap holds only live
// events. rekey() moves a queued entry to a new key in place — observably
// the same as cancel + push, minus the slot churn; Radio's battery-
// depletion timer, re-armed on every radio state change, is the reason.
// A popped record's slot is not recycled until the *next* pop, so a handle
// to the currently-executing event still reports pending() — the same
// observable semantics the previous shared_ptr-based queue had while
// Simulator::step kept the record alive through the callback.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/rng.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "util/hot_path.hpp"
#include "util/ownership.hpp"

namespace ecgrid::sim {

class EventHandle;

/// Backend interface behind EventHandle: anything owning pooled event
/// slots addressed by (index, generation). The serial EventQueue and the
/// sharded engine's per-shard queues (sim/sharded/shard_queue.hpp) both
/// implement it, so a handle is oblivious to which engine minted it.
class EventTarget {
 public:
  virtual ~EventTarget() = default;

 protected:
  friend class EventHandle;
  virtual void cancelSlot(std::uint32_t slot, std::uint32_t generation) = 0;
  virtual bool slotPending(std::uint32_t slot,
                           std::uint32_t generation) const = 0;
  /// Handle factory for implementations (EventHandle's constructor is
  /// private to keep (slot, generation) pairs unforgeable).
  static EventHandle makeHandle(EventTarget* target, std::uint32_t slot,
                                std::uint32_t generation);
  /// The (slot, generation) `handle` names, if `this` minted it.
  bool ownsHandle(const EventHandle& handle, std::uint32_t& slot,
                  std::uint32_t& generation) const;
};

/// Handle to a scheduled event. Default-constructed handles are inert.
/// Copyable; all copies refer to the same event. A handle must not be
/// used after its queue (i.e. the Simulator) is destroyed — all simulator
/// components already obey this by construction, as they hold a
/// reference to the Simulator that owns the queue.
class EventHandle {
 public:
  EventHandle() = default;

  /// Cancel the event if it has not fired yet. Idempotent.
  void cancel();

  /// True if the event is still scheduled to fire (or firing right now).
  [[nodiscard]] bool pending() const;

 private:
  friend class EventTarget;
  EventHandle(EventTarget* target, std::uint32_t slot,
              std::uint32_t generation)
      : target_(target), slot_(slot), generation_(generation) {}

  EventTarget* target_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

inline EventHandle EventTarget::makeHandle(EventTarget* target,
                                           std::uint32_t slot,
                                           std::uint32_t generation) {
  return EventHandle(target, slot, generation);
}

inline bool EventTarget::ownsHandle(const EventHandle& handle,
                                    std::uint32_t& slot,
                                    std::uint32_t& generation) const {
  if (handle.target_ != this) return false;
  slot = handle.slot_;
  generation = handle.generation_;
  return true;
}

/// An event's place among events at the same time: the (tieKey, sequence)
/// pair a push assigns. Reserving one (EventQueue::reserveOrder) consumes
/// exactly what a push would — one sequence number, plus one tie-break
/// draw when perturbed — so an event that may never be needed can be
/// skipped and later pushed into the very place it would have had, leaving
/// every other event's key untouched (phy::Channel's sleeper skip).
struct EventOrder {
  std::uint64_t tieKey = 0;
  std::uint64_t sequence = 0;
};

/// Total order among same-time events: tie key, then sequence.
[[nodiscard]] inline bool orderedBefore(const EventOrder& a,
                                        const EventOrder& b) {
  if (a.tieKey != b.tieKey) return a.tieKey < b.tieKey;
  return a.sequence < b.sequence;
}

/// Min-heap of events ordered by (time, sequence), backed by a slab of
/// pooled records. Non-copyable and non-movable: handles store a pointer
/// back to the queue.
class ECGRID_DOMAIN_PER_SCENARIO EventQueue : public EventTarget {
 public:
  EventQueue();
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// `label` is an optional schedule-site tag for the execution profiler
  /// (see Simulator::schedule); it must point at storage outliving the
  /// queue — in practice a string literal. Any callable converts to
  /// InlineTask implicitly; hot-path captures up to
  /// InlineTask::kInlineBytes stay allocation-free.
  EventHandle push(Time time, InlineTask action, const char* label = nullptr) {
    return push(time, reserveOrder(), std::move(action), label);
  }

  /// Take the next place in the same-time order without pushing anything
  /// (see EventOrder). Sequence numbers below reservedSequences() are taken.
  EventOrder reserveOrder() {
    const std::uint64_t sequence = nextSequence_++;
    return {tieBreakRng_ ? tieBreakRng_->raw() : sequence, sequence};
  }
  [[nodiscard]] std::uint64_t reservedSequences() const {
    return nextSequence_;
  }

  /// Push into a place taken earlier with reserveOrder().
  EventHandle push(Time time, EventOrder order, InlineTask action,
                   const char* label = nullptr);

  /// Exactly `handle.cancel(); return push(time, order, action, label);`.
  /// When the handle's event is queued, its heap entry is moved to the new
  /// key in place and its slot keeps serving (under a new generation, so
  /// other copies of the old handle go dead just as after a cancel);
  /// otherwise (inert, fired, cancelled, executing, or another queue's
  /// handle) it falls back to cancel + push.
  EventHandle rekey(EventHandle handle, Time time, EventOrder order,
                    InlineTask action, const char* label = nullptr);

  /// Determinism-analysis debug mode (src/check): replace the insertion-
  /// sequence tie-break among equal-time events with random keys drawn
  /// from `stream` (sequence stays the final tie-break, so a perturbed
  /// run is itself exactly reproducible). Affects only events pushed
  /// after the call. Correct protocol logic must not care which of two
  /// same-instant events runs first; a digest that diverges under this
  /// mode marks order-dependent logic — the simulator's data-race
  /// analogue. Never enable in runs whose numbers you intend to keep.
  void perturbTieBreak(RngStream stream) { tieBreakRng_ = stream; }
  bool tieBreakPerturbed() const { return tieBreakRng_.has_value(); }

  /// Moves the next event's time and action into the out-parameters and
  /// removes it. Returns false when the queue is empty. The event's slot
  /// is recycled on the *next* pop, so handles to it stay pending() while
  /// the caller runs the action.
  bool pop(Time& time, InlineTask& action);
  /// As above, also reporting the event's schedule-site label (nullptr
  /// when the push site gave none) and its place in the same-time order.
  bool pop(Time& time, InlineTask& action, const char*& label,
           EventOrder& order);

  /// Time of the next event, or kTimeNever if empty.
  Time peekTime() const {
    return heap_.empty() ? kTimeNever : heap_.front().time;
  }

  bool empty() const { return heap_.empty(); }

  /// Events queued (cancelled ones leave at once; the executing one has
  /// already left).
  std::size_t size() const { return heap_.size(); }

  /// Largest size() ever observed — the queue-depth high-water mark run
  /// telemetry reports. Tracked at push, so it is exact: depth only grows
  /// when an event is inserted.
  std::size_t peakDepth() const { return peakDepth_; }

  /// Pooled slot records ever allocated (the slab high-water mark; slots
  /// are recycled, never returned to the allocator).
  std::size_t slabSlots() const { return slots_.size(); }

 protected:
  // EventTarget backends (EventHandle reaches them through the base).
  void cancelSlot(std::uint32_t slot, std::uint32_t generation) override;
  bool slotPending(std::uint32_t slot,
                   std::uint32_t generation) const override;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// heapPos_ value of a slot with no heap entry (free or executing).
  static constexpr std::uint32_t kNotQueued = 0xffffffffu;

  struct Slot {
    Time time = kTimeZero;
    std::uint32_t generation = 0;
    bool live = false;       ///< allocated: queued or currently executing
    const char* label = nullptr;  ///< schedule-site tag (static storage)
    InlineTask action;
    std::uint32_t nextFree = kNoSlot;
  };
  /// The slab holds one Slot per in-flight event; at city scale that is
  /// hundreds of thousands. InlineTask (96B inline + 3 fn ptrs, padded to
  /// 16-byte alignment) dominates.
  ECGRID_LAYOUT_BUDGET(Slot, 176);

  struct HeapEntry {
    Time time = kTimeZero;
    /// Tie-break among equal times: == sequence normally, a random draw
    /// under perturbTieBreak() (see above).
    std::uint64_t tieKey = 0;
    std::uint64_t sequence = 0;
    std::uint32_t slot = 0;
  };
  ECGRID_LAYOUT_BUDGET(HeapEntry, 32);

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.time != b.time) return a.time < b.time;
    if (a.tieKey != b.tieKey) return a.tieKey < b.tieKey;
    return a.sequence < b.sequence;
  }

  /// Slot index of the queued (not executing) event `handle` names, or
  /// kNoSlot.
  std::uint32_t queuedSlot(const EventHandle& handle) const;
  std::uint32_t allocSlot();
  void freeSlot(std::uint32_t index);
  void removeHeapAt(std::size_t i);
  /// Store `entry` at heap position i and record that position in
  /// heapPos_; every sift move goes through here.
  void place(std::size_t i, const HeapEntry& entry) {
    heap_[i] = entry;
    heapPos_[entry.slot] = static_cast<std::uint32_t>(i);
  }
  void siftUp(std::size_t i, const HeapEntry& entry);
  void siftDown(std::size_t i, const HeapEntry& entry);
  /// siftUp or siftDown, whichever way `entry` has to go from hole i.
  void sift(std::size_t i, const HeapEntry& entry);

  std::vector<Slot> slots_;
  std::vector<HeapEntry> heap_;
  /// Heap position of each slot's entry (kNotQueued when it has none);
  /// grows with slots_, indexed by slot.
  std::vector<std::uint32_t> heapPos_;
  std::optional<RngStream> tieBreakRng_;
  std::uint32_t freeHead_ = kNoSlot;
  std::uint32_t executing_ = kNoSlot;  ///< slot recycled on next pop
  std::uint64_t nextSequence_ = 0;
  std::size_t peakDepth_ = 0;  ///< max heap_.size() ever observed
};

inline void EventHandle::cancel() {
  if (target_ != nullptr) target_->cancelSlot(slot_, generation_);
}

inline bool EventHandle::pending() const {
  return target_ != nullptr && target_->slotPending(slot_, generation_);
}

}  // namespace ecgrid::sim
