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
// (sim/task.hpp), which keeps hot-path captures in the slot itself. The
// heap is an inlined binary heap of plain (time, sequence, slot) entries,
// indexed: a compact per-slot position array follows every sift move, so
// any queued entry can be found in O(1).
// The `alloc-audit` preset proves the zero-allocation property at runtime
// (src/check/alloc_audit.hpp).
//
// Cancellation is eager: cancel() removes the entry from the heap in
// O(log n) and recycles its slot at once, so the heap holds only live
// events. Every entry sits at its own key, so the top is always the next
// event.
// A popped single event's slot is not recycled until the *next* pop, so a
// handle to the currently-executing event still reports pending() while
// its callback runs.
//
// Runs. Most events of a dense run are reception ends: one per listening
// radio of each transmission, all known at transmit time and already in
// key order. appendRun() queues such a batch at once as a *run*: a pooled
// vector of compact RunItems (key, label and a plain function call — no
// slot, no InlineTask) that owns one heap entry keyed by its next item.
// Popping an item re-keys that entry to the next one in place; the
// sift-down from the root usually stops at once, because the next end of
// the same frame is still the earliest event. Every item keeps the (time,
// tie key, sequence) key a single push would have given it and the heap
// entry always carries its run's minimum, so popping the global minimum
// merges runs and single events in exactly the order single pushes would
// have. A run is never cancelled and holds nothing but its items: an
// aborted reception's end still runs and finds nothing through its token
// (phy/radio.hpp), so no item needs a handle. The run is recycled as its
// last item is popped. Each item still counts in size()/peakDepth() and
// pops as one event.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/rng.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "util/hot_path.hpp"
#include "util/ownership.hpp"

namespace ecgrid::sim {

class EventQueue;

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
  friend class EventQueue;
  EventHandle(EventQueue* queue, std::uint32_t slot, std::uint32_t generation)
      : queue_(queue), slot_(slot), generation_(generation) {}

  EventQueue* queue_ = nullptr;
  std::uint32_t slot_ = 0;
  std::uint32_t generation_ = 0;
};

/// An event's place among events at the same time: the (tieKey, sequence)
/// pair a push assigns. Reserving one (EventQueue::reserveOrder) consumes
/// exactly what a push would — one sequence number — so an event that may
/// never be needed can be skipped and later pushed into the very place it
/// would have had, leaving every other event's key untouched
/// (phy::Channel's sleeper skip). EventQueue::reserveBlock takes n
/// consecutive places at once for a batch whose members are known only by
/// index (a transmission's receivers, by attachment id).
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

/// How a sequence number becomes a tie key: the identity normally, so ties
/// run in insertion order; under EventQueue::perturbTieBreak a counter-
/// based hash of (seed, sequence) — a pure function of the place, so a
/// block of places costs no draws and a perturbed run is reproducible.
struct TieBreak {
  bool perturbed = false;
  std::uint64_t seed = 0;

  [[nodiscard]] std::uint64_t keyOf(std::uint64_t sequence) const {
    if (!perturbed) return sequence;
    // splitmix64's finaliser over the seeded counter.
    std::uint64_t z = seed + sequence * 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  [[nodiscard]] EventOrder orderOf(std::uint64_t sequence) const {
    return {keyOf(sequence), sequence};
  }
};

/// Consecutive places taken at once (EventQueue::reserveBlock). Place i is
/// exactly what the i-th of that many back-to-back reserveOrder() calls
/// would have returned, and no other event's sequence falls inside the
/// block, so within it places keep index order.
class OrderBlock {
 public:
  OrderBlock(const TieBreak& tieBreak, std::uint64_t first)
      : tieBreak_(tieBreak), first_(first) {}

  /// Place `i`; `i` must be below the block's size.
  [[nodiscard]] EventOrder operator[](std::uint64_t i) const {
    return tieBreak_.orderOf(first_ + i);
  }

 private:
  TieBreak tieBreak_;
  std::uint64_t first_ = 0;
};

/// A run item's action: a plain function of the item's object and
/// argument.
using RunAction = void (*)(void* object, std::uint64_t arg);

/// One event of a run (see the header comment): its key, its label and its
/// action, nothing else.
struct RunItem {
  Time time = kTimeZero;
  EventOrder order;
  const char* label = nullptr;  ///< schedule-site tag (static storage)
  RunAction action = nullptr;
  void* object = nullptr;
  std::uint64_t arg = 0;
};
/// A dense transmission queues hundreds of these at once.
ECGRID_LAYOUT_BUDGET(RunItem, 56);

/// Queue order of two run items: time, then (tie key, sequence).
[[nodiscard]] inline bool itemBefore(const RunItem& a, const RunItem& b) {
  if (a.time != b.time) return a.time < b.time;
  return orderedBefore(a.order, b.order);
}

/// An event taken off the queue by EventQueue::pop: its key, its label and
/// its action — an InlineTask for a single event, the RunAction call for a
/// run item. Pop into a fresh Dispatch.
struct Dispatch {
  Time time = kTimeZero;
  EventOrder order;
  const char* label = nullptr;
  InlineTask task;               ///< single events
  RunAction runAction = nullptr;  ///< run items (task stays empty)
  void* object = nullptr;
  std::uint64_t arg = 0;

  void operator()() {
    if (runAction != nullptr) {
      runAction(object, arg);
    } else {
      task();
    }
  }
};

/// Min-heap of events ordered by (time, sequence), backed by a slab of
/// pooled records and a pool of runs. Non-copyable and non-movable:
/// handles store a pointer back to the queue.
class ECGRID_DOMAIN_PER_SCENARIO EventQueue {
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
  EventOrder reserveOrder() { return tieBreak_.orderOf(nextSequence_++); }

  /// Take the next `n` places at once, in O(1): the block's place i is what
  /// the i-th of n reserveOrder() calls made now would return.
  OrderBlock reserveBlock(std::uint64_t n) {
    const OrderBlock block(tieBreak_, nextSequence_);
    nextSequence_ += n;
    return block;
  }
  [[nodiscard]] std::uint64_t reservedSequences() const {
    return nextSequence_;
  }

  /// Push into a place taken earlier with reserveOrder().
  EventHandle push(Time time, EventOrder order, InlineTask action,
                   const char* label = nullptr);

  /// Queue `items` (their orders taken with reserveOrder() or
  /// reserveBlock()) at once as one run. They must be in itemBefore
  /// order; each keeps the place a single push would give it. Run items
  /// cannot be cancelled.
  void appendRun(std::span<const RunItem> items);

  /// Determinism-analysis debug mode (src/check): replace the insertion-
  /// sequence tie-break among equal-time events with pseudo-random keys,
  /// a hash of each place's sequence under a seed drawn once from
  /// `stream` (TieBreak; sequence stays the final tie-break, so a
  /// perturbed run is itself exactly reproducible). Affects only places
  /// reserved after the call. Correct protocol logic must not care which
  /// of two same-instant events runs first; a digest that diverges under
  /// this mode marks order-dependent logic — the simulator's data-race
  /// analogue. Never enable in runs whose numbers you intend to keep.
  void perturbTieBreak(RngStream stream) { tieBreak_ = {true, stream.raw()}; }
  bool tieBreakPerturbed() const { return tieBreak_.perturbed; }

  /// Moves the next event — its key, label (nullptr when the push site gave
  /// none) and action — into `out` and removes it. Returns false when the
  /// queue is empty. A single event's record is retired on the *next* pop,
  /// so handles to it stay pending() while the caller runs the action.
  bool pop(Dispatch& out);
  /// As above, with a run item's call packed into `action`.
  bool pop(Time& time, InlineTask& action);

  /// Time of the next event, or kTimeNever if empty.
  Time peekTime() const {
    return heap_.empty() ? kTimeNever : heap_.front().time;
  }

  bool empty() const { return heap_.empty(); }

  /// Events queued, run items included (cancelled ones leave at once; the
  /// executing one has already left).
  std::size_t size() const { return queued_; }

  /// Largest size() ever observed — the queue-depth high-water mark the
  /// trace's health records and ScenarioResult::peakQueueDepth report.
  /// Tracked at push and appendRun, so it is exact: depth only grows when
  /// an event is inserted.
  std::size_t peakDepth() const { return peakDepth_; }

  /// Pooled slot records ever allocated (the slab high-water mark; slots
  /// are recycled, never returned to the allocator). A run takes one slot
  /// for its heap entry, whatever its length.
  std::size_t slabSlots() const { return slots_.size(); }

  /// Runs ever opened at once (the run pool's high-water mark).
  std::size_t runPoolSize() const { return runs_.size(); }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// heapPos_ value of a slot with no heap entry (free or executing).
  static constexpr std::uint32_t kNotQueued = 0xffffffffu;
  static constexpr std::uint32_t kNoRun = 0xffffffffu;

  /// A run (see the header comment): its items in key order, the next
  /// one to pop, and the slab slot holding its heap entry, keyed by that
  /// item.
  struct Run {
    std::vector<RunItem> items;
    std::size_t head = 0;
    std::uint32_t slot = kNoSlot;
  };

  struct Slot {
    std::uint32_t generation = 0;
    bool live = false;       ///< allocated: queued or currently executing
    const char* label = nullptr;  ///< schedule-site tag (static storage)
    InlineTask action;
    std::uint32_t nextFree = kNoSlot;
    std::uint32_t run = kNoRun;  ///< the run whose heap entry this holds
  };
  /// The slab holds one Slot per in-flight event; at city scale that is
  /// hundreds of thousands. InlineTask (96B inline + 3 fn ptrs, padded to
  /// 16-byte alignment) dominates.
  ECGRID_LAYOUT_BUDGET(Slot, 176);

  struct HeapEntry {
    Time time = kTimeZero;
    /// Tie-break among equal times: == sequence normally, a hash of it
    /// under perturbTieBreak() (see TieBreak).
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

  std::uint32_t allocSlot();
  void freeSlot(std::uint32_t index);
  void heapPush(const HeapEntry& entry);
  void removeHeapAt(std::size_t i);
  /// A run from the pool, by index into runs_.
  std::uint32_t openRun();
  /// Take the run's head item into `out` and re-key the run's heap entry
  /// to the next item, or recycle the run when none is left.
  void popRunItem(std::uint32_t index, Dispatch& out);
  // EventHandle's backends.
  friend class EventHandle;
  void cancelSlot(std::uint32_t slot, std::uint32_t generation);
  bool slotPending(std::uint32_t slot, std::uint32_t generation) const;
  static HeapEntry headEntry(const Run& run) {
    const RunItem& head = run.items[run.head];
    return HeapEntry{head.time, head.order.tieKey, head.order.sequence,
                     run.slot};
  }
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
  /// Every run ever opened, by index; recycled ones wait on freeRuns_.
  std::vector<Run> runs_;
  std::vector<std::uint32_t> freeRuns_;
  TieBreak tieBreak_;
  std::uint32_t freeHead_ = kNoSlot;
  std::uint32_t executing_ = kNoSlot;  ///< slot recycled on next pop
  std::uint64_t nextSequence_ = 0;
  std::size_t queued_ = 0;     ///< events queued, run items included
  std::size_t peakDepth_ = 0;  ///< max queued_ ever observed
};

inline void EventHandle::cancel() {
  if (queue_ != nullptr) queue_->cancelSlot(slot_, generation_);
}

inline bool EventHandle::pending() const {
  return queue_ != nullptr && queue_->slotPending(slot_, generation_);
}

}  // namespace ecgrid::sim
