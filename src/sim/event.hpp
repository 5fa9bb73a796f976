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
// events.
//
// Parked timers. pushParked() and rearm() are push and cancel + push for a
// timer re-armed far more often than it fires — Radio's battery-depletion
// event, re-armed on every radio state change — whose re-arms keep its
// action. Its heap entry need not sit at the event's due key,
// only no later than it: it waits at a *floor* the caller gives (ideally a
// time before which no re-arm will be due), and the due key itself waits in a
// small side table, one record per parked timer. A re-arm whose due key
// is no earlier than the entry leaves the heap alone; only an earlier one
// moves it. An entry that reaches the top before its due key is re-keyed
// to that key inside pop()/peekTime() — silently: nothing executes and no
// sequence is taken, so the executed order is exactly cancel + push's.
// A popped record's slot is not recycled until the *next* pop, so a handle
// to the currently-executing event still reports pending() — the same
// observable semantics the previous shared_ptr-based queue had while
// Simulator::step kept the record alive through the callback.
//
// Runs. Most events of a dense run are receptions: one transmission's
// arrivals at every listening radio, then each reception's end. Those come
// in batches whose keys are already sorted, so append() queues them as a
// *run*: a pooled, append-only vector of compact RunItems (key, label and
// a plain function call — no slot, no InlineTask) that owns one heap entry
// keyed by its earliest live item. Popping an item re-keys that entry to
// the next one in place; the sift-down from the root usually stops at
// once, because the next arrival of the same frame is still the earliest
// event. Every item keeps the (time, tie key, sequence) key a single push
// would have given it and the heap entry always carries its run's minimum,
// so popping the global minimum merges runs and single events in exactly
// the order single pushes would have. Items are ordinary events to every
// observer: EventHandles cancel them (the run is an EventTarget), pending()
// holds through the item's own callback, and size()/peakDepth() count them.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "sim/rng.hpp"
#include "sim/task.hpp"
#include "sim/time.hpp"
#include "util/hot_path.hpp"
#include "util/ownership.hpp"

namespace ecgrid::sim {

class EventHandle;

/// Backend interface behind EventHandle: anything owning pooled event
/// slots addressed by (index, generation). The EventQueue implements it
/// for its slots and for its run items, so a handle is oblivious to which
/// kind of entry it names.
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

/// What a run's items share — phy::Frame, the frame every arrival of one
/// transmission delivers. Counted by its owner: a run takes one reference
/// when it opens and drops it when it is recycled (after its last item has
/// run), so the payload outlives every item that reads it.
class RunPayload {
 public:
  virtual void retainPayload() = 0;
  virtual void releasePayload() = 0;

 protected:
  ~RunPayload() = default;
};

/// A run item's action: a plain function of the item's object and argument
/// and the run's payload (nullptr for a run opened without one).
using RunAction = void (*)(void* object, std::uint64_t arg,
                           RunPayload* payload);

/// One event of a run (see the header comment): its key, its label and its
/// action, nothing else.
struct RunItem {
  Time time = kTimeZero;
  EventOrder order;
  const char* label = nullptr;  ///< schedule-site tag (static storage)
  RunAction action = nullptr;   ///< nullptr once cancelled or retired
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

/// Names the run EventQueue::append adds to next. Starts empty; append
/// points it at a fresh run whenever the named one cannot take the item.
/// A cursor belongs to the queue that set it.
class RunCursor {
 private:
  friend class EventQueue;
  static constexpr std::uint32_t kNone = 0xffffffffu;
  std::uint32_t run_ = kNone;
  std::uint32_t generation_ = 0;
};

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
  RunPayload* payload = nullptr;

  void operator()() {
    if (runAction != nullptr) {
      runAction(object, arg, payload);
    } else {
      task();
    }
  }
};

/// Min-heap of events ordered by (time, sequence), backed by a slab of
/// pooled records and a pool of runs. Non-copyable and non-movable:
/// handles store a pointer back to the queue.
class ECGRID_DOMAIN_PER_SCENARIO EventQueue : public EventTarget {
 public:
  EventQueue();
  ~EventQueue() override;
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

  /// A parked timer (see the header comment): push(due, action, label) in
  /// every observable — pop order, pending(), size(), sequences taken —
  /// but its heap entry may wait earlier, at `floor` (clamped to `due`).
  /// Move it with rearm().
  EventHandle pushParked(Time due, Time floor, InlineTask action,
                         const char* label = nullptr);

  /// Move the queued parked timer `handle` names to `due`, in the place a
  /// push right now would take, keeping its action and label: exactly
  /// `handle.cancel(); handle = pushParked(due, floor, itsAction,
  /// itsLabel);` in every observable. Its slot keeps serving under a new
  /// generation (other copies of the old handle go dead, as after a
  /// cancel), and its entry moves only if the new due key sorts before
  /// where it waits. Returns false, taking nothing, when `handle` names no
  /// queued parked timer (inert, fired, cancelled, executing, a plain
  /// event, or another queue's handle).
  bool rearm(EventHandle& handle, Time due, Time floor);

  /// Queue `item` (its order taken with reserveOrder()) as the new tail of
  /// the run `cursor` names. When there is no such run any more, or it has
  /// started draining, or `item` sorts before its tail, a fresh run is
  /// opened instead — holding a reference to `payload` — and `cursor` is
  /// pointed at it. Items are never inserted out of order, so each keeps
  /// the place a single push would give it. The handle cancels the item
  /// like any event.
  EventHandle append(RunCursor& cursor, const RunItem& item,
                     RunPayload* payload = nullptr);

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
  /// queue is empty. The event's record is retired on the *next* pop, so
  /// handles to it stay pending() while the caller runs the action.
  bool pop(Dispatch& out);
  /// As above, with a run item's call packed into `action`.
  bool pop(Time& time, InlineTask& action);

  /// Time of the next event, or kTimeNever if empty. Not const: a parked
  /// entry on top is first re-keyed to its due key.
  Time peekTime() {
    surfaceTop();
    return heap_.empty() ? kTimeNever : heap_.front().time;
  }

  bool empty() const { return heap_.empty(); }

  /// Events queued, run items included (cancelled ones leave at once; the
  /// executing one has already left).
  std::size_t size() const { return queued_; }

  /// Largest size() ever observed — the queue-depth high-water mark run
  /// telemetry reports. Tracked at push and append, so it is exact: depth
  /// only grows when an event is inserted.
  std::size_t peakDepth() const { return peakDepth_; }

  /// Pooled slot records ever allocated (the slab high-water mark; slots
  /// are recycled, never returned to the allocator). A run takes one slot
  /// for its heap entry, whatever its length.
  std::size_t slabSlots() const { return slots_.size(); }

  /// Runs ever opened at once (the run pool's high-water mark).
  std::size_t runPoolSize() const { return runs_.size(); }

  /// Parked entries re-keyed to their due key on reaching the top.
  std::uint64_t parkedSurfaced() const { return parkedSurfaced_; }

 protected:
  // EventTarget backends (EventHandle reaches them through the base).
  void cancelSlot(std::uint32_t slot, std::uint32_t generation) override;
  bool slotPending(std::uint32_t slot,
                   std::uint32_t generation) const override;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// heapPos_ value of a slot with no heap entry (free or executing).
  static constexpr std::uint32_t kNotQueued = 0xffffffffu;
  static constexpr std::uint32_t kNoRun = 0xffffffffu;
  static constexpr std::uint32_t kNoDue = 0xffffffffu;

  /// A run (see the header comment). Items before `head` have been popped
  /// (the executing one keeps its action until it retires) or cancelled;
  /// `head` is the earliest live item, whose key the run's heap entry
  /// carries. The run is the EventTarget of its items' handles: slot =
  /// item index, generation = the run's, bumped when it is recycled.
  class Run final : public EventTarget {
   public:
    Run(EventQueue& owner, std::uint32_t at) : queue(owner), index(at) {}
    // Handles hold its address.
    Run(const Run&) = delete;
    Run& operator=(const Run&) = delete;

    EventQueue& queue;
    const std::uint32_t index;  ///< in runs_
    std::vector<RunItem> items;
    std::size_t head = 0;
    std::size_t live = 0;  ///< items neither popped nor cancelled
    RunPayload* payload = nullptr;
    std::uint32_t generation = 0;
    std::uint32_t slot = kNoSlot;  ///< slab slot holding the heap entry
    bool sealed = false;           ///< an item has been popped: no appends

   protected:
    void cancelSlot(std::uint32_t item, std::uint32_t generation) override {
      queue.cancelRunItem(*this, item, generation);
    }
    bool slotPending(std::uint32_t item,
                     std::uint32_t generation) const override {
      return generation == this->generation && item < items.size() &&
             items[item].action != nullptr;
    }
  };

  struct Slot {
    std::uint32_t generation = 0;
    bool live = false;       ///< allocated: queued or currently executing
    const char* label = nullptr;  ///< schedule-site tag (static storage)
    InlineTask action;
    std::uint32_t nextFree = kNoSlot;
    std::uint32_t run = kNoRun;  ///< the run whose heap entry this holds
    std::uint32_t due = kNoDue;  ///< a parked timer's record in due_
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
    /// A parked timer's entry waiting before its due key (in the padding,
    /// so the flag costs nothing).
    bool parked = false;
  };
  ECGRID_LAYOUT_BUDGET(HeapEntry, 32);

  /// Where a parked timer's event really runs.
  struct DueKey {
    Time time = kTimeZero;
    EventOrder order;
  };

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
  void heapPush(const HeapEntry& entry);
  /// Fill a fresh slot and queue its entry at (time, order); `due` names
  /// its due key when it is a parked timer (kNoDue otherwise).
  std::uint32_t insert(Time time, EventOrder order, InlineTask action,
                       const char* label, std::uint32_t due);
  /// Re-key parked entries that have reached the top to their due keys,
  /// until the top is an entry at its own key.
  void surfaceTop();
  void removeHeapAt(std::size_t i);
  /// Retire the event popped last: recycle its slot, or clear its run
  /// item and recycle the run if nothing of it is left.
  void retireExecuting();
  Run& openRun(RunPayload* payload);
  void recycleRun(Run& run);
  void popRunItem(Run& run, Dispatch& out);
  void cancelRunItem(Run& run, std::uint32_t item, std::uint32_t generation);
  /// The run's head moved (popped or cancelled): advance it past cancelled
  /// items and re-key the run's heap entry, or drop the entry when no live
  /// item is left.
  void advanceRun(Run& run);
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
  /// Separately allocated so a Run's address — its items' handle target —
  /// never moves.
  std::vector<std::unique_ptr<Run>> runs_;
  std::vector<std::uint32_t> freeRuns_;
  /// Due keys of parked timers, by Slot::due; recycled ones wait on
  /// freeDue_.
  std::vector<DueKey> due_;
  std::vector<std::uint32_t> freeDue_;
  std::uint64_t parkedSurfaced_ = 0;
  TieBreak tieBreak_;
  std::uint32_t freeHead_ = kNoSlot;
  std::uint32_t executing_ = kNoSlot;  ///< slot recycled on next pop
  /// Run item popped last, retired on next pop.
  std::uint32_t executingRun_ = kNoRun;
  std::uint32_t executingItem_ = 0;
  std::uint64_t nextSequence_ = 0;
  std::size_t queued_ = 0;     ///< events queued, run items included
  std::size_t peakDepth_ = 0;  ///< max queued_ ever observed
};

inline void EventHandle::cancel() {
  if (target_ != nullptr) target_->cancelSlot(slot_, generation_);
}

inline bool EventHandle::pending() const {
  return target_ != nullptr && target_->slotPending(slot_, generation_);
}

}  // namespace ecgrid::sim
