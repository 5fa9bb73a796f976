#include "sim/event.hpp"

#include <algorithm>
#include <utility>

#include "util/error.hpp"
#include "util/hot_path.hpp"

namespace ecgrid::sim {

namespace {
/// Slab capacity pre-sized at construction so paper-baseline runs never
/// grow the vectors on the hot path (the audit gate would count it).
constexpr std::size_t kInitialSlots = 256;
/// Runs open at once: about one per transmission in flight (its reception
/// ends).
constexpr std::size_t kInitialRuns = 64;
}  // namespace

EventQueue::EventQueue() {
  slots_.reserve(kInitialSlots);
  heapPos_.reserve(kInitialSlots);
  heap_.reserve(kInitialSlots);
  runs_.reserve(kInitialRuns);
  freeRuns_.reserve(kInitialRuns);
}

ECGRID_HOT_PATH std::uint32_t EventQueue::allocSlot() {
  if (freeHead_ != kNoSlot) {
    std::uint32_t index = freeHead_;
    freeHead_ = slots_[index].nextFree;
    return index;
  }
  if (slots_.size() == slots_.capacity()) {
    // Slab growth: monotone high-water mark, not steady-state churn — a
    // geometric number of growth events total, audit-exempt by the same
    // argument every lint allow() on a reserved container makes. The
    // reserve() above covers baseline runs; bigger scenarios amortise.
    // The position index grows in step with the slab.
    ECGRID_ALLOC_EXEMPT();
    const std::size_t capacity =
        slots_.empty() ? kInitialSlots : slots_.capacity() * 2;
    slots_.reserve(capacity);
    heapPos_.reserve(capacity);
  }
  slots_.emplace_back();
  heapPos_.push_back(kNotQueued);
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

ECGRID_HOT_PATH void EventQueue::freeSlot(std::uint32_t index) {
  Slot& slot = slots_[index];
  slot.live = false;
  slot.label = nullptr;
  slot.action.reset();
  slot.run = kNoRun;
  // Bump the generation on free so stale handles can never alias a record
  // that reuses this slot.
  ++slot.generation;
  slot.nextFree = freeHead_;
  freeHead_ = index;
}

ECGRID_HOT_PATH EventHandle EventQueue::push(Time time, EventOrder order,
                                             InlineTask action,
                                             const char* label) {
  ECGRID_HOT_SCOPE();
  ECGRID_REQUIRE(static_cast<bool>(action), "event action must be callable");
  ECGRID_REQUIRE(order.sequence < nextSequence_,
                 "event order was never reserved");
  std::uint32_t index = allocSlot();
  Slot& slot = slots_[index];
  slot.live = true;
  slot.label = label;
  slot.action = std::move(action);
  if (++queued_ > peakDepth_) peakDepth_ = queued_;
  heapPush(HeapEntry{time, order.tieKey, order.sequence, index});
  return EventHandle(this, index, slot.generation);
}

ECGRID_HOT_PATH void EventQueue::heapPush(const HeapEntry& entry) {
  if (heap_.size() == heap_.capacity()) {
    // High-water growth, same argument as the slab in allocSlot().
    ECGRID_ALLOC_EXEMPT();
    heap_.reserve(heap_.empty() ? kInitialSlots : heap_.capacity() * 2);
  }
  heap_.emplace_back();
  siftUp(heap_.size() - 1, entry);
}

std::uint32_t EventQueue::openRun() {
  if (freeRuns_.empty()) {
    // Pool growth: a high-water mark (runs in flight at once), never
    // steady-state churn; same argument as the slab in allocSlot().
    ECGRID_ALLOC_EXEMPT();
    const auto index = static_cast<std::uint32_t>(runs_.size());
    runs_.emplace_back();
    freeRuns_.reserve(runs_.capacity());
    freeRuns_.push_back(index);
  }
  const std::uint32_t index = freeRuns_.back();
  freeRuns_.pop_back();
  return index;
}

ECGRID_HOT_PATH void EventQueue::appendRun(std::span<const RunItem> items) {
  ECGRID_HOT_SCOPE();
  for (std::size_t i = 0; i < items.size(); ++i) {
    ECGRID_REQUIRE(items[i].action != nullptr, "run item action must be set");
    ECGRID_REQUIRE(items[i].order.sequence < nextSequence_,
                   "event order was never reserved");
    ECGRID_REQUIRE(i == 0 || itemBefore(items[i - 1], items[i]),
                   "run items must be in key order");
  }
  if (items.empty()) return;
  const std::uint32_t index = openRun();
  Run& run = runs_[index];
  if (items.size() > run.items.capacity()) {
    // A run's storage grows only past its own high-water mark; recycled
    // runs keep their capacity.
    ECGRID_ALLOC_EXEMPT();
    run.items.reserve(std::max(items.size(), 2 * run.items.capacity()));
  }
  run.items.assign(items.begin(), items.end());
  queued_ += items.size();
  if (queued_ > peakDepth_) peakDepth_ = queued_;
  run.slot = allocSlot();
  slots_[run.slot].run = index;
  heapPush(headEntry(run));
}

ECGRID_HOT_PATH void EventQueue::siftUp(std::size_t i, const HeapEntry& entry) {
  while (i > 0) {
    std::size_t parent = (i - 1) / 2;
    if (!earlier(entry, heap_[parent])) break;
    place(i, heap_[parent]);
    i = parent;
  }
  place(i, entry);
}

ECGRID_HOT_PATH void EventQueue::siftDown(std::size_t i,
                                          const HeapEntry& entry) {
  const std::size_t size = heap_.size();
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= size) break;
    if (child + 1 < size && earlier(heap_[child + 1], heap_[child])) ++child;
    if (!earlier(heap_[child], entry)) break;
    place(i, heap_[child]);
    i = child;
  }
  place(i, entry);
}

ECGRID_HOT_PATH void EventQueue::sift(std::size_t i, const HeapEntry& entry) {
  if (i > 0 && earlier(entry, heap_[(i - 1) / 2])) {
    siftUp(i, entry);
  } else {
    siftDown(i, entry);
  }
}

ECGRID_HOT_PATH void EventQueue::removeHeapAt(std::size_t i) {
  heapPos_[heap_[i].slot] = kNotQueued;
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (i < heap_.size()) sift(i, last);
}

bool EventQueue::pop(Time& time, InlineTask& action) {
  Dispatch next;
  if (!pop(next)) return false;
  time = next.time;
  if (next.runAction != nullptr) {
    action = [run = next.runAction, object = next.object, arg = next.arg] {
      run(object, arg);
    };
  } else {
    action = std::move(next.task);
  }
  return true;
}

ECGRID_HOT_PATH bool EventQueue::pop(Dispatch& out) {
  ECGRID_HOT_SCOPE();
  // The previous single event's record outlived its execution (see
  // header); now that the caller is back for the next event, retire it.
  if (executing_ != kNoSlot) {
    freeSlot(executing_);
    executing_ = kNoSlot;
  }
  if (heap_.empty()) return false;
  const HeapEntry& top = heap_.front();
  out.time = top.time;
  out.order = EventOrder{top.tieKey, top.sequence};
  const std::uint32_t index = top.slot;
  Slot& slot = slots_[index];
  --queued_;
  if (slot.run != kNoRun) {
    popRunItem(slot.run, out);
    return true;
  }
  out.task = std::move(slot.action);
  out.label = slot.label;
  removeHeapAt(0);
  executing_ = index;
  return true;
}

ECGRID_HOT_PATH void EventQueue::popRunItem(std::uint32_t index,
                                            Dispatch& out) {
  Run& run = runs_[index];
  const RunItem& item = run.items[run.head];
  out.label = item.label;
  out.runAction = item.action;
  out.object = item.object;
  out.arg = item.arg;
  const std::size_t at = heapPos_[run.slot];
  if (++run.head == run.items.size()) {
    // The last item: `out` holds all its call needs, so the run goes back
    // to the pool now (keeping its items' capacity).
    removeHeapAt(at);
    freeSlot(run.slot);
    run.slot = kNoSlot;
    run.items.clear();
    run.head = 0;
    freeRuns_.push_back(index);
    return;
  }
  // The head only moves later in the order, so the entry sifts down.
  siftDown(at, headEntry(run));
  // A run's items mostly run back to back (one frame's reception ends):
  // start loading the next one's object while this one runs.
  __builtin_prefetch(run.items[run.head].object);
}

ECGRID_HOT_PATH void EventQueue::cancelSlot(std::uint32_t slot,
                                            std::uint32_t generation) {
  if (slot >= slots_.size()) return;
  Slot& record = slots_[slot];
  if (!record.live || record.generation != generation) return;
  // Eager: the entry leaves the heap and the slot is recycled now, so the
  // heap holds only live events. The executing slot has no heap entry;
  // its action already left with pop(), so it can be recycled early too.
  if (slot == executing_) {
    executing_ = kNoSlot;
  } else {
    removeHeapAt(heapPos_[slot]);
    --queued_;
  }
  freeSlot(slot);
}

bool EventQueue::slotPending(std::uint32_t slot,
                             std::uint32_t generation) const {
  if (slot >= slots_.size()) return false;
  const Slot& record = slots_[slot];
  return record.live && record.generation == generation;
}

}  // namespace ecgrid::sim
