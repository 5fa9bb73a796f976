#include "sim/event.hpp"

#include <utility>

#include "util/error.hpp"
#include "util/hot_path.hpp"

namespace ecgrid::sim {

namespace {
/// Slab capacity pre-sized at construction so paper-baseline runs never
/// grow the vectors on the hot path (the audit gate would count it).
constexpr std::size_t kInitialSlots = 256;
/// Runs open at once: about two per transmission in flight (its arrivals
/// and its reception ends).
constexpr std::size_t kInitialRuns = 64;
/// First capacity of a run's items; it doubles as needed and is kept when
/// the run is recycled.
constexpr std::size_t kInitialRunItems = 16;
/// Parked timers at once: one per radio of a paper-baseline run (100
/// hosts).
constexpr std::size_t kInitialDue = 128;
}  // namespace

EventQueue::EventQueue() {
  slots_.reserve(kInitialSlots);
  heapPos_.reserve(kInitialSlots);
  heap_.reserve(kInitialSlots);
  runs_.reserve(kInitialRuns);
  freeRuns_.reserve(kInitialRuns);
  due_.reserve(kInitialDue);
  freeDue_.reserve(kInitialDue);
}

EventQueue::~EventQueue() {
  // Runs still holding a payload drop it here, as closures left in the
  // slab drop their captures.
  for (const std::unique_ptr<Run>& run : runs_) {
    if (run->payload != nullptr) run->payload->releasePayload();
  }
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
  if (slot.due != kNoDue) {
    freeDue_.push_back(slot.due);
    slot.due = kNoDue;
  }
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
  const std::uint32_t index =
      insert(time, order, std::move(action), label, kNoDue);
  return makeHandle(this, index, slots_[index].generation);
}

ECGRID_HOT_PATH std::uint32_t EventQueue::insert(Time time, EventOrder order,
                                                 InlineTask action,
                                                 const char* label,
                                                 std::uint32_t due) {
  ECGRID_REQUIRE(static_cast<bool>(action), "event action must be callable");
  ECGRID_REQUIRE(order.sequence < nextSequence_,
                 "event order was never reserved");
  std::uint32_t index = allocSlot();
  Slot& slot = slots_[index];
  slot.live = true;
  slot.label = label;
  slot.action = std::move(action);
  slot.due = due;
  if (++queued_ > peakDepth_) peakDepth_ = queued_;
  heapPush(HeapEntry{time, order.tieKey, order.sequence, index,
                     due != kNoDue && time < due_[due].time});
  return index;
}

ECGRID_HOT_PATH EventHandle EventQueue::pushParked(Time due, Time floor,
                                                   InlineTask action,
                                                   const char* label) {
  ECGRID_HOT_SCOPE();
  if (!(floor < due)) floor = due;
  std::uint32_t record = 0;
  if (freeDue_.empty()) {
    if (due_.size() == due_.capacity()) {
      // High-water growth, same argument as the slab in allocSlot(); the
      // free list grows in step, so freeSlot() never allocates.
      ECGRID_ALLOC_EXEMPT();
      due_.reserve(due_.capacity() * 2);
      freeDue_.reserve(due_.capacity());
    }
    record = static_cast<std::uint32_t>(due_.size());
    due_.emplace_back();
  } else {
    record = freeDue_.back();
    freeDue_.pop_back();
  }
  const EventOrder order = reserveOrder();
  due_[record] = DueKey{due, order};
  const std::uint32_t index =
      insert(floor, order, std::move(action), label, record);
  return makeHandle(this, index, slots_[index].generation);
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

EventQueue::Run& EventQueue::openRun(RunPayload* payload) {
  if (freeRuns_.empty()) {
    // Pool growth: a high-water mark (runs in flight at once), never
    // steady-state churn; same argument as the slab in allocSlot().
    ECGRID_ALLOC_EXEMPT();
    const auto index = static_cast<std::uint32_t>(runs_.size());
    runs_.push_back(std::make_unique<Run>(*this, index));
    freeRuns_.reserve(runs_.capacity());
    freeRuns_.push_back(index);
  }
  Run& run = *runs_[freeRuns_.back()];
  freeRuns_.pop_back();
  run.payload = payload;
  if (payload != nullptr) payload->retainPayload();
  return run;
}

ECGRID_HOT_PATH void EventQueue::recycleRun(Run& run) {
  if (run.payload != nullptr) {
    run.payload->releasePayload();
    run.payload = nullptr;
  }
  // Keep the items' capacity: the pool's storage stays at its high-water
  // mark. The generation bump kills every handle to the old items.
  run.items.clear();
  run.head = 0;
  run.sealed = false;
  ++run.generation;
  freeRuns_.push_back(run.index);
}

ECGRID_HOT_PATH EventHandle EventQueue::append(RunCursor& cursor,
                                               const RunItem& item,
                                               RunPayload* payload) {
  ECGRID_HOT_SCOPE();
  ECGRID_REQUIRE(item.action != nullptr, "run item action must be set");
  ECGRID_REQUIRE(item.order.sequence < nextSequence_,
                 "event order was never reserved");
  Run* run = nullptr;
  if (cursor.run_ != RunCursor::kNone) {
    Run& named = *runs_[cursor.run_];
    // Appending behind a popped item, or before the tail, would put the
    // item out of order: open a new run instead.
    if (named.generation == cursor.generation_ && !named.sealed &&
        itemBefore(named.items.back(), item)) {
      run = &named;
    }
  }
  if (run == nullptr) {
    run = &openRun(payload);
    cursor.run_ = run->index;
    cursor.generation_ = run->generation;
  }
  std::vector<RunItem>& items = run->items;
  if (items.size() == items.capacity()) {
    // A run's storage grows only past its own high-water mark; recycled
    // runs keep their capacity.
    ECGRID_ALLOC_EXEMPT();
    items.reserve(items.empty() ? kInitialRunItems : items.capacity() * 2);
  }
  const auto itemIndex = static_cast<std::uint32_t>(items.size());
  items.push_back(item);
  ++run->live;
  if (++queued_ > peakDepth_) peakDepth_ = queued_;
  if (itemIndex == 0) {
    // A fresh run: its head entry joins the heap.
    run->slot = allocSlot();
    slots_[run->slot].run = run->index;
    heapPush(headEntry(*run));
  }
  return makeHandle(run, itemIndex, run->generation);
}

ECGRID_HOT_PATH std::uint32_t EventQueue::queuedSlot(
    const EventHandle& handle) const {
  std::uint32_t slot = 0;
  std::uint32_t generation = 0;
  if (!ownsHandle(handle, slot, generation) || slot >= slots_.size()) {
    return kNoSlot;
  }
  const Slot& record = slots_[slot];
  if (!record.live || record.generation != generation ||
      heapPos_[slot] == kNotQueued) {
    return kNoSlot;
  }
  return slot;
}

ECGRID_HOT_PATH bool EventQueue::rearm(EventHandle& handle, Time due,
                                       Time floor) {
  ECGRID_HOT_SCOPE();
  const std::uint32_t index = queuedSlot(handle);
  if (index == kNoSlot || slots_[index].due == kNoDue) return false;
  if (!(floor < due)) floor = due;
  // Cancel + push would retire this record (generation bump) and fill a
  // fresh one with the same action in the next place; do that in place.
  const EventOrder order = reserveOrder();
  Slot& slot = slots_[index];
  ++slot.generation;
  due_[slot.due] = DueKey{due, order};
  const std::size_t at = heapPos_[index];
  if (earlier(HeapEntry{due, order.tieKey, order.sequence, index},
              heap_[at])) {
    // The entry waits past the new due key: bring it up to the floor.
    siftUp(at, HeapEntry{floor, order.tieKey, order.sequence, index,
                         floor < due});
  } else {
    // It already waits earlier (sequences are unique, so strictly).
    heap_[at].parked = true;
  }
  handle = makeHandle(this, index, slot.generation);
  return true;
}

ECGRID_HOT_PATH void EventQueue::surfaceTop() {
  while (!heap_.empty() && heap_.front().parked) {
    const std::uint32_t index = heap_.front().slot;
    const DueKey& key = due_[slots_[index].due];
    ++parkedSurfaced_;
    siftDown(0, HeapEntry{key.time, key.order.tieKey, key.order.sequence,
                          index});
  }
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
    action = [run = next.runAction, object = next.object, arg = next.arg,
              payload = next.payload] { run(object, arg, payload); };
  } else {
    action = std::move(next.task);
  }
  return true;
}

ECGRID_HOT_PATH void EventQueue::retireExecuting() {
  if (executing_ != kNoSlot) {
    freeSlot(executing_);
    executing_ = kNoSlot;
  }
  if (executingRun_ != kNoRun) {
    Run& run = *runs_[executingRun_];
    executingRun_ = kNoRun;
    run.items[executingItem_].action = nullptr;
    if (run.live == 0) recycleRun(run);
  }
}

ECGRID_HOT_PATH bool EventQueue::pop(Dispatch& out) {
  ECGRID_HOT_SCOPE();
  // The previous event's record outlived its execution (see header); now
  // that the caller is back for the next event, retire it.
  retireExecuting();
  surfaceTop();
  if (heap_.empty()) return false;
  const HeapEntry& top = heap_.front();
  out.time = top.time;
  out.order = EventOrder{top.tieKey, top.sequence};
  const std::uint32_t index = top.slot;
  Slot& slot = slots_[index];
  --queued_;
  if (slot.run != kNoRun) {
    popRunItem(*runs_[slot.run], out);
    return true;
  }
  out.task = std::move(slot.action);
  out.label = slot.label;
  removeHeapAt(0);
  executing_ = index;
  return true;
}

ECGRID_HOT_PATH void EventQueue::popRunItem(Run& run, Dispatch& out) {
  const RunItem& item = run.items[run.head];
  out.label = item.label;
  out.runAction = item.action;
  out.object = item.object;
  out.arg = item.arg;
  out.payload = run.payload;
  // The item keeps its action until it retires, so its handle stays
  // pending() through the callback.
  executingRun_ = run.index;
  executingItem_ = static_cast<std::uint32_t>(run.head);
  run.sealed = true;
  --run.live;
  ++run.head;
  advanceRun(run);
}

ECGRID_HOT_PATH void EventQueue::advanceRun(Run& run) {
  const std::size_t at = heapPos_[run.slot];
  if (run.live == 0) {
    removeHeapAt(at);
    freeSlot(run.slot);
    run.slot = kNoSlot;
    return;
  }
  while (run.items[run.head].action == nullptr) ++run.head;
  // The head only moves later in the order, so the entry sifts down.
  siftDown(at, headEntry(run));
}

ECGRID_HOT_PATH void EventQueue::cancelRunItem(Run& run, std::uint32_t item,
                                               std::uint32_t generation) {
  if (generation != run.generation || item >= run.items.size() ||
      run.items[item].action == nullptr) {
    return;
  }
  run.items[item].action = nullptr;
  // The executing item has already left the order; it retires as usual.
  if (run.index == executingRun_ && item == executingItem_) return;
  --run.live;
  --queued_;
  if (item == run.head) advanceRun(run);
  if (run.live == 0 && run.index != executingRun_) recycleRun(run);
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
