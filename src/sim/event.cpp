#include "sim/event.hpp"

#include <utility>

#include "util/error.hpp"
#include "util/hot_path.hpp"

namespace ecgrid::sim {

namespace {
/// Slab capacity pre-sized at construction so paper-baseline runs never
/// grow the vectors on the hot path (the audit gate would count it).
constexpr std::size_t kInitialSlots = 256;
}  // namespace

EventQueue::EventQueue() {
  slots_.reserve(kInitialSlots);
  heapPos_.reserve(kInitialSlots);
  heap_.reserve(kInitialSlots);
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
  slot.time = time;
  slot.live = true;
  slot.label = label;
  slot.action = std::move(action);
  if (heap_.size() == heap_.capacity()) {
    // High-water growth, same argument as the slab in allocSlot().
    ECGRID_ALLOC_EXEMPT();
    heap_.reserve(heap_.empty() ? kInitialSlots : heap_.capacity() * 2);
  }
  heap_.emplace_back();
  if (heap_.size() > peakDepth_) peakDepth_ = heap_.size();
  siftUp(heap_.size() - 1,
         HeapEntry{time, order.tieKey, order.sequence, index});
  return makeHandle(this, index, slot.generation);
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

ECGRID_HOT_PATH EventHandle EventQueue::rekey(EventHandle handle, Time time,
                                              EventOrder order,
                                              InlineTask action,
                                              const char* label) {
  ECGRID_HOT_SCOPE();
  const std::uint32_t index = queuedSlot(handle);
  if (index == kNoSlot) {
    handle.cancel();
    return push(time, order, std::move(action), label);
  }
  ECGRID_REQUIRE(static_cast<bool>(action), "event action must be callable");
  ECGRID_REQUIRE(order.sequence < nextSequence_,
                 "event order was never reserved");
  // Cancel + push would retire this record (generation bump) and fill a
  // fresh one with the same fields; do that to the record in place.
  Slot& slot = slots_[index];
  ++slot.generation;
  slot.time = time;
  slot.label = label;
  slot.action = std::move(action);
  sift(heapPos_[index], HeapEntry{time, order.tieKey, order.sequence, index});
  return makeHandle(this, index, slot.generation);
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
  const char* label = nullptr;
  EventOrder order;
  return pop(time, action, label, order);
}

ECGRID_HOT_PATH bool EventQueue::pop(Time& time, InlineTask& action,
                                     const char*& label, EventOrder& order) {
  ECGRID_HOT_SCOPE();
  // The previous event's record outlived its execution (see header); now
  // that the caller is back for the next event, recycle it.
  if (executing_ != kNoSlot) {
    freeSlot(executing_);
    executing_ = kNoSlot;
  }
  if (heap_.empty()) return false;
  std::uint32_t index = heap_.front().slot;
  order = EventOrder{heap_.front().tieKey, heap_.front().sequence};
  Slot& slot = slots_[index];
  time = slot.time;
  action = std::move(slot.action);
  label = slot.label;
  removeHeapAt(0);
  executing_ = index;
  return true;
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
