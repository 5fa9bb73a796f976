// ShardQueue — one shard's slab event queue, keyed by global event keys.
//
// Same slab + inlined-binary-heap layout as the serial sim::EventQueue
// (see sim/event.hpp for the design rationale) with two deliberate
// differences:
//
//   * Payloads are InlineTask, not std::function — the hot phy/deliver
//     closure lives inside the pooled slot with no heap round-trip.
//   * Ordering keys (time, tieKey, sequence) are supplied by the caller
//     instead of drawn from a queue-local counter. The ShardedEngine
//     assigns keys from ONE global sequence space, so the K-way minimum
//     over shard heads reproduces the serial queue's total order exactly
//     — the property the digest-parity tests pin down.
//
// Implements EventTarget, so EventHandles minted here are
// indistinguishable from serial ones. Executing-slot semantics match the
// serial queue observably: the popped slot stays live (handles report
// pending()) until finishExecuting() is called after the callback
// returns, mirroring the serial queue's recycle-on-next-pop.
#pragma once

#include <cstdint>
#include <vector>

#include "sim/event.hpp"
#include "sim/sharded/task.hpp"
#include "sim/time.hpp"
#include "util/ownership.hpp"

namespace ecgrid::sim::sharded {

/// Position of an event in the run's global total order.
struct EventKey {
  Time time = kTimeZero;
  /// == sequence normally; a random draw under tie-break perturbation
  /// (mirrors sim::EventQueue::perturbTieBreak).
  std::uint64_t tieKey = 0;
  /// Globally unique across all shards of one engine.
  std::uint64_t sequence = 0;
};

inline bool earlierKey(const EventKey& a, const EventKey& b) {
  if (a.time != b.time) return a.time < b.time;
  if (a.tieKey != b.tieKey) return a.tieKey < b.tieKey;
  return a.sequence < b.sequence;
}

class ECGRID_DOMAIN_PER_SCENARIO ShardQueue : public EventTarget {
 public:
  ShardQueue();
  ShardQueue(const ShardQueue&) = delete;
  ShardQueue& operator=(const ShardQueue&) = delete;

  /// Queue `task` at `key`. `label` follows the sim::EventQueue contract
  /// (static storage or nullptr).
  EventHandle push(const EventKey& key, InlineTask task, const char* label);

  /// Key of the next live event after discarding cancelled heads, or
  /// nullptr when the queue is empty. The pointer is invalidated by any
  /// mutating call.
  const EventKey* peek();

  /// Pop the head event. The popped slot stays live (handles to it still
  /// report pending()) until finishExecuting(). At most one event may be
  /// in the executing state at a time.
  bool popFront(Time& time, InlineTask& task, const char*& label);

  /// Recycle the slot of the event last popped; call after its callback
  /// returns. No-op when nothing is executing.
  void finishExecuting();

  /// Queued heap entries, including not-yet-discarded cancellations
  /// (unlike sim::EventQueue::size, whose cancel removes at once).
  std::size_t sizeIncludingCancelled() const { return heap_.size(); }

  /// Largest heap size ever observed — exact per-shard depth high-water
  /// mark, tracked at push like sim::EventQueue::peakDepth().
  std::size_t peakDepth() const { return peakDepth_; }

  /// Pooled slot records ever allocated (slab high-water; never shrinks).
  std::size_t slabSlots() const { return slots_.size(); }

 protected:
  void cancelSlot(std::uint32_t slot, std::uint32_t generation) override;
  bool slotPending(std::uint32_t slot,
                   std::uint32_t generation) const override;

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  struct Slot {
    Time time = kTimeZero;
    std::uint32_t generation = 0;
    bool live = false;
    bool cancelled = false;
    const char* label = nullptr;
    InlineTask task;
    std::uint32_t nextFree = kNoSlot;
  };
  /// Same shape (and budget) as the serial EventQueue::Slot: one per
  /// in-flight event, InlineTask-dominated, 16-byte aligned.
  ECGRID_LAYOUT_BUDGET(Slot, 176);

  struct HeapEntry {
    EventKey key;
    std::uint32_t slot = 0;
  };
  ECGRID_LAYOUT_BUDGET(HeapEntry, 32);

  /// Purge threshold, matching the serial EventQueue: rebuild the heap
  /// without cancelled records once they are at least this many AND half
  /// the heap, so cancel-heavy workloads stay bounded.
  static constexpr std::size_t kPurgeFloor = 64;

  std::uint32_t allocSlot();
  void freeSlot(std::uint32_t index);
  void removeHeapTop();
  void siftUp(std::size_t i);
  void siftDown(std::size_t i);
  void skipCancelled();
  void purgeCancelled();

  std::vector<Slot> slots_;
  std::vector<HeapEntry> heap_;
  std::uint32_t freeHead_ = kNoSlot;
  std::uint32_t executing_ = kNoSlot;
  std::size_t cancelledInHeap_ = 0;  ///< cancelled records awaiting reclaim
  std::size_t peakDepth_ = 0;        ///< max heap_.size() ever observed
};

}  // namespace ecgrid::sim::sharded
