// Stress tests for the pooled event queue: randomized interleavings of
// push/cancel/rekey/pop checked against a reference model that
// reimplements the previous shared_ptr + std::priority_queue design, where
// a rekey is spelled cancel + push. The pooled queue's contract is that its
// observable behaviour — pop order, pending(), size() — is
// indistinguishable from that design while allocating far less.
#include <gtest/gtest.h>

#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "sim/event.hpp"
#include "sim/rng.hpp"

namespace ecgrid::sim {
namespace {

// The pre-slab design, kept as an executable specification.
struct RefRecord {
  Time time = 0.0;
  std::uint64_t sequence = 0;
  bool cancelled = false;
  bool popped = false;
  int tag = 0;
};

class RefQueue {
 public:
  std::shared_ptr<RefRecord> push(Time time, int tag) {
    auto record = std::make_shared<RefRecord>();
    record->time = time;
    record->sequence = nextSequence_++;
    record->tag = tag;
    heap_.push(record);
    ++live_;
    return record;
  }

  void cancel(RefRecord& record) {
    if (record.cancelled || record.popped) return;
    record.cancelled = true;
    --live_;
  }

  /// Returns the next live record, or nullptr when drained.
  std::shared_ptr<RefRecord> pop() {
    while (!heap_.empty() && heap_.top()->cancelled) heap_.pop();
    if (heap_.empty()) return nullptr;
    auto top = heap_.top();
    heap_.pop();
    top->popped = true;
    --live_;
    return top;
  }

  /// Events neither popped nor cancelled.
  std::size_t live() const { return live_; }

 private:
  struct Later {
    bool operator()(const std::shared_ptr<RefRecord>& a,
                    const std::shared_ptr<RefRecord>& b) const {
      if (a->time != b->time) return a->time > b->time;
      return a->sequence > b->sequence;
    }
  };
  std::priority_queue<std::shared_ptr<RefRecord>,
                      std::vector<std::shared_ptr<RefRecord>>, Later>
      heap_;
  std::uint64_t nextSequence_ = 0;
  std::size_t live_ = 0;
};

class QueueStress : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(QueueStress, InterleavedOpsMatchReferenceModel) {
  RngStream rng(GetParam());
  EventQueue queue;
  RefQueue ref;

  // Handles to every not-yet-popped event, kept in lockstep.
  std::vector<EventHandle> handles;
  std::vector<std::shared_ptr<RefRecord>> refs;
  std::vector<int> popped;
  std::vector<int> refPopped;
  int nextTag = 0;

  for (int op = 0; op < 20000; ++op) {
    double dice = rng.uniform(0.0, 1.0);
    if (dice < 0.55) {
      // Coarse times force plenty of ties to exercise sequence ordering.
      Time t = static_cast<Time>(rng.uniformInt(0, 50));
      int tag = nextTag++;
      handles.push_back(queue.push(t, [tag, &popped] { popped.push_back(tag); }));
      refs.push_back(ref.push(t, tag));
    } else if (dice < 0.70 && !handles.empty()) {
      std::size_t victim = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(handles.size()) - 1));
      handles[victim].cancel();
      ref.cancel(*refs[victim]);
    } else if (dice < 0.85 && !handles.empty()) {
      // Re-key a random handle: queued (moved in place), already popped,
      // just popped (its slot is the executing one), or cancelled (all
      // three fall back to push). The reference spells it cancel + push.
      std::size_t victim = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(handles.size()) - 1));
      Time t = static_cast<Time>(rng.uniformInt(0, 50));
      int tag = nextTag++;
      EventHandle stale = handles[victim];
      handles[victim] = queue.rekey(handles[victim], t, queue.reserveOrder(),
                                    [tag, &popped] { popped.push_back(tag); });
      ref.cancel(*refs[victim]);
      refs[victim] = ref.push(t, tag);
      // Copies of the old handle go dead, exactly as after a cancel.
      EXPECT_FALSE(stale.pending()) << "stale copy at op " << op;
    } else {
      Time time = 0.0;
      InlineTask action;
      if (queue.pop(time, action)) action();
      auto refTop = ref.pop();
      if (refTop != nullptr) refPopped.push_back(refTop->tag);
      ASSERT_EQ(popped, refPopped) << "diverged at op " << op;
    }
    // Eager cancel: the heap holds exactly the live events.
    ASSERT_EQ(queue.size(), ref.live()) << "size at op " << op;
    // Spot-check pending() parity on a random handle that has not been
    // popped yet (after popping, the reference record lives as long as
    // callers hold it, whereas the pooled slot retires at the next pop —
    // both designs report not-pending there, but via different paths that
    // the dedicated lifetime tests cover).
    if (!handles.empty() && rng.uniform(0.0, 1.0) < 0.2) {
      std::size_t probe = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(handles.size()) - 1));
      bool wasPopped = false;
      for (int tag : popped) {
        if (tag == refs[probe]->tag) {
          wasPopped = true;
          break;
        }
      }
      if (!wasPopped) {
        EXPECT_EQ(handles[probe].pending(), !refs[probe]->cancelled)
            << "handle " << probe << " at op " << op;
      }
    }
  }

  // Drain both completely; total order must agree to the last event.
  while (true) {
    Time time = 0.0;
    InlineTask action;
    bool live = queue.pop(time, action);
    auto refTop = ref.pop();
    ASSERT_EQ(live, refTop != nullptr);
    if (!live) break;
    action();
    refPopped.push_back(refTop->tag);
  }
  EXPECT_EQ(popped, refPopped);
  EXPECT_GT(popped.size(), 1000u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueueStress,
                         ::testing::Values(1u, 42u, 777u, 31337u));

// Slot churn: repeated fill/drain cycles reuse pooled slots; handles from
// earlier cycles must never observe later occupants of their slot.
TEST(EventQueuePool, HandlesFromPriorCyclesStayDead) {
  EventQueue queue;
  std::vector<EventHandle> stale;
  for (int cycle = 0; cycle < 10; ++cycle) {
    std::vector<EventHandle> fresh;
    for (int i = 0; i < 64; ++i) {
      fresh.push_back(queue.push(static_cast<Time>(i), [] {}));
    }
    for (const EventHandle& h : stale) EXPECT_FALSE(h.pending());
    for (EventHandle& h : stale) h.cancel();  // must not hit new events
    for (const EventHandle& h : fresh) EXPECT_TRUE(h.pending());
    Time time = 0.0;
    InlineTask action;
    int popCount = 0;
    while (queue.pop(time, action)) {
      action();
      ++popCount;
    }
    EXPECT_EQ(popCount, 64);
    stale = std::move(fresh);
  }
}

// The heap size bookkeeping the Simulator exposes for stats: a cancelled
// event leaves the heap at cancel time, wherever it sits, and its slot is
// reused by the next push.
TEST(EventQueuePool, SizeDropsAtCancel) {
  EventQueue queue;
  EventHandle a = queue.push(1.0, [] {});
  EventHandle b = queue.push(2.0, [] {});
  queue.push(3.0, [] {});
  EXPECT_EQ(queue.size(), 3u);
  b.cancel();  // mid-heap, not the top
  EXPECT_EQ(queue.size(), 2u);
  a.cancel();
  EXPECT_EQ(queue.size(), 1u);
  EXPECT_DOUBLE_EQ(queue.peekTime(), 3.0);
  queue.push(4.0, [] {});
  EXPECT_EQ(queue.size(), 2u);
  EXPECT_EQ(queue.slabSlots(), 3u);
  EXPECT_EQ(queue.peakDepth(), 3u);
}

void drain(EventQueue& queue) {
  Time time = 0.0;
  InlineTask action;
  while (queue.pop(time, action)) action();
}

// A queued event re-keyed in place: same slot, new place in the order, and
// the old handle (and its copies) dead as after a cancel.
TEST(EventQueueRekey, MovesAQueuedEventInPlace) {
  EventQueue queue;
  std::vector<int> ran;
  EventHandle a = queue.push(1.0, [&ran] { ran.push_back(1); });
  queue.push(2.0, [&ran] { ran.push_back(2); });
  queue.push(3.0, [&ran] { ran.push_back(3); });
  const EventHandle copy = a;
  EventHandle moved =
      queue.rekey(a, 2.0, queue.reserveOrder(), [&ran] { ran.push_back(4); });
  EXPECT_FALSE(a.pending());
  EXPECT_FALSE(copy.pending());
  EXPECT_TRUE(moved.pending());
  EXPECT_EQ(queue.size(), 3u);
  EXPECT_EQ(queue.slabSlots(), 3u);
  EXPECT_EQ(queue.reservedSequences(), 4u);
  // Ties at 2.0 break by the reserved sequence: the re-keyed event is last.
  EXPECT_DOUBLE_EQ(queue.peekTime(), 2.0);
  drain(queue);
  EXPECT_EQ(ran, (std::vector<int>{2, 4, 3}));
  // Cancelling a stale copy afterwards must not touch anything.
  queue.push(5.0, [&ran] { ran.push_back(5); });
  EventHandle(copy).cancel();
  EXPECT_EQ(queue.size(), 1u);
}

// Re-keying the event that is executing right now pushes a fresh event: its
// slot has no heap entry to move.
TEST(EventQueueRekey, ExecutingEventFallsBackToPush) {
  EventQueue queue;
  std::vector<Time> ran;
  EventHandle self;
  self = queue.push(1.0, [&] {
    ran.push_back(1.0);
    EXPECT_TRUE(self.pending());
    const EventHandle executing = self;
    self = queue.rekey(self, 5.0, queue.reserveOrder(),
                       [&ran] { ran.push_back(5.0); });
    EXPECT_FALSE(executing.pending());
    EXPECT_TRUE(self.pending());
  });
  Time time = 0.0;
  InlineTask action;
  ASSERT_TRUE(queue.pop(time, action));
  action();
  EXPECT_EQ(queue.size(), 1u);
  ASSERT_TRUE(queue.pop(time, action));
  EXPECT_DOUBLE_EQ(time, 5.0);
  action();
  EXPECT_FALSE(queue.pop(time, action));
  EXPECT_EQ(ran, (std::vector<Time>{1.0, 5.0}));
}

// A stale handle (its event fired, its slot since reused) re-keys nothing:
// the slot's new occupant keeps its place and a fresh event is pushed.
TEST(EventQueueRekey, StaleHandleFallsBackToPush) {
  EventQueue queue;
  std::vector<int> ran;
  EventHandle stale = queue.push(1.0, [&ran] { ran.push_back(1); });
  Time time = 0.0;
  InlineTask action;
  ASSERT_TRUE(queue.pop(time, action));
  action();
  EXPECT_FALSE(queue.pop(time, action));  // recycles the executed slot
  EventHandle occupant = queue.push(2.0, [&ran] { ran.push_back(2); });
  ASSERT_EQ(queue.slabSlots(), 1u);  // same slot as the stale handle
  EventHandle fresh = queue.rekey(stale, 3.0, queue.reserveOrder(),
                                  [&ran] { ran.push_back(3); });
  EXPECT_TRUE(occupant.pending());
  EXPECT_TRUE(fresh.pending());
  EXPECT_EQ(queue.size(), 2u);
  // An inert handle behaves the same way.
  queue.rekey(EventHandle(), 4.0, queue.reserveOrder(),
              [&ran] { ran.push_back(4); });
  drain(queue);
  EXPECT_EQ(ran, (std::vector<int>{1, 2, 3, 4}));
}

}  // namespace
}  // namespace ecgrid::sim
