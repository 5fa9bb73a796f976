// Stress tests for the pooled event queue: randomized interleavings of
// push/cancel/pop and run appends checked against a reference model
// that reimplements the previous shared_ptr + std::priority_queue design,
// where every run item is a standalone push. The pooled queue's contract is that its observable
// behaviour — pop order, pending(), size() — is indistinguishable from
// that design while allocating far less.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <queue>
#include <string>
#include <vector>

#include "sim/event.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

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
    return pushReserved(time, reserve(), tag);
  }

  /// The sequence the next push would take (EventQueue::reserveOrder).
  std::uint64_t reserve() { return nextSequence_++; }

  std::shared_ptr<RefRecord> pushReserved(Time time, std::uint64_t sequence,
                                          int tag) {
    auto record = std::make_shared<RefRecord>();
    record->time = time;
    record->sequence = sequence;
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

/// Run action of the stress items: record the item's tag.
void recordTag(void* popped, std::uint64_t tag, RunPayload* /*payload*/) {
  static_cast<std::vector<int>*>(popped)->push_back(static_cast<int>(tag));
}

/// A run the stress test keeps appending to, and its last appended time.
struct OpenRun {
  RunCursor cursor;
  Time tail = 0.0;
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
  std::vector<OpenRun> runs;
  int nextTag = 0;
  // Append one run item to `run` — in the reference, a standalone push
  // into the same place.
  auto appendItem = [&](OpenRun& run, Time t, EventOrder order) {
    const int tag = nextTag++;
    const RunItem item{t, order, nullptr, &recordTag, &popped,
                       static_cast<std::uint64_t>(tag)};
    handles.push_back(queue.append(run.cursor, item));
    refs.push_back(ref.pushReserved(t, order.sequence, tag));
    run.tail = t;
  };

  for (int op = 0; op < 20000; ++op) {
    double dice = rng.uniform(0.0, 1.0);
    if (dice < 0.08) {
      // A batch: orders reserved in one sequence, items sorted by key and
      // queued as a fresh run (phy::Channel's arrivals).
      const auto n = rng.uniformInt(1, 8);
      std::vector<RunItem> batch;
      for (std::int64_t k = 0; k < n; ++k) {
        const EventOrder order = queue.reserveOrder();
        EXPECT_EQ(ref.reserve(), order.sequence);
        batch.push_back(RunItem{static_cast<Time>(rng.uniformInt(0, 50)),
                                order});
      }
      std::sort(batch.begin(), batch.end(), itemBefore);
      OpenRun run;
      for (const RunItem& item : batch) appendItem(run, item.time, item.order);
      runs.push_back(run);
      if (runs.size() > 6) runs.erase(runs.begin());
    } else if (dice < 0.16 && !runs.empty()) {
      // A tail append (Radio's reception ends): usually in key order, so
      // it joins the run unless the run has started draining or was
      // recycled; sometimes before the tail, so it must open a new run.
      OpenRun& run = runs[static_cast<std::size_t>(rng.uniformInt(
          0, static_cast<std::int64_t>(runs.size()) - 1))];
      const auto tail = static_cast<std::int64_t>(run.tail);
      const bool inOrder = tail == 0 || rng.uniform(0.0, 1.0) < 0.8;
      const Time t = static_cast<Time>(
          inOrder ? rng.uniformInt(tail, 50) : rng.uniformInt(0, tail - 1));
      const EventOrder order = queue.reserveOrder();
      EXPECT_EQ(ref.reserve(), order.sequence);
      appendItem(run, t, order);
    } else if (dice < 0.55) {
      // Coarse times force plenty of ties to exercise sequence ordering.
      Time t = static_cast<Time>(rng.uniformInt(0, 50));
      int tag = nextTag++;
      handles.push_back(queue.push(t, [tag, &popped] { popped.push_back(tag); }));
      refs.push_back(ref.push(t, tag));
    } else if (dice < 0.70 && !handles.empty()) {
      // Any handle: a queued single event or run item (head, middle or
      // tail of its run), the executing one, or a stale one whose slot or
      // run has been recycled since.
      std::size_t victim = static_cast<std::size_t>(
          rng.uniformInt(0, static_cast<std::int64_t>(handles.size()) - 1));
      handles[victim].cancel();
      ref.cancel(*refs[victim]);
    } else {
      Time time = 0.0;
      InlineTask action;
      if (queue.pop(time, action)) action();
      auto refTop = ref.pop();
      if (refTop != nullptr) refPopped.push_back(refTop->tag);
      ASSERT_EQ(popped, refPopped) << "diverged at op " << op;
    }
    // Eager cancel: the queue counts exactly the live events, run items
    // included.
    ASSERT_EQ(queue.size(), ref.live()) << "size at op " << op;
    ASSERT_EQ(queue.empty(), ref.live() == 0) << "empty at op " << op;
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
      } else if (refs[probe]->tag != popped.back()) {
        // Popped before the last pop: retired, and stale for good even
        // when its slot or run has been reused.
        EXPECT_FALSE(handles[probe].pending())
            << "retired handle " << probe << " at op " << op;
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

// --- runs -----------------------------------------------------------------

/// Run action of the tests below: record the item's argument.
void recordArg(void* ran, std::uint64_t arg, RunPayload* /*payload*/) {
  static_cast<std::vector<int>*>(ran)->push_back(static_cast<int>(arg));
}

RunItem itemAt(EventQueue& queue, Time time, std::vector<int>& ran, int tag) {
  return RunItem{time, queue.reserveOrder(), "test/item", &recordArg, &ran,
                 static_cast<std::uint64_t>(tag)};
}

// A batch shares one heap entry (one slab slot), and its items interleave
// with single events exactly by key.
TEST(EventQueueRun, ItemsMergeWithSingleEventsByKey) {
  EventQueue queue;
  std::vector<int> ran;
  RunCursor run;
  for (int i = 0; i < 6; ++i) {
    queue.append(run, itemAt(queue, 1.0 + i, ran, i));
  }
  queue.push(2.5, [&ran] { ran.push_back(100); });
  queue.push(1.0, [&ran] { ran.push_back(101); });  // ties after item 0
  EXPECT_EQ(queue.size(), 8u);
  EXPECT_EQ(queue.peakDepth(), 8u);
  EXPECT_EQ(queue.slabSlots(), 3u);
  drain(queue);
  EXPECT_EQ(ran, (std::vector<int>{0, 101, 1, 100, 2, 3, 4, 5}));
}

// Cancelling the head re-keys the run's entry at once.
TEST(EventQueueRun, CancellingTheHeadMovesPeekTimeAtOnce) {
  EventQueue queue;
  std::vector<int> ran;
  RunCursor run;
  EventHandle first = queue.append(run, itemAt(queue, 1.0, ran, 1));
  EventHandle second = queue.append(run, itemAt(queue, 2.0, ran, 2));
  queue.append(run, itemAt(queue, 4.0, ran, 4));
  queue.push(3.0, [&ran] { ran.push_back(3); });
  EXPECT_DOUBLE_EQ(queue.peekTime(), 1.0);
  first.cancel();
  EXPECT_FALSE(first.pending());
  EXPECT_DOUBLE_EQ(queue.peekTime(), 2.0);
  EXPECT_EQ(queue.size(), 3u);
  second.cancel();
  EXPECT_DOUBLE_EQ(queue.peekTime(), 3.0);
  EXPECT_EQ(queue.size(), 2u);
  drain(queue);
  EXPECT_EQ(ran, (std::vector<int>{3, 4}));
}

// Cancelling a run's last live item removes its heap entry; the run is
// recycled, its handles stay dead, and the next run reuses its storage.
TEST(EventQueueRun, CancellingTheLastLiveItemRemovesTheHeapEntry) {
  EventQueue queue;
  std::vector<int> ran;
  RunCursor run;
  EventHandle a = queue.append(run, itemAt(queue, 1.0, ran, 1));
  EventHandle b = queue.append(run, itemAt(queue, 2.0, ran, 2));
  b.cancel();  // the tail: the head keeps the entry
  EXPECT_DOUBLE_EQ(queue.peekTime(), 1.0);
  a.cancel();
  EXPECT_TRUE(queue.empty());
  EXPECT_EQ(queue.size(), 0u);
  EXPECT_GE(queue.peekTime(), kTimeNever);
  // The recycled run is reused; the stale handles never see its items.
  RunCursor next;
  EventHandle c = queue.append(next, itemAt(queue, 3.0, ran, 3));
  EXPECT_EQ(queue.runPoolSize(), 1u);
  EXPECT_EQ(queue.slabSlots(), 1u);
  EXPECT_FALSE(a.pending());
  a.cancel();
  b.cancel();
  EXPECT_TRUE(c.pending());
  // The old cursor names a recycled run: appending through it opens a
  // new one rather than joining the reused run.
  queue.append(run, itemAt(queue, 5.0, ran, 5));
  EXPECT_EQ(queue.runPoolSize(), 2u);
  drain(queue);
  EXPECT_EQ(ran, (std::vector<int>{3, 5}));
}

// An append before the run's tail, or to a run that has started draining,
// opens a new run instead of inserting out of order.
TEST(EventQueueRun, OutOfOrderOrDrainingAppendStartsANewRun) {
  EventQueue queue;
  std::vector<int> ran;
  RunCursor run;
  queue.append(run, itemAt(queue, 2.0, ran, 2));
  queue.append(run, itemAt(queue, 1.0, ran, 1));  // before the tail
  EXPECT_EQ(queue.runPoolSize(), 2u);
  queue.append(run, itemAt(queue, 3.0, ran, 3));  // joins the new run
  EXPECT_EQ(queue.runPoolSize(), 2u);
  Time time = 0.0;
  InlineTask action;
  ASSERT_TRUE(queue.pop(time, action));  // item 1: its run is draining
  action();
  queue.append(run, itemAt(queue, 4.0, ran, 4));
  EXPECT_EQ(queue.runPoolSize(), 3u);
  drain(queue);
  EXPECT_EQ(ran, (std::vector<int>{1, 2, 3, 4}));
}

// A run item's handle stays pending through its own callback; cancelling
// it there, or a later item of its run, behaves as for single events.
TEST(EventQueueRun, ExecutingItemIsPendingAndCancellable) {
  EventQueue queue;
  std::vector<int> ran;
  RunCursor run;
  EventHandle first = queue.append(run, itemAt(queue, 1.0, ran, 1));
  EventHandle second = queue.append(run, itemAt(queue, 2.0, ran, 2));
  Dispatch event;
  ASSERT_TRUE(queue.pop(event));
  EXPECT_STREQ(event.label, "test/item");
  EXPECT_DOUBLE_EQ(event.time, 1.0);
  EXPECT_TRUE(first.pending());  // executing
  event();
  first.cancel();  // the executing item: nothing left to unqueue
  EXPECT_FALSE(first.pending());
  EXPECT_EQ(queue.size(), 1u);
  second.cancel();  // the run's last queued item, while the run executes
  EXPECT_TRUE(queue.empty());
  Dispatch none;
  EXPECT_FALSE(queue.pop(none));  // retires the executing item and the run
  EXPECT_EQ(ran, (std::vector<int>{1}));
  // A fresh run reuses the pooled one; the old handles stay dead.
  RunCursor next;
  EventHandle fresh = queue.append(next, itemAt(queue, 3.0, ran, 3));
  EXPECT_EQ(queue.runPoolSize(), 1u);
  second.cancel();
  first.cancel();
  EXPECT_TRUE(fresh.pending());
  drain(queue);
  EXPECT_EQ(ran, (std::vector<int>{1, 3}));
  EXPECT_FALSE(fresh.pending());
}

/// A RunPayload that counts its references.
class CountedPayload final : public RunPayload {
 public:
  void retainPayload() override { ++refs; }
  void releasePayload() override { --refs; }
  int refs = 0;
};

void readPayload(void* seen, std::uint64_t /*arg*/, RunPayload* payload) {
  *static_cast<RunPayload**>(seen) = payload;
}

// A run holds one payload reference from its first item until its last
// one has retired — or until the queue goes away with it.
TEST(EventQueueRun, RunHoldsItsPayloadUntilRecycled) {
  CountedPayload payload;
  RunPayload* seen = nullptr;
  {
    EventQueue queue;
    RunCursor run;
    for (int i = 0; i < 3; ++i) {
      queue.append(run,
                   RunItem{1.0 + i, queue.reserveOrder(), nullptr,
                           &readPayload, &seen},
                   &payload);
    }
    EXPECT_EQ(payload.refs, 1);
    Dispatch event;
    ASSERT_TRUE(queue.pop(event));
    event();
    EXPECT_EQ(seen, &payload);
    RunCursor other;
    queue.append(other,
                 RunItem{9.0, queue.reserveOrder(), nullptr, &readPayload,
                         &seen},
                 &payload);
    EXPECT_EQ(payload.refs, 2);
    drain(queue);
    EXPECT_EQ(payload.refs, 0);
    queue.append(other,
                 RunItem{10.0, queue.reserveOrder(), nullptr, &readPayload,
                         &seen},
                 &payload);
    EXPECT_EQ(payload.refs, 1);
  }
  EXPECT_EQ(payload.refs, 0);  // released by the queue's destructor
}

// --- Block reservation ------------------------------------------------------

/// One scripted run: pushes, re-schedules (cancel + push) and pops
/// interleaved with batches of n places, taken with one reserveBlock(n)
/// when `useBlocks`, else with n reserveOrder() calls. Each batch fills a
/// random subset of its places in a random order, as a transmission fills
/// its receivers' places in bucket order. The script draws the same in
/// both modes. Returns the tags in pop order.
std::vector<int> scriptedPops(std::uint64_t seed, bool useBlocks,
                              bool perturb) {
  RngStream script(seed);
  EventQueue queue;
  if (perturb) queue.perturbTieBreak(RngStream(seed + 1));
  std::vector<int> popped;
  std::vector<EventHandle> handles;
  int nextTag = 0;
  auto action = [&popped](int tag) {
    return [tag, &popped] { popped.push_back(tag); };
  };
  // Coarse times force plenty of ties.
  auto coarseTime = [&script] {
    return static_cast<Time>(script.uniformInt(0, 50));
  };
  for (int op = 0; op < 5000; ++op) {
    const double dice = script.uniform(0.0, 1.0);
    if (dice < 0.15) {
      const auto n = static_cast<std::uint64_t>(script.uniformInt(1, 40));
      std::vector<EventOrder> places;
      if (useBlocks) {
        const OrderBlock block = queue.reserveBlock(n);
        for (std::uint64_t i = 0; i < n; ++i) places.push_back(block[i]);
      } else {
        for (std::uint64_t i = 0; i < n; ++i) {
          places.push_back(queue.reserveOrder());
        }
      }
      std::vector<std::size_t> visit(places.size());
      for (std::size_t i = 0; i < visit.size(); ++i) visit[i] = i;
      for (std::size_t i = visit.size(); i > 1; --i) {
        std::swap(visit[i - 1],
                  visit[static_cast<std::size_t>(script.uniformInt(
                      0, static_cast<std::int64_t>(i) - 1))]);
      }
      for (std::size_t id : visit) {
        if (!script.chance(0.6)) continue;
        const Time t = coarseTime();
        handles.push_back(queue.push(t, places[id], action(nextTag++)));
      }
    } else if (dice < 0.55) {
      const Time t = coarseTime();
      handles.push_back(queue.push(t, action(nextTag++)));
    } else if (dice < 0.70 && !handles.empty()) {
      const auto victim = static_cast<std::size_t>(script.uniformInt(
          0, static_cast<std::int64_t>(handles.size()) - 1));
      const Time t = coarseTime();
      handles[victim].cancel();
      handles[victim] = queue.push(t, action(nextTag++));
    } else {
      Dispatch next;
      if (queue.pop(next)) next();
    }
  }
  drain(queue);
  return popped;
}

TEST(EventQueueBlock, PlacesAreConsecutiveReservations) {
  for (const bool perturb : {false, true}) {
    EventQueue blocked;
    EventQueue single;
    if (perturb) {
      blocked.perturbTieBreak(RngStream(5));
      single.perturbTieBreak(RngStream(5));
    }
    blocked.reserveOrder();
    single.reserveOrder();
    const OrderBlock block = blocked.reserveBlock(7);
    for (std::uint64_t i = 0; i < 7; ++i) {
      const EventOrder expected = single.reserveOrder();
      EXPECT_EQ(block[i].sequence, expected.sequence);
      EXPECT_EQ(block[i].tieKey, expected.tieKey);
    }
    // The block's places are taken: the next reservation follows it.
    EXPECT_EQ(blocked.reservedSequences(), single.reservedSequences());
    EXPECT_EQ(blocked.reserveOrder().tieKey, single.reserveOrder().tieKey);
  }
}

TEST(EventQueueBlock, InterleavedBlocksPopAsConsecutiveReservations) {
  for (const std::uint64_t seed : {3u, 99u, 2026u}) {
    const std::vector<int> blocks = scriptedPops(seed, true, false);
    EXPECT_EQ(blocks, scriptedPops(seed, false, false)) << "seed " << seed;
    EXPECT_GT(blocks.size(), 1000u);
  }
}

TEST(EventQueueBlock, PerturbedBlocksAreReproducibleAndReorderTies) {
  for (const std::uint64_t seed : {3u, 99u}) {
    const std::vector<int> perturbed = scriptedPops(seed, true, true);
    // Block places draw the same keys as single reservations…
    EXPECT_EQ(perturbed, scriptedPops(seed, false, true)) << "seed " << seed;
    // …a perturbed run replays exactly…
    EXPECT_EQ(perturbed, scriptedPops(seed, true, true)) << "seed " << seed;
    // …and same-instant events run in another order.
    EXPECT_NE(perturbed, scriptedPops(seed, true, false)) << "seed " << seed;
  }
}

// The sleeper-replay path on block places: a transmission at t = 1 takes
// four places for arrivals at t = 2, queues places 0 and 2 (awake
// receivers) and parks 1 and 3 (sleepers). Receiver 3 wakes at t = 1.5 and
// its arrival is scheduled into its reserved place; receiver 1 wakes at
// t = 2, after its place has passed, and its arrival is dropped. Taking the
// four places one by one must give the same run.
TEST(EventQueueBlock, SleeperReplayOnBlockPlaces) {
  for (const bool useBlocks : {true, false}) {
    Simulator simulator;
    std::vector<std::string> ran;
    auto note = [&ran](std::string what) {
      return [&ran, what] { ran.push_back(what); };
    };
    simulator.scheduleAt(2.0, note("before"));
    std::vector<EventOrder> places;
    simulator.scheduleAt(1.0, [&] {
      if (useBlocks) {
        const OrderBlock block = simulator.reserveBlock(4);
        for (std::uint64_t i = 0; i < 4; ++i) places.push_back(block[i]);
      } else {
        for (int i = 0; i < 4; ++i) places.push_back(simulator.reserveOrder());
      }
      simulator.scheduleReserved(2.0, places[2], note("place2"));
      simulator.scheduleReserved(2.0, places[0], note("place0"));
      // Reserved after the dispatch that is running: not yet run.
      EXPECT_FALSE(simulator.wouldHaveRun(2.0, places[1]));
      EXPECT_FALSE(simulator.wouldHaveRun(1.0, places[3]));
      simulator.scheduleAt(2.0, [&] {
        ran.push_back("after");
        EXPECT_TRUE(simulator.wouldHaveRun(2.0, places[1]));
        EXPECT_THROW(simulator.scheduleReserved(2.0, places[1], [] {}),
                     std::invalid_argument);
        // A block reserved now is behind this dispatch.
        const OrderBlock late = simulator.reserveBlock(2);
        EXPECT_FALSE(simulator.wouldHaveRun(2.0, late[0]));
      });
    });
    simulator.scheduleAt(1.5, [&] {
      ASSERT_FALSE(simulator.wouldHaveRun(2.0, places[3]));
      simulator.scheduleReserved(2.0, places[3], note("place3"));
    });
    simulator.run();
    EXPECT_EQ(ran, (std::vector<std::string>{"before", "place0", "place2",
                                             "place3", "after"}))
        << (useBlocks ? "block" : "single");
  }
}

}  // namespace
}  // namespace ecgrid::sim
