// Unit tests for the discrete-event kernel: ordering, cancellation,
// determinism, and RNG stream independence.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace ecgrid::sim {
namespace {

// Run every remaining live event to completion through the pooled-pop API.
void drain(EventQueue& queue) {
  Time time = kTimeZero;
  InlineTask action;
  while (queue.pop(time, action)) action();
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue queue;
  std::vector<int> order;
  queue.push(3.0, [&] { order.push_back(3); });
  queue.push(1.0, [&] { order.push_back(1); });
  queue.push(2.0, [&] { order.push_back(2); });
  drain(queue);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByInsertionOrder) {
  EventQueue queue;
  std::vector<int> order;
  for (int i = 0; i < 16; ++i) {
    queue.push(5.0, [&order, i] { order.push_back(i); });
  }
  drain(queue);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(order[i], i);
}

TEST(EventQueue, CancelledEventsAreSkipped) {
  EventQueue queue;
  int fired = 0;
  EventHandle keep = queue.push(1.0, [&] { ++fired; });
  EventHandle gone = queue.push(2.0, [&] { ++fired; });
  gone.cancel();
  EXPECT_TRUE(keep.pending());
  EXPECT_FALSE(gone.pending());
  drain(queue);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelIsIdempotentAndSafeAfterFire) {
  EventQueue queue;
  EventHandle handle = queue.push(1.0, [] {});
  Time time = kTimeZero;
  InlineTask action;
  ASSERT_TRUE(queue.pop(time, action));
  action();
  handle.cancel();  // already fired: must not blow up
  handle.cancel();
  drain(queue);  // recycles the executing slot
  EXPECT_FALSE(handle.pending());
}

TEST(EventQueue, HandleStaysPendingWhileItsEventRuns) {
  // Protocol timers test `pending()` inside their own callback (e.g. the
  // sleep-check timer) and rely on it reporting true until the event has
  // fully retired.
  EventQueue queue;
  EventHandle handle;
  bool sawPending = false;
  handle = queue.push(1.0, [&] { sawPending = handle.pending(); });
  Time time = kTimeZero;
  InlineTask action;
  ASSERT_TRUE(queue.pop(time, action));
  action();
  EXPECT_TRUE(sawPending);
  EXPECT_FALSE(queue.pop(time, action));
  EXPECT_FALSE(handle.pending());
}

TEST(EventQueue, StaleHandleDoesNotAliasRecycledSlot) {
  EventQueue queue;
  EventHandle old = queue.push(1.0, [] {});
  drain(queue);  // the final (empty) pop retires the executing slot
  // The next push reuses the pooled slot; the stale handle must not see it.
  int fired = 0;
  EventHandle fresh = queue.push(2.0, [&] { ++fired; });
  EXPECT_FALSE(old.pending());
  old.cancel();  // must not cancel the new occupant
  EXPECT_TRUE(fresh.pending());
  drain(queue);
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, PeekTimeSkipsCancelled) {
  EventQueue queue;
  EventHandle first = queue.push(1.0, [] {});
  queue.push(4.0, [] {});
  first.cancel();
  EXPECT_DOUBLE_EQ(queue.peekTime(), 4.0);
}

TEST(EventQueue, EmptyQueueReportsNever) {
  EventQueue queue;
  EXPECT_TRUE(queue.empty());
  EXPECT_GE(queue.peekTime(), kTimeNever);
  Time time = kTimeZero;
  InlineTask action;
  EXPECT_FALSE(queue.pop(time, action));
}

TEST(Simulator, ClockAdvancesToEventTimes) {
  Simulator simulator;
  std::vector<Time> seen;
  simulator.schedule(1.5, [&] { seen.push_back(simulator.now()); });
  simulator.schedule(0.5, [&] { seen.push_back(simulator.now()); });
  simulator.run();
  ASSERT_EQ(seen.size(), 2u);
  EXPECT_DOUBLE_EQ(seen[0], 0.5);
  EXPECT_DOUBLE_EQ(seen[1], 1.5);
}

TEST(Simulator, RunUntilHorizonExecutesBoundaryEvent) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule(10.0, [&] { ++fired; });
  simulator.schedule(10.000001, [&] { ++fired; });
  simulator.run(10.0);
  EXPECT_EQ(fired, 1);
  EXPECT_DOUBLE_EQ(simulator.now(), 10.0);
}

TEST(Simulator, ClockReachesHorizonEvenWhenQueueDrains) {
  Simulator simulator;
  simulator.schedule(1.0, [] {});
  simulator.run(50.0);
  EXPECT_DOUBLE_EQ(simulator.now(), 50.0);
}

TEST(Simulator, EventsCanScheduleMoreEvents) {
  Simulator simulator;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) simulator.schedule(1.0, recurse);
  };
  simulator.schedule(1.0, recurse);
  simulator.run();
  EXPECT_EQ(depth, 5);
  EXPECT_DOUBLE_EQ(simulator.now(), 5.0);
}

TEST(Simulator, RequestStopHaltsRun) {
  Simulator simulator;
  int fired = 0;
  simulator.schedule(1.0, [&] {
    ++fired;
    simulator.requestStop();
  });
  simulator.schedule(2.0, [&] { ++fired; });
  simulator.run();
  EXPECT_EQ(fired, 1);
  // A fresh run resumes where we stopped.
  simulator.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulator, SchedulingInThePastThrows) {
  Simulator simulator;
  simulator.schedule(5.0, [] {});
  simulator.run();
  EXPECT_THROW(simulator.scheduleAt(1.0, [] {}), std::invalid_argument);
  EXPECT_THROW(simulator.schedule(-1.0, [] {}), std::invalid_argument);
}

TEST(Simulator, EventCountIsTracked) {
  Simulator simulator;
  for (int i = 0; i < 7; ++i) simulator.schedule(i * 0.1, [] {});
  simulator.run();
  EXPECT_EQ(simulator.eventsExecuted(), 7u);
}

// --- reserved event order (phy::Channel's sleeper skip) --------------------

TEST(Simulator, ReservedEventRunsInItsReservedPlace) {
  Simulator simulator;
  std::vector<char> order;
  simulator.schedule(1.0, [&] { order.push_back('a'); });
  const EventOrder reserved = simulator.reserveOrder();
  simulator.schedule(1.0, [&] { order.push_back('c'); });
  // Pushed last, but it took its place between a and c when reserved.
  simulator.scheduleReserved(1.0, reserved, [&] { order.push_back('b'); });
  simulator.run();
  EXPECT_EQ(order, (std::vector<char>{'a', 'b', 'c'}));
}

TEST(Simulator, WouldHaveRunFollowsDispatch) {
  Simulator simulator;
  EventOrder reserved;
  std::vector<bool> seen;
  simulator.schedule(1.0, [&] {
    // Same instant, but the reservation sorts after this event.
    seen.push_back(simulator.wouldHaveRun(1.0, reserved));
    // Earlier instants have all run.
    seen.push_back(simulator.wouldHaveRun(0.5, reserved));
  });
  reserved = simulator.reserveOrder();
  simulator.schedule(1.0, [&] {
    // This event sorts after the reservation, so it would have gone first.
    seen.push_back(simulator.wouldHaveRun(1.0, reserved));
    // Reserved while this event runs: not queued at its dispatch.
    seen.push_back(simulator.wouldHaveRun(1.0, simulator.reserveOrder()));
  });
  EXPECT_FALSE(simulator.wouldHaveRun(1.0, reserved));
  simulator.run();
  EXPECT_EQ(seen, (std::vector<bool>{false, true, true, false}));
}

TEST(Simulator, WouldHaveRunCoversTheHorizonAdvance) {
  Simulator simulator;
  const EventOrder before = simulator.reserveOrder();
  simulator.run(2.0);  // empty queue: the clock jumps to the horizon
  // An event due at the horizon would have run before run() returned...
  EXPECT_TRUE(simulator.wouldHaveRun(2.0, before));
  // ...unless it was reserved afterwards.
  EXPECT_FALSE(simulator.wouldHaveRun(2.0, simulator.reserveOrder()));
  EXPECT_FALSE(simulator.wouldHaveRun(2.5, before));
}

// Whichever event ran last, even one at the horizon itself, every place at
// the horizon reserved before run() returned has run by then.
TEST(Simulator, WouldHaveRunCoversTheHorizonAfterAnEventAtIt) {
  Simulator simulator;
  simulator.schedule(2.0, [] {});
  const EventOrder after = simulator.reserveOrder();
  simulator.run(2.0);
  EXPECT_EQ(simulator.eventsExecuted(), 1u);
  EXPECT_TRUE(simulator.wouldHaveRun(2.0, after));
  EXPECT_FALSE(simulator.wouldHaveRun(2.0, simulator.reserveOrder()));
}

TEST(Simulator, SchedulingIntoADispatchedPlaceThrows) {
  Simulator simulator;
  const EventOrder reserved = simulator.reserveOrder();
  simulator.schedule(1.0, [] {});
  simulator.run();
  EXPECT_THROW(simulator.scheduleReserved(1.0, reserved, [] {}),
               std::invalid_argument);
}

/// How a script's simulator orders same-instant events. The explicit
/// values name the parameterised test cases.
enum class Engine { kSerial = 0, kPerturbed = 2 };

// --- runs (phy::Channel reception ends, starts settled on read) ------------

/// Broadcast receptions as the PHY queues them: each transmission reserves
/// its receivers' start places in receiver order and records the starts
/// (no event), then queues their reception ends one airtime later, each in
/// a place reserved after the starts', in start order. A receiver applies
/// its recorded starts when one of its ends runs: those that would have
/// run by then (Simulator::wouldHaveRun), in key order. Starts abort a
/// reception at random (the PHY's aborts) by forgetting its token, as the
/// radio does; an aborted end still runs and finds nothing. Spelled either
/// with one run of ends per transmission (Simulator::scheduleReservedRun)
/// or with one closure per end; the two must be indistinguishable.
class ReceptionScript {
 public:
  static constexpr int kReceivers = 12;

  ReceptionScript(Engine engine, bool useRuns)
      : simulator_(13), rng_(5), useRuns_(useRuns) {
    if (engine == Engine::kPerturbed) simulator_.perturbTieBreaks();
    for (int k = 0; k < 8; ++k) {
      simulator_.schedule(0.25 * k, [this] { transmit(); }, "test/tx");
    }
    simulator_.run(500.0);
  }

  Simulator& simulator() { return simulator_; }
  const std::vector<int>& trace() const { return trace_; }

 private:
  static constexpr std::uint64_t kFrames = 600;
  /// live_ entry of a receiver with no reception to end.
  static constexpr std::uint64_t kNone = ~std::uint64_t{0};

  /// A recorded start: its key and its (frame << 8 | receiver), which is
  /// also its reception's token.
  struct Start {
    Time at = 0.0;
    EventOrder order;
    std::uint64_t arg = 0;
  };

  static void end(void* script, std::uint64_t arg) {
    static_cast<ReceptionScript*>(script)->onEnd(arg);
  }

  void transmit() {
    if (frames_ == kFrames) return;
    const std::uint64_t frame = frames_++;
    std::vector<Start> starts;
    for (int r = 0; r < kReceivers; ++r) {
      if (!rng_.chance(0.7)) continue;
      // Coarse propagation delays: plenty of same-instant starts.
      const Time at = simulator_.now() + 0.25 * rng_.uniformInt(0, 2);
      starts.push_back(Start{at, simulator_.reserveOrder(), (frame << 8) | r});
    }
    const auto before = [](const Start& a, const Start& b) {
      if (a.at != b.at) return a.at < b.at;
      return orderedBefore(a.order, b.order);
    };
    std::sort(starts.begin(), starts.end(), before);
    std::vector<RunItem> ends;
    for (const Start& start : starts) {
      const auto r = static_cast<std::size_t>(start.arg & 0xff);
      pending_[r].push_back(start);
      std::sort(pending_[r].begin(), pending_[r].end(), before);
      live_[r] = start.arg;
      const RunItem item{start.at + kAirtime, simulator_.reserveOrder(),
                         "test/end", &end, this, start.arg};
      if (useRuns_) {
        ends.push_back(item);
      } else {
        const std::uint64_t arg = item.arg;
        simulator_.scheduleReserved(
            item.time, item.order, [this, arg] { onEnd(arg); }, "test/end");
      }
    }
    // Under perturbed tie keys two ends at one instant may be out of
    // order: a run takes its items in key order.
    std::sort(ends.begin(), ends.end(), itemBefore);
    simulator_.scheduleReservedRun(ends);
  }

  /// Apply receiver r's starts that would have run by now.
  void settle(std::size_t r) {
    std::vector<Start> kept;
    for (const Start& start : pending_[r]) {
      if (!simulator_.wouldHaveRun(start.at, start.order)) {
        kept.push_back(start);
        continue;
      }
      trace_.push_back(static_cast<int>(start.arg));
      // A new reception at r aborts one in progress, now and then.
      if (rng_.chance(0.2)) live_[r] = kNone;
    }
    pending_[r] = std::move(kept);
  }

  void onEnd(std::uint64_t arg) {
    const auto r = static_cast<std::size_t>(arg & 0xff);
    settle(r);
    trace_.push_back(-static_cast<int>(arg));
    // Found under its token, or aborted (or superseded) since.
    trace_.push_back(live_[r] == arg ? 1 : 0);
    if (live_[r] == arg) live_[r] = kNone;
    const auto other =
        static_cast<std::size_t>(rng_.uniformInt(0, kReceivers - 1));
    const double dice = rng_.uniform(0.0, 1.0);
    if (dice < 0.15) {
      live_[other] = kNone;  // queued, or ended already
    } else if (dice < 0.2) {
      live_[r] = kNone;  // a later reception at r, if any
    }
    trace_.push_back(live_[other] != kNone ? 1 : 0);
    if (dice > 0.6) {
      simulator_.schedule(0.25 * rng_.uniformInt(0, 4),
                          [this] { transmit(); }, "test/tx");
    }
  }

  static constexpr Time kAirtime = 1.0;  // longer than any delay spread

  Simulator simulator_;
  RngStream rng_;
  bool useRuns_;
  std::uint64_t frames_ = 0;
  std::vector<Start> pending_[kReceivers];
  /// Each receiver's latest reception not yet ended or aborted (its
  /// token), or kNone.
  std::uint64_t live_[kReceivers] = {kNone, kNone, kNone, kNone,
                                     kNone, kNone, kNone, kNone,
                                     kNone, kNone, kNone, kNone};
  std::vector<int> trace_;
};

class ReceptionRunParity : public ::testing::TestWithParam<Engine> {};

TEST_P(ReceptionRunParity, MatchesPerEventScheduling) {
  ReceptionScript runs(GetParam(), true);
  ReceptionScript perEvent(GetParam(), false);
  EXPECT_GT(runs.simulator().eventsExecuted(), 5000u);
  EXPECT_EQ(runs.trace(), perEvent.trace());
  EXPECT_EQ(runs.simulator().eventsExecuted(),
            perEvent.simulator().eventsExecuted());
  EXPECT_EQ(runs.simulator().reservedSequences(),
            perEvent.simulator().reservedSequences());
  EXPECT_EQ(runs.simulator().queueDepth(),
            perEvent.simulator().queueDepth());
  EXPECT_EQ(runs.simulator().peakQueueDepth(),
            perEvent.simulator().peakQueueDepth());
}

INSTANTIATE_TEST_SUITE_P(Engines, ReceptionRunParity,
                         ::testing::Values(Engine::kSerial,
                                           Engine::kPerturbed));

// Perturbation really reorders the script, so its parity above is not
// vacuous; and runs take far fewer slab slots than one slot per event.
TEST(ReceptionRunParity, PerturbationReordersAndRunsSaveSlots) {
  ReceptionScript serial(Engine::kSerial, true);
  ReceptionScript perturbed(Engine::kPerturbed, true);
  ReceptionScript perEvent(Engine::kSerial, false);
  EXPECT_NE(serial.trace(), perturbed.trace());
  EXPECT_LT(2 * serial.simulator().slabSlotsTotal(),
            perEvent.simulator().slabSlotsTotal());
}

// --- InlineTask (the queue's slot type) ------------------------------------

TEST(InlineTask, InvokesInlineCallable) {
  int hits = 0;
  InlineTask task([&hits] { ++hits; });
  ASSERT_TRUE(static_cast<bool>(task));
  task();
  task();
  EXPECT_EQ(hits, 2);
}

TEST(InlineTask, MoveTransfersOwnership) {
  int hits = 0;
  InlineTask a([&hits] { ++hits; });
  InlineTask b(std::move(a));
  EXPECT_FALSE(static_cast<bool>(a));  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(static_cast<bool>(b));
  b();
  EXPECT_EQ(hits, 1);
  InlineTask c;
  c = std::move(b);
  ASSERT_TRUE(static_cast<bool>(c));
  c();
  EXPECT_EQ(hits, 2);
}

TEST(InlineTask, OversizedCallableBoxesOnHeapWithSameSemantics) {
  // Capture well past kInlineBytes to force the heap-box path.
  struct Big {
    double padding[32] = {};
  };
  Big big;
  big.padding[31] = 7.0;
  double seen = 0.0;
  static_assert(sizeof(Big) > InlineTask::kInlineBytes);
  InlineTask task([big, &seen] { seen = big.padding[31]; });
  InlineTask moved(std::move(task));
  moved();
  EXPECT_DOUBLE_EQ(seen, 7.0);
  moved.reset();
  EXPECT_FALSE(static_cast<bool>(moved));
}

TEST(InlineTask, HoldsStdFunctionWithoutReWrapping) {
  int hits = 0;
  std::function<void()> fn = [&hits] { ++hits; };
  InlineTask task(std::move(fn));
  task();
  EXPECT_EQ(hits, 1);
}

// --- RNG ------------------------------------------------------------------

TEST(Rng, SameSeedSameNameReproduces) {
  RngFactory a(123);
  RngFactory b(123);
  RngStream sa = a.stream("mac", 4);
  RngStream sb = b.stream("mac", 4);
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(sa.uniform(0, 1), sb.uniform(0, 1));
  }
}

TEST(Rng, DifferentNamesDecorrelate) {
  RngFactory factory(123);
  RngStream a = factory.stream("alpha");
  RngStream b = factory.stream("beta");
  int equal = 0;
  for (int i = 0; i < 1000; ++i) {
    if (a.raw() == b.raw()) ++equal;
  }
  EXPECT_EQ(equal, 0);
}

TEST(Rng, DifferentSeedsDecorrelate) {
  RngFactory a(1);
  RngFactory b(2);
  EXPECT_NE(a.stream("x").raw(), b.stream("x").raw());
}

TEST(Rng, UniformRespectsBounds) {
  RngFactory factory(9);
  RngStream stream = factory.stream("u");
  for (int i = 0; i < 1000; ++i) {
    double v = stream.uniform(2.0, 3.0);
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(Rng, UniformIntIsInclusive) {
  RngFactory factory(9);
  RngStream stream = factory.stream("i");
  bool sawLo = false;
  bool sawHi = false;
  for (int i = 0; i < 2000; ++i) {
    std::int64_t v = stream.uniformInt(0, 3);
    EXPECT_GE(v, 0);
    EXPECT_LE(v, 3);
    sawLo |= v == 0;
    sawHi |= v == 3;
  }
  EXPECT_TRUE(sawLo);
  EXPECT_TRUE(sawHi);
}

TEST(Rng, ExponentialHasRoughlyRightMean) {
  RngFactory factory(77);
  RngStream stream = factory.stream("e");
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += stream.exponential(4.0);
  EXPECT_NEAR(sum / n, 4.0, 0.2);
}

TEST(Rng, InvalidArgumentsThrow) {
  RngFactory factory(1);
  RngStream stream = factory.stream("t");
  // void-cast: the draws are [[nodiscard]] and these calls exist to throw.
  EXPECT_THROW(static_cast<void>(stream.uniform(2.0, 1.0)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(stream.exponential(0.0)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(stream.chance(1.5)), std::invalid_argument);
}

// The first `n` raw draws of `stream`.
std::vector<std::uint64_t> rawDraws(RngStream& stream, int n) {
  std::vector<std::uint64_t> draws;
  for (int i = 0; i < n; ++i) draws.push_back(stream.raw());
  return draws;
}

// FNV-1a over whole 64-bit words: one number that changes with any draw.
std::uint64_t foldDraws(const std::vector<std::uint64_t>& draws) {
  std::uint64_t h = 1469598103934665603ull;
  for (std::uint64_t draw : draws) {
    h ^= draw;
    h *= 1099511628211ull;
  }
  return h;
}

// The first 1,000 raw draws of three streams the simulator uses, for
// master seed 1, as the inline-engine RngStream produced them. 1,000
// draws run past the engine's 312-word regeneration, so the pins cover
// the regenerated state as well as the seeded one.
TEST(Rng, FirstThousandDrawsArePinned) {
  struct Pin {
    RngStream stream;
    std::uint64_t fold, d0, d311, d312, d999;
  };
  RngFactory factory(1);
  Pin pins[] = {
      {factory.stream("mac", 17), 0xad97ed00a15a7fabull,
       0xaf18d653462e6f7dull, 0xc29cc29259eb0010ull, 0x91170b3b89eef7f2ull,
       0x722c582a14ec6a88ull},
      {factory.stream("gridproto", 3), 0x66fd10c9f256c4abull,
       0x37ea95b63b7d19b5ull, 0xb827da3b8a1d2537ull, 0x89cd87710bbb34a3ull,
       0x8de56a9795fceb8bull},
      {factory.stream("check/tiebreak"), 0x773789126168bb9dull,
       0x4a3fce25b8a8585cull, 0xcd6bf90bcbcad847ull, 0x08cbedfc75535457ull,
       0xb23b2c2cd6be5daaull},
  };
  for (Pin& pin : pins) {
    const std::vector<std::uint64_t> draws = rawDraws(pin.stream, 1000);
    EXPECT_EQ(draws[0], pin.d0);
    EXPECT_EQ(draws[311], pin.d311);
    EXPECT_EQ(draws[312], pin.d312);
    EXPECT_EQ(draws[999], pin.d999);
    EXPECT_EQ(foldDraws(draws), pin.fold);
  }
}

TEST(Rng, CopyContinuesTheSequenceAndDrawsIndependently) {
  RngFactory factory(1);
  RngStream reference = factory.stream("mac", 17);
  const std::vector<std::uint64_t> expected = rawDraws(reference, 700);

  RngStream source = factory.stream("mac", 17);
  const std::vector<std::uint64_t> head = rawDraws(source, 300);
  RngStream copy = source;
  // The copy picks up where its source stood...
  EXPECT_EQ(rawDraws(copy, 400),
            std::vector<std::uint64_t>(expected.begin() + 300, expected.end()));
  // ...without advancing the source, which still draws its own sequence.
  EXPECT_EQ(rawDraws(source, 400),
            std::vector<std::uint64_t>(expected.begin() + 300, expected.end()));
  EXPECT_EQ(head,
            std::vector<std::uint64_t>(expected.begin(), expected.begin() + 300));

  // Copy assignment behaves the same.
  RngStream assigned(99);
  assigned = copy;
  EXPECT_EQ(assigned.raw(), copy.raw());
  // Copies own heap engines: only `reference` and `source` are pooled.
  EXPECT_EQ(factory.liveStreams(), 2u);
}

// Streams come and go (a crashed host's reboot) while others draw; the
// pool hands freed engines to new streams, and no stream may notice.
TEST(Rng, StreamChurnLeavesLiveSequencesUnchanged) {
  constexpr int kDraws = 900;
  RngFactory reference(7);
  std::vector<std::vector<std::uint64_t>> expected;
  for (int i = 0; i < 3; ++i) {
    RngStream stream = reference.stream("gridproto", i);
    expected.push_back(rawDraws(stream, kDraws));
  }

  RngFactory factory(7);
  std::vector<RngStream> live;
  for (int i = 0; i < 3; ++i) live.push_back(factory.stream("gridproto", i));
  std::vector<std::vector<std::uint64_t>> drawn(3);
  // Each churned stream draws beside a heap copy of a fresh stream of
  // the same name, which no pool slot can disturb.
  struct Churned {
    RngStream stream;
    RngStream twin;
  };
  std::vector<Churned> churn;
  int mismatches = 0;
  for (int round = 0; round < kDraws; ++round) {
    for (int i = 0; i < 3; ++i) {
      drawn[static_cast<std::size_t>(i)].push_back(
          live[static_cast<std::size_t>(i)].raw());
    }
    // Open one stream per round and close the two oldest every third
    // round, so freed engines are handed out again while others draw.
    const RngStream fresh = reference.stream("routing", round);
    churn.push_back({factory.stream("routing", round), fresh});
    for (Churned& c : churn) mismatches += c.stream.raw() != c.twin.raw();
    if (round % 3 == 2) churn.erase(churn.begin(), churn.begin() + 2);
  }
  EXPECT_EQ(drawn, expected);
  EXPECT_EQ(mismatches, 0);
  EXPECT_EQ(factory.liveStreams(), 3u + churn.size());
  // Freed engines were reused: the pool grew only to the high-water mark.
  EXPECT_LT(factory.pooledSlots(),
            3u + churn.size() + 2 * RngFactory::kSlotsPerBlock);
  churn.clear();
  EXPECT_EQ(factory.liveStreams(), 3u);
}

TEST(RngDeathTest, StreamOutlivingItsFactoryIsCaught) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  EXPECT_DEATH(
      {
        auto factory = std::make_unique<RngFactory>(1);
        RngStream stream = factory->stream("mac", 17);
        factory.reset();
      },
      "outlived their RngFactory");
}

// Property sweep: for many (seed, horizon) pairs, executing a batch of
// randomly-timed events is deterministic and time-monotone.
class SimDeterminism : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SimDeterminism, ReplayIsIdentical) {
  auto runOnce = [&](std::uint64_t seed) {
    Simulator simulator(seed);
    RngStream rng = simulator.rng().stream("times");
    std::vector<double> trace;
    for (int i = 0; i < 200; ++i) {
      simulator.schedule(rng.uniform(0.0, 100.0),
                         [&] { trace.push_back(simulator.now()); });
    }
    simulator.run();
    return trace;
  };
  std::vector<double> first = runOnce(GetParam());
  std::vector<double> second = runOnce(GetParam());
  ASSERT_EQ(first, second);
  for (std::size_t i = 1; i < first.size(); ++i) {
    EXPECT_LE(first[i - 1], first[i]);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimDeterminism,
                         ::testing::Values(1u, 7u, 42u, 1234u, 99999u));

}  // namespace
}  // namespace ecgrid::sim
