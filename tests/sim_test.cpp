// Unit tests for the discrete-event kernel: ordering, cancellation,
// determinism, and RNG stream independence.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
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

TEST(Simulator, SchedulingIntoADispatchedPlaceThrows) {
  Simulator simulator;
  const EventOrder reserved = simulator.reserveOrder();
  simulator.schedule(1.0, [] {});
  simulator.run();
  EXPECT_THROW(simulator.scheduleReserved(1.0, reserved, [] {}),
               std::invalid_argument);
}

// --- rearm (Radio's depletion timer) ---------------------------------------

/// How a script's simulator orders same-instant events. The explicit
/// values name the parameterised test cases.
enum class Engine { kSerial = 0, kPerturbed = 2 };

/// A run of re-armed timers: every firing re-arms itself, then re-arms,
/// cancels or spawns timers at random (coarse delays, so plenty of
/// same-instant ties) and cancels stale copies of handles re-armed
/// earlier. Spelled either with Simulator::rearm — parking each entry
/// at none, half or all of its delay, so entries surface, wait and move —
/// or with cancel + schedule; the two must be indistinguishable.
class RearmScript {
 public:
  static constexpr int kTimers = 16;

  RearmScript(Engine engine, bool useRearm)
      : simulator_(11), rng_(7), useRearm_(useRearm) {
    if (engine == Engine::kPerturbed) simulator_.perturbTieBreaks();
    for (int id = 0; id < kTimers; ++id) arm(id, 0.25 * (id % 4));
    simulator_.run(300.0);
  }

  Simulator& simulator() { return simulator_; }
  const std::vector<int>& trace() const { return trace_; }

 private:
  void arm(int id, Time delay) {
    stale_.push_back(timers_[id]);
    auto fire = [this, id] { onFire(id); };
    if (useRearm_) {
      const Time floor = delay * 0.5 * static_cast<Time>(id % 3);
      simulator_.rearm(timers_[id], delay, floor, fire, "test/timer");
    } else {
      timers_[id].cancel();
      timers_[id] = simulator_.schedule(delay, fire, "test/timer");
    }
  }

  void onFire(int id) {
    trace_.push_back(id);
    // Re-arm the executing timer (no heap entry to move), then maybe
    // again once it is queued.
    arm(id, 0.25 * static_cast<Time>(rng_.uniformInt(1, 8)));
    const auto ops = rng_.uniformInt(0, 3);
    for (std::int64_t k = 0; k < ops; ++k) {
      const auto target = static_cast<int>(rng_.uniformInt(0, kTimers - 1));
      const Time delay = 0.25 * static_cast<Time>(rng_.uniformInt(0, 8));
      const double dice = rng_.uniform(0.0, 1.0);
      if (dice < 0.5) {
        arm(target, delay);
      } else if (dice < 0.6) {
        arm(id, delay);
      } else if (dice < 0.75) {
        timers_[target].cancel();
      } else if (dice < 0.9 && !stale_.empty()) {
        const auto pick = static_cast<std::size_t>(rng_.uniformInt(
            0, static_cast<std::int64_t>(stale_.size()) - 1));
        stale_[pick].cancel();  // must never hit a live re-armed timer
      } else {
        simulator_.schedule(delay, [this] { trace_.push_back(-1); });
      }
      trace_.push_back(timers_[target].pending() ? 100 + target : -100);
    }
  }

  Simulator simulator_;
  RngStream rng_;
  bool useRearm_;
  EventHandle timers_[kTimers];
  std::vector<EventHandle> stale_;
  std::vector<int> trace_;
};

class RescheduleParity : public ::testing::TestWithParam<Engine> {};

TEST_P(RescheduleParity, MatchesCancelPlusSchedule) {
  RearmScript rearmed(GetParam(), true);
  RearmScript spelledOut(GetParam(), false);
  EXPECT_GT(rearmed.simulator().eventsExecuted(), 2000u);
  // Parked entries did surface, and not as executed events.
  EXPECT_GT(rearmed.simulator().parkedSurfaced(), 100u);
  EXPECT_EQ(spelledOut.simulator().parkedSurfaced(), 0u);
  EXPECT_EQ(rearmed.trace(), spelledOut.trace());
  EXPECT_EQ(rearmed.simulator().eventsExecuted(),
            spelledOut.simulator().eventsExecuted());
  EXPECT_EQ(rearmed.simulator().reservedSequences(),
            spelledOut.simulator().reservedSequences());
  EXPECT_EQ(rearmed.simulator().queueDepth(),
            spelledOut.simulator().queueDepth());
  EXPECT_EQ(rearmed.simulator().peakQueueDepth(),
            spelledOut.simulator().peakQueueDepth());
}

INSTANTIATE_TEST_SUITE_P(Engines, RescheduleParity,
                         ::testing::Values(Engine::kSerial,
                                           Engine::kPerturbed));

// The perturbed and unperturbed runs of the script differ (it is full of
// same-instant ties), so the parity above is not vacuous under perturbation.
TEST(RescheduleParity, PerturbedScriptTakesADifferentOrder) {
  RearmScript plain(Engine::kSerial, true);
  RearmScript perturbed(Engine::kPerturbed, true);
  EXPECT_NE(plain.trace(), perturbed.trace());
}

// --- runs (phy::Channel arrivals and Radio reception ends) -----------------

/// A RunPayload that counts its references (a frame stand-in).
class CountedPayload final : public RunPayload {
 public:
  void retainPayload() override { ++refs; }
  void releasePayload() override { --refs; }
  int refs = 0;
};

/// Broadcast receptions as the PHY schedules them: each transmission
/// reserves its receivers' arrival orders in receiver order, then queues
/// the arrivals sorted by key; each arrival schedules its reception end one
/// airtime later; receptions are aborted at random (transmit, sleep,
/// powerDown cancel the end), and callbacks test pending(). Spelled either
/// with runs (Simulator::scheduleReservedInRun / scheduleInRun) or with
/// one closure per event; the two must be indistinguishable.
class ReceptionScript {
 public:
  static constexpr int kReceivers = 12;

  ReceptionScript(Engine engine, bool useRuns)
      : simulator_(13), rng_(5), useRuns_(useRuns) {
    if (engine == Engine::kPerturbed) simulator_.perturbTieBreaks();
    frames_.reserve(kFrames);
    for (int k = 0; k < 8; ++k) {
      simulator_.schedule(0.25 * k, [this] { transmit(); }, "test/tx");
    }
    simulator_.run(500.0);
  }

  Simulator& simulator() { return simulator_; }
  const std::vector<int>& trace() const { return trace_; }
  int outstandingPayloadRefs() const {
    int refs = 0;
    for (const Frame& frame : frames_) refs += frame.payload.refs;
    return refs;
  }

 private:
  static constexpr std::size_t kFrames = 600;

  struct Frame {
    CountedPayload payload;
    RunCursor endRun;
  };

  static void arrive(void* script, std::uint64_t arg, RunPayload* payload) {
    auto* self = static_cast<ReceptionScript*>(script);
    if (payload != nullptr) {
      EXPECT_EQ(payload, &self->frames_[arg >> 8].payload);
    }
    self->onArrive(arg);
  }
  static void end(void* script, std::uint64_t arg, RunPayload* /*payload*/) {
    static_cast<ReceptionScript*>(script)->onEnd(arg);
  }

  void transmit() {
    if (frames_.size() == kFrames) return;
    const std::uint64_t frame = frames_.size();
    frames_.emplace_back();
    std::vector<RunItem> arrivals;
    for (int r = 0; r < kReceivers; ++r) {
      if (!rng_.chance(0.7)) continue;
      // Coarse propagation delays: plenty of same-instant arrivals.
      const Time at = simulator_.now() + 0.25 * rng_.uniformInt(0, 2);
      arrivals.push_back(RunItem{at, simulator_.reserveOrder(), "test/arrive",
                                 &arrive, this, (frame << 8) | r});
    }
    std::sort(arrivals.begin(), arrivals.end(), itemBefore);
    RunCursor run;
    for (const RunItem& item : arrivals) {
      if (useRuns_) {
        simulator_.scheduleReservedInRun(run, item, &frames_[frame].payload);
      } else {
        const std::uint64_t arg = item.arg;
        simulator_.scheduleReserved(
            item.time, item.order, [this, arg] { onArrive(arg); },
            "test/arrive");
      }
    }
  }

  void onArrive(std::uint64_t arg) {
    const auto r = static_cast<std::size_t>(arg & 0xff);
    trace_.push_back(static_cast<int>(arg));
    // A new reception at r aborts the one in progress, now and then.
    if (rng_.chance(0.2)) ends_[r].cancel();
    if (useRuns_) {
      ends_[r] = simulator_.scheduleInRun(frames_[arg >> 8].endRun, kAirtime,
                                          &end, this, arg, "test/end");
    } else {
      ends_[r] = simulator_.schedule(kAirtime, [this, arg] { onEnd(arg); },
                                     "test/end");
    }
  }

  void onEnd(std::uint64_t arg) {
    const auto r = static_cast<std::size_t>(arg & 0xff);
    trace_.push_back(-static_cast<int>(arg));
    trace_.push_back(ends_[r].pending() ? 1 : 0);  // true while it runs
    const auto other =
        static_cast<std::size_t>(rng_.uniformInt(0, kReceivers - 1));
    const double dice = rng_.uniform(0.0, 1.0);
    if (dice < 0.15) {
      ends_[other].cancel();  // queued, executing, or already retired
    } else if (dice < 0.2) {
      ends_[r].cancel();  // the executing item itself
    }
    trace_.push_back(ends_[other].pending() ? 1 : 0);
    if (dice > 0.6) {
      simulator_.schedule(0.25 * rng_.uniformInt(0, 4),
                          [this] { transmit(); }, "test/tx");
    }
  }

  static constexpr Time kAirtime = 1.0;  // longer than any delay spread

  Simulator simulator_;
  RngStream rng_;
  bool useRuns_;
  std::vector<Frame> frames_;
  EventHandle ends_[kReceivers];
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
  EXPECT_EQ(runs.outstandingPayloadRefs(), 0);
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
