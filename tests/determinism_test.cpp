// Determinism-analysis layer (ISSUE 4): event-queue tie-break
// perturbation, state digests, and harness::checkDeterminism.
//
// The headline guarantees under test:
//   * replay — the same ScenarioConfig produces the same digest trace;
//   * tie-order stability — randomising the tie-break among equal-time
//     events leaves the final state digest unchanged for every shipped
//     protocol (the simulator's data-race check);
//   * sensitivity — an injected unordered-iteration order dependence IS
//     caught by the perturbation mode, so a green check means something.
#include <gtest/gtest.h>

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "check/determinism.hpp"
#include "harness/determinism.hpp"
#include "harness/scenario.hpp"
#include "sim/simulator.hpp"

namespace ecgrid {
namespace {

// ---------------------------------------------------------------------------
// EventQueue tie-break perturbation semantics
// ---------------------------------------------------------------------------

/// Run `count` events all scheduled at the same instant and return the
/// order their ids executed in.
std::vector<int> sameTimeExecutionOrder(bool perturb, std::uint64_t seed) {
  sim::Simulator simulator(seed);
  if (perturb) simulator.perturbTieBreaks();
  std::vector<int> order;
  constexpr int kCount = 32;
  for (int i = 0; i < kCount; ++i) {
    simulator.schedule(1.0, [i, &order] { order.push_back(i); });
  }
  simulator.run();
  EXPECT_EQ(order.size(), static_cast<std::size_t>(kCount));
  return order;
}

TEST(TieBreakPerturbation, DisabledModeRunsTiesInInsertionOrder) {
  std::vector<int> order = sameTimeExecutionOrder(false, 1);
  for (int i = 0; i < static_cast<int>(order.size()); ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(TieBreakPerturbation, PerturbedModeShufflesSameTimeEvents) {
  std::vector<int> insertion = sameTimeExecutionOrder(false, 1);
  std::vector<int> shuffled = sameTimeExecutionOrder(true, 1);
  // Same event set…
  std::vector<int> sorted = shuffled;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(sorted, insertion);
  // …in a different order (P[identity shuffle] = 1/32! ≈ 0).
  EXPECT_NE(shuffled, insertion);
}

TEST(TieBreakPerturbation, PerturbedRunIsItselfReproducible) {
  EXPECT_EQ(sameTimeExecutionOrder(true, 9), sameTimeExecutionOrder(true, 9));
  // A different master seed shuffles differently.
  EXPECT_NE(sameTimeExecutionOrder(true, 9), sameTimeExecutionOrder(true, 10));
}

TEST(TieBreakPerturbation, TimeOrderStillDominatesTieKeys) {
  sim::Simulator simulator(3);
  simulator.perturbTieBreaks();
  std::vector<int> order;
  // Interleave three distinct times; only same-time pairs may reorder.
  for (int i = 0; i < 30; ++i) {
    const double when = 1.0 + static_cast<double>(i % 3);
    simulator.schedule(when, [i, &order] { order.push_back(i); });
  }
  simulator.run();
  ASSERT_EQ(order.size(), 30u);
  for (std::size_t k = 1; k < order.size(); ++k) {
    EXPECT_LE(order[k - 1] % 3, order[k] % 3) << "time ordering violated";
  }
}

TEST(TieBreakPerturbation, CancellationStillWorksWhilePerturbed) {
  sim::Simulator simulator(4);
  simulator.perturbTieBreaks();
  int fired = 0;
  std::vector<sim::EventHandle> handles;
  handles.reserve(16);
  for (int i = 0; i < 16; ++i) {
    handles.push_back(simulator.schedule(1.0, [&fired] { ++fired; }));
  }
  for (int i = 0; i < 16; i += 2) handles[i].cancel();
  simulator.run();
  EXPECT_EQ(fired, 8);
}

// ---------------------------------------------------------------------------
// Sensitivity: an injected order dependence must be caught
// ---------------------------------------------------------------------------

/// Worst-case hash: every key lands in one bucket, so the container's
/// iteration order is its insertion order reversed — exactly the
/// hash-order leakage ecgrid_lint's unordered-iteration rule exists to
/// keep out of event-scheduling code.
struct CollidingHash {
  std::size_t operator()(int) const { return 0; }
};

/// Deliberately order-dependent component: same-instant events insert
/// into an unordered container and the "result" is a fold over its
/// iteration order. Returns the digest of that fold.
// ecgrid-lint fixtures live in tests/lint/; this inline injection is the
// runtime counterpart the perturbation harness must flag.
std::uint64_t orderDependentDigest(bool perturb) {
  sim::Simulator simulator(11);
  if (perturb) simulator.perturbTieBreaks();
  std::unordered_map<int, int, CollidingHash> sightings;
  for (int i = 0; i < 24; ++i) {
    simulator.schedule(5.0, [i, &sightings] {
      sightings.emplace(i, i);  // insertion order == execution order
    });
  }
  simulator.run();
  check::Fnv1a h;
  // The order dependence below is this test's entire point.
  // ecgrid-lint: allow(unordered-iteration)
  for (const auto& [id, value] : sightings) {  // hash-order iteration
    h.mixI64(id);
    h.mixI64(value);
  }
  return h.value();
}

TEST(TieBreakPerturbation, CatchesInjectedUnorderedIterationDependence) {
  const std::uint64_t reference = orderDependentDigest(false);
  // Replay of the unperturbed run is still exact…
  EXPECT_EQ(reference, orderDependentDigest(false));
  // …but the perturbed tie order changes the insertion order and with it
  // the hash-order fold: the divergence the harness exists to detect.
  EXPECT_NE(reference, orderDependentDigest(true));
}

// ---------------------------------------------------------------------------
// Full-scenario replay + tie-order checks (GRID / ECGRID / GAF / faulted)
// ---------------------------------------------------------------------------

harness::ScenarioConfig checkBase() {
  harness::ScenarioConfig config;
  // Horizon-capped like the CI bench smokes: checkDeterminism runs the
  // scenario three times.
  config.hostCount = 30;
  config.flowCount = 2;
  config.packetsPerSecondPerFlow = 4.0;
  config.duration = 60.0;
  config.seed = 21;
  config.digestEveryEvents = 1000;
  return config;
}

class DeterminismCheck
    : public ::testing::TestWithParam<harness::ProtocolKind> {};

TEST_P(DeterminismCheck, ReplayAndTieOrderStable) {
  harness::ScenarioConfig config = checkBase();
  config.protocol = GetParam();
  harness::DeterminismReport report = harness::checkDeterminism(config);
  EXPECT_TRUE(report.replayIdentical) << report.divergence;
  EXPECT_TRUE(report.tieOrderStable) << report.divergence;
  EXPECT_TRUE(report.passed());
  EXPECT_GT(report.samplesCompared, 10u);
  EXPECT_TRUE(report.divergence.empty()) << report.divergence;
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, DeterminismCheck,
                         ::testing::Values(harness::ProtocolKind::kGrid,
                                           harness::ProtocolKind::kEcgrid,
                                           harness::ProtocolKind::kGaf));

TEST(DeterminismCheckFaulted, ReplayAndTieOrderStableUnderFaults) {
  harness::ScenarioConfig config = checkBase();
  config.protocol = harness::ProtocolKind::kEcgrid;
  config.fault.channel.kind = fault::ChannelErrorKind::kIid;
  config.fault.channel.lossProbability = 0.05;
  config.fault.hosts.crashes.push_back({4, 10.0, 30.0});
  config.fault.paging.lossProbability = 0.05;
  harness::DeterminismReport report = harness::checkDeterminism(config);
  EXPECT_TRUE(report.passed()) << report.divergence;
}

TEST(DeterminismCheck, RejectsPrePerturbedConfig) {
  harness::ScenarioConfig config = checkBase();
  config.perturbTieBreak = true;
  EXPECT_THROW(harness::checkDeterminism(config), std::invalid_argument);
}

TEST(DeterminismCheck, DigestTraceIsOffByDefault) {
  harness::ScenarioConfig config = checkBase();
  config.digestEveryEvents = 0;
  config.duration = 10.0;
  harness::ScenarioResult result = harness::runScenario(config);
  EXPECT_TRUE(result.digestTrace.empty());
}

TEST(DeterminismCheck, DigestTraceEndsWithClosingSample) {
  harness::ScenarioConfig config = checkBase();
  config.duration = 10.0;
  harness::ScenarioResult result = harness::runScenario(config);
  ASSERT_FALSE(result.digestTrace.empty());
  EXPECT_EQ(result.digestTrace.back().eventsExecuted, result.eventsExecuted);
  EXPECT_DOUBLE_EQ(result.digestTrace.back().at, config.duration);
}

// An inert digest hook must not change the simulation itself: the run's
// observable results are identical with and without sampling. (The
// digest is a pure observer — batteries are peeked, not advanced, so
// sampling leaves no floating-point trace in the run.)
TEST(DeterminismCheck, DigestSamplingDoesNotPerturbTheRun) {
  harness::ScenarioConfig config = checkBase();
  config.duration = 30.0;
  config.digestEveryEvents = 0;
  harness::ScenarioResult plain = harness::runScenario(config);
  config.digestEveryEvents = 500;
  harness::ScenarioResult sampled = harness::runScenario(config);
  EXPECT_EQ(plain.eventsExecuted, sampled.eventsExecuted);
  EXPECT_EQ(plain.packetsReceived, sampled.packetsReceived);
  EXPECT_EQ(plain.metrics, sampled.metrics);
}

// ---------------------------------------------------------------------------
// Exactness pins: whole-scenario outcomes recorded before the channel
// stopped scheduling deliveries to sleeping radios (phy::Channel's sleeper
// skip and wake replay). A change that only alters how many events it
// takes to simulate the same thing must leave the final state digest and
// the whole metrics snapshot bit-identical. The event-count family
// (eventsExecuted, peakQueueDepth, slabSlotsTotal, profile.*) is what such
// a change is allowed to move, so it is not pinned — and neither is the
// sampled digest trace, which is keyed to the executed-event count.
// ---------------------------------------------------------------------------

/// FNV-1a over every (name, value) of the snapshot except profile.*.
std::uint64_t metricsDigest(const obs::MetricsSnapshot& metrics) {
  check::Fnv1a h;
  for (const auto& [name, value] : metrics) {
    if (name.rfind("profile.", 0) == 0) continue;
    h.mixString(name);
    h.mixDouble(value);
  }
  return h.value();
}

/// The paper's §4 baseline (bench::paperBaseline), horizon-capped past
/// GRID's first battery deaths so the pin stays cheap.
harness::ScenarioConfig pinnedBaseline(harness::ProtocolKind protocol) {
  harness::ScenarioConfig config;
  config.protocol = protocol;
  config.hostCount = 100;
  config.flowCount = 1;
  config.packetsPerSecondPerFlow = 10.0;
  config.duration = 700.0;
  // Only the closing sample: the period is never reached.
  config.digestEveryEvents = std::uint64_t{1} << 62;
  return config;
}

struct ExactnessPin {
  const char* name;
  harness::ScenarioConfig config;
  std::uint64_t finalDigest;
  std::uint64_t metricsDigest;
  std::uint64_t packetsReceived;
  std::uint64_t phyFramesTransmitted;
};

std::vector<ExactnessPin> exactnessPins() {
  std::vector<ExactnessPin> pins;
  pins.push_back({"grid_baseline", pinnedBaseline(harness::ProtocolKind::kGrid),
                  12058062618474709368ull, 15771317119213517302ull, 5543,
                  130939});
  pins.push_back({"ecgrid_baseline",
                  pinnedBaseline(harness::ProtocolKind::kEcgrid),
                  4118636508725263187ull, 17536267441591763540ull, 5582,
                  115258});
  pins.push_back({"gaf_baseline", pinnedBaseline(harness::ProtocolKind::kGaf),
                  2439533879010615016ull, 3645368257499566624ull, 6893, 65426});

  harness::ScenarioConfig faulted =
      pinnedBaseline(harness::ProtocolKind::kEcgrid);
  faulted.duration = 300.0;
  faulted.fault.channel.kind = fault::ChannelErrorKind::kIid;
  faulted.fault.channel.lossProbability = 0.05;
  faulted.fault.hosts.crashRatePerHostPerSecond = 1e-3;
  faulted.fault.hosts.meanDowntimeSeconds = 20.0;
  // Re-pinned when channel-fault draws became keyed on (transmission,
  // sender, receiver) instead of drawn from one stream in visit order.
  pins.push_back({"ecgrid_faulted", faulted, 12870888164629910477ull,
                  4879514356907288980ull, 2846, 56838});

  harness::ScenarioConfig dense =
      pinnedBaseline(harness::ProtocolKind::kEcgrid);
  dense.hostCount = 1000;
  dense.flowCount = 10;
  dense.packetsPerSecondPerFlow = 1.0;
  dense.duration = 12.0;
  pins.push_back({"ecgrid_dense_1000", dense, 10182045804973366301ull,
                  14649394560566217280ull, 64, 15800});

  // perfbench's dense_grid scenario: every radio awake, so nearly every
  // event is a reception.
  harness::ScenarioConfig denseGrid = dense;
  denseGrid.protocol = harness::ProtocolKind::kGrid;
  pins.push_back({"grid_dense_1000", denseGrid, 2621785410779618936ull,
                  5542609952712885153ull, 109, 14715});
  return pins;
}

class ExactnessPinCheck : public ::testing::TestWithParam<std::size_t> {};

TEST_P(ExactnessPinCheck, OutcomeMatchesRecordedValues) {
  const ExactnessPin pin = exactnessPins()[GetParam()];
  SCOPED_TRACE(pin.name);
  harness::ScenarioResult result = harness::runScenario(pin.config);
  ASSERT_FALSE(result.digestTrace.empty());
  EXPECT_EQ(result.digestTrace.back().digest, pin.finalDigest);
  EXPECT_EQ(metricsDigest(result.metrics), pin.metricsDigest);
  EXPECT_EQ(result.packetsReceived, pin.packetsReceived);
  EXPECT_EQ(obs::metricOr(result.metrics, "phy.frames_transmitted"),
            static_cast<double>(pin.phyFramesTransmitted));
}

INSTANTIATE_TEST_SUITE_P(
    Scenarios, ExactnessPinCheck,
    ::testing::Range<std::size_t>(0, exactnessPins().size()),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
      return std::string(exactnessPins()[info.param].name);
    });

}  // namespace
}  // namespace ecgrid
