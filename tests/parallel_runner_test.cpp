// Tests for the parallel scenario runner: results identical to the
// serial loop (order and content), per-index failure collection,
// degenerate job counts, and the benches' exit on a failed run. The
// thread-safety of concurrent runScenario calls is also exercised under
// TSan by the CI tsan preset.
#include <gtest/gtest.h>

#include <cstdlib>
#include <exception>
#include <stdexcept>
#include <string>
#include <vector>

#include "bench_support.hpp"
#include "harness/parallel_runner.hpp"
#include "harness/scenario.hpp"

namespace ecgrid::harness {
namespace {

std::vector<ScenarioConfig> smallSweep() {
  std::vector<ScenarioConfig> configs;
  for (ProtocolKind protocol :
       {ProtocolKind::kGrid, ProtocolKind::kEcgrid, ProtocolKind::kGaf}) {
    for (std::uint64_t seed : {1u, 2u}) {
      ScenarioConfig config;
      config.protocol = protocol;
      config.hostCount = 20;
      config.fieldSize = 600.0;
      config.duration = 40.0;
      config.flowCount = 2;
      config.seed = seed;
      configs.push_back(config);
    }
  }
  return configs;
}

/// Runs `configs` and requires every run to succeed.
std::vector<ScenarioResult> runAll(const std::vector<ScenarioConfig>& configs,
                                   unsigned jobs) {
  std::vector<std::exception_ptr> failures;
  std::vector<ScenarioResult> results =
      runScenariosParallel(configs, jobs, failures);
  EXPECT_EQ(failures.size(), configs.size());
  for (const std::exception_ptr& failure : failures) {
    EXPECT_TRUE(failure == nullptr);
  }
  return results;
}

void expectSameResult(const ScenarioResult& a, const ScenarioResult& b) {
  EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
  EXPECT_EQ(obs::metricOr(a.metrics, "phy.frames_transmitted"),
            obs::metricOr(b.metrics, "phy.frames_transmitted"));
  EXPECT_EQ(a.packetsSent, b.packetsSent);
  EXPECT_EQ(a.packetsReceived, b.packetsReceived);
  EXPECT_EQ(a.latencies, b.latencies);
  EXPECT_EQ(a.deathTimes, b.deathTimes);
  EXPECT_EQ(a.aen.points(), b.aen.points());
  EXPECT_EQ(a.aliveFraction.points(), b.aliveFraction.points());
}

TEST(ParallelRunner, MatchesSerialRunInOrderAndContent) {
  std::vector<ScenarioConfig> configs = smallSweep();
  std::vector<ScenarioResult> serial = runAll(configs, 1);
  std::vector<ScenarioResult> parallel = runAll(configs, 4);
  ASSERT_EQ(serial.size(), configs.size());
  ASSERT_EQ(parallel.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE(i);
    expectSameResult(serial[i], parallel[i]);
  }
  // Distinct configs really produced distinct runs (ordering is not a
  // fluke of every result being equal).
  EXPECT_NE(serial[0].eventsExecuted, serial[2].eventsExecuted);
}

TEST(ParallelRunner, MoreJobsThanWorkIsFine) {
  std::vector<ScenarioConfig> configs = smallSweep();
  configs.resize(2);
  std::vector<ScenarioResult> results = runAll(configs, 16);
  EXPECT_EQ(results.size(), 2u);
  EXPECT_GT(results[0].eventsExecuted, 0u);
}

TEST(ParallelRunner, EmptyInputYieldsEmptyOutput) {
  EXPECT_TRUE(runAll({}, 4).empty());
}

TEST(ParallelRunner, SingleJobTakesTheSerialPathWithIdenticalResults) {
  std::vector<ScenarioConfig> configs = smallSweep();
  std::vector<ScenarioResult> one = runAll(configs, 1);
  std::vector<ScenarioResult> many = runAll(configs, 3);
  ASSERT_EQ(one.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE(i);
    expectSameResult(one[i], many[i]);
  }
}

TEST(ParallelRunner, SingleConfigRunsOnTheCallingThread) {
  std::vector<ScenarioConfig> configs = smallSweep();
  configs.resize(1);
  std::vector<ScenarioResult> results = runAll(configs, 8);
  ASSERT_EQ(results.size(), 1u);
  EXPECT_GT(results[0].eventsExecuted, 0u);
}

// Collecting mode: a scenario that throws mid-sweep is reported at its
// own index and cannot perturb its neighbours — the surviving results
// are bit-identical to a sweep that never contained the poisoned config.
TEST(ParallelRunner, CollectingModeKeepsLaterResultsDeterministic) {
  std::vector<ScenarioConfig> configs = smallSweep();
  std::vector<ScenarioResult> clean = runAll(configs, 1);

  configs[1].duration = -1.0;
  std::vector<std::exception_ptr> failures;
  std::vector<ScenarioResult> partial =
      runScenariosParallel(configs, 4, failures);
  ASSERT_EQ(partial.size(), configs.size());
  ASSERT_EQ(failures.size(), configs.size());
  for (std::size_t i = 0; i < configs.size(); ++i) {
    SCOPED_TRACE(i);
    if (i == 1) {
      ASSERT_TRUE(failures[i] != nullptr);
      EXPECT_THROW(std::rethrow_exception(failures[i]),
                   std::invalid_argument);
      EXPECT_EQ(partial[i].eventsExecuted, 0u);  // slot left default
    } else {
      EXPECT_TRUE(failures[i] == nullptr);
      expectSameResult(clean[i], partial[i]);
    }
  }
}

TEST(ParallelRunner, CollectingModeOnEmptyInput) {
  std::vector<std::exception_ptr> failures{std::exception_ptr{}};
  EXPECT_TRUE(runScenariosParallel({}, 4, failures).empty());
  EXPECT_TRUE(failures.empty());  // resized to the input size
}

// The benches' one batch entry point: a scenario that throws ends the
// bench with exit 1 after the pool drains, naming the failed run by its
// label and its error — never std::terminate.
TEST(ParallelRunner, RunLabelledExitsOneNamingTheFailedRun) {
  std::vector<ScenarioConfig> configs = smallSweep();
  configs.resize(2);
  configs[1].hostCount = 0;
  const std::vector<std::string> labels = {"good_run", "hostless_run"};
  EXPECT_EXIT(
      {
        setenv("ECGRID_BENCH_JOBS", "2", 1);
        (void)bench::runLabelled(configs, labels);
      },
      ::testing::ExitedWithCode(1),
      "scenario hostless_run failed: .*need at least one host");
}

}  // namespace
}  // namespace ecgrid::harness
