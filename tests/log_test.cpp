// Unit tests for the leveled logger (src/util/log).
#include "util/log.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <exception>
#include <string>
#include <thread>
#include <vector>

#include "harness/parallel_runner.hpp"
#include "harness/scenario.hpp"
#include "sim/simulator.hpp"

namespace ecgrid::util {
namespace {

// The level and overrides are process-global; every test restores the
// silent default so the rest of the suite stays quiet.
class LogTest : public ::testing::Test {
 protected:
  void TearDown() override {
    Logger::configure("");  // clears per-component overrides
    Logger::setLevel(LogLevel::kOff);
  }
};

TEST_F(LogTest, ParseLevelAcceptsNamesAndDigits) {
  EXPECT_EQ(Logger::parseLevel("error"), LogLevel::kError);
  EXPECT_EQ(Logger::parseLevel("1"), LogLevel::kError);
  EXPECT_EQ(Logger::parseLevel("warn"), LogLevel::kWarn);
  EXPECT_EQ(Logger::parseLevel("2"), LogLevel::kWarn);
  EXPECT_EQ(Logger::parseLevel("info"), LogLevel::kInfo);
  EXPECT_EQ(Logger::parseLevel("3"), LogLevel::kInfo);
  EXPECT_EQ(Logger::parseLevel("debug"), LogLevel::kDebug);
  EXPECT_EQ(Logger::parseLevel("4"), LogLevel::kDebug);
  EXPECT_EQ(Logger::parseLevel("trace"), LogLevel::kTrace);
  EXPECT_EQ(Logger::parseLevel("5"), LogLevel::kTrace);
}

TEST_F(LogTest, ParseLevelMapsUnknownToOff) {
  EXPECT_EQ(Logger::parseLevel(""), LogLevel::kOff);
  EXPECT_EQ(Logger::parseLevel("verbose"), LogLevel::kOff);
  EXPECT_EQ(Logger::parseLevel("ERROR"), LogLevel::kOff);  // case-sensitive
  EXPECT_EQ(Logger::parseLevel("0"), LogLevel::kOff);
}

TEST_F(LogTest, SetLevelRoundTripsAndGatesEnabled) {
  Logger::setLevel(LogLevel::kWarn);
  EXPECT_EQ(Logger::level(), LogLevel::kWarn);
  EXPECT_TRUE(logEnabled(LogLevel::kError));
  EXPECT_TRUE(logEnabled(LogLevel::kWarn));
  EXPECT_FALSE(logEnabled(LogLevel::kInfo));
  EXPECT_FALSE(logEnabled(LogLevel::kTrace));

  Logger::setLevel(LogLevel::kOff);
  EXPECT_FALSE(logEnabled(LogLevel::kError));
}

TEST_F(LogTest, WriteFormatsLevelTagAndMessage) {
  ::testing::internal::CaptureStderr();
  Logger::write(LogLevel::kError, "mac", "backoff exhausted");
  Logger::write(LogLevel::kWarn, "phy", "w");
  Logger::write(LogLevel::kInfo, "grid", "i");
  Logger::write(LogLevel::kDebug, "gaf", "d");
  Logger::write(LogLevel::kTrace, "sim", "t");
  Logger::write(LogLevel::kOff, "none", "o");
  std::string out = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(out.find("[error] [mac] backoff exhausted\n"), std::string::npos);
  EXPECT_NE(out.find("[warn] [phy] w\n"), std::string::npos);
  EXPECT_NE(out.find("[info] [grid] i\n"), std::string::npos);
  EXPECT_NE(out.find("[debug] [gaf] d\n"), std::string::npos);
  EXPECT_NE(out.find("[trace] [sim] t\n"), std::string::npos);
  EXPECT_NE(out.find("[off] [none] o\n"), std::string::npos);
}

TEST_F(LogTest, MacroSkipsMessageConstructionWhenDisabled) {
  Logger::setLevel(LogLevel::kWarn);
  int evaluations = 0;
  auto count = [&evaluations]() {
    ++evaluations;
    return "built";
  };
  ::testing::internal::CaptureStderr();
  ECGRID_LOG_DEBUG("test", count());  // below the level: expr must not run
  ECGRID_LOG_WARN("test", count());   // at the level: expr runs, line emitted
  std::string out = ::testing::internal::GetCapturedStderr();
  EXPECT_EQ(evaluations, 1);
  EXPECT_NE(out.find("[warn] [test] built"), std::string::npos);
  EXPECT_EQ(out.find("[debug]"), std::string::npos);
}

TEST_F(LogTest, MacroStreamsMixedExpressions) {
  Logger::setLevel(LogLevel::kInfo);
  ::testing::internal::CaptureStderr();
  ECGRID_LOG_INFO("node/7", "seq=" << 42 << " at " << 1.5 << "s");
  std::string out = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(out.find("[info] [node/7] seq=42 at 1.5s"), std::string::npos);
}

TEST_F(LogTest, ConfigureAppliesGlobalAndPerComponentLevels) {
  Logger::configure("info,mac=debug,route=trace");
  EXPECT_EQ(Logger::level(), LogLevel::kInfo);
  EXPECT_TRUE(Logger::hasOverrides());
  EXPECT_EQ(Logger::levelFor("mac"), LogLevel::kDebug);
  EXPECT_EQ(Logger::levelFor("route"), LogLevel::kTrace);
  EXPECT_EQ(Logger::levelFor("phy"), LogLevel::kInfo);  // no override
  EXPECT_TRUE(logEnabled(LogLevel::kDebug, "mac"));
  EXPECT_FALSE(logEnabled(LogLevel::kDebug, "phy"));
  EXPECT_TRUE(logEnabled(LogLevel::kInfo, "phy"));
}

TEST_F(LogTest, ReconfigureClearsPreviousOverrides) {
  Logger::configure("info,mac=debug");
  ASSERT_TRUE(Logger::hasOverrides());
  Logger::configure("warn");
  EXPECT_EQ(Logger::level(), LogLevel::kWarn);
  EXPECT_FALSE(Logger::hasOverrides());
  EXPECT_EQ(Logger::levelFor("mac"), LogLevel::kWarn);
}

TEST_F(LogTest, BareOverrideSpecKeepsGlobalLevel) {
  Logger::setLevel(LogLevel::kError);
  Logger::configure("mac=debug");
  EXPECT_EQ(Logger::level(), LogLevel::kError);
  EXPECT_EQ(Logger::levelFor("mac"), LogLevel::kDebug);
}

TEST_F(LogTest, PrefixesSimTimeWhileASimulatorIsAlive) {
  Logger::setLevel(LogLevel::kInfo);
  sim::Simulator simulator(1);
  simulator.schedule(1.5, [] {
    ECGRID_LOG_INFO("test", "mid-run line");
  });
  ::testing::internal::CaptureStderr();
  simulator.run();
  ECGRID_LOG_INFO("test", "post-run line");  // simulator still alive
  std::string out = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(out.find("[t=1.500000] [info] [test] mid-run line"),
            std::string::npos);
}

TEST_F(LogTest, OmitsSimTimePrefixWithoutASimulator) {
  Logger::setLevel(LogLevel::kInfo);
  ::testing::internal::CaptureStderr();
  ECGRID_LOG_INFO("test", "bare line");
  std::string out = ::testing::internal::GetCapturedStderr();
  EXPECT_NE(out.find("[info] [test] bare line"), std::string::npos);
  EXPECT_EQ(out.find("[t="), std::string::npos);
}

// Regression for the thread-safety audit of the global Logger: parallel
// scenario workers log (level gate, override lookups, line emission,
// thread-local sim-time prefixes) while another thread keeps calling
// Logger::configure. The tsan CI preset runs this test and holds the
// logger to its race-free contract; on any build it proves
// configure-while-running cannot crash or deadlock a sweep.
TEST_F(LogTest, ConfigureWhileParallelScenariosLogIsRaceFree) {
  Logger::configure("info,mac=debug");

  std::vector<harness::ScenarioConfig> configs;
  for (std::uint64_t seed : {1u, 2u, 3u, 4u}) {
    harness::ScenarioConfig config;
    config.hostCount = 15;
    config.fieldSize = 500.0;
    config.duration = 20.0;
    config.flowCount = 2;
    config.seed = seed;
    configs.push_back(config);
  }

  ::testing::internal::CaptureStderr();
  std::atomic<bool> stop{false};
  std::thread reconfigurer([&stop] {
    int i = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      Logger::configure((++i % 2) != 0 ? "info,mac=debug,phy=trace"
                                       : "warn,route=debug");
      std::this_thread::yield();
    }
  });

  std::vector<std::exception_ptr> failures;
  std::vector<harness::ScenarioResult> results =
      harness::runScenariosParallel(configs, 4, failures);

  stop.store(true, std::memory_order_relaxed);
  reconfigurer.join();
  ::testing::internal::GetCapturedStderr();  // swallow the log output

  ASSERT_EQ(results.size(), configs.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(failures[i] == nullptr);
    EXPECT_GT(results[i].eventsExecuted, 0u);
  }
}

}  // namespace
}  // namespace ecgrid::util
