// Unit and property tests for the battery and power model.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>

#include "energy/battery.hpp"
#include "energy/power_profile.hpp"
#include "sim/rng.hpp"

namespace ecgrid::energy {
namespace {

TEST(PowerProfile, PaperNumbers) {
  PowerProfile p = PowerProfile::paperDefaults();
  EXPECT_DOUBLE_EQ(p.radioPowerW(PowerState::kTx), 1.400);
  EXPECT_DOUBLE_EQ(p.radioPowerW(PowerState::kRx), 1.000);
  EXPECT_DOUBLE_EQ(p.radioPowerW(PowerState::kIdle), 0.830);
  EXPECT_DOUBLE_EQ(p.radioPowerW(PowerState::kSleep), 0.130);
  EXPECT_DOUBLE_EQ(p.gpsW, 0.033);
  EXPECT_DOUBLE_EQ(p.totalPowerW(PowerState::kIdle), 0.863);
  EXPECT_DOUBLE_EQ(p.totalPowerW(PowerState::kOff), 0.0);
}

TEST(Battery, IntegratesConstantDraw) {
  Battery battery(100.0);
  battery.setPowerW(2.0, 0.0);
  EXPECT_DOUBLE_EQ(battery.remainingJ(10.0), 80.0);
  EXPECT_DOUBLE_EQ(battery.consumedJ(10.0), 20.0);
  EXPECT_DOUBLE_EQ(battery.remainingRatio(10.0), 0.8);
}

TEST(Battery, PiecewiseDrawIsExact) {
  Battery battery(100.0);
  battery.setPowerW(1.0, 0.0);
  battery.setPowerW(3.0, 10.0);  // 10 J consumed so far
  battery.setPowerW(0.5, 20.0);  // + 30 J
  EXPECT_DOUBLE_EQ(battery.remainingJ(30.0), 100.0 - 10.0 - 30.0 - 5.0);
}

TEST(Battery, LevelsMatchPaperThresholds) {
  Battery battery(100.0);
  battery.setPowerW(1.0, 0.0);
  EXPECT_EQ(battery.level(0.0), BatteryLevel::kUpper);
  EXPECT_EQ(battery.level(39.9), BatteryLevel::kUpper);   // R ≈ 0.601
  EXPECT_EQ(battery.level(40.0), BatteryLevel::kUpper);   // R = 0.6 inclusive
  EXPECT_EQ(battery.level(40.1), BatteryLevel::kBoundary);
  EXPECT_EQ(battery.level(79.9), BatteryLevel::kBoundary);
  EXPECT_EQ(battery.level(80.1), BatteryLevel::kLower);
  EXPECT_EQ(battery.level(100.0), BatteryLevel::kDead);
  EXPECT_TRUE(battery.isDead(150.0));
}

TEST(Battery, ElectionRankOrder) {
  EXPECT_GT(electionRank(BatteryLevel::kUpper),
            electionRank(BatteryLevel::kBoundary));
  EXPECT_GT(electionRank(BatteryLevel::kBoundary),
            electionRank(BatteryLevel::kLower));
  EXPECT_GT(electionRank(BatteryLevel::kLower),
            electionRank(BatteryLevel::kDead));
}

TEST(Battery, DeathTimeIsPinnedExactly) {
  Battery battery(10.0);
  battery.setPowerW(2.0, 0.0);
  // Look far past depletion: death occurred at t = 5 exactly.
  EXPECT_DOUBLE_EQ(battery.remainingJ(100.0), 0.0);
  EXPECT_DOUBLE_EQ(battery.deathTime(), 5.0);
}

TEST(Battery, TimeToEmpty) {
  Battery battery(10.0);
  battery.setPowerW(2.0, 0.0);
  EXPECT_DOUBLE_EQ(battery.timeToEmpty(0.0), 5.0);
  EXPECT_DOUBLE_EQ(battery.timeToEmpty(2.0), 3.0);
  battery.setPowerW(0.0, 3.0);
  EXPECT_TRUE(std::isinf(battery.timeToEmpty(3.0)));
}

TEST(Battery, InfiniteBatteryNeverDies) {
  Battery battery = Battery::infinite();
  battery.setPowerW(1000.0, 0.0);
  EXPECT_FALSE(battery.isDead(1e9));
  EXPECT_EQ(battery.level(1e9), BatteryLevel::kUpper);
  EXPECT_DOUBLE_EQ(battery.remainingRatio(1e9), 1.0);
  // Consumption is still accounted (Model-1 endpoints are excluded from
  // metering, but the ledger stays meaningful).
  EXPECT_DOUBLE_EQ(battery.consumedJ(10.0), 10000.0);
}

TEST(Battery, RejectsBadInputs) {
  EXPECT_THROW(Battery(0.0), std::invalid_argument);
  EXPECT_THROW(Battery(-1.0), std::invalid_argument);
  Battery battery(10.0);
  EXPECT_THROW(battery.setPowerW(-0.1, 0.0), std::invalid_argument);
}

TEST(Battery, TimeGoingBackwardsIsCaught) {
  Battery battery(100.0);
  battery.setPowerW(1.0, 10.0);
  // Within the 1 ns slack a read at an earlier time is a no-op...
  EXPECT_DOUBLE_EQ(battery.remainingJ(10.0 - 1e-10), 100.0);
  // ...beyond it every integrating entry point refuses.
  EXPECT_THROW(battery.setPowerW(2.0, 5.0), std::logic_error);
  EXPECT_THROW(battery.timeToEmpty(5.0), std::logic_error);
  EXPECT_THROW((void)battery.remainingJ(5.0), std::logic_error);
  // Nothing was charged or changed by the refused calls.
  EXPECT_DOUBLE_EQ(battery.currentPowerW(), 1.0);
  EXPECT_DOUBLE_EQ(battery.remainingJ(20.0), 90.0);
}

TEST(Battery, NegativeDrawIsRejected) {
  Battery battery(100.0);
  battery.setPowerW(1.0, 0.0);
  EXPECT_THROW(battery.setPowerW(-1e-12, 10.0), std::invalid_argument);
  // Rejected before integrating: the old draw holds from t = 0.
  EXPECT_DOUBLE_EQ(battery.currentPowerW(), 1.0);
  EXPECT_DOUBLE_EQ(battery.timeToEmpty(10.0), 90.0);
  battery.setPowerW(0.0, 10.0);  // zero is a valid draw
  EXPECT_EQ(battery.timeToEmpty(10.0),
            std::numeric_limits<double>::infinity());
}

TEST(Battery, PaperLifetimeSanity) {
  // 500 J at idle+GPS (0.863 W) ⇒ ≈ 579 s — the paper's ≈590 s GRID wall.
  Battery battery(500.0);
  PowerProfile p;
  battery.setPowerW(p.totalPowerW(PowerState::kIdle), 0.0);
  EXPECT_NEAR(battery.timeToEmpty(0.0), 579.4, 0.5);
  // A sleeping host (+GPS) instead lasts ≈ 3067 s.
  Battery sleeper(500.0);
  sleeper.setPowerW(p.totalPowerW(PowerState::kSleep), 0.0);
  EXPECT_NEAR(sleeper.timeToEmpty(0.0), 3067.5, 1.0);
}

// Property: for random piecewise-constant schedules, consumed + remaining
// equals capacity until depletion, and consumption is monotone.
class BatterySchedule : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BatterySchedule, ConservationAndMonotonicity) {
  sim::RngStream rng(GetParam());
  Battery battery(50.0);
  double t = 0.0;
  double lastConsumed = 0.0;
  for (int i = 0; i < 200; ++i) {
    battery.setPowerW(rng.uniform(0.0, 2.0), t);
    t += rng.uniform(0.0, 2.0);
    double consumed = battery.consumedJ(t);
    double remaining = battery.remainingJ(t);
    EXPECT_GE(consumed, lastConsumed);
    lastConsumed = consumed;
    if (!battery.isDead(t)) {
      EXPECT_NEAR(consumed + remaining, 50.0, 1e-9);
    } else {
      EXPECT_DOUBLE_EQ(remaining, 0.0);
      EXPECT_LE(battery.deathTime(), t);
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BatterySchedule,
                         ::testing::Values(3u, 14u, 159u, 2653u, 58979u));

}  // namespace
}  // namespace ecgrid::energy
