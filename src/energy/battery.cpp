#include "energy/battery.hpp"

#include "util/error.hpp"

namespace ecgrid::energy {

const char* toString(BatteryLevel level) {
  switch (level) {
    case BatteryLevel::kUpper:
      return "upper";
    case BatteryLevel::kBoundary:
      return "boundary";
    case BatteryLevel::kLower:
      return "lower";
    case BatteryLevel::kDead:
      return "dead";
  }
  return "?";
}

int electionRank(BatteryLevel level) {
  switch (level) {
    case BatteryLevel::kUpper:
      return 3;
    case BatteryLevel::kBoundary:
      return 2;
    case BatteryLevel::kLower:
      return 1;
    case BatteryLevel::kDead:
      return 0;
  }
  return 0;
}

Battery::Battery(double capacityJ) : Battery(capacityJ, /*infinite=*/false) {
  ECGRID_REQUIRE(capacityJ > 0.0, "battery capacity must be positive");
}

Battery::Battery(double capacityJ, bool infinite)
    : capacityJ_(capacityJ), remainingJ_(capacityJ), infinite_(infinite) {}

Battery Battery::infinite() {
  return Battery(std::numeric_limits<double>::infinity(), /*infinite=*/true);
}

double Battery::remainingJ(sim::Time now) {
  advanceTo(now);
  return remainingJ_;
}

double Battery::peekRemainingJ(sim::Time now) const {
  if (infinite_ || now <= lastUpdate_) return remainingJ_;
  double left = remainingJ_ - powerW_ * (now - lastUpdate_);
  return left < 0.0 ? 0.0 : left;
}

double Battery::consumedJ(sim::Time now) {
  advanceTo(now);
  return consumedJ_;
}

double Battery::remainingRatio(sim::Time now) {
  if (infinite_) return 1.0;
  return remainingJ(now) / capacityJ_;
}

BatteryLevel Battery::level(sim::Time now) {
  if (infinite_) return BatteryLevel::kUpper;
  double r = remainingRatio(now);
  if (r <= 0.0) return BatteryLevel::kDead;
  if (r >= 0.6) return BatteryLevel::kUpper;
  if (r >= 0.2) return BatteryLevel::kBoundary;
  return BatteryLevel::kLower;
}

bool Battery::isDead(sim::Time now) {
  return level(now) == BatteryLevel::kDead;
}

void Battery::drain(double joules, sim::Time now) {
  ECGRID_REQUIRE(joules >= 0.0, "cannot drain negative energy");
  advanceTo(now);
  consumedJ_ += joules;
  if (!infinite_) {
    if (joules >= remainingJ_ && remainingJ_ > 0.0) deathTime_ = now;
    remainingJ_ -= joules;
    if (remainingJ_ < 0.0) remainingJ_ = 0.0;
  }
}

void Battery::injectJ(double joules, sim::Time now) {
  ECGRID_REQUIRE(joules >= 0.0, "cannot inject negative energy");
  advanceTo(now);
  if (infinite_) return;
  remainingJ_ += joules;
  if (remainingJ_ > capacityJ_) remainingJ_ = capacityJ_;
}

}  // namespace ecgrid::energy
