// Battery with lazy state-time energy integration (paper §2, §4).
//
// The battery drains at a piecewise-constant power. Draw changes are
// applied by first charging the elapsed interval at the previous power
// (advanceTo), so the integral is exact regardless of how often anyone
// looks. The paper classifies the remaining-capacity ratio R_brc into
// three levels that drive gateway election and load balancing:
// upper (R ≥ 0.6), boundary (0.2 ≤ R < 0.6), lower (R < 0.2).
#pragma once

#include <cstdint>

#include <functional>
#include <limits>

#include "sim/time.hpp"
#include "util/ownership.hpp"

namespace ecgrid::energy {

/// Paper's three-way classification of remaining battery capacity, plus
/// Dead for an exhausted host.
enum class BatteryLevel : std::uint8_t {
  kUpper,     ///< R_brc >= 0.6
  kBoundary,  ///< 0.2 <= R_brc < 0.6
  kLower,     ///< 0 < R_brc < 0.2
  kDead,      ///< empty
};

const char* toString(BatteryLevel level);

/// Returns the priority order used by the gateway election rules:
/// upper > boundary > lower > dead (larger is better).
int electionRank(BatteryLevel level);

class ECGRID_DOMAIN_PER_HOST Battery {
 public:
  /// A finite battery with `capacityJ` joules, initially full.
  explicit Battery(double capacityJ);

  /// An inexhaustible battery (GAF "Model 1" endpoints). Level always
  /// reports kUpper; draw accounting still records consumed energy.
  static Battery infinite();

  [[nodiscard]] bool isInfinite() const { return infinite_; }
  [[nodiscard]] double capacityJ() const { return capacityJ_; }

  /// Remaining energy after integrating up to `now`.
  [[nodiscard]] double remainingJ(sim::Time now);

  /// Pure observer: remaining energy at `now` WITHOUT committing the
  /// integration point. Committed reads chunk the integral at read
  /// times, so the rounded sum depends on when anyone looked; state
  /// digests use this peek so observation can never leave a
  /// floating-point trace in the simulation.
  [[nodiscard]] double peekRemainingJ(sim::Time now) const;

  /// Total energy consumed so far (meaningful for infinite batteries too).
  double consumedJ(sim::Time now);

  /// Remaining-capacity ratio R_brc in [0, 1] (1 for infinite batteries).
  double remainingRatio(sim::Time now);

  BatteryLevel level(sim::Time now);

  bool isDead(sim::Time now);

  /// Change the draw to `watts` effective at `now`. The interval since the
  /// previous change is charged at the old draw first.
  void setPowerW(double watts, sim::Time now);

  /// Withdraw `joules` instantaneously at `now` (fault injection / test
  /// setup: pre-aged batteries, surge consumers). No-op for infinite
  /// batteries beyond the consumption ledger.
  void drain(double joules, sim::Time now);

  /// Fault injection ONLY: add `joules` back at `now`, capped at capacity.
  /// Real batteries in this model never recharge — the invariant-audit
  /// tests use this to fabricate the monotonicity violation the auditor
  /// must catch. No-op for infinite batteries.
  void injectJ(double joules, sim::Time now);

  [[nodiscard]] double currentPowerW() const { return powerW_; }

  /// Time from `now` until the battery empties at the current draw;
  /// +infinity for infinite batteries or zero draw.
  double timeToEmpty(sim::Time now);

  /// Pure, conservative: a time through which the battery surely keeps
  /// charge, having drawn at most `pastDrawW` from its last committed
  /// integration point to `now` and drawing at most `futureDrawW` from
  /// `now` on (a margin of 1e-9 of capacity absorbs rounding); +infinity
  /// for infinite batteries. Only an outside drain can make it wrong.
  [[nodiscard]] sim::Time chargeLastsUntil(sim::Time now, double pastDrawW,
                                           double futureDrawW) const {
    if (infinite_) return std::numeric_limits<double>::infinity();
    const double left = remainingJ_ - pastDrawW * (now - lastUpdate_) -
                        1e-9 * capacityJ_;
    return left > 0.0 ? now + left / futureDrawW : now;
  }

  /// Moment the host died (battery hit zero), or kTimeNever.
  [[nodiscard]] sim::Time deathTime() const { return deathTime_; }

 private:
  Battery(double capacityJ, bool infinite);

  /// Integrates consumption up to `now`; records death when crossing zero.
  void advanceTo(sim::Time now);

  double capacityJ_;
  double remainingJ_;
  double consumedJ_ = 0.0;
  double powerW_ = 0.0;
  bool infinite_;
  sim::Time lastUpdate_ = sim::kTimeZero;
  sim::Time deathTime_ = sim::kTimeNever;
};

}  // namespace ecgrid::energy
