#include "mobility/mobility_model.hpp"

#include <limits>

#include "util/error.hpp"

namespace ecgrid::mobility {

namespace {
// Nudges boundary-exit timers strictly past the crossing so the follow-up
// position query lands inside the next cell, not on the shared edge.
constexpr double kBoundaryEpsilon = 1e-6;
}  // namespace

sim::Time MobilityModel::nextPossibleCellExit(const geo::GridMap& grid,
                                              sim::Time t,
                                              const geo::Vec2& offset) {
  const geo::Segment leg = legAt(t);
  geo::Vec2 pos = leg.at(t) + offset;
  double exit = grid.timeToExitCell(pos, leg.velocity);
  sim::Time byMotion =
      exit == std::numeric_limits<double>::infinity() ? sim::kTimeNever
                                                      : t + exit;
  sim::Time byChange = leg.end;
  sim::Time next = byMotion < byChange ? byMotion : byChange;
  if (next >= sim::kTimeNever) return sim::kTimeNever;
  if (next <= t) next = t;
  return next + kBoundaryEpsilon;
}

ScriptedMobility::ScriptedMobility(std::vector<Leg> legs)
    : legs_(std::move(legs)) {
  ECGRID_REQUIRE(!legs_.empty(), "scripted mobility needs at least one leg");
  ECGRID_REQUIRE(legs_.front().start == 0.0, "first leg must start at t=0");
  for (std::size_t i = 1; i < legs_.size(); ++i) {
    ECGRID_REQUIRE(legs_[i].start > legs_[i - 1].start,
                   "legs must be strictly ordered by start time");
  }
}

geo::Segment ScriptedMobility::legAt(sim::Time t) {
  // Linear scan is fine: scripted trajectories are short test fixtures.
  std::size_t current = 0;
  while (current + 1 < legs_.size() && legs_[current + 1].start <= t) {
    ++current;
  }
  const Leg& leg = legs_[current];
  const sim::Time end =
      current + 1 < legs_.size() ? legs_[current + 1].start : sim::kTimeNever;
  return {leg.start, end, leg.origin, leg.velocity};
}

}  // namespace ecgrid::mobility
