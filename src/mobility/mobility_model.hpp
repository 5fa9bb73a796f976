// Host mobility.
//
// Models are piecewise-linear: a host moves with constant velocity between
// "motion changes" (waypoint reached, pause over, direction change). The
// simulator exploits this to schedule *exact* grid-boundary-crossing events
// instead of polling positions — see GridTracker.
//
// The paper equips every host with GPS, so protocols may read position and
// velocity directly; that is exactly the interface exposed here.
#pragma once

#include <vector>

#include "geo/grid.hpp"
#include "geo/segment.hpp"
#include "geo/vec2.hpp"
#include "sim/time.hpp"
#include "util/ownership.hpp"

namespace ecgrid::mobility {

class ECGRID_DOMAIN_PER_HOST MobilityModel {
 public:
  virtual ~MobilityModel() = default;

  /// The motion leg containing `t`: start <= t < end, with end =
  /// kTimeNever for a leg that never changes. `t` must be non-decreasing
  /// across calls (models generate their trajectory lazily). A leg, once
  /// returned, describes the trajectory over its whole interval, so
  /// callers may cache it until `end` (phy::Channel does).
  virtual geo::Segment legAt(sim::Time t) = 0;

  /// Position at time `t`: legAt(t).at(t).
  geo::Vec2 positionAt(sim::Time t) { return legAt(t).at(t); }

  /// Velocity during the motion leg containing `t` (zero while paused).
  geo::Vec2 velocityAt(sim::Time t) { return legAt(t).velocity; }

  /// Absolute time of the next velocity change after `t` (kTimeNever for
  /// models that never change).
  sim::Time nextChangeTime(sim::Time t) { return legAt(t).end; }

  /// Estimated dwell: earliest future time at which the host *could* leave
  /// its current grid cell — either by crossing the boundary on its
  /// current leg or because its velocity changes first. This is the
  /// paper's sleep-timer estimate ("depends on the location and velocity
  /// of the host", §3.2). Guaranteed strictly greater than `t`.
  ///
  /// `offset` shifts the position the boundary test runs against without
  /// touching the trajectory — a host with GPS error plans around the cell
  /// it *believes* it occupies (believed position = true position +
  /// offset, same velocity, so the crossing time stays exact).
  sim::Time nextPossibleCellExit(const geo::GridMap& grid, sim::Time t,
                                 const geo::Vec2& offset = {});
};

/// A host that never moves; used by tests and static-deployment examples.
class StaticMobility final : public MobilityModel {
 public:
  explicit StaticMobility(geo::Vec2 position) : position_(position) {}

  geo::Segment legAt(sim::Time) override {
    return {sim::kTimeZero, sim::kTimeNever, position_, {}};
  }

 private:
  geo::Vec2 position_;
};

/// Scripted piecewise-linear motion for deterministic tests: the host
/// follows a fixed list of (startTime, startPos, velocity) legs, each
/// lasting until the next one starts.
class ScriptedMobility final : public MobilityModel {
 public:
  struct Leg {
    sim::Time start = 0.0;
    geo::Vec2 origin;
    geo::Vec2 velocity;
  };

  /// Legs must be sorted by start time; the first must start at 0.
  explicit ScriptedMobility(std::vector<Leg> legs);

  geo::Segment legAt(sim::Time t) override;

 private:
  std::vector<Leg> legs_;
};

}  // namespace ecgrid::mobility
