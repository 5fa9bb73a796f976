// Random-waypoint mobility (paper §4).
//
// A host repeatedly: picks a uniformly random destination inside the field
// and a uniformly random speed in (0, vMax], moves there in a straight
// line, then pauses for `pauseTime` before picking the next waypoint.
// The paper evaluates vMax ∈ {1, 10} m/s and pause times 0–600 s.
//
// Note on the speed distribution: the paper says "uniformly distributed
// between 0 and vMax". Sampling arbitrarily-close-to-zero speeds makes
// legs arbitrarily long (the classic random-waypoint speed-decay
// pathology), so we floor the draw at a small minSpeed (default 0.01 m/s)
// — indistinguishable in the metrics but numerically safe.
#pragma once

#include <memory>

#include "mobility/mobility_model.hpp"
#include "sim/rng.hpp"
#include "util/hot_path.hpp"
#include "util/ownership.hpp"

namespace ecgrid::mobility {

struct RandomWaypointConfig {
  double fieldWidth = 1000.0;   ///< metres
  double fieldHeight = 1000.0;  ///< metres
  double maxSpeed = 1.0;        ///< m/s, exclusive upper bound of the draw
  double minSpeed = 0.01;       ///< m/s floor (see header comment)
  double pauseTime = 0.0;       ///< seconds at each waypoint
};

class ECGRID_DOMAIN_PER_HOST RandomWaypoint final : public MobilityModel {
 public:
  /// Starts at a uniformly random position, beginning with a pause leg of
  /// `config.pauseTime` (matching ns-2 setdest traces).
  RandomWaypoint(const RandomWaypointConfig& config, sim::RngStream rng);

  geo::Segment legAt(sim::Time t) override;

 private:
  /// Extends the trajectory until the current leg covers `t`.
  void advanceTo(sim::Time t);
  geo::Segment makeTravelLeg(sim::Time start, const geo::Vec2& from);
  static geo::Segment makePauseLeg(sim::Time start, sim::Time duration,
                                   const geo::Vec2& at);

  RandomWaypointConfig config_;
  sim::RngStream rng_;
  geo::Segment current_;
};

ECGRID_LAYOUT_BUDGET(RandomWaypoint, 104);

}  // namespace ecgrid::mobility
