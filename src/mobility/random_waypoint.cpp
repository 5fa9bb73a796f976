#include "mobility/random_waypoint.hpp"

#include "util/error.hpp"

namespace ecgrid::mobility {

RandomWaypoint::RandomWaypoint(const RandomWaypointConfig& config,
                               sim::RngStream rng)
    : config_(config), rng_(std::move(rng)) {
  ECGRID_REQUIRE(config.fieldWidth > 0.0 && config.fieldHeight > 0.0,
                 "field must have positive area");
  ECGRID_REQUIRE(config.maxSpeed > config.minSpeed && config.minSpeed > 0.0,
                 "need 0 < minSpeed < maxSpeed");
  ECGRID_REQUIRE(config.pauseTime >= 0.0, "pause time cannot be negative");
  geo::Vec2 start{rng_.uniform(0.0, config_.fieldWidth),
                  rng_.uniform(0.0, config_.fieldHeight)};
  if (config_.pauseTime > 0.0) {
    current_ = makePauseLeg(0.0, config_.pauseTime, start);
  } else {
    current_ = makeTravelLeg(0.0, start);
  }
}

geo::Segment RandomWaypoint::makePauseLeg(sim::Time start,
                                          sim::Time duration,
                                          const geo::Vec2& at) {
  geo::Segment leg;
  leg.start = start;
  leg.end = start + duration;
  leg.origin = at;
  leg.velocity = {};
  return leg;
}

geo::Segment RandomWaypoint::makeTravelLeg(sim::Time start,
                                           const geo::Vec2& from) {
  geo::Vec2 waypoint{rng_.uniform(0.0, config_.fieldWidth),
                     rng_.uniform(0.0, config_.fieldHeight)};
  double speed = rng_.uniform(config_.minSpeed, config_.maxSpeed);
  double distance = from.distanceTo(waypoint);
  geo::Segment leg;
  leg.start = start;
  leg.origin = from;
  if (distance < 1e-9) {
    // Degenerate waypoint on top of us: treat as an instantaneous arrival
    // by pausing one speed-unit; the next advance picks a fresh waypoint.
    leg.end = start + 1e-3;
    leg.velocity = {};
  } else {
    leg.end = start + distance / speed;
    leg.velocity = (waypoint - from) * (speed / distance);
  }
  return leg;
}

void RandomWaypoint::advanceTo(sim::Time t) {
  ECGRID_REQUIRE(t + 1e-9 >= current_.start,
                 "mobility queried backwards in time");
  while (t >= current_.end) {
    geo::Vec2 endPos = current_.at(current_.end);
    bool wasTravel = current_.velocity.lengthSquared() > 0.0;
    if (wasTravel && config_.pauseTime > 0.0) {
      current_ = makePauseLeg(current_.end, config_.pauseTime, endPos);
    } else {
      current_ = makeTravelLeg(current_.end, endPos);
    }
  }
}

geo::Segment RandomWaypoint::legAt(sim::Time t) {
  advanceTo(t);
  return current_;
}

}  // namespace ecgrid::mobility
