#include "mobility/random_walk.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "util/error.hpp"

namespace ecgrid::mobility {

RandomWalk::RandomWalk(const RandomWalkConfig& config, sim::RngStream rng)
    : config_(config), rng_(std::move(rng)) {
  ECGRID_REQUIRE(config.speed > 0.0, "walk speed must be positive");
  ECGRID_REQUIRE(config.epoch > 0.0, "walk epoch must be positive");
  geo::Vec2 start{rng_.uniform(0.0, config_.fieldWidth),
                  rng_.uniform(0.0, config_.fieldHeight)};
  current_ = makeLeg(0.0, start);
}

geo::Segment RandomWalk::makeLeg(sim::Time start, const geo::Vec2& from) {
  double heading = rng_.uniform(0.0, 2.0 * std::numbers::pi);
  geo::Vec2 velocity{config_.speed * std::cos(heading),
                     config_.speed * std::sin(heading)};
  // Truncate the epoch at the first field-edge hit; the next leg then
  // starts with a fresh heading drawn from the interior, which acts as a
  // reflection without ever leaving the field.
  double tEdge = config_.epoch;
  auto clip = [&](double p, double v, double hi) {
    if (v > 0.0) tEdge = std::min(tEdge, (hi - p) / v);
    if (v < 0.0) tEdge = std::min(tEdge, (0.0 - p) / v);
  };
  clip(from.x, velocity.x, config_.fieldWidth);
  clip(from.y, velocity.y, config_.fieldHeight);
  if (tEdge < 1e-6) tEdge = 1e-6;

  geo::Segment leg;
  leg.start = start;
  leg.end = start + tEdge;
  leg.origin = from;
  leg.velocity = velocity;
  return leg;
}

void RandomWalk::advanceTo(sim::Time t) {
  ECGRID_REQUIRE(t + 1e-9 >= current_.start,
                 "mobility queried backwards in time");
  while (t >= current_.end) {
    geo::Vec2 endPos = current_.at(current_.end);
    // Numerical safety: clamp strictly inside the field before re-drawing.
    endPos.x = std::clamp(endPos.x, 0.0, config_.fieldWidth);
    endPos.y = std::clamp(endPos.y, 0.0, config_.fieldHeight);
    current_ = makeLeg(current_.end, endPos);
  }
}

geo::Segment RandomWalk::legAt(sim::Time t) {
  advanceTo(t);
  return current_;
}

}  // namespace ecgrid::mobility
