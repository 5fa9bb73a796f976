// One leg of piecewise-linear motion: constant velocity over [start, end).
#pragma once

#include "geo/vec2.hpp"

namespace ecgrid::geo {

struct Segment {
  double start = 0.0;  ///< seconds; the leg covers start <= t < end
  double end = 0.0;
  Vec2 origin;         ///< position at `start`
  Vec2 velocity;       ///< metres/second

  /// Position at `t`, for start <= t < end. Every mobility model's
  /// positionAt is exactly this expression, so a cached copy of the leg
  /// answers bit-identically to the model.
  [[nodiscard]] constexpr Vec2 at(double t) const {
    return origin + velocity * (t - start);
  }
};

}  // namespace ecgrid::geo
