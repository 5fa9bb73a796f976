// Random-walk (random-direction) mobility.
//
// Not used by the paper's headline figures, but provided (a) as an extra
// stressor for tests — it produces many more grid crossings per second
// than random waypoint at the same speed — and (b) for the mobility
// ablation benches. The host picks a uniformly random heading and walks at
// constant speed for a fixed epoch, reflecting off the field edges.
#pragma once

#include "mobility/mobility_model.hpp"
#include "sim/rng.hpp"
#include "util/hot_path.hpp"
#include "util/ownership.hpp"

namespace ecgrid::mobility {

struct RandomWalkConfig {
  double fieldWidth = 1000.0;
  double fieldHeight = 1000.0;
  double speed = 1.0;        ///< m/s, constant
  double epoch = 20.0;       ///< seconds per heading
};

class ECGRID_DOMAIN_PER_HOST RandomWalk final : public MobilityModel {
 public:
  RandomWalk(const RandomWalkConfig& config, sim::RngStream rng);

  geo::Segment legAt(sim::Time t) override;

 private:
  void advanceTo(sim::Time t);
  geo::Segment makeLeg(sim::Time start, const geo::Vec2& from);

  RandomWalkConfig config_;
  sim::RngStream rng_;
  geo::Segment current_;
};

ECGRID_LAYOUT_BUDGET(RandomWalk, 96);

}  // namespace ecgrid::mobility
