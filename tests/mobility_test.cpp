// Tests for mobility models and the event-exact grid tracker.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "mobility/grid_tracker.hpp"
#include "mobility/mobility_model.hpp"
#include "mobility/random_walk.hpp"
#include "mobility/random_waypoint.hpp"
#include "sim/simulator.hpp"

namespace ecgrid::mobility {
namespace {

TEST(StaticMobility, NeverMoves) {
  StaticMobility model({10.0, 20.0});
  EXPECT_EQ(model.positionAt(0.0), (geo::Vec2{10.0, 20.0}));
  EXPECT_EQ(model.positionAt(1e6), (geo::Vec2{10.0, 20.0}));
  EXPECT_EQ(model.velocityAt(5.0), (geo::Vec2{}));
  EXPECT_GE(model.nextChangeTime(0.0), sim::kTimeNever);
}

TEST(ScriptedMobility, FollowsLegs) {
  ScriptedMobility model({
      {0.0, {0.0, 0.0}, {1.0, 0.0}},   // east at 1 m/s
      {10.0, {10.0, 0.0}, {0.0, 2.0}},  // then north at 2 m/s
  });
  EXPECT_EQ(model.positionAt(5.0), (geo::Vec2{5.0, 0.0}));
  EXPECT_EQ(model.positionAt(10.0), (geo::Vec2{10.0, 0.0}));
  EXPECT_EQ(model.positionAt(12.0), (geo::Vec2{10.0, 4.0}));
  EXPECT_EQ(model.velocityAt(3.0), (geo::Vec2{1.0, 0.0}));
  EXPECT_EQ(model.velocityAt(11.0), (geo::Vec2{0.0, 2.0}));
  EXPECT_DOUBLE_EQ(model.nextChangeTime(3.0), 10.0);
}

TEST(ScriptedMobility, ValidatesLegOrdering) {
  using Legs = std::vector<ScriptedMobility::Leg>;
  EXPECT_THROW(ScriptedMobility(Legs{}), std::invalid_argument);
  EXPECT_THROW(ScriptedMobility(Legs{{1.0, {}, {}}}), std::invalid_argument);
  EXPECT_THROW(ScriptedMobility(Legs{{0.0, {}, {}}, {0.0, {}, {}}}),
               std::invalid_argument);
}

TEST(MobilityModel, NextPossibleCellExitUsesMotion) {
  geo::GridMap grid(100.0);
  ScriptedMobility model({{0.0, {50.0, 50.0}, {10.0, 0.0}}});
  // Exit at x=100 → t=5, plus the epsilon nudge.
  sim::Time exit = model.nextPossibleCellExit(grid, 0.0);
  EXPECT_NEAR(exit, 5.0, 1e-4);
  EXPECT_GT(exit, 5.0);
}

TEST(MobilityModel, NextPossibleCellExitUsesLegChange) {
  geo::GridMap grid(100.0);
  // Paused until t=3, then moves; the dwell check must fire at the leg
  // change (velocity could change direction there).
  ScriptedMobility model({
      {0.0, {50.0, 50.0}, {0.0, 0.0}},
      {3.0, {50.0, 50.0}, {100.0, 0.0}},
  });
  EXPECT_NEAR(model.nextPossibleCellExit(grid, 0.0), 3.0, 1e-4);
}

TEST(MobilityModel, StaticHostNeverExits) {
  geo::GridMap grid(100.0);
  StaticMobility model({50.0, 50.0});
  EXPECT_GE(model.nextPossibleCellExit(grid, 0.0), sim::kTimeNever);
}

class WaypointSweep : public ::testing::TestWithParam<
                          std::tuple<double, double, std::uint64_t>> {};

TEST_P(WaypointSweep, StaysInFieldAndRespectsSpeed) {
  auto [maxSpeed, pause, seed] = GetParam();
  RandomWaypointConfig config;
  config.maxSpeed = maxSpeed;
  config.pauseTime = pause;
  sim::RngFactory factory(seed);
  RandomWaypoint model(config, factory.stream("m"));
  geo::Vec2 prev = model.positionAt(0.0);
  double t = 0.0;
  for (int i = 0; i < 500; ++i) {
    t += 2.0;
    geo::Vec2 pos = model.positionAt(t);
    EXPECT_GE(pos.x, -1e-9);
    EXPECT_LE(pos.x, 1000.0 + 1e-9);
    EXPECT_GE(pos.y, -1e-9);
    EXPECT_LE(pos.y, 1000.0 + 1e-9);
    // Displacement over 2 s can never exceed 2·maxSpeed.
    EXPECT_LE(prev.distanceTo(pos), 2.0 * maxSpeed + 1e-9);
    double speed = model.velocityAt(t).length();
    EXPECT_LE(speed, maxSpeed + 1e-9);
    prev = pos;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, WaypointSweep,
    ::testing::Combine(::testing::Values(1.0, 10.0),
                       ::testing::Values(0.0, 30.0),
                       ::testing::Values(1u, 77u, 424242u)));

TEST(RandomWaypoint, PausesAtWaypoints) {
  RandomWaypointConfig config;
  config.maxSpeed = 10.0;
  config.minSpeed = 9.0;  // fast, so waypoints are reached quickly
  config.pauseTime = 50.0;
  sim::RngFactory factory(5);
  RandomWaypoint model(config, factory.stream("m"));
  // Initial leg is a pause (matches ns-2 setdest traces).
  EXPECT_EQ(model.velocityAt(0.0), (geo::Vec2{}));
  EXPECT_DOUBLE_EQ(model.nextChangeTime(0.0), 50.0);
  // Sample a long run: paused fraction should be substantial.
  int paused = 0;
  const int samples = 2000;
  for (int i = 0; i < samples; ++i) {
    if (model.velocityAt(i * 1.0).lengthSquared() == 0.0) ++paused;
  }
  EXPECT_GT(paused, samples / 10);
}

TEST(RandomWaypoint, ZeroPauseNeverStops) {
  RandomWaypointConfig config;
  config.pauseTime = 0.0;
  sim::RngFactory factory(6);
  RandomWaypoint model(config, factory.stream("m"));
  for (int i = 1; i < 300; ++i) {
    EXPECT_GT(model.velocityAt(i * 3.0).lengthSquared(), 0.0);
  }
}

TEST(RandomWaypoint, RejectsBadConfig) {
  sim::RngFactory factory(1);
  RandomWaypointConfig config;
  config.maxSpeed = 0.0;
  EXPECT_THROW(RandomWaypoint(config, factory.stream("x")),
               std::invalid_argument);
}

TEST(RandomWalk, StaysInField) {
  RandomWalkConfig config;
  config.speed = 5.0;
  sim::RngFactory factory(8);
  RandomWalk model(config, factory.stream("w"));
  for (int i = 0; i < 1000; ++i) {
    geo::Vec2 pos = model.positionAt(i * 1.7);
    EXPECT_GE(pos.x, -1e-6);
    EXPECT_LE(pos.x, 1000.0 + 1e-6);
    EXPECT_GE(pos.y, -1e-6);
    EXPECT_LE(pos.y, 1000.0 + 1e-6);
    EXPECT_NEAR(model.velocityAt(i * 1.7).length(), 5.0, 1e-9);
  }
}

// legAt is the only virtual: positionAt, velocityAt and nextChangeTime
// read the leg containing t. Sweep time monotonically, landing exactly on
// every other leg end, and check each query against the leg it came from,
// bit for bit (a cached leg must answer exactly as the model does).
int expectLegsCoverSweep(MobilityModel& model, sim::Time horizon) {
  int endsLanded = 0;
  sim::Time t = 0.0;
  for (int step = 0; t < horizon; ++step) {
    const geo::Segment leg = model.legAt(t);
    EXPECT_LE(leg.start, t);
    EXPECT_LT(t, leg.end);
    const geo::Vec2 position = model.positionAt(t);
    const geo::Vec2 expected = leg.at(t);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(position.x),
              std::bit_cast<std::uint64_t>(expected.x))
        << "t = " << t;
    EXPECT_EQ(std::bit_cast<std::uint64_t>(position.y),
              std::bit_cast<std::uint64_t>(expected.y))
        << "t = " << t;
    EXPECT_EQ(model.velocityAt(t), leg.velocity);
    EXPECT_EQ(model.nextChangeTime(t), leg.end);
    if (step % 2 == 1 && leg.end < horizon) {
      t = leg.end;
      ++endsLanded;
    } else {
      t += std::min(leg.end - t, 7.0) * 0.5;
    }
  }
  return endsLanded;
}

TEST(MobilityModel, LegAtAgreesWithEveryQueryAcrossLegEnds) {
  StaticMobility still({3.0, 4.0});
  EXPECT_EQ(expectLegsCoverSweep(still, 200.0), 0);
  EXPECT_EQ(still.legAt(5.0).end, sim::kTimeNever);

  ScriptedMobility scripted({
      {0.0, {0.0, 0.0}, {1.0, 0.0}},
      {10.0, {10.0, 0.0}, {0.0, 2.0}},
      {12.5, {50.0, 50.0}, {}},  // a jump, then a pause
      {20.0, {50.0, 50.0}, {-0.3, 0.7}},
  });
  EXPECT_EQ(expectLegsCoverSweep(scripted, 200.0), 3);

  RandomWaypointConfig waypointConfig;
  waypointConfig.maxSpeed = 10.0;
  waypointConfig.pauseTime = 5.0;
  RandomWaypoint waypoint(waypointConfig, sim::RngStream(8));
  EXPECT_GT(expectLegsCoverSweep(waypoint, 2000.0), 10);

  RandomWalkConfig walkConfig;
  walkConfig.speed = 5.0;
  walkConfig.epoch = 3.0;
  RandomWalk walk(walkConfig, sim::RngStream(9));
  EXPECT_GT(expectLegsCoverSweep(walk, 2000.0), 10);
}

TEST(GridTracker, FiresExactlyOnCrossing) {
  sim::Simulator simulator;
  geo::GridMap grid(100.0);
  // East at 10 m/s from x=50: crossings at t=5, 15, 25, ...
  ScriptedMobility model({{0.0, {50.0, 50.0}, {10.0, 0.0}}});
  std::vector<std::pair<geo::GridCoord, geo::GridCoord>> crossings;
  std::vector<sim::Time> when;
  GridTracker tracker(simulator, grid, model,
                      [&](const geo::GridCoord& from, const geo::GridCoord& to) {
                        crossings.emplace_back(from, to);
                        when.push_back(simulator.now());
                      });
  simulator.run(26.0);
  ASSERT_EQ(crossings.size(), 3u);
  EXPECT_EQ(crossings[0].first, (geo::GridCoord{0, 0}));
  EXPECT_EQ(crossings[0].second, (geo::GridCoord{1, 0}));
  EXPECT_EQ(crossings[2].second, (geo::GridCoord{3, 0}));
  EXPECT_NEAR(when[0], 5.0, 1e-3);
  EXPECT_NEAR(when[1], 15.0, 1e-3);
  EXPECT_NEAR(when[2], 25.0, 1e-3);
}

TEST(GridTracker, StopCancelsCallbacks) {
  sim::Simulator simulator;
  geo::GridMap grid(100.0);
  ScriptedMobility model({{0.0, {50.0, 50.0}, {10.0, 0.0}}});
  int crossings = 0;
  GridTracker tracker(simulator, grid, model,
                      [&](const geo::GridCoord&, const geo::GridCoord&) {
                        ++crossings;
                        if (crossings == 1) tracker.stop();
                      });
  simulator.run(100.0);
  EXPECT_EQ(crossings, 1);
}

TEST(GridTracker, PositionOffsetShiftsCrossingsToTheBelievedBoundary) {
  sim::Simulator simulator;
  geo::GridMap grid(100.0);
  // East at 10 m/s from x=10: TRUE crossings at t=9, 19. With a +50 m
  // offset the tracked (believed) x is 60 + 10t, so the crossings fire
  // at t=4, 14 — between the true ones, not at them.
  ScriptedMobility model({{0.0, {10.0, 50.0}, {10.0, 0.0}}});
  geo::Vec2 offset{50.0, 0.0};
  std::vector<sim::Time> when;
  GridTracker tracker(
      simulator, grid, model,
      [&](const geo::GridCoord&, const geo::GridCoord&) {
        when.push_back(simulator.now());
      },
      [&] { return offset; });
  EXPECT_EQ(tracker.currentCell(), (geo::GridCoord{0, 0}));
  simulator.run(15.0);
  ASSERT_EQ(when.size(), 2u);
  EXPECT_NEAR(when[0], 4.0, 1e-3);
  EXPECT_NEAR(when[1], 14.0, 1e-3);
  EXPECT_EQ(tracker.currentCell(), (geo::GridCoord{2, 0}));
}

TEST(GridTracker, RefreshReTestsTheCellAndReArmsOnOffsetChange) {
  sim::Simulator simulator;
  geo::GridMap grid(100.0);
  ScriptedMobility model({{0.0, {10.0, 50.0}, {10.0, 0.0}}});
  geo::Vec2 offset{0.0, 0.0};
  std::vector<sim::Time> when;
  GridTracker tracker(
      simulator, grid, model,
      [&](const geo::GridCoord&, const geo::GridCoord&) {
        when.push_back(simulator.now());
      },
      [&] { return offset; });
  simulator.run(2.0);  // believed x = 30: still the first cell
  EXPECT_TRUE(when.empty());

  offset = {75.0, 0.0};  // believed x jumps to 105: next cell, right now
  tracker.refresh();
  ASSERT_EQ(when.size(), 1u);
  EXPECT_DOUBLE_EQ(when[0], 2.0);

  // And the timer was re-aimed at the SHIFTED boundary: believed
  // x = 85 + 10t crosses 200 m at t = 11.5, not at the t = 19 a
  // zero-offset arming would predict.
  simulator.run(13.0);
  ASSERT_EQ(when.size(), 2u);
  EXPECT_NEAR(when[1], 11.5, 1e-3);
}

TEST(GridTracker, TracksWaypointModelWithoutMisses) {
  // Against a random waypoint trace, every callback must be a real cell
  // change and consecutive callbacks must chain (to == next from).
  sim::Simulator simulator(31);
  geo::GridMap grid(100.0);
  RandomWaypointConfig config;
  config.maxSpeed = 10.0;
  RandomWaypoint model(config, simulator.rng().stream("m"));
  geo::GridCoord last = grid.cellOf(model.positionAt(0.0));
  int count = 0;
  GridTracker tracker(simulator, grid, model,
                      [&](const geo::GridCoord& from, const geo::GridCoord& to) {
                        EXPECT_EQ(from, last);
                        EXPECT_NE(from, to);
                        last = to;
                        ++count;
                      });
  simulator.run(600.0);
  EXPECT_GT(count, 5);
  EXPECT_EQ(last, grid.cellOf(model.positionAt(simulator.now())));
}

}  // namespace
}  // namespace ecgrid::mobility
