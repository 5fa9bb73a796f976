// Tests for the node/network layer: per-host stack wiring, death
// handling, paging plumbing, and network-level queries.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>
#include <vector>

#include "mobility/random_waypoint.hpp"
#include "test_net.hpp"

namespace ecgrid::test {
namespace {

TEST(Network, RejectsDuplicateIds) {
  TestNet net;
  net.addStatic(1, {50.0, 50.0});
  EXPECT_THROW(net.addStatic(1, {150.0, 50.0}), std::invalid_argument);
}

TEST(Network, FindNodeAndCounts) {
  TestNet net;
  net.addStatic(3, {50.0, 50.0});
  net.addStatic(7, {150.0, 50.0});
  EXPECT_EQ(net.network.nodeCount(), 2u);
  ASSERT_NE(net.network.findNode(7), nullptr);
  EXPECT_EQ(net.network.findNode(7)->id(), 7);
  EXPECT_EQ(net.network.findNode(99), nullptr);
  EXPECT_EQ(net.network.aliveCount(), 2u);
}

TEST(Node, ExposesGpsView) {
  TestNet net;
  net::Node& node = net.addStatic(1, {250.0, 420.0});
  net.installGrid(node);
  EXPECT_EQ(node.position(), (geo::Vec2{250.0, 420.0}));
  EXPECT_EQ(node.velocity(), (geo::Vec2{}));
  EXPECT_EQ(node.cell(), (geo::GridCoord{2, 4}));
  EXPECT_GE(node.nextPossibleCellExit(), sim::kTimeNever);
}

TEST(Node, StartRequiresProtocol) {
  TestNet net;
  net.addStatic(1, {50.0, 50.0});
  EXPECT_THROW(net.network.start(), std::logic_error);
}

TEST(Node, DeathCallbackFiresOnceWithTime) {
  TestNet net;
  net::Node& node = net.addStatic(1, {50.0, 50.0}, /*batteryJ=*/8.63);
  net.installGrid(node);
  int deaths = 0;
  sim::Time when = -1.0;
  node.setDeathCallback([&](net::NodeId id, sim::Time t) {
    EXPECT_EQ(id, 1);
    when = t;
    ++deaths;
  });
  net.network.start();
  net.simulator.run(60.0);
  EXPECT_EQ(deaths, 1);
  // 8.63 J at ≥0.863 W (idle, plus beacon transmissions) ⇒ ≤ 10 s.
  EXPECT_GT(when, 5.0);
  EXPECT_LE(when, 10.0);
  EXPECT_FALSE(node.alive());
  EXPECT_EQ(net.network.aliveCount(), 0u);
}

TEST(Node, DeadNodesDropAppTraffic) {
  TestNet net;
  net::Node& dying = net.addStatic(1, {50.0, 50.0}, /*batteryJ=*/5.0);
  net::Node& peer = net.addStatic(2, {80.0, 50.0});
  net.installGridEverywhere();
  int delivered = 0;
  peer.setAppReceiveCallback(
      [&](net::NodeId, const net::DataTag&, int) { ++delivered; });
  net.network.start();
  net.simulator.run(30.0);
  ASSERT_FALSE(dying.alive());
  dying.sendFromApp(2, 64, {});
  net.simulator.run(35.0);
  EXPECT_EQ(delivered, 0);
}

TEST(Node, SleepRadioClearsMacQueue) {
  TestNet net;
  net::Node& node = net.addStatic(1, {50.0, 50.0});
  net.installGrid(node);
  net.network.start();
  // Queue a few frames, then sleep before they can all leave.
  for (int i = 0; i < 4; ++i) {
    net::Packet frame;
    frame.macSrc = 1;
    frame.macDst = 42;
    frame.header = std::make_shared<protocols::LeaveHeader>(
        1, geo::GridCoord{0, 0});
    node.link().send(frame);
  }
  node.sleepRadio();
  EXPECT_EQ(node.link().queueDepth(), 0u);
  EXPECT_TRUE(node.radioSleeping());
  node.wakeRadio();
  EXPECT_FALSE(node.radioSleeping());
}

TEST(Node, PagingWakesSleepingRadioBeforeProtocolSeesIt) {
  TestNet net;
  net::Node& pager = net.addStatic(1, {50.0, 50.0});
  net::Node& target = net.addStatic(2, {80.0, 50.0});
  net.installGridEverywhere();  // GRID ignores pages, but the radio wakes
  net.network.start();
  target.sleepRadio();
  ASSERT_TRUE(target.radioSleeping());
  pager.pageHost(2);
  net.simulator.run(1.0);
  EXPECT_FALSE(target.radioSleeping());
}

TEST(Node, GridPageOnlyWakesThatGrid) {
  TestNet net;
  net::Node& pager = net.addStatic(1, {50.0, 50.0});
  net::Node& sameGrid = net.addStatic(2, {80.0, 50.0});
  net::Node& otherGrid = net.addStatic(3, {150.0, 50.0});
  net.installGridEverywhere();
  net.network.start();
  sameGrid.sleepRadio();
  otherGrid.sleepRadio();
  pager.pageGrid({0, 0});
  net.simulator.run(1.0);
  EXPECT_FALSE(sameGrid.radioSleeping());
  EXPECT_TRUE(otherGrid.radioSleeping());
}

TEST(Node, BatteryLevelPassthrough) {
  TestNet net;
  net::Node& node = net.addStatic(1, {50.0, 50.0});
  net.installGrid(node);
  EXPECT_EQ(node.batteryLevel(), energy::BatteryLevel::kUpper);
  node.batteryRef().drain(300.0, 0.0);  // 40 % left
  EXPECT_EQ(node.batteryLevel(), energy::BatteryLevel::kBoundary);
  EXPECT_NEAR(node.batteryRatio(), 0.4, 1e-9);
}

TEST(Node, DeadNodeStopsHearingFrames) {
  TestNet net;
  net::Node& dying = net.addStatic(1, {50.0, 50.0}, /*batteryJ=*/5.0);
  net::Node& talker = net.addStatic(2, {80.0, 50.0});
  net.installGridEverywhere();
  net.network.start();
  net.simulator.run(30.0);
  ASSERT_FALSE(dying.alive());
  std::uint64_t framesBefore = net.network.channel().deliveriesScheduled();
  net::Packet frame;
  frame.macSrc = 2;
  frame.macDst = 1;
  frame.header =
      std::make_shared<protocols::LeaveHeader>(2, geo::GridCoord{0, 0});
  talker.link().send(frame);
  net.simulator.run(35.0);
  // The dead node is detached from the channel: no delivery was even
  // scheduled toward it.
  EXPECT_EQ(net.network.channel().deliveriesScheduled(), framesBefore);
}


// --- believed-cell cache --------------------------------------------------

/// A host under the cell-cache check: its node, a twin of its mobility
/// model built the same way (the test walks the twin's legs, so the node's
/// own model is only ever queried forward in time) and its GPS error
/// epochs as (start time, error), the first at t = 0.
struct CellCacheHost {
  net::Node* node = nullptr;
  std::unique_ptr<mobility::MobilityModel> twin;
  std::vector<std::pair<sim::Time, geo::Vec2>> errors;
};

/// Adds `t` and the three representable times either side of it, when in
/// [from, to).
void addAround(std::vector<sim::Time>& times, sim::Time t, sim::Time from,
               sim::Time to) {
  sim::Time below = t;
  sim::Time above = t;
  for (int step = 0; step < 4; ++step) {
    for (const sim::Time at : {below, above}) {
      if (at >= from && at < to) times.push_back(at);
    }
    below = std::nextafter(below, -1.0);
    above = std::nextafter(above, 2.0 * to + 1.0);
  }
}

/// Query times around every instant in [from, to) at which the believed
/// position leg.at(t) + error meets a cell wall, and around the instants it
/// comes within 1 um of one (where the cache's guard ends).
void addWallCrossings(std::vector<sim::Time>& times, const geo::Segment& leg,
                      const geo::Vec2& error, sim::Time from, sim::Time to,
                      double side) {
  for (const bool xAxis : {true, false}) {
    const double v = xAxis ? leg.velocity.x : leg.velocity.y;
    if (v == 0.0) continue;
    const double p0 = xAxis ? leg.origin.x + error.x : leg.origin.y + error.y;
    const double a = p0 + v * (from - leg.start);
    const double b = p0 + v * (to - leg.start);
    for (double k = std::floor(std::min(a, b) / side) - 1.0;
         k * side <= std::max(a, b) + side; k += 1.0) {
      const sim::Time crossing = leg.start + (k * side - p0) / v;
      for (const double shift : {0.0, -1e-6, 1e-6}) {
        addAround(times, crossing + shift / std::abs(v), from, to);
      }
    }
  }
}

// Node::cell() answers from a cache while the believed position provably
// stays inside its cell. Differentially: at random times, at every wall
// crossing of the believed position and at the ends of the cache's 1 um
// guard (each +- a few ulps), cell() equals a fresh grid.cellOf(position()).
// Hosts follow scripted legs (axis-parallel, diagonal, standing still,
// starting on a wall) and random-waypoint legs, and their GPS error changes
// mid-leg.
TEST(Node, CachedCellMatchesAFreshComputation) {
  constexpr sim::Time kHorizon = 300.0;
  TestNet net;
  const geo::GridMap& grid = net.network.gridMap();
  const double side = grid.cellSide();
  sim::RngStream script(2024);
  std::vector<CellCacheHost> hosts;
  net::NodeConfig config;
  for (int h = 0; h < 20; ++h) {
    std::vector<mobility::ScriptedMobility::Leg> legs;
    sim::Time start = 0.0;
    while (start < kHorizon) {
      mobility::ScriptedMobility::Leg leg;
      leg.start = start;
      // Some legs start exactly on a wall.
      leg.origin = {side * static_cast<double>(script.uniformInt(0, 8)),
                    script.uniform(0.0, 800.0)};
      if (script.chance(0.5)) std::swap(leg.origin.x, leg.origin.y);
      const double speed = std::pow(10.0, script.uniform(-3.0, 1.5));
      const double heading = script.uniform(0.0, 6.283185307179586);
      const double kind = script.uniform(0.0, 1.0);
      if (kind < 0.2) {
        leg.velocity = {};  // standing still
      } else if (kind < 0.4) {
        leg.velocity = {script.chance(0.5) ? speed : -speed, 0.0};
      } else if (kind < 0.6) {
        leg.velocity = {0.0, script.chance(0.5) ? speed : -speed};
      } else {
        leg.velocity = {speed * std::cos(heading), speed * std::sin(heading)};
      }
      legs.push_back(leg);
      start += script.uniform(5.0, 60.0);
    }
    config.id = h;
    CellCacheHost host;
    host.twin = std::make_unique<mobility::ScriptedMobility>(legs);
    host.node = &net.network.addNode(
        std::make_unique<mobility::ScriptedMobility>(legs), config);
    hosts.push_back(std::move(host));
  }
  for (int h = 20; h < 28; ++h) {
    mobility::RandomWaypointConfig walk;
    walk.maxSpeed = 20.0;
    walk.pauseTime = h % 2 == 0 ? 0.0 : 5.0;
    const auto seed = static_cast<std::uint64_t>(100 + h);
    config.id = h;
    CellCacheHost host;
    host.twin =
        std::make_unique<mobility::RandomWaypoint>(walk, sim::RngStream(seed));
    host.node = &net.network.addNode(
        std::make_unique<mobility::RandomWaypoint>(walk, sim::RngStream(seed)),
        config);
    hosts.push_back(std::move(host));
  }

  std::size_t queries = 0;
  std::size_t mismatches = 0;
  for (CellCacheHost& host : hosts) {
    // GPS error epochs: zero at first, then changes at random instants,
    // which land mid-leg.
    host.errors.emplace_back(0.0, geo::Vec2{});
    for (sim::Time at = script.uniform(10.0, 50.0); at < kHorizon;
         at += script.uniform(10.0, 50.0)) {
      host.errors.emplace_back(at, geo::Vec2{script.uniform(-30.0, 30.0),
                                             script.uniform(-30.0, 30.0)});
    }
    std::vector<sim::Time> times;
    for (int i = 0; i < 200; ++i) times.push_back(script.uniform(0.0, kHorizon));
    for (sim::Time t = 0.0; t < kHorizon;) {
      const geo::Segment leg = host.twin->legAt(t);
      const sim::Time end = std::min(leg.end, kHorizon);
      for (std::size_t e = 0; e < host.errors.size(); ++e) {
        const sim::Time from = std::max(leg.start, host.errors[e].first);
        const sim::Time to = e + 1 < host.errors.size()
                                 ? std::min(end, host.errors[e + 1].first)
                                 : end;
        if (from < to) {
          addWallCrossings(times, leg, host.errors[e].second, from, to, side);
        }
      }
      t = leg.end;
    }
    net::Node* node = host.node;
    for (std::size_t e = 1; e < host.errors.size(); ++e) {
      const geo::Vec2 error = host.errors[e].second;
      net.simulator.scheduleAt(host.errors[e].first,
                               [node, error] { node->setGpsError(error); });
    }
    for (const sim::Time t : times) {
      net.simulator.scheduleAt(t, [&, node] {
        const geo::GridCoord cached = node->cell();
        const geo::GridCoord fresh = grid.cellOf(node->position());
        ++queries;
        if (cached != fresh && ++mismatches <= 5) {
          ADD_FAILURE() << "host " << node->id() << " at t="
                        << net.simulator.now() << ": cached (" << cached.x
                        << ", " << cached.y << ") fresh (" << fresh.x << ", "
                        << fresh.y << ")";
        }
      });
    }
  }
  net.simulator.run(kHorizon);
  EXPECT_EQ(mismatches, 0u);
  EXPECT_GT(queries, 10000u);
}

}  // namespace
}  // namespace ecgrid::test
