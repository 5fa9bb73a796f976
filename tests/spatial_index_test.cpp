// Tests for the channel's spatial fan-out index: bucket bookkeeping,
// attachment-slot reuse, and — the property that licenses the whole
// optimisation — differential equivalence with the brute-force scan,
// from single broadcasts on randomized static topologies up to full
// mobile scenarios with an interference ring, with and without the
// delivery-fault slot armed.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "energy/battery.hpp"
#include "harness/scenario.hpp"
#include "obs/metrics.hpp"
#include "phy/channel.hpp"
#include "phy/radio.hpp"
#include "phy/spatial_index.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace ecgrid::phy {
namespace {

TEST(SpatialIndex, CollectNearReturnsOnlyThreeByThreeBlock) {
  SpatialIndex index(100.0);
  index.insert(0, geo::Vec2{150.0, 150.0});   // cell (1,1): the centre
  index.insert(1, geo::Vec2{250.0, 250.0});   // cell (2,2): neighbour
  index.insert(2, geo::Vec2{10.0, 150.0});    // cell (0,1): neighbour
  index.insert(3, geo::Vec2{350.0, 150.0});   // cell (3,1): too far
  index.insert(4, geo::Vec2{150.0, 450.0});   // cell (1,4): too far
  std::vector<std::size_t> near;
  index.collectNear(geo::Vec2{150.0, 150.0}, near);
  std::sort(near.begin(), near.end());
  EXPECT_EQ(near, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(index.size(), 5u);
}

TEST(SpatialIndex, UpdateRebuckets) {
  SpatialIndex index(100.0);
  index.insert(7, geo::Vec2{50.0, 50.0});
  std::vector<std::size_t> near;
  index.collectNear(geo::Vec2{550.0, 550.0}, near);
  EXPECT_TRUE(near.empty());
  index.update(7, geo::Vec2{560.0, 560.0});
  index.collectNear(geo::Vec2{550.0, 550.0}, near);
  EXPECT_EQ(near, (std::vector<std::size_t>{7}));
  near.clear();
  index.collectNear(geo::Vec2{50.0, 50.0}, near);
  EXPECT_TRUE(near.empty());
}

TEST(SpatialIndex, RemoveForgetsEntry) {
  SpatialIndex index(100.0);
  index.insert(1, geo::Vec2{10.0, 10.0});
  index.insert(2, geo::Vec2{20.0, 20.0});
  index.remove(1);
  EXPECT_EQ(index.size(), 1u);
  std::vector<std::size_t> near;
  index.collectNear(geo::Vec2{10.0, 10.0}, near);
  EXPECT_EQ(near, (std::vector<std::size_t>{2}));
}

TEST(SpatialIndex, DuplicateInsertAndMissingRemoveThrow) {
  SpatialIndex index(100.0);
  index.insert(1, geo::Vec2{0.0, 0.0});
  EXPECT_THROW(index.insert(1, geo::Vec2{5.0, 5.0}), std::logic_error);
  EXPECT_THROW(index.remove(9), std::logic_error);
  EXPECT_THROW(index.update(9, geo::Vec2{}), std::logic_error);
}

// --- Channel slot reuse ----------------------------------------------------

class StubHeader final : public net::Header {
 public:
  int bytes() const override { return 66; }
  const char* name() const override { return "STUB"; }
};

net::Packet broadcastFrame(net::NodeId src) {
  net::Packet frame;
  frame.macSrc = src;
  frame.macDst = net::kBroadcastId;
  frame.header = std::make_shared<StubHeader>();
  return frame;
}

TEST(Channel, DetachedSlotsAreReused) {
  sim::Simulator simulator;
  Channel channel(simulator, ChannelConfig{});
  energy::Battery battery(500.0);
  Radio a(simulator, battery, energy::PowerProfile{}, 0);
  Radio b(simulator, battery, energy::PowerProfile{}, 1);
  Radio c(simulator, battery, energy::PowerProfile{}, 2);
  std::size_t idA = channel.attach(&a, [] { return geo::Vec2{0.0, 0.0}; });
  std::size_t idB = channel.attach(&b, [] { return geo::Vec2{10.0, 0.0}; });
  EXPECT_EQ(channel.liveAttachmentCount(), 2u);
  EXPECT_EQ(a.channelAttachmentId(), idA);
  channel.detach(idA);
  EXPECT_EQ(channel.liveAttachmentCount(), 1u);
  EXPECT_EQ(a.channelAttachmentId(), Radio::kNoAttachment);
  std::size_t idC = channel.attach(&c, [] { return geo::Vec2{20.0, 0.0}; });
  EXPECT_EQ(idC, idA);  // the tombstone slot was recycled
  EXPECT_EQ(c.channelAttachmentId(), idC);
  EXPECT_EQ(channel.liveAttachmentCount(), 2u);
  EXPECT_THROW(channel.detach(idA + 100), std::invalid_argument);
  channel.detach(idB);
  EXPECT_THROW(channel.detach(idB), std::invalid_argument);  // double detach
}

// --- Differential: indexed fan-out == brute-force fan-out ------------------

// One channel's worth of state for the differential rigs below.
struct FanoutWorld {
  explicit FanoutWorld(int radioCount, bool useIndex,
                       double interferenceRange, std::uint64_t seed)
      : simulator(seed) {
    ChannelConfig config;
    config.useSpatialIndex = useIndex;
    config.interferenceRangeMeters = interferenceRange;
    channel.emplace(simulator, config);
    sim::RngStream rng(seed);
    for (int i = 0; i < radioCount; ++i) {
      positions.push_back(
          geo::Vec2{rng.uniform(0.0, 1200.0), rng.uniform(0.0, 1200.0)});
    }
    for (int i = 0; i < radioCount; ++i) {
      batteries.push_back(std::make_unique<energy::Battery>(500.0));
      radios.push_back(std::make_unique<Radio>(
          simulator, *batteries.back(), energy::PowerProfile{}, i));
      radios.back()->attachChannel(&*channel);
      geo::Vec2 p = positions[static_cast<std::size_t>(i)];
      channel->attach(radios.back().get(), [p] { return p; });
      int id = i;
      radios.back()->setFrameCallback([this, id](const net::Packet&) {
        deliveries.emplace_back(id, simulator.now());
      });
    }
  }

  /// Broadcast from radio `src` and drain the simulator; each frame is
  /// isolated in time so receptions never collide.
  void broadcastAndSettle(int src) {
    radios[static_cast<std::size_t>(src)]->transmit(broadcastFrame(src), 1e-4);
    simulator.run(simulator.now() + 1.0);
  }

  sim::Simulator simulator;
  std::optional<Channel> channel;
  std::vector<geo::Vec2> positions;
  std::vector<std::unique_ptr<energy::Battery>> batteries;
  std::vector<std::unique_ptr<Radio>> radios;
  std::vector<std::pair<int, double>> deliveries;  ///< (receiver, rx-end time)
};

class FanoutDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FanoutDifferential, IndexedMatchesBruteForce) {
  const std::uint64_t seed = GetParam();
  const int radioCount = 60;
  // Interference ring wider than decode range so both delivery kinds and
  // the index's max(range, interference) cell sizing are exercised.
  const double interference = 450.0;
  FanoutWorld indexed(radioCount, true, interference, seed);
  FanoutWorld brute(radioCount, false, interference, seed);
  for (int src = 0; src < radioCount; ++src) {
    indexed.broadcastAndSettle(src);
    brute.broadcastAndSettle(src);
    ASSERT_EQ(indexed.deliveries, brute.deliveries) << "after tx from " << src;
    ASSERT_EQ(indexed.channel->deliveriesScheduled(),
              brute.channel->deliveriesScheduled());
    ASSERT_EQ(indexed.simulator.eventsExecuted(),
              brute.simulator.eventsExecuted());
  }
  EXPECT_GT(indexed.deliveries.size(), 0u);
}

// With the fault slot armed, the slot is the one place where visiting order
// shows: a stateful fault stream must be drawn in ascending attachment
// order in both modes, sleepers included, or every later draw shifts.
TEST_P(FanoutDifferential, FaultArmedIndexedMatchesBruteForce) {
  const std::uint64_t seed = GetParam();
  const int radioCount = 60;
  FanoutWorld indexed(radioCount, true, 450.0, seed);
  FanoutWorld brute(radioCount, false, 450.0, seed);
  std::vector<std::pair<net::NodeId, net::NodeId>> indexedCalls;
  std::vector<std::pair<net::NodeId, net::NodeId>> bruteCalls;
  auto arm = [seed](FanoutWorld& world, auto& calls) {
    world.channel->setDeliveryFault(
        [rng = sim::RngStream(seed * 7 + 1), &calls](
            net::NodeId sender, net::NodeId receiver) mutable {
          calls.emplace_back(sender, receiver);
          return rng.chance(0.3);
        });
    for (int i = 0; i < radioCount; i += 4) {
      world.radios[static_cast<std::size_t>(i)]->sleep();
    }
  };
  arm(indexed, indexedCalls);
  arm(brute, bruteCalls);
  for (int src = 1; src < radioCount; ++src) {
    if (src % 4 == 0) continue;  // asleep: cannot transmit
    indexed.broadcastAndSettle(src);
    brute.broadcastAndSettle(src);
    ASSERT_EQ(indexedCalls, bruteCalls) << "after tx from " << src;
    ASSERT_EQ(indexed.deliveries, brute.deliveries) << "after tx from " << src;
  }
  EXPECT_EQ(indexed.channel->framesTransmitted(),
            brute.channel->framesTransmitted());
  EXPECT_EQ(indexed.channel->deliveriesScheduled(),
            brute.channel->deliveriesScheduled());
  EXPECT_EQ(indexed.channel->deliveriesCorrupted(),
            brute.channel->deliveriesCorrupted());
  EXPECT_EQ(indexed.channel->deferredArrivals(),
            brute.channel->deferredArrivals());
  EXPECT_EQ(indexed.simulator.eventsExecuted(),
            brute.simulator.eventsExecuted());
  EXPECT_EQ(indexed.simulator.reservedSequences(),
            brute.simulator.reservedSequences());
  EXPECT_GT(indexed.channel->deliveriesCorrupted(), 0u);
  EXPECT_GT(indexed.deliveries.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FanoutDifferential,
                         ::testing::Values(3u, 17u, 2026u));

}  // namespace
}  // namespace ecgrid::phy

// --- Whole-scenario differential ------------------------------------------

namespace ecgrid::harness {
namespace {

// With mobility and an interference ring on, a full run exercises the
// GridTracker-driven re-bucketing, death-time detaches, and slot reuse.
// The spatial index claims a *bit-identical physical trajectory*: every
// frame, delivery, battery sample, and death matches exactly — no
// tolerances. (Indexed mode does execute extra events — the re-bucketing
// timers — and audits are off here because audit sweeps key off the event
// count and their battery reads chunk the energy integration at different
// instants, perturbing samples at the last ulp.)
TEST(ScenarioDifferential, SpatialIndexIsBitIdenticalToBruteForce) {
  ScenarioConfig config;
  config.protocol = ProtocolKind::kEcgrid;
  config.hostCount = 30;
  config.fieldSize = 700.0;
  config.duration = 150.0;
  config.maxSpeed = 10.0;  // fast: many index-bucket crossings
  config.interferenceRangeFactor = 2.0;
  config.flowCount = 4;
  config.seed = 5;

  config.channelSpatialIndex = true;
  ScenarioResult indexed = runScenario(config);
  config.channelSpatialIndex = false;
  ScenarioResult brute = runScenario(config);

  // Re-bucketing timers only add events; they must not remove any.
  EXPECT_GT(indexed.eventsExecuted, brute.eventsExecuted);
  EXPECT_EQ(indexed.packetsSent, brute.packetsSent);
  EXPECT_EQ(indexed.packetsReceived, brute.packetsReceived);
  EXPECT_EQ(indexed.metrics, brute.metrics);
  EXPECT_EQ(indexed.deathTimes, brute.deathTimes);
  EXPECT_EQ(indexed.latencies, brute.latencies);
  ASSERT_EQ(indexed.aen.points().size(), brute.aen.points().size());
  EXPECT_EQ(indexed.aen.points(), brute.aen.points());
  EXPECT_EQ(indexed.aliveFraction.points(), brute.aliveFraction.points());
  EXPECT_EQ(indexed.awakeFraction.points(), brute.awakeFraction.points());
}

// The same claim with the fault slot armed: a Gilbert–Elliott channel keeps
// per-receiver Markov state drawn from one stream, so it holds only if the
// indexed scan consults the slot in the brute-force scan's order.
TEST(ScenarioDifferential, FaultArmedSpatialIndexIsBitIdenticalToBruteForce) {
  ScenarioConfig config;
  config.protocol = ProtocolKind::kEcgrid;
  config.hostCount = 30;
  config.fieldSize = 700.0;
  config.duration = 150.0;
  config.maxSpeed = 10.0;
  config.interferenceRangeFactor = 2.0;
  config.flowCount = 4;
  config.seed = 6;
  config.fault.channel.kind = fault::ChannelErrorKind::kGilbertElliott;
  config.fault.channel.pGoodToBad = 0.05;
  config.fault.channel.pBadToGood = 0.3;

  config.channelSpatialIndex = true;
  ScenarioResult indexed = runScenario(config);
  config.channelSpatialIndex = false;
  ScenarioResult brute = runScenario(config);

  EXPECT_GT(obs::metricOr(indexed.metrics, "phy.deliveries_corrupted"), 0.0);
  EXPECT_EQ(indexed.packetsSent, brute.packetsSent);
  EXPECT_EQ(indexed.packetsReceived, brute.packetsReceived);
  EXPECT_EQ(indexed.metrics, brute.metrics);
  EXPECT_EQ(indexed.deathTimes, brute.deathTimes);
  EXPECT_EQ(indexed.latencies, brute.latencies);
  EXPECT_EQ(indexed.aen.points(), brute.aen.points());
  EXPECT_EQ(indexed.aliveFraction.points(), brute.aliveFraction.points());
  EXPECT_EQ(indexed.awakeFraction.points(), brute.awakeFraction.points());
}

}  // namespace
}  // namespace ecgrid::harness
