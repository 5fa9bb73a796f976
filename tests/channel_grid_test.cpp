// Tests for the channel's fan-out grid: movers, bucket walls, expiry at
// a transmission's own instant, detach and slot reuse, providers that
// return ended legs, and — the property that licenses the whole
// optimisation — differential equivalence with the brute-force scan, from
// single broadcasts on randomized topologies at many instants up to full
// mobile scenarios with an interference ring, with and without the
// delivery-fault slot armed.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "energy/battery.hpp"
#include "fault/error_model.hpp"
#include "harness/scenario.hpp"
#include "mobility/mobility_model.hpp"
#include "obs/metrics.hpp"
#include "phy/channel.hpp"
#include "phy/radio.hpp"
#include "sim/rng.hpp"
#include "sim/simulator.hpp"

namespace ecgrid::phy {
namespace {

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

using Legs = std::vector<mobility::ScriptedMobility::Leg>;

/// A radio that sits at `at` for good.
Legs parked(geo::Vec2 at) { return {{0.0, at, {}}}; }

/// Radios on scripted legs over one channel, grid or brute force. Each
/// transmission is isolated in time, so without an interference ring a
/// frame decodes at exactly the radios within range of its sender.
struct MoverRig {
  explicit MoverRig(bool useGrid = true, double interferenceRange = 0.0,
                    std::uint64_t seed = 1)
      : simulator(seed) {
    ChannelConfig config;
    config.useSpatialIndex = useGrid;
    config.interferenceRangeMeters = interferenceRange;
    channel.emplace(simulator, config);
  }

  /// A radio on `legs`, attached through its leg provider; returns its
  /// index (also its NodeId).
  int add(Legs legs) {
    models.push_back(
        std::make_unique<mobility::ScriptedMobility>(std::move(legs)));
    mobility::MobilityModel* model = models.back().get();
    Radio& radio = newRadio();
    attachments.push_back(channel->attach(
        &radio, [model](sim::Time t) { return model->legAt(t); }));
    return static_cast<int>(radios.size()) - 1;
  }

  /// A radio resting at `at`, attached through the fixed-position
  /// overload (one endless leg from now).
  int addFixed(geo::Vec2 at) {
    models.push_back(std::make_unique<mobility::ScriptedMobility>(parked(at)));
    Radio& radio = newRadio();
    attachments.push_back(channel->attach(&radio, [at] { return at; }));
    return static_cast<int>(radios.size()) - 1;
  }

  geo::Vec2 positionAt(int id, sim::Time t) {
    return models[static_cast<std::size_t>(id)]->positionAt(t);
  }

  /// Transmit from `src` at `at` and settle; returns who decoded it,
  /// ascending.
  std::vector<int> heardFrom(int src, sim::Time at) {
    heard.clear();
    simulator.scheduleAt(at, [this, src] {
      radios[static_cast<std::size_t>(src)]->transmit(broadcastFrame(src),
                                                      1e-4);
    });
    simulator.run(at + 0.01);
    std::sort(heard.begin(), heard.end());
    return heard;
  }

  /// The radios within range of `src` at `at`, by the channel's own
  /// distance expression, ascending.
  std::vector<int> inRangeOf(int src, sim::Time at) {
    const double range = channel->config().rangeMeters;
    const geo::Vec2 from = positionAt(src, at);
    std::vector<int> near;
    for (int id = 0; id < static_cast<int>(radios.size()); ++id) {
      if (id == src) continue;
      if (from.distanceSquaredTo(positionAt(id, at)) <= range * range) {
        near.push_back(id);
      }
    }
    return near;
  }

  sim::Simulator simulator;
  std::optional<Channel> channel;
  std::vector<std::unique_ptr<mobility::ScriptedMobility>> models;
  std::vector<std::unique_ptr<energy::Battery>> batteries;
  std::vector<std::unique_ptr<Radio>> radios;
  std::vector<std::size_t> attachments;  ///< by radio
  std::vector<int> heard;
  /// (receiver, rx-end time, uid) of every decoded frame.
  std::vector<std::tuple<int, sim::Time, std::uint64_t>> decoded;

 private:
  Radio& newRadio() {
    const int id = static_cast<int>(radios.size());
    batteries.push_back(std::make_unique<energy::Battery>(1e6));
    radios.push_back(std::make_unique<Radio>(simulator, *batteries.back(),
                                             energy::PowerProfile{}, id));
    radios.back()->setFrameCallback([this, id](const net::Packet& frame) {
      heard.push_back(id);
      decoded.emplace_back(id, simulator.now(), frame.uid);
    });
    return *radios.back();
  }
};

/// Legs of a random walk from a random start on a `field`-metre square:
/// straight runs of 0.2-10 s at up to `maxSpeed` in random directions,
/// with pauses.
Legs randomLegs(sim::RngStream& rng, double maxSpeed, sim::Time horizon,
                double field = 1000.0) {
  Legs legs;
  geo::Vec2 at{rng.uniform(0.0, field), rng.uniform(0.0, field)};
  sim::Time t = 0.0;
  while (t < horizon) {
    const double angle = rng.uniform(0.0, 6.283185307179586);
    const double speed =
        rng.chance(0.2) ? 0.0 : rng.uniform(0.5 * maxSpeed, maxSpeed);
    const geo::Vec2 velocity{speed * std::cos(angle), speed * std::sin(angle)};
    legs.push_back({t, at, velocity});
    const sim::Time run = rng.uniform(0.2, 10.0);
    at = at + velocity * run;
    t += run;
  }
  return legs;
}

// 20 m/s movers cross many 125 m buckets between transmissions: every
// transmission reaches exactly the radios in range at its instant.
TEST(ChannelGrid, FastMoversAreHeardExactlyWhereTheyAre) {
  MoverRig rig;
  sim::RngStream rng(42);
  for (int i = 0; i < 50; ++i) rig.add(randomLegs(rng, 20.0, 40.0));
  std::size_t heard = 0;
  for (int k = 0; k < 300; ++k) {
    const sim::Time at = 0.1 + 0.13 * k;
    const int src = static_cast<int>(rng.uniformInt(0, 49));
    const std::vector<int> expected = rig.inRangeOf(src, at);
    ASSERT_EQ(rig.heardFrom(src, at), expected) << "tx " << k;
    heard += expected.size();
  }
  EXPECT_GT(heard, 1000u);
}

// The box's corner is the attach-time minimum, (0, 0), so bucket walls lie
// on multiples of 125 m. Radios on walls, on wall crossings and exactly at
// range are heard; one a hair past range is not.
TEST(ChannelGrid, HostsOnBucketWallsAreHeard) {
  MoverRig rig;
  const int corner = rig.add(parked({0.0, 0.0}));
  rig.add(parked({1000.0, 1000.0}));
  const int centre = rig.add(parked({500.0, 500.0}));
  const int onWall = rig.add(parked({375.0, 500.0}));
  for (geo::Vec2 at : {geo::Vec2{250.0, 500.0}, geo::Vec2{750.0, 500.0},
                       geo::Vec2{500.0, 250.0}, geo::Vec2{500.0, 750.0},
                       geo::Vec2{375.0, 375.0}, geo::Vec2{125.0, 500.0},
                       geo::Vec2{625.0, 625.0},
                       geo::Vec2{std::nextafter(250.0, 0.0), 500.0}}) {
    rig.add(parked(at));
  }
  // Reaches the walls x = 125, 250 and 375 at t = 10, 21 and 32 and
  // rests a second on each; 250 m from onWall on the first.
  const geo::Vec2 east{12.5, 0.0};
  const int crosser = rig.add({{0.0, {0.0, 500.0}, east},
                               {10.0, {125.0, 500.0}, {}},
                               {11.0, {125.0, 500.0}, east},
                               {21.0, {250.0, 500.0}, {}},
                               {22.0, {250.0, 500.0}, east},
                               {32.0, {375.0, 500.0}, {}}});
  for (sim::Time rest : {10.0, 21.0, 32.0}) {
    sim::Time at = rest;
    for (int src : {corner, centre, onWall, crosser}) {
      ASSERT_EQ(rig.heardFrom(src, at), rig.inRangeOf(src, at))
          << "tx from " << src << " at " << at;
      at += 0.1;
    }
  }
  EXPECT_EQ(rig.inRangeOf(centre, 10.0).size(), 7u);
  EXPECT_EQ(rig.heardFrom(crosser, 40.0), rig.inRangeOf(crosser, 40.0));
}

// A radio may stray up to the margin past its bucket's wall before it is
// re-bucketed; the query disc's extra reach still finds it there. The
// drifter is dated at t = 1 in bucket column 0, x < 125, until it reaches
// x = 126 at t = 6.
TEST(ChannelGrid, RadiosStrayingWithinTheMarginAreHeard) {
  MoverRig rig;
  const int anchor = rig.add(parked({0.0, 0.0}));
  const int drifter = rig.add({{0.0, {120.0, 0.0}, {1.0, 0.0}}});
  const int sender = rig.add(parked({375.5, 0.0}));
  EXPECT_EQ(rig.heardFrom(anchor, 1.0), (std::vector<int>{drifter}));
  // At x = 125.9, 249.6 m from the sender, still dated in column 0.
  EXPECT_EQ(rig.heardFrom(sender, 5.9), (std::vector<int>{drifter}));
  EXPECT_EQ(rig.heardFrom(sender, 7.0), (std::vector<int>{drifter}));
}

// A leg that ends at the very instant of a transmission must be re-read
// before the query: here the radio jumps across the field at t = 2.
TEST(ChannelGrid, ExpiryAtATransmissionsOwnInstantIsSeen) {
  MoverRig rig;
  const int west = rig.add(parked({0.0, 0.0}));
  const int east = rig.add(parked({1000.0, 0.0}));
  const int jumper =
      rig.add({{0.0, {50.0, 0.0}, {}}, {2.0, {950.0, 0.0}, {}}});
  // Reaches its bucket's grown wall x = 126 at t = 1.3, 250 m from mid.
  const int runner = rig.add({{0.0, {100.0, 0.0}, {20.0, 0.0}}});
  const int mid = rig.add(parked({376.0, 0.0}));
  EXPECT_EQ(rig.heardFrom(west, 1.0), (std::vector<int>{jumper, runner}));
  EXPECT_EQ(rig.heardFrom(mid, 1.3), rig.inRangeOf(mid, 1.3));
  EXPECT_EQ(rig.heardFrom(east, 2.0), (std::vector<int>{jumper}));
  EXPECT_EQ(rig.heardFrom(west, 2.5), (std::vector<int>{runner}));
  EXPECT_EQ(rig.heardFrom(east, 37.5),
            (std::vector<int>{jumper, runner}));
}

// A detached radio drops out of the buckets and its slot's next owner is
// found where it is, not where the old one was.
TEST(ChannelGrid, DetachedSlotsAreReBucketedForTheirNewOwner) {
  MoverRig rig;
  const int west = rig.add(parked({0.0, 0.0}));
  const int leaver = rig.add(parked({100.0, 0.0}));
  const int east = rig.add(parked({900.0, 900.0}));
  EXPECT_EQ(rig.heardFrom(west, 1.0), (std::vector<int>{leaver}));
  const std::size_t slot = rig.attachments[static_cast<std::size_t>(leaver)];
  rig.channel->detach(slot);
  EXPECT_TRUE(rig.heardFrom(west, 2.0).empty());
  const int newcomer = rig.add(parked({900.0, 800.0}));
  EXPECT_EQ(rig.attachments[static_cast<std::size_t>(newcomer)], slot);
  EXPECT_TRUE(rig.heardFrom(west, 3.0).empty());
  EXPECT_EQ(rig.heardFrom(east, 4.0), (std::vector<int>{newcomer}));
  EXPECT_EQ(rig.channel->liveAttachmentCount(), 3u);
}

// A leg provider must return the leg covering the query time; one that
// returns an ended leg fails loudly instead of being mis-bucketed.
TEST(ChannelGrid, ProviderReturningAnEndedLegThrows) {
  for (const bool useGrid : {true, false}) {
    SCOPED_TRACE(useGrid ? "grid" : "brute force");
    MoverRig rig(useGrid);
    rig.add(parked({0.0, 0.0}));
    energy::Battery battery(1e6);
    Radio stale(rig.simulator, battery, energy::PowerProfile{}, 1);
    const std::size_t live = rig.channel->liveAttachmentCount();
    try {
      rig.channel->attach(&stale, [](sim::Time now) {
        return geo::Segment{now - 1.0, now, {10.0, 0.0}, {}};
      });
      ADD_FAILURE() << "an ended leg was accepted";
    } catch (const std::logic_error& error) {
      EXPECT_NE(std::string(error.what())
                    .find("leg provider returned a leg that has already ended"),
                std::string::npos)
          << error.what();
    }
    // attach read the first leg and threw before committing the slot:
    // nothing of the failed attach is left behind.
    EXPECT_EQ(rig.channel->liveAttachmentCount(), live);
    EXPECT_EQ(stale.channelAttachmentId(), Radio::kNoAttachment);
    const int good = rig.add(parked({10.0, 0.0}));
    EXPECT_EQ(rig.channel->liveAttachmentCount(), live + 1);
    EXPECT_EQ(rig.heardFrom(0, 1.0), (std::vector<int>{good}));
  }
}

// Grid against brute force at many instants: movers up to 20 m/s, radios
// parked on static legs or at fixed positions, an interference ring and
// sleepers, with every decoded frame and counter compared after each
// transmission. The 2 km field is a dozen buckets across, so a query
// leaves most out.
class GridDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GridDifferential, MoversMatchBruteForceAtManyTimes) {
  const std::uint64_t seed = GetParam();
  constexpr double kField = 2000.0;
  constexpr int kRadios = 120;
  MoverRig grid(true, 350.0, seed);
  MoverRig brute(false, 350.0, seed);
  for (MoverRig* rig : {&grid, &brute}) {
    sim::RngStream rng(seed);
    for (int i = 0; i < kRadios; ++i) {
      if (i % 10 == 0) {
        rig->addFixed({rng.uniform(0.0, kField), rng.uniform(0.0, kField)});
      } else if (i % 10 == 1) {
        rig->add(
            parked({rng.uniform(0.0, kField), rng.uniform(0.0, kField)}));
      } else {
        rig->add(randomLegs(rng, 20.0, 60.0, kField));
      }
    }
  }
  sim::RngStream script(seed * 13 + 5);
  for (int k = 0; k < 400; ++k) {
    const sim::Time at = 0.05 + 0.14 * k + script.uniform(0.0, 0.05);
    const int src = static_cast<int>(script.uniformInt(0, kRadios - 1));
    const int sleeper = static_cast<int>(script.uniformInt(0, kRadios - 1));
    for (MoverRig* rig : {&grid, &brute}) {
      Radio& radio = *rig->radios[static_cast<std::size_t>(sleeper)];
      if (sleeper == src) continue;
      if (radio.sleeping()) {
        radio.wake();
      } else {
        radio.sleep();
      }
    }
    if (grid.radios[static_cast<std::size_t>(src)]->sleeping()) continue;
    ASSERT_EQ(grid.heardFrom(src, at), brute.heardFrom(src, at)) << "tx " << k;
    ASSERT_EQ(grid.decoded, brute.decoded) << "tx " << k;
    ASSERT_EQ(grid.channel->deliveriesScheduled(),
              brute.channel->deliveriesScheduled());
    ASSERT_EQ(grid.simulator.eventsExecuted(),
              brute.simulator.eventsExecuted());
  }
  EXPECT_GT(grid.decoded.size(), 400u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridDifferential,
                         ::testing::Values(3u, 17u, 2026u));

// --- Counted sleepers: replay from the in-flight transmission ------------

/// Every fault-slot call, as (transmission, sender, receiver).
using FaultCalls =
    std::vector<std::tuple<std::uint64_t, net::NodeId, net::NodeId>>;

/// Arm the channel's fault slot with a keyed i.i.d. verdict (the one
/// fault::FaultInjector arms) that also logs each call into `calls`.
void armKeyedFault(Channel& channel, double loss, std::uint64_t seed,
                   FaultCalls& calls) {
  channel.setDeliveryFault(
      [model = fault::IidLossModel(loss, seed), &calls](
          std::uint64_t tx, net::NodeId sender, net::NodeId receiver) mutable {
        calls.emplace_back(tx, sender, receiver);
        return model.dropDelivery(tx, sender, receiver);
      });
}

/// `calls` as a set: sorted, after checking that no delivery was asked
/// about twice. The scans visit receivers in different orders.
FaultCalls callSet(FaultCalls calls) {
  std::sort(calls.begin(), calls.end());
  EXPECT_TRUE(std::adjacent_find(calls.begin(), calls.end()) == calls.end())
      << "a delivery was asked about twice";
  return calls;
}

/// What a grid run and a brute-force run must agree on.
void expectSameRun(MoverRig& grid, MoverRig& brute) {
  EXPECT_EQ(grid.decoded, brute.decoded);
  EXPECT_EQ(grid.channel->deliveriesScheduled(),
            brute.channel->deliveriesScheduled());
  EXPECT_EQ(grid.channel->deferredArrivals(),
            brute.channel->deferredArrivals());
  EXPECT_EQ(grid.simulator.eventsExecuted(), brute.simulator.eventsExecuted());
  EXPECT_EQ(grid.simulator.reservedSequences(),
            brute.simulator.reservedSequences());
}

// A sleeper is counted, not parked, and a wake rebuilds its arrival from
// its leg at the sending instant. Here that leg ends (the sleeper jumps
// out of reach) after the frame is sent and before the sleeper wakes, so
// the arrival must be rebuilt from the old leg. With a second
// transmission between the leg's end and the wake, the channel reads the
// new leg before the wake and must park the arrival first; without it,
// the wake finds the ended leg still cached.
TEST(CountedSleepers, LegEndingInsideTheFlightWindowKeepsTheArrival) {
  constexpr sim::Time kSend = 1.0;
  constexpr double kFlight = 100.0 / 3e8;  // 333 ns
  for (const bool readBetween : {true, false}) {
    SCOPED_TRACE(readBetween ? "leg re-read before the wake"
                             : "leg still cached at the wake");
    MoverRig grid(true);
    MoverRig brute(false);
    for (MoverRig* rig : {&grid, &brute}) {
      rig->add(parked({0.0, 0.0}));
      rig->add({{0.0, {100.0, 0.0}, {}}, {kSend + 100e-9, {900.0, 0.0}, {}}});
      rig->add(parked({0.0, 2000.0}));  // out of everyone's reach
      Radio& sleeper = *rig->radios[1];
      sleeper.sleep();
      rig->simulator.scheduleAt(kSend, [rig] {
        rig->radios[0]->transmit(broadcastFrame(0), 1e-4);
      });
      if (readBetween) {
        rig->simulator.scheduleAt(kSend + 150e-9, [rig] {
          rig->radios[2]->transmit(broadcastFrame(2), 1e-4);
        });
      }
      rig->simulator.scheduleAt(kSend + 200e-9, [rig, &sleeper] {
        EXPECT_EQ(rig->channel->deferredArrivals(), 1u);
        sleeper.wake();
      });
      rig->simulator.run(2.0);
    }
    ASSERT_EQ(grid.decoded.size(), 1u);
    EXPECT_EQ(std::get<0>(grid.decoded[0]), 1);
    EXPECT_EQ(std::get<1>(grid.decoded[0]), (kSend + kFlight) + 1e-4);
    expectSameRun(grid, brute);
  }
}

// Movers, and radios parked on static legs or at fixed positions, under an
// interference ring; bursts of transmissions 150 ns apart straddle a
// mover's leg end, and radios fall asleep, wake, or nap (awake at a send,
// asleep and awake again before it lands) at random instants inside the
// flight windows.
// The grid run, which counts sleepers on legs and rebuilds their
// arrivals, matches the brute-force run, which parks every one — with the
// fault slot armed (every sleeper consulted and parked in both, and the
// same set of deliveries asked about, each once) and not.
class CountedSleeperDifferential
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(CountedSleeperDifferential, WakesInsideFlightWindowsMatchBruteForce) {
  const auto [seed, faultArmed] = GetParam();
  constexpr double kField = 1500.0;
  constexpr int kRadios = 80;
  constexpr sim::Time kHorizon = 30.0;
  MoverRig grid(true, 350.0, seed);
  MoverRig brute(false, 350.0, seed);
  std::vector<Legs> movers;  ///< by radio; empty unless a mover
  for (MoverRig* rig : {&grid, &brute}) {
    sim::RngStream rng(seed);
    movers.assign(kRadios, Legs{});
    for (int i = 0; i < kRadios; ++i) {
      if (i % 10 == 0) {
        rig->addFixed({rng.uniform(0.0, kField), rng.uniform(0.0, kField)});
      } else if (i % 10 == 1) {
        rig->add(
            parked({rng.uniform(0.0, kField), rng.uniform(0.0, kField)}));
      } else {
        movers[static_cast<std::size_t>(i)] =
            randomLegs(rng, 20.0, kHorizon + 1.0, kField);
        rig->add(movers[static_cast<std::size_t>(i)]);
      }
    }
  }
  FaultCalls gridCalls;
  FaultCalls bruteCalls;
  if (faultArmed) {
    armKeyedFault(*grid.channel, 0.2, seed * 7 + 1, gridCalls);
    armKeyedFault(*brute.channel, 0.2, seed * 7 + 1, bruteCalls);
  }
  sim::RngStream script(seed * 29 + 3);
  sim::Time after = 0.1;
  int bursts = 0;
  while (bursts < 60) {
    // Anchor the burst on the next leg end of any mover.
    int anchor = -1;
    sim::Time legEnd = kHorizon;
    for (int i = 0; i < kRadios; ++i) {
      for (const auto& leg : movers[static_cast<std::size_t>(i)]) {
        if (leg.start <= after) continue;
        if (leg.start < legEnd) {
          legEnd = leg.start;
          anchor = i;
        }
        break;
      }
    }
    if (anchor < 0) break;
    const sim::Time t0 = legEnd - script.uniform(0.0, 400e-9);
    std::vector<int> senders;
    std::vector<std::pair<int, sim::Time>> sleeps;
    std::vector<std::pair<int, sim::Time>> wakes;
    for (int i = 0; i < kRadios; ++i) {
      const double dice = script.uniform(0.0, 1.0);
      if (dice < 0.05 && i != anchor) {
        senders.push_back(i);
      } else if (dice < 0.4 || i == anchor) {
        wakes.emplace_back(i, t0 + script.uniform(0.0, 1.5e-6));
      } else if (dice < 0.7) {
        // Awake at the first sends; some nap inside the flight windows.
        const sim::Time sleepAt = t0 + script.uniform(0.0, 1e-6);
        sleeps.emplace_back(i, sleepAt);
        if (dice < 0.55) {
          wakes.emplace_back(i, sleepAt + script.uniform(0.0, 0.6e-6));
        }
      }
    }
    for (MoverRig* rig : {&grid, &brute}) {
      for (const auto& [i, sleepAt] : sleeps) {
        Radio* radio = rig->radios[static_cast<std::size_t>(i)].get();
        rig->simulator.scheduleAt(sleepAt, [radio] { radio->sleep(); });
      }
      for (const auto& [i, wakeAt] : wakes) {
        Radio* radio = rig->radios[static_cast<std::size_t>(i)].get();
        // Asleep from the start unless it naps.
        if (std::none_of(sleeps.begin(), sleeps.end(),
                         [i = i](const auto& nap) { return nap.first == i; })) {
          radio->sleep();
        }
        rig->simulator.scheduleAt(wakeAt, [radio] { radio->wake(); });
      }
      for (std::size_t k = 0; k < senders.size(); ++k) {
        const int src = senders[k];
        rig->simulator.scheduleAt(
            t0 + 150e-9 * static_cast<double>(k), [rig, src] {
              rig->radios[static_cast<std::size_t>(src)]->transmit(
                  broadcastFrame(src), 1e-4);
            });
      }
      rig->simulator.run(t0 + 0.01);
      // The next burst starts with every radio awake.
      for (auto& radio : rig->radios) radio->wake();
    }
    ASSERT_EQ(grid.decoded, brute.decoded) << "burst " << bursts;
    ASSERT_EQ(callSet(gridCalls), callSet(bruteCalls)) << "burst " << bursts;
    ASSERT_EQ(grid.simulator.eventsExecuted(),
              brute.simulator.eventsExecuted())
        << "burst " << bursts;
    after = legEnd + 0.05;
    ++bursts;
  }
  expectSameRun(grid, brute);
  EXPECT_EQ(bursts, 60);
  EXPECT_GT(grid.decoded.size(), 100u);
  if (faultArmed) {
    EXPECT_GT(grid.channel->deliveriesCorrupted(), 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(
    SeedsAndFault, CountedSleeperDifferential,
    ::testing::Combine(::testing::Values(5u, 41u, 2027u),
                       ::testing::Bool()));

// --- Channel slot reuse ----------------------------------------------------

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

// --- Differential: grid fan-out == brute-force fan-out ---------------------

// One channel's worth of state for the differential rigs below: radios
// parked at random on static legs, so the grid buckets them.
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
      channel->attach(radios.back().get(), [p](sim::Time) {
        return geo::Segment{0.0, sim::kTimeNever, p, {}};
      });
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
  // the grid's max(range, interference) reach are exercised.
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

// With the fault slot armed, the grid scan and the brute-force scan visit
// receivers in different orders: each transmission must still ask about
// the same deliveries, sleepers included, each once, and a verdict keyed
// on its delivery makes the runs identical.
TEST_P(FanoutDifferential, FaultArmedIndexedMatchesBruteForce) {
  const std::uint64_t seed = GetParam();
  const int radioCount = 60;
  FanoutWorld indexed(radioCount, true, 450.0, seed);
  FanoutWorld brute(radioCount, false, 450.0, seed);
  FaultCalls indexedCalls;
  FaultCalls bruteCalls;
  auto arm = [seed](FanoutWorld& world, FaultCalls& calls) {
    armKeyedFault(*world.channel, 0.3, seed * 7 + 1, calls);
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
    ASSERT_EQ(callSet(indexedCalls), callSet(bruteCalls))
        << "after tx from " << src;
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

// Bursts of transmissions a few hundred nanoseconds apart, so several are
// in flight towards the same sleepers at once, with sleepers waking at
// random instants inside the flight windows: the parked arrivals replay
// identically in both modes.
TEST_P(FanoutDifferential, OverlappingFlightsWithWakesMatchBruteForce) {
  const std::uint64_t seed = GetParam();
  const int radioCount = 60;
  FanoutWorld indexed(radioCount, true, 450.0, seed);
  FanoutWorld brute(radioCount, false, 450.0, seed);
  sim::RngStream script(seed * 31 + 7);
  for (int burst = 0; burst < 20; ++burst) {
    std::vector<int> senders;
    std::vector<std::pair<int, sim::Time>> wakes;
    for (int i = 0; i < radioCount; ++i) {
      const double dice = script.uniform(0.0, 1.0);
      if (dice < 0.06) {
        senders.push_back(i);
      } else if (dice < 0.5) {
        wakes.emplace_back(i, script.uniform(0.0, 2e-6));
      }
    }
    for (FanoutWorld* world : {&indexed, &brute}) {
      const sim::Time t0 = world->simulator.now();
      for (const auto& [i, wakeAt] : wakes) {
        Radio& radio = *world->radios[static_cast<std::size_t>(i)];
        radio.sleep();
        world->simulator.scheduleAt(t0 + wakeAt, [&radio] { radio.wake(); });
      }
      for (std::size_t k = 0; k < senders.size(); ++k) {
        const int src = senders[k];
        world->simulator.scheduleAt(t0 + 150e-9 * static_cast<double>(k), [=] {
          world->radios[static_cast<std::size_t>(src)]->transmit(
              broadcastFrame(src), 1e-4);
        });
      }
      world->simulator.run(t0 + 1.0);
    }
    ASSERT_EQ(indexed.deliveries, brute.deliveries) << "after burst " << burst;
    ASSERT_EQ(indexed.simulator.eventsExecuted(),
              brute.simulator.eventsExecuted());
  }
  EXPECT_EQ(indexed.simulator.reservedSequences(),
            brute.simulator.reservedSequences());
  EXPECT_EQ(indexed.channel->deliveriesScheduled(),
            brute.channel->deliveriesScheduled());
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
// grid's lazy re-bucketing, death-time detaches, and slot reuse. The grid
// claims a *bit-identical physical trajectory*: every frame, delivery,
// battery sample, and death matches exactly — no tolerances — and the
// same event count, since the refresh runs inside transmissions and arms
// no timer.
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

  // Re-bucketing is no event.
  EXPECT_EQ(indexed.eventsExecuted, brute.eventsExecuted);
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
// per-receiver Markov state, so it holds only if both scans ask about the
// same deliveries, each once per transmission, and the verdicts do not
// depend on the order in which they are asked.
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
