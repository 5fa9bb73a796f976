// Tests for the channel's fan-out grid: movers, bucket walls, expiry at
// a transmission's own instant, detach and slot reuse, providers that
// return ended legs, and — the property that licenses the whole
// optimisation — agreement with two references that share no code with
// the scan. Geometry: every decoded frame, rx-end time, fault-slot call
// and interference hit is predicted from the mobility models' own
// positions alone. A zero-loss fault slot: armed, the scan parks every
// sleeper at transmit time, so an unarmed run, which only counts sleepers
// and rebuilds their arrivals on a wake, must match it bit for bit — from
// single broadcasts up to full mobile scenarios with an interference ring.
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

/// Every transmission's airtime.
constexpr sim::Time kAirtime = 1e-4;

/// Every fault-slot call, as (transmission, sender, receiver).
using FaultCalls =
    std::vector<std::tuple<std::uint64_t, net::NodeId, net::NodeId>>;

/// Arm the channel's fault slot with a keyed i.i.d. verdict (the one
/// fault::FaultInjector arms) that also logs each call into `calls`. With
/// loss 0 it is asked about every delivery and corrupts none.
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
/// about twice. The scan asks in bucket order, not id order.
FaultCalls callSet(FaultCalls calls) {
  std::sort(calls.begin(), calls.end());
  EXPECT_TRUE(std::adjacent_find(calls.begin(), calls.end()) == calls.end())
      << "a delivery was asked about twice";
  return calls;
}

using Legs = std::vector<mobility::ScriptedMobility::Leg>;

/// A radio that sits at `at` for good.
Legs parked(geo::Vec2 at) { return {{0.0, at, {}}}; }

/// A decoded frame, as the geometry predicts it: (receiver, rx-end time,
/// sender).
using Frame = std::tuple<int, sim::Time, int>;

/// Radios on scripted legs over one channel. Each transmission is
/// isolated in time unless a test overlaps them, so without an
/// interference ring a frame decodes at exactly the awake radios within
/// range of its sender.
struct MoverRig {
  explicit MoverRig(double interferenceRange = 0.0, std::uint64_t seed = 1)
      : simulator(seed) {
    ChannelConfig config;
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

  Radio& radio(int id) { return *radios[static_cast<std::size_t>(id)]; }

  geo::Vec2 positionAt(int id, sim::Time t) {
    return models[static_cast<std::size_t>(id)]->positionAt(t);
  }

  /// Schedule a broadcast from `src` at `at`; once sent, it is listed in
  /// `sent` with its transmission number.
  void sendAt(int src, sim::Time at) {
    simulator.scheduleAt(at, [this, src] {
      const std::uint64_t number = channel->framesTransmitted();
      radio(src).transmit(broadcastFrame(src), kAirtime);
      if (channel->framesTransmitted() > number) {
        sent.push_back({number, src, simulator.now()});
      }
    });
  }

  /// Transmit from `src` at `at` and settle; returns who decoded it,
  /// ascending.
  std::vector<int> heardFrom(int src, sim::Time at) {
    heard.clear();
    sendAt(src, at);
    simulator.run(at + 0.01);
    std::sort(heard.begin(), heard.end());
    return heard;
  }

  /// The radios within `reach` of `src` at `at`, ascending, judged by the
  /// mobility models' positions and Vec2::distanceSquaredTo alone.
  std::vector<int> inReachOf(int src, sim::Time at, double reach) {
    const geo::Vec2 from = positionAt(src, at);
    std::vector<int> near;
    for (int id = 0; id < static_cast<int>(radios.size()); ++id) {
      if (id == src) continue;
      if (from.distanceSquaredTo(positionAt(id, at)) <= reach * reach) {
        near.push_back(id);
      }
    }
    return near;
  }

  std::vector<int> inRangeOf(int src, sim::Time at) {
    return inReachOf(src, at, channel->config().rangeMeters);
  }

  /// When a frame `src` sends at `at` ends at `id`: sent-at plus the
  /// flight over the models' distance, plus the airtime.
  sim::Time rxEnd(int src, int id, sim::Time at) {
    const double distSq =
        positionAt(src, at).distanceSquaredTo(positionAt(id, at));
    return (at + std::sqrt(distSq) / channel->config().propagationSpeed) +
           kAirtime;
  }

  /// What the geometry says a transmission from `src` at `at`, alone in
  /// the air, decodes: one frame at each awake radio in range, ascending.
  std::vector<Frame> expectedFrames(int src, sim::Time at) {
    std::vector<Frame> frames;
    for (int id : inRangeOf(src, at)) {
      if (radio(id).sleeping()) continue;
      frames.emplace_back(id, rxEnd(src, id, at), src);
    }
    return frames;
  }

  /// The frames decoded since `decoded` held `from` of them, ascending.
  std::vector<Frame> framesSince(std::size_t from) const {
    std::vector<Frame> frames;
    for (std::size_t k = from; k < decoded.size(); ++k) {
      frames.emplace_back(std::get<0>(decoded[k]), std::get<1>(decoded[k]),
                          std::get<2>(decoded[k]));
    }
    std::sort(frames.begin(), frames.end());
    return frames;
  }

  /// The fault-slot calls the geometry predicts for the transmissions
  /// sent since `sent` held `from` of them: one per radio in decode range
  /// of the sender at its instant, asleep or not.
  FaultCalls decodeRangeCalls(std::size_t from) {
    FaultCalls calls;
    for (std::size_t k = from; k < sent.size(); ++k) {
      for (int id : inRangeOf(sent[k].sender, sent[k].at)) {
        calls.emplace_back(sent[k].number, sent[k].sender, id);
      }
    }
    std::sort(calls.begin(), calls.end());
    return calls;
  }

  /// A transmission as sent: its number, sender and instant.
  struct Sent {
    std::uint64_t number = 0;
    int sender = 0;
    sim::Time at = 0.0;
  };

  sim::Simulator simulator;
  std::optional<Channel> channel;
  std::vector<std::unique_ptr<mobility::ScriptedMobility>> models;
  std::vector<std::unique_ptr<energy::Battery>> batteries;
  std::vector<std::unique_ptr<Radio>> radios;
  std::vector<std::size_t> attachments;  ///< by radio
  std::vector<int> heard;
  std::vector<Sent> sent;
  /// (receiver, rx-end time, sender, uid) of every decoded frame.
  std::vector<std::tuple<int, sim::Time, int, std::uint64_t>> decoded;

 private:
  Radio& newRadio() {
    const int id = static_cast<int>(radios.size());
    batteries.push_back(std::make_unique<energy::Battery>(1e6));
    radios.push_back(std::make_unique<Radio>(simulator, *batteries.back(),
                                             energy::PowerProfile{}, id));
    radios.back()->setFrameCallback([this, id](const net::Packet& frame) {
      heard.push_back(id);
      decoded.emplace_back(id, simulator.now(), frame.macSrc, frame.uid);
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
  MoverRig rig;
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

/// Radios for the randomized rigs below on a `field`-metre square, one in
/// ten at a fixed position, one in ten parked on a static leg, the rest
/// random walks up to 20 m/s until `horizon`. Returns each mover's legs,
/// by radio (empty for the others).
std::vector<Legs> scatter(MoverRig& rig, int count, double field,
                          sim::Time horizon, std::uint64_t seed) {
  sim::RngStream rng(seed);
  std::vector<Legs> movers(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    if (i % 10 == 0) {
      rig.addFixed({rng.uniform(0.0, field), rng.uniform(0.0, field)});
    } else if (i % 10 == 1) {
      rig.add(parked({rng.uniform(0.0, field), rng.uniform(0.0, field)}));
    } else {
      movers[static_cast<std::size_t>(i)] =
          randomLegs(rng, 20.0, horizon, field);
      rig.add(movers[static_cast<std::size_t>(i)]);
    }
  }
  return movers;
}

// The scan against geometry at many instants: movers up to 20 m/s, radios
// parked on static legs or at fixed positions, an interference ring and
// sleepers. After each transmission, the frames decoded and their rx-end
// times are exactly the geometry's, and phy.deliveries_scheduled grew by
// every radio in decode range, asleep or not. The 2 km field is a dozen
// buckets across, so a query leaves most out. (The test keeps its
// "BruteForce" name so that its id stays stable; no brute-force scan
// exists any more.)
class GridDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GridDifferential, MoversMatchBruteForceAtManyTimes) {
  const std::uint64_t seed = GetParam();
  constexpr int kRadios = 120;
  MoverRig rig(350.0, seed);
  scatter(rig, kRadios, 2000.0, 60.0, seed);
  sim::RngStream script(seed * 13 + 5);
  std::size_t sleepersInRange = 0;
  for (int k = 0; k < 400; ++k) {
    const sim::Time at = 0.05 + 0.14 * k + script.uniform(0.0, 0.05);
    const int src = static_cast<int>(script.uniformInt(0, kRadios - 1));
    const int sleeper = static_cast<int>(script.uniformInt(0, kRadios - 1));
    if (sleeper != src) {
      Radio& radio = rig.radio(sleeper);
      if (radio.sleeping()) {
        radio.wake();
      } else {
        radio.sleep();
      }
    }
    if (rig.radio(src).sleeping()) continue;
    const std::vector<Frame> expected = rig.expectedFrames(src, at);
    const std::size_t inRange = rig.inRangeOf(src, at).size();
    const std::size_t decodedBefore = rig.decoded.size();
    const std::uint64_t scheduledBefore = rig.channel->deliveriesScheduled();
    rig.heardFrom(src, at);
    ASSERT_EQ(rig.framesSince(decodedBefore), expected) << "tx " << k;
    ASSERT_EQ(rig.channel->deliveriesScheduled() - scheduledBefore, inRange)
        << "tx " << k;
    sleepersInRange += inRange - expected.size();
  }
  EXPECT_GT(rig.decoded.size(), 400u);
  EXPECT_GT(sleepersInRange, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridDifferential,
                         ::testing::Values(3u, 17u, 2026u));

// The interference ring, against geometry: a second sender starts 20 µs
// into the first one's frame. A radio decodes the first frame exactly when
// it lies in range of the first sender and out of the second's reach
// (decode range or ring): within reach, the second frame's energy lands
// mid-reception and ruins it. Symmetrically, the first frame's energy is
// still arriving when the second lands, so the second decodes only out of
// the first's reach.
class InterferenceRing : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(InterferenceRing, ASecondSenderCutsExactlyTheReceptionsWithinItsReach) {
  const std::uint64_t seed = GetParam();
  constexpr int kRadios = 80;
  constexpr double kReach = 450.0;
  constexpr sim::Time kLag = 20e-6;
  MoverRig rig(kReach, seed);
  scatter(rig, kRadios, 1500.0, 40.0, seed);
  sim::RngStream script(seed * 17 + 11);
  std::size_t cut = 0;
  for (int k = 0; k < 200; ++k) {
    const sim::Time at = 0.1 + 0.15 * k;
    const int first = static_cast<int>(script.uniformInt(0, kRadios - 1));
    int second = static_cast<int>(script.uniformInt(0, kRadios - 2));
    if (second >= first) ++second;
    const std::vector<int> firstReach = rig.inReachOf(first, at, kReach);
    const std::vector<int> secondReach =
        rig.inReachOf(second, at + kLag, kReach);
    const auto reaches = [](const std::vector<int>& near, int id) {
      return std::binary_search(near.begin(), near.end(), id);
    };
    std::vector<Frame> expected;
    for (const auto& [from, when, other] :
         {std::tuple{first, at, &secondReach},
          std::tuple{second, at + kLag, &firstReach}}) {
      for (const Frame& frame : rig.expectedFrames(from, when)) {
        const int receiver = std::get<0>(frame);
        if (receiver == first || receiver == second) continue;
        if (reaches(*other, receiver)) {
          ++cut;
        } else {
          expected.push_back(frame);
        }
      }
    }
    std::sort(expected.begin(), expected.end());
    const std::size_t decodedBefore = rig.decoded.size();
    rig.sendAt(first, at);
    rig.sendAt(second, at + kLag);
    rig.simulator.run(at + 0.01);
    ASSERT_EQ(rig.framesSince(decodedBefore), expected) << "pair " << k;
  }
  EXPECT_GT(cut, 100u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, InterferenceRing,
                         ::testing::Values(7u, 31u, 2028u));

// --- Counted sleepers: replay from the in-flight transmission ------------

/// What an unarmed run and a zero-loss armed run must agree on.
void expectSameRun(MoverRig& counted, MoverRig& armed) {
  EXPECT_EQ(counted.decoded, armed.decoded);
  EXPECT_EQ(counted.channel->deliveriesScheduled(),
            armed.channel->deliveriesScheduled());
  EXPECT_EQ(counted.channel->deferredArrivals(),
            armed.channel->deferredArrivals());
  EXPECT_EQ(counted.simulator.eventsExecuted(),
            armed.simulator.eventsExecuted());
  EXPECT_EQ(counted.simulator.reservedSequences(),
            armed.simulator.reservedSequences());
}

// A sleeper is counted, not parked, and a wake rebuilds its arrival from
// its leg at the sending instant. Here that leg ends (the sleeper jumps
// out of reach) after the frame is sent and before the sleeper wakes, so
// the arrival must be rebuilt from the old leg. With a second
// transmission between the leg's end and the wake, the channel reads the
// new leg before the wake and must park the arrival first; without it,
// the wake finds the ended leg still cached. A zero-loss armed run parks
// the arrival at transmit time and must agree.
TEST(CountedSleepers, LegEndingInsideTheFlightWindowKeepsTheArrival) {
  constexpr sim::Time kSend = 1.0;
  constexpr double kFlight = 100.0 / 3e8;  // 333 ns
  for (const bool readBetween : {true, false}) {
    SCOPED_TRACE(readBetween ? "leg re-read before the wake"
                             : "leg still cached at the wake");
    MoverRig counted;
    MoverRig armed;
    FaultCalls calls;
    armKeyedFault(*armed.channel, 0.0, 1, calls);
    for (MoverRig* rig : {&counted, &armed}) {
      rig->add(parked({0.0, 0.0}));
      rig->add({{0.0, {100.0, 0.0}, {}}, {kSend + 100e-9, {900.0, 0.0}, {}}});
      rig->add(parked({0.0, 2000.0}));  // out of everyone's reach
      Radio& sleeper = rig->radio(1);
      sleeper.sleep();
      rig->sendAt(0, kSend);
      if (readBetween) rig->sendAt(2, kSend + 150e-9);
      rig->simulator.scheduleAt(kSend + 200e-9, [rig, &sleeper] {
        EXPECT_EQ(rig->channel->deferredArrivals(), 1u);
        sleeper.wake();
      });
      rig->simulator.run(2.0);
    }
    ASSERT_EQ(counted.decoded.size(), 1u);
    EXPECT_EQ(std::get<0>(counted.decoded[0]), 1);
    EXPECT_EQ(std::get<1>(counted.decoded[0]), (kSend + kFlight) + 1e-4);
    expectSameRun(counted, armed);
    EXPECT_EQ(callSet(calls), armed.decodeRangeCalls(0));
  }
}

// Movers, and radios parked on static legs or at fixed positions, under an
// interference ring; bursts of transmissions 150 ns apart straddle a
// mover's leg end, and radios fall asleep, wake, or nap (awake at a send,
// asleep and awake again before it lands) at random instants inside the
// flight windows. In every burst the armed slot is asked about exactly the
// deliveries the geometry puts in decode range, sleepers included, each
// once.
// Not faulted: the unarmed run, which counts sleepers on legs and rebuilds
// their arrivals, matches a zero-loss armed run, which parks every one.
// Faulted (loss 0.2): every frame that decodes is one the geometry puts in
// range, ends when the geometry says, and was not corrupted.
// (The test keeps its "BruteForce" name so that its ids stay stable.)
class CountedSleeperDifferential
    : public ::testing::TestWithParam<std::tuple<std::uint64_t, bool>> {};

TEST_P(CountedSleeperDifferential, WakesInsideFlightWindowsMatchBruteForce) {
  const auto [seed, faulted] = GetParam();
  constexpr double kLoss = 0.2;
  constexpr int kRadios = 80;
  constexpr sim::Time kHorizon = 30.0;
  MoverRig counted(350.0, seed);
  MoverRig armed(350.0, seed);
  std::vector<Legs> movers;  ///< by radio; empty unless a mover
  for (MoverRig* rig : {&counted, &armed}) {
    movers = scatter(*rig, kRadios, 1500.0, kHorizon + 1.0, seed);
  }
  FaultCalls calls;
  armKeyedFault(*armed.channel, faulted ? kLoss : 0.0, seed * 7 + 1, calls);
  fault::IidLossModel verdicts(kLoss, seed * 7 + 1);
  // Only the armed run is checked when it corrupts.
  std::vector<MoverRig*> rigs{&armed};
  if (!faulted) rigs.push_back(&counted);
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
    const std::size_t sentBefore = armed.sent.size();
    const std::size_t decodedBefore = armed.decoded.size();
    calls.clear();
    for (MoverRig* rig : rigs) {
      for (const auto& [i, sleepAt] : sleeps) {
        Radio* radio = &rig->radio(i);
        rig->simulator.scheduleAt(sleepAt, [radio] { radio->sleep(); });
      }
      for (const auto& [i, wakeAt] : wakes) {
        Radio* radio = &rig->radio(i);
        // Asleep from the start unless it naps.
        if (std::none_of(sleeps.begin(), sleeps.end(),
                         [i = i](const auto& nap) { return nap.first == i; })) {
          radio->sleep();
        }
        rig->simulator.scheduleAt(wakeAt, [radio] { radio->wake(); });
      }
      for (std::size_t k = 0; k < senders.size(); ++k) {
        rig->sendAt(senders[k], t0 + 150e-9 * static_cast<double>(k));
      }
      rig->simulator.run(t0 + 0.01);
      // The next burst starts with every radio awake.
      for (auto& radio : rig->radios) radio->wake();
    }
    ASSERT_EQ(armed.sent.size() - sentBefore, senders.size())
        << "burst " << bursts;
    ASSERT_EQ(callSet(calls), armed.decodeRangeCalls(sentBefore))
        << "burst " << bursts;
    if (faulted) {
      for (std::size_t k = decodedBefore; k < armed.decoded.size(); ++k) {
        const auto [receiver, at, sender, uid] = armed.decoded[k];
        const auto tx = std::find_if(
            armed.sent.begin() + static_cast<std::ptrdiff_t>(sentBefore),
            armed.sent.end(),
            [sender = sender](const MoverRig::Sent& s) {
              return s.sender == sender;
            });
        ASSERT_NE(tx, armed.sent.end()) << "burst " << bursts;
        const std::vector<int> near = armed.inRangeOf(sender, tx->at);
        EXPECT_TRUE(std::binary_search(near.begin(), near.end(), receiver))
            << "burst " << bursts;
        EXPECT_EQ(at, armed.rxEnd(sender, receiver, tx->at))
            << "burst " << bursts;
        EXPECT_FALSE(verdicts.dropDelivery(tx->number, sender, receiver))
            << "burst " << bursts;
      }
    } else {
      ASSERT_EQ(counted.decoded, armed.decoded) << "burst " << bursts;
      ASSERT_EQ(counted.simulator.eventsExecuted(),
                armed.simulator.eventsExecuted())
          << "burst " << bursts;
    }
    after = legEnd + 0.05;
    ++bursts;
  }
  EXPECT_EQ(bursts, 60);
  EXPECT_GT(armed.decoded.size(), 100u);
  if (faulted) {
    EXPECT_GT(armed.channel->deliveriesCorrupted(), 0u);
  } else {
    expectSameRun(counted, armed);
    EXPECT_EQ(armed.channel->deliveriesCorrupted(), 0u);
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

// --- Static fields: geometry and the zero-loss armed run ------------------

// One channel's worth of state for the rigs below: radios parked at random
// on static legs, so the grid buckets them.
struct FanoutWorld {
  FanoutWorld(int radioCount, double interferenceRange, std::uint64_t seed)
      : simulator(seed) {
    ChannelConfig config;
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

  Radio& radio(int id) { return *radios[static_cast<std::size_t>(id)]; }

  /// Broadcast from radio `src` now; once sent, it is listed in `sent`
  /// as (transmission number, sender).
  void send(int src) {
    const std::uint64_t number = channel->framesTransmitted();
    radio(src).transmit(broadcastFrame(src), kAirtime);
    if (channel->framesTransmitted() > number) sent.emplace_back(number, src);
  }

  /// Broadcast from radio `src` and drain the simulator; each frame is
  /// isolated in time so receptions never collide.
  void broadcastAndSettle(int src) {
    send(src);
    simulator.run(simulator.now() + 1.0);
  }

  /// The radios in decode range of `src`, ascending, by distanceSquaredTo
  /// over the drawn positions.
  std::vector<int> inRangeOf(int src) const {
    const double range = channel->config().rangeMeters;
    std::vector<int> near;
    for (int id = 0; id < static_cast<int>(positions.size()); ++id) {
      if (id != src && distanceSquared(src, id) <= range * range) {
        near.push_back(id);
      }
    }
    return near;
  }

  /// What the geometry says an isolated broadcast from `src` at `at`
  /// delivers: one frame at each awake radio in range whose delivery
  /// `corrupts` spares, ending at sent-at + distance / c + airtime;
  /// ascending.
  template <class Corrupts>
  std::vector<std::pair<int, double>> expectedDeliveries(int src, sim::Time at,
                                                         Corrupts corrupts) {
    std::vector<std::pair<int, double>> expected;
    for (int id : inRangeOf(src)) {
      if (radio(id).sleeping() || corrupts(id)) continue;
      expected.emplace_back(
          id, (at + std::sqrt(distanceSquared(src, id)) /
                        channel->config().propagationSpeed) +
                  kAirtime);
    }
    return expected;
  }

  /// The deliveries since `deliveries` held `from` of them, ascending.
  std::vector<std::pair<int, double>> deliveriesSince(std::size_t from) const {
    std::vector<std::pair<int, double>> since(
        deliveries.begin() + static_cast<std::ptrdiff_t>(from),
        deliveries.end());
    std::sort(since.begin(), since.end());
    return since;
  }

  /// The fault-slot calls the geometry predicts for the transmissions
  /// sent since `sent` held `from` of them, sorted.
  FaultCalls decodeRangeCalls(std::size_t from) const {
    FaultCalls calls;
    for (std::size_t k = from; k < sent.size(); ++k) {
      const auto [number, src] = sent[k];
      for (int id : inRangeOf(src)) calls.emplace_back(number, src, id);
    }
    std::sort(calls.begin(), calls.end());
    return calls;
  }

  double distanceSquared(int a, int b) const {
    return positions[static_cast<std::size_t>(a)].distanceSquaredTo(
        positions[static_cast<std::size_t>(b)]);
  }

  sim::Simulator simulator;
  std::optional<Channel> channel;
  std::vector<geo::Vec2> positions;
  std::vector<std::unique_ptr<energy::Battery>> batteries;
  std::vector<std::unique_ptr<Radio>> radios;
  std::vector<std::pair<int, double>> deliveries;  ///< (receiver, rx-end time)
  std::vector<std::pair<std::uint64_t, int>> sent;  ///< (number, sender)
};

// The tests below keep their "BruteForce" names so that their ids stay
// stable; their references are geometry and the zero-loss armed run.
class FanoutDifferential : public ::testing::TestWithParam<std::uint64_t> {};

// Every broadcast decodes at exactly the radios in range, at the
// geometry's rx-end times, and counts each of them as scheduled. The
// interference ring is wider than decode range, so the scan's reach is
// max(range, interference) and it must still decode only within range.
TEST_P(FanoutDifferential, IndexedMatchesBruteForce) {
  const std::uint64_t seed = GetParam();
  const int radioCount = 60;
  FanoutWorld world(radioCount, 450.0, seed);
  for (int src = 0; src < radioCount; ++src) {
    const auto expected = world.expectedDeliveries(
        src, world.simulator.now(), [](int) { return false; });
    const std::size_t before = world.deliveries.size();
    const std::uint64_t scheduled = world.channel->deliveriesScheduled();
    world.broadcastAndSettle(src);
    ASSERT_EQ(world.deliveriesSince(before), expected)
        << "after tx from " << src;
    ASSERT_EQ(world.channel->deliveriesScheduled() - scheduled,
              world.inRangeOf(src).size())
        << "after tx from " << src;
  }
  EXPECT_GT(world.deliveries.size(), 0u);
}

// With the fault slot armed, each transmission asks about exactly the
// deliveries in decode range, sleepers included, each once, whatever order
// the buckets are visited in; the keyed verdicts, recomputed here, decide
// which awake receivers decode.
TEST_P(FanoutDifferential, FaultArmedIndexedMatchesBruteForce) {
  const std::uint64_t seed = GetParam();
  const int radioCount = 60;
  constexpr double kLoss = 0.3;
  FanoutWorld world(radioCount, 450.0, seed);
  FaultCalls calls;
  armKeyedFault(*world.channel, kLoss, seed * 7 + 1, calls);
  fault::IidLossModel verdicts(kLoss, seed * 7 + 1);
  for (int i = 0; i < radioCount; i += 4) world.radio(i).sleep();
  std::uint64_t corrupted = 0;
  for (int src = 1; src < radioCount; ++src) {
    if (src % 4 == 0) continue;  // asleep: cannot transmit
    const std::uint64_t number = world.channel->framesTransmitted();
    const auto corrupts = [&](int id) {
      return verdicts.dropDelivery(number, src, id);
    };
    const auto expected =
        world.expectedDeliveries(src, world.simulator.now(), corrupts);
    for (int id : world.inRangeOf(src)) corrupted += corrupts(id) ? 1 : 0;
    const std::size_t sentBefore = world.sent.size();
    const std::size_t before = world.deliveries.size();
    calls.clear();
    world.broadcastAndSettle(src);
    ASSERT_EQ(callSet(calls), world.decodeRangeCalls(sentBefore))
        << "after tx from " << src;
    ASSERT_EQ(world.deliveriesSince(before), expected)
        << "after tx from " << src;
  }
  EXPECT_EQ(world.channel->deliveriesCorrupted(), corrupted);
  EXPECT_GT(corrupted, 0u);
  EXPECT_GT(world.deliveries.size(), 0u);
}

// Bursts of transmissions a few hundred nanoseconds apart, so several are
// in flight towards the same sleepers at once, with sleepers waking at
// random instants inside the flight windows: the unarmed run's counted
// arrivals replay exactly as a zero-loss armed run's parked ones, and the
// armed slot is asked about exactly the geometry's decode range.
TEST_P(FanoutDifferential, OverlappingFlightsWithWakesMatchBruteForce) {
  const std::uint64_t seed = GetParam();
  const int radioCount = 60;
  FanoutWorld counted(radioCount, 450.0, seed);
  FanoutWorld armed(radioCount, 450.0, seed);
  FaultCalls calls;
  armKeyedFault(*armed.channel, 0.0, seed * 7 + 1, calls);
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
    const std::size_t sentBefore = armed.sent.size();
    calls.clear();
    for (FanoutWorld* world : {&counted, &armed}) {
      const sim::Time t0 = world->simulator.now();
      for (const auto& [i, wakeAt] : wakes) {
        Radio& radio = world->radio(i);
        radio.sleep();
        world->simulator.scheduleAt(t0 + wakeAt, [&radio] { radio.wake(); });
      }
      for (std::size_t k = 0; k < senders.size(); ++k) {
        const int src = senders[k];
        world->simulator.scheduleAt(t0 + 150e-9 * static_cast<double>(k),
                                    [world, src] { world->send(src); });
      }
      world->simulator.run(t0 + 1.0);
    }
    ASSERT_EQ(counted.deliveries, armed.deliveries) << "after burst " << burst;
    ASSERT_EQ(counted.simulator.eventsExecuted(),
              armed.simulator.eventsExecuted());
    ASSERT_EQ(callSet(calls), armed.decodeRangeCalls(sentBefore))
        << "after burst " << burst;
  }
  EXPECT_EQ(counted.simulator.reservedSequences(),
            armed.simulator.reservedSequences());
  EXPECT_EQ(counted.channel->deliveriesScheduled(),
            armed.channel->deliveriesScheduled());
  EXPECT_EQ(counted.channel->deferredArrivals(),
            armed.channel->deferredArrivals());
  EXPECT_GT(counted.deliveries.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FanoutDifferential,
                         ::testing::Values(3u, 17u, 2026u));

}  // namespace
}  // namespace ecgrid::phy

// --- Whole-scenario differential ------------------------------------------

namespace ecgrid::harness {
namespace {

// What an unarmed run and a zero-loss armed run of one scenario must agree
// on: every frame, delivery, battery sample and death, exactly.
void expectBitIdentical(const ScenarioResult& counted,
                        const ScenarioResult& armed) {
  EXPECT_EQ(counted.eventsExecuted, armed.eventsExecuted);
  EXPECT_EQ(counted.packetsSent, armed.packetsSent);
  EXPECT_EQ(counted.packetsReceived, armed.packetsReceived);
  EXPECT_EQ(counted.metrics, armed.metrics);
  EXPECT_EQ(counted.deathTimes, armed.deathTimes);
  EXPECT_EQ(counted.latencies, armed.latencies);
  ASSERT_EQ(counted.aen.points().size(), armed.aen.points().size());
  EXPECT_EQ(counted.aen.points(), armed.aen.points());
  EXPECT_EQ(counted.aliveFraction.points(), armed.aliveFraction.points());
  EXPECT_EQ(counted.awakeFraction.points(), armed.awakeFraction.points());
}

/// ECGRID with mobility and an interference ring: a full run exercises
/// the grid's lazy re-bucketing, death-time detaches, slot reuse and many
/// sleepers, which the unarmed scan counts and rebuilds on a wake.
ScenarioConfig mobileRingScenario(std::uint64_t seed) {
  ScenarioConfig config;
  config.protocol = ProtocolKind::kEcgrid;
  config.hostCount = 30;
  config.fieldSize = 700.0;
  config.duration = 150.0;
  config.maxSpeed = 10.0;  // fast: many bucket crossings
  config.interferenceRangeFactor = 2.0;
  config.flowCount = 4;
  config.seed = seed;
  return config;
}

// An armed fault slot parks every sleeper's arrival at transmit time, with
// its verdict; an i.i.d. slot with loss 0 corrupts none, so the armed run
// must equal the unarmed one bit for bit.
TEST(ScenarioDifferential, CountedSleepersAreBitIdenticalToZeroLossArmed) {
  ScenarioConfig config = mobileRingScenario(5);
  const ScenarioResult counted = runScenario(config);
  config.fault.channel.kind = fault::ChannelErrorKind::kIid;
  config.fault.channel.lossProbability = 0.0;
  const ScenarioResult armed = runScenario(config);
  EXPECT_EQ(obs::metricOr(armed.metrics, "phy.deliveries_corrupted"), 0.0);
  expectBitIdentical(counted, armed);
}

// The same with a Gilbert–Elliott slot that changes state but never
// corrupts (loss 0 in both states): its per-receiver Markov chains advance
// once per delivery in decode range, sleepers included, and must leave no
// trace on the run.
TEST(ScenarioDifferential, CountedSleepersAreBitIdenticalToZeroLossChain) {
  ScenarioConfig config = mobileRingScenario(6);
  const ScenarioResult counted = runScenario(config);
  config.fault.channel.kind = fault::ChannelErrorKind::kGilbertElliott;
  config.fault.channel.pGoodToBad = 0.05;
  config.fault.channel.pBadToGood = 0.3;
  config.fault.channel.lossBad = 0.0;
  const ScenarioResult armed = runScenario(config);
  EXPECT_EQ(obs::metricOr(armed.metrics, "phy.deliveries_corrupted"), 0.0);
  expectBitIdentical(counted, armed);
}

}  // namespace
}  // namespace ecgrid::harness
