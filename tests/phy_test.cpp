// Tests for the PHY layer: radio state machine + energy, unit-disk
// channel, collision semantics, NAV, the sleeper skip with its wake
// replay, shared frames, and the RAS paging channel.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "energy/battery.hpp"
#include "mobility/mobility_model.hpp"
#include "phy/channel.hpp"
#include "phy/frame.hpp"
#include "phy/paging.hpp"
#include "phy/radio.hpp"
#include "sim/simulator.hpp"

namespace ecgrid::phy {
namespace {

class StubHeader final : public net::Header {
 public:
  explicit StubHeader(int bytes = 66) : bytes_(bytes) {}
  int bytes() const override { return bytes_; }
  const char* name() const override { return "STUB"; }

 private:
  int bytes_;
};

net::Packet makeFrame(net::NodeId src, net::NodeId dst, int bytes = 66) {
  net::Packet frame;
  frame.macSrc = src;
  frame.macDst = dst;
  frame.header = std::make_shared<StubHeader>(bytes);
  return frame;
}

/// Two-radio rig at a configurable distance.
struct Rig {
  sim::Simulator simulator;
  energy::PowerProfile profile;
  phy::Channel channel{simulator, phy::ChannelConfig{}};
  energy::Battery batteryA{500.0};
  energy::Battery batteryB{500.0};
  Radio a{simulator, batteryA, energy::PowerProfile{}, 0};
  Radio b{simulator, batteryB, energy::PowerProfile{}, 1};

  explicit Rig(double distance = 100.0) {
    a.attachChannel(&channel);
    b.attachChannel(&channel);
    channel.attach(&a, [] { return geo::Vec2{0.0, 0.0}; });
    channel.attach(&b, [distance] { return geo::Vec2{distance, 0.0}; });
  }
};

TEST(Channel, FrameAirtimeIncludesPreamble) {
  sim::Simulator simulator;
  Channel channel(simulator, ChannelConfig{});
  // 546-byte frame at 2 Mbps: 192 µs preamble + 2184 µs payload.
  EXPECT_NEAR(channel.frameAirtime(546), 192e-6 + 546 * 8 / 2e6, 1e-12);
}

TEST(Radio, DeliversUnicastWithinRange) {
  Rig rig(100.0);
  net::Packet received;
  int count = 0;
  rig.b.setFrameCallback([&](const net::Packet& f) {
    received = f;
    ++count;
  });
  rig.a.transmit(makeFrame(0, 1), 1e-3);
  rig.simulator.run(1.0);
  EXPECT_EQ(count, 1);
  EXPECT_EQ(received.macSrc, 0);
  EXPECT_GT(received.uid, 0u);
}

TEST(Radio, NothingBeyondUnitDisk) {
  Rig rig(251.0);
  int count = 0;
  rig.b.setFrameCallback([&](const net::Packet&) { ++count; });
  rig.a.transmit(makeFrame(0, 1), 1e-3);
  rig.simulator.run(1.0);
  EXPECT_EQ(count, 0);
}

TEST(Radio, BroadcastReachesEveryoneInRange) {
  sim::Simulator simulator;
  Channel channel(simulator, ChannelConfig{});
  energy::Battery batteries[3] = {energy::Battery(500.0),
                                  energy::Battery(500.0),
                                  energy::Battery(500.0)};
  std::vector<std::unique_ptr<Radio>> radios;
  int received = 0;
  for (int i = 0; i < 3; ++i) {
    radios.push_back(std::make_unique<Radio>(simulator, batteries[i],
                                             energy::PowerProfile{}, i));
    radios.back()->attachChannel(&channel);
    double x = i * 200.0;  // 0, 200 (in range), 400 (also in range of 200)
    channel.attach(radios.back().get(), [x] { return geo::Vec2{x, 0.0}; });
    radios.back()->setFrameCallback([&](const net::Packet&) { ++received; });
  }
  radios[1]->transmit(makeFrame(1, net::kBroadcastId), 1e-3);
  simulator.run(1.0);
  EXPECT_EQ(received, 2);  // both neighbours of the middle radio
}

TEST(Radio, UnicastForOthersIsNotDeliveredUp) {
  Rig rig(100.0);
  int count = 0;
  rig.b.setFrameCallback([&](const net::Packet&) { ++count; });
  rig.a.transmit(makeFrame(0, 99), 1e-3);  // addressed elsewhere
  rig.simulator.run(1.0);
  EXPECT_EQ(count, 0);
}

TEST(Radio, OverlappingTransmissionsCollide) {
  sim::Simulator simulator;
  Channel channel(simulator, ChannelConfig{});
  energy::Battery b0(500.0), b1(500.0), b2(500.0);
  Radio left(simulator, b0, energy::PowerProfile{}, 0);
  Radio mid(simulator, b1, energy::PowerProfile{}, 1);
  Radio right(simulator, b2, energy::PowerProfile{}, 2);
  for (Radio* r : {&left, &mid, &right}) r->attachChannel(&channel);
  channel.attach(&left, [] { return geo::Vec2{0.0, 0.0}; });
  channel.attach(&mid, [] { return geo::Vec2{240.0, 0.0}; });
  channel.attach(&right, [] { return geo::Vec2{480.0, 0.0}; });
  // left and right are hidden from each other; both transmit to mid.
  int delivered = 0;
  mid.setFrameCallback([&](const net::Packet&) { ++delivered; });
  left.transmit(makeFrame(0, 1), 2e-3);
  simulator.schedule(0.5e-3, [&] { right.transmit(makeFrame(2, 1), 2e-3); });
  simulator.run(1.0);
  EXPECT_EQ(delivered, 0);  // no capture: both corrupted
  EXPECT_EQ(mid.state(), RadioState::kIdle);
}

TEST(Radio, SequentialTransmissionsBothDecode) {
  Rig rig(100.0);
  int delivered = 0;
  rig.b.setFrameCallback([&](const net::Packet&) { ++delivered; });
  rig.a.transmit(makeFrame(0, 1), 1e-3);
  rig.simulator.schedule(2e-3, [&] { rig.a.transmit(makeFrame(0, 1), 1e-3); });
  rig.simulator.run(1.0);
  EXPECT_EQ(delivered, 2);
}

TEST(Radio, SleepingRadioHearsNothing) {
  Rig rig(100.0);
  int delivered = 0;
  rig.b.setFrameCallback([&](const net::Packet&) { ++delivered; });
  rig.b.sleep();
  EXPECT_TRUE(rig.b.sleeping());
  rig.a.transmit(makeFrame(0, 1), 1e-3);
  rig.simulator.run(1.0);
  EXPECT_EQ(delivered, 0);
  rig.b.wake();
  EXPECT_EQ(rig.b.state(), RadioState::kIdle);
}

TEST(Radio, SleepDuringTransmissionIsDeferred) {
  Rig rig(100.0);
  rig.a.transmit(makeFrame(0, 1), 2e-3);
  rig.a.sleep();
  EXPECT_EQ(rig.a.state(), RadioState::kTx);  // still finishing
  rig.simulator.run(1.0);
  EXPECT_TRUE(rig.a.sleeping());
}

TEST(Radio, EnergyAccountingTracksStates) {
  Rig rig(100.0);
  // Idle for 1 s, then sleep for 1 s.
  rig.simulator.schedule(1.0, [&] { rig.b.sleep(); });
  rig.simulator.run(2.0);
  double consumed = rig.batteryB.consumedJ(2.0);
  EXPECT_NEAR(consumed, 0.863 + 0.163, 1e-6);
}

TEST(Radio, TransmissionCostsTxPower) {
  Rig rig(100.0);
  rig.a.transmit(makeFrame(0, 1), 0.5);
  rig.simulator.run(1.0);
  // 0.5 s at tx (1.400+GPS) + 0.5 s idle (0.830+GPS)
  EXPECT_NEAR(rig.batteryA.consumedJ(1.0), 0.5 * 1.433 + 0.5 * 0.863, 1e-6);
}

TEST(Radio, DiesExactlyAtDepletion) {
  sim::Simulator simulator;
  Channel channel(simulator, ChannelConfig{});
  energy::Battery small(0.863);  // exactly 1 s of idle+GPS
  Radio radio(simulator, small, energy::PowerProfile{}, 7);
  radio.attachChannel(&channel);
  channel.attach(&radio, [] { return geo::Vec2{}; });
  sim::Time died = -1.0;
  radio.setDeathCallback([&] { died = simulator.now(); });
  simulator.run(10.0);
  EXPECT_NEAR(died, 1.0, 1e-9);
  EXPECT_TRUE(radio.dead());
  // Dead radios hear nothing and transmit nothing.
  EXPECT_EQ(radio.state(), RadioState::kOff);
}

// The depletion timer is a parked queue entry (sim::EventQueue::rearm):
// it waits at the battery's floor and surfaces to its due key. A radio
// flipping Idle/Rx/Tx for seconds, with a quiet spell long enough for the
// entry to surface, still dies at the very instant recorded before the
// timer was parked (printed with %.17g, so the literal is exact).
TEST(Radio, FlippingRadioDiesAtThePinnedInstant) {
  sim::Simulator simulator;
  Channel channel(simulator, ChannelConfig{});
  energy::Battery small(5.0);
  energy::Battery big(500.0);
  Radio subject(simulator, small, energy::PowerProfile{}, 0);
  Radio partner(simulator, big, energy::PowerProfile{}, 1);
  channel.attach(&subject, [] { return geo::Vec2{0.0, 0.0}; });
  channel.attach(&partner, [] { return geo::Vec2{100.0, 0.0}; });
  sim::Time died = -1.0;
  std::uint64_t surfacedBeforeDeath = 0;
  subject.setDeathCallback([&] {
    died = simulator.now();
    surfacedBeforeDeath = simulator.parkedSurfaced();
  });
  // The partner's frames flip the subject Idle -> Rx -> Idle; its own
  // frames flip it to Tx. Nothing happens in [1, 4).
  for (int k = 0; k < 600; ++k) {
    const sim::Time at = 0.037 * k;
    if (at >= 1.0 && at < 4.0) continue;
    simulator.scheduleAt(
        at, [&] { partner.transmit(makeFrame(1, net::kBroadcastId), 1e-3); });
  }
  for (int k = 1; k < 200; ++k) {
    const sim::Time at = 0.101 * k;
    if (at >= 1.0 && at < 4.0) continue;
    simulator.scheduleAt(
        at, [&] { subject.transmit(makeFrame(0, net::kBroadcastId), 2e-3); });
  }
  simulator.run(20.0);
  EXPECT_EQ(died, 5.7446234723831653);
  EXPECT_EQ(simulator.eventsExecuted(), 1700u);
  EXPECT_GE(surfacedBeforeDeath, 1u);
  EXPECT_TRUE(subject.dead());
}

TEST(Radio, MediumIdleAtCoversReceptionsAndNav) {
  Rig rig(100.0);
  rig.b.setNavGuard(400e-6);
  // a sends a unicast addressed to someone else: b overhears and must
  // reserve the ACK gap (NAV).
  rig.a.transmit(makeFrame(0, 99), 1e-3);
  rig.simulator.schedule(0.5e-3, [&] {
    EXPECT_GT(rig.b.mediumIdleAt(), rig.simulator.now());
    // Reception ends at 1 ms (+prop); NAV extends ~400 µs beyond.
    EXPECT_NEAR(rig.b.mediumIdleAt(), 1e-3 + 400e-6, 1e-5);
  });
  rig.simulator.run(1.0);
}

// --- interference ring --------------------------------------------------

TEST(Radio, InterferenceCorruptsOngoingReception) {
  Rig rig(100.0);
  int delivered = 0;
  rig.b.setFrameCallback([&](const net::Packet&) { ++delivered; });
  rig.a.transmit(makeFrame(0, 1), 2e-3);
  rig.simulator.schedule(0.5e-3, [&] { rig.b.beginInterference(1e-3); });
  rig.simulator.run(1.0);
  EXPECT_EQ(delivered, 0);
}

TEST(Radio, InterferenceCorruptsLaterArrivalsWhileItLasts) {
  Rig rig(100.0);
  int delivered = 0;
  rig.b.setFrameCallback([&](const net::Packet&) { ++delivered; });
  rig.b.beginInterference(5e-3);
  rig.simulator.schedule(1e-3, [&] { rig.a.transmit(makeFrame(0, 1), 1e-3); });
  // A second frame after the interference ends decodes fine.
  rig.simulator.schedule(10e-3,
                         [&] { rig.a.transmit(makeFrame(0, 1), 1e-3); });
  rig.simulator.run(1.0);
  EXPECT_EQ(delivered, 1);
}

TEST(Radio, InterferenceHoldsCarrierSense) {
  Rig rig(100.0);
  rig.b.beginInterference(3e-3);
  EXPECT_GE(rig.b.mediumIdleAt(), 3e-3);
}

TEST(Channel, InterferenceRingReachesPastDecodeRange) {
  sim::Simulator simulator;
  ChannelConfig config;
  config.interferenceRangeMeters = 500.0;
  Channel channel(simulator, config);
  energy::Battery b0(500.0), b1(500.0), b2(500.0);
  Radio tx(simulator, b0, energy::PowerProfile{}, 0);
  Radio nearRx(simulator, b1, energy::PowerProfile{}, 1);
  Radio farRx(simulator, b2, energy::PowerProfile{}, 2);
  for (Radio* r : {&tx, &nearRx, &farRx}) r->attachChannel(&channel);
  channel.attach(&tx, [] { return geo::Vec2{0.0, 0.0}; });
  channel.attach(&nearRx, [] { return geo::Vec2{400.0, 0.0}; });
  channel.attach(&farRx, [] { return geo::Vec2{400.0, 0.0}; });
  // nearRx also has a legitimate sender within decode range.
  energy::Battery b3(500.0);
  Radio legit(simulator, b3, energy::PowerProfile{}, 3);
  legit.attachChannel(&channel);
  channel.attach(&legit, [] { return geo::Vec2{450.0, 0.0}; });

  int delivered = 0;
  nearRx.setFrameCallback([&](const net::Packet&) { ++delivered; });
  // The distant (400 m) transmitter cannot be decoded, but its energy
  // ruins the legitimate 50 m reception that overlaps it.
  tx.transmit(makeFrame(0, net::kBroadcastId), 3e-3);
  simulator.schedule(1e-3, [&] { legit.transmit(makeFrame(3, 1), 1e-3); });
  simulator.run(1.0);
  EXPECT_EQ(delivered, 0);
}

// --- sleeper skip and wake replay --------------------------------------

// Rig distance 100 m: the frame is in flight for 100 / 3e8 ≈ 333 ns.
constexpr double kFlight100m = 100.0 / 3e8;

TEST(Channel, WakeInsideFlightWindowReceivesAtTheSameInstant) {
  Rig rig(100.0);
  sim::Time receivedAt = -1.0;
  rig.b.setFrameCallback([&](const net::Packet&) {
    receivedAt = rig.simulator.now();
  });
  rig.b.sleep();
  rig.a.transmit(makeFrame(0, 1), 1e-3);
  EXPECT_EQ(rig.channel.deferredArrivals(), 1u);
  rig.simulator.schedule(kFlight100m / 2.0, [&] { rig.b.wake(); });
  rig.simulator.run(1.0);
  // Arrival at transmit time + flight, reception over one airtime: the
  // instant an always-scheduled delivery would have produced.
  EXPECT_EQ(receivedAt, (0.0 + kFlight100m) + 1e-3);
}

// The channel caches each radio's motion leg and re-reads it once the clock
// reaches the leg's end. A transmission at exactly a leg boundary must see
// the new leg: here the receiver's script jumps at t = 1, so extrapolating
// the old leg would put it 120 m further away.
TEST(Channel, TransmissionAtALegEndReadsTheNewLeg) {
  sim::Simulator simulator;
  Channel channel(simulator, ChannelConfig{});
  energy::Battery batteryTx(500.0);
  energy::Battery batteryRx(500.0);
  Radio tx(simulator, batteryTx, energy::PowerProfile{}, 0);
  Radio rx(simulator, batteryRx, energy::PowerProfile{}, 1);
  tx.attachChannel(&channel);
  rx.attachChannel(&channel);
  mobility::ScriptedMobility script({
      {0.0, {100.0, 0.0}, {50.0, 0.0}},
      {1.0, {30.0, 0.0}, {}},
  });
  channel.attach(&tx, [] { return geo::Vec2{0.0, 0.0}; });
  channel.attach(&rx, [&script](sim::Time t) { return script.legAt(t); });
  std::vector<sim::Time> receivedAt;
  rx.setFrameCallback(
      [&](const net::Packet&) { receivedAt.push_back(simulator.now()); });
  constexpr sim::Time kAirtime = 1e-4;
  // Arrival from a fresh position read, plus one airtime.
  auto expectedEnd = [&](sim::Time at) {
    const double distSq =
        geo::Vec2{0.0, 0.0}.distanceSquaredTo(script.positionAt(at));
    return (at + std::sqrt(distSq) / channel.config().propagationSpeed) +
           kAirtime;
  };
  for (const sim::Time at : {0.5, 1.0}) {
    simulator.scheduleAt(at, [&] {
      tx.transmit(makeFrame(0, net::kBroadcastId), kAirtime);
    });
  }
  simulator.run(2.0);
  ASSERT_EQ(receivedAt.size(), 2u);
  EXPECT_EQ(receivedAt[0], expectedEnd(0.5));
  EXPECT_EQ(receivedAt[1], expectedEnd(1.0));
  EXPECT_EQ(script.positionAt(1.0), (geo::Vec2{30.0, 0.0}));
}

TEST(Channel, WakeAfterArrivalMissesTheFrame) {
  Rig rig(100.0);
  int delivered = 0;
  rig.b.setFrameCallback([&](const net::Packet&) { ++delivered; });
  rig.b.sleep();
  rig.a.transmit(makeFrame(0, 1), 1e-3);
  rig.simulator.schedule(2.0 * kFlight100m, [&] { rig.b.wake(); });
  rig.simulator.run(1.0);
  EXPECT_EQ(delivered, 0);
  EXPECT_EQ(rig.b.state(), RadioState::kIdle);
  EXPECT_EQ(rig.channel.deferredArrivals(), 0u);
}

TEST(Channel, WakeAtTheArrivalInstantFollowsEventOrder) {
  // Arrival and wake at the very same instant: the delivery event would
  // have been queued at transmit time, so a wake scheduled before the
  // transmission runs first (frame heard), one scheduled after runs
  // second (frame missed) — exactly as with an always-scheduled delivery.
  for (bool wakeFirst : {true, false}) {
    Rig rig(100.0);
    int delivered = 0;
    rig.b.setFrameCallback([&](const net::Packet&) { ++delivered; });
    rig.b.sleep();
    rig.simulator.schedule(1.0, [&] {
      rig.a.transmit(makeFrame(0, 1), 1e-3);
      const sim::Time arrival = rig.simulator.now() + kFlight100m;
      if (!wakeFirst) {
        rig.simulator.scheduleAt(arrival, [&] { rig.b.wake(); });
      }
    });
    if (wakeFirst) {
      rig.simulator.scheduleAt(1.0 + kFlight100m, [&] { rig.b.wake(); });
    }
    rig.simulator.run(2.0);
    EXPECT_EQ(delivered, wakeFirst ? 1 : 0) << "wakeFirst=" << wakeFirst;
  }
}

TEST(Channel, SleeperThroughTheWholeFlightCostsNoEvents) {
  for (bool asleep : {false, true}) {
    Rig rig(100.0);
    if (asleep) rig.b.sleep();
    rig.a.transmit(makeFrame(0, 1), 1e-3);
    rig.simulator.run(1.0);
    // Awake: phy/deliver, phy/rx_end, phy/tx_end. Asleep: phy/tx_end only.
    EXPECT_EQ(rig.simulator.eventsExecuted(), asleep ? 1u : 3u);
    // The in-range potential receiver is counted either way.
    EXPECT_EQ(rig.channel.deliveriesScheduled(), 1u);
  }
}

TEST(Channel, DeliveryFaultSeesTheSameCallsWithSleepers) {
  using Calls = std::vector<std::pair<net::NodeId, net::NodeId>>;
  auto run = [](bool withSleepers) {
    sim::Simulator simulator;
    Calls calls;
    ChannelConfig config;
    config.deliveryFault = [&calls](net::NodeId from, net::NodeId to) {
      calls.emplace_back(from, to);
      return (from + to) % 3 == 0;
    };
    Channel channel(simulator, config);
    std::vector<std::unique_ptr<energy::Battery>> batteries;
    std::vector<std::unique_ptr<Radio>> radios;
    for (int i = 0; i < 6; ++i) {
      batteries.push_back(std::make_unique<energy::Battery>(500.0));
      radios.push_back(std::make_unique<Radio>(simulator, *batteries.back(),
                                               energy::PowerProfile{}, i));
      radios.back()->attachChannel(&channel);
      const double x = 40.0 * i;
      channel.attach(radios.back().get(), [x] { return geo::Vec2{x, 0.0}; });
    }
    if (withSleepers) {  // listeners only; the even radios transmit
      radios[1]->sleep();
      radios[5]->sleep();
    }
    for (int i = 0; i < 6; i += 2) {
      simulator.schedule(0.01 * i, [&radios, i] {
        radios[static_cast<std::size_t>(i)]->transmit(
            makeFrame(i, net::kBroadcastId), 1e-3);
      });
    }
    simulator.run(1.0);
    return std::make_pair(calls, channel.deliveriesCorrupted());
  };
  const auto awake = run(false);
  const auto sleepy = run(true);
  EXPECT_FALSE(awake.first.empty());
  EXPECT_EQ(sleepy.first, awake.first);
  EXPECT_EQ(sleepy.second, awake.second);
}

TEST(Channel, ReplayedInterferenceStillCorruptsReceptionInProgress) {
  // tx sits 400 m from rx: inside the 500 m interference ring, outside
  // decode range, so its energy lands 1.33 µs after it starts. rx sleeps
  // at that moment. legit, 50 m from rx, starts a frame to rx soon after.
  auto delivered = [](sim::Time wakeAt, sim::Time legitAt) {
    sim::Simulator simulator;
    ChannelConfig config;
    config.interferenceRangeMeters = 500.0;
    Channel channel(simulator, config);
    energy::Battery b0(500.0), b1(500.0), b2(500.0);
    Radio tx(simulator, b0, energy::PowerProfile{}, 0);
    Radio rx(simulator, b1, energy::PowerProfile{}, 1);
    Radio legit(simulator, b2, energy::PowerProfile{}, 2);
    for (Radio* r : {&tx, &rx, &legit}) r->attachChannel(&channel);
    channel.attach(&tx, [] { return geo::Vec2{0.0, 0.0}; });
    channel.attach(&rx, [] { return geo::Vec2{400.0, 0.0}; });
    channel.attach(&legit, [] { return geo::Vec2{450.0, 0.0}; });
    int count = 0;
    rx.setFrameCallback([&](const net::Packet&) { ++count; });
    rx.sleep();
    tx.transmit(makeFrame(0, net::kBroadcastId), 3e-3);
    simulator.schedule(wakeAt, [&] { rx.wake(); });
    simulator.schedule(legitAt,
                       [&] { legit.transmit(makeFrame(2, 1), 1e-3); });
    simulator.run(1.0);
    return count;
  };
  // Woken in flight: the replayed interference lands on the reception of
  // legit's frame (which started at ~0.37 µs) and ruins it.
  EXPECT_EQ(delivered(0.1e-6, 0.2e-6), 0);
  // Woken after the energy landed: rx never heard it; legit decodes.
  EXPECT_EQ(delivered(2e-6, 2.1e-6), 1);
}

/// Scripted broadcasts, sleeps and wakes among radios scattered over a
/// field; returns every decoded frame as (time, receiver, uid) plus the
/// executed-event count.
struct FanOutTrace {
  std::vector<std::tuple<sim::Time, net::NodeId, std::uint64_t>> decoded;
  std::uint64_t events = 0;
  bool operator==(const FanOutTrace&) const = default;
};

FanOutTrace runSleepyFanOut(bool useSpatialIndex) {
  sim::Simulator simulator(5);
  ChannelConfig config;
  config.useSpatialIndex = useSpatialIndex;
  config.interferenceRangeMeters = 400.0;
  Channel channel(simulator, config);
  sim::RngStream rng = simulator.rng().stream("test/fanout");
  constexpr int kRadios = 40;
  std::vector<std::unique_ptr<energy::Battery>> batteries;
  std::vector<std::unique_ptr<Radio>> radios;
  FanOutTrace trace;
  for (int i = 0; i < kRadios; ++i) {
    batteries.push_back(std::make_unique<energy::Battery>(500.0));
    radios.push_back(std::make_unique<Radio>(simulator, *batteries.back(),
                                             energy::PowerProfile{}, i));
    Radio& radio = *radios.back();
    radio.attachChannel(&channel);
    const geo::Vec2 at{rng.uniform(0.0, 800.0), rng.uniform(0.0, 800.0)};
    channel.attach(&radio, [at] { return at; });
    radio.setFrameCallback([&trace, &simulator, i](const net::Packet& f) {
      trace.decoded.emplace_back(simulator.now(), i, f.uid);
    });
    if (i % 3 == 0) radio.sleep();
  }
  for (int k = 0; k < 400; ++k) {
    const sim::Time at = rng.uniform(0.0, 0.5);
    Radio* radio = radios[static_cast<std::size_t>(
                              rng.uniformInt(0, kRadios - 1))]
                       .get();
    const double action = rng.uniform(0.0, 1.0);
    simulator.schedule(at, [radio, action] {
      if (action < 0.6) {
        if (radio->state() == RadioState::kIdle) {
          radio->transmit(makeFrame(radio->id(), net::kBroadcastId), 5e-4);
        }
      } else if (action < 0.8) {
        radio->sleep();
      } else {
        radio->wake();
      }
    });
  }
  simulator.run(1.0);
  trace.events = simulator.eventsExecuted();
  return trace;
}

TEST(Channel, SpatialIndexMatchesBruteForceWithSleepers) {
  const FanOutTrace indexed = runSleepyFanOut(true);
  const FanOutTrace brute = runSleepyFanOut(false);
  EXPECT_FALSE(indexed.decoded.empty());
  EXPECT_EQ(indexed, brute);
}

TEST(Channel, BroadcastReceiversShareOneFrame) {
  sim::Simulator simulator;
  Channel channel(simulator, ChannelConfig{});
  std::vector<std::unique_ptr<energy::Battery>> batteries;
  std::vector<std::unique_ptr<Radio>> radios;
  std::vector<const net::Packet*> seen;
  for (int i = 0; i < 4; ++i) {
    batteries.push_back(std::make_unique<energy::Battery>(500.0));
    radios.push_back(std::make_unique<Radio>(simulator, *batteries.back(),
                                             energy::PowerProfile{}, i));
    radios.back()->attachChannel(&channel);
    const double x = 10.0 * i;
    channel.attach(radios.back().get(), [x] { return geo::Vec2{x, 0.0}; });
    radios.back()->setFrameCallback(
        [&seen](const net::Packet& f) { seen.push_back(&f); });
  }
  radios[0]->transmit(makeFrame(0, net::kBroadcastId), 1e-3);
  simulator.run(1.0);
  ASSERT_EQ(seen.size(), 3u);
  // Every receiver was handed the very same stamped packet.
  EXPECT_EQ(seen[0], seen[1]);
  EXPECT_EQ(seen[1], seen[2]);
}

// --- reception runs ---------------------------------------------------------

/// Radios on a line at the given x positions, logging every decode.
struct Line {
  sim::Simulator simulator;
  Channel channel{simulator, ChannelConfig{}};
  std::vector<std::unique_ptr<energy::Battery>> batteries;
  std::vector<std::unique_ptr<Radio>> radios;
  std::vector<std::pair<sim::Time, net::NodeId>> decoded;

  /// `count` radios `spacing` metres apart, radio 0 at the origin.
  Line(int count, double spacing) : Line(spaced(count, spacing)) {}

  explicit Line(const std::vector<double>& xs) {
    for (int i = 0; i < static_cast<int>(xs.size()); ++i) {
      batteries.push_back(std::make_unique<energy::Battery>(500.0));
      radios.push_back(std::make_unique<Radio>(simulator, *batteries.back(),
                                               energy::PowerProfile{}, i));
      Radio& radio = *radios.back();
      radio.attachChannel(&channel);
      const double x = xs[static_cast<std::size_t>(i)];
      channel.attach(&radio, [x] { return geo::Vec2{x, 0.0}; });
      radio.setFrameCallback([this, i](const net::Packet&) {
        decoded.emplace_back(simulator.now(), i);
      });
    }
  }

  static std::vector<double> spaced(int count, double spacing) {
    std::vector<double> xs;
    for (int i = 0; i < count; ++i) xs.push_back(spacing * i);
    return xs;
  }
};

// Two transmissions in flight towards one sleeper at once: it wakes after
// the first arrival has landed and before the second, and hears exactly
// the second — whichever was transmitted first.
TEST(Channel, SleeperWakesBetweenTwoOverlappingArrivals) {
  for (const bool earlierLandsFirst : {true, false}) {
    // Sleeper at the origin; senders 10 m (33 ns of flight) and 200 m
    // (667 ns) away, transmitting 20 ns apart.
    Line line({0.0, earlierLandsFirst ? 10.0 : 200.0,
               earlierLandsFirst ? -200.0 : -10.0});
    Radio& sleeper = *line.radios[0];
    std::vector<std::pair<sim::Time, net::NodeId>> heard;
    sleeper.setFrameCallback([&](const net::Packet& frame) {
      heard.emplace_back(line.simulator.now(), frame.macSrc);
    });
    sleeper.sleep();
    line.radios[1]->transmit(makeFrame(1, net::kBroadcastId), 1e-3);
    line.simulator.scheduleAt(20e-9, [&] {
      line.radios[2]->transmit(makeFrame(2, net::kBroadcastId), 1e-3);
      EXPECT_EQ(line.channel.deferredArrivals(), 2u);
    });
    line.simulator.scheduleAt(300e-9, [&] { sleeper.wake(); });
    line.simulator.run(1.0);
    // The far sender's frame: sent at its transmit instant, 200 m away.
    const net::NodeId far = earlierLandsFirst ? 2 : 1;
    const sim::Time sentAt = earlierLandsFirst ? 20e-9 : 0.0;
    ASSERT_EQ(heard.size(), 1u) << "earlierLandsFirst " << earlierLandsFirst;
    EXPECT_EQ(heard[0].second, far);
    EXPECT_EQ(heard[0].first, (sentAt + 200.0 / 3e8) + 1e-3);
    EXPECT_EQ(line.channel.deferredArrivals(), 0u);
  }
}

// The channel's sleep byte follows the radio: seeded at attach for a radio
// already asleep, cleared by powerDown (an Off radio is not a sleeper: its
// arrivals are scheduled and discarded, as ever), set again by sleep.
TEST(Channel, SleepByteFollowsAttachAndPowerCycles) {
  sim::Simulator simulator;
  Channel channel(simulator, ChannelConfig{});
  energy::Battery batteryTx(500.0);
  energy::Battery batteryRx(500.0);
  Radio tx(simulator, batteryTx, energy::PowerProfile{}, 0);
  Radio rx(simulator, batteryRx, energy::PowerProfile{}, 1);
  rx.sleep();  // before attach
  channel.attach(&tx, [] { return geo::Vec2{0.0, 0.0}; });
  channel.attach(&rx, [] { return geo::Vec2{100.0, 0.0}; });
  int heard = 0;
  rx.setFrameCallback([&](const net::Packet&) { ++heard; });
  auto broadcast = [&] {
    const std::uint64_t before = simulator.eventsExecuted();
    tx.transmit(makeFrame(0, net::kBroadcastId), 1e-3);
    const std::size_t parked = channel.deferredArrivals();
    simulator.run(simulator.now() + 1.0);
    return std::make_pair(parked, simulator.eventsExecuted() - before);
  };
  // Asleep since before attach: parked, and only tx_end runs.
  EXPECT_EQ(broadcast(), std::make_pair(std::size_t{1}, std::uint64_t{1}));
  rx.powerDown();  // sleep -> off
  // Off: scheduled (phy/deliver) and discarded, nothing parked.
  EXPECT_EQ(broadcast(), std::make_pair(std::size_t{0}, std::uint64_t{2}));
  rx.powerUp();
  // Listening: phy/deliver and phy/rx_end.
  EXPECT_EQ(broadcast(), std::make_pair(std::size_t{0}, std::uint64_t{3}));
  EXPECT_EQ(heard, 1);
  rx.sleep();
  EXPECT_EQ(broadcast(), std::make_pair(std::size_t{1}, std::uint64_t{1}));
  rx.wake();
  EXPECT_EQ(broadcast(), std::make_pair(std::size_t{0}, std::uint64_t{3}));
  EXPECT_EQ(heard, 2);
}

// orderArrivals is exactly std::sort with sim::itemBefore: random arrival
// sets, small and large (insertion pass alone, radix then insertion), with
// repeated times, across an exponent boundary, in either tie-break mode,
// in any visiting order.
TEST(Channel, RadixOrderMatchesComparisonSort) {
  sim::RngStream rng(2024);
  std::vector<sim::RunItem> buffer;
  for (int trial = 0; trial < 400; ++trial) {
    const bool perturbed = trial % 2 == 1;
    const sim::OrderBlock places(sim::TieBreak{perturbed, rng.raw()},
                                 static_cast<std::uint64_t>(trial) * 1000);
    const auto n = static_cast<std::size_t>(rng.uniformInt(0, 300));
    // Now and then the arrivals straddle a power of two, so their bit
    // patterns differ in the exponent too.
    const sim::Time now =
        trial % 10 == 0 ? 8.0 - 0.4e-6 : rng.uniform(0.0, 2000.0);
    std::vector<sim::RunItem> items;
    for (std::size_t id = 0; id < n; ++id) {
      if (!rng.chance(0.8)) continue;
      sim::Time at = now + rng.uniform(0.0, 250.0) / 3e8;
      // Repeat an earlier time now and then: ties settle by place.
      if (!items.empty() && rng.chance(0.2)) {
        at = items[static_cast<std::size_t>(rng.uniformInt(
                       0, static_cast<std::int64_t>(items.size()) - 1))]
                 .time;
      }
      items.push_back(sim::RunItem{at, places[id]});
    }
    for (std::size_t i = items.size(); i > 1; --i) {
      std::swap(items[i - 1], items[static_cast<std::size_t>(rng.uniformInt(
                                  0, static_cast<std::int64_t>(i) - 1))]);
    }
    std::vector<sim::RunItem> expected = items;
    std::sort(expected.begin(), expected.end(), sim::itemBefore);
    orderArrivals(items, buffer);
    ASSERT_EQ(items.size(), expected.size()) << "trial " << trial;
    for (std::size_t i = 0; i < items.size(); ++i) {
      ASSERT_EQ(items[i].time, expected[i].time) << "trial " << trial;
      ASSERT_EQ(items[i].order.sequence, expected[i].order.sequence)
          << "trial " << trial << " item " << i;
    }
  }
}

// One transmission to N listeners queues N arrivals but one run: the slab
// does not grow with N. The reception ends of the frame share a second run.
TEST(Channel, BroadcastArrivalsShareOneRun) {
  std::vector<std::size_t> slabGrowth;
  for (int listeners : {4, 64}) {
    Line line(listeners + 1, 1.0);
    const std::size_t depth = line.simulator.queueDepth();
    const std::size_t slots = line.simulator.slabSlotsTotal();
    line.radios[0]->transmit(makeFrame(0, net::kBroadcastId), 1e-3);
    // Every arrival and the tx_end count as queued events.
    EXPECT_EQ(line.simulator.queueDepth(),
              depth + static_cast<std::size_t>(listeners) + 1);
    line.simulator.run(1.0);
    EXPECT_EQ(line.decoded.size(), static_cast<std::size_t>(listeners));
    // tx_end, then one phy/deliver and one phy/rx_end per listener.
    EXPECT_EQ(line.simulator.eventsExecuted(),
              1u + 2u * static_cast<std::uint64_t>(listeners));
    slabGrowth.push_back(line.simulator.slabSlotsTotal() - slots);
  }
  EXPECT_EQ(slabGrowth[0], slabGrowth[1]);
  EXPECT_LE(slabGrowth[1], 3u);  // tx_end + arrivals run + rx_end run
}

// Transmitting, sleeping or powering down mid-reception aborts it: the
// reception's phy/rx_end item is cancelled — it never runs — and the frame
// is never handed up. The other listener, out of the victim's range, still
// decodes it.
TEST(Radio, AbortingAReceptionCancelsItsEndItem) {
  for (int abort = 0; abort < 3; ++abort) {
    Line line({0.0, 100.0, -200.0});
    line.radios[0]->transmit(makeFrame(0, net::kBroadcastId), 1e-3);
    line.simulator.run(0.5e-3);  // both receptions in progress
    Radio& victim = *line.radios[1];
    ASSERT_EQ(victim.state(), RadioState::kRx);
    if (abort == 0) {
      victim.sleep();
    } else if (abort == 1) {
      victim.powerDown();
    } else {
      // Half-duplex: transmitting stomps the reception.
      victim.transmit(makeFrame(1, 0), 1e-4);
    }
    line.simulator.run(1.0);
    ASSERT_EQ(line.decoded.size(), 1u) << "abort " << abort;
    EXPECT_EQ(line.decoded[0].second, 2) << "abort " << abort;
    // tx_end, two phy/deliver, radio 2's phy/rx_end; a transmitting victim
    // adds its tx_end and its frame's (deaf) arrival at radio 0.
    EXPECT_EQ(line.simulator.eventsExecuted(), abort < 2 ? 4u : 6u)
        << "abort " << abort;
  }
}

// A sleeper's arrival is replayed as a single event into its reserved
// place, between the arrivals the run holds: the receptions end in
// distance order at exactly arrival + airtime.
TEST(Channel, ReplayedArrivalLandsBetweenRunItems) {
  Line line(4, 60.0);
  line.radios[2]->sleep();
  line.radios[0]->transmit(makeFrame(0, net::kBroadcastId), 1e-3);
  EXPECT_EQ(line.channel.deferredArrivals(), 1u);
  // Wake after radio 1's arrival but before radio 2's.
  line.simulator.scheduleAt(90.0 / 3e8, [&] { line.radios[2]->wake(); });
  line.simulator.run(1.0);
  ASSERT_EQ(line.decoded.size(), 3u);
  for (std::size_t k = 0; k < 3; ++k) {
    EXPECT_EQ(line.decoded[k].second, static_cast<net::NodeId>(k + 1));
    EXPECT_EQ(line.decoded[k].first, 60.0 * (k + 1) / 3e8 + 1e-3);
  }
}

TEST(FramePool, RecyclesFramesAndOutlivesItsOwner) {
  net::Packet packet = makeFrame(0, 1);
  FramePool::Handle pool = FramePool::create();
  for (int i = 0; i < 1000; ++i) {
    FrameRef frame = pool->acquire(packet, static_cast<std::uint64_t>(i), 1.0);
    EXPECT_EQ(frame->packet.uid, static_cast<std::uint64_t>(i));
  }
  // One frame at a time was live, so the pool never grew past one chunk.
  EXPECT_EQ(pool->outstanding(), 0u);
  const std::size_t capacity = pool->capacity();
  EXPECT_GT(capacity, 0u);
  FrameRef kept = pool->acquire(packet, 7, 2.0);
  FrameRef copy = kept;
  EXPECT_EQ(pool->outstanding(), 1u);
  EXPECT_EQ(pool->capacity(), capacity);
  // The owner goes first, as a Channel does when a scenario's network is
  // torn down before its simulator's queued closures; the frame stays
  // valid and the pool is freed with its last reference (ASan checks).
  pool.reset();
  EXPECT_EQ(copy->packet.uid, 7u);
  EXPECT_EQ(kept->airtime, 2.0);
  kept.reset();
  copy.reset();
}

// --- paging -----------------------------------------------------------

struct PagingRig {
  sim::Simulator simulator;
  PagingChannel paging{simulator, PagingConfig{}};
};

TEST(Paging, WakesTargetHostWithinRange) {
  PagingRig rig;
  int pages = 0;
  net::PageSignal last;
  rig.paging.attach(
      5, [] { return geo::Vec2{100.0, 0.0}; },
      [] { return geo::GridCoord{1, 0}; },
      [&](const net::PageSignal& s) {
        ++pages;
        last = s;
      });
  rig.paging.pageHost(9, {0.0, 0.0}, 5);
  rig.simulator.run(1.0);
  EXPECT_EQ(pages, 1);
  EXPECT_EQ(last.kind, net::PageKind::kHost);
  EXPECT_EQ(last.host, 5);
  EXPECT_EQ(last.pagedBy, 9);
}

TEST(Paging, OutOfRangePagesAreLost) {
  PagingRig rig;
  int pages = 0;
  rig.paging.attach(
      5, [] { return geo::Vec2{400.0, 0.0}; },
      [] { return geo::GridCoord{4, 0}; },
      [&](const net::PageSignal&) { ++pages; });
  rig.paging.pageHost(9, {0.0, 0.0}, 5);
  rig.simulator.run(1.0);
  EXPECT_EQ(pages, 0);
}

TEST(Paging, GridPageWakesOnlyThatGrid) {
  PagingRig rig;
  int inGrid = 0;
  int outGrid = 0;
  rig.paging.attach(
      1, [] { return geo::Vec2{50.0, 50.0}; },
      [] { return geo::GridCoord{0, 0}; },
      [&](const net::PageSignal& s) {
        EXPECT_EQ(s.kind, net::PageKind::kGrid);
        EXPECT_EQ(s.grid, (geo::GridCoord{0, 0}));
        ++inGrid;
      });
  rig.paging.attach(
      2, [] { return geo::Vec2{150.0, 50.0}; },
      [] { return geo::GridCoord{1, 0}; },
      [&](const net::PageSignal&) { ++outGrid; });
  rig.paging.pageGrid(9, {60.0, 60.0}, {0, 0});
  rig.simulator.run(1.0);
  EXPECT_EQ(inGrid, 1);
  EXPECT_EQ(outGrid, 0);
}

TEST(Paging, PagerDoesNotPageItself) {
  PagingRig rig;
  int pages = 0;
  rig.paging.attach(
      7, [] { return geo::Vec2{}; }, [] { return geo::GridCoord{0, 0}; },
      [&](const net::PageSignal&) { ++pages; });
  rig.paging.pageGrid(7, {0.0, 0.0}, {0, 0});
  rig.simulator.run(1.0);
  EXPECT_EQ(pages, 0);
}

TEST(Paging, DetachedPagersStaySilent) {
  PagingRig rig;
  int pages = 0;
  std::size_t id = rig.paging.attach(
      5, [] { return geo::Vec2{}; }, [] { return geo::GridCoord{0, 0}; },
      [&](const net::PageSignal&) { ++pages; });
  rig.paging.detach(id);
  rig.paging.pageHost(9, {0.0, 0.0}, 5);
  rig.simulator.run(1.0);
  EXPECT_EQ(pages, 0);
}

TEST(Paging, RestartedHostIsPagedOnlyThroughItsLiveAttachment) {
  PagingRig rig;
  std::vector<int> pagedVia;
  // Host 5 crashes (its first pager detaches) and restarts with a fresh
  // attachment; a second host sits in between.
  std::size_t first = rig.paging.attach(
      5, [] { return geo::Vec2{}; }, [] { return geo::GridCoord{0, 0}; },
      [&](const net::PageSignal&) { pagedVia.push_back(1); });
  rig.paging.attach(
      6, [] { return geo::Vec2{}; }, [] { return geo::GridCoord{0, 0}; },
      [&](const net::PageSignal&) { pagedVia.push_back(2); });
  rig.paging.detach(first);
  rig.paging.attach(
      5, [] { return geo::Vec2{}; }, [] { return geo::GridCoord{0, 0}; },
      [&](const net::PageSignal&) { pagedVia.push_back(3); });
  rig.paging.pageHost(9, {0.0, 0.0}, 5);
  rig.paging.pageHost(9, {0.0, 0.0}, 42);  // nobody by that id
  rig.simulator.run(1.0);
  EXPECT_EQ(pagedVia, (std::vector<int>{3}));
  EXPECT_EQ(rig.paging.pagesSent(), 2u);
  EXPECT_EQ(rig.paging.pagesDelivered(), 1u);
}

TEST(Paging, DeliveryHasConfiguredLatency) {
  PagingRig rig;
  sim::Time deliveredAt = -1.0;
  rig.paging.attach(
      5, [] { return geo::Vec2{}; }, [] { return geo::GridCoord{0, 0}; },
      [&](const net::PageSignal&) { deliveredAt = rig.simulator.now(); });
  rig.paging.pageHost(9, {1.0, 0.0}, 5);
  rig.simulator.run(1.0);
  EXPECT_DOUBLE_EQ(deliveredAt, rig.paging.config().latencySeconds);
}

}  // namespace
}  // namespace ecgrid::phy
