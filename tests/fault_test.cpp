// Fault-injection subsystem tests: error-model statistics against the
// analytic Gilbert–Elliott values, the zero-fault byte-identity guarantee,
// crash/restart semantics at the node level, deterministic fault runs
// through the scenario harness, and the proximity-gated gateway audit.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "check/audits.hpp"
#include "check/invariant_auditor.hpp"
#include "fault/error_model.hpp"
#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"
#include "harness/scenario.hpp"
#include "obs/observability.hpp"
#include "sim/rng.hpp"
#include "test_net.hpp"

namespace ecgrid {
namespace {

// --------------------------------------------------------------------------
// FaultPlan value semantics

TEST(FaultPlan, EmptyUntilAnyFaultIsArmed) {
  fault::FaultPlan plan;
  EXPECT_TRUE(plan.empty());

  plan.channel.kind = fault::ChannelErrorKind::kIid;
  EXPECT_FALSE(plan.empty());

  plan = {};
  plan.hosts.crashes.push_back({3, 10.0});
  EXPECT_FALSE(plan.empty());

  plan = {};
  plan.hosts.crashRatePerHostPerSecond = 1e-3;
  EXPECT_FALSE(plan.empty());

  plan = {};
  plan.gps.offsetStddevMeters = 5.0;
  EXPECT_FALSE(plan.empty());

  plan = {};
  plan.gps.driftStddevMeters = 1.0;
  EXPECT_FALSE(plan.empty());

  plan = {};
  plan.paging.lossProbability = 0.1;
  EXPECT_FALSE(plan.empty());
}

// --------------------------------------------------------------------------
// Error models, driven directly against the analytic values

TEST(GilbertElliott, HelperHitsTargetStationaryLoss) {
  fault::ChannelFault ch;
  ch.kind = fault::ChannelErrorKind::kGilbertElliott;
  ch.pBadToGood = 0.05;  // mean burst = 20 frames
  ch.pGoodToBad = fault::gilbertElliottPGoodToBad(0.2, ch.pBadToGood);
  fault::GilbertElliottModel model(ch, 1);
  EXPECT_NEAR(model.stationaryLoss(), 0.2, 1e-12);
  EXPECT_DOUBLE_EQ(model.meanBadSojournFrames(), 20.0);

  EXPECT_THROW(fault::gilbertElliottPGoodToBad(1.0, 0.05),
               std::invalid_argument);
  EXPECT_THROW(fault::gilbertElliottPGoodToBad(0.2, 0.0),
               std::invalid_argument);
}

TEST(GilbertElliott, EmpiricalLossAndBurstLengthMatchAnalytic) {
  // lossGood = 0, lossBad = 1 (the defaults), so a run of consecutive
  // drops IS one bad-state sojourn: both the loss rate and the mean burst
  // length are checkable against closed form.
  fault::ChannelFault ch;
  ch.kind = fault::ChannelErrorKind::kGilbertElliott;
  ch.pBadToGood = 0.05;
  ch.pGoodToBad = fault::gilbertElliottPGoodToBad(0.2, ch.pBadToGood);
  fault::GilbertElliottModel model(ch, 42);

  const int kFrames = 200000;
  int drops = 0, bursts = 0;
  bool prevDrop = false;
  for (int i = 0; i < kFrames; ++i) {
    bool drop = model.dropDelivery(/*transmission=*/i, /*sender=*/1,
                                   /*receiver=*/2);
    if (drop) {
      ++drops;
      if (!prevDrop) ++bursts;
    }
    prevDrop = drop;
  }
  double empiricalLoss = static_cast<double>(drops) / kFrames;
  EXPECT_NEAR(empiricalLoss, model.stationaryLoss(), 0.02);
  ASSERT_GT(bursts, 0);
  double meanBurst = static_cast<double>(drops) / bursts;
  EXPECT_NEAR(meanBurst, model.meanBadSojournFrames(), 2.0);
}

TEST(GilbertElliott, KeepsIndependentChainsPerReceiver) {
  // A receiver that never takes frames while another is mid-burst must
  // still start Good: the first frame each receiver ever sees can only
  // drop with lossGood (= 0 here), whatever the other chains are doing.
  fault::ChannelFault ch;
  ch.kind = fault::ChannelErrorKind::kGilbertElliott;
  ch.pGoodToBad = 1.0;  // enter the bad state immediately…
  ch.pBadToGood = 1e-9;  // …and essentially never leave
  fault::GilbertElliottModel model(ch, 3);
  EXPECT_FALSE(model.dropDelivery(0, 1, 7));  // receiver 7: first frame, Good
  EXPECT_TRUE(model.dropDelivery(1, 1, 7));   // now stuck Bad
  EXPECT_FALSE(model.dropDelivery(1, 1, 8));  // fresh receiver still starts Good
  EXPECT_TRUE(model.dropDelivery(2, 1, 7));
}

TEST(IidLossModel, EmpiricalLossMatchesProbability) {
  fault::IidLossModel model(0.3, 7);
  const int kFrames = 100000;
  int drops = 0;
  for (int i = 0; i < kFrames; ++i) {
    if (model.dropDelivery(i, 1, 2)) ++drops;
  }
  EXPECT_NEAR(static_cast<double>(drops) / kFrames, 0.3, 0.01);
  EXPECT_THROW(fault::IidLossModel(1.5, 7), std::invalid_argument);
}

// The channel asks one transmission's receivers in whatever order its
// fan-out visits them. Every verdict is keyed on its delivery, and each
// Gilbert–Elliott chain advances once per transmission, so asking the
// receivers in shuffled order gives the verdicts of ascending order.
TEST(ErrorModels, VerdictsDoNotDependOnTheOrderReceiversAreAsked) {
  fault::ChannelFault ch;
  ch.kind = fault::ChannelErrorKind::kGilbertElliott;
  ch.pGoodToBad = 0.2;
  ch.pBadToGood = 0.3;
  ch.lossGood = 0.1;
  ch.lossBad = 0.8;
  using Verdicts =
      std::map<std::pair<std::uint64_t, net::NodeId>, std::pair<bool, bool>>;
  const auto ask = [&ch](bool shuffled) {
    fault::IidLossModel iid(0.4, 11);
    fault::GilbertElliottModel burst(ch, 11);
    sim::RngStream order(5);
    std::vector<net::NodeId> receivers;
    for (net::NodeId r = 0; r < 20; ++r) receivers.push_back(r);
    Verdicts verdicts;
    for (std::uint64_t tx = 0; tx < 300; ++tx) {
      if (shuffled) {
        for (std::size_t i = receivers.size() - 1; i > 0; --i) {
          std::swap(receivers[i],
                    receivers[static_cast<std::size_t>(order.uniformInt(
                        0, static_cast<std::int64_t>(i)))]);
        }
      }
      const auto sender = static_cast<net::NodeId>(20 + tx % 7);
      for (net::NodeId r : receivers) {
        verdicts[{tx, r}] = {iid.dropDelivery(tx, sender, r),
                             burst.dropDelivery(tx, sender, r)};
      }
    }
    return verdicts;
  };
  const Verdicts ascending = ask(false);
  EXPECT_EQ(ask(true), ascending);
  std::size_t iidDrops = 0, burstDrops = 0;
  for (const auto& [key, verdict] : ascending) {
    iidDrops += verdict.first ? 1 : 0;
    burstDrops += verdict.second ? 1 : 0;
  }
  // 6,000 deliveries: both models drop some and keep some.
  EXPECT_GT(iidDrops, 1000u);
  EXPECT_LT(iidDrops, 5000u);
  EXPECT_GT(burstDrops, 500u);
  EXPECT_LT(burstDrops, 5500u);
}

// --------------------------------------------------------------------------
// Node-level crash/restart semantics

/// Payload-only header for driving the MAC directly.
class StubHeader final : public net::Header {
 public:
  int bytes() const override { return 66; }
  const char* name() const override { return "STUB"; }
};

/// Do-nothing protocol that records every onCellChanged with its time.
/// Doubles as the trivial factory product for restart-path tests.
class CellChangeRecorder final : public net::RoutingProtocol {
 public:
  CellChangeRecorder(
      net::HostEnv& env,
      std::vector<std::pair<sim::Time, geo::GridCoord>>* log = nullptr)
      : env_(env), log_(log) {}
  const char* name() const override { return "recorder"; }
  void start() override {}
  void onFrame(const net::Packet&) override {}
  void sendData(net::NodeId, int, const net::DataTag&) override {}
  void onPaged(const net::PageSignal&) override {}
  void onCellChanged(const geo::GridCoord&,
                     const geo::GridCoord& to) override {
    if (log_ != nullptr) log_->emplace_back(env_.simulator().now(), to);
  }
  void onShutdown() override {}

 private:
  net::HostEnv& env_;
  std::vector<std::pair<sim::Time, geo::GridCoord>>* log_;
};

core::EcgridConfig oracleConfig(net::Network& network) {
  core::EcgridConfig config;
  config.base.locationHint =
      [&network](net::NodeId id) -> std::optional<geo::GridCoord> {
    net::Node* node = network.findNode(id);
    if (node == nullptr || !node->alive()) return std::nullopt;
    return node->cell();
  };
  return config;
}

TEST(NodeCrash, FreezesBatteryDetachesMediaAndRestartRejoins) {
  test::TestNet net;
  for (int i = 0; i < 4; ++i) net.addStatic(i, {20.0 + 10.0 * i, 20.0});
  for (auto& node : net.network.nodes()) {
    net::Node* raw = node.get();
    raw->setProtocolFactory([raw, &net] {
      return std::make_unique<core::EcgridProtocol>(*raw,
                                                    oracleConfig(net.network));
    });
  }
  net.start(5.0);
  ASSERT_EQ(net.network.channel().liveAttachmentCount(), 4u);
  ASSERT_EQ(net.network.aliveCount(), 4u);

  net::Node& victim = *net.network.findNode(2);
  victim.crash();
  EXPECT_TRUE(victim.crashed());
  EXPECT_FALSE(victim.alive());
  EXPECT_DOUBLE_EQ(victim.crashedAt(), net.simulator.now());
  EXPECT_EQ(net.network.channel().liveAttachmentCount(), 3u);
  EXPECT_EQ(net.network.aliveCount(), 3u);
  victim.crash();  // no-op on an already-down host
  EXPECT_EQ(net.network.channel().liveAttachmentCount(), 3u);

  // A crash is not a battery death: while down, the host burns nothing.
  double joulesAtCrash = victim.batteryRef().remainingJ(net.simulator.now());
  net.simulator.run(net.simulator.now() + 20.0);
  EXPECT_DOUBLE_EQ(victim.batteryRef().remainingJ(net.simulator.now()),
                   joulesAtCrash);

  victim.restart();
  EXPECT_FALSE(victim.crashed());
  EXPECT_TRUE(victim.alive());
  EXPECT_EQ(net.network.channel().liveAttachmentCount(), 4u);
  EXPECT_EQ(net.network.aliveCount(), 4u);
  net.simulator.run(net.simulator.now() + 10.0);
  EXPECT_FALSE(net.gateways().empty());  // fresh stack rejoined the mesh
}

TEST(NodeCrash, MidTransmissionCrashDoesNotWedgeTheMac) {
  test::TestNet net;
  net::Node& victim = net.addStatic(0, {20.0, 20.0});
  net::Node& peer = net.addStatic(1, {70.0, 20.0});
  victim.setProtocolFactory([&victim] {
    return std::make_unique<CellChangeRecorder>(victim);
  });
  peer.setProtocol(std::make_unique<CellChangeRecorder>(peer));
  net.start(1.0);

  mac::CsmaMac& mac = victim.mac();
  net::Packet frame;
  frame.macSrc = 0;
  frame.macDst = net::kBroadcastId;
  frame.header = std::make_shared<StubHeader>();
  mac.send(frame);
  // Step until the frame is actually on the air (DIFS + backoff +
  // broadcast jitter), then yank the power mid-transmission: powerDown
  // cancels the radio's tx-end event, so onTxComplete never fires and
  // only clearQueue() can drop the MAC's transmit latch.
  while (victim.radio().state() != phy::RadioState::kTx) {
    ASSERT_LT(net.simulator.now(), 2.0) << "transmission never started";
    net.simulator.run(net.simulator.now() + 10e-6);
  }
  victim.crash();
  net.simulator.run(net.simulator.now() + 1.0);
  victim.restart();

  // The rebooted MAC must be able to transmit again.
  std::uint64_t sentBefore = mac.framesSent();
  net::Packet again;
  again.macSrc = 0;
  again.macDst = net::kBroadcastId;
  again.header = std::make_shared<StubHeader>();
  mac.send(again);
  net.simulator.run(net.simulator.now() + 1.0);
  EXPECT_EQ(mac.framesSent(), sentBefore + 1);
  EXPECT_EQ(mac.queueDepth(), 0u);
}

TEST(NodeCrash, RestartRequiresACrashAndAFactory) {
  test::TestNet net;
  net::Node& plain = net.addStatic(0, {20.0, 20.0});
  net.installEcgrid(plain);
  net.start(1.0);
  EXPECT_THROW(plain.restart(), std::invalid_argument);  // not crashed
  plain.crash();
  EXPECT_THROW(plain.restart(), std::invalid_argument);  // no factory
}

TEST(FaultInjector, RejectsBogusScriptedCrashes) {
  test::TestNet net;
  net::Node& node = net.addStatic(0, {20.0, 20.0});
  net.installEcgrid(node);

  fault::FaultPlan unknownHost;
  unknownHost.hosts.crashes.push_back({99, 10.0});
  EXPECT_THROW(
      fault::FaultInjector(net.simulator, net.network, unknownHost),
      std::invalid_argument);

  fault::FaultPlan restartBeforeCrash;
  restartBeforeCrash.hosts.crashes.push_back({0, 10.0, 5.0});
  EXPECT_THROW(
      fault::FaultInjector(net.simulator, net.network, restartBeforeCrash),
      std::invalid_argument);
}

TEST(GpsError, StaticOffsetFiresBelievedCrossingsBetweenTrueOnes) {
  test::TestNet net;
  // East at 10 m/s from x = 10: TRUE crossings at t = 9, 19, …
  net::Node& host = net.addScripted(0, {{0.0, {10.0, 50.0}, {10.0, 0.0}}});
  std::vector<std::pair<sim::Time, geo::GridCoord>> log;
  host.setProtocol(std::make_unique<CellChangeRecorder>(host, &log));
  net.start();

  // Static +50 m easting error: believed x = 60 + 10t crosses the 100 m
  // boundary at t = 4. The protocol must hear onCellChanged THEN — a
  // tracker watching only ground-truth crossings would sit silent until
  // t = 9.
  host.setGpsError({50.0, 0.0});
  net.simulator.run(8.0);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_NEAR(log[0].first, 4.0, 1e-3);
  EXPECT_EQ(log[0].second, (geo::GridCoord{1, 0}));
  EXPECT_EQ(host.cell(), (geo::GridCoord{1, 0}));

  // At the TRUE crossing (t = 9) the believed x is 150 — mid-cell — so
  // nothing may fire there; the next event is the believed crossing of
  // the 200 m boundary at t = 14.
  net.simulator.run(13.0);
  EXPECT_EQ(log.size(), 1u);
  net.simulator.run(15.0);
  ASSERT_EQ(log.size(), 2u);
  EXPECT_NEAR(log[1].first, 14.0, 1e-3);
}

TEST(FaultInjector, ScriptedRestartDuringDowntimeReArmsPoissonCrashes) {
  test::TestNet net;
  net::Node& host = net.addStatic(0, {20.0, 20.0});
  host.setProtocolFactory([&host] {
    return std::make_unique<CellChangeRecorder>(host);
  });

  fault::FaultPlan plan;
  // Scripted crash almost immediately, reboot at t = 50. Poisson crashes
  // at 0.5 /s (mean 2 s) with no automatic downtime recovery: the first
  // Poisson crash event all but surely lands inside the scripted
  // [0.01, 50] downtime and must no-op WITHOUT ending the host's failure
  // process. After the scripted reboot revives the host the process is
  // re-armed, so a second (Poisson) crash follows.
  plan.hosts.crashes.push_back({0, 0.01, 50.0});
  plan.hosts.crashRatePerHostPerSecond = 0.5;
  fault::FaultInjector injector(net.simulator, net.network, plan);
  net.start();
  net.simulator.run(300.0);

  EXPECT_GE(injector.crashesInjected(), 2u);  // scripted + ≥1 Poisson
  EXPECT_GE(injector.restartsInjected(), 1u);
}

TEST(FaultInjector, PagingFaultSwallowsPages) {
  test::TestNet net;
  for (int i = 0; i < 3; ++i) net.addStatic(i, {20.0 + 30.0 * i, 20.0});
  net.installEcgridEverywhere();

  fault::FaultPlan plan;
  plan.paging.lossProbability = 1.0;  // every page is missed
  fault::FaultInjector injector(net.simulator, net.network, plan);
  net.start(1.0);

  std::uint64_t lostBefore = net.network.paging().pagesLost();
  net.network.findNode(0)->pageHost(2);
  net.simulator.run(net.simulator.now() + 1.0);
  EXPECT_GT(net.network.paging().pagesLost(), lostBefore);
}

// The metrics registry is the one source of truth for run counters: it
// must agree with every component's own counter, and — unlike a sum over
// the protocol instances alive at the end — it keeps a rebooted host's
// pre-crash routing work.
TEST(RegistryCounters, MatchComponentCountersAcrossCrashAndRestart) {
  test::TestNet net{test::TestNet::WithHub{}};
  // Two hosts per grid in cells 0, 2, 4 and 6 of one row: each cell has a
  // gateway and a sleeper, and 0 -> 7 needs a multi-hop route.
  for (int i = 0; i < 8; ++i) {
    net.addStatic(i, {30.0 + 200.0 * (i / 2) + 40.0 * (i % 2), 50.0});
  }
  for (auto& node : net.network.nodes()) {
    net::Node* raw = node.get();
    raw->setProtocolFactory([raw, &net] {
      return std::make_unique<core::EcgridProtocol>(*raw,
                                                    oracleConfig(net.network));
    });
  }
  // Both hosts of the source's cell crash at t = 20 and reboot at t = 30,
  // so whichever was the gateway doing discovery loses its protocol state.
  fault::FaultPlan plan;
  plan.hosts.crashes.push_back({0, 20.0, 30.0});
  plan.hosts.crashes.push_back({1, 20.0, 30.0});
  fault::FaultInjector injector(net.simulator, net.network, plan);
  net::Node& source = *net.network.findNode(0);
  std::uint64_t seq = 0;
  std::function<void()> send = [&] {
    source.sendFromApp(7, 256, net::DataTag{1, seq++, net.simulator.now()});
    net.simulator.schedule(1.0, send);
  };
  net.simulator.schedule(2.0, send);
  net.start();

  auto liveRreqs = [&net] {
    std::uint64_t sum = 0;
    for (auto& node : net.network.nodes()) {
      sum += net.gridProtocolOf(node->id()).routingStats().rreqsSent;
    }
    return sum;
  };
  net.simulator.run(19.9);
  ASSERT_GT(net.gridProtocolOf(0).routingStats().rreqsSent +
                net.gridProtocolOf(1).routingStats().rreqsSent,
            0u)
      << "the source cell sent no RREQ before the crash";
  net.simulator.run(60.0);

  const obs::MetricsSnapshot m = net.hub->metrics().snapshot();
  std::uint64_t macSent = 0, macDropped = 0, macRetx = 0;
  for (auto& node : net.network.nodes()) {
    macSent += node->mac().framesSent();
    macDropped += node->mac().framesDropped();
    macRetx += node->mac().retransmissions();
  }
  EXPECT_EQ(obs::metricOr(m, "mac.frames_sent"), static_cast<double>(macSent));
  EXPECT_EQ(obs::metricOr(m, "mac.frames_dropped"),
            static_cast<double>(macDropped));
  EXPECT_EQ(obs::metricOr(m, "mac.retransmissions"),
            static_cast<double>(macRetx));
  EXPECT_EQ(obs::metricOr(m, "phy.frames_transmitted"),
            static_cast<double>(net.network.channel().framesTransmitted()));
  EXPECT_EQ(obs::metricOr(m, "paging.pages_sent"),
            static_cast<double>(net.network.paging().pagesSent()));
  EXPECT_EQ(injector.crashesInjected(), 2u);
  EXPECT_EQ(injector.restartsInjected(), 2u);
  EXPECT_EQ(obs::metricOr(m, "fault.crashes"),
            static_cast<double>(injector.crashesInjected()));
  EXPECT_EQ(obs::metricOr(m, "fault.restarts"),
            static_cast<double>(injector.restartsInjected()));
  EXPECT_GT(obs::metricOr(m, "routing.rreqs_sent"),
            static_cast<double>(liveRreqs()));
}

// --------------------------------------------------------------------------
// Scenario-level: byte-identity, crash dips, Poisson determinism, GPS

harness::ScenarioConfig faultBase() {
  harness::ScenarioConfig config;
  config.hostCount = 40;
  config.flowCount = 1;
  config.packetsPerSecondPerFlow = 10.0;
  config.duration = 120.0;
  config.seed = 7;
  config.auditInvariants = true;  // any audit violation aborts the run
  return config;
}

double count(const harness::ScenarioResult& result, const char* name) {
  return obs::metricOr(result.metrics, name);
}

void expectIdenticalRuns(const harness::ScenarioResult& a,
                         const harness::ScenarioResult& b) {
  EXPECT_EQ(a.packetsSent, b.packetsSent);
  EXPECT_EQ(a.packetsReceived, b.packetsReceived);
  EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
  EXPECT_EQ(count(a, "phy.frames_transmitted"),
            count(b, "phy.frames_transmitted"));
  EXPECT_DOUBLE_EQ(a.meanLatencySeconds, b.meanLatencySeconds);
  ASSERT_EQ(a.aen.size(), b.aen.size());
  for (std::size_t i = 0; i < a.aen.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.aen.points()[i].second, b.aen.points()[i].second);
  }
}

class ZeroEffectPlan : public ::testing::TestWithParam<harness::ProtocolKind> {
};

TEST_P(ZeroEffectPlan, IsByteIdenticalToNoFaultLayerAtAll) {
  // The injector is armed — the channel hook runs on every delivery and a
  // scripted crash sits beyond the horizon — but nothing it does can have
  // an effect, so the run must match an un-instrumented one exactly: the
  // fault layer draws only from its own RNG streams and schedules no
  // observable work.
  harness::ScenarioConfig config = faultBase();
  config.protocol = GetParam();
  config.duration = 60.0;
  harness::ScenarioResult bare = harness::runScenario(config);

  config.fault.channel.kind = fault::ChannelErrorKind::kIid;
  config.fault.channel.lossProbability = 0.0;  // hook runs, never corrupts
  config.fault.hosts.crashes.push_back(
      {0, config.duration + 100.0});  // scheduled, never fires
  harness::ScenarioResult armed = harness::runScenario(config);

  expectIdenticalRuns(bare, armed);
  EXPECT_EQ(count(armed, "fault.crashes"), 0.0);
  EXPECT_EQ(count(armed, "fault.restarts"), 0.0);
  EXPECT_EQ(count(armed, "phy.deliveries_corrupted"), 0.0);
  EXPECT_EQ(count(armed, "paging.pages_lost"), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ZeroEffectPlan,
                         ::testing::Values(harness::ProtocolKind::kGrid,
                                           harness::ProtocolKind::kEcgrid,
                                           harness::ProtocolKind::kGaf,
                                           harness::ProtocolKind::kFlooding));

TEST(ScenarioFault, ScheduledCrashDipsAliveFractionAndRestartRecovers) {
  harness::ScenarioConfig config = faultBase();
  config.protocol = harness::ProtocolKind::kEcgrid;
  config.fault.hosts.crashes.push_back({10, 30.0, 60.0});
  config.fault.hosts.crashes.push_back({11, 30.0, 60.0});
  // Audits stay armed (kThrow): the run completing proves the fault-aware
  // audits accept crashed hosts as down rather than flagging them.
  harness::ScenarioResult result = harness::runScenario(config);

  EXPECT_EQ(count(result, "fault.crashes"), 2.0);
  EXPECT_EQ(count(result, "fault.restarts"), 2.0);
  EXPECT_DOUBLE_EQ(result.aliveFraction.valueAt(45.0), 38.0 / 40.0);
  EXPECT_DOUBLE_EQ(result.aliveFraction.valueAt(110.0), 1.0);
  EXPECT_TRUE(result.deathTimes.empty());  // crashes are not battery deaths
  EXPECT_GT(result.deliveryRate, 0.5);
}

TEST(ScenarioFault, BurstLossDegradesButArqAbsorbsMost) {
  harness::ScenarioConfig config = faultBase();
  config.protocol = harness::ProtocolKind::kEcgrid;
  config.fault.channel.kind = fault::ChannelErrorKind::kGilbertElliott;
  config.fault.channel.pBadToGood = 0.05;
  config.fault.channel.pGoodToBad =
      fault::gilbertElliottPGoodToBad(0.2, 0.05);
  harness::ScenarioResult result = harness::runScenario(config);
  EXPECT_GT(count(result, "phy.deliveries_corrupted"), 100.0);
  EXPECT_GT(result.deliveryRate, 0.5) << "ARQ should ride out 20% burst loss";
}

TEST(ScenarioFault, FullAdversePlanIsDeterministicPerSeed) {
  harness::ScenarioConfig config = faultBase();
  config.protocol = harness::ProtocolKind::kEcgrid;
  config.fault.channel.kind = fault::ChannelErrorKind::kGilbertElliott;
  config.fault.channel.pBadToGood = 0.05;
  config.fault.channel.pGoodToBad =
      fault::gilbertElliottPGoodToBad(0.1, 0.05);
  config.fault.hosts.crashRatePerHostPerSecond = 2e-3;
  config.fault.hosts.meanDowntimeSeconds = 20.0;
  config.fault.gps.offsetStddevMeters = 30.0;
  config.fault.gps.driftStddevMeters = 3.0;
  config.fault.paging.lossProbability = 0.2;

  harness::ScenarioResult a = harness::runScenario(config);
  harness::ScenarioResult b = harness::runScenario(config);
  expectIdenticalRuns(a, b);
  EXPECT_EQ(a.metrics, b.metrics);

  // 40 hosts × 120 s × 2e-3 crashes/host/s ≈ 9.6 expected crashes.
  EXPECT_GT(count(a, "fault.crashes"), 0.0);
  EXPECT_GE(count(a, "fault.crashes"), count(a, "fault.restarts"));
  EXPECT_GT(count(a, "phy.deliveries_corrupted"), 0.0);

  config.seed = 8;
  harness::ScenarioResult c = harness::runScenario(config);
  EXPECT_NE(a.eventsExecuted, c.eventsExecuted);
}

TEST(ScenarioFault, GpsErrorRunsCleanUnderAudits) {
  // With σ = 40 m hosts routinely misjudge their own 100 m grid. The
  // proximity-gated gateway audit (armed automatically when a GPS fault
  // is present) must not flag physically-distant double claims, so the
  // kThrow run completes.
  harness::ScenarioConfig config = faultBase();
  config.protocol = harness::ProtocolKind::kEcgrid;
  config.fault.gps.offsetStddevMeters = 40.0;
  config.fault.gps.driftStddevMeters = 5.0;
  harness::ScenarioResult result = harness::runScenario(config);
  EXPECT_GT(result.packetsSent, 100u);
  EXPECT_GT(result.deliveryRate, 0.2);
}

// --------------------------------------------------------------------------
// Proximity-gated gateway-uniqueness audit

// Record-mode auditor exposing one stateful audit (same shape as the
// Probe helper in invariant_audit_test.cpp).
class Probe {
 public:
  explicit Probe(std::function<void(check::AuditContext&)> fn)
      : auditor_(check::FailMode::kRecord) {
    auditor_.add("probe", std::move(fn));
  }
  std::size_t violationsAfter(sim::Time now) {
    auditor_.run(now);
    return auditor_.violations().size();
  }

 private:
  check::InvariantAuditor auditor_;
};

TEST(GatewayUniquenessAudit, ProximityModeExemptsUnhearableClaimants) {
  check::GatewayUniquenessAudit audit(/*conflictGrace=*/5.0,
                                      /*conflictRangeMeters=*/250.0);
  // Both claim grid (3,4) but sit ~1130 m apart: no HELLO can ever settle
  // the contest, so it must never be reported.
  std::vector<check::GatewaySighting> sightings = {
      {{3, 4}, 7, {100.0, 100.0}},
      {{3, 4}, 9, {900.0, 900.0}},
  };
  Probe probe(
      [&](check::AuditContext& context) { audit.observe(sightings, context); });
  EXPECT_EQ(probe.violationsAfter(100.0), 0u);
  EXPECT_EQ(probe.violationsAfter(200.0), 0u);

  // Bring one claimant into radio range: now the contest is resolvable
  // and the usual grace window applies.
  sightings[1].position = {220.0, 100.0};
  EXPECT_EQ(probe.violationsAfter(300.0), 0u);
  ASSERT_EQ(probe.violationsAfter(306.0), 1u);
}

TEST(GatewayUniquenessAudit, StrictModeStillCountsDistantClaimants) {
  check::GatewayUniquenessAudit audit(/*conflictGrace=*/5.0,
                                      /*conflictRangeMeters=*/0.0);
  std::vector<check::GatewaySighting> sightings = {
      {{3, 4}, 7, {100.0, 100.0}},
      {{3, 4}, 9, {900.0, 900.0}},
  };
  Probe probe(
      [&](check::AuditContext& context) { audit.observe(sightings, context); });
  EXPECT_EQ(probe.violationsAfter(100.0), 0u);
  ASSERT_EQ(probe.violationsAfter(106.0), 1u);
}

}  // namespace
}  // namespace ecgrid
