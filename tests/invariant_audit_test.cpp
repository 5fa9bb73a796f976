// Tests for the runtime invariant-audit subsystem (src/check): auditor
// mechanics, every shipped audit both passing healthy state and firing on
// a deliberately injected violation, and the scenario-harness wiring.
#include <gtest/gtest.h>

#include <stdexcept>

#include "check/audits.hpp"
#include "check/invariant_auditor.hpp"
#include "check/network_audits.hpp"
#include "harness/scenario.hpp"
#include "test_net.hpp"

namespace ecgrid::check {
namespace {

// --------------------------------------------------------------------------
// auditor mechanics

TEST(InvariantAuditor, RunsEveryAuditEachSweep) {
  InvariantAuditor auditor(FailMode::kRecord);
  int aRuns = 0;
  int bRuns = 0;
  auditor.add("a", [&](AuditContext&) { ++aRuns; });
  auditor.add("b", [&](AuditContext&) { ++bRuns; });
  auditor.run(1.0);
  auditor.run(2.0);
  EXPECT_EQ(auditor.runs(), 2u);
  EXPECT_EQ(auditor.auditCount(), 2u);
  EXPECT_EQ(aRuns, 2);
  EXPECT_EQ(bRuns, 2);
  EXPECT_TRUE(auditor.violations().empty());
}

TEST(InvariantAuditor, RecordModeCollectsNamedViolations) {
  InvariantAuditor auditor(FailMode::kRecord);
  auditor.add("always-broken",
              [](AuditContext& context) { context.report("the sky fell"); });
  auditor.run(42.0);
  ASSERT_EQ(auditor.violations().size(), 1u);
  EXPECT_EQ(auditor.violations()[0].audit, "always-broken");
  EXPECT_EQ(auditor.violations()[0].detail, "the sky fell");
  EXPECT_DOUBLE_EQ(auditor.violations()[0].when, 42.0);
  auditor.clearViolations();
  EXPECT_TRUE(auditor.violations().empty());
}

TEST(InvariantAuditor, ThrowModeRaisesLogicErrorWithContext) {
  InvariantAuditor auditor(FailMode::kThrow);
  auditor.add("broken", [](AuditContext& context) { context.report("boom"); });
  try {
    auditor.run(7.0);
    FAIL() << "expected std::logic_error";
  } catch (const std::logic_error& e) {
    std::string what = e.what();
    EXPECT_NE(what.find("broken"), std::string::npos);
    EXPECT_NE(what.find("boom"), std::string::npos);
  }
  ASSERT_EQ(auditor.violations().size(), 1u);
}

TEST(InvariantAuditor, RejectsAnonymousOrEmptyAudits) {
  InvariantAuditor auditor;
  EXPECT_THROW(auditor.add("", [](AuditContext&) {}), std::invalid_argument);
  EXPECT_THROW(auditor.add("x", nullptr), std::invalid_argument);
}

// Record-mode auditor exposing one stateful audit via `fn`; the tests
// below drive the audit objects through it at chosen timestamps.
class Probe {
 public:
  explicit Probe(std::function<void(AuditContext&)> fn)
      : auditor_(FailMode::kRecord) {
    auditor_.add("probe", std::move(fn));
  }
  std::size_t violationsAfter(sim::Time now) {
    auditor_.run(now);
    return auditor_.violations().size();
  }
  const std::vector<Violation>& violations() const {
    return auditor_.violations();
  }

 private:
  InvariantAuditor auditor_;
};

// --------------------------------------------------------------------------
// 1. gateway uniqueness

TEST(GatewayUniquenessAudit, AcceptsUniqueGatewaysAndTransientConflicts) {
  GatewayUniquenessAudit audit(/*conflictGrace=*/5.0);
  std::vector<GatewaySighting> sightings;
  Probe probe([&](AuditContext& context) { audit.observe(sightings, context); });

  // Distinct grids: never a conflict.
  sightings = {{{0, 0}, 1, {}}, {{1, 0}, 2, {}}};
  EXPECT_EQ(probe.violationsAfter(0.0), 0u);

  // A split-brain that resolves within the grace window is fine.
  sightings = {{{0, 0}, 1, {}}, {{0, 0}, 2, {}}};
  EXPECT_EQ(probe.violationsAfter(10.0), 0u);
  EXPECT_EQ(probe.violationsAfter(14.0), 0u);
  sightings = {{{0, 0}, 2, {}}};
  EXPECT_EQ(probe.violationsAfter(16.0), 0u);

  // Re-contest restarts the clock.
  sightings = {{{0, 0}, 1, {}}, {{0, 0}, 2, {}}};
  EXPECT_EQ(probe.violationsAfter(20.0), 0u);
}

TEST(GatewayUniquenessAudit, FiresOnPersistentDoubleGateway) {
  GatewayUniquenessAudit audit(/*conflictGrace=*/5.0);
  std::vector<GatewaySighting> sightings = {{{3, 4}, 7, {}}, {{3, 4}, 9, {}}};
  Probe probe([&](AuditContext& context) { audit.observe(sightings, context); });
  EXPECT_EQ(probe.violationsAfter(100.0), 0u);
  ASSERT_EQ(probe.violationsAfter(106.0), 1u);
  EXPECT_NE(probe.violations()[0].detail.find("2 gateways"), std::string::npos);
}

// --------------------------------------------------------------------------
// 2. no TX while sleeping

TEST(SleepTransmitAudit, AcceptsConsistentAndSettlingSleepers) {
  SleepTransmitAudit audit(/*settleGrace=*/1.0);
  std::vector<SleepTxSighting> sightings;
  Probe probe([&](AuditContext& context) { audit.observe(sightings, context); });

  sightings = {
      {0, true, phy::RadioState::kSleep, false},  // properly asleep
      {1, true, phy::RadioState::kTx, true},      // sleep deferred behind TX
      {2, false, phy::RadioState::kTx, false},    // awake host transmitting
      {3, true, phy::RadioState::kOff, false},    // died while asleep
  };
  EXPECT_EQ(probe.violationsAfter(0.0), 0u);

  // Momentarily awake mid-transition (SLEEP notice draining): tolerated…
  sightings = {{4, true, phy::RadioState::kIdle, false}};
  EXPECT_EQ(probe.violationsAfter(5.0), 0u);
  // …because it resolves before the grace elapses.
  sightings = {{4, true, phy::RadioState::kSleep, false}};
  EXPECT_EQ(probe.violationsAfter(5.5), 0u);
  sightings = {{4, true, phy::RadioState::kIdle, false}};
  EXPECT_EQ(probe.violationsAfter(8.0), 0u);
}

TEST(SleepTransmitAudit, FiresWhenSleepingHostKeepsTransmitting) {
  SleepTransmitAudit audit(/*settleGrace=*/1.0);
  std::vector<SleepTxSighting> sightings = {
      {5, true, phy::RadioState::kTx, false}};
  Probe probe([&](AuditContext& context) { audit.observe(sightings, context); });
  EXPECT_EQ(probe.violationsAfter(10.0), 0u);
  ASSERT_EQ(probe.violationsAfter(11.5), 1u);
  EXPECT_NE(probe.violations()[0].detail.find("host 5"), std::string::npos);
}

// One pre-sleep drain that outlasts the grace, sampled three times with
// no sleep entered in between, is one episode and reports.
TEST(SleepTransmitAudit, ReportsOneContinuousEpisodeLongerThanTheGrace) {
  SleepTransmitAudit audit(/*settleGrace=*/1.0);
  std::vector<SleepTxSighting> sightings = {
      {6, true, phy::RadioState::kIdle, false, 3, 2}};
  Probe probe([&](AuditContext& context) { audit.observe(sightings, context); });
  EXPECT_EQ(probe.violationsAfter(10.0), 0u);
  EXPECT_EQ(probe.violationsAfter(10.6), 0u);
  ASSERT_EQ(probe.violationsAfter(11.2), 1u);
  EXPECT_NE(probe.violations()[0].detail.find("host 6"), std::string::npos);
}

// Two short drains, each caught by one sample, with the host having
// re-entered sleep (or slept its radio) between the samples: two
// episodes, neither longer than the grace, so nothing reports. Only a
// sample that sees the same counts again continues an episode.
TEST(SleepTransmitAudit, DoesNotJoinTwoEpisodesThatNoSampleSeparates) {
  SleepTransmitAudit audit(/*settleGrace=*/1.0);
  std::vector<SleepTxSighting> sightings = {
      {7, true, phy::RadioState::kIdle, false, 1, 0}};
  Probe probe([&](AuditContext& context) { audit.observe(sightings, context); });
  EXPECT_EQ(probe.violationsAfter(10.0), 0u);
  // Re-entered protocol sleep since: a new episode from 11.1.
  sightings = {{7, true, phy::RadioState::kIdle, false, 2, 0}};
  EXPECT_EQ(probe.violationsAfter(11.1), 0u);
  // Slept its radio since: a new episode from 12.2.
  sightings = {{7, true, phy::RadioState::kIdle, false, 2, 1}};
  EXPECT_EQ(probe.violationsAfter(12.2), 0u);
  // Nothing since: the episode from 12.2 continues past the grace.
  ASSERT_EQ(probe.violationsAfter(13.3), 1u);
  EXPECT_NE(probe.violations()[0].detail.find("1.1"), std::string::npos);
}

// --------------------------------------------------------------------------
// 3. battery monotonicity

TEST(BatteryMonotonicityAudit, AcceptsDrainingAndSteadyBatteries) {
  BatteryMonotonicityAudit audit;
  double level = 500.0;
  Probe probe(
      [&](AuditContext& context) { audit.observe(1, level, context); });
  EXPECT_EQ(probe.violationsAfter(0.0), 0u);
  level = 400.0;
  EXPECT_EQ(probe.violationsAfter(1.0), 0u);
  EXPECT_EQ(probe.violationsAfter(2.0), 0u);  // steady is fine
  level = 0.0;
  EXPECT_EQ(probe.violationsAfter(3.0), 0u);
}

TEST(BatteryMonotonicityAudit, FiresWhenEnergyRises) {
  BatteryMonotonicityAudit audit;
  double level = 400.0;
  Probe probe(
      [&](AuditContext& context) { audit.observe(2, level, context); });
  EXPECT_EQ(probe.violationsAfter(0.0), 0u);
  level = 450.0;
  ASSERT_EQ(probe.violationsAfter(1.0), 1u);
  EXPECT_NE(probe.violations()[0].detail.find("rose"), std::string::npos);
}

TEST(BatteryMonotonicityAudit, CatchesInjectedRechargeOnRealNetwork) {
  test::TestNet net;
  for (int i = 0; i < 4; ++i) {
    net.addStatic(i, {20.0 + 10.0 * i, 20.0});
  }
  net.installEcgridEverywhere();

  InvariantAuditor auditor(FailMode::kRecord);
  installStandardAudits(auditor, net.network);
  net.start(5.0);
  auditor.run(net.simulator.now());
  EXPECT_TRUE(auditor.violations().empty());

  // Fabricate the impossible: a host's battery gains energy mid-run.
  net.network.findNode(2)->batteryRef().injectJ(100.0, net.simulator.now());
  auditor.run(net.simulator.now());
  ASSERT_FALSE(auditor.violations().empty());
  EXPECT_EQ(auditor.violations()[0].audit, "battery-monotonicity");
}

// --------------------------------------------------------------------------
// 4. routing-table next-hop liveness

TEST(RouteLivenessAudit, AcceptsHealthyExpiredAndRecentlyDeadRoutes) {
  RouteLivenessAudit audit(/*deadGrace=*/15.0);
  std::vector<RouteSighting> sightings;
  Probe probe([&](AuditContext& context) { audit.observe(sightings, context); });

  RouteSighting live;  // healthy: live entry, live hop
  live.owner = 1;
  live.destination = 9;
  live.nextHop = 2;

  RouteSighting expired = live;  // expired entries may point anywhere
  expired.expired = true;
  expired.nextHopExists = false;

  RouteSighting recentlyDead = live;  // RERR still propagating: tolerated
  recentlyDead.nextHop = 3;
  recentlyDead.nextHopAlive = false;
  recentlyDead.nextHopDeadSince = 95.0;

  RouteSighting endpoint = live;  // no concrete hop recorded
  endpoint.nextHop = net::kBroadcastId;
  endpoint.nextHopExists = false;

  sightings = {live, expired, recentlyDead, endpoint};
  EXPECT_EQ(probe.violationsAfter(100.0), 0u);
}

TEST(RouteLivenessAudit, FiresOnNonexistentNextHop) {
  RouteLivenessAudit audit;
  RouteSighting bogus;
  bogus.owner = 1;
  bogus.destination = 9;
  bogus.nextHop = 999;
  bogus.nextHopExists = false;
  std::vector<RouteSighting> sightings = {bogus};
  Probe probe([&](AuditContext& context) { audit.observe(sightings, context); });
  ASSERT_EQ(probe.violationsAfter(100.0), 1u);
  EXPECT_NE(probe.violations()[0].detail.find("nonexistent"),
            std::string::npos);
}

TEST(RouteLivenessAudit, FiresOnLongDeadNextHop) {
  RouteLivenessAudit audit(/*deadGrace=*/15.0);
  RouteSighting stale;
  stale.owner = 1;
  stale.destination = 9;
  stale.nextHop = 3;
  stale.nextHopAlive = false;
  stale.nextHopDeadSince = 50.0;
  std::vector<RouteSighting> sightings = {stale};
  Probe probe([&](AuditContext& context) { audit.observe(sightings, context); });
  ASSERT_EQ(probe.violationsAfter(100.0), 1u);
  EXPECT_NE(probe.violations()[0].detail.find("died"), std::string::npos);
}

TEST(RouteLivenessAudit, CatchesInjectedBogusRouteOnRealNetwork) {
  test::TestNet net;
  net.addStatic(1, {50.0, 50.0});
  net.addStatic(2, {60.0, 60.0});
  net.installGridEverywhere();

  InvariantAuditor auditor(FailMode::kRecord);
  installStandardAudits(auditor, net.network);
  net.start(5.0);
  auditor.run(net.simulator.now());
  EXPECT_TRUE(auditor.violations().empty());

  // Plant a live route whose next hop does not exist in the network.
  protocols::RouteEntry entry;
  entry.nextGrid = {1, 0};
  entry.destGrid = {2, 0};
  entry.nextHop = 999;
  entry.destSeq = 41;
  net.gridProtocolOf(1).routingEngine().routes().update(77, entry,
                                                        net.simulator.now());
  auditor.run(net.simulator.now());
  ASSERT_FALSE(auditor.violations().empty());
  EXPECT_EQ(auditor.violations()[0].audit, "route-next-hop-liveness");
}

// --------------------------------------------------------------------------
// 5. event-queue time monotonicity

TEST(EventTimeMonotonicityAudit, AcceptsForwardMarchingClock) {
  EventTimeMonotonicityAudit audit;
  sim::Time now = 0.0;
  sim::Time next = 1.0;
  Probe probe(
      [&](AuditContext& context) { audit.observe(now, next, context); });
  EXPECT_EQ(probe.violationsAfter(0.0), 0u);
  now = 1.0;
  next = sim::kTimeNever;  // drained queue is fine
  EXPECT_EQ(probe.violationsAfter(1.0), 0u);
  now = 1.0;  // time may stall between sweeps
  EXPECT_EQ(probe.violationsAfter(1.0), 0u);
}

TEST(EventTimeMonotonicityAudit, FiresOnClockRegression) {
  EventTimeMonotonicityAudit audit;
  sim::Time now = 5.0;
  sim::Time next = 6.0;
  Probe probe(
      [&](AuditContext& context) { audit.observe(now, next, context); });
  EXPECT_EQ(probe.violationsAfter(5.0), 0u);
  now = 4.0;
  ASSERT_EQ(probe.violationsAfter(4.0), 1u);
  EXPECT_NE(probe.violations()[0].detail.find("regressed"), std::string::npos);
}

TEST(EventTimeMonotonicityAudit, FiresOnEventPendingInThePast) {
  EventTimeMonotonicityAudit audit;
  Probe probe([&](AuditContext& context) { audit.observe(10.0, 9.0, context); });
  ASSERT_EQ(probe.violationsAfter(10.0), 1u);
  EXPECT_NE(probe.violations()[0].detail.find("before the clock"),
            std::string::npos);
}

// --------------------------------------------------------------------------
// 6. channel attachment count

TEST(ChannelAttachmentAudit, CatchesInjectedDetachOnRealNetwork) {
  test::TestNet net;
  for (int i = 0; i < 4; ++i) {
    net.addStatic(i, {20.0 + 10.0 * i, 20.0});
  }
  net.installEcgridEverywhere();

  InvariantAuditor auditor(FailMode::kRecord);
  installStandardAudits(auditor, net.network);
  net.start(5.0);
  auditor.run(net.simulator.now());
  EXPECT_TRUE(auditor.violations().empty());

  // Rip a live host's attachment out from under it: the live-attachment
  // count no longer matches the alive-host count.
  net.network.channel().detach(
      net.network.findNode(2)->radio().channelAttachmentId());
  auditor.run(net.simulator.now());
  ASSERT_FALSE(auditor.violations().empty());
  EXPECT_EQ(auditor.violations()[0].audit, "channel-attachment-count");
}

// --------------------------------------------------------------------------
// wiring: standard audits over a live network and the scenario flag

TEST(StandardAudits, HealthyEcgridRunStaysViolationFree) {
  test::TestNet net;
  for (int i = 0; i < 9; ++i) {
    net.addStatic(i, {25.0 + 85.0 * (i % 3), 25.0 + 85.0 * (i / 3)});
  }
  net.installEcgridEverywhere();

  InvariantAuditor auditor(FailMode::kRecord);
  installStandardAudits(auditor, net.network);
  EXPECT_EQ(auditor.auditCount(), 6u);
  net.simulator.setPeriodicHook(
      100, [&] { auditor.run(net.simulator.now()); });
  net.start(60.0);
  EXPECT_GT(auditor.runs(), 10u);
  EXPECT_TRUE(auditor.violations().empty());
}

TEST(StandardAudits, ScenarioFlagSweepsAudits) {
  harness::ScenarioConfig config;
  config.hostCount = 20;
  config.duration = 30.0;
  config.flowCount = 2;
  config.auditInvariants = true;
  config.auditPeriodEvents = 500;
  harness::ScenarioResult result = harness::runScenario(config);
  EXPECT_GT(result.auditRuns, 10u);
}

TEST(StandardAudits, ScenarioFlagOffMeansNoSweeps) {
  harness::ScenarioConfig config;
  config.hostCount = 20;
  config.duration = 30.0;
  config.flowCount = 2;
  config.auditInvariants = false;
  harness::ScenarioResult result = harness::runScenario(config);
  EXPECT_EQ(result.auditRuns, 0u);
}

}  // namespace
}  // namespace ecgrid::check
