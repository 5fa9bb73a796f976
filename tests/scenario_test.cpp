// End-to-end integration tests through the scenario harness: the paper's
// headline behaviours, determinism, and cross-protocol invariants.
// Durations are kept short so the suite stays fast; the full-length
// figures live in bench/.
#include <gtest/gtest.h>

#include "harness/scenario.hpp"

namespace ecgrid::harness {
namespace {

ScenarioConfig smallBase() {
  ScenarioConfig config;
  config.hostCount = 40;
  config.flowCount = 1;
  config.packetsPerSecondPerFlow = 10.0;
  config.duration = 120.0;
  config.seed = 7;
  // Every harness-driven test also sweeps the runtime invariant audits;
  // a violation anywhere aborts the run and fails the test.
  config.auditInvariants = true;
  return config;
}

TEST(Scenario, ProtocolNamesRoundTrip) {
  for (ProtocolKind kind : {ProtocolKind::kGrid, ProtocolKind::kEcgrid,
                            ProtocolKind::kGaf, ProtocolKind::kFlooding}) {
    auto parsed = protocolFromString(toString(kind));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, kind);
  }
  EXPECT_FALSE(protocolFromString("nonsense").has_value());
}

class ProtocolSmoke : public ::testing::TestWithParam<ProtocolKind> {};

TEST_P(ProtocolSmoke, DeliversMostTraffic) {
  ScenarioConfig config = smallBase();
  config.protocol = GetParam();
  ScenarioResult result = runScenario(config);
  EXPECT_GT(result.packetsSent, 1000u);
  EXPECT_GT(result.deliveryRate, 0.90)
      << toString(GetParam()) << " delivered only "
      << 100.0 * result.deliveryRate << "%";
  EXPECT_GT(result.meanLatencySeconds, 0.0);
  EXPECT_LT(result.meanLatencySeconds, 0.5);
  // Nobody dies in 120 s with 500 J batteries.
  EXPECT_EQ(result.deathTimes.size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(AllProtocols, ProtocolSmoke,
                         ::testing::Values(ProtocolKind::kGrid,
                                           ProtocolKind::kEcgrid,
                                           ProtocolKind::kGaf));

TEST(Scenario, SameSeedIsBitwiseDeterministic) {
  ScenarioConfig config = smallBase();
  config.protocol = ProtocolKind::kEcgrid;
  ScenarioResult a = runScenario(config);
  ScenarioResult b = runScenario(config);
  EXPECT_EQ(a.packetsSent, b.packetsSent);
  EXPECT_EQ(a.packetsReceived, b.packetsReceived);
  EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
  EXPECT_EQ(obs::metricOr(a.metrics, "phy.frames_transmitted"),
            obs::metricOr(b.metrics, "phy.frames_transmitted"));
  EXPECT_DOUBLE_EQ(a.meanLatencySeconds, b.meanLatencySeconds);
  ASSERT_EQ(a.aen.size(), b.aen.size());
  for (std::size_t i = 0; i < a.aen.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.aen.points()[i].second, b.aen.points()[i].second);
  }
}

TEST(Scenario, DifferentSeedsDiffer) {
  ScenarioConfig config = smallBase();
  config.protocol = ProtocolKind::kEcgrid;
  ScenarioResult a = runScenario(config);
  config.seed = 8;
  ScenarioResult b = runScenario(config);
  EXPECT_NE(a.eventsExecuted, b.eventsExecuted);
}

TEST(Scenario, EcgridSleepsGridDoesNot) {
  // Denser population so grids hold several hosts and sleeping is
  // actually possible (sparse nets are mostly solo gateways).
  ScenarioConfig config = smallBase();
  config.hostCount = 80;
  config.protocol = ProtocolKind::kGrid;
  ScenarioResult grid = runScenario(config);
  config.protocol = ProtocolKind::kEcgrid;
  ScenarioResult ecgrid = runScenario(config);
  EXPECT_DOUBLE_EQ(grid.awakeFraction.valueAt(100.0), 1.0);
  EXPECT_LT(ecgrid.awakeFraction.valueAt(100.0), 0.85);
}

TEST(Scenario, EcgridConsumesLessEnergyThanGrid) {
  ScenarioConfig config = smallBase();
  config.hostCount = 80;
  config.protocol = ProtocolKind::kGrid;
  double gridAen = runScenario(config).aen.valueAt(120.0);
  config.protocol = ProtocolKind::kEcgrid;
  double ecgridAen = runScenario(config).aen.valueAt(120.0);
  EXPECT_GT(gridAen, ecgridAen * 1.15)
      << "expected a clear energy gap (paper: ~33%)";
}

TEST(Scenario, GridNetworkDiesNearPaperWall) {
  // The headline number: all-idle hosts with 500 J at 0.863 W die at
  // ≈ 580 s; the paper rounds to "simulation time = 590 seconds".
  ScenarioConfig config = smallBase();
  config.protocol = ProtocolKind::kGrid;
  config.duration = 700.0;
  ScenarioResult result = runScenario(config);
  ASSERT_FALSE(result.deathTimes.empty());
  EXPECT_GT(result.firstDeath, 540.0);
  EXPECT_LT(result.firstDeath, 600.0);
  EXPECT_DOUBLE_EQ(result.aliveFraction.valueAt(650.0), 0.0);
}

TEST(Scenario, EcgridOutlivesGrid) {
  ScenarioConfig config = smallBase();
  config.hostCount = 80;
  config.duration = 800.0;
  config.protocol = ProtocolKind::kGrid;
  ScenarioResult grid = runScenario(config);
  config.protocol = ProtocolKind::kEcgrid;
  ScenarioResult ecgrid = runScenario(config);
  EXPECT_DOUBLE_EQ(grid.aliveFraction.valueAt(800.0), 0.0);
  EXPECT_GT(ecgrid.aliveFraction.valueAt(800.0), 0.3);
}

TEST(Scenario, EcgridLifetimeGrowsWithDensity) {
  // Fig. 8's mechanism in miniature: more hosts per grid ⇒ more gateway
  // rotation ⇒ later deaths.
  ScenarioConfig config = smallBase();
  config.protocol = ProtocolKind::kEcgrid;
  config.duration = 900.0;
  config.hostCount = 30;
  double sparse = runScenario(config).aliveFraction.valueAt(850.0);
  config.hostCount = 90;
  double dense = runScenario(config).aliveFraction.valueAt(850.0);
  EXPECT_GT(dense, sparse + 0.1);
}

TEST(Scenario, GafModelOneAddsEndpoints) {
  ScenarioConfig config = smallBase();
  config.protocol = ProtocolKind::kGaf;
  config.gafModelOne = true;
  config.gafEndpointCount = 10;
  ScenarioResult result = runScenario(config);
  // Flows run between infinite-energy endpoints; the 40 metered hosts
  // neither source nor sink, so delivery stays high while they sleep.
  EXPECT_GT(result.deliveryRate, 0.9);
  EXPECT_LT(result.awakeFraction.valueAt(100.0), 0.95);
}

TEST(Scenario, DisablingOracleStillDelivers) {
  ScenarioConfig config = smallBase();
  config.protocol = ProtocolKind::kEcgrid;
  config.useLocationOracle = false;  // every search floods globally
  ScenarioResult result = runScenario(config);
  EXPECT_GT(result.deliveryRate, 0.9);
}

TEST(Scenario, RejectsNonsenseConfig) {
  ScenarioConfig config = smallBase();
  config.hostCount = 0;
  EXPECT_THROW(runScenario(config), std::invalid_argument);
  config = smallBase();
  config.duration = -1.0;
  EXPECT_THROW(runScenario(config), std::invalid_argument);
}

}  // namespace
}  // namespace ecgrid::harness
