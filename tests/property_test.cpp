// Cross-cutting property and stress tests: conservation laws, lossless
// regimes, and mobility stressors, swept over seeds.
#include <gtest/gtest.h>

#include "harness/scenario.hpp"
#include "stats/packet_accounting.hpp"
#include "test_net.hpp"
#include "traffic/flow_manager.hpp"
#include "mobility/random_walk.hpp"

namespace ecgrid::test {
namespace {

// In a static, collision-quiet ECGRID network, the RAS machinery must be
// perfectly lossless: every packet to a sleeping destination is paged,
// buffered, and delivered.
class StaticLossless : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StaticLossless, EverySinglePacketArrives) {
  TestNet net;
  sim::RngStream rng(GetParam());
  // 12 hosts scattered over a 3x3-cell neighbourhood (all mutually
  // routable through gateways).
  for (int i = 0; i < 12; ++i) {
    net.addStatic(i, {rng.uniform(10.0, 290.0), rng.uniform(10.0, 290.0)});
  }
  net.installEcgridEverywhere();
  int delivered = 0;
  for (auto& node : net.network.nodes()) {
    node->setAppReceiveCallback(
        [&](net::NodeId, const net::DataTag&, int) { ++delivered; });
  }
  net.start(4.0);
  int sent = 0;
  for (int round = 0; round < 30; ++round) {
    net::NodeId src = static_cast<net::NodeId>(rng.uniformInt(0, 11));
    net::NodeId dst = static_cast<net::NodeId>(rng.uniformInt(0, 11));
    if (src == dst) continue;
    net::DataTag tag;
    tag.flowId = static_cast<std::uint64_t>(round);
    tag.sentAt = net.simulator.now();
    net.network.findNode(src)->sendFromApp(dst, 256, tag);
    ++sent;
    net.simulator.run(net.simulator.now() + rng.uniform(0.3, 1.2));
  }
  net.simulator.run(net.simulator.now() + 5.0);
  EXPECT_EQ(delivered, sent);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaticLossless,
                         ::testing::Values(2u, 17u, 2026u));

// Network-wide energy conservation: at every sample, Σ consumed + Σ
// remaining == n · capacity, and aen is exactly Σ consumed / (n·E₀).
TEST(Conservation, NetworkEnergyLedgerBalances) {
  TestNet net;
  for (int i = 0; i < 10; ++i) {
    net.addStatic(i, {30.0 + 25.0 * i, 40.0 + 15.0 * (i % 3)}, 50.0);
  }
  net.installEcgridEverywhere();
  net.network.start();
  for (int step = 1; step <= 12; ++step) {
    net.simulator.run(step * 5.0);
    double consumed = 0.0;
    double remaining = 0.0;
    for (auto& node : net.network.nodes()) {
      consumed += node->batteryRef().consumedJ(net.simulator.now());
      remaining += node->batteryRef().remainingJ(net.simulator.now());
    }
    EXPECT_NEAR(consumed + remaining, 10 * 50.0, 1e-6);
  }
}

// The radio can never be cheaper than permanent sleep nor dearer than
// permanent transmit: every host's mean draw lies in [sleep+gps, tx+gps].
TEST(Conservation, PowerDrawStaysWithinPhysicalBounds) {
  harness::ScenarioConfig config;
  config.protocol = harness::ProtocolKind::kEcgrid;
  config.hostCount = 30;
  config.duration = 100.0;
  config.flowCount = 2;
  config.packetsPerSecondPerFlow = 5.0;
  config.auditInvariants = true;
  harness::ScenarioResult result = harness::runScenario(config);
  double aen = result.aen.valueAt(100.0);
  double meanW = aen * 500.0 / 100.0;
  EXPECT_GE(meanW, 0.163 - 1e-6);  // sleep + GPS
  EXPECT_LE(meanW, 1.433 + 1e-6);  // tx + GPS
}

// Fast random-walk mobility produces far more grid crossings per second
// than waypoint at the same speed — the protocol machinery (LEAVE,
// newcomer handshakes, handovers) must hold up.
TEST(Stress, RandomWalkChurnStillDelivers) {
  sim::Simulator simulator(5);
  net::Network network(simulator, net::NetworkConfig{});
  mobility::RandomWalkConfig walk;
  walk.speed = 10.0;
  walk.epoch = 8.0;
  auto oracle = [&network](net::NodeId id) -> std::optional<geo::GridCoord> {
    net::Node* node = network.findNode(id);
    if (node == nullptr || !node->alive()) return std::nullopt;
    return node->cell();
  };
  for (int i = 0; i < 50; ++i) {
    net::NodeConfig config;
    config.id = i;
    net::Node& node = network.addNode(
        std::make_unique<mobility::RandomWalk>(
            walk, simulator.rng().stream("walk", i)),
        config);
    core::EcgridConfig protoConfig;
    protoConfig.base.locationHint = oracle;
    node.setProtocol(
        std::make_unique<core::EcgridProtocol>(node, protoConfig));
  }
  stats::PacketAccounting accounting;
  for (std::size_t i = 0; i < network.nodeCount(); ++i) {
    network.node(i).setAppReceiveCallback(
        [&](net::NodeId, const net::DataTag& tag, int) {
          accounting.onReceived(tag, simulator.now());
        });
  }
  traffic::FlowPlan plan;
  plan.flowCount = 2;
  plan.packetsPerSecond = 5.0;
  traffic::FlowManager flows(network, plan, accounting,
                             simulator.rng().stream("flows"));
  network.start();
  simulator.run(120.0);
  EXPECT_GT(accounting.packetsSent(), 1000u);
  // This churn rate (direction changes every ≤8 s at 10 m/s) is an order
  // of magnitude past the paper's workload; the requirement is graceful
  // degradation, not the >99 % of the calm scenarios.
  EXPECT_GT(accounting.deliveryRate(), 0.70)
      << "delivered " << accounting.packetsReceived() << "/"
      << accounting.packetsSent();
}

// Interference-ring runs must not break the protocol logic, only cost
// some retransmissions.
TEST(Stress, SurvivesWideInterferenceRing) {
  harness::ScenarioConfig config;
  config.protocol = harness::ProtocolKind::kEcgrid;
  config.hostCount = 60;
  config.duration = 120.0;
  config.interferenceRangeFactor = 2.0;
  config.auditInvariants = true;
  harness::ScenarioResult result = harness::runScenario(config);
  EXPECT_GT(result.deliveryRate, 0.9);
}

// Determinism must survive the full protocol zoo under churn.
class ChurnDeterminism
    : public ::testing::TestWithParam<harness::ProtocolKind> {};

TEST_P(ChurnDeterminism, TwoRunsIdentical) {
  harness::ScenarioConfig config;
  config.protocol = GetParam();
  config.hostCount = 50;
  config.maxSpeed = 10.0;
  config.duration = 90.0;
  config.seed = 99;
  config.auditInvariants = true;
  harness::ScenarioResult a = harness::runScenario(config);
  harness::ScenarioResult b = harness::runScenario(config);
  EXPECT_EQ(a.eventsExecuted, b.eventsExecuted);
  EXPECT_EQ(obs::metricOr(a.metrics, "phy.frames_transmitted"),
            obs::metricOr(b.metrics, "phy.frames_transmitted"));
  EXPECT_EQ(a.packetsReceived, b.packetsReceived);
  EXPECT_EQ(obs::metricOr(a.metrics, "paging.pages_sent"),
            obs::metricOr(b.metrics, "paging.pages_sent"));
}

INSTANTIATE_TEST_SUITE_P(Protocols, ChurnDeterminism,
                         ::testing::Values(harness::ProtocolKind::kGrid,
                                           harness::ProtocolKind::kEcgrid,
                                           harness::ProtocolKind::kGaf));

}  // namespace
}  // namespace ecgrid::test
