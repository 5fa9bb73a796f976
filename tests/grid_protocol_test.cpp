// Protocol-level tests for the GRID baseline: election outcomes,
// grid-by-grid delivery, gateway handover, and failure recovery.
#include <gtest/gtest.h>

#include "test_net.hpp"

namespace ecgrid::test {
namespace {

TEST(GridProtocol, ElectsClosestToCenter) {
  TestNet net;
  // All three in cell (0,0); centre is (50,50).
  net.addStatic(1, {10.0, 10.0});
  net.addStatic(2, {48.0, 52.0});  // closest
  net.addStatic(3, {80.0, 20.0});
  net.installGridEverywhere();
  net.start(3.0);
  EXPECT_EQ(net.gateways(), (std::vector<net::NodeId>{2}));
  EXPECT_EQ(net.gridProtocolOf(1).currentGateway(),
            std::optional<net::NodeId>(2));
  EXPECT_EQ(net.gridProtocolOf(3).currentGateway(),
            std::optional<net::NodeId>(2));
}

// Exposes the election field a host would vote on.
class FieldProbe final : public protocols::GridProtocolBase {
 public:
  using GridProtocolBase::GridProtocolBase;
  const char* name() const override { return "field-probe"; }
  std::vector<net::NodeId> fieldIds() {
    std::vector<net::NodeId> ids;
    for (const protocols::Candidate& candidate : freshCandidates(
             config().helloPeriod * config().gatewayStaleFactor)) {
      ids.push_back(candidate.id);
    }
    return ids;
  }
};

TEST(GridProtocol, ElectionFieldDropsStaleSightingsAndKeepsIdOrder) {
  TestNet net;
  // One cell, ids added out of order; host 7 only watches.
  for (const net::NodeId id : {11, 3, 7, 5, 1, 9}) {
    net.addStatic(id, {5.0 + 8.0 * id, 40.0});
  }
  for (auto& node : net.network.nodes()) {
    if (node->id() != 7) net.installGrid(*node);
  }
  net::Node& watcher = *net.network.findNode(7);
  auto probe = std::make_unique<FieldProbe>(watcher,
                                            protocols::GridProtocolConfig{});
  FieldProbe& field = *probe;
  watcher.setProtocol(std::move(probe));
  net.start(3.0);
  EXPECT_EQ(field.fieldIds(), (std::vector<net::NodeId>{1, 3, 5, 9, 11}));
  // Silenced hosts age out of the field; the rest keep their order.
  net.network.findNode(3)->crash();
  net.network.findNode(11)->crash();
  net.simulator.run(net.simulator.now() + 4.0);
  EXPECT_EQ(field.fieldIds(), (std::vector<net::NodeId>{1, 5, 9}));
  net.network.findNode(1)->crash();
  net.simulator.run(net.simulator.now() + 4.0);
  EXPECT_EQ(field.fieldIds(), (std::vector<net::NodeId>{5, 9}));
}

TEST(GridProtocol, LoneHostElectsItself) {
  TestNet net;
  net.addStatic(9, {450.0, 450.0});
  net.installGridEverywhere();
  net.start(3.0);
  EXPECT_EQ(net.gateways(), (std::vector<net::NodeId>{9}));
}

TEST(GridProtocol, OneGatewayPerOccupiedGrid) {
  TestNet net;
  for (int i = 0; i < 12; ++i) {
    net.addStatic(i, {50.0 + (i % 4) * 100.0, 50.0 + (i / 4) * 100.0});
  }
  net.installGridEverywhere();
  net.start(3.0);
  EXPECT_EQ(net.gateways().size(), 12u);  // one host per grid, all gateways
}

TEST(GridProtocol, DeliversWithinOneGrid) {
  TestNet net;
  net.addStatic(1, {20.0, 50.0});
  net.addStatic(2, {50.0, 50.0});
  net.addStatic(3, {80.0, 50.0});
  net.installGridEverywhere();
  int delivered = 0;
  net.network.findNode(3)->setAppReceiveCallback(
      [&](net::NodeId src, const net::DataTag&, int bytes) {
        EXPECT_EQ(src, 1);
        EXPECT_EQ(bytes, 256);
        ++delivered;
      });
  net.start(3.0);
  net.network.findNode(1)->sendFromApp(3, 256, {});
  net.simulator.run(net.simulator.now() + 2.0);
  EXPECT_EQ(delivered, 1);
}

TEST(GridProtocol, DeliversAcrossAChainOfGrids) {
  TestNet net;
  // A 6-grid chain; one host per grid near each centre.
  for (int i = 0; i < 6; ++i) {
    net.addStatic(i, {50.0 + i * 100.0, 50.0});
  }
  net.installGridEverywhere();
  int delivered = 0;
  net.network.findNode(5)->setAppReceiveCallback(
      [&](net::NodeId src, const net::DataTag&, int) {
        EXPECT_EQ(src, 0);
        ++delivered;
      });
  net.start(3.0);
  for (int k = 0; k < 5; ++k) {
    net::DataTag tag;
    tag.sequence = static_cast<std::uint64_t>(k);
    tag.sentAt = net.simulator.now();
    net.network.findNode(0)->sendFromApp(5, 512, tag);
    net.simulator.run(net.simulator.now() + 0.5);
  }
  net.simulator.run(net.simulator.now() + 2.0);
  EXPECT_EQ(delivered, 5);
}

TEST(GridProtocol, RoutesAroundAnEmptyGridColumn) {
  TestNet net;
  // Hosts at x = 50, 150, (gap at 250), 350 would be disconnected at grid
  // granularity, but radio range 250 m bridges the hole.
  net.addStatic(0, {50.0, 50.0});
  net.addStatic(1, {150.0, 50.0});
  net.addStatic(2, {350.0, 50.0});
  net.addStatic(3, {450.0, 50.0});
  net.installGridEverywhere();
  int delivered = 0;
  net.network.findNode(3)->setAppReceiveCallback(
      [&](net::NodeId, const net::DataTag&, int) { ++delivered; });
  net.start(3.0);
  net.network.findNode(0)->sendFromApp(3, 128, {});
  net.simulator.run(net.simulator.now() + 2.0);
  EXPECT_EQ(delivered, 1);
}

TEST(GridProtocol, GatewayHandoverOnDeparture) {
  TestNet net;
  // Node 1 starts as the obvious gateway (dead centre) but walks away at
  // t=10; node 2 must inherit and traffic must keep flowing.
  net.addScripted(1, {{0.0, {50.0, 50.0}, {0.0, 0.0}},
                      {10.0, {50.0, 50.0}, {20.0, 0.0}},
                      {20.0, {250.0, 50.0}, {0.0, 0.0}}});
  net.addStatic(2, {40.0, 40.0});
  net.addStatic(3, {60.0, 70.0});
  net.installGridEverywhere();
  net.start(3.0);
  EXPECT_EQ(net.gateways(), (std::vector<net::NodeId>{1}));
  net.simulator.run(20.0);
  // Node 1 left cell (0,0); node 2 (closer to centre than 3) takes over.
  auto gws = net.gateways();
  ASSERT_FALSE(gws.empty());
  EXPECT_TRUE(net.gridProtocolOf(2).isGateway() ||
              net.gridProtocolOf(3).isGateway());
  EXPECT_TRUE(net.gridProtocolOf(2).isGateway());
}

TEST(GridProtocol, RecoversFromGatewayDeath) {
  TestNet net;
  // The centre-most node has a tiny battery and dies without a RETIRE;
  // the no-gateway watchdog must elect a replacement.
  net.addStatic(1, {50.0, 50.0}, /*batteryJ=*/10.0);  // dies at ~11.6 s
  net.addStatic(2, {30.0, 30.0});
  net.addStatic(3, {70.0, 70.0});
  net.installGridEverywhere();
  net.start(3.0);
  EXPECT_EQ(net.gateways(), (std::vector<net::NodeId>{1}));
  net.simulator.run(25.0);
  EXPECT_FALSE(net.network.findNode(1)->alive());
  auto gws = net.gateways();
  ASSERT_EQ(gws.size(), 1u);
  EXPECT_NE(gws[0], 1);
}

TEST(GridProtocol, GridHostsNeverSleep) {
  TestNet net;
  for (int i = 0; i < 6; ++i) {
    net.addStatic(i, {20.0 + i * 10.0, 50.0});
  }
  net.installGridEverywhere();
  net.start(10.0);
  for (auto& node : net.network.nodes()) {
    EXPECT_FALSE(node->radio().sleeping());
  }
}

TEST(GridProtocol, MemberLeaveUpdatesHostTable) {
  TestNet net;
  // Member 2 walks to the next grid; data addressed to it must follow.
  net.addStatic(1, {50.0, 50.0});
  net.addScripted(2, {{0.0, {30.0, 50.0}, {0.0, 0.0}},
                      {5.0, {30.0, 50.0}, {10.0, 0.0}},
                      {18.0, {160.0, 50.0}, {0.0, 0.0}}});
  net.addStatic(3, {150.0, 50.0});
  net.addStatic(4, {250.0, 50.0});
  net.installGridEverywhere();
  int delivered = 0;
  net.network.findNode(2)->setAppReceiveCallback(
      [&](net::NodeId, const net::DataTag&, int) { ++delivered; });
  net.start(3.0);
  net.network.findNode(4)->sendFromApp(2, 64, {});
  net.simulator.run(net.simulator.now() + 2.0);
  EXPECT_EQ(delivered, 1);
  // After the move (node 2 now lives in cell (1,0)):
  net.simulator.run(25.0);
  net.network.findNode(4)->sendFromApp(2, 64, {});
  net.simulator.run(net.simulator.now() + 3.0);
  EXPECT_EQ(delivered, 2);
}

}  // namespace
}  // namespace ecgrid::test
