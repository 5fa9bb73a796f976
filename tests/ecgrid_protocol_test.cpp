// Protocol-level tests for ECGRID — the paper's contribution: sleeping,
// RAS paging, ACQ, buffered wakeup delivery, load balancing.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "test_net.hpp"

namespace ecgrid::test {
namespace {

using Role = protocols::GridProtocolBase::Role;

TEST(Ecgrid, ElectionPrefersBatteryLevel) {
  TestNet net;
  // Node 2 sits dead-centre but starts with a drained battery (lower
  // level); node 1 is farther but full. Rule 1 beats rule 2.
  net::Node& drained = net.addStatic(2, {50.0, 50.0});
  drained.batteryRef().drain(450.0, 0.0);  // pre-aged to 10 %
  net.addStatic(1, {80.0, 80.0});
  net.installEcgridEverywhere();
  net.start(5.0);
  EXPECT_TRUE(net.gridProtocolOf(1).isGateway());
  EXPECT_FALSE(net.gridProtocolOf(2).isGateway());
}

TEST(Ecgrid, NonGatewaysSleepAfterElection) {
  TestNet net;
  net.addStatic(1, {50.0, 50.0});
  net.addStatic(2, {30.0, 30.0});
  net.addStatic(3, {70.0, 60.0});
  net.installEcgridEverywhere();
  net.start(6.0);
  EXPECT_EQ(net.gateways(), (std::vector<net::NodeId>{1}));
  EXPECT_FALSE(net.network.findNode(1)->radio().sleeping());
  EXPECT_TRUE(net.network.findNode(2)->radio().sleeping());
  EXPECT_TRUE(net.network.findNode(3)->radio().sleeping());
  EXPECT_EQ(net.ecgridOf(2).role(), Role::kSleeping);
}

TEST(Ecgrid, SleepersConsumeSleepPower) {
  TestNet net;
  net.addStatic(1, {50.0, 50.0});
  net.addStatic(2, {30.0, 30.0});
  net.installEcgridEverywhere();
  net.start(6.0);
  double t0 = net.simulator.now();
  double sleeperBefore =
      net.network.findNode(2)->batteryRef().consumedJ(t0);
  net.simulator.run(t0 + 100.0);
  double sleeperDelta =
      net.network.findNode(2)->batteryRef().consumedJ(t0 + 100.0) -
      sleeperBefore;
  // 100 s at 0.163 W (sleep + GPS), no wakeups in a static quiet net.
  EXPECT_NEAR(sleeperDelta, 16.3, 0.5);
  // The gateway burns idle power the whole time.
  double gatewayRate =
      net.network.findNode(1)->batteryRef().consumedJ(t0 + 100.0) / (t0 + 100);
  EXPECT_GT(gatewayRate, 0.8);
}

TEST(Ecgrid, DataToSleepingHostIsPagedAndDelivered) {
  TestNet net;
  net.addStatic(1, {50.0, 50.0});   // gateway of (0,0)
  net.addStatic(2, {30.0, 30.0});   // sleeper in (0,0)
  net.addStatic(3, {150.0, 50.0});  // gateway of (1,0), source
  net.installEcgridEverywhere();
  int delivered = 0;
  net.network.findNode(2)->setAppReceiveCallback(
      [&](net::NodeId src, const net::DataTag&, int) {
        EXPECT_EQ(src, 3);
        ++delivered;
      });
  net.start(6.0);
  ASSERT_TRUE(net.network.findNode(2)->radio().sleeping());
  net.network.findNode(3)->sendFromApp(2, 512, {});
  net.simulator.run(net.simulator.now() + 2.0);
  EXPECT_EQ(delivered, 1);
  EXPECT_GT(net.network.paging().pagesSent(), 0u);
}

TEST(Ecgrid, SleepingSourceWakesWithAcq) {
  TestNet net;
  net.addStatic(1, {50.0, 50.0});   // gateway (0,0)
  net.addStatic(2, {30.0, 30.0});   // sleeping source
  net.addStatic(3, {150.0, 50.0});  // destination gateway (1,0)
  net.installEcgridEverywhere();
  int delivered = 0;
  net.network.findNode(3)->setAppReceiveCallback(
      [&](net::NodeId src, const net::DataTag&, int) {
        EXPECT_EQ(src, 2);
        ++delivered;
      });
  net.start(6.0);
  ASSERT_TRUE(net.network.findNode(2)->radio().sleeping());
  net.network.findNode(2)->sendFromApp(3, 512, {});
  net.simulator.run(net.simulator.now() + 2.0);
  EXPECT_EQ(delivered, 1);
}

TEST(Ecgrid, SleeperReturnsToSleepAfterTraffic) {
  TestNet net;
  net.addStatic(1, {50.0, 50.0});
  net.addStatic(2, {30.0, 30.0});
  net.addStatic(3, {150.0, 50.0});
  net.installEcgridEverywhere();
  net.start(6.0);
  net.network.findNode(3)->sendFromApp(2, 512, {});
  net.simulator.run(net.simulator.now() + 0.2);
  EXPECT_FALSE(net.network.findNode(2)->radio().sleeping());  // woken
  net.simulator.run(net.simulator.now() + 3.0);
  EXPECT_TRUE(net.network.findNode(2)->radio().sleeping());  // back asleep
}

TEST(Ecgrid, GridPageWakesWholeGridForElection) {
  TestNet net;
  // Gateway dies silently. Static sleepers cannot notice on their own —
  // the paper's detector 2 fires when a sleeper wakes *to transmit*, gets
  // no gateway response, pages the grid, and an election follows.
  net.addStatic(1, {50.0, 50.0}, /*batteryJ=*/10.0);
  net.addStatic(2, {30.0, 30.0});
  net.addStatic(3, {70.0, 70.0});
  net.addStatic(4, {150.0, 50.0});  // destination in the next grid
  core::EcgridConfig config;
  config.enableLoadBalance = false;  // force a *silent* death (no RETIRE)
  net.installEcgridEverywhere(config);
  net.start(6.0);
  EXPECT_EQ(net.gateways(), (std::vector<net::NodeId>{1, 4}));
  net.simulator.run(20.0);  // node 1's battery empties at ~11.6 s
  EXPECT_FALSE(net.network.findNode(1)->alive());
  // Sleeper 2 wakes to send: ACQ gets no answer → grid page → election.
  net.network.findNode(2)->sendFromApp(4, 64, {});
  net.simulator.run(30.0);
  bool recovered = false;
  for (net::NodeId id : {2, 3}) {
    recovered |= net.gridProtocolOf(id).isGateway();
  }
  EXPECT_TRUE(recovered);
}

TEST(Ecgrid, LoadBalanceRotatesGateway) {
  TestNet net{TestNet::WithHub{}};
  const std::string tracePath =
      (std::filesystem::temp_directory_path() / "ecgrid_load_balance.jsonl")
          .string();
  net.hub->openTrace(tracePath);
  // Two hosts; small batteries so the upper→boundary transition happens
  // quickly. The sitting gateway must retire at the level drop and the
  // rested sleeper must take over.
  net.addStatic(1, {50.0, 50.0}, /*batteryJ=*/25.0);
  net.addStatic(2, {40.0, 40.0}, /*batteryJ=*/25.0);
  net.installEcgridEverywhere();
  net.start(4.0);
  ASSERT_EQ(net.gateways(), (std::vector<net::NodeId>{1}));
  // Gateway burns ~0.863 W ⇒ crosses 60 % (leaving upper) after ~11.6 s.
  net.simulator.run(20.0);
  EXPECT_EQ(net.gateways(), (std::vector<net::NodeId>{2}));
  // And the retired host went back to sleep.
  EXPECT_TRUE(net.network.findNode(1)->radio().sleeping());
  // Its RETIRE record names the cause.
  net.hub->tracer()->flush();
  std::ifstream trace(tracePath);
  int loadBalanceRetires = 0;
  for (std::string line; std::getline(trace, line);) {
    if (line.find("\"ev\":\"retire\"") != std::string::npos &&
        line.find("\"node\":1,") != std::string::npos &&
        line.find("\"cause\":\"load_balance\"") != std::string::npos) {
      ++loadBalanceRetires;
    }
  }
  EXPECT_EQ(loadBalanceRetires, 1);
  std::filesystem::remove(tracePath);
}

TEST(Ecgrid, SleepDisabledBehavesLikeGridPlusRules) {
  TestNet net;
  core::EcgridConfig config;
  config.enableSleep = false;
  net.addStatic(1, {50.0, 50.0});
  net.addStatic(2, {30.0, 30.0});
  net.installEcgridEverywhere(config);
  net.start(8.0);
  EXPECT_FALSE(net.network.findNode(2)->radio().sleeping());
}

TEST(Ecgrid, SleepingMemberCrossingGridsReregisters) {
  TestNet net;
  net.addStatic(1, {50.0, 50.0});  // gateway (0,0)
  net.addScripted(2, {{0.0, {30.0, 50.0}, {0.0, 0.0}},
                      {8.0, {30.0, 50.0}, {10.0, 0.0}},
                      {21.0, {160.0, 50.0}, {0.0, 0.0}}});
  net.addStatic(3, {150.0, 50.0});  // gateway (1,0)
  net.addStatic(4, {250.0, 50.0});  // source, gateway (2,0)
  net.installEcgridEverywhere();
  net.start(6.0);
  ASSERT_TRUE(net.network.findNode(2)->radio().sleeping());
  int delivered = 0;
  net.network.findNode(2)->setAppReceiveCallback(
      [&](net::NodeId, const net::DataTag&, int) { ++delivered; });
  // Let node 2 wander into grid (1,0) and fall asleep there.
  net.simulator.run(30.0);
  EXPECT_EQ(net.network.findNode(2)->cell(), (geo::GridCoord{1, 0}));
  EXPECT_TRUE(net.network.findNode(2)->radio().sleeping());
  // Traffic must find it through its *new* gateway.
  net.network.findNode(4)->sendFromApp(2, 128, {});
  net.simulator.run(net.simulator.now() + 3.0);
  EXPECT_EQ(delivered, 1);
}

TEST(Ecgrid, GatewaySendsFinalRetireBeforeExhaustion) {
  TestNet net;
  // Lone gateway with tiny battery: before dying it must page + RETIRE so
  // the sleeper inherits (here the sleeper is in the same grid).
  net.addStatic(1, {50.0, 50.0}, /*batteryJ=*/12.0);
  net.addStatic(2, {30.0, 30.0}, /*batteryJ=*/500.0);
  core::EcgridConfig config;
  config.enableLoadBalance = true;
  net.installEcgridEverywhere(config);
  net.start(4.0);
  ASSERT_EQ(net.gateways(), (std::vector<net::NodeId>{1}));
  net.simulator.run(30.0);
  // Node 1 retired at a level drop (25 J batteries cross levels fast) or
  // the final-retire threshold; either way node 2 now gateways.
  EXPECT_EQ(net.gateways(), (std::vector<net::NodeId>{2}));
}

}  // namespace
}  // namespace ecgrid::test
