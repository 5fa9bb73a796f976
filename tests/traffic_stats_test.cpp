// Tests for traffic generation, packet accounting, time series, the
// energy recorder, and CSV output.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "protocols/flooding/flooding_protocol.hpp"
#include "stats/energy_recorder.hpp"
#include "stats/packet_accounting.hpp"
#include "stats/timeseries.hpp"
#include "test_net.hpp"
#include "traffic/cbr.hpp"
#include "traffic/flow_manager.hpp"

namespace ecgrid::test {
namespace {

TEST(Cbr, EmitsAtConfiguredRate) {
  TestNet net;
  net::Node& a = net.addStatic(1, {50.0, 50.0});
  net::Node& b = net.addStatic(2, {150.0, 50.0});
  net.installGrid(a);
  net.installGrid(b);
  traffic::CbrFlowConfig config;
  config.source = 1;
  config.destination = 2;
  config.packetsPerSecond = 4.0;
  config.startTime = 1.0;
  int sent = 0;
  traffic::CbrSource source(
      net.simulator, a, config,
      [&](const traffic::CbrFlowConfig&, std::uint64_t, bool) { ++sent; });
  net.network.start();
  net.simulator.run(11.01);
  EXPECT_EQ(sent, 41);  // t = 1.0, 1.25, ... 11.0
}

TEST(Cbr, StopsAtStopTimeAndOnStop) {
  TestNet net;
  net::Node& a = net.addStatic(1, {50.0, 50.0});
  net.addStatic(2, {150.0, 50.0});
  net.installGridEverywhere();
  traffic::CbrFlowConfig config;
  config.source = 1;
  config.destination = 2;
  config.packetsPerSecond = 1.0;
  config.startTime = 0.0;
  config.stopTime = 5.0;
  int sent = 0;
  traffic::CbrSource source(
      net.simulator, a, config,
      [&](const traffic::CbrFlowConfig&, std::uint64_t, bool) { ++sent; });
  net.network.start();
  net.simulator.run(20.0);
  EXPECT_EQ(sent, 5);  // 0,1,2,3,4 — the tick at 5.0 observes stopTime
}

TEST(Cbr, DeadSourceStopsCounting) {
  TestNet net;
  net::Node& a = net.addStatic(1, {50.0, 50.0}, /*batteryJ=*/5.0);
  net.addStatic(2, {150.0, 50.0});
  net.installGridEverywhere();
  traffic::CbrFlowConfig config;
  config.source = 1;
  config.destination = 2;
  config.packetsPerSecond = 1.0;
  int alive = 0;
  int dead = 0;
  traffic::CbrSource source(
      net.simulator, a, config,
      [&](const traffic::CbrFlowConfig&, std::uint64_t, bool wasAlive) {
        (wasAlive ? alive : dead)++;
      });
  net.network.start();
  net.simulator.run(20.0);  // battery dies at ~5.8 s
  EXPECT_GE(alive, 5);
  EXPECT_LE(alive, 7);
  EXPECT_GT(dead, 5);
}

TEST(Cbr, RejectsSelfFlow) {
  TestNet net;
  net::Node& a = net.addStatic(1, {50.0, 50.0});
  net.installGrid(a);
  traffic::CbrFlowConfig config;
  config.source = 1;
  config.destination = 1;
  EXPECT_THROW(traffic::CbrSource(net.simulator, a, config, nullptr),
               std::invalid_argument);
}

TEST(PacketAccounting, ComputesDeliveryRate) {
  stats::PacketAccounting accounting;
  for (std::uint64_t s = 0; s < 10; ++s) accounting.onSent(1, s, true);
  for (std::uint64_t s = 0; s < 8; ++s) {
    net::DataTag tag{1, s, 0.5};
    accounting.onReceived(tag, 0.6);
  }
  EXPECT_EQ(accounting.packetsSent(), 10u);
  EXPECT_EQ(accounting.packetsReceived(), 8u);
  EXPECT_DOUBLE_EQ(accounting.deliveryRate(), 0.8);
}

TEST(PacketAccounting, DeadSourceAttemptsDontCount) {
  stats::PacketAccounting accounting;
  accounting.onSent(1, 0, true);
  accounting.onSent(1, 1, false);  // source was dead
  EXPECT_EQ(accounting.packetsSent(), 1u);
}

TEST(PacketAccounting, SuppressesDuplicateDeliveries) {
  stats::PacketAccounting accounting;
  accounting.onSent(1, 0, true);
  net::DataTag tag{1, 0, 1.0};
  accounting.onReceived(tag, 1.1);
  accounting.onReceived(tag, 1.2);  // flooding duplicate
  EXPECT_EQ(accounting.packetsReceived(), 1u);
  EXPECT_EQ(accounting.duplicatesSuppressed(), 1u);
  EXPECT_DOUBLE_EQ(accounting.deliveryRate(), 1.0);
}

TEST(PacketAccounting, LatencyStatistics) {
  stats::PacketAccounting accounting;
  for (std::uint64_t s = 0; s < 4; ++s) {
    accounting.onSent(1, s, true);
    net::DataTag tag{1, s, 10.0};
    accounting.onReceived(tag, 10.0 + 0.01 * static_cast<double>(s + 1));
  }
  EXPECT_NEAR(accounting.meanLatency(), 0.025, 1e-9);
  EXPECT_NEAR(accounting.latencyPercentile(0.0), 0.01, 1e-9);
  EXPECT_NEAR(accounting.latencyPercentile(100.0), 0.04, 1e-9);
  EXPECT_NEAR(accounting.latencyPercentile(50.0), 0.025, 1e-9);
}

TEST(PacketAccounting, EmptyAccountingDefaults) {
  stats::PacketAccounting accounting;
  EXPECT_DOUBLE_EQ(accounting.deliveryRate(), 1.0);
  EXPECT_DOUBLE_EQ(accounting.meanLatency(), 0.0);
  EXPECT_DOUBLE_EQ(accounting.latencyPercentile(99.0), 0.0);
}

TEST(PacketAccounting, PerFlowRates) {
  stats::PacketAccounting accounting;
  accounting.onSent(1, 0, true);
  accounting.onSent(2, 0, true);
  accounting.onSent(2, 1, true);
  accounting.onReceived(net::DataTag{2, 0, 0.0}, 0.1);
  auto rates = accounting.perFlowDeliveryRate();
  EXPECT_DOUBLE_EQ(rates[1], 0.0);
  EXPECT_DOUBLE_EQ(rates[2], 0.5);
}

TEST(TimeSeries, ValueAtIsStepwise) {
  stats::TimeSeries series("s");
  series.add(0.0, 1.0);
  series.add(10.0, 0.5);
  series.add(20.0, 0.2);
  EXPECT_DOUBLE_EQ(series.valueAt(-5.0), 1.0);
  EXPECT_DOUBLE_EQ(series.valueAt(5.0), 1.0);
  EXPECT_DOUBLE_EQ(series.valueAt(10.0), 0.5);
  EXPECT_DOUBLE_EQ(series.valueAt(15.0), 0.5);
  EXPECT_DOUBLE_EQ(series.valueAt(100.0), 0.2);
}

TEST(TimeSeries, FirstTimeBelow) {
  stats::TimeSeries series("s");
  series.add(0.0, 1.0);
  series.add(10.0, 0.5);
  series.add(20.0, 0.0);
  EXPECT_DOUBLE_EQ(series.firstTimeBelow(0.6), 10.0);
  EXPECT_DOUBLE_EQ(series.firstTimeBelow(0.0), 20.0);
  EXPECT_GE(series.firstTimeBelow(-1.0), sim::kTimeNever);
}

TEST(Csv, WritesAlignedSeries) {
  stats::TimeSeries a("alpha");
  a.add(0.0, 1.0);
  a.add(1.0, 2.0);
  stats::TimeSeries b("beta");
  b.add(0.0, 3.0);
  b.add(1.0, 4.0);
  std::string path =
      (std::filesystem::temp_directory_path() / "ecgrid_csv_test.csv")
          .string();
  stats::writeCsv(path, {a, b});
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "time,alpha,beta");
  std::getline(in, line);
  EXPECT_EQ(line, "0,1,3");
  std::getline(in, line);
  EXPECT_EQ(line, "1,2,4");
  std::filesystem::remove(path);
}

TEST(EnergyRecorder, SamplesAliveAndAen) {
  TestNet net;
  net.addStatic(1, {50.0, 50.0}, /*batteryJ=*/10.0);   // dies at ~11.6 s
  net.addStatic(2, {150.0, 50.0}, /*batteryJ=*/500.0);
  net.installGridEverywhere();
  stats::EnergyRecorder recorder(net.network, 1.0);
  net.network.start();
  net.simulator.run(20.0);
  recorder.sample();
  EXPECT_DOUBLE_EQ(recorder.aliveFraction().points().front().second, 1.0);
  EXPECT_DOUBLE_EQ(recorder.aliveFraction().points().back().second, 0.5);
  ASSERT_EQ(recorder.deathTimes().size(), 1u);
  EXPECT_NEAR(recorder.firstDeath(), 10.0 / 0.863, 0.2);
  // aen is monotone non-decreasing.
  double last = 0.0;
  for (auto [t, v] : recorder.aen().points()) {
    EXPECT_GE(v, last - 1e-12);
    last = v;
  }
}

TEST(EnergyRecorder, ExcludesInfiniteBatteriesByDefault) {
  TestNet net;
  net.addStatic(1, {50.0, 50.0});
  net::NodeConfig endpointConfig;
  endpointConfig.id = 2;
  endpointConfig.infiniteBattery = true;
  net.network.addNode(
      std::make_unique<mobility::StaticMobility>(geo::Vec2{150.0, 50.0}),
      endpointConfig);
  net.installGridEverywhere();
  stats::EnergyRecorder recorder(net.network, 1.0);
  net.network.start();
  net.simulator.run(5.0);
  // Only the metered (finite) host contributes: aen > 0 and rises at the
  // idle rate (0.863/500 per second).
  recorder.sample();
  EXPECT_NEAR(recorder.aen().points().back().second, 5.0 * 0.863 / 500.0,
              1e-3);
}

TEST(FlowManager, CreatesDistinctEndpointFlows) {
  TestNet net;
  for (int i = 0; i < 6; ++i) {
    net.addStatic(i, {50.0 + 30.0 * i, 50.0});
  }
  net.installGridEverywhere();
  stats::PacketAccounting accounting;
  traffic::FlowPlan plan;
  plan.flowCount = 4;
  plan.packetsPerSecond = 2.0;
  traffic::FlowManager flows(net.network, plan, accounting,
                             net.simulator.rng().stream("flows"));
  ASSERT_EQ(flows.flows().size(), 4u);
  for (const auto& flow : flows.flows()) {
    EXPECT_NE(flow.source, flow.destination);
  }
  net.network.start();
  net.simulator.run(10.0);
  EXPECT_GT(accounting.packetsSent(), 50u);
  EXPECT_GT(accounting.deliveryRate(), 0.9);
}

TEST(Flooding, ActsAsDeliveryOracle) {
  TestNet net;
  for (int i = 0; i < 8; ++i) {
    net::Node& node = net.addStatic(i, {60.0 + 120.0 * i, 50.0});
    node.setProtocol(std::make_unique<protocols::FloodingProtocol>(
        node, protocols::FloodingConfig{}));
  }
  int delivered = 0;
  net.network.findNode(7)->setAppReceiveCallback(
      [&](net::NodeId src, const net::DataTag&, int) {
        EXPECT_EQ(src, 0);
        ++delivered;
      });
  net.network.start();
  net.network.findNode(0)->sendFromApp(7, 64, {});
  net.simulator.run(5.0);
  EXPECT_EQ(delivered, 1);
}

}  // namespace
}  // namespace ecgrid::test
