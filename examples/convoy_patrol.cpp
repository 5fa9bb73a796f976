// Convoy + patrol scenario — "fleets on the oceans, armies on the march"
// (paper §1): a column of vehicles crossing the field while fast patrol
// units roam around it, all sharing one ECGRID mesh.
//
// Demonstrates scripted mobility, heterogeneous speeds, the dwell-timer
// wakeups of sleeping hosts as the convoy crosses grid after grid, and
// end-to-end reporting from the convoy tail to the lead vehicle.
//
// With --trace PATH the run writes an ecgrid-events trace: the protocol
// events plus, every 5 s, one "state"/"host" instant per host carrying its
// position, liveness, radio state, gateway role, cell, battery and GPS
// error. Gateways also carry served_x/served_y, the grid they believe they
// serve. tools/trace_check.py validates it; tools/trace_chrome.py opens it
// in Perfetto.
#include <cstdio>
#include <exception>
#include <functional>
#include <memory>
#include <string>

#include "core/ecgrid_protocol.hpp"
#include "mobility/random_waypoint.hpp"
#include "obs/observability.hpp"
#include "stats/energy_recorder.hpp"
#include "stats/packet_accounting.hpp"
#include "util/flags.hpp"

namespace {

/// One state sample of `node`. x/y and cell_x/cell_y are ground truth;
/// gps_err is the magnitude of the host's injected position error.
void traceHostState(ecgrid::obs::EventTracer& tracer, ecgrid::net::Node& node,
                    ecgrid::sim::Time now) {
  using namespace ecgrid;
  const bool alive = node.alive();
  // Every host in this scenario runs ECGRID (see install() below).
  const auto& protocol =
      static_cast<const core::EcgridProtocol&>(node.protocol());
  const bool gateway = alive && protocol.isGateway();
  const std::optional<geo::GridCoord> served =
      gateway ? protocol.servedGrid() : std::nullopt;
  const geo::Vec2 pos = node.truePosition();
  const geo::GridCoord cell = node.gridMap().cellOf(pos);
  const double battery = node.batteryRef().remainingRatio(now);
  const double gpsErr = node.gpsError().length();
  if (served) {
    tracer.instant("state", "host", node.id(),
                   {{"x", pos.x}, {"y", pos.y}, {"alive", alive},
                    {"crashed", node.crashed()},
                    {"sleeping", node.radio().sleeping()},
                    {"gateway", gateway}, {"cell_x", cell.x},
                    {"cell_y", cell.y}, {"battery", battery},
                    {"gps_err", gpsErr}, {"served_x", served->x},
                    {"served_y", served->y}});
  } else {
    tracer.instant("state", "host", node.id(),
                   {{"x", pos.x}, {"y", pos.y}, {"alive", alive},
                    {"crashed", node.crashed()},
                    {"sleeping", node.radio().sleeping()},
                    {"gateway", gateway}, {"cell_x", cell.x},
                    {"cell_y", cell.y}, {"battery", battery},
                    {"gps_err", gpsErr}});
  }
}

}  // namespace

int main(int argc, char** argv) try {
  using namespace ecgrid;
  const util::Flags flags = util::Flags::parseOrExit(
      argc, argv, {"vehicles", "patrols", "seed", "trace"},
      "usage: convoy_patrol [flags]\n"
      "A convoy crossing the field with roaming patrols on one ECGRID mesh.");
  const int vehicles = flags.getInt("vehicles", 12);
  const int patrols = flags.getInt("patrols", 30);
  const std::uint64_t seed = flags.getUnsigned("seed", 11);

  sim::Simulator simulator(seed);
  // The hub must exist before the network so the layers register their
  // counters and find the tracer.
  obs::Observability observability(simulator);
  if (flags.has("trace")) {
    observability.openTrace(flags.getString("trace", "convoy_trace.jsonl"),
                            {{"protocol", "ECGRID"},
                             {"seed", std::to_string(seed)}});
  }
  net::Network network(simulator, net::NetworkConfig{});

  auto oracle = [&network](net::NodeId id) -> std::optional<geo::GridCoord> {
    net::Node* node = network.findNode(id);
    if (node == nullptr || !node->alive()) return std::nullopt;
    return node->cell();
  };
  auto install = [&](net::Node& node) {
    core::EcgridConfig config;
    config.base.locationHint = oracle;
    node.setProtocol(std::make_unique<core::EcgridProtocol>(node, config));
  };

  // The convoy: a column driving west→east at 8 m/s, 60 m spacing,
  // re-crossing the field once it exits (scripted out-and-back).
  for (int i = 0; i < vehicles; ++i) {
    double x0 = 40.0 - 60.0 * i;  // tail starts off-field and rolls in
    std::vector<mobility::ScriptedMobility::Leg> legs;
    legs.push_back({0.0, {x0, 480.0}, {8.0, 0.0}});
    double tTurn = (960.0 - x0) / 8.0;  // reach x=960, turn around
    legs.push_back({tTurn, {960.0, 480.0}, {-8.0, 0.0}});
    double tBack = tTurn + (960.0 - 40.0) / 8.0;
    legs.push_back({tBack, {40.0, 480.0}, {8.0, 0.0}});
    net::NodeConfig config;
    config.id = i;
    net::Node& node = network.addNode(
        std::make_unique<mobility::ScriptedMobility>(std::move(legs)),
        config);
    install(node);
  }
  // Patrols: fast random waypoint across the whole field.
  mobility::RandomWaypointConfig fast;
  fast.maxSpeed = 10.0;
  for (int i = 0; i < patrols; ++i) {
    net::NodeConfig config;
    config.id = vehicles + i;
    net::Node& node = network.addNode(
        std::make_unique<mobility::RandomWaypoint>(
            fast, simulator.rng().stream("patrol", i)),
        config);
    install(node);
  }

  // Tail → lead status stream (the column's length spans several grids).
  const net::NodeId kLead = 0;
  const net::NodeId kTail = vehicles - 1;
  stats::PacketAccounting accounting;
  for (std::size_t i = 0; i < network.nodeCount(); ++i) {
    net::Node& node = network.node(i);
    node.setAppReceiveCallback(
        [&](net::NodeId, const net::DataTag& tag, int) {
          accounting.onReceived(tag, simulator.now());
        });
  }
  std::function<void()> report = [&]() {
    static std::uint64_t seq = 0;
    net::DataTag tag{1, seq++, simulator.now()};
    accounting.onSent(tag.flowId, tag.sequence,
                      network.findNode(kTail)->alive());
    network.findNode(kTail)->sendFromApp(kLead, 256, tag);
    simulator.schedule(0.5, report);
  };
  simulator.schedule(2.0, report);

  stats::EnergyRecorder recorder(network, 10.0);
  // One state instant per host every 5 s — plot them to watch the column
  // drag gateway duty across the field.
  std::function<void()> sampleState = [&]() {
    for (auto& node : network.nodes()) {
      traceHostState(*observability.tracer(), *node, simulator.now());
    }
    simulator.schedule(5.0, sampleState, "obs/state");
  };
  if (observability.tracer() != nullptr) sampleState();
  network.start();
  simulator.run(600.0);
  recorder.sample();

  std::printf("Convoy patrol — %d vehicles in column, %d patrol units, "
              "10 min\n", vehicles, patrols);
  std::printf("  tail->lead reports    : %llu sent, %llu delivered "
              "(%.2f%%)\n",
              static_cast<unsigned long long>(accounting.packetsSent()),
              static_cast<unsigned long long>(accounting.packetsReceived()),
              100.0 * accounting.deliveryRate());
  std::printf("  mean report latency   : %.1f ms\n",
              1e3 * accounting.meanLatency());
  std::printf("  RAS pages sent        : %llu (dwell wakeups as the "
              "column crosses grids)\n",
              static_cast<unsigned long long>(network.paging().pagesSent()));
  std::printf("  alive fraction at end : %.2f (GRID would be at ~0.06 "
              "of its life budget already)\n",
              recorder.aliveFraction().valueAt(600.0));
  std::printf("  aen at end            : %.3f\n",
              recorder.aen().valueAt(600.0));
  return 0;
} catch (const std::exception& e) {
  // A malformed flag value (with usage) or an invalid scenario: a message
  // and exit 2, never std::terminate.
  return ecgrid::util::Flags::exitCodeFor(argv[0], e);
}
