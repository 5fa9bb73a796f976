#include "harness/scenario.hpp"

#include <algorithm>
#include <chrono>  // ecgrid-lint: allow(banned-random)
#include <memory>
#include <numeric>
#include <optional>

#include "check/alloc_audit.hpp"
#include "check/determinism.hpp"

#include "check/network_audits.hpp"
#include "fault/fault_injector.hpp"
#include "mobility/random_waypoint.hpp"
#include "obs/observability.hpp"
#include "protocols/flooding/flooding_protocol.hpp"
#include "protocols/grid/grid_protocol.hpp"
#include "stats/energy_recorder.hpp"
#include "traffic/flow_manager.hpp"
#include "traffic/workload/workload_generator.hpp"
#include "util/error.hpp"
#include "util/hot_path.hpp"

namespace ecgrid::harness {

const char* toString(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::kGrid:
      return "GRID";
    case ProtocolKind::kEcgrid:
      return "ECGRID";
    case ProtocolKind::kGaf:
      return "GAF";
    case ProtocolKind::kFlooding:
      return "FLOOD";
  }
  return "?";
}

std::optional<ProtocolKind> protocolFromString(const std::string& name) {
  if (name == "GRID" || name == "grid") return ProtocolKind::kGrid;
  if (name == "ECGRID" || name == "ecgrid") return ProtocolKind::kEcgrid;
  if (name == "GAF" || name == "gaf") return ProtocolKind::kGaf;
  if (name == "FLOOD" || name == "flood" || name == "flooding") {
    return ProtocolKind::kFlooding;
  }
  return std::nullopt;
}

namespace {

/// GPS location oracle: the paper's location-aware assumption lets a
/// source confine its RREQ search rectangle around the destination's
/// position. The oracle reads the destination's true current cell.
std::function<std::optional<geo::GridCoord>(net::NodeId)> makeOracle(
    net::Network& network, bool enabled) {
  if (!enabled) {
    return [](net::NodeId) { return std::optional<geo::GridCoord>{}; };
  }
  return [&network](net::NodeId id) -> std::optional<geo::GridCoord> {
    net::Node* node = network.findNode(id);
    if (node == nullptr || !node->alive()) return std::nullopt;
    return node->cell();
  };
}

std::unique_ptr<net::RoutingProtocol> makeProtocol(
    const ScenarioConfig& config, net::Node& node, net::Network& network,
    bool gafEndpoint) {
  auto oracle = makeOracle(network, config.useLocationOracle);
  switch (config.protocol) {
    case ProtocolKind::kGrid: {
      protocols::GridProtocolConfig c = config.grid;
      c.locationHint = oracle;
      return std::make_unique<protocols::GridProtocol>(node, c);
    }
    case ProtocolKind::kEcgrid: {
      core::EcgridConfig c = config.ecgrid;
      c.base.locationHint = oracle;
      return std::make_unique<core::EcgridProtocol>(node, c);
    }
    case ProtocolKind::kGaf: {
      protocols::GafConfig c = config.gaf;
      c.locationHint = oracle;
      c.endpointMode = gafEndpoint;
      return std::make_unique<protocols::GafProtocol>(node, c);
    }
    case ProtocolKind::kFlooding: {
      return std::make_unique<protocols::FloodingProtocol>(
          node, protocols::FloodingConfig{});
    }
  }
  // Direct call rather than ECGRID_CHECK(false, ...): the macro's branch
  // hides the [[noreturn]] from -Wreturn-type at -O0 (coverage builds).
  util::throwCheck("unreachable", __FILE__, __LINE__, "unknown protocol kind");
}

}  // namespace

ScenarioResult runScenario(const ScenarioConfig& config) {
  ECGRID_REQUIRE(config.hostCount > 0, "need at least one host");
  ECGRID_REQUIRE(config.duration > 0.0, "duration must be positive");

  // Fresh allocation-audit counters (and phase = setup) for this thread:
  // back-to-back scenarios on one worker must never inherit counts.
  check::allocAuditReset();

  sim::Simulator simulator(config.seed);
  // Before anything is scheduled, so every event of the run gets a
  // perturbed tie-break key (determinism analysis; see scenario.hpp).
  if (config.perturbTieBreak) simulator.perturbTieBreaks();

  // The hub must exist before any component so constructor-time
  // obs::counter() registrations resolve to live cells.
  obs::Observability observability(simulator);
  if (!config.eventTracePath.empty()) {
    observability.openTrace(config.eventTracePath,
                            {{"protocol", toString(config.protocol)},
                             {"seed", std::to_string(config.seed)}});
  }
  obs::SimProfiler* profiler = nullptr;
  if (config.profileSimulator) {
    profiler = &observability.enableProfiler();
  }
  obs::EventTracer* tracer = observability.tracer();

  net::NetworkConfig netConfig;
  netConfig.gridCellSide = config.gridCellSide;
  netConfig.channel.rangeMeters = config.radioRange;
  netConfig.channel.bitrateBps = config.bitrateBps;
  if (config.interferenceRangeFactor > 1.0) {
    netConfig.channel.interferenceRangeMeters =
        config.interferenceRangeFactor * config.radioRange;
  }
  netConfig.paging.rangeMeters = config.radioRange;
  net::Network network(simulator, netConfig);

  mobility::RandomWaypointConfig rwp;
  rwp.fieldWidth = config.fieldSize;
  rwp.fieldHeight = config.fieldSize;
  rwp.maxSpeed = config.maxSpeed;
  rwp.pauseTime = config.pauseTime;

  const bool gafRun = config.protocol == ProtocolKind::kGaf;
  const int endpointCount =
      gafRun && config.gafModelOne ? config.gafEndpointCount : 0;
  const int totalHosts = config.hostCount + endpointCount;

  std::vector<net::Node*> metered;
  std::vector<net::NodeId> endpointIds;
  for (int i = 0; i < totalHosts; ++i) {
    const bool isEndpoint = i >= config.hostCount;
    net::NodeConfig nodeConfig;
    nodeConfig.id = i;
    nodeConfig.batteryCapacityJ = config.batteryCapacityJ;
    nodeConfig.infiniteBattery = isEndpoint;
    auto mobility = std::make_unique<mobility::RandomWaypoint>(
        rwp, simulator.rng().stream("mobility", i));
    net::Node& node = network.addNode(std::move(mobility), nodeConfig);
    // Factory install (not a one-shot setProtocol) so a crashed host can
    // reboot with a fresh protocol stack; invoked once right here, so
    // construction order is unchanged.
    node.setProtocolFactory([&config, &node, &network, isEndpoint] {
      return makeProtocol(config, node, network, isEndpoint);
    });
    if (isEndpoint) {
      endpointIds.push_back(node.id());
    } else {
      metered.push_back(&node);
    }
  }

  stats::EnergyRecorder recorder(network, config.sampleInterval, metered);
  stats::PacketAccounting accounting;

  traffic::FlowPlan plan;
  plan.flowCount = config.flowCount;
  plan.packetsPerSecond = config.packetsPerSecondPerFlow;
  plan.payloadBytes = config.payloadBytes;
  plan.startTime = config.trafficStart;
  plan.stopTime = config.duration;
  plan.eligibleEndpoints = endpointIds;  // empty unless GAF Model 1
  traffic::FlowManager flows(network, plan, accounting,
                             simulator.rng().stream("flows"));

  // Workload layer, armed only for a non-empty plan (same contract as the
  // fault injector below): an empty plan draws no traffic/* stream and
  // registers no workload.* metric, keeping the run byte-identical to a
  // build without the layer.
  std::optional<traffic::WorkloadGenerator> workload;
  if (!config.workload.empty()) {
    traffic::WorkloadPlan workloadPlan = config.workload;
    workloadPlan.stopTime = std::min(workloadPlan.stopTime, config.duration);
    if (workloadPlan.eligibleHosts.empty() && !endpointIds.empty()) {
      workloadPlan.eligibleHosts = endpointIds;  // GAF Model 1
    }
    workload.emplace(network, workloadPlan, accounting);
  }

  // Armed only for a non-empty plan: an empty plan must leave the run
  // byte-identical to a build without the fault layer at all.
  std::optional<fault::FaultInjector> injector;
  if (!config.fault.empty()) {
    injector.emplace(simulator, network, config.fault);
  }

  check::InvariantAuditor auditor(check::FailMode::kThrow);
  if (config.auditInvariants) {
    check::StandardAuditOptions auditOptions;
    if (config.fault.gps.enabled()) {
      // Hosts claim the grid they believe they occupy; only physically
      // adjacent claimants can resolve a contest.
      auditOptions.gatewayConflictRangeMeters = config.radioRange;
    }
    check::installStandardAudits(auditor, network, auditOptions);
  }

  // The Simulator has a single periodic hook; the auditor, the digest
  // recorder, and the trace's health record share it at the gcd of their
  // periods (std::gcd(0, n) == n, so a lone subscriber keeps its exact
  // cadence).
  check::DigestTrace digestTrace;
  const std::uint64_t auditEvery =
      config.auditInvariants ? config.auditPeriodEvents : 0;
  const std::uint64_t digestEvery = config.digestEveryEvents;
  const std::uint64_t healthEvery =
      tracer != nullptr ? kHealthSampleEvents : 0;
  const bool hookInstalled =
      auditEvery > 0 || digestEvery > 0 || healthEvery > 0;
  if (hookInstalled) {
    simulator.setPeriodicHook(
        std::gcd(std::gcd(auditEvery, digestEvery), healthEvery),
        [&, auditEvery, digestEvery, healthEvery] {
          const std::uint64_t n = simulator.eventsExecuted();
          if (auditEvery > 0 && n % auditEvery == 0) {
            auditor.run(simulator.now());
          }
          if (digestEvery > 0 && n % digestEvery == 0) {
            digestTrace.push_back(
                {n, simulator.now(), check::stateDigest(network)});
          }
          if (healthEvery > 0 && n % healthEvery == 0) {
            tracer->counter("sim", "health",
                            {{"events", n},
                             {"queue_depth", simulator.queueDepth()},
                             {"peak_queue_depth", simulator.peakQueueDepth()},
                             {"slab_slots", simulator.slabSlotsTotal()}});
          }
        });
  }

  // Run-loop wall timer: reporting-only (campaign status heartbeat and
  // straggler detection read ScenarioResult::runWallSeconds); never fed
  // back into the simulation or serialized into campaign records.
  // ecgrid-lint: allow(banned-random)
  const auto runWallStart = std::chrono::steady_clock::now();

  network.start();
  // Warmup/steady split for the allocation audit. Running to the warmup
  // horizon first schedules nothing and draws no RNG, so the event
  // sequence — and with it every digest and metric — is byte-identical
  // to a single run(duration) call.
  const double warmup =
      std::min(std::max(config.allocAuditWarmup, 0.0), config.duration);
  if (warmup > 0.0) {
    check::allocAuditSetPhase(check::AllocPhase::kWarmup);
    simulator.run(warmup);
  }
  check::allocAuditSetPhase(check::AllocPhase::kSteady);
  if (config.allocAuditInjectCanary) {
    // Deliberate discipline violation: an allocation inside an open hot
    // scope, in steady state. Proves the gate trips (tests only). Direct
    // calls to the allocation functions, because a plain `delete new int`
    // pair is elidable at -O2 and would leave the canary silent.
    simulator.schedule(
        0.0,
        [] {
          util::HotPathScope hot;
          ::operator delete(::operator new(16));
        },
        "check/alloc-canary");
  }
  simulator.run(config.duration);
  // Capture phase counters at the horizon, before closing samples and
  // teardown add their own (legitimately counted, never hot) allocations.
  const check::AllocAuditCounts setupCounts =
      check::allocAuditCounts(check::AllocPhase::kSetup);
  const check::AllocAuditCounts warmupCounts =
      check::allocAuditCounts(check::AllocPhase::kWarmup);
  const check::AllocAuditCounts steadyCounts =
      check::allocAuditCounts(check::AllocPhase::kSteady);
  if (config.allocAuditGate) {
    ECGRID_CHECK(steadyCounts.hotAllocations == 0,
                 "alloc-audit gate: steady-state allocation on the hot path");
  }
  recorder.sample();  // closing sample at the horizon
  if (config.auditInvariants) {
    auditor.run(simulator.now());  // closing sweep at the horizon
  }
  if (digestEvery > 0) {
    // Closing sample: the final digest, regardless of where the event
    // count stood when the queue drained.
    digestTrace.push_back({simulator.eventsExecuted(), simulator.now(),
                           check::stateDigest(network)});
  }
  if (hookInstalled) {
    simulator.setPeriodicHook(0, nullptr);
  }

  ScenarioResult result;
  // ecgrid-lint: allow(banned-random)
  const auto runWallEnd = std::chrono::steady_clock::now();
  result.runWallSeconds =
      std::chrono::duration<double>(runWallEnd - runWallStart).count();
  result.allocAudit.enabled = check::allocAuditCompiled();
  result.allocAudit.setupAllocations = setupCounts.allocations;
  result.allocAudit.warmupAllocations = warmupCounts.allocations;
  result.allocAudit.warmupHotAllocations = warmupCounts.hotAllocations;
  result.allocAudit.steadyAllocations = steadyCounts.allocations;
  result.allocAudit.steadyDeallocations = steadyCounts.deallocations;
  result.allocAudit.steadyBytes = steadyCounts.bytes;
  result.allocAudit.steadyHotAllocations = steadyCounts.hotAllocations;
  result.aliveFraction = recorder.aliveFraction();
  result.aen = recorder.aen();
  result.awakeFraction = recorder.awakeFraction();
  result.deathTimes = recorder.deathTimes();
  result.firstDeath = recorder.firstDeath();
  result.networkDown = recorder.aliveFraction().firstTimeBelow(0.0);
  result.packetsSent = accounting.packetsSent();
  result.packetsReceived = accounting.packetsReceived();
  result.abortedFlows = accounting.abortedFlows();
  result.deliveryRate = accounting.deliveryRate();
  result.meanLatencySeconds = accounting.meanLatency();
  result.p50LatencySeconds = accounting.latencyPercentile(50.0);
  result.p95LatencySeconds = accounting.latencyPercentile(95.0);
  result.p99LatencySeconds = accounting.latencyPercentile(99.0);
  result.latencies = accounting.latencies();
  result.eventsExecuted = simulator.eventsExecuted();
  result.auditRuns = auditor.runs();
  result.digestTrace = std::move(digestTrace);
  result.peakQueueDepth = static_cast<std::uint64_t>(simulator.peakQueueDepth());
  result.slabSlotsTotal = static_cast<std::uint64_t>(simulator.slabSlotsTotal());

  // Post-run aggregates: traffic accounting and the end-to-end latency
  // distribution folded into a fixed-bin histogram (satellite of the
  // observability layer — the bench JSON reports p99 and bin counts
  // instead of shipping every raw latency).
  obs::MetricsRegistry& registry = observability.metrics();
  registry.counter("traffic.packets_sent").add(result.packetsSent);
  registry.counter("traffic.packets_received").add(result.packetsReceived);
  if (workload) {
    // Registered only when the workload is armed, so metric snapshots of
    // plain CBR runs stay byte-identical to the pre-workload era.
    registry.counter("traffic.aborted_flows").add(result.abortedFlows);
    registry.gauge("traffic.in_flight_flows")
        .set(static_cast<double>(accounting.inFlightFlows()));
  }
  obs::Histogram e2e = registry.histogram(
      "e2e.latency_s", {0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2,
                        0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0});
  for (double latency : result.latencies) e2e.observe(latency);
  if (profiler != nullptr) {
    profiler->mergeInto(registry);
    result.queueDepthSamples = profiler->queueDepthSamples();
  }
  result.metrics = registry.snapshot();
  if (tracer != nullptr) {
    result.traceEventsWritten = tracer->eventsWritten();
  }
  return result;
}

}  // namespace ecgrid::harness
