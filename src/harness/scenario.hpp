// Scenario harness: builds and runs a complete paper experiment.
//
// A ScenarioConfig is a pure value describing one simulation run — field,
// host population, mobility, traffic, protocol and its parameters, seed —
// and runScenario() is a pure function from it to a ScenarioResult.
// Defaults reproduce the paper's common setup (§4): 1000×1000 m field,
// 2 Mbps / 250 m radios, d = 100 m grid, 500 J batteries, random waypoint,
// 10 CBR flows of one 512 B packet per second.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "check/determinism.hpp"
#include "core/ecgrid_protocol.hpp"
#include "fault/fault_plan.hpp"
#include "net/network.hpp"
#include "obs/metrics.hpp"
#include "protocols/common/grid_protocol_base.hpp"
#include "protocols/gaf/gaf_protocol.hpp"
#include "stats/packet_accounting.hpp"
#include "stats/timeseries.hpp"
#include "traffic/workload/workload_plan.hpp"

namespace ecgrid::harness {

enum class ProtocolKind : std::uint8_t {
  kGrid,
  kEcgrid,
  kGaf,
  kFlooding,
};

const char* toString(ProtocolKind kind);
std::optional<ProtocolKind> protocolFromString(const std::string& name);

/// Committed events between two run-health counter records in an event
/// trace ("sim"/"health": events, queue_depth, peak_queue_depth,
/// slab_slots). Counted in events, not wall time, so which records exist
/// is the same on every machine.
inline constexpr std::uint64_t kHealthSampleEvents = 16384;

struct ScenarioConfig {
  ProtocolKind protocol = ProtocolKind::kEcgrid;

  // population & field (paper §4)
  int hostCount = 100;
  double fieldSize = 1000.0;   ///< square field side, metres
  double gridCellSide = 100.0;
  double radioRange = 250.0;
  double bitrateBps = 2e6;
  double batteryCapacityJ = 500.0;

  // mobility (random waypoint)
  double maxSpeed = 1.0;   ///< m/s
  double pauseTime = 0.0;  ///< s

  // traffic
  int flowCount = 10;
  double packetsPerSecondPerFlow = 1.0;
  int payloadBytes = 512;
  double trafficStart = 1.0;

  // run control
  double duration = 2000.0;
  double sampleInterval = 10.0;
  std::uint64_t seed = 1;

  // invariant auditing (src/check): when enabled, the standard audits run
  // every `auditPeriodEvents` executed events and a violation aborts the
  // run with std::logic_error. Tests keep this on; benches leave it off
  // so figure numbers are not perturbed by audit-time battery reads.
  bool auditInvariants = false;
  std::uint64_t auditPeriodEvents = 2000;

  // GAF Model 1 (paper §4): ten extra infinite-energy endpoint hosts
  // source/sink all traffic; the `hostCount` finite hosts only forward.
  bool gafModelOne = true;
  int gafEndpointCount = 10;

  // protocol knobs (benches override for ablations)
  core::EcgridConfig ecgrid;
  protocols::GridProtocolConfig grid;
  protocols::GafConfig gaf;

  /// Interference ring as a multiple of the decode range (1.0 = pure
  /// unit disk, the paper's model). See ChannelConfig.
  double interferenceRangeFactor = 1.0;

  /// When true, RREQ search areas are confined using a GPS location
  /// oracle over the destination (the paper's location-aware assumption);
  /// when false every discovery floods globally.
  bool useLocationOracle = true;

  /// Determinism analysis (src/check): when nonzero, sample a
  /// check::stateDigest every this many executed events (sharing the
  /// Simulator periodic hook with the invariant auditor) and return the
  /// trace in ScenarioResult::digestTrace. Two runs of the same config
  /// must produce identical traces; checkDeterminism() relies on it.
  std::uint64_t digestEveryEvents = 0;

  /// Debug mode: randomise the event queue's tie-break among equal-time
  /// events (EventQueue::perturbTieBreak, "check/tiebreak" stream). The
  /// run stays deterministic in `seed` but executes same-instant events
  /// in a different order — the final state digest must not care. Never
  /// enable for runs whose figures you intend to keep.
  bool perturbTieBreak = false;

  /// Allocation audit (src/check/alloc_audit): the harness always tags
  /// the run's phases — setup until network start, then `allocAuditWarmup`
  /// sim-seconds of warmup (slab high-water growth, first discoveries),
  /// then steady state. Under the `alloc-audit` preset the counting
  /// operator new attributes every allocation to the current phase and
  /// flags those inside hot scopes; ScenarioResult::allocAudit reports
  /// them. Splitting run() at the warmup boundary schedules nothing and
  /// draws no RNG, so the run stays byte-identical for any warmup value.
  double allocAuditWarmup = 0.0;
  /// When true, fail the run (std::logic_error) if any steady-phase
  /// allocation fired inside an open hot scope. Only trips when built
  /// with ECGRID_ALLOC_AUDIT; harmless to leave on elsewhere.
  bool allocAuditGate = false;
  /// Test canary: schedule one steady-phase event that deliberately
  /// allocates inside a hot scope, proving the gate trips. Test-only —
  /// the extra event perturbs replay digests.
  bool allocAuditInjectCanary = false;

  /// Observability (src/obs): when non-empty, protocol events are traced
  /// into this JSONL file (see obs::EventTracer; convert with
  /// tools/trace_chrome.py, validate with tools/trace_check.py), together
  /// with a "sim"/"health" counter record every kHealthSampleEvents
  /// committed events. Tracing draws no RNG and schedules nothing, so the
  /// run's digest trace is byte-identical with tracing on or off (gated in
  /// tests/obs_test.cpp).
  std::string eventTracePath;

  /// Profile the simulator: per-event-type dispatch counts, wall-clock
  /// attribution, and event-queue depth samples, folded into
  /// ScenarioResult::metrics ("profile.*") and queueDepthSamples. Reads
  /// wall clocks, so profiled numbers vary run-to-run — but the simulation
  /// itself stays bit-identical (the probe only observes).
  bool profileSimulator = false;

  /// Production-traffic workload (src/traffic/workload): open-loop
  /// session arrivals with heavy-tailed sizes and request/response
  /// exchanges, layered on top of the CBR flows. The default (empty) plan
  /// arms nothing — no traffic/* RNG stream is touched and the run is
  /// byte-identical to a build without the workload layer (gated in
  /// tests/workload_test.cpp). When armed, stopTime is capped at the
  /// scenario horizon and the "workload.*" metrics appear in `metrics`.
  /// GAF Model 1 runs restrict clients and sinks to the endpoint hosts.
  traffic::WorkloadPlan workload;

  /// Adverse conditions (src/fault): channel error model, host
  /// crash/restart schedule, GPS error, RAS paging loss. The default
  /// (empty) plan arms nothing and the run is byte-identical to a
  /// simulation without the fault layer. When a GPS fault is armed and
  /// auditing is on, the gateway-uniqueness audit automatically switches
  /// to its physical-proximity reading (see StandardAuditOptions).
  fault::FaultPlan fault;
};

/// What one run produced. The paper's curves (alive fraction, aen,
/// awake fraction), the traffic outcome and the engine roll-ups are
/// fields; every per-layer counter (frames, pages, MAC drops and
/// retransmissions, RREQs, crashes, ...) lives only in `metrics`, read
/// with obs::metricOr where the counter may never have fired.
struct ScenarioResult {
  stats::TimeSeries aliveFraction;
  stats::TimeSeries aen;
  stats::TimeSeries awakeFraction;
  std::vector<sim::Time> deathTimes;
  sim::Time firstDeath = sim::kTimeNever;
  /// Time the alive fraction reached zero (the paper's "network is down").
  sim::Time networkDown = sim::kTimeNever;

  std::uint64_t packetsSent = 0;
  std::uint64_t packetsReceived = 0;
  /// Flows the workload layer gave up on (abort deadline hit); 0 when the
  /// workload plan is empty. Distinguishable from flows merely in flight
  /// at the horizon — see stats::PacketAccounting::FlowTimes.
  std::uint64_t abortedFlows = 0;
  double deliveryRate = 1.0;
  double meanLatencySeconds = 0.0;
  double p50LatencySeconds = 0.0;
  double p95LatencySeconds = 0.0;
  double p99LatencySeconds = 0.0;

  std::uint64_t eventsExecuted = 0;
  std::uint64_t auditRuns = 0;  ///< invariant-audit sweeps completed

  // Run-health roll-ups: deterministic engine-state high-water marks,
  // populated for every run whether or not a trace was requested. Plain
  // fields rather than `metrics` entries: they describe the event queue,
  // not the simulated network.
  std::uint64_t peakQueueDepth = 0;  ///< event-queue depth high-water mark
  std::uint64_t slabSlotsTotal = 0;  ///< pooled event slots ever allocated

  /// Wall-clock seconds the run loop took. Reporting-only: feeds the
  /// campaign status heartbeat and straggler detection, and must NEVER be
  /// serialized into campaign result records (those are byte-reproducible
  /// pure functions of the config — the resume-equality CI gate depends
  /// on it).
  double runWallSeconds = 0.0;

  /// Sampled state digests (empty unless config.digestEveryEvents > 0).
  /// The last sample is always taken at the horizon after the closing
  /// energy sample, so `digestTrace.back().digest` is the final digest.
  check::DigestTrace digestTrace;

  /// Every delivered packet's end-to-end latency, seconds (unordered).
  std::vector<double> latencies;

  /// Flattened snapshot of every counter/gauge/histogram the layers
  /// registered during the run (obs::MetricsRegistry), plus post-run
  /// aggregates (traffic.*, e2e.latency_s histogram) and, when profiling,
  /// the profile.* attribution. Deterministic except for profile.*wall_s.
  obs::MetricsSnapshot metrics;

  /// Event-queue depth over sim time; empty unless profileSimulator.
  std::vector<std::pair<double, double>> queueDepthSamples;

  /// Events written to eventTracePath (0 when tracing was off).
  std::uint64_t traceEventsWritten = 0;

  /// Allocation-audit report (check/alloc_audit.hpp). `enabled` is false
  /// — and every counter zero — unless built with ECGRID_ALLOC_AUDIT.
  /// steadyHotAllocations is the gated quantity: allocations that fired
  /// inside an open hot scope after warmup. Counts are captured the
  /// moment the run's horizon is reached, before closing samples.
  struct AllocAudit {
    bool enabled = false;
    std::uint64_t setupAllocations = 0;
    std::uint64_t warmupAllocations = 0;
    std::uint64_t warmupHotAllocations = 0;
    std::uint64_t steadyAllocations = 0;
    std::uint64_t steadyDeallocations = 0;
    std::uint64_t steadyBytes = 0;
    std::uint64_t steadyHotAllocations = 0;
  } allocAudit;
};

/// Build, run, and tear down one simulation. Deterministic in `config`.
ScenarioResult runScenario(const ScenarioConfig& config);

}  // namespace ecgrid::harness
