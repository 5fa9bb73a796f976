// The concrete invariant audits shipped with the simulator.
//
// Each audit is a small state machine fed *observations* — plain structs
// snapshotted from the live network — and reports violations through an
// AuditContext. Keeping the audit logic pure over observation values (no
// direct Network dependency) lets the injection tests fabricate violating
// states directly, proving each audit fires, while network_audits.hpp
// binds the same classes to a real net::Network for production runs.
//
// Several of the paper's invariants are *eventual*: a lossy MANET can
// transiently hold two gateways for one grid (split-brain elections under
// collisions) or a route whose next hop just died (RERR still in flight).
// Those audits therefore carry a grace window and only report conflicts
// that persist beyond it — persistent breakage is a protocol bug; a
// transient that the protocol itself resolves is not.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "geo/grid.hpp"
#include "geo/vec2.hpp"
#include "net/packet.hpp"
#include "phy/radio.hpp"
#include "check/invariant_auditor.hpp"
#include "sim/time.hpp"

namespace ecgrid::check {

// --------------------------------------------------------------------------
// 1. Gateway uniqueness: at most one gateway serving each grid (paper §3.1).
//    A conflict must resolve within `conflictGrace` seconds (the HELLO
//    exchange that makes the loser yield) or it is reported.
//
//    A host serves the grid it *believes* it occupies, so under GPS error
//    two physically distant hosts can claim one grid while unable to hear
//    each other — nothing in the protocol can resolve that. With a
//    positive `conflictRangeMeters` the audit therefore only counts a
//    contest whose claimants include a pair within that physical range
//    (they can exchange the HELLOs that settle it); 0 keeps the strict
//    fault-free reading where every multi-claim is a contest.

struct GatewaySighting {
  geo::GridCoord grid;  ///< grid the host currently serves as gateway
  net::NodeId id = net::kBroadcastId;
  geo::Vec2 position;  ///< physical position (for conflictRangeMeters)
};

class GatewayUniquenessAudit {
 public:
  explicit GatewayUniquenessAudit(sim::Time conflictGrace = 5.0,
                                  double conflictRangeMeters = 0.0)
      : conflictGrace_(conflictGrace),
        conflictRangeMeters_(conflictRangeMeters) {}

  void observe(const std::vector<GatewaySighting>& gateways,
               AuditContext& context);

 private:
  sim::Time conflictGrace_;
  double conflictRangeMeters_;
  /// Grids currently contested and when the contest was first seen.
  std::map<geo::GridCoord, sim::Time> conflictSince_;
};

// --------------------------------------------------------------------------
// 2. No TX while sleeping: a host whose protocol believes it is in sleep
//    mode must have its radio asleep (or a deferred sleep pending behind
//    the final in-flight transmission) — never actively transmitting.
//    ECGRID deliberately holds Role::kSleeping for a few milliseconds
//    while the SLEEP notice clears the MAC before powering the radio
//    down, so only inconsistency that *persists* past `settleGrace` is a
//    violation. Two such drains that no sample separates are two
//    episodes, not one: an episode restarts when the host entered
//    protocol sleep, or asked its radio to sleep, since the last sample.

struct SleepTxSighting {
  net::NodeId id = net::kBroadcastId;
  bool protocolSleeping = false;  ///< routing layer says "I am asleep"
  phy::RadioState radioState = phy::RadioState::kIdle;
  bool sleepPending = false;  ///< radio sleep deferred behind a TX
  std::uint64_t protocolSleepEntries = 0;  ///< protocol-sleep entries so far
  std::uint64_t radioSleeps = 0;  ///< radio sleep requests so far
};

class SleepTransmitAudit {
 public:
  explicit SleepTransmitAudit(sim::Time settleGrace = 1.0)
      : settleGrace_(settleGrace) {}

  void observe(const std::vector<SleepTxSighting>& hosts,
               AuditContext& context);

 private:
  /// An inconsistency: when it started, and the host's entry counts then.
  struct Episode {
    sim::Time since = 0.0;
    std::uint64_t protocolSleepEntries = 0;
    std::uint64_t radioSleeps = 0;
  };

  sim::Time settleGrace_;
  /// Hosts currently inconsistent, by id.
  std::map<net::NodeId, Episode> inconsistentSince_;
};

// --------------------------------------------------------------------------
// 3. Battery monotonicity: remaining energy never increases (paper §2 —
//    hosts only drain). Tolerates a tiny epsilon for float noise.

class BatteryMonotonicityAudit {
 public:
  void observe(net::NodeId id, double remainingJ, AuditContext& context);

 private:
  std::map<net::NodeId, double> lastRemaining_;
};

// --------------------------------------------------------------------------
// 4. Routing-table next-hop liveness: an unexpired route entry must point
//    at a host that exists, and that has not been dead for longer than
//    `deadGrace` (long enough for RERR propagation / route repair; an
//    entry still live past that was refreshed post-mortem — a bug).
//    "Dead" covers both battery depletion and injected crashes; the
//    network binding dates crashed hosts from Node::crashedAt().

struct RouteSighting {
  net::NodeId owner = net::kBroadcastId;        ///< router holding the entry
  net::NodeId destination = net::kBroadcastId;  ///< entry key
  net::NodeId nextHop = net::kBroadcastId;      ///< entry's concrete hop
  bool expired = false;
  bool nextHopExists = true;
  bool nextHopAlive = true;
  sim::Time nextHopDeadSince = sim::kTimeNever;
};

class RouteLivenessAudit {
 public:
  explicit RouteLivenessAudit(sim::Time deadGrace = 15.0)
      : deadGrace_(deadGrace) {}

  void observe(const std::vector<RouteSighting>& routes,
               AuditContext& context);

 private:
  sim::Time deadGrace_;
};

// --------------------------------------------------------------------------
// 5. Event-queue time monotonicity: the simulation clock never regresses
//    between audit runs and the next pending event is never in the past.

class EventTimeMonotonicityAudit {
 public:
  void observe(sim::Time now, sim::Time nextEventTime, AuditContext& context);

 private:
  bool seen_ = false;
  sim::Time lastNow_ = sim::kTimeZero;
};

}  // namespace ecgrid::check
