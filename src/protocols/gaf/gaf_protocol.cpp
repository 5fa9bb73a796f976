#include "protocols/gaf/gaf_protocol.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/hot_path.hpp"

namespace ecgrid::protocols {

namespace {
using NodeState = GafDiscoveryHeader::NodeState;
}  // namespace

GafProtocol::GafProtocol(net::HostEnv& env, const GafConfig& config)
    : env_(env),
      config_(config),
      engine_(env, makeHooks(), config.routing),
      rng_(env.simulator().rng().stream("gaf", env.id())) {}

RoutingEngine::Hooks GafProtocol::makeHooks() {
  RoutingEngine::Hooks hooks;
  hooks.isRouter = [this] {
    // Model-1 endpoints route for themselves: they originate discoveries
    // and answer RREQs addressed to them, but never lead a grid.
    return state_ == State::kActive || config_.endpointMode;
  };
  hooks.mayRelayRreq = [this] {
    return state_ == State::kActive && !config_.endpointMode;
  };
  hooks.routerOf =
      [this](const geo::GridCoord& grid) -> std::optional<net::NodeId> {
    sim::Time now = env_.simulator().now();
    if (state_ == State::kActive && grid == env_.cell()) return env_.id();
    // Freshest known active node in that grid that is still within reach.
    geo::Vec2 here = env_.position();
    std::optional<net::NodeId> best;
    sim::Time bestHeard = sim::kTimeZero;
    for (const auto& [id, s] : sightings_) {
      if (s.grid != grid || s.state != NodeState::kActive) continue;
      if (now - s.lastHeard > config_.sightingStale) continue;
      if (here.distanceTo(s.position) > config_.routing.maxForwardDistance) {
        continue;
      }
      if (!best.has_value() || s.lastHeard > bestHeard) {
        best = id;
        bestHeard = s.lastHeard;
      }
    }
    return best;
  };
  hooks.hostIsLocal = [this](net::NodeId host) {
    // GAF has no host table: a host is reachable only while it beacons —
    // i.e. while it is awake. This is exactly GAF's sleeping-destination
    // blind spot (paper §1).
    sim::Time now = env_.simulator().now();
    auto it = sightings_.find(host);
    if (it == sightings_.end()) return false;
    return it->second.grid == env_.cell() &&
           now - it->second.lastHeard <= config_.sightingStale;
  };
  hooks.deliverLocal = [this](net::NodeId dst, const net::Packet& frame) {
    if (dst == env_.id()) {
      const auto* data = frame.headerAs<DataHeader>();
      ECGRID_CHECK(data != nullptr, "local delivery of non-data frame");
      env_.deliverToApp(data->appSrc(), data->tag(), data->payloadBytes());
      return;
    }
    unicastFrame(dst, frame.header);
  };
  hooks.locationHint =
      [this](net::NodeId host) -> std::optional<geo::GridCoord> {
    if (config_.locationHint) return config_.locationHint(host);
    return std::nullopt;
  };
  hooks.observeRouter = [this](const geo::GridCoord& grid, net::NodeId id,
                               const geo::Vec2& position) {
    if (id == env_.id()) return;
    Sighting s;
    s.state = NodeState::kActive;
    s.rank = 0.0;
    s.enatRemaining = 0.0;
    s.lastHeard = env_.simulator().now();
    s.grid = grid;
    s.position = position;
    sightings_[id] = s;
  };
  return hooks;
}

// --------------------------------------------------------------------------
// state machine

void GafProtocol::start() {
  if (config_.endpointMode) {
    // Model-1 endpoint: always active, never leads, never forwards.
    state_ = State::kDiscovery;  // placeholder; endpoints just beacon
    beacon();
    beaconTick();
    return;
  }
  enterDiscovery();
  beaconTick();
}

void GafProtocol::onShutdown() {
  state_ = State::kDead;
  stateTimer_.cancel();
  beaconTimer_.cancel();
  engine_.stopRouting();
  appPending_.clear();
}

double GafProtocol::myRank() { return env_.batteryRatio(); }

void GafProtocol::enterDiscovery() {
  if (state_ == State::kDead) return;
  state_ = State::kDiscovery;
  discoveryStartedAt_ = env_.simulator().now();
  env_.wakeRadio();
  beacon();
  stateTimer_.cancel();
  stateTimer_ = env_.simulator().schedule(
      config_.discoveryWindow * (1.0 + rng_.uniform(0.0, 0.5)),
      [this] { endDiscovery(); }, "gaf/discovery_end");
}

void GafProtocol::endDiscovery() {
  if (state_ != State::kDiscovery || config_.endpointMode) return;
  sim::Time now = env_.simulator().now();
  geo::GridCoord myGrid = env_.cell();

  // An existing leader in this grid sends us to sleep for its remaining
  // active time.
  for (const auto& [id, s] : sightings_) {
    if (s.grid != myGrid || now - s.lastHeard > config_.sightingStale) continue;
    if (s.state == NodeState::kActive) {
      sleepFor(std::clamp(s.enatRemaining, config_.minSleepTime,
                          config_.maxSleepTime));
      return;
    }
  }
  // A higher-ranked fellow discoverer wins; back off briefly and re-check.
  double rank = myRank();
  for (const auto& [id, s] : sightings_) {
    if (s.grid != myGrid || now - s.lastHeard > config_.discoveryWindow * 2) {
      continue;
    }
    if (s.state != NodeState::kDiscovery) continue;
    if (s.rank > rank || (s.rank == rank && id < env_.id())) {
      sleepFor(std::clamp(config_.discoveryWindow * 4.0,
                          config_.minSleepTime, config_.maxSleepTime));
      return;
    }
  }
  becomeActive();
}

void GafProtocol::becomeActive() {
  if (state_ == State::kDead) return;
  state_ = State::kActive;
  env_.wakeRadio();
  // Ta: bounded by how long GPS says we will stay in this grid.
  sim::Time dwell = env_.nextPossibleCellExit() - env_.simulator().now();
  sim::Time ta = std::clamp(dwell, config_.minSleepTime, config_.maxActiveTime);
  activeUntil_ = env_.simulator().now() + ta;
  beacon();
  flushAppQueue();
  stateTimer_.cancel();
  stateTimer_ = env_.simulator().schedule(
      ta,
      [this] {
        if (state_ != State::kActive) return;
        engine_.stopRouting();
        enterDiscovery();  // hand the grid over (GAF load balancing)
      },
      "gaf/active_expiry");
}

void GafProtocol::sleepFor(sim::Time duration) {
  if (state_ == State::kDead || config_.endpointMode) return;
  if (!appPending_.empty()) {
    // Data waiting for a leader: stay up in discovery instead.
    return;
  }
  if (state_ != State::kSleep) ++sleepEntries_;
  state_ = State::kSleep;
  engine_.stopRouting();
  env_.sleepRadio();
  stateTimer_.cancel();
  stateTimer_ = env_.simulator().schedule(
      duration,
      [this] {
        if (state_ != State::kSleep) return;
        // Ts expired: wake and re-run discovery (the periodic wakeup the
        // paper contrasts ECGRID's paging against).
        enterDiscovery();
      },
      "gaf/sleep_expiry");
}

// --------------------------------------------------------------------------
// beacons

ECGRID_HOT_PATH void GafProtocol::beacon() {
  if (state_ == State::kDead || state_ == State::kSleep) return;
  NodeState advertised = config_.endpointMode ? NodeState::kEndpoint
                         : state_ == State::kActive ? NodeState::kActive
                                                    : NodeState::kDiscovery;
  double enat = state_ == State::kActive
                    ? std::max(0.0, activeUntil_ - env_.simulator().now())
                    : 0.0;
  // The discovery header is GAF's wire object — one allocation per
  // beacon, shared by every copy the channel fans out.
  auto disc = std::make_shared<GafDiscoveryHeader>(  // ecgrid-lint: allow(hot-path-allocation)
      env_.id(), env_.cell(), advertised, myRank(), enat, env_.position());
  net::Packet frame;
  frame.macSrc = env_.id();
  frame.macDst = net::kBroadcastId;
  frame.header = std::move(disc);
  env_.link().send(frame);
}

ECGRID_HOT_PATH void GafProtocol::beaconTick() {
  if (state_ == State::kDead) return;
  if (state_ != State::kSleep) beacon();
  beaconTimer_ = env_.simulator().schedule(
      config_.beaconInterval *
          (1.0 + rng_.uniform(0.0, config_.beaconJitterFrac)),
      [this] { beaconTick(); }, "gaf/beacon");
}

// --------------------------------------------------------------------------
// frames

ECGRID_HOT_PATH void GafProtocol::handleDiscovery(const net::Packet& frame,
                                  const GafDiscoveryHeader& disc) {
  (void)frame;
  sim::Time now = env_.simulator().now();
  Sighting s;
  s.state = disc.state();
  s.rank = disc.rank();
  s.enatRemaining = disc.enatRemaining();
  s.lastHeard = now;
  s.grid = disc.grid();
  s.position = disc.position();
  sightings_[disc.id()] = s;

  if (config_.endpointMode) return;
  if (disc.grid() != env_.cell()) return;
  if (disc.state() != NodeState::kActive) return;

  if (state_ == State::kDiscovery) {
    // Leader already exists: stop discovering, sleep for its enat.
    stateTimer_.cancel();
    sleepFor(std::clamp(disc.enatRemaining(), config_.minSleepTime,
                        config_.maxSleepTime));
  } else if (state_ == State::kActive && disc.id() != env_.id()) {
    // Two leaders (grid merge): the lower-ranked one yields.
    double rank = myRank();
    if (disc.rank() > rank || (disc.rank() == rank && disc.id() < env_.id())) {
      engine_.stopRouting();
      sleepFor(std::clamp(disc.enatRemaining(), config_.minSleepTime,
                          config_.maxSleepTime));
    }
  }
}

ECGRID_HOT_PATH void GafProtocol::onFrame(const net::Packet& packet) {
  if (state_ == State::kDead || state_ == State::kSleep) return;
  if (const auto* disc = packet.headerAs<GafDiscoveryHeader>()) {
    handleDiscovery(packet, *disc);
    return;
  }
  if (const auto* data = packet.headerAs<DataHeader>()) {
    if (data->appDst() == env_.id()) {
      env_.deliverToApp(data->appSrc(), data->tag(), data->payloadBytes());
      return;
    }
    if (config_.endpointMode) {
      return;  // Model 1: endpoints do not forward traffic
    }
    if (state_ == State::kActive) {
      engine_.routeData(packet, *data);
    } else if (auto leader = localLeader();
               leader.has_value() && *leader != packet.macSrc) {
      unicastFrame(*leader, packet.header);
    }
    return;
  }
  if (state_ == State::kActive || config_.endpointMode) {
    engine_.onFrame(packet);
  }
}

std::optional<net::NodeId> GafProtocol::localLeader() {
  sim::Time now = env_.simulator().now();
  geo::GridCoord myGrid = env_.cell();
  std::optional<net::NodeId> best;
  sim::Time bestHeard = sim::kTimeZero;
  for (const auto& [id, s] : sightings_) {
    if (s.grid != myGrid || s.state != NodeState::kActive) continue;
    if (now - s.lastHeard > config_.sightingStale) continue;
    if (!best.has_value() || s.lastHeard > bestHeard) {
      best = id;
      bestHeard = s.lastHeard;
    }
  }
  return best;
}

// --------------------------------------------------------------------------
// application data

void GafProtocol::sendData(net::NodeId destination, int payloadBytes,
                           const net::DataTag& tag) {
  if (state_ == State::kDead) return;
  auto header = std::make_shared<DataHeader>(env_.id(), destination,
                                             payloadBytes, tag);
  if (state_ == State::kSleep) {
    // Wake into discovery; the data flows once a leader is found (or we
    // become one).
    stateTimer_.cancel();
    appPending_.push_back(std::move(header));
    enterDiscovery();
    return;
  }
  if (state_ == State::kActive || config_.endpointMode) {
    net::Packet frame;
    frame.macSrc = env_.id();
    frame.macDst = env_.id();
    frame.header = header;
    engine_.routeData(frame, *header);
    return;
  }
  if (auto leader = localLeader(); leader.has_value()) {
    unicastFrame(*leader, header);
    return;
  }
  if (appPending_.size() >= config_.appPendingLimit) appPending_.pop_front();
  appPending_.push_back(std::move(header));
}

void GafProtocol::flushAppQueue() {
  if (appPending_.empty()) return;
  std::deque<std::shared_ptr<const net::Header>> pending;
  pending.swap(appPending_);
  for (auto& header : pending) {
    const auto* data = net::headerAs<DataHeader>(header.get());
    ECGRID_CHECK(data != nullptr, "app queue held a non-data header");
    if (state_ == State::kActive) {
      net::Packet frame;
      frame.macSrc = env_.id();
      frame.macDst = env_.id();
      frame.header = header;
      engine_.routeData(frame, *data);
    } else if (auto leader = localLeader(); leader.has_value()) {
      unicastFrame(*leader, header);
    } else {
      appPending_.push_back(header);  // still no leader
    }
  }
}

// --------------------------------------------------------------------------
// misc

void GafProtocol::onPaged(const net::PageSignal&) {
  // GAF predates the RAS idea — pages are meaningless to it.
}

void GafProtocol::onSendFailed(const net::Packet& packet) {
  if (state_ == State::kDead) return;
  const auto* data = packet.headerAs<DataHeader>();
  if (data == nullptr) return;
  // The believed leader did not acknowledge — it slept or left. Purge the
  // sighting and re-route (bounded), re-discovering if needed.
  sightings_.erase(packet.macDst);
  if (packet.routeRetries >= config_.routing.maxRouteRetries) return;
  net::Packet retry = packet;
  retry.routeRetries = packet.routeRetries + 1;
  if (state_ == State::kActive || config_.endpointMode) {
    engine_.routes().erase(data->appDst());
    engine_.routeData(retry, *data);
  } else if (auto leader = localLeader(); leader.has_value()) {
    unicastFrame(*leader, retry.header);
  }
}

void GafProtocol::onCellChanged(const geo::GridCoord& from,
                                const geo::GridCoord& to) {
  (void)from;
  (void)to;
  if (state_ == State::kDead) return;
  if (config_.endpointMode) return;
  // Whatever we were doing belonged to the old grid; rejoin as a
  // discoverer in the new one.
  if (state_ == State::kActive) engine_.stopRouting();
  if (state_ == State::kDiscovery &&
      discoveryStartedAt_ == env_.simulator().now()) {
    // The active-handover timer (Ta bounded by the dwell estimate) fires
    // at this same instant and already re-entered discovery; restarting
    // it here would beacon twice and draw a second discovery window,
    // making the outcome depend on same-instant event order.
    return;
  }
  stateTimer_.cancel();
  enterDiscovery();
}

ECGRID_HOT_PATH void GafProtocol::unicastFrame(net::NodeId to,
                               std::shared_ptr<const net::Header> header) {
  net::Packet frame;
  frame.macSrc = env_.id();
  frame.macDst = to;
  frame.header = std::move(header);
  env_.link().send(frame);
}

}  // namespace ecgrid::protocols
