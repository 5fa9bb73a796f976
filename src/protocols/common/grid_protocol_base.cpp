#include "protocols/common/grid_protocol_base.hpp"

#include "obs/observability.hpp"
#include "util/error.hpp"
#include "util/hot_path.hpp"
#include "util/log.hpp"

namespace ecgrid::protocols {

namespace {
constexpr const char* kTag = "gridproto";
}

GridProtocolBase::GridProtocolBase(net::HostEnv& env,
                                   const GridProtocolConfig& config)
    : env_(env),
      config_(config),
      engine_(env, makeHooks(), config.routing),
      hostTable_(config.helloPeriod * config.gatewayStaleFactor),
      neighbours_(config.helloPeriod * config.gatewayStaleFactor),
      rng_(env.simulator().rng().stream("gridproto", env.id())),
      mElectionsStarted_(
          obs::counter(env.simulator(), "grid.elections.started")),
      mElectionsWon_(obs::counter(env.simulator(), "grid.elections.won")),
      mRetires_(obs::counter(env.simulator(), "grid.retires")),
      mHandoffs_(obs::counter(env.simulator(), "grid.handoffs")) {
  ECGRID_REQUIRE(config.helloPeriod > 0.0, "HELLO period must be positive");
}

void GridProtocolBase::beginElectionRound() {
  if (openElectionSpan_ != 0) return;
  mElectionsStarted_.add();
  openElectionSpan_ =
      (static_cast<std::uint64_t>(static_cast<std::uint32_t>(env_.id()))
       << 32) |
      ++electionSeq_;
  if (auto* tracer = obs::tracer(env_.simulator())) {
    tracer->begin("grid", "election", openElectionSpan_, env_.id(),
                  {{"round", electionSeq_}});
  }
}

void GridProtocolBase::endElectionRound(bool won) {
  if (openElectionSpan_ == 0) return;
  if (won) mElectionsWon_.add();
  if (auto* tracer = obs::tracer(env_.simulator())) {
    tracer->end("grid", "election", openElectionSpan_, env_.id(),
                {{"won", won ? 1 : 0}});
  }
  openElectionSpan_ = 0;
}

RoutingEngine::Hooks GridProtocolBase::makeHooks() {
  RoutingEngine::Hooks hooks;
  hooks.isRouter = [this] {
    return role_ == Role::kGateway || graceRouting_;
  };
  hooks.routerOf =
      [this](const geo::GridCoord& grid) -> std::optional<net::NodeId> {
    if (role_ == Role::kGateway && grid == env_.cell()) return env_.id();
    return neighbours_.gatewayOf(grid, env_.simulator().now(),
                                 env_.position(),
                                 config_.routing.maxForwardDistance);
  };
  hooks.hostIsLocal = [this](net::NodeId host) {
    return (role_ == Role::kGateway || graceRouting_) &&
           hostTable_.contains(host, env_.simulator().now());
  };
  hooks.deliverLocal = [this](net::NodeId dst, const net::Packet& frame) {
    if (dst == env_.id()) {
      const auto* data = frame.headerAs<DataHeader>();
      ECGRID_CHECK(data != nullptr, "local delivery of non-data frame");
      env_.deliverToApp(data->appSrc(), data->tag(), data->payloadBytes());
      return;
    }
    deliverToLocalHost(dst, frame);
  };
  hooks.locationHint =
      [this](net::NodeId host) -> std::optional<geo::GridCoord> {
    if (config_.locationHint) return config_.locationHint(host);
    return std::nullopt;
  };
  hooks.observeRouter = [this](const geo::GridCoord& grid, net::NodeId id,
                               const geo::Vec2& position) {
    if (id == env_.id()) return;
    neighbours_.observe(grid, id, position, env_.simulator().now());
  };
  return hooks;
}

// --------------------------------------------------------------------------
// lifecycle

void GridProtocolBase::start() {
  setRole(Role::kUndecided);
  sendHello();
  beginElectionRound();
  double jitter = rng_.uniform(0.0, config_.helloJitterFrac);
  electionTimer_ = env_.simulator().schedule(
      config_.helloPeriod * (1.0 + jitter), [this] { decideElection(); },
      "proto/election");
  helloTimer_ = env_.simulator().schedule(
      config_.helloPeriod * (1.0 + rng_.uniform(0.0, config_.helloJitterFrac)),
      [this] { helloTick(); }, "proto/hello");
}

void GridProtocolBase::onShutdown() {
  endElectionRound(/*won=*/false);
  setRole(Role::kDead);
  helloTimer_.cancel();
  electionTimer_.cancel();
  newcomerTimer_.cancel();
  graceTimer_.cancel();
  graceRouting_ = false;
  engine_.stopRouting();
  appPending_.clear();
}

void GridProtocolBase::setRole(Role role) {
  if (role_ == role) return;
  Role old = role_;
  role_ = role;
  if (old == Role::kGateway) servedGrid_.reset();
  ECGRID_LOG_DEBUG(kTag, "node " << env_.id() << " role "
                                 << static_cast<int>(old) << " -> "
                                 << static_cast<int>(role));
  if (auto* tracer = obs::tracer(env_.simulator())) {
    tracer->instant("grid", "role", env_.id(),
                    {{"from", static_cast<int>(old)},
                     {"to", static_cast<int>(role)}});
  }
  onRoleChanged(old, role);
}

// --------------------------------------------------------------------------
// HELLO beaconing and the periodic tick

Candidate GridProtocolBase::selfCandidate() {
  Candidate c;
  c.id = env_.id();
  c.level = env_.batteryLevel();
  c.distToCenter = env_.gridMap().distanceToOwnCenter(env_.position());
  return c;
}

std::shared_ptr<const HelloHeader> GridProtocolBase::makeHelloHeader() {
  Candidate self = selfCandidate();
  return std::make_shared<HelloHeader>(
      env_.id(), env_.cell(), role_ == Role::kGateway, self.level,
      self.distToCenter, env_.position());
}

ECGRID_HOT_PATH void GridProtocolBase::sendHello() {
  if (role_ == Role::kDead || role_ == Role::kSleeping) return;
  broadcastFrameRaw(makeHelloHeader());
  lastHelloSent_ = env_.simulator().now();
}

ECGRID_HOT_PATH void GridProtocolBase::helloTick() {
  if (role_ == Role::kDead) return;
  if (role_ != Role::kSleeping) {
    sendHello();
    if (role_ == Role::kGateway) {
      hostTable_.demoteStaleActives(env_.simulator().now());
      gatewayPeriodic();
    } else if (currentGateway_.has_value() && gatewayIsStale()) {
      // Detector 1 (paper §3.2): an active host stopped hearing the
      // gateway's HELLOs.
      currentGateway_.reset();
      onNoGateway();
    } else if (!currentGateway_.has_value() && role_ == Role::kMember &&
               !electionTimer_.pending() && !newcomerTimer_.pending()) {
      onNoGateway();
    }
  }
  helloTimer_ = env_.simulator().schedule(
      config_.helloPeriod * (1.0 + rng_.uniform(0.0, config_.helloJitterFrac)),
      [this] { helloTick(); }, "proto/hello");
}

bool GridProtocolBase::gatewayIsStale() const {
  return env_.simulator().now() - lastGatewayHello_ >
         config_.helloPeriod * config_.gatewayStaleFactor;
}

void GridProtocolBase::noteGatewaySeen(net::NodeId gateway) {
  currentGateway_ = gateway;
  lastGatewayHello_ = env_.simulator().now();
}

// --------------------------------------------------------------------------
// elections

std::vector<Candidate> GridProtocolBase::freshCandidates(sim::Time window) {
  sim::Time now = env_.simulator().now();
  geo::GridCoord myGrid = env_.cell();
  std::vector<Candidate> field;
  for (auto it = candidates_.begin(); it != candidates_.end();) {
    if (now - it->second.lastHeard > window) {
      it = candidates_.erase(it);
      continue;
    }
    (void)myGrid;
    field.push_back(it->second.candidate);
    ++it;
  }
  return field;
}

void GridProtocolBase::decideElection() {
  if (role_ == Role::kDead || role_ == Role::kGateway) return;
  if (currentGateway_.has_value() && !gatewayIsStale()) {
    endElectionRound(/*won=*/false);
    return;
  }
  std::vector<Candidate> field =
      freshCandidates(config_.helloPeriod * config_.gatewayStaleFactor);
  field.push_back(selfCandidate());
  std::optional<Candidate> winner = electGateway(field, config_.election);
  ECGRID_CHECK(winner.has_value(), "election field contained self");
  endElectionRound(/*won=*/winner->id == env_.id());
  if (winner->id == env_.id()) {
    becomeGateway();
  }
  // Losers stay put: the winner's gflag HELLO will arrive, and the
  // watchdog in helloTick() restarts the election if it never does.
}

void GridProtocolBase::startElection() {
  if (role_ == Role::kDead || role_ == Role::kGateway) return;
  if (electionTimer_.pending()) return;  // election already under way
  beginElectionRound();
  sendHello();
  electionTimer_ = env_.simulator().schedule(
      config_.electionWindow *
          (1.0 + rng_.uniform(0.0, config_.helloJitterFrac)),
      [this] { decideElection(); }, "proto/election");
}

void GridProtocolBase::enterGraceRouting() {
  graceRouting_ = true;
  graceTimer_.cancel();
  graceTimer_ = env_.simulator().schedule(
      config_.electionWindow * 3.0, [this] { endGraceRouting(); },
      "proto/grace");
}

void GridProtocolBase::endGraceRouting() {
  if (!graceRouting_) return;
  graceRouting_ = false;
  graceTimer_.cancel();
  if (role_ != Role::kGateway) {
    engine_.stopRouting();
    hostTable_.clear();
    maybeSleep();
  }
}

void GridProtocolBase::becomeGateway() {
  endElectionRound(/*won=*/true);
  newcomerTimer_.cancel();
  electionTimer_.cancel();
  if (graceRouting_) {
    // Promoted while still grace-routing the previous grid: the old host
    // table is stale, the routes remain useful.
    graceRouting_ = false;
    graceTimer_.cancel();
    hostTable_.clear();
  }
  setRole(Role::kGateway);
  servedGrid_ = env_.cell();
  currentGateway_ = env_.id();
  lastGatewayHello_ = env_.simulator().now();
  // Seed the host table from the HELLOs collected while we were a mere
  // candidate: members may drop into sleep mode the instant they hear our
  // gflag HELLO, and a gateway must know its sleepers to answer RREQs and
  // page them (paper §3: the host table is "constructed from the id field
  // of the HELLO messages").
  {
    sim::Time now = env_.simulator().now();
    sim::Time window = config_.helloPeriod * config_.gatewayStaleFactor;
    for (const auto& [id, sighting] : candidates_) {
      if (id == env_.id()) continue;
      if (now - sighting.lastHeard > window) continue;
      if (assumeSeededHostsSleep()) {
        // ECGRID: losers drop into sleep mode the moment the gflag HELLO
        // lands, so deliveries to them must start with an RAS page.
        hostTable_.markSleeping(id, sighting.lastHeard);
      } else {
        hostTable_.markActive(id, sighting.lastHeard);
      }
    }
  }
  if (storedRetireTable_.has_value()) {
    engine_.routes().importRecords(*storedRetireTable_,
                                   env_.simulator().now());
    storedRetireTable_.reset();
  }
  // Declare immediately (paper §3.1 rule 3: HELLO with the gflag set);
  // this also tells neighbouring gateways about the change.
  sendHello();
  flushAppQueue();
}

void GridProtocolBase::stepDownToMember(
    std::optional<net::NodeId> newGateway) {
  engine_.stopRouting();
  hostTable_.clear();
  setRole(Role::kMember);
  if (newGateway.has_value()) {
    noteGatewaySeen(*newGateway);
  } else {
    currentGateway_.reset();
  }
  maybeSleep();
}

void GridProtocolBase::handOffTo(net::NodeId newGateway) {
  mHandoffs_.add();
  if (auto* tracer = obs::tracer(env_.simulator())) {
    tracer->instant("grid", "handoff", env_.id(), {{"to", newGateway}});
  }
  auto handoff = std::make_shared<HandoffHeader>(
      env_.cell(), engine_.routes().exportRecords(env_.simulator().now()),
      hostTable_.exportEntries());
  unicastFrame(newGateway, handoff);
  stepDownToMember(newGateway);
}

void GridProtocolBase::broadcastRetire(const geo::GridCoord& forGrid,
                                       std::vector<RouteRecord> table) {
  mRetires_.add();
  if (auto* tracer = obs::tracer(env_.simulator())) {
    tracer->instant("grid", "retire", env_.id(),
                    {{"gx", forGrid.x}, {"gy", forGrid.y}});
  }
  auto retire = std::make_shared<RetireHeader>(forGrid, std::move(table));
  broadcastFrameRaw(retire);
}

void GridProtocolBase::beginRetire(const geo::GridCoord& forGrid) {
  // GRID baseline: everyone is awake, so the RETIRE can go out at once.
  broadcastRetire(forGrid, engine_.routes().exportRecords(env_.simulator().now()));
}

void GridProtocolBase::onNoGateway() { startElection(); }

// --------------------------------------------------------------------------
// frame handling

ECGRID_HOT_PATH void GridProtocolBase::onFrame(const net::Packet& frame) {
  if (role_ == Role::kDead || role_ == Role::kSleeping) return;
  if (const auto* hello = frame.headerAs<HelloHeader>()) {
    handleHello(frame, *hello);
    return;
  }
  if (const auto* data = frame.headerAs<DataHeader>()) {
    handleData(frame, *data);
    return;
  }
  if (frame.headerAs<RreqHeader>() != nullptr ||
      frame.headerAs<RrepHeader>() != nullptr ||
      frame.headerAs<RerrHeader>() != nullptr) {
    engine_.onFrame(frame);
    return;
  }
  if (const auto* retire = frame.headerAs<RetireHeader>()) {
    handleRetire(frame, *retire);
    return;
  }
  if (const auto* handoff = frame.headerAs<HandoffHeader>()) {
    handleHandoff(frame, *handoff);
    return;
  }
  if (const auto* leave = frame.headerAs<LeaveHeader>()) {
    handleLeave(frame, *leave);
    return;
  }
  if (const auto* snooze = frame.headerAs<SleepNoticeHeader>()) {
    if ((role_ == Role::kGateway || graceRouting_) &&
        snooze->grid() == env_.cell()) {
      hostTable_.markSleeping(snooze->host(), env_.simulator().now());
    }
    return;
  }
  if (const auto* acq = frame.headerAs<AcqHeader>()) {
    handleAcq(frame, *acq);
    return;
  }
}

ECGRID_HOT_PATH void GridProtocolBase::handleHello(const net::Packet& frame,
                                   const HelloHeader& hello) {
  (void)frame;
  sim::Time now = env_.simulator().now();
  geo::GridCoord myGrid = env_.cell();

  if (hello.grid() != myGrid) {
    if (hello.gatewayFlag()) {
      neighbours_.observe(hello.grid(), hello.id(), hello.position(), now);
    }
    return;
  }

  // Same-grid HELLO: record the sender as an election candidate.
  Sighting sighting;
  sighting.candidate = Candidate{hello.id(), hello.level(),
                                 hello.distToCenter()};
  sighting.lastHeard = now;
  candidates_[hello.id()] = sighting;

  if (hello.gatewayFlag()) {
    if (role_ == Role::kGateway) {
      // Two gateways in one grid (merge or simultaneous declarations):
      // the weaker candidate yields and hands its tables over.
      if (beats(sighting.candidate, selfCandidate(), config_.election)) {
        ECGRID_LOG_DEBUG(kTag, "node " << env_.id() << " yields gateway to "
                                       << hello.id());
        handOffTo(hello.id());
      }
      return;
    }
    noteGatewaySeen(hello.id());
    electionTimer_.cancel();
    newcomerTimer_.cancel();
    if (role_ == Role::kUndecided) setRole(Role::kMember);

    if (awaitingGatewayAssessment_) {
      awaitingGatewayAssessment_ = false;
      // Paper §3.2 situation 1: an incoming host replaces the gateway only
      // with a strictly higher battery level.
      if (newcomerReplaces(selfCandidate(), sighting.candidate,
                           config_.election)) {
        becomeGateway();  // the old gateway yields on hearing our gflag
        return;
      }
    }
    flushAppQueue();
    maybeSleep();
    return;
  }

  // Plain member HELLO in our grid.
  if (role_ == Role::kGateway) {
    sim::Time before = now;
    bool isNew = !hostTable_.contains(hello.id(), before);
    hostTable_.markActive(hello.id(), now);
    onLocalHostActive(hello.id());
    if (isNew && now - lastHelloSent_ > 0.25) {
      // Paper §3.2: the gateway re-beacons when it hears a newcomer, so
      // the newcomer learns who is in charge.
      sendHello();
    }
  }
}

void GridProtocolBase::handleRetire(const net::Packet& frame,
                                    const RetireHeader& retire) {
  sim::Time now = env_.simulator().now();
  neighbours_.forget(retire.grid(), frame.macSrc);
  if (retire.grid() != env_.cell()) return;
  if (role_ == Role::kGateway) return;  // stale duplicate; ignore
  if (frame.macSrc == env_.id()) return;

  storedRetireTable_ = retire.table();
  if (currentGateway_ == frame.macSrc) currentGateway_.reset();
  (void)now;
  startElection();
}

void GridProtocolBase::handleHandoff(const net::Packet& frame,
                                     const HandoffHeader& handoff) {
  if (frame.macDst != env_.id()) return;
  if (role_ == Role::kDead) return;
  sim::Time now = env_.simulator().now();
  engine_.routes().importRecords(handoff.table(), now);
  hostTable_.importEntries(handoff.hostTable(), now);
  if (role_ != Role::kGateway) becomeGateway();
}

void GridProtocolBase::handleLeave(const net::Packet& frame,
                                   const LeaveHeader& leave) {
  (void)frame;
  if (role_ != Role::kGateway) return;
  if (leave.grid() != env_.cell()) return;
  hostTable_.remove(leave.host());
}

void GridProtocolBase::handleAcq(const net::Packet& frame,
                                 const AcqHeader& acq) {
  (void)frame;
  if (role_ != Role::kGateway) return;
  if (acq.grid() != env_.cell()) return;
  hostTable_.markActive(acq.host(), env_.simulator().now());
  onLocalHostActive(acq.host());
  // Paper §3.3: "The gateway of S will respond with a HELLO message";
  // the waking host learns the (possibly new) gateway identity from it.
  // Unicast so the response skips the broadcast de-correlation jitter —
  // this handshake is on the per-packet latency path of sleeping sources.
  unicastFrame(acq.host(), makeHelloHeader());
}

ECGRID_HOT_PATH void GridProtocolBase::handleData(const net::Packet& frame,
                                  const DataHeader& data) {
  if (data.appDst() == env_.id()) {
    env_.deliverToApp(data.appSrc(), data.tag(), data.payloadBytes());
    return;
  }
  if (role_ == Role::kGateway || graceRouting_) {
    engine_.routeData(frame, data);
    return;
  }
  // Transit data reached a non-gateway (e.g. a just-retired gateway whose
  // neighbours have stale tables): relay it to the current gateway rather
  // than dropping it on the floor.
  if (currentGateway_.has_value() && *currentGateway_ != env_.id() &&
      *currentGateway_ != frame.macSrc) {
    ECGRID_LOG_TRACE(kTag, "node " << env_.id() << " member-relay "
                                   << data.describe() << " -> "
                                   << *currentGateway_);
    unicastFrame(*currentGateway_, frame.header);
  } else {
    ECGRID_LOG_TRACE(kTag, "node " << env_.id() << " @" << env_.cell()
                                   << " member-drop " << data.describe()
                                   << " gw="
                                   << (currentGateway_.has_value()
                                           ? *currentGateway_
                                           : -2)
                                   << " from=" << frame.macSrc);
  }
}

// --------------------------------------------------------------------------
// application data

void GridProtocolBase::sendData(net::NodeId destination, int payloadBytes,
                                const net::DataTag& tag) {
  if (role_ == Role::kDead) return;
  auto header = std::make_shared<DataHeader>(env_.id(), destination,
                                             payloadBytes, tag);
  if (role_ == Role::kGateway) {
    net::Packet frame;
    frame.macSrc = env_.id();
    frame.macDst = env_.id();
    frame.header = header;
    engine_.routeData(frame, *header);
    return;
  }
  if (role_ != Role::kSleeping && currentGateway_.has_value() &&
      !gatewayIsStale()) {
    unicastFrame(*currentGateway_, header);
    return;
  }
  queueAppData(header);
}

void GridProtocolBase::queueAppData(std::shared_ptr<const net::Header> header) {
  if (appPending_.size() >= config_.appPendingLimit) {
    appPending_.pop_front();  // drop-oldest
  }
  appPending_.push_back(std::move(header));
  if (role_ == Role::kMember && !currentGateway_.has_value()) {
    onNoGateway();
  }
}

void GridProtocolBase::flushAppQueue() {
  if (appPending_.empty()) return;
  if (role_ == Role::kGateway) {
    std::deque<std::shared_ptr<const net::Header>> pending;
    pending.swap(appPending_);
    for (auto& header : pending) {
      const auto* data = net::headerAs<DataHeader>(header.get());
      ECGRID_CHECK(data != nullptr, "app queue held a non-data header");
      net::Packet frame;
      frame.macSrc = env_.id();
      frame.macDst = env_.id();
      frame.header = header;
      engine_.routeData(frame, *data);
    }
    return;
  }
  if (!currentGateway_.has_value()) return;
  std::deque<std::shared_ptr<const net::Header>> pending;
  pending.swap(appPending_);
  for (auto& header : pending) {
    unicastFrame(*currentGateway_, header);
  }
}

// --------------------------------------------------------------------------
// mobility

void GridProtocolBase::onCellChanged(const geo::GridCoord& from,
                                     const geo::GridCoord& to) {
  (void)to;
  if (role_ == Role::kDead) return;

  if (role_ == Role::kGateway) {
    // Paper §3.2 "hosts move out of a grid": a departing gateway hands its
    // routing table to the grid it left, and keeps forwarding in-flight
    // traffic until the successor is elected (grace routing).
    beginRetire(from);
    setRole(Role::kMember);
    enterGraceRouting();
  } else if (role_ == Role::kMember || role_ == Role::kUndecided) {
    // Non-gateway departure: unicast LEAVE to the old gateway.
    if (currentGateway_.has_value() && *currentGateway_ != env_.id()) {
      unicastFrame(*currentGateway_,
                   std::make_shared<LeaveHeader>(env_.id(), from));
    }
    setRole(Role::kMember);
  }

  // Newcomer procedure in the new grid (paper §3.2 situation 1).
  currentGateway_.reset();
  candidates_.clear();
  awaitingGatewayAssessment_ = true;
  sendHello();
  newcomerTimer_.cancel();
  newcomerTimer_ = env_.simulator().schedule(
      config_.newcomerWait *
          (1.0 + rng_.uniform(0.0, config_.helloJitterFrac)),
      [this] {
        if (role_ == Role::kDead || role_ == Role::kGateway) return;
        if (currentGateway_.has_value() && !gatewayIsStale()) return;
        // No HELLO response within a HELLO period: the grid is empty and
        // we are its gateway now (paper §3.2).
        awaitingGatewayAssessment_ = false;
        becomeGateway();
      },
      "proto/newcomer");
}

// --------------------------------------------------------------------------
// misc

void GridProtocolBase::onPaged(const net::PageSignal&) {
  // Base protocols (GRID) never sleep, so pages are no-ops.
}

void GridProtocolBase::onSendFailed(const net::Packet& packet) {
  if (role_ == Role::kDead) return;
  const auto* data = packet.headerAs<DataHeader>();
  if (data == nullptr) {
    // A lost control unicast (RREP/HANDOFF/LEAVE) is recovered by the
    // protocol timers above it (discovery retry, no-gateway watchdog).
    return;
  }
  // The believed gateway did not acknowledge: stop offering it as a hop.
  neighbours_.forgetById(packet.macDst);
  if (packet.routeRetries >= config_.routing.maxRouteRetries) return;

  net::Packet retry = packet;
  retry.routeRetries = packet.routeRetries + 1;
  if (role_ == Role::kGateway) {
    if (data->appDst() == packet.macDst) {
      // Final hop failed: the host left (or slept) without telling us.
      hostTable_.remove(packet.macDst);
    }
    engine_.routes().erase(data->appDst());
    engine_.routeData(retry, *data);
    return;
  }
  if (currentGateway_ == packet.macDst) currentGateway_.reset();
  if (data->appSrc() == env_.id()) {
    // Our own data: hold it until a gateway reappears.
    queueAppData(retry.header);
  }
}

ECGRID_HOT_PATH void GridProtocolBase::unicastFrame(net::NodeId to,
                                    std::shared_ptr<const net::Header> header) {
  net::Packet frame;
  frame.macSrc = env_.id();
  frame.macDst = to;
  frame.header = std::move(header);
  env_.link().send(frame);
}

ECGRID_HOT_PATH void GridProtocolBase::broadcastFrameRaw(
    std::shared_ptr<const net::Header> header) {
  net::Packet frame;
  frame.macSrc = env_.id();
  frame.macDst = net::kBroadcastId;
  frame.header = std::move(header);
  env_.link().send(frame);
}

ECGRID_HOT_PATH void GridProtocolBase::deliverToLocalHost(net::NodeId dst,
                                          const net::Packet& frame) {
  // GRID: every host is awake, so the final hop is a plain unicast.
  unicastFrame(dst, frame.header);
}

}  // namespace ecgrid::protocols
