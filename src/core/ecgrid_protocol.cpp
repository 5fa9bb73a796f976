#include "core/ecgrid_protocol.hpp"

#include "obs/observability.hpp"
#include "util/error.hpp"

namespace ecgrid::core {

namespace {
using protocols::AcqHeader;
using protocols::DataHeader;
/// RAS paging latency headroom used for optimistic post-page forwarding.
constexpr sim::Time kOptimisticWakeDelay = 2e-3;
}  // namespace

EcgridProtocol::EcgridProtocol(net::HostEnv& env, const EcgridConfig& config)
    : GridProtocolBase(env, config.base),
      ecgridConfig_(config),
      mSleeps_(obs::counter(env.simulator(), "ecgrid.sleeps")),
      mWakes_(obs::counter(env.simulator(), "ecgrid.wakes")),
      mAcqsSent_(obs::counter(env.simulator(), "ecgrid.acqs_sent")),
      mWakeLatency_(obs::histogram(
          env.simulator(), "paging.wake_latency_s",
          {0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0})) {
  ECGRID_REQUIRE(config.base.election.useBatteryLevel,
                 "ECGRID requires battery-aware election rules");
}

std::uint64_t EcgridProtocol::wakeChainSpanId(net::NodeId dst) const {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(env_.id()))
          << 32) |
         static_cast<std::uint32_t>(dst);
}

void EcgridProtocol::onShutdown() {
  sleepTimer_.cancel();
  acqTimer_.cancel();
  for (auto& [dst, state] : wakeBuffer_) state.retryTimer.cancel();
  wakeBuffer_.clear();
  GridProtocolBase::onShutdown();
}

// --------------------------------------------------------------------------
// sleeping

void EcgridProtocol::maybeSleep() {
  if (!ecgridConfig_.enableSleep) return;
  if (role() != Role::kMember) return;
  if (graceRouting()) return;  // still forwarding for the old grid
  if (!currentGateway_.has_value() || gatewayIsStale()) return;
  if (!appPending_.empty()) return;
  if (env_.link().queueDepth() > 0) {
    // Frames still in the MAC (queued or mid-ARQ): sleeping now would
    // silently discard them. Check again shortly.
    sleepTimer_.cancel();
    sleepTimer_ = env_.simulator().schedule(0.05, [this] { maybeSleep(); },
                                            "ecgrid/sleep_check");
    return;
  }
  sim::Time now = env_.simulator().now();
  sim::Time idleFor = now - lastAppActivity_;
  if (idleFor < ecgridConfig_.idleBeforeSleep) {
    scheduleSleepCheck();
    return;
  }
  goToSleep();
}

void EcgridProtocol::scheduleSleepCheck() {
  if (sleepTimer_.pending()) return;
  sim::Time now = env_.simulator().now();
  sim::Time wait = ecgridConfig_.idleBeforeSleep - (now - lastAppActivity_);
  if (wait < 0.01) wait = 0.01;
  sleepTimer_ = env_.simulator().schedule(wait, [this] { maybeSleep(); },
                                          "ecgrid/sleep_check");
}

void EcgridProtocol::goToSleep() {
  sleepTimer_.cancel();
  acqTimer_.cancel();
  // Tell the gateway our status column flips to "sleep" (paper §3 host
  // table), then power the transceiver down once that unicast has had
  // time to clear the MAC.
  if (currentGateway_.has_value() && *currentGateway_ != env_.id()) {
    unicastFrame(*currentGateway_, std::make_shared<protocols::SleepNoticeHeader>(
                                       env_.id(), env_.cell()));
  }
  mSleeps_.add();
  if (auto* tracer = obs::tracer(env_.simulator())) {
    tracer->instant("ecgrid", "sleep", env_.id());
  }
  setRole(Role::kSleeping);
  env_.simulator().schedule(
      8e-3,
      [this] {
        if (role() == Role::kSleeping) env_.sleepRadio();
      },
      "ecgrid/radio_down");
  // The GPS dwell timer (paper §3.2) is realised by the node's
  // GridTracker: onCellChanged() fires exactly when we cross out of the
  // grid, which is the event the paper's sleep timer polls for.
}

void EcgridProtocol::wakeAsMember() {
  if (role() != Role::kSleeping) return;
  env_.wakeRadio();
  mWakes_.add();
  if (auto* tracer = obs::tracer(env_.simulator())) {
    tracer->instant("ecgrid", "wake", env_.id());
  }
  setRole(Role::kMember);
  // The gateway-staleness clock ran while we slept; a sleeping host does
  // not doubt its gateway until there is evidence (failed ACQ/unicast),
  // so restart the watchdog from now instead of paging the grid for a
  // spurious election on every wake.
  if (currentGateway_.has_value()) {
    lastGatewayHello_ = env_.simulator().now();
  }
}

void EcgridProtocol::noteAppActivity() {
  lastAppActivity_ = env_.simulator().now();
}

// --------------------------------------------------------------------------
// data path

void EcgridProtocol::sendData(net::NodeId destination, int payloadBytes,
                              const net::DataTag& tag) {
  if (role() == Role::kDead) return;
  noteAppActivity();
  if (role() == Role::kSleeping) {
    // Paper §3.3: a sleeping source wakes and sends ACQ(gid, D); the
    // gateway answers with a HELLO. We forward the data to the last-known
    // gateway optimistically in parallel — if the gateway changed while
    // we slept, the ARQ failure re-queues the packet and the ACQ
    // handshake re-establishes who is in charge.
    wakeAsMember();
    auto header = std::make_shared<DataHeader>(env_.id(), destination,
                                               payloadBytes, tag);
    sendAcq(destination);
    queueAppData(header);
    scheduleSleepCheck();
    return;
  }
  GridProtocolBase::sendData(destination, payloadBytes, tag);
  scheduleSleepCheck();
}

void EcgridProtocol::sendAcq(net::NodeId destination) {
  mAcqsSent_.add();
  if (auto* tracer = obs::tracer(env_.simulator())) {
    tracer->instant("ras", "acq", env_.id(), {{"dst", destination}});
  }
  auto acq =
      std::make_shared<AcqHeader>(env_.id(), env_.cell(), destination);
  broadcastFrameRaw(acq);
  acqTimer_.cancel();
  acqTimer_ = env_.simulator().schedule(
      ecgridConfig_.acqResponseTimeout,
      [this] {
        // Detector 2 (paper §3.2): a sleeping host woke to transmit but
        // the gateway never answered.
        if (role() == Role::kDead) return;
        if (currentGateway_.has_value() && !gatewayIsStale()) return;
        currentGateway_.reset();
        onNoGateway();
      },
      "ecgrid/acq_timeout");
}

void EcgridProtocol::onFrame(const net::Packet& packet) {
  GridProtocolBase::onFrame(packet);
  if (role() == Role::kDead) return;
  if (const auto* data = packet.headerAs<DataHeader>()) {
    if (data->appDst() == env_.id()) {
      // Receiving application traffic keeps us awake a little longer.
      noteAppActivity();
      scheduleSleepCheck();
    }
  }
}

void EcgridProtocol::deliverToLocalHost(net::NodeId dst,
                                        const net::Packet& frame) {
  sim::Time now = env_.simulator().now();
  if (!hostTable_.isSleeping(dst, now)) {
    unicastFrame(dst, frame.header);
    return;
  }
  pageAndBuffer(dst, frame);
}

void EcgridProtocol::pageAndBuffer(net::NodeId dst, const net::Packet& frame) {
  WakeState& state = wakeBuffer_[dst];
  if (state.buffered.size() >= ecgridConfig_.wakeBufferLimit) {
    return;  // buffer full: tail-drop
  }
  state.buffered.push_back(frame);
  if (state.pagesSent == 0) {
    // First buffered frame for this sleeper: page it (paper §3.3 "the
    // gateway is responsible for waking up the destination host") and
    // forward optimistically once the RAS latency has elapsed — the
    // paper's gateway forwards the buffered packets itself; it does not
    // wait for an application-layer handshake. The page-retry timer stays
    // armed in case the optimistic flush fails.
    ++state.pagesSent;
    state.firstPageAt = env_.simulator().now();
    if (auto* tracer = obs::tracer(env_.simulator())) {
      tracer->begin("ras", "wake_chain", wakeChainSpanId(dst), env_.id(),
                    {{"dst", dst}});
      tracer->instant("ras", "page_host", env_.id(),
                      {{"dst", dst}, {"attempt", state.pagesSent}});
    }
    env_.pageHost(dst);
    state.retryTimer = env_.simulator().schedule(
        ecgridConfig_.pageResponseTimeout,
        [this, dst] { onPageTimeout(dst); }, "ecgrid/page_timeout");
    env_.simulator().schedule(
        2.5 * kOptimisticWakeDelay, [this, dst] { flushWakeBuffer(dst); },
        "ecgrid/wake_flush");
  }
}

void EcgridProtocol::onPageTimeout(net::NodeId dst) {
  auto it = wakeBuffer_.find(dst);
  if (it == wakeBuffer_.end()) return;
  WakeState& state = it->second;
  if (state.pagesSent >= ecgridConfig_.pageRetries) {
    // The sleeper is gone (moved away or died): purge it so routing stops
    // treating it as local.
    if (auto* tracer = obs::tracer(env_.simulator())) {
      tracer->end("ras", "wake_chain", wakeChainSpanId(dst), env_.id(),
                  {{"delivered", 0}});
    }
    hostTable_.remove(dst);
    wakeBuffer_.erase(it);
    return;
  }
  ++state.pagesSent;
  if (auto* tracer = obs::tracer(env_.simulator())) {
    tracer->instant("ras", "page_timeout", env_.id(), {{"dst", dst}});
    tracer->instant("ras", "page_host", env_.id(),
                    {{"dst", dst}, {"attempt", state.pagesSent}});
  }
  env_.pageHost(dst);
  state.retryTimer = env_.simulator().schedule(
      ecgridConfig_.pageResponseTimeout, [this, dst] { onPageTimeout(dst); },
      "ecgrid/page_timeout");
}

void EcgridProtocol::onSendFailed(const net::Packet& packet) {
  const auto* data = packet.headerAs<protocols::DataHeader>();
  if (data != nullptr && data->appDst() == packet.macDst &&
      (isGateway() || graceRouting()) &&
      hostTable_.contains(packet.macDst, env_.simulator().now())) {
    // Final hop went unanswered: the host fell asleep without us noticing
    // (e.g. it was seeded as active). Do not purge it — mark it sleeping
    // and restart the delivery through the RAS pager.
    hostTable_.markSleeping(packet.macDst, env_.simulator().now());
    if (packet.routeRetries < config_.routing.maxRouteRetries) {
      net::Packet retry = packet;
      retry.routeRetries = packet.routeRetries + 1;
      pageAndBuffer(packet.macDst, retry);
    }
    return;
  }
  GridProtocolBase::onSendFailed(packet);
}

void EcgridProtocol::onLocalHostActive(net::NodeId host) {
  flushWakeBuffer(host);
}

void EcgridProtocol::flushWakeBuffer(net::NodeId dst) {
  auto it = wakeBuffer_.find(dst);
  if (it == wakeBuffer_.end()) return;
  it->second.retryTimer.cancel();
  const sim::Time firstPageAt = it->second.firstPageAt;
  std::deque<net::Packet> frames = std::move(it->second.buffered);
  wakeBuffer_.erase(it);
  if (firstPageAt >= 0.0) {
    const sim::Time latency = env_.simulator().now() - firstPageAt;
    mWakeLatency_.observe(latency);
    if (auto* tracer = obs::tracer(env_.simulator())) {
      tracer->end("ras", "wake_chain", wakeChainSpanId(dst), env_.id(),
                  {{"delivered", static_cast<int>(frames.size())},
                   {"latency_s", latency}});
    }
  }
  for (net::Packet& frame : frames) {
    unicastFrame(dst, frame.header);
  }
}

// --------------------------------------------------------------------------
// paging

void EcgridProtocol::onPaged(const net::PageSignal& signal) {
  if (role() == Role::kDead) return;
  if (role() == Role::kSleeping) {
    wakeAsMember();
  }
  noteAppActivity();  // hold the radio up while the transaction completes
  // Announce ourselves so the pager (the gateway) learns we are awake and
  // flushes anything it buffered; for a grid page this HELLO is also our
  // election candidacy.
  sendHello();
  scheduleSleepCheck();
  (void)signal;
}

// --------------------------------------------------------------------------
// mobility

void EcgridProtocol::onCellChanged(const geo::GridCoord& from,
                                   const geo::GridCoord& to) {
  if (role() == Role::kDead) return;
  if (role() == Role::kSleeping) {
    // The dwell timer fired and we really are leaving: wake, notify, and
    // run the newcomer handshake (paper §3.2).
    wakeAsMember();
  }
  GridProtocolBase::onCellChanged(from, to);
}

// --------------------------------------------------------------------------
// gateway duties

void EcgridProtocol::onRoleChanged(Role from, Role to) {
  if (to == Role::kGateway) {
    levelWhenElected_ = env_.batteryLevel();
    retireIssuedAtLevel_ = false;
  }
  if (from == Role::kGateway) {
    for (auto& [dst, state] : wakeBuffer_) state.retryTimer.cancel();
    wakeBuffer_.clear();
  }
  if (to == Role::kMember) {
    scheduleSleepCheck();
  }
}

void EcgridProtocol::gatewayPeriodic() {
  if (!ecgridConfig_.enableLoadBalance) return;
  energy::BatteryLevel nowLevel = env_.batteryLevel();
  double ratio = env_.batteryRatio();

  if (!finalRetireIssued_ && ratio < ecgridConfig_.retireBatteryRatio) {
    // Paper §3.2: "the gateway will issue a broadcast sequence and a
    // RETIRE message before its battery runs out."
    finalRetireIssued_ = true;
    retireForLoadBalance();
    return;
  }
  if (!retireIssuedAtLevel_ &&
      energy::electionRank(nowLevel) <
          energy::electionRank(levelWhenElected_)) {
    // Level dropped a class (upper→boundary or boundary→lower): release
    // the gateway role so the grid load-balances (paper §3.2).
    retireIssuedAtLevel_ = true;
    retireForLoadBalance();
  }
}

void EcgridProtocol::retireForLoadBalance() {
  geo::GridCoord grid = env_.cell();
  beginRetire(grid, "load_balance");
  setRole(Role::kMember);
  enterGraceRouting();
  currentGateway_.reset();
  // Remain active (grace-routing in-flight traffic) until a successor
  // declares; if nobody does (we are alone), the no-gateway watchdog
  // re-elects us and we serve until the battery empties — exactly the
  // paper's rule for lower-level gateways.
}

void EcgridProtocol::beginRetire(const geo::GridCoord& forGrid,
                                 const char* cause) {
  // Paper §3.2: wake the whole grid with its broadcast sequence, wait τ
  // so transceivers are up, then broadcast RETIRE(grid, rtab).
  if (auto* tracer = obs::tracer(env_.simulator())) {
    tracer->instant("ras", "page_grid", env_.id(),
                    {{"gx", forGrid.x}, {"gy", forGrid.y}});
  }
  env_.pageGrid(forGrid);
  auto records = engine_.routes().exportRecords(env_.simulator().now());
  geo::GridCoord grid = forGrid;
  env_.simulator().schedule(
      config_.retireTau,
      [this, grid, records, cause]() mutable {
        if (role() == Role::kDead) return;
        broadcastRetire(grid, std::move(records), cause);
      },
      "ecgrid/retire_tau");
}

void EcgridProtocol::onNoGateway() {
  // Wake the whole grid before the election so sleepers can stand as
  // candidates (paper §3.2: "to elect a new gateway, all hosts in the
  // same grid must be in active mode").
  if (auto* tracer = obs::tracer(env_.simulator())) {
    const geo::GridCoord grid = env_.cell();
    tracer->instant("ras", "page_grid", env_.id(),
                    {{"gx", grid.x}, {"gy", grid.y}});
  }
  env_.pageGrid(env_.cell());
  startElection();
}

}  // namespace ecgrid::core
