#include "protocols/common/routing_engine.hpp"

#include "obs/observability.hpp"
#include "util/error.hpp"
#include "util/hot_path.hpp"

namespace ecgrid::protocols {

namespace {
/// Span id correlating one router's discovery for one destination.
std::uint64_t discoverySpanId(net::NodeId router, net::NodeId destination) {
  return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(router))
          << 32) |
         static_cast<std::uint32_t>(destination);
}
}  // namespace

RoutingEngine::RoutingEngine(net::HostEnv& env, Hooks hooks,
                             const RoutingConfig& config)
    : env_(env),
      hooks_(std::move(hooks)),
      config_(config),
      routes_(config.routeLifetime),
      reverse_(config.routeLifetime),
      rreqCache_(config.rreqCacheHorizon),
      rng_(env.simulator().rng().stream("routing", env.id())),
      mDataForwarded_(obs::counter(env.simulator(), "routing.data_forwarded")),
      mDataDeliveredLocal_(
          obs::counter(env.simulator(), "routing.data_delivered_local")),
      mDataDropped_(obs::counter(env.simulator(), "routing.data_dropped")),
      mRreqsSent_(obs::counter(env.simulator(), "routing.rreqs_sent")),
      mRrepsSent_(obs::counter(env.simulator(), "routing.rreps_sent")),
      mRerrsSent_(obs::counter(env.simulator(), "routing.rerrs_sent")),
      mDiscoveriesStarted_(
          obs::counter(env.simulator(), "routing.discoveries_started")),
      mDiscoveriesFailed_(
          obs::counter(env.simulator(), "routing.discoveries_failed")) {
  ECGRID_REQUIRE(hooks_.isRouter && hooks_.routerOf && hooks_.hostIsLocal &&
                     hooks_.deliverLocal && hooks_.locationHint,
                 "all routing hooks are required");
}

void RoutingEngine::broadcastFrame(std::shared_ptr<const net::Header> header) {
  net::Packet frame;
  frame.macSrc = env_.id();
  frame.macDst = net::kBroadcastId;
  frame.header = std::move(header);
  env_.link().send(frame);
}

bool RoutingEngine::unicastToGridRouter(
    const geo::GridCoord& grid, std::shared_ptr<const net::Header> header,
    int routeRetries, net::NodeId fallbackHop) {
  if (grid == env_.cell() && hooks_.isRouter() &&
      fallbackHop == net::kBroadcastId) {
    // Shouldn't happen (callers handle local), but keep it safe.
    return false;
  }
  std::optional<net::NodeId> router = hooks_.routerOf(grid);
  if (!router.has_value() && fallbackHop != net::kBroadcastId &&
      fallbackHop != env_.id()) {
    router = fallbackHop;
  }
  if (!router.has_value()) return false;
  net::Packet frame;
  frame.macSrc = env_.id();
  frame.macDst = *router;
  frame.header = std::move(header);
  frame.routeRetries = routeRetries;
  env_.link().send(frame);
  return true;
}

ECGRID_HOT_PATH bool RoutingEngine::onFrame(const net::Packet& frame) {
  if (const auto* rreq = frame.headerAs<RreqHeader>()) {
    onRreq(frame, *rreq);
    return true;
  }
  if (const auto* rrep = frame.headerAs<RrepHeader>()) {
    onRrep(frame, *rrep);
    return true;
  }
  if (const auto* rerr = frame.headerAs<RerrHeader>()) {
    onRerr(frame, *rerr);
    return true;
  }
  if (const auto* data = frame.headerAs<DataHeader>()) {
    routeData(frame, *data);
    return true;
  }
  return false;
}

ECGRID_HOT_PATH void RoutingEngine::routeData(const net::Packet& frame,
                              const DataHeader& data) {
  sim::Time now = env_.simulator().now();
  net::NodeId dst = data.appDst();

  if (dst == env_.id() || hooks_.hostIsLocal(dst)) {
    ++stats_.dataDeliveredLocal;
    mDataDeliveredLocal_.add();
    if (auto* tracer = obs::tracer(env_.simulator())) {
      tracer->instant("route", "local", env_.id(),
                      {{"src", data.appSrc()},
                       {"dst", dst},
                       {"flow", data.tag().flowId},
                       {"seq", data.tag().sequence}});
    }
    hooks_.deliverLocal(dst, frame);
    return;
  }
  if (!hooks_.isRouter()) {
    // Non-router hosts never carry transit traffic.
    ++stats_.dataDropped;
    mDataDropped_.add();
    if (auto* tracer = obs::tracer(env_.simulator())) {
      tracer->instant("route", "non_router_drop", env_.id(),
                      {{"src", data.appSrc()},
                       {"dst", dst},
                       {"flow", data.tag().flowId},
                       {"seq", data.tag().sequence}});
    }
    return;
  }

  auto route = routes_.lookup(dst, now);
  if (route.has_value()) {
    if (unicastToGridRouter(route->nextGrid, frame.header,
                            frame.routeRetries, route->nextHop)) {
      if (auto* tracer = obs::tracer(env_.simulator())) {
        tracer->instant("route", "fwd", env_.id(),
                        {{"src", data.appSrc()},
                         {"dst", dst},
                         {"flow", data.tag().flowId},
                         {"seq", data.tag().sequence},
                         {"gx", route->nextGrid.x},
                         {"gy", route->nextGrid.y}});
      }
      ++stats_.dataForwarded;
      mDataForwarded_.add();
      routes_.refresh(dst, now);
      reverse_.refresh(data.appSrc(), now);
      return;
    }
    // Next-hop gateway evaporated: purge and fall through to repair.
    routes_.erase(dst);
  }

  if (auto* tracer = obs::tracer(env_.simulator())) {
    tracer->instant("route", "buffer", env_.id(),
                    {{"src", data.appSrc()},
                     {"dst", dst},
                     {"flow", data.tag().flowId},
                     {"seq", data.tag().sequence}});
  }
  // Local repair: buffer the packet and (re)start discovery.
  auto it = discoveries_.find(dst);
  if (it != discoveries_.end()) {
    if (it->second.pendingData.size() < config_.pendingLimit) {
      // Route-repair buffer, bounded at pendingLimit packets and only
      // populated while a discovery is outstanding — not steady state.
      it->second.pendingData.push_back(frame);  // ecgrid-lint: allow(hot-path-container-growth)
    } else {
      ++stats_.dataDropped;
      mDataDropped_.add();
    }
    return;
  }
  startDiscovery(dst, frame);
}

void RoutingEngine::startDiscovery(net::NodeId destination,
                                   const net::Packet& firstData) {
  ++stats_.discoveriesStarted;
  mDiscoveriesStarted_.add();
  if (auto* tracer = obs::tracer(env_.simulator())) {
    tracer->begin("route", "discovery", discoverySpanId(env_.id(), destination),
                  env_.id(), {{"dst", destination}});
  }
  Discovery& discovery = discoveries_[destination];
  discovery.attempts = 0;
  discovery.pendingData.push_back(firstData);
  sendRreqAttempt(destination, discovery);
}

void RoutingEngine::sendRreqAttempt(net::NodeId destination,
                                    Discovery& discovery) {
  ++discovery.attempts;
  ++sourceSeq_;

  geo::GridRect range = geo::GridRect::everywhere();
  if (config_.confinedSearch &&
      discovery.attempts < config_.maxDiscoveryAttempts) {
    // Paper §3.3: the search area is confined when the source has location
    // information for the destination; the rectangle widens per retry and
    // the final attempt searches the whole plane.
    std::optional<geo::GridCoord> hint = hooks_.locationHint(destination);
    if (hint.has_value()) {
      range = geo::GridRect::covering(env_.cell(), *hint)
                  .expanded(config_.rangeMargin +
                            2 * (discovery.attempts - 1));
    }
  }

  auto rreq = std::make_shared<RreqHeader>(
      env_.id(), sourceSeq_, destination, routes_.lastKnownSeq(destination),
      static_cast<std::uint32_t>(rng_.raw()), range, env_.cell(),
      env_.position(), /*hopCount=*/0);
  ++stats_.rreqsSent;
  mRreqsSent_.add();
  if (auto* tracer = obs::tracer(env_.simulator())) {
    tracer->instant("route", "rreq", env_.id(),
                    {{"dst", destination}, {"attempt", discovery.attempts}});
  }
  broadcastFrame(rreq);

  discovery.timeout = env_.simulator().schedule(
      config_.rrepTimeout,
      [this, destination] { onDiscoveryTimeout(destination); },
      "route/discovery_timeout");
}

void RoutingEngine::onDiscoveryTimeout(net::NodeId destination) {
  auto it = discoveries_.find(destination);
  if (it == discoveries_.end()) return;
  if (it->second.attempts >= config_.maxDiscoveryAttempts) {
    failDiscovery(destination);
    return;
  }
  sendRreqAttempt(destination, it->second);
}

void RoutingEngine::completeDiscovery(net::NodeId destination) {
  auto it = discoveries_.find(destination);
  if (it == discoveries_.end()) return;
  if (auto* tracer = obs::tracer(env_.simulator())) {
    tracer->end("route", "discovery", discoverySpanId(env_.id(), destination),
                env_.id(), {{"found", 1}});
  }
  it->second.timeout.cancel();
  std::deque<net::Packet> pending = std::move(it->second.pendingData);
  discoveries_.erase(it);
  for (net::Packet& frame : pending) {
    const auto* data = frame.headerAs<DataHeader>();
    ECGRID_CHECK(data != nullptr, "pending queue held a non-data frame");
    routeData(frame, *data);
  }
}

void RoutingEngine::failDiscovery(net::NodeId destination) {
  auto it = discoveries_.find(destination);
  if (it == discoveries_.end()) return;
  ++stats_.discoveriesFailed;
  mDiscoveriesFailed_.add();
  if (auto* tracer = obs::tracer(env_.simulator())) {
    tracer->end("route", "discovery", discoverySpanId(env_.id(), destination),
                env_.id(), {{"found", 0}});
  }
  it->second.timeout.cancel();
  for (const net::Packet& frame : it->second.pendingData) {
    (void)frame;
    ++stats_.dataDropped;
    mDataDropped_.add();
  }
  discoveries_.erase(it);
}

void RoutingEngine::onRreq(const net::Packet& frame, const RreqHeader& rreq) {
  (void)frame;
  if (!hooks_.isRouter()) return;  // only gateways take part (paper §3.3)
  sim::Time now = env_.simulator().now();
  geo::GridCoord myGrid = env_.cell();

  if (!rreq.range().contains(myGrid)) return;  // outside the search area
  if (rreq.source() == env_.id()) return;      // our own flood came back
  if (env_.position().distanceTo(rreq.senderPos()) >
      config_.maxForwardDistance) {
    // We heard this copy only because we are at the very edge of the
    // sender's radio disk; a route built on such a hop would be dead on
    // arrival, so pretend we did not hear it.
    return;
  }
  // The (re)broadcasting gateway just proved it routes senderGrid.
  if (hooks_.observeRouter) {
    hooks_.observeRouter(rreq.senderGrid(), frame.macSrc, rreq.senderPos());
  }

  if (!rreqCache_.firstSighting(rreq.source(), rreq.requestId(), now)) return;

  // Reverse pointer toward the source, used by RREP/RERR.
  RouteEntry reverseEntry;
  reverseEntry.nextGrid = rreq.senderGrid();
  reverseEntry.destGrid = rreq.senderGrid();
  reverseEntry.nextHop = frame.macSrc;
  reverseEntry.destSeq = rreq.sourceSeq();
  reverseEntry.hopCount = rreq.hopCount() + 1;
  reverse_.update(rreq.source(), reverseEntry, now);

  if (rreq.destination() == env_.id() ||
      hooks_.hostIsLocal(rreq.destination())) {
    replyAsDestinationSide(rreq);
    return;
  }

  if (rreq.hopCount() + 1 >= config_.maxHops) return;
  if (hooks_.mayRelayRreq && !hooks_.mayRelayRreq()) return;
  if (auto* tracer = obs::tracer(env_.simulator())) {
    tracer->instant("route", "rreq_relay", env_.id(),
                    {{"src", rreq.source()},
                     {"dst", rreq.destination()},
                     {"hop", rreq.hopCount() + 1}});
  }
  auto relay = std::make_shared<RreqHeader>(
      rreq.source(), rreq.sourceSeq(), rreq.destination(), rreq.destSeqKnown(),
      rreq.requestId(), rreq.range(), myGrid, env_.position(),
      rreq.hopCount() + 1);
  broadcastFrame(relay);
}

void RoutingEngine::replyAsDestinationSide(const RreqHeader& rreq) {
  sim::Time now = env_.simulator().now();
  // Answer with a destination sequence number strictly fresher than
  // anything the requester has seen (AODV destination behaviour, executed
  // by the destination's gateway per paper §3.3).
  SeqNo& seq = ownSeq_[rreq.destination()];
  if (!seqFresher(seq, rreq.destSeqKnown())) seq = rreq.destSeqKnown() + 1;
  ++seq;

  auto rrep = std::make_shared<RrepHeader>(rreq.source(), rreq.destination(),
                                           seq, env_.cell(), env_.cell(),
                                           env_.position(), /*hopCount=*/0);
  ++stats_.rrepsSent;
  mRrepsSent_.add();
  if (auto* tracer = obs::tracer(env_.simulator())) {
    tracer->instant("route", "rrep", env_.id(),
                    {{"src", rreq.source()}, {"dst", rreq.destination()}});
  }

  auto reverse = reverse_.lookup(rreq.source(), now);
  if (!reverse.has_value()) return;  // reverse path already gone
  if (!unicastToGridRouter(reverse->nextGrid, rrep, 0, reverse->nextHop)) {
    if (auto* tracer = obs::tracer(env_.simulator())) {
      tracer->instant("route", "rrep_no_reverse", env_.id(),
                      {{"src", rreq.source()},
                       {"dst", rreq.destination()},
                       {"gx", reverse->nextGrid.x},
                       {"gy", reverse->nextGrid.y}});
    }
  }
}

void RoutingEngine::onRrep(const net::Packet& frame, const RrepHeader& rrep) {
  (void)frame;
  if (!hooks_.isRouter()) return;
  sim::Time now = env_.simulator().now();

  if (hooks_.observeRouter) {
    hooks_.observeRouter(rrep.senderGrid(), frame.macSrc, rrep.senderPos());
  }

  // Forward route toward the destination.
  RouteEntry entry;
  entry.nextGrid = rrep.senderGrid();
  entry.destGrid = rrep.destGrid();
  entry.nextHop = frame.macSrc;
  entry.destSeq = rrep.destSeq();
  entry.hopCount = rrep.hopCount() + 1;
  routes_.update(rrep.destination(), entry, now);

  if (discoveries_.count(rrep.destination()) > 0 &&
      (rrep.source() == env_.id() || hooks_.hostIsLocal(rrep.source()))) {
    completeDiscovery(rrep.destination());
    return;
  }
  forwardRrep(rrep);
}

void RoutingEngine::forwardRrep(const RrepHeader& rrep) {
  sim::Time now = env_.simulator().now();
  auto reverse = reverse_.lookup(rrep.source(), now);
  if (!reverse.has_value()) return;
  auto relay = std::make_shared<RrepHeader>(
      rrep.source(), rrep.destination(), rrep.destSeq(), rrep.destGrid(),
      env_.cell(), env_.position(), rrep.hopCount() + 1);
  unicastToGridRouter(reverse->nextGrid, relay, 0, reverse->nextHop);
}

void RoutingEngine::sendRerrTowards(net::NodeId source, net::NodeId destination,
                                    SeqNo destSeq) {
  sim::Time now = env_.simulator().now();
  auto reverse = reverse_.lookup(source, now);
  if (!reverse.has_value()) return;
  ++stats_.rerrsSent;
  mRerrsSent_.add();
  if (auto* tracer = obs::tracer(env_.simulator())) {
    tracer->instant("route", "rerr", env_.id(),
                    {{"src", source}, {"dst", destination}});
  }
  auto rerr =
      std::make_shared<RerrHeader>(source, destination, destSeq, env_.cell());
  unicastToGridRouter(reverse->nextGrid, rerr, 0, reverse->nextHop);
}

void RoutingEngine::onRerr(const net::Packet& frame, const RerrHeader& rerr) {
  (void)frame;
  if (!hooks_.isRouter()) return;
  routes_.erase(rerr.destination());
  if (rerr.source() == env_.id() || hooks_.hostIsLocal(rerr.source())) {
    return;  // reached the source side; new data will re-discover
  }
  sendRerrTowards(rerr.source(), rerr.destination(), rerr.destSeq());
}

void RoutingEngine::stopRouting() {
  for (auto& [dst, discovery] : discoveries_) {
    discovery.timeout.cancel();
    stats_.dataDropped += discovery.pendingData.size();
    mDataDropped_.add(discovery.pendingData.size());
    if (auto* tracer = obs::tracer(env_.simulator())) {
      tracer->end("route", "discovery", discoverySpanId(env_.id(), dst),
                  env_.id(), {{"found", 0}, {"reason", "stop_routing"}});
    }
  }
  discoveries_.clear();
}

}  // namespace ecgrid::protocols
