#include "routing/dsr/dsr.hpp"

#include <algorithm>
#include <unordered_set>

namespace mts::routing::dsr {

using net::DsrRerrHeader;
using net::DsrRreqHeader;
using net::DsrRrepHeader;
using net::DsrSourceRoute;
using net::NodeId;
using net::Packet;
using net::PacketKind;

namespace {

/// True when `path` visits any node twice — reply-from-cache must never
/// create such a route.
bool has_loop(const net::RouteVec& path) {
  std::unordered_set<NodeId> seen;
  for (NodeId n : path) {
    if (!seen.insert(n).second) return true;
  }
  return false;
}

}  // namespace

Dsr::Dsr(RoutingContext ctx, DsrConfig cfg, sim::Rng rng)
    : RoutingProtocol(std::move(ctx), rng,
                      RetryPolicy::kPersistWhileBuffered),
      cfg_(cfg),
      cache_(cfg.cache_capacity, cfg.cache_expiry) {}

// ---------------------------------------------------------------------------
// Sending.
// ---------------------------------------------------------------------------

bool Dsr::route_and_send(Packet&& p, bool originated_here) {
  auto route = cache_.find(p.common().dst, now());
  if (!route.has_value()) return false;
  DsrSourceRoute sr;
  sr.route = std::move(*route);
  const NodeId next = sr.route[1];
  p.mutable_routing() = std::move(sr);
  p.mutable_hop().cursor = 0;  // route index: still at the source
  if (originated_here) {
    ctx_.mac->enqueue(std::move(p), next);
  } else {
    send_to_mac(std::move(p), next, /*originated_here=*/false);
  }
  return true;
}

void Dsr::send_from_transport(Packet packet) {
  const NodeId dst = packet.common().dst;
  if (dst == self()) {
    ctx_.deliver(std::move(packet), self());
    return;
  }
  // route_and_send consumes the packet only on success; on failure the
  // rvalue reference leaves it intact for buffering.
  if (route_and_send(std::move(packet), /*originated_here=*/true)) return;
  buffer_and_discover(std::move(packet));
}

void Dsr::send_rreq(NodeId dst, bool /*first*/) {
  ++rreq_id_;
  DsrRreqHeader h;
  h.rreq_id = rreq_id_;
  h.orig = self();
  h.target = dst;
  Packet p = originate(PacketKind::kDsrRreq, net::kBroadcastId,
                       cfg_.max_route_len);
  p.mutable_routing() = h;
  rreq_seen_.check_and_insert(self(), h.rreq_id);
  send_to_mac(std::move(p), net::kBroadcastId, /*originated_here=*/true);
}

// ---------------------------------------------------------------------------
// Receiving.
// ---------------------------------------------------------------------------

void Dsr::receive_from_mac(Packet packet, NodeId from) {
  switch (packet.common().kind) {
    case PacketKind::kDsrRreq: handle_rreq(std::move(packet), from); return;
    case PacketKind::kDsrRrep: handle_rrep(std::move(packet), from); return;
    case PacketKind::kDsrRerr: handle_rerr(std::move(packet), from); return;
    case PacketKind::kTcpData:
    case PacketKind::kTcpAck: handle_data(std::move(packet), from); return;
    default:
      drop(packet, net::DropReason::kNoRoute);
      return;
  }
}

void Dsr::handle_rreq(Packet&& p, NodeId from) {
  const auto& h = p.header<DsrRreqHeader>();
  if (h.orig == self()) return;
  if (!rreq_seen_.check_and_insert(h.orig, h.rreq_id)) {
    drop(p, net::DropReason::kDuplicate);
    return;
  }
  // Rate-limit defense: after dedup, so copies of one genuine flood
  // never drain the origin's bucket — only novel (orig, id) floods do.
  if (ctx_.defense != nullptr &&
      !ctx_.defense->admit_rreq(self(), h.orig, now())) {
    drop(p, net::DropReason::kRateLimited);
    return;
  }
  (void)from;
  // Cache the reverse route we just learned (links are bidirectional in
  // the unit-disk world, as they were in the paper's 802.11 setup).
  {
    net::RouteVec back{self()};
    for (auto it = h.record.rbegin(); it != h.record.rend(); ++it)
      back.push_back(*it);
    back.push_back(h.orig);
    cache_.add(std::move(back), now());
  }

  if (h.target == self()) {
    reply_as_target(h);
    return;
  }
  if (std::find(h.record.begin(), h.record.end(), self()) != h.record.end()) {
    return;  // already on this record — forwarding again would loop
  }
  if (cfg_.reply_from_cache) {
    if (auto suffix = cache_.find(h.target, now())) {
      reply_from_cache(h, *suffix);
      return;
    }
  }
  if (p.hop().ttl <= 1 || h.record.size() >= cfg_.max_route_len) {
    drop(p, net::DropReason::kTtlExpired);
    return;
  }
  // Mutating tail: TTL is a cell write (no clone); the record append is
  // the one body mutation of the flood (`h` refers to the pre-clone body
  // from here on; do not use it).
  --p.mutable_hop().ttl;
  p.mutable_header<DsrRreqHeader>().record.push_back(self());
  rebroadcast_jittered(std::move(p));
}

void Dsr::reply_as_target(const DsrRreqHeader& h) {
  net::RouteVec full;
  full.reserve(h.record.size() + 2);
  full.push_back(h.orig);
  full.insert(full.end(), h.record.begin(), h.record.end());
  full.push_back(self());
  send_rrep(std::move(full));
}

void Dsr::reply_from_cache(const DsrRreqHeader& h,
                           const net::RouteVec& suffix) {
  // Splice: orig .. record .. self .. cached-suffix(to target).
  net::RouteVec full;
  full.push_back(h.orig);
  full.insert(full.end(), h.record.begin(), h.record.end());
  // suffix starts at self.
  full.insert(full.end(), suffix.begin(), suffix.end());
  if (has_loop(full)) return;  // would be a corrupt route; stay silent
  send_rrep(std::move(full));
}

void Dsr::send_rrep(net::RouteVec full_route) {
  DsrRrepHeader h;
  h.orig = full_route.front();
  h.target = full_route.back();
  h.route = std::move(full_route);
  // The RREP travels the reverse of the discovered route; the hop cell's
  // cursor holds the route index of the node currently due to process it.
  auto me = std::find(h.route.begin(), h.route.end(), self());
  sim::require(me != h.route.end(), "DSR: replier not on route");
  const std::size_t my_idx = static_cast<std::size_t>(me - h.route.begin());
  if (my_idx == 0) return;  // degenerate: we are the orig
  const NodeId next = h.route[my_idx - 1];
  Packet p = originate(PacketKind::kDsrRrep, h.orig, cfg_.max_route_len);
  p.mutable_hop().cursor = static_cast<std::uint16_t>(my_idx - 1);
  p.mutable_routing() = std::move(h);
  send_to_mac(std::move(p), next, /*originated_here=*/true);
}

void Dsr::handle_rrep(Packet&& p, NodeId from) {
  (void)from;
  const auto& h = p.header<DsrRrepHeader>();
  const std::size_t pos = p.hop().cursor;
  if (pos >= h.route.size() || h.route[pos] != self()) {
    drop(p, net::DropReason::kStaleRoute);
    return;
  }
  // Every node the RREP passes learns the route suffix to the target.
  cache_.add(net::RouteVec(h.route.begin() + static_cast<std::ptrdiff_t>(pos),
                           h.route.end()),
             now());
  if (h.orig == self()) {
    flush(h.target);
    return;
  }
  if (pos == 0) {
    drop(p, net::DropReason::kStaleRoute);
    return;
  }
  // Pure forwarding hop: only the cell moves; the body stays shared.
  p.mutable_hop().cursor = static_cast<std::uint16_t>(pos - 1);
  const NodeId next = h.route[pos - 1];
  send_to_mac(std::move(p), next, /*originated_here=*/false);
}

void Dsr::handle_data(Packet&& p, NodeId from) {
  if (p.common().dst == self()) {
    // Learn the reverse route for our ACKs.
    if (const auto* sr = p.header_if<DsrSourceRoute>()) {
      net::RouteVec back(sr->route.rbegin(), sr->route.rend());
      cache_.add(std::move(back), now());
    }
    trace(net::TraceOp::kDeliver, p);
    ctx_.deliver(std::move(p), from);
    return;
  }
  const auto* sr = p.header_if<DsrSourceRoute>();
  if (sr == nullptr) {
    drop(p, net::DropReason::kStaleRoute);
    return;
  }
  if (p.hop().ttl <= 1) {
    drop(p, net::DropReason::kTtlExpired);
    return;
  }
  // Advance the cursor to our position.
  const std::size_t my_idx = static_cast<std::size_t>(p.hop().cursor) + 1;
  if (my_idx >= sr->route.size() || sr->route[my_idx] != self()) {
    drop(p, net::DropReason::kStaleRoute);
    return;
  }
  if (my_idx + 1 >= sr->route.size()) {
    drop(p, net::DropReason::kStaleRoute);  // route ends before dst
    return;
  }
  // Pure forwarding hop: TTL + cursor are cell writes; the body (and its
  // cached wire image) stays shared down the whole chain.
  --p.mutable_hop().ttl;
  p.mutable_hop().cursor = static_cast<std::uint16_t>(my_idx);
  const NodeId next = sr->route[my_idx + 1];
  send_to_mac(std::move(p), next, /*originated_here=*/false);
}

// ---------------------------------------------------------------------------
// Errors and salvaging.
// ---------------------------------------------------------------------------

void Dsr::on_link_failure(const Packet& packet, NodeId next_hop) {
  cache_.remove_link(self(), next_hop);

  // Tell the source about the broken link (if it is a source-routed data
  // packet and we are not the source).
  if (const auto* sr = packet.header_if<DsrSourceRoute>()) {
    const NodeId src = sr->route.front();
    if (src != self()) {
      // Back path: reverse of the traversed prefix, self .. src.
      net::RouteVec back{self()};
      for (std::size_t i = std::size_t{packet.hop().cursor} + 1; i-- > 0;)
        back.push_back(sr->route[i]);
      send_rerr(src, next_hop, std::move(back));
    }
  }

  // Salvage the failed packet and everything queued behind it.
  Packet failed = packet;
  if (!salvage(std::move(failed))) {
    // salvage() reported the drop
  }
  for (net::QueueItem& item : ctx_.mac->take_queued_for(next_hop)) {
    if (item.packet.is_control()) {
      drop(item.packet, net::DropReason::kNoRoute);
      continue;
    }
    if (!salvage(std::move(item.packet))) {
      // reported inside
    }
  }
}

bool Dsr::salvage(Packet&& p) {
  if (p.common().kind != PacketKind::kTcpData &&
      p.common().kind != PacketKind::kTcpAck) {
    drop(p, net::DropReason::kNoRoute);
    return false;
  }
  const auto* sr = p.header_if<DsrSourceRoute>();
  const bool already_salvaged = sr != nullptr && sr->salvaged;
  if (p.common().src == self()) {
    // We originated it: re-route or buffer + rediscover.
    p.mutable_routing() = std::monostate{};
    send_from_transport(std::move(p));
    return true;
  }
  if (already_salvaged || cfg_.max_salvage == 0) {
    drop(p, net::DropReason::kNoRoute);
    return false;
  }
  auto route = cache_.find(p.common().dst, now());
  if (!route.has_value() || has_loop(*route)) {
    drop(p, net::DropReason::kNoRoute);
    return false;
  }
  DsrSourceRoute fresh;
  fresh.route = std::move(*route);
  fresh.salvaged = true;
  const NodeId next = fresh.route[1];
  p.mutable_routing() = std::move(fresh);
  p.mutable_hop().cursor = 0;  // fresh route: restart at the salvager
  send_to_mac(std::move(p), next, /*originated_here=*/false);
  return true;
}

void Dsr::send_rerr(NodeId notify, NodeId broken_to,
                    net::RouteVec back_path) {
  DsrRerrHeader h;
  h.notify = notify;
  h.from = self();
  h.to = broken_to;
  h.back_path = std::move(back_path);
  if (h.back_path.size() < 2) return;  // nowhere to go
  const NodeId next = h.back_path[1];
  Packet p = originate(PacketKind::kDsrRerr, notify, cfg_.max_route_len);
  p.mutable_hop().cursor = 0;  // back_path index of the reporter
  p.mutable_routing() = std::move(h);
  send_to_mac(std::move(p), next, /*originated_here=*/true);
}

void Dsr::handle_rerr(Packet&& p, NodeId from) {
  (void)from;
  const auto& h = p.header<DsrRerrHeader>();
  // Everyone who sees the RERR prunes the dead link.
  cache_.remove_link(h.from, h.to);
  if (h.notify == self()) return;  // delivered; future sends re-discover
  const std::size_t my_idx = static_cast<std::size_t>(p.hop().cursor) + 1;
  if (my_idx >= h.back_path.size() || h.back_path[my_idx] != self()) {
    drop(p, net::DropReason::kStaleRoute);
    return;
  }
  if (my_idx + 1 >= h.back_path.size()) {
    drop(p, net::DropReason::kStaleRoute);
    return;
  }
  // Pure forwarding hop: only the cell moves; the body stays shared.
  p.mutable_hop().cursor = static_cast<std::uint16_t>(my_idx);
  const NodeId next = h.back_path[my_idx + 1];
  send_to_mac(std::move(p), next, /*originated_here=*/false);
}

}  // namespace mts::routing::dsr
