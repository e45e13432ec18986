#include "routing/source_route.hpp"

#include <algorithm>
#include <unordered_set>

namespace mts::routing {

using net::DsrRerrHeader;
using net::DsrRreqHeader;
using net::DsrRrepHeader;
using net::DsrSourceRoute;
using net::NodeId;
using net::Packet;
using net::PacketKind;

/// Longest RREQ record, and the TTL of every control packet.
constexpr std::uint8_t kMaxRouteLen = 16;

bool has_loop(const net::RouteVec& path) {
  std::unordered_set<NodeId> seen;
  for (NodeId n : path) {
    if (!seen.insert(n).second) return true;
  }
  return false;
}

SourceRouting::SourceRouting(RoutingContext ctx, sim::Rng rng)
    : RoutingProtocol(std::move(ctx), rng,
                      RetryPolicy::kPersistWhileBuffered) {}

// ---------------------------------------------------------------------------
// Sending.
// ---------------------------------------------------------------------------

void SourceRouting::send_from_transport(Packet packet) {
  const NodeId dst = packet.common().dst;
  if (dst == self()) {
    ctx_.deliver->deliver_local(self(), std::move(packet), self());
    return;
  }
  if (auto route = route_to(dst)) {
    send_along(std::move(packet), std::move(*route), /*salvaged=*/false);
    return;
  }
  buffer_and_discover(std::move(packet));
}

std::optional<net::RouteVec> SourceRouting::route_to(NodeId dst) {
  return cache_.find(dst, now());
}

void SourceRouting::send_along(Packet&& p, net::RouteVec route,
                               bool salvaged) {
  DsrSourceRoute sr;
  sr.route = std::move(route);
  sr.salvaged = salvaged;
  const NodeId next = sr.route[1];
  p.mutable_routing() = std::move(sr);
  p.mutable_hop().cursor = 0;  // route index: still at the head
  if (salvaged) {
    send_to_mac(std::move(p), next, /*originated_here=*/false);
  } else {
    ctx_.mac->enqueue(std::move(p), next);
  }
}

void SourceRouting::resend(Packet&& p) {
  p.mutable_routing() = std::monostate{};
  send_from_transport(std::move(p));
}

void SourceRouting::send_rreq(NodeId dst, bool first) {
  ++rreq_id_;
  rreq_sent(dst, first, rreq_id_);
  DsrRreqHeader h;
  h.rreq_id = rreq_id_;
  h.orig = self();
  h.target = dst;
  Packet p = originate(PacketKind::kDsrRreq, net::kBroadcastId, kMaxRouteLen);
  p.mutable_routing() = std::move(h);
  send_to_mac(std::move(p), net::kBroadcastId, /*originated_here=*/true);
}

net::RouteVec SourceRouting::full_route(const DsrRreqHeader& h) const {
  net::RouteVec full;
  full.reserve(h.record.size() + 2);
  full.push_back(h.orig);
  full.insert(full.end(), h.record.begin(), h.record.end());
  full.push_back(self());
  return full;
}

void SourceRouting::send_rrep(net::RouteVec full_route) {
  DsrRrepHeader h;
  h.orig = full_route.front();
  h.target = full_route.back();
  h.route = std::move(full_route);
  // The RREP travels the reverse of the discovered route; the hop cell's
  // cursor holds the route index of the node currently due to process it.
  auto me = std::find(h.route.begin(), h.route.end(), self());
  sim::require(me != h.route.end(), "source route: replier not on route");
  const std::size_t my_idx = static_cast<std::size_t>(me - h.route.begin());
  if (my_idx == 0) return;  // degenerate: we are the orig
  const NodeId next = h.route[my_idx - 1];
  Packet p = originate(PacketKind::kDsrRrep, h.orig, kMaxRouteLen);
  p.mutable_hop().cursor = static_cast<std::uint16_t>(my_idx - 1);
  p.mutable_routing() = std::move(h);
  send_to_mac(std::move(p), next, /*originated_here=*/true);
}

void SourceRouting::send_rerr(const Packet& failed, const DsrSourceRoute& sr,
                              NodeId broken_to) {
  DsrRerrHeader h;
  h.notify = sr.route.front();
  h.from = self();
  h.to = broken_to;
  // Back path: this node, then the traversed prefix reversed.  A relay's
  // cursor names the relay itself, so back_path[1] is this node too: the
  // RERR is unicast to ourselves and dies at the MAC (see ROADMAP).
  h.back_path.push_back(self());
  for (std::size_t i = std::size_t{failed.hop().cursor} + 1; i-- > 0;) {
    h.back_path.push_back(sr.route[i]);
  }
  const NodeId next = h.back_path[1];
  Packet p = originate(PacketKind::kDsrRerr, h.notify, kMaxRouteLen);
  p.mutable_hop().cursor = 0;  // back_path index of the reporter
  p.mutable_routing() = std::move(h);
  send_to_mac(std::move(p), next, /*originated_here=*/true);
}

// ---------------------------------------------------------------------------
// Receiving.
// ---------------------------------------------------------------------------

void SourceRouting::receive_from_mac(Packet packet, NodeId from) {
  switch (packet.common().kind) {
    case PacketKind::kDsrRreq: handle_rreq(std::move(packet), from); return;
    case PacketKind::kDsrRrep: handle_rrep(std::move(packet)); return;
    case PacketKind::kDsrRerr: handle_rerr(std::move(packet)); return;
    case PacketKind::kTcpData:
    case PacketKind::kTcpAck: handle_data(std::move(packet), from); return;
    default:
      drop(packet, net::DropReason::kNoRoute);
      return;
  }
}

void SourceRouting::handle_rreq(Packet&& p, NodeId from) {
  const auto& h = p.header<DsrRreqHeader>();
  if (h.orig == self() || !take_rreq(p, from)) return;
  if (std::find(h.record.begin(), h.record.end(), self()) != h.record.end()) {
    return;  // already on this record — forwarding again would loop
  }
  if (reply_from_cache(h)) return;
  if (p.hop().ttl <= 1 || h.record.size() >= kMaxRouteLen) {
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

void SourceRouting::handle_rrep(Packet&& p) {
  const auto& h = p.header<DsrRrepHeader>();
  const std::size_t pos = p.hop().cursor;
  if (pos >= h.route.size() || h.route[pos] != self()) {
    drop(p, net::DropReason::kStaleRoute);
    return;
  }
  learn_rrep(h, pos);
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

void SourceRouting::handle_rerr(Packet&& p) {
  const auto& h = p.header<DsrRerrHeader>();
  learn_rerr(h);
  if (h.notify == self()) return;
  const std::size_t my_idx = static_cast<std::size_t>(p.hop().cursor) + 1;
  if (my_idx + 1 >= h.back_path.size() || h.back_path[my_idx] != self()) {
    drop(p, net::DropReason::kStaleRoute);
    return;
  }
  // Pure forwarding hop: only the cell moves; the body stays shared.
  p.mutable_hop().cursor = static_cast<std::uint16_t>(my_idx);
  const NodeId next = h.back_path[my_idx + 1];
  send_to_mac(std::move(p), next, /*originated_here=*/false);
}

void SourceRouting::handle_data(Packet&& p, NodeId from) {
  const auto* sr = p.header_if<DsrSourceRoute>();
  if (p.common().dst == self()) {
    // Learn the reverse route for replies (the sink's ACKs).
    if (sr != nullptr) {
      cache_.add(net::RouteVec(sr->route.rbegin(), sr->route.rend()), now());
    }
    trace(net::TraceOp::kDeliver, p);
    ctx_.deliver->deliver_local(self(), std::move(p), from);
    return;
  }
  if (sr == nullptr) {
    drop(p, net::DropReason::kStaleRoute);
    return;
  }
  if (p.hop().ttl <= 1) {
    drop(p, net::DropReason::kTtlExpired);
    return;
  }
  // Advance the cursor to our position; the route must go on past us.
  const std::size_t my_idx = static_cast<std::size_t>(p.hop().cursor) + 1;
  if (my_idx + 1 >= sr->route.size() || sr->route[my_idx] != self()) {
    drop(p, net::DropReason::kStaleRoute);
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
// Link failure.
// ---------------------------------------------------------------------------

void SourceRouting::packet_failed(const Packet& packet, NodeId /*next_hop*/) {
  salvage(Packet(packet));
}

void SourceRouting::on_link_failure(const Packet& packet, NodeId next_hop) {
  cache_.remove_link(self(), next_hop);
  if (const auto* sr = packet.header_if<DsrSourceRoute>();
      sr != nullptr && sr->route.front() != self()) {
    send_rerr(packet, *sr, next_hop);
  }
  packet_failed(packet, next_hop);
  for (net::QueueItem& item : ctx_.mac->take_queued_for(next_hop)) {
    if (item.packet.is_control()) {
      drop(item.packet, net::DropReason::kNoRoute);
    } else {
      salvage(std::move(item.packet));
    }
  }
}

}  // namespace mts::routing
