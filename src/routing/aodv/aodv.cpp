#include "routing/aodv/aodv.hpp"

#include <algorithm>

#include "security/defense/defense.hpp"

namespace mts::routing::aodv {

using net::AodvRerrHeader;
using net::AodvRreqHeader;
using net::AodvRrepHeader;
using net::NodeId;
using net::Packet;
using net::PacketKind;

/// Lifetime of a route after its last use (RFC 3561 ACTIVE_ROUTE_TIMEOUT
/// as ns-2 sets it).
constexpr sim::Time kActiveRouteTimeout = sim::Time::sec(10);
/// TTL of every originated RREQ and RREP.
constexpr std::uint8_t kNetDiameterTtl = 32;

Aodv::Aodv(RoutingContext ctx, sim::Rng rng)
    : RoutingProtocol(std::move(ctx), rng, RetryPolicy::kGiveUpAfterThree) {}

// ---------------------------------------------------------------------------
// Route table.
// ---------------------------------------------------------------------------

Aodv::RouteEntry* Aodv::find_valid(NodeId dst) {
  auto it = routes_.find(dst);
  if (it == routes_.end()) return nullptr;
  RouteEntry& e = it->second;
  if (!e.valid) return nullptr;
  if (e.expires < now()) {
    e.valid = false;
    return nullptr;
  }
  return &e;
}

const Aodv::RouteEntry* Aodv::route_to(NodeId dst) const {
  auto it = routes_.find(dst);
  return it == routes_.end() ? nullptr : &it->second;
}

bool Aodv::update_route(NodeId dst, NodeId next_hop, std::uint8_t hop_count,
                        std::uint32_t seq, bool seq_known, sim::Time lifetime) {
  RouteEntry& e = routes_[dst];
  const bool stale = !e.valid || e.expires < now();
  bool accept = stale;
  if (!accept && seq_known) {
    if (!e.valid_seq) {
      accept = true;
    } else if (seq > e.dst_seq) {
      accept = true;
    } else if (seq == e.dst_seq && hop_count < e.hop_count) {
      accept = true;
    }
  }
  if (!accept && !seq_known && hop_count < e.hop_count) {
    accept = true;  // unknown-seq update may still shorten (reverse routes)
  }
  if (!accept) {
    // Keep the entry alive: traffic proved the old route still works.
    e.expires = std::max(e.expires, now() + lifetime);
    return false;
  }
  e.next_hop = next_hop;
  e.hop_count = hop_count;
  if (seq_known) {
    e.dst_seq = std::max(e.valid_seq ? e.dst_seq : 0, seq);
    e.valid_seq = true;
  }
  e.valid = true;
  e.expires = now() + lifetime;
  return true;
}

void Aodv::refresh(NodeId dst) {
  auto it = routes_.find(dst);
  if (it != routes_.end() && it->second.valid) {
    it->second.expires =
        std::max(it->second.expires, now() + kActiveRouteTimeout);
  }
}

void Aodv::purge() {
  for (auto& [dst, e] : routes_) {
    if (e.valid && e.expires < now()) e.valid = false;
  }
}

// ---------------------------------------------------------------------------
// Transport-facing.
// ---------------------------------------------------------------------------

void Aodv::send_from_transport(Packet packet) {
  const NodeId dst = packet.common().dst;
  if (dst == self()) {
    ctx_.deliver->deliver_local(self(), std::move(packet), self());
    return;
  }
  if (RouteEntry* e = find_valid(dst)) {
    refresh(dst);
    ctx_.mac->enqueue(std::move(packet), e->next_hop);
    return;
  }
  buffer_and_discover(std::move(packet));
}

void Aodv::send_rreq(NodeId dst, bool /*first*/) {
  ++seq_;  // RFC 3561 §6.1: increment own seq before an RREQ
  ++rreq_id_;
  AodvRreqHeader h;
  h.rreq_id = rreq_id_;
  h.orig = self();
  h.dst = dst;
  h.orig_seq = seq_;
  if (const RouteEntry* e = route_to(dst); e != nullptr && e->valid_seq) {
    h.dst_seq = e->dst_seq;
    h.dst_seq_known = true;
  }
  Packet p = originate(PacketKind::kAodvRreq, net::kBroadcastId,
                       kNetDiameterTtl);
  p.mutable_routing() = h;
  rreq_seen_.check_and_insert(self(), h.rreq_id);  // don't accept our own flood
  send_to_mac(std::move(p), net::kBroadcastId, /*originated_here=*/true);
}

// ---------------------------------------------------------------------------
// MAC-facing.
// ---------------------------------------------------------------------------

void Aodv::receive_from_mac(Packet packet, NodeId from) {
  switch (packet.common().kind) {
    case PacketKind::kAodvRreq: handle_rreq(std::move(packet), from); return;
    case PacketKind::kAodvRrep: handle_rrep(std::move(packet), from); return;
    case PacketKind::kAodvRerr: handle_rerr(std::move(packet), from); return;
    case PacketKind::kTcpData:
    case PacketKind::kTcpAck: handle_data(std::move(packet), from); return;
    default:
      drop(packet, net::DropReason::kNoRoute);  // foreign protocol packet
      return;
  }
}

void Aodv::handle_rreq(Packet&& p, NodeId from) {
  const auto& h = p.header<AodvRreqHeader>();
  if (h.orig == self()) return;  // our own flood echoed back
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
  // One hop further from the originator; written back to the hop cell
  // only on the forwarding tail, so terminal handling never mutates here.
  const auto hop_count = static_cast<std::uint8_t>(p.hop().hops + 1);
  // Reverse route toward the originator through `from`.
  update_route(h.orig, from, hop_count, h.orig_seq, /*seq_known=*/true,
               kActiveRouteTimeout);
  if (from != h.orig) {
    update_route(from, from, 1, 0, /*seq_known=*/false,
                 kActiveRouteTimeout);
  }

  if (h.dst == self()) {
    send_rrep_as_destination(h);
    return;
  }
  if (RouteEntry* e = find_valid(h.dst);
      e != nullptr && e->valid_seq && h.dst_seq_known &&
      e->dst_seq >= h.dst_seq) {
    send_rrep_from_route(h, *e);
    return;
  }
  if (p.hop().ttl <= 1) {
    drop(p, net::DropReason::kTtlExpired);
    return;
  }
  // Pure forwarding hop: TTL + hop count are cell writes; the flood's
  // body is shared by every relay without a clone.
  --p.mutable_hop().ttl;
  p.mutable_hop().hops = hop_count;
  rebroadcast_jittered(std::move(p));
}

void Aodv::send_rrep_as_destination(const AodvRreqHeader& req) {
  // RFC 3561 §6.6.1: bump own seq to max(own, rreq.dst_seq).
  seq_ = std::max(seq_ + 1, req.dst_seq);
  AodvRrepHeader h;
  h.orig = req.orig;
  h.dst = self();
  h.dst_seq = seq_;
  h.lifetime = kActiveRouteTimeout;
  Packet p = originate(PacketKind::kAodvRrep, req.orig, kNetDiameterTtl);
  p.mutable_hop().hops = 0;  // hop count: the destination itself
  p.mutable_routing() = h;
  RouteEntry* back = find_valid(req.orig);
  if (back == nullptr) return;  // reverse route vanished already
  send_to_mac(std::move(p), back->next_hop, /*originated_here=*/true);
}

void Aodv::send_rrep_from_route(const AodvRreqHeader& req,
                                const RouteEntry& route) {
  AodvRrepHeader h;
  h.orig = req.orig;
  h.dst = req.dst;
  h.dst_seq = route.dst_seq;
  h.lifetime = route.expires - now();
  Packet p = originate(PacketKind::kAodvRrep, req.orig, kNetDiameterTtl);
  p.mutable_hop().hops = route.hop_count;  // distance we already know
  p.mutable_routing() = h;
  RouteEntry* back = find_valid(req.orig);
  if (back == nullptr) return;
  send_to_mac(std::move(p), back->next_hop, /*originated_here=*/true);
}

void Aodv::handle_rrep(Packet&& p, NodeId from) {
  const auto& h = p.header<AodvRrepHeader>();
  const auto hop_count = static_cast<std::uint8_t>(p.hop().hops + 1);
  // Forward route to the destination through `from`.
  update_route(h.dst, from, hop_count, h.dst_seq, /*seq_known=*/true,
               h.lifetime);
  if (from != h.dst) {
    update_route(from, from, 1, 0, false, kActiveRouteTimeout);
  }
  if (h.orig == self()) {
    flush(h.dst);
    return;
  }
  const NodeId orig = h.orig;
  RouteEntry* back = find_valid(orig);
  if (back == nullptr) {
    drop(p, net::DropReason::kNoRoute);
    return;
  }
  if (p.hop().ttl <= 1) {
    drop(p, net::DropReason::kTtlExpired);
    return;
  }
  // Pure forwarding hop: TTL + hop count are cell writes, no clone.
  --p.mutable_hop().ttl;
  p.mutable_hop().hops = hop_count;
  refresh(orig);
  send_to_mac(std::move(p), back->next_hop, /*originated_here=*/false);
}

void Aodv::handle_rerr(Packet&& p, NodeId from) {
  const auto& h = p.header<AodvRerrHeader>();
  AodvRerrHeader::List propagate;
  for (const auto& u : h.unreachable) {
    auto it = routes_.find(u.dst);
    if (it == routes_.end() || !it->second.valid) continue;
    if (it->second.next_hop != from) continue;
    it->second.valid = false;
    it->second.dst_seq = std::max(it->second.dst_seq, u.seq);
    propagate.push_back(u);
  }
  if (!propagate.empty()) send_rerr(std::move(propagate));
}

void Aodv::handle_data(Packet&& p, NodeId from) {
  refresh(p.common().src);
  if (from != p.common().src) refresh(from);
  if (p.common().dst == self()) {
    trace(net::TraceOp::kDeliver, p);
    ctx_.deliver->deliver_local(self(), std::move(p), from);
    return;
  }
  if (p.hop().ttl <= 1) {
    drop(p, net::DropReason::kTtlExpired);
    return;
  }
  if (RouteEntry* e = find_valid(p.common().dst)) {
    refresh(p.common().dst);
    --p.mutable_hop().ttl;
    send_to_mac(std::move(p), e->next_hop, /*originated_here=*/false);
    return;
  }
  // No route at an intermediate node: report upstream, drop the packet.
  auto it = routes_.find(p.common().dst);
  const std::uint32_t seq = it != routes_.end() ? it->second.dst_seq + 1 : 1;
  send_rerr({AodvRerrHeader::Unreachable{p.common().dst, seq}});
  drop(p, net::DropReason::kNoRoute);
}

void Aodv::send_rerr(AodvRerrHeader::List lost) {
  AodvRerrHeader h;
  h.unreachable = std::move(lost);
  // RERRs travel hop by hop, re-issued by each upstream.
  Packet p = originate(PacketKind::kAodvRerr, net::kBroadcastId, 1);
  p.mutable_routing() = std::move(h);
  send_to_mac(std::move(p), net::kBroadcastId, /*originated_here=*/true);
}

void Aodv::on_link_failure(const Packet& packet, NodeId next_hop) {
  // Invalidate every route through the dead hop and collect them for the
  // RERR (RFC 3561 §6.11).
  AodvRerrHeader::List lost;
  for (auto& [dst, e] : routes_) {
    if (e.valid && e.next_hop == next_hop) {
      e.valid = false;
      ++e.dst_seq;  // future info must be strictly fresher
      lost.push_back({dst, e.dst_seq});
    }
  }
  // Rescue the failed frame and everything queued behind it: the source
  // buffers its own data and re-discovers.  Without this, one MAC-level
  // failure kills a whole in-flight TCP window and stalls Reno for an
  // RTO.
  auto rescue = [this](Packet&& p) {
    if (p.hop().ttl <= 1) {
      drop(p, net::DropReason::kTtlExpired);
      return;
    }
    if (p.is_control()) {
      // Control packets are regenerated by their own timers; dropping is
      // cheaper than repairing a path for them.
      drop(p, net::DropReason::kNoRoute);
      return;
    }
    const NodeId dst = p.common().dst;
    if (RouteEntry* e = find_valid(dst)) {
      refresh(dst);
      ctx_.mac->enqueue(std::move(p), e->next_hop);
      return;
    }
    if (p.common().src != self()) {
      // Intermediates drop; the RERR below tells the source to
      // re-discover.
      drop(p, net::DropReason::kNoRoute);
      return;
    }
    buffer_and_discover(std::move(p));
  };
  {
    Packet failed = packet;
    rescue(std::move(failed));
  }
  for (net::QueueItem& item : ctx_.mac->take_queued_for(next_hop)) {
    rescue(std::move(item.packet));
  }
  if (!lost.empty()) send_rerr(std::move(lost));
}

}  // namespace mts::routing::aodv
