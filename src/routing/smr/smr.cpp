#include "routing/smr/smr.hpp"

#include <algorithm>
#include <unordered_set>

namespace mts::routing::smr {

using net::DsrRerrHeader;
using net::DsrRreqHeader;
using net::DsrRrepHeader;
using net::DsrSourceRoute;
using net::NodeId;
using net::Packet;
using net::PacketKind;

namespace {

std::uint64_t flood_key(NodeId orig, std::uint32_t id) {
  return (static_cast<std::uint64_t>(orig) << 32) | id;
}

/// Number of shared intermediate nodes — the "maximally disjoint"
/// selection minimizes this against the first route.
std::size_t overlap(const net::RouteVec& a, const net::RouteVec& b) {
  std::unordered_set<NodeId> interior(a.begin() + 1, a.end() - 1);
  std::size_t n = 0;
  for (std::size_t i = 1; i + 1 < b.size(); ++i) {
    if (interior.contains(b[i])) ++n;
  }
  return n;
}

bool has_loop(const net::RouteVec& path) {
  std::unordered_set<NodeId> seen;
  for (NodeId n : path) {
    if (!seen.insert(n).second) return true;
  }
  return false;
}

}  // namespace

Smr::Smr(RoutingContext ctx, SmrConfig cfg, sim::Rng rng)
    : RoutingProtocol(std::move(ctx), rng,
                      RetryPolicy::kPersistWhileBuffered),
      cfg_(cfg) {
  sim::require_config(cfg.route_count >= 1, "SmrConfig: route_count < 1");
}

// ---------------------------------------------------------------------------
// Sending: stripe round-robin over the active routes.
// ---------------------------------------------------------------------------

bool Smr::stripe_and_send(Packet&& p) {
  auto it = flows_.find(p.common().dst);
  if (it == flows_.end() || it->second.routes.empty()) return false;
  FlowRoutes& fr = it->second;
  const auto& route = fr.routes[fr.next % fr.routes.size()];
  ++fr.next;  // the concurrency that reorders TCP segments
  DsrSourceRoute sr;
  sr.route = route;
  const NodeId next_hop = route[1];
  p.mutable_routing() = std::move(sr);
  p.mutable_hop().cursor = 0;  // route index: still at the source
  ctx_.mac->enqueue(std::move(p), next_hop);
  return true;
}

void Smr::send_from_transport(Packet packet) {
  const NodeId dst = packet.common().dst;
  if (dst == self()) {
    ctx_.deliver(std::move(packet), self());
    return;
  }
  if (stripe_and_send(std::move(packet))) return;
  // Sink side: reply along the reversed route of received data.
  if (auto back = reverse_cache_.find(dst, now())) {
    DsrSourceRoute sr;
    sr.route = std::move(*back);
    const NodeId next_hop = sr.route[1];
    packet.mutable_routing() = std::move(sr);
    packet.mutable_hop().cursor = 0;  // route index: still at the source
    ctx_.mac->enqueue(std::move(packet), next_hop);
    return;
  }
  buffer_and_discover(std::move(packet));
}

void Smr::send_rreq(NodeId dst, bool first) {
  if (first) {
    FlowRoutes& fr = flows_[dst];
    fr.routes.clear();
    fr.next = 0;
  }
  ++rreq_id_;
  DsrRreqHeader h;
  h.rreq_id = rreq_id_;
  h.orig = self();
  h.target = dst;
  Packet p = originate(PacketKind::kDsrRreq, net::kBroadcastId,
                       cfg_.max_route_len);
  p.mutable_routing() = h;
  dup_forwards_[flood_key(self(), h.rreq_id)] = cfg_.max_dup_forwards;
  send_to_mac(std::move(p), net::kBroadcastId, /*originated_here=*/true);
}

// ---------------------------------------------------------------------------
// Receive paths.
// ---------------------------------------------------------------------------

void Smr::receive_from_mac(Packet packet, NodeId from) {
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

void Smr::handle_rreq(Packet&& p, NodeId from) {
  const auto& h = p.header<DsrRreqHeader>();
  if (h.orig == self()) return;
  const std::uint64_t key = flood_key(h.orig, h.rreq_id);

  if (h.target == self()) {
    // Destination: first copy replies immediately; later copies are
    // collected until the selection window closes (SMR's split step).
    net::RouteVec full;
    full.push_back(h.orig);
    full.insert(full.end(), h.record.begin(), h.record.end());
    full.push_back(self());
    if (has_loop(full)) return;
    auto [it, fresh] = selects_.try_emplace(h.orig);
    PendingSelect& sel = it->second;
    if (sel.suppressed && !fresh && sel.rreq_id == h.rreq_id) {
      return;  // straggler of a rate-limited generation
    }
    if (fresh || sel.rreq_id != h.rreq_id) {
      // Rate-limit defense: one token per *generation* — the destination
      // deliberately consumes every copy, so charging per copy would let
      // a genuine flood starve itself.
      if (ctx_.defense != nullptr &&
          !ctx_.defense->admit_rreq(self(), h.orig, now())) {
        if (!fresh && sel.timer != sim::kInvalidEvent) {
          ctx_.sched->cancel(sel.timer);
        }
        sel = PendingSelect{};
        sel.rreq_id = h.rreq_id;
        sel.suppressed = true;
        drop(p, net::DropReason::kRateLimited);
        return;
      }
    }
    if (fresh || sel.rreq_id != h.rreq_id) {
      // A still-armed window from the previous discovery round re-arms
      // in place (the callback's capture is identical); otherwise a
      // fresh window is scheduled.
      const sim::EventId old_timer = fresh ? sim::kInvalidEvent : sel.timer;
      sel = PendingSelect{};
      sel.rreq_id = h.rreq_id;
      sel.first = full;
      const NodeId orig = h.orig;
      const sim::Time window_end = now() + cfg_.select_window;
      if (old_timer != sim::kInvalidEvent &&
          ctx_.sched->reschedule(old_timer, window_end)) {
        sel.timer = old_timer;
      } else {
        sel.timer = ctx_.sched->schedule_at(
            window_end, [this, orig] { select_second_route(orig); },
            sim::EventCategory::kRouting);
      }
      send_rrep_for(std::move(full));
    } else {
      sel.candidates.push_back(std::move(full));
    }
    return;
  }

  // Intermediate: SMR re-forwards duplicates arriving over a *different*
  // incoming link (bounded), so multiple disjoint records reach the
  // destination.
  auto fit = first_link_.find(key);
  if (fit == first_link_.end()) {
    first_link_[key] = from;
    // Rate-limit defense, charged on the first copy only; a refused
    // flood keeps a zero re-forward budget so stragglers die as
    // duplicates instead of re-draining the origin's bucket.
    if (ctx_.defense != nullptr &&
        !ctx_.defense->admit_rreq(self(), h.orig, now())) {
      dup_forwards_[key] = 0;
      drop(p, net::DropReason::kRateLimited);
      return;
    }
    dup_forwards_[key] = cfg_.max_dup_forwards;
  } else {
    auto& budget = dup_forwards_[key];
    if (fit->second == from || budget == 0) {
      drop(p, net::DropReason::kDuplicate);
      return;
    }
    --budget;
  }
  if (std::find(h.record.begin(), h.record.end(), self()) != h.record.end()) {
    return;  // already on this record
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

void Smr::select_second_route(NodeId orig) {
  auto it = selects_.find(orig);
  if (it == selects_.end()) return;
  PendingSelect sel = std::move(it->second);
  selects_.erase(it);
  if (sel.candidates.empty()) return;
  // Maximally disjoint from the first: minimize shared interior nodes,
  // break ties by shorter route.
  const auto best = std::min_element(
      sel.candidates.begin(), sel.candidates.end(),
      [&sel](const auto& a, const auto& b) {
        const auto oa = overlap(sel.first, a);
        const auto ob = overlap(sel.first, b);
        return oa != ob ? oa < ob : a.size() < b.size();
      });
  if (*best == sel.first) return;
  send_rrep_for(*best);
}

void Smr::send_rrep_for(net::RouteVec full_route) {
  DsrRrepHeader h;
  h.orig = full_route.front();
  h.target = full_route.back();
  h.route = std::move(full_route);
  const std::size_t my_idx = h.route.size() - 1;  // we are the target
  const NodeId next = h.route[my_idx - 1];
  Packet p = originate(PacketKind::kDsrRrep, h.orig, cfg_.max_route_len);
  p.mutable_hop().cursor = static_cast<std::uint16_t>(my_idx - 1);
  p.mutable_routing() = std::move(h);
  send_to_mac(std::move(p), next, /*originated_here=*/true);
}

void Smr::handle_rrep(Packet&& p, NodeId from) {
  (void)from;
  const auto& h = p.header<DsrRrepHeader>();
  const std::size_t pos = p.hop().cursor;
  if (pos >= h.route.size() || h.route[pos] != self()) {
    drop(p, net::DropReason::kStaleRoute);
    return;
  }
  if (h.orig == self()) {
    FlowRoutes& fr = flows_[h.target];
    if (std::find(fr.routes.begin(), fr.routes.end(), h.route) ==
        fr.routes.end()) {
      if (fr.routes.size() < cfg_.route_count) {
        fr.routes.push_back(h.route);
      }
    }
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

void Smr::handle_data(Packet&& p, NodeId from) {
  if (p.common().dst == self()) {
    if (const auto* sr = p.header_if<DsrSourceRoute>()) {
      net::RouteVec back(sr->route.rbegin(), sr->route.rend());
      reverse_cache_.add(std::move(back), now());
    }
    trace(net::TraceOp::kDeliver, p);
    ctx_.deliver(std::move(p), from);
    return;
  }
  const auto* sr = p.header_if<DsrSourceRoute>();
  if (sr == nullptr || p.hop().ttl <= 1) {
    drop(p, net::DropReason::kStaleRoute);
    return;
  }
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

void Smr::on_link_failure(const Packet& packet, NodeId next_hop) {
  reverse_cache_.remove_link(self(), next_hop);
  const auto* sr = packet.header_if<DsrSourceRoute>();
  if (sr != nullptr && !sr->route.empty()) {
    const NodeId src = sr->route.front();
    if (src == self()) {
      // Prune every active route using the dead link; fall back to the
      // survivors (or re-discover when none remain).
      auto it = flows_.find(packet.common().dst);
      if (it != flows_.end()) {
        auto& routes = it->second.routes;
        routes.erase(
            std::remove_if(routes.begin(), routes.end(),
                           [next_hop](const net::RouteVec& r) {
                             return r.size() > 1 && r[1] == next_hop;
                           }),
            routes.end());
      }
      Packet retry = packet;
      retry.mutable_routing() = std::monostate{};
      send_from_transport(std::move(retry));
    } else {
      // DSR-style RERR back to the source along the traversed prefix.
      DsrRerrHeader h;
      h.notify = src;
      h.from = self();
      h.to = next_hop;
      for (std::size_t i = std::size_t{packet.hop().cursor} + 1; i-- > 0;) {
        h.back_path.push_back(sr->route[i]);
      }
      h.back_path.insert(h.back_path.begin(), self());
      if (h.back_path.size() >= 2) {
        const NodeId next = h.back_path[1];
        Packet rerr =
            originate(PacketKind::kDsrRerr, src, cfg_.max_route_len);
        rerr.mutable_hop().cursor = 0;  // back_path index of the reporter
        rerr.mutable_routing() = std::move(h);
        send_to_mac(std::move(rerr), next, /*originated_here=*/true);
      }
      drop(packet, net::DropReason::kStaleRoute);
    }
  }
  for (net::QueueItem& item : ctx_.mac->take_queued_for(next_hop)) {
    if (item.packet.is_control()) {
      drop(item.packet, net::DropReason::kNoRoute);
    } else if (item.packet.common().src == self()) {
      Packet retry = std::move(item.packet);
      retry.mutable_routing() = std::monostate{};
      send_from_transport(std::move(retry));
    } else {
      drop(item.packet, net::DropReason::kNoRoute);
    }
  }
}

void Smr::handle_rerr(Packet&& p, NodeId from) {
  (void)from;
  const auto& h = p.header<DsrRerrHeader>();
  if (h.notify == self()) {
    // Drop every striped route that contains the dead link.
    for (auto& [dst, fr] : flows_) {
      auto& routes = fr.routes;
      routes.erase(std::remove_if(routes.begin(), routes.end(),
                                  [&h](const net::RouteVec& r) {
                                    for (std::size_t i = 0; i + 1 < r.size();
                                         ++i) {
                                      if (r[i] == h.from && r[i + 1] == h.to)
                                        return true;
                                    }
                                    return false;
                                  }),
                   routes.end());
    }
    return;
  }
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

std::vector<net::RouteVec> Smr::active_routes(NodeId dst) const {
  auto it = flows_.find(dst);
  return it == flows_.end() ? std::vector<net::RouteVec>{}
                            : it->second.routes;
}

}  // namespace mts::routing::smr
