#include "routing/smr/smr.hpp"

#include <algorithm>
#include <unordered_set>

#include "security/defense/defense.hpp"

namespace mts::routing::smr {

using net::NodeId;
using net::Packet;

namespace {

/// How long the destination collects RREQ copies before choosing the
/// maximally-disjoint second route (Lee & Gerla use a short window).
constexpr sim::Time kSelectWindow = sim::Time::ms(100);
/// Number of concurrent routes data is striped over.
constexpr std::uint32_t kRouteCount = 2;
/// Duplicate RREQ copies (over a new incoming link) a relay re-forwards.
constexpr std::uint32_t kMaxDupForwards = 2;

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

/// Drops every route in `routes` that matches `dead`.
template <typename Pred>
void prune(std::vector<net::RouteVec>& routes, Pred dead) {
  routes.erase(std::remove_if(routes.begin(), routes.end(), dead),
               routes.end());
}

}  // namespace

// ---------------------------------------------------------------------------
// Sending: stripe round-robin over the active routes.
// ---------------------------------------------------------------------------

std::optional<net::RouteVec> Smr::route_to(NodeId dst) {
  if (auto it = flows_.find(dst);
      it != flows_.end() && !it->second.routes.empty()) {
    // Round-robin: the concurrency that reorders TCP segments.
    FlowRoutes& fr = it->second;
    return fr.routes[fr.next++ % fr.routes.size()];
  }
  // Sink side: reply along the reversed route of received data.
  return SourceRouting::route_to(dst);
}

void Smr::rreq_sent(NodeId dst, bool first, std::uint32_t /*id*/) {
  if (first) flows_[dst] = FlowRoutes{};
}

// ---------------------------------------------------------------------------
// Discovery.
// ---------------------------------------------------------------------------

bool Smr::take_rreq(const Packet& p, NodeId from) {
  const auto& h = p.header<net::DsrRreqHeader>();
  if (h.target == self()) {
    collect(p);
    return false;
  }
  // Intermediate: SMR re-forwards duplicates arriving over a *different*
  // incoming link (bounded), so multiple disjoint records reach the
  // destination.
  auto [it, fresh] = relayed_.try_emplace(
      (std::uint64_t{h.orig} << 32) | h.rreq_id, RelayedFlood{from, 0});
  RelayedFlood& flood = it->second;
  if (fresh) {
    // Rate-limit defense, charged on the first copy only; a refused
    // flood keeps a zero re-forward budget so stragglers die as
    // duplicates instead of re-draining the origin's bucket.
    if (ctx_.defense != nullptr &&
        !ctx_.defense->admit_rreq(self(), h.orig, now())) {
      drop(p, net::DropReason::kRateLimited);
      return false;
    }
    flood.budget = kMaxDupForwards;
  } else if (flood.first_link == from || flood.budget == 0) {
    drop(p, net::DropReason::kDuplicate);
    return false;
  } else {
    --flood.budget;
  }
  return true;
}

void Smr::collect(const Packet& p) {
  // Destination: first copy replies immediately; later copies are
  // collected until the selection window closes (SMR's split step).
  const auto& h = p.header<net::DsrRreqHeader>();
  net::RouteVec full = full_route(h);
  if (has_loop(full)) return;
  auto [it, fresh] = selects_.try_emplace(h.orig);
  PendingSelect& sel = it->second;
  if (!fresh && sel.rreq_id == h.rreq_id) {
    // A later copy of the current generation, unless it was refused.
    if (!sel.suppressed) sel.candidates.push_back(std::move(full));
    return;
  }
  // Rate-limit defense: one token per *generation* — the destination
  // deliberately consumes every copy, so charging per copy would let a
  // genuine flood starve itself.
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
  // A still-armed window from the previous discovery round re-arms in
  // place (the callback's capture is identical); otherwise a fresh
  // window is scheduled.
  const sim::EventId old_timer = fresh ? sim::kInvalidEvent : sel.timer;
  sel = PendingSelect{};
  sel.rreq_id = h.rreq_id;
  sel.first = full;
  const NodeId orig = h.orig;
  const sim::Time window_end = now() + kSelectWindow;
  if (old_timer != sim::kInvalidEvent &&
      ctx_.sched->reschedule(old_timer, window_end)) {
    sel.timer = old_timer;
  } else {
    sel.timer = ctx_.sched->schedule_at(
        window_end, [this, orig] { select_second_route(orig); },
        sim::EventCategory::kRouting);
  }
  send_rrep(std::move(full));
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
  send_rrep(*best);
}

void Smr::learn_rrep(const net::DsrRrepHeader& h, std::size_t /*pos*/) {
  if (h.orig != self()) return;
  FlowRoutes& fr = flows_[h.target];
  if (fr.routes.size() < kRouteCount &&
      std::find(fr.routes.begin(), fr.routes.end(), h.route) ==
          fr.routes.end()) {
    fr.routes.push_back(h.route);
  }
}

void Smr::learn_rerr(const net::DsrRerrHeader& h) {
  if (h.notify != self()) return;
  // Drop every striped route that contains the dead link.
  for (auto& [dst, fr] : flows_) {
    prune(fr.routes, [&h](const net::RouteVec& r) {
      for (std::size_t i = 0; i + 1 < r.size(); ++i) {
        if (r[i] == h.from && r[i + 1] == h.to) return true;
      }
      return false;
    });
  }
}

// ---------------------------------------------------------------------------
// Link failure: the source falls back to its surviving routes; a relay
// gives the packet up.
// ---------------------------------------------------------------------------

void Smr::packet_failed(const Packet& packet, NodeId next_hop) {
  const auto* sr = packet.header_if<net::DsrSourceRoute>();
  if (sr == nullptr) return;
  if (sr->route.front() != self()) {
    drop(packet, net::DropReason::kStaleRoute);
    return;
  }
  // Prune every active route through the dead first hop; fall back to
  // the survivors (or re-discover when none remain).
  if (auto it = flows_.find(packet.common().dst); it != flows_.end()) {
    prune(it->second.routes, [next_hop](const net::RouteVec& r) {
      return r.size() > 1 && r[1] == next_hop;
    });
  }
  resend(Packet(packet));
}

void Smr::salvage(Packet&& p) {
  if (p.common().src == self()) {
    resend(std::move(p));
  } else {
    drop(p, net::DropReason::kNoRoute);
  }
}

std::vector<net::RouteVec> Smr::active_routes(NodeId dst) const {
  auto it = flows_.find(dst);
  return it == flows_.end() ? std::vector<net::RouteVec>{}
                            : it->second.routes;
}

}  // namespace mts::routing::smr
