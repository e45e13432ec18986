#include "routing/dsr/dsr.hpp"

#include "security/defense/defense.hpp"

namespace mts::routing::dsr {

using net::NodeId;
using net::Packet;

void Dsr::rreq_sent(NodeId /*dst*/, bool /*first*/, std::uint32_t id) {
  rreq_seen_.check_and_insert(self(), id);
}

bool Dsr::take_rreq(const Packet& p, NodeId /*from*/) {
  const auto& h = p.header<net::DsrRreqHeader>();
  if (!rreq_seen_.check_and_insert(h.orig, h.rreq_id)) {
    drop(p, net::DropReason::kDuplicate);
    return false;
  }
  // Rate-limit defense: after dedup, so copies of one genuine flood
  // never drain the origin's bucket — only novel (orig, id) floods do.
  if (ctx_.defense != nullptr &&
      !ctx_.defense->admit_rreq(self(), h.orig, now())) {
    drop(p, net::DropReason::kRateLimited);
    return false;
  }
  // Cache the reverse route we just learned (links are bidirectional in
  // the unit-disk world, as they were in the paper's 802.11 setup).
  net::RouteVec back{self()};
  back.insert(back.end(), h.record.rbegin(), h.record.rend());
  back.push_back(h.orig);
  cache_.add(std::move(back), now());
  if (h.target == self()) {
    send_rrep(full_route(h));
    return false;
  }
  return true;
}

bool Dsr::reply_from_cache(const net::DsrRreqHeader& h) {
  auto suffix = cache_.find(h.target, now());
  if (!suffix.has_value()) return false;
  // Splice: orig .. record .. self .. cached suffix (which starts at self).
  net::RouteVec full;
  full.push_back(h.orig);
  full.insert(full.end(), h.record.begin(), h.record.end());
  full.insert(full.end(), suffix->begin(), suffix->end());
  // A looping splice would be a corrupt route; stay silent.
  if (!has_loop(full)) send_rrep(std::move(full));
  return true;
}

void Dsr::learn_rrep(const net::DsrRrepHeader& h, std::size_t pos) {
  // Every node the RREP passes learns the route suffix to the target.
  cache_.add(net::RouteVec(h.route.begin() + static_cast<std::ptrdiff_t>(pos),
                           h.route.end()),
             now());
}

void Dsr::learn_rerr(const net::DsrRerrHeader& h) {
  // Everyone who sees the RERR prunes the dead link; the notified source
  // re-discovers on its next send.
  cache_.remove_link(h.from, h.to);
}

void Dsr::salvage(Packet&& p) {
  if (p.is_control()) {
    drop(p, net::DropReason::kNoRoute);
    return;
  }
  if (p.common().src == self()) {
    resend(std::move(p));  // re-route, or buffer and rediscover
    return;
  }
  // One salvage per packet: a salvaged packet that fails again is lost.
  if (const auto* sr = p.header_if<net::DsrSourceRoute>();
      sr != nullptr && sr->salvaged) {
    drop(p, net::DropReason::kNoRoute);
    return;
  }
  auto route = cache_.find(p.common().dst, now());
  if (!route.has_value() || has_loop(*route)) {
    drop(p, net::DropReason::kNoRoute);
    return;
  }
  send_along(std::move(p), std::move(*route), /*salvaged=*/true);
}

}  // namespace mts::routing::dsr
