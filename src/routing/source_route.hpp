#pragma once

#include <cstdint>
#include <optional>

#include "routing/protocol.hpp"
#include "routing/route_cache.hpp"

namespace mts::routing {

/// True when `path` visits any node twice.
[[nodiscard]] bool has_loop(const net::RouteVec& path);

/// The source-route plane DSR and SMR share: Johnson/Maltz's route-record
/// RREQ flood, the RREP that walks the discovered route back to its
/// origin, the RERR that walks a failed packet's traversed prefix back
/// to its source, and data that carries its whole route.
///
/// The layer builds and forwards every one of those packets, owns the
/// one route cache, and learns the reverse route of data delivered
/// here.  A protocol supplies only its policy, through the hooks below:
/// which route a packet leaves on, which RREQ copies it answers or
/// relays, what it learns from an RREP or a RERR, and what a link
/// failure does to the packets that were heading over the dead link.
class SourceRouting : public RoutingProtocol {
 public:
  SourceRouting(RoutingContext ctx, sim::Rng rng);

  void send_from_transport(net::Packet packet) final;
  void receive_from_mac(net::Packet packet, net::NodeId from) final;
  /// Prunes the dead link from the cache, sends a RERR to the source of
  /// a source-routed packet this node relayed, then hands the failed
  /// packet and everything queued behind it to the protocol.
  void on_link_failure(const net::Packet& packet,
                       net::NodeId next_hop) final;

  [[nodiscard]] const RouteCache& cache() const { return cache_; }

 protected:
  /// Route (self first) for a packet this node originates to `dst`, or
  /// none to buffer it and discover.  By default, the cache's shortest.
  virtual std::optional<net::RouteVec> route_to(net::NodeId dst);
  /// This node's RREQ number `id` for `dst` is about to go out.
  virtual void rreq_sent(net::NodeId dst, bool first, std::uint32_t id) = 0;
  /// An RREQ copy from another origin arrived from neighbour `from`.
  /// Answers or drops it (reporting the drop), or returns true to have
  /// it relayed.
  virtual bool take_rreq(const net::Packet& p, net::NodeId from) = 0;
  /// A relay not on the record may answer from its cache instead of
  /// relaying; true when it did (or chose silence).
  virtual bool reply_from_cache(const net::DsrRreqHeader& /*h*/) {
    return false;
  }
  /// An RREP whose route has this node at index `pos` arrived.
  virtual void learn_rrep(const net::DsrRrepHeader& h, std::size_t pos) = 0;
  /// A RERR arrived (addressed here or passing through).
  virtual void learn_rerr(const net::DsrRerrHeader& h) = 0;
  /// The MAC gave up on `packet` over the link to `next_hop`.  By
  /// default it is salvaged like the packets queued behind it.
  virtual void packet_failed(const net::Packet& packet, net::NodeId next_hop);
  /// A data packet that was queued behind a broken link.
  virtual void salvage(net::Packet&& p) = 0;

  /// orig, the record, then this node: the route an RREQ copy found.
  [[nodiscard]] net::RouteVec full_route(const net::DsrRreqHeader& h) const;
  /// Unicasts an RREP for `full_route` (orig .. target) from this node's
  /// position on it back toward the origin.
  void send_rrep(net::RouteVec full_route);
  /// Attaches `route` (self first) to `p` and queues it.  An originated
  /// packet goes straight to the MAC (its transport agent counts it); a
  /// salvaged one is counted and traced as forwarded.
  void send_along(net::Packet&& p, net::RouteVec route, bool salvaged);
  /// Strips the source route of a packet this node originated and sends
  /// it again, over another route or after a discovery.
  void resend(net::Packet&& p);

  RouteCache cache_;

 private:
  void send_rreq(net::NodeId dst, bool first) final;
  void handle_rreq(net::Packet&& p, net::NodeId from);
  void handle_rrep(net::Packet&& p);
  void handle_rerr(net::Packet&& p);
  void handle_data(net::Packet&& p, net::NodeId from);
  void send_rerr(const net::Packet& failed, const net::DsrSourceRoute& sr,
                 net::NodeId broken_to);

  std::uint32_t rreq_id_ = 0;
};

}  // namespace mts::routing
