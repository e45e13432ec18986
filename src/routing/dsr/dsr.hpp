#pragma once

#include <cstdint>

#include "routing/dsr/route_cache.hpp"
#include "routing/flood_cache.hpp"
#include "routing/protocol.hpp"

namespace mts::routing::dsr {

struct DsrConfig {
  std::size_t cache_capacity = 64;
  /// 0 = never expire (ns-2 default; the staleness the paper exploits).
  sim::Time cache_expiry = sim::Time::zero();
  std::uint8_t max_route_len = 16;
  bool reply_from_cache = true;   ///< intermediate nodes answer RREQs
  std::uint32_t max_salvage = 1;  ///< salvage attempts per packet
};

/// Dynamic Source Routing (Johnson/Maltz), ns-2 flavoured.
///
/// Implemented: route discovery with route records, replies from cache
/// at intermediate nodes, source-routed data, salvaging, route
/// shortening-free RERR propagation that prunes the named link from
/// every cache it passes.  Omitted: promiscuous tap optimizations
/// (gratuitous RREP, automatic shortening) — they are off in the ns-2
/// defaults the paper compares against.
class Dsr final : public RoutingProtocol {
 public:
  Dsr(RoutingContext ctx, DsrConfig cfg, sim::Rng rng);

  void send_from_transport(net::Packet packet) override;
  void receive_from_mac(net::Packet packet, net::NodeId from) override;
  void on_link_failure(const net::Packet& packet,
                       net::NodeId next_hop) override;
  [[nodiscard]] const char* name() const override { return "DSR"; }

  [[nodiscard]] const RouteCache& cache() const { return cache_; }

 private:
  void handle_rreq(net::Packet&& p, net::NodeId from);
  void handle_rrep(net::Packet&& p, net::NodeId from);
  void handle_rerr(net::Packet&& p, net::NodeId from);
  void handle_data(net::Packet&& p, net::NodeId from);

  void send_rreq(net::NodeId dst, bool first) override;
  void reply_as_target(const net::DsrRreqHeader& h);
  void reply_from_cache(const net::DsrRreqHeader& h,
                        const net::RouteVec& suffix);
  void send_rrep(net::RouteVec full_route);
  void forward_rrep(net::Packet&& p);
  void send_rerr(net::NodeId notify, net::NodeId broken_to,
                 net::RouteVec back_path);
  void forward_rerr(net::Packet&& p);
  /// Attaches a source route and queues the packet; false if no route.
  bool route_and_send(net::Packet&& p, bool originated_here);
  bool salvage(net::Packet&& p);

  DsrConfig cfg_;
  std::uint32_t rreq_id_ = 0;
  RouteCache cache_;
  FloodCache rreq_seen_;
};

}  // namespace mts::routing::dsr
