#pragma once

#include <cstdint>
#include <unordered_map>

#include "routing/flood_cache.hpp"
#include "routing/protocol.hpp"

namespace mts::routing::aodv {

/// Ad hoc On-demand Distance Vector routing (RFC 3561 subset).
///
/// Implemented: RREQ flood with (orig, id) dedup, destination sequence
/// numbers, reverse/forward route installation, intermediate RREP from a
/// fresh-enough route, RERR on link failure (detected via MAC feedback,
/// not HELLOs — matching the paper's setup), active-route lifetime
/// refresh on use, bounded send buffer with RREQ retry/backoff.  Timers
/// and TTLs are the ns-2 / RFC 3561 defaults of 2005-era MANET studies.
/// Omitted (not exercised by the paper): expanding-ring search,
/// gratuitous RREP, local repair, multicast.
class Aodv final : public RoutingProtocol {
 public:
  Aodv(RoutingContext ctx, sim::Rng rng);

  void send_from_transport(net::Packet packet) override;
  void receive_from_mac(net::Packet packet, net::NodeId from) override;
  void on_link_failure(const net::Packet& packet,
                       net::NodeId next_hop) override;
  [[nodiscard]] const char* name() const override { return "AODV"; }

  // --- introspection for tests ---------------------------------------
  struct RouteEntry {
    net::NodeId next_hop = net::kNoNode;
    std::uint8_t hop_count = 0;
    std::uint32_t dst_seq = 0;
    bool valid_seq = false;
    bool valid = false;
    sim::Time expires;
  };
  [[nodiscard]] const RouteEntry* route_to(net::NodeId dst) const;
  [[nodiscard]] std::uint32_t own_seq() const { return seq_; }

 private:
  void handle_rreq(net::Packet&& p, net::NodeId from);
  void handle_rrep(net::Packet&& p, net::NodeId from);
  void handle_rerr(net::Packet&& p, net::NodeId from);
  void handle_data(net::Packet&& p, net::NodeId from);

  void send_rreq(net::NodeId dst, bool first) override;
  void send_rrep_as_destination(const net::AodvRreqHeader& req);
  void send_rrep_from_route(const net::AodvRreqHeader& req,
                            const RouteEntry& route);
  void send_rerr(net::AodvRerrHeader::List lost);

  /// Installs/updates a route if the new information is fresher (higher
  /// seq) or equally fresh and shorter.  Returns true when updated.
  bool update_route(net::NodeId dst, net::NodeId next_hop,
                    std::uint8_t hop_count, std::uint32_t seq, bool seq_known,
                    sim::Time lifetime);
  void refresh(net::NodeId dst);
  RouteEntry* find_valid(net::NodeId dst);
  /// Purge tick: invalidates expired routes.
  void purge() override;

  std::uint32_t seq_ = 0;       ///< own sequence number
  std::uint32_t rreq_id_ = 0;
  std::unordered_map<net::NodeId, RouteEntry> routes_;
  FloodCache rreq_seen_;
};

static_assert(sizeof(Aodv) <= 400,
              "routing::aodv::Aodv grew: one per node, so per-node state must "
              "stay small");

}  // namespace mts::routing::aodv
