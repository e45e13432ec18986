#pragma once

#include <cstdint>
#include <unordered_map>

#include "routing/dsr/route_cache.hpp"
#include "routing/flood_cache.hpp"
#include "routing/protocol.hpp"

namespace mts::routing::smr {

struct SmrConfig {
  /// How long the destination collects RREQ copies before choosing the
  /// maximally-disjoint second route (Lee & Gerla use a short window).
  sim::Time select_window = sim::Time::ms(100);
  /// Number of concurrent routes data is striped over.
  std::uint32_t route_count = 2;
  /// A duplicate RREQ is re-forwarded when it arrived over a different
  /// incoming link; this caps how many copies one node re-forwards.
  std::uint32_t max_dup_forwards = 2;
  std::uint8_t max_route_len = 16;
};

/// Split Multipath Routing (Lee & Gerla, ICC 2001) — the paper's
/// related-work baseline [6].
///
/// SMR discovers two maximally-disjoint source routes per flow and
/// stripes data packets over them *concurrently*.  The paper (§II,
/// citing [7]) argues this is exactly what hurts TCP: alternating
/// between paths of different RTT reorders segments, triggers spurious
/// dup-ACK fast retransmits, and halves the congestion window for
/// losses that never happened.  This implementation exists to reproduce
/// that claim (bench `ext_smr_tcp`).
///
/// Mechanics implemented: route-record RREQ flood where intermediates
/// re-forward duplicates that arrive over a *different incoming link*
/// (up to a cap) instead of dropping all duplicates; destination
/// replies immediately to the first copy, then after a selection window
/// replies to the copy maximally disjoint from the first; the source
/// stripes data round-robin over the discovered routes; link failures
/// prune the affected route (DSR-style RERR back to the source) and the
/// flow falls back to the surviving route until a re-discovery.
class Smr final : public RoutingProtocol {
 public:
  Smr(RoutingContext ctx, SmrConfig cfg, sim::Rng rng);

  void send_from_transport(net::Packet packet) override;
  void receive_from_mac(net::Packet packet, net::NodeId from) override;
  void on_link_failure(const net::Packet& packet,
                       net::NodeId next_hop) override;
  [[nodiscard]] const char* name() const override { return "SMR"; }

  /// Routes the source currently stripes over (for tests).
  [[nodiscard]] std::vector<net::RouteVec> active_routes(
      net::NodeId dst) const;

 private:
  struct FlowRoutes {
    std::vector<net::RouteVec> routes;             ///< full src..dst paths
    std::uint32_t next = 0;                        ///< round-robin cursor
  };
  struct PendingSelect {
    net::RouteVec first;                 ///< route answered immediately
    std::vector<net::RouteVec> candidates;
    sim::EventId timer = sim::kInvalidEvent;
    std::uint32_t rreq_id = 0;
    /// Generation refused by the rate-limit defense: stragglers of the
    /// same id are ignored without re-draining the origin's bucket.
    bool suppressed = false;
  };

  void handle_rreq(net::Packet&& p, net::NodeId from);
  void handle_rrep(net::Packet&& p, net::NodeId from);
  void handle_rerr(net::Packet&& p, net::NodeId from);
  void handle_data(net::Packet&& p, net::NodeId from);

  void send_rreq(net::NodeId dst, bool first) override;
  void select_second_route(net::NodeId orig);
  void send_rrep_for(net::RouteVec full_route);
  bool stripe_and_send(net::Packet&& p);

  SmrConfig cfg_;
  std::uint32_t rreq_id_ = 0;
  std::unordered_map<net::NodeId, FlowRoutes> flows_;       ///< as source
  std::unordered_map<net::NodeId, PendingSelect> selects_;  ///< as dest
  /// (orig, rreq_id) -> how many copies forwarded; incoming links seen.
  std::unordered_map<std::uint64_t, std::uint32_t> dup_forwards_;
  std::unordered_map<std::uint64_t, net::NodeId> first_link_;
  dsr::RouteCache reverse_cache_;  ///< for replying to the peer's data
};

}  // namespace mts::routing::smr
