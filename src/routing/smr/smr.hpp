#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "routing/source_route.hpp"

namespace mts::routing::smr {

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
/// flow falls back to the surviving route until a re-discovery.  The
/// packet plane is `SourceRouting`'s; this class is SMR's policy.
class Smr final : public SourceRouting {
 public:
  using SourceRouting::SourceRouting;

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
  /// One RREQ flood this node relayed.
  struct RelayedFlood {
    net::NodeId first_link = net::kNoNode;  ///< neighbour of the first copy
    std::uint32_t budget = 0;               ///< duplicates still re-forwarded
  };

  std::optional<net::RouteVec> route_to(net::NodeId dst) override;
  void rreq_sent(net::NodeId dst, bool first, std::uint32_t id) override;
  bool take_rreq(const net::Packet& p, net::NodeId from) override;
  void learn_rrep(const net::DsrRrepHeader& h, std::size_t pos) override;
  void learn_rerr(const net::DsrRerrHeader& h) override;
  void packet_failed(const net::Packet& packet, net::NodeId next_hop) override;
  void salvage(net::Packet&& p) override;

  /// The destination's side of a flood: answer the first copy, collect
  /// the rest for the selection window.
  void collect(const net::Packet& p);
  void select_second_route(net::NodeId orig);

  std::unordered_map<net::NodeId, FlowRoutes> flows_;       ///< as source
  std::unordered_map<net::NodeId, PendingSelect> selects_;  ///< as dest
  /// As relay, by (orig << 32 | rreq_id).  Never pruned: stragglers of
  /// an origin's older flood can still arrive after its newer one.
  std::unordered_map<std::uint64_t, RelayedFlood> relayed_;
};

}  // namespace mts::routing::smr
