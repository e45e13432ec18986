#pragma once

#include "routing/flood_cache.hpp"
#include "routing/source_route.hpp"

namespace mts::routing::dsr {

/// Dynamic Source Routing (Johnson/Maltz), ns-2 flavoured.
///
/// Implemented: route discovery with route records, replies from cache
/// at intermediate nodes, source-routed data, one salvage attempt per
/// packet, route shortening-free RERR propagation that prunes the named
/// link from every cache it passes.  Omitted: promiscuous tap
/// optimizations (gratuitous RREP, automatic shortening) — they are off
/// in the ns-2 defaults the paper compares against.  The packet plane
/// is `SourceRouting`'s; this class is DSR's policy.
class Dsr final : public SourceRouting {
 public:
  using SourceRouting::SourceRouting;

  [[nodiscard]] const char* name() const override { return "DSR"; }

 private:
  void rreq_sent(net::NodeId dst, bool first, std::uint32_t id) override;
  bool take_rreq(const net::Packet& p, net::NodeId from) override;
  bool reply_from_cache(const net::DsrRreqHeader& h) override;
  void learn_rrep(const net::DsrRrepHeader& h, std::size_t pos) override;
  void learn_rerr(const net::DsrRerrHeader& h) override;
  void salvage(net::Packet&& p) override;

  FloodCache rreq_seen_;
};

}  // namespace mts::routing::dsr
