#pragma once

// Shared test bench for routing protocols: N full node stacks (802.11
// MAC + protocol under test) over one channel on a static topology,
// with captured transport deliveries.  Tests drive the scheduler
// directly so they can interleave injections with inspection.

#include <memory>
#include <vector>

#include "core/mts.hpp"
#include "mac/mac80211.hpp"
#include "phy/channel.hpp"
#include "routing/aodv/aodv.hpp"
#include "routing/dsr/dsr.hpp"
#include "routing/smr/smr.hpp"
#include "sim/scheduler.hpp"

namespace mts::testing {

struct TestNode {
  net::Counters counters;
  std::unique_ptr<mac::Mac80211> mac;
  std::unique_ptr<routing::RoutingProtocol> routing;
  std::vector<net::Packet> delivered;
};

/// Also every node's MAC and delivery listener.
class RoutingBench : public mac::MacListener, public routing::DeliveryListener {
 public:
  enum class Proto { kAodv, kDsr, kMts, kSmr };

  RoutingBench(Proto proto, std::vector<mobility::Vec2> positions,
               core::MtsConfig mts_cfg = {})
      : mts_cfg_(mts_cfg) {
    channel_ = std::make_unique<phy::Channel>(
        sched,
        std::vector<mobility::Trajectory>(positions.begin(), positions.end()),
        250.0);
    nodes_.resize(positions.size());
    for (std::size_t i = 0; i < positions.size(); ++i) {
      TestNode& n = nodes_[i];
      const auto id = static_cast<net::NodeId>(i);
      n.mac = std::make_unique<mac::Mac80211>(*channel_, id, mac_cfg_,
                                              sim::Rng(1000 + i), &n.counters);
      routing::RoutingContext ctx;
      ctx.self = id;
      ctx.sched = &sched;
      ctx.mac = n.mac.get();
      ctx.counters = &n.counters;
      ctx.trace = nullptr;
      ctx.uids = &uids;
      ctx.deliver = this;
      switch (proto) {
        case Proto::kAodv:
          n.routing = std::make_unique<routing::aodv::Aodv>(
              std::move(ctx), sim::Rng(2000 + i));
          break;
        case Proto::kDsr:
          n.routing = std::make_unique<routing::dsr::Dsr>(
              std::move(ctx), sim::Rng(2000 + i));
          break;
        case Proto::kMts:
          n.routing = std::make_unique<core::Mts>(std::move(ctx), mts_cfg_,
                                                  sim::Rng(2000 + i));
          break;
        case Proto::kSmr:
          n.routing = std::make_unique<routing::smr::Smr>(
              std::move(ctx), sim::Rng(2000 + i));
          break;
      }
    }
    for (auto& n : nodes_) {
      n.mac->set_listener(this);
      n.routing->start();
    }
  }

  void on_mac_receive(net::NodeId self, net::Packet&& p,
                      net::NodeId from) override {
    nodes_[self].routing->receive_from_mac(std::move(p), from);
  }
  void on_unicast_failure(net::NodeId self, const net::Packet& p,
                          net::NodeId hop) override {
    nodes_[self].routing->on_link_failure(p, hop);
  }
  void deliver_local(net::NodeId self, net::Packet&& p,
                     net::NodeId) override {
    nodes_[self].delivered.push_back(std::move(p));
  }

  /// Injects one transport data packet at `src` addressed to `dst`.
  net::Packet send_data(net::NodeId src, net::NodeId dst,
                        std::uint32_t payload = 512) {
    net::Packet p;
    auto& common = p.mutable_common();
    common.kind = net::PacketKind::kTcpData;
    common.src = src;
    common.dst = dst;
    common.uid = uids.next();
    common.payload_bytes = payload;
    common.originated = sched.now();
    net::TcpHeader h;
    h.seq = p.common().uid;
    h.flow_id = 1;
    p.mutable_tcp() = h;
    net::Packet copy = p;
    nodes_[src].routing->send_from_transport(std::move(copy));
    return p;
  }

  TestNode& node(net::NodeId id) { return nodes_[id]; }
  std::size_t size() const { return nodes_.size(); }

  template <typename T>
  T* protocol(net::NodeId id) {
    return dynamic_cast<T*>(nodes_[id].routing.get());
  }

  sim::Scheduler sched;
  net::UidSource uids;

 private:
  /// Shared by every node's MAC and MTS instance: declared before them.
  mac::MacConfig mac_cfg_;
  core::MtsConfig mts_cfg_;
  std::unique_ptr<phy::Channel> channel_;
  std::vector<TestNode> nodes_;
};

/// A straight chain: node i at (spacing * i, 0).
inline std::vector<mobility::Vec2> chain(std::size_t n,
                                         double spacing = 200.0) {
  std::vector<mobility::Vec2> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({spacing * static_cast<double>(i), 0.0});
  }
  return out;
}

/// `packet` as the MAC of `route[cursor]` holds it after that node sent
/// it on along `route`: what a link failure hands back to routing.
inline net::Packet source_routed(net::Packet packet, net::RouteVec route,
                                 std::uint16_t cursor) {
  net::DsrSourceRoute sr;
  sr.route = std::move(route);
  packet.mutable_routing() = std::move(sr);
  packet.mutable_hop().cursor = cursor;
  return packet;
}

/// The RERR `back_path.front()` sends when its link to `broken_to` dies:
/// addressed to `back_path.back()`, travelling `back_path` (reporter
/// first), as `back_path[1]` receives it.
inline net::Packet rerr(net::UidSource& uids, net::NodeId broken_to,
                        net::RouteVec back_path) {
  net::DsrRerrHeader h;
  h.notify = back_path.back();
  h.from = back_path.front();
  h.to = broken_to;
  h.back_path = std::move(back_path);
  net::Packet p;
  auto& common = p.mutable_common();
  common.kind = net::PacketKind::kDsrRerr;
  common.src = h.from;
  common.dst = h.notify;
  common.uid = uids.next();
  p.mutable_hop().cursor = 0;  // back_path index of the reporter
  p.mutable_routing() = std::move(h);
  return p;
}

}  // namespace mts::testing
