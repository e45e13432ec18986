#pragma once

// Shared test bench for routing protocols: N full node stacks (radio +
// 802.11 MAC + protocol under test) on a static topology, with captured
// transport deliveries.  Tests drive the scheduler directly so they can
// interleave injections with inspection.

#include <memory>
#include <vector>

#include "core/mts.hpp"
#include "mac/mac80211.hpp"
#include "phy/channel.hpp"
#include "phy/radio.hpp"
#include "routing/aodv/aodv.hpp"
#include "routing/dsr/dsr.hpp"
#include "sim/scheduler.hpp"

namespace mts::testing {

struct TestNode {
  net::Counters counters;
  std::unique_ptr<phy::Radio> radio;
  std::unique_ptr<mac::Mac80211> mac;
  std::unique_ptr<routing::RoutingProtocol> routing;
  std::vector<net::Packet> delivered;
};

class RoutingBench {
 public:
  enum class Proto { kAodv, kDsr, kMts };

  RoutingBench(Proto proto, std::vector<mobility::Vec2> positions,
               routing::aodv::AodvConfig aodv_cfg = {},
               routing::dsr::DsrConfig dsr_cfg = {},
               core::MtsConfig mts_cfg = {}) {
    prop_ = std::make_unique<phy::UnitDiskPropagation>(250.0);
    channel_ = std::make_unique<phy::Channel>(sched, *prop_);
    nodes_.resize(positions.size());
    for (std::size_t i = 0; i < positions.size(); ++i) {
      TestNode& n = nodes_[i];
      n.radio = std::make_unique<phy::Radio>(
          sched, static_cast<net::NodeId>(i), &n.counters);
      n.mac = std::make_unique<mac::Mac80211>(sched, *n.radio, mac::MacConfig{},
                                              sim::Rng(1000 + i), &n.counters);
      routing::RoutingContext ctx;
      ctx.self = static_cast<net::NodeId>(i);
      ctx.sched = &sched;
      ctx.mac = n.mac.get();
      ctx.counters = &n.counters;
      ctx.trace = nullptr;
      ctx.uids = &uids;
      ctx.deliver = [&n](net::Packet&& p, net::NodeId) {
        n.delivered.push_back(std::move(p));
      };
      switch (proto) {
        case Proto::kAodv:
          n.routing = std::make_unique<routing::aodv::Aodv>(
              std::move(ctx), aodv_cfg, sim::Rng(2000 + i));
          break;
        case Proto::kDsr:
          n.routing = std::make_unique<routing::dsr::Dsr>(
              std::move(ctx), dsr_cfg, sim::Rng(2000 + i));
          break;
        case Proto::kMts:
          n.routing = std::make_unique<core::Mts>(std::move(ctx), mts_cfg,
                                                  sim::Rng(2000 + i));
          break;
      }
      channel_->attach(n.radio.get(), mobility::Trajectory(positions[i]));
    }
    channel_->finalize();
    for (auto& n : nodes_) {
      mac::Mac80211::Callbacks cb;
      auto* r = n.routing.get();
      cb.on_receive = [r](net::Packet&& p, net::NodeId from) {
        r->receive_from_mac(std::move(p), from);
      };
      cb.on_unicast_failure = [r](const net::Packet& p, net::NodeId hop) {
        r->on_link_failure(p, hop);
      };
      n.mac->set_callbacks(std::move(cb));
      n.routing->start();
    }
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
  std::unique_ptr<phy::UnitDiskPropagation> prop_;
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

}  // namespace mts::testing
