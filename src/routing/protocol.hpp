#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "mac/mac80211.hpp"
#include "net/counters.hpp"
#include "net/packet.hpp"
#include "net/trace.hpp"
#include "routing/send_buffer.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"

namespace mts::security {
class Defense;
}

namespace mts::routing {

/// Receives packets whose final destination is the node that routed
/// them.  One listener may serve every node of a run.
class DeliveryListener {
 public:
  /// Hands `packet`, addressed to `self`, to the local transport agent.
  virtual void deliver_local(net::NodeId self, net::Packet&& packet,
                             net::NodeId prev_hop) = 0;

 protected:
  ~DeliveryListener() = default;
};

/// Everything a routing protocol instance needs from its host node.
/// Plain pointers: the harness guarantees the node outlives its protocol.
struct RoutingContext {
  net::NodeId self = net::kNoNode;
  sim::Scheduler* sched = nullptr;
  mac::Mac80211* mac = nullptr;
  net::Counters* counters = nullptr;
  net::TraceHub* trace = nullptr;
  net::UidSource* uids = nullptr;
  /// Shared countermeasure (`ScenarioConfig::defense`), or null.
  /// Protocols consult it for RREQ admission, path admission, and —
  /// MTS only — data-plane probe cadence and verdicts.
  security::Defense* defense = nullptr;
  /// Takes the packets whose final destination is this node.
  DeliveryListener* deliver = nullptr;
};

/// The contract between a node and its routing protocol, and the
/// route-discovery core all four on-demand protocols share.
///
/// A protocol receives: packets the local transport wants routed,
/// packets arriving from the MAC (control or data, addressed here or to
/// be forwarded), and link-failure signals from the MAC's retry logic.
/// It emits packets via `ctx.mac->enqueue(...)` and delivers local
/// traffic via `ctx.deliver` (`deliver_local`).
///
/// Discovery core (the ns-2 scaffolding DSR, AODV, SMR and MTS have in
/// common): a packet with no route waits in the one `SendBuffer`, one
/// pending record per destination carries the RREQ retry timer, and a
/// jittered purge tick ages the buffer.  A protocol supplies what
/// differs: its RREQ (`send_rreq`), its retry policy, and whatever its
/// purge tick does beyond ageing the buffer (`purge`).
class RoutingProtocol {
 public:
  /// How a discovery that gets no answer is retried.
  enum class RetryPolicy : std::uint8_t {
    /// DSR, SMR: wait min(500 ms * 2^n, 10 s) after the n-th RREQ and
    /// keep querying while anything is buffered for the destination.
    kPersistWhileBuffered,
    /// AODV, MTS: wait 1 s * 2^n; after the third RREQ goes unanswered,
    /// drop what is buffered for the destination as `kNoRoute`.
    kGiveUpAfterThree,
  };

  RoutingProtocol(RoutingContext ctx, sim::Rng rng, RetryPolicy retry);
  virtual ~RoutingProtocol() = default;
  RoutingProtocol(const RoutingProtocol&) = delete;
  RoutingProtocol& operator=(const RoutingProtocol&) = delete;

  /// Called once when the simulation starts: arms the purge tick, its
  /// first firing jittered from the protocol's own stream.
  virtual void start();

  /// Transport-originated packet that needs a route.
  virtual void send_from_transport(net::Packet packet) = 0;

  /// Packet decoded by our MAC (unicast to us or broadcast).
  virtual void receive_from_mac(net::Packet packet, net::NodeId from) = 0;

  /// The MAC exhausted its retries sending `packet` to `next_hop`:
  /// the link is considered broken (paper §III-E).
  virtual void on_link_failure(const net::Packet& packet,
                               net::NodeId next_hop) = 0;

  [[nodiscard]] virtual const char* name() const = 0;

  /// Packets waiting in the send buffer for a route.
  [[nodiscard]] std::size_t buffered() const { return buffer_.size(); }

 protected:
  [[nodiscard]] net::NodeId self() const { return ctx_.self; }
  [[nodiscard]] sim::Time now() const { return ctx_.sched->now(); }

  /// Builds and sends one RREQ for `dst`; `first` marks the opening
  /// query of a discovery (retries pass false).  The core arms the retry
  /// timer after this returns.
  virtual void send_rreq(net::NodeId dst, bool first) = 0;
  /// Purge-tick housekeeping beyond ageing the send buffer.
  virtual void purge() {}

  /// Buffers a packet that has no route (evicting the oldest as
  /// `kSendBufferFull` when full) and discovers its destination.
  void buffer_and_discover(net::Packet packet);
  /// Starts a discovery for `dst` unless one is already pending.
  void discover(net::NodeId dst);
  [[nodiscard]] bool discovering(net::NodeId dst) const {
    return std::any_of(
        pending_.begin(), pending_.end(),
        [dst](const PendingDiscovery& d) { return d.dst == dst; });
  }
  /// A route to `dst` arrived: ends its discovery, then hands everything
  /// buffered for it back to `send_from_transport`.
  void flush(net::NodeId dst);

  /// A packet this node originates: kind, src = self, dst, a fresh uid,
  /// originated = now, and the hop cell's TTL.
  [[nodiscard]] net::Packet originate(net::PacketKind kind, net::NodeId dst,
                                      std::uint8_t ttl) {
    net::Packet p;
    auto& common = p.mutable_common();
    common.kind = kind;
    common.src = self();
    common.dst = dst;
    common.uid = ctx_.uids->next();
    common.originated = now();
    p.mutable_hop().ttl = ttl;
    return p;
  }

  /// Queues a packet at the link layer, maintaining the control/data
  /// transmission counters the figures are computed from.
  void send_to_mac(net::Packet packet, net::NodeId next_hop,
                   bool originated_here) {
    auto& c = *ctx_.counters;
    if (packet.is_control()) {
      originated_here ? ++c.sent_control : ++c.forwarded_control;
    } else if (!originated_here) {
      // Transport packets originated here are counted by the agent; the
      // relay census (β_i of Eq. 2) counts data packets only, mirroring
      // Pe/Pr which are data-segment counts.
      packet.common().kind == net::PacketKind::kTcpData ? ++c.forwarded_data
                                                      : ++c.forwarded_ack;
    }
    trace(originated_here ? net::TraceOp::kOriginate : net::TraceOp::kForward,
          packet);
    ctx_.mac->enqueue(std::move(packet), next_hop);
  }

  /// Re-broadcasts a flood packet after a small random delay.  Without
  /// this, every receiver of a broadcast starts contending in the same
  /// DIFS window and the rebroadcasts collide — the classic broadcast
  /// storm that truncates RREQ floods (ns-2's routing agents jitter
  /// their broadcasts for the same reason).
  ///
  /// The packet parks in a pooled slot so the deferred event captures
  /// only {this, slot}: a Packet-sized closure would overflow the
  /// scheduler's inline storage and put an allocation on the flood path.
  void rebroadcast_jittered(net::Packet packet,
                            sim::Time max_jitter = sim::Time::ms(10)) {
    const sim::Time jitter = max_jitter * rng_.uniform();
    std::uint32_t slot;
    if (rebroadcast_free_.empty()) {
      slot = static_cast<std::uint32_t>(rebroadcast_pool_.size());
      rebroadcast_pool_.emplace_back();
    } else {
      slot = rebroadcast_free_.back();
      rebroadcast_free_.pop_back();
    }
    rebroadcast_pool_[slot] = std::move(packet);
    ctx_.sched->schedule_in(
        jitter,
        [this, slot] {
          net::Packet p = std::move(rebroadcast_pool_[slot]);
          rebroadcast_free_.push_back(slot);
          send_to_mac(std::move(p), net::kBroadcastId,
                      /*originated_here=*/false);
        },
        sim::EventCategory::kRouting);
  }

  void drop(const net::Packet& packet, net::DropReason reason) {
    ctx_.counters->drop(reason);
    if (ctx_.trace != nullptr) {
      ctx_.trace->emit_lazy([&] {
        return net::TraceRecord{now(), self(), net::TraceOp::kDrop, packet,
                                net::drop_reason_name(reason)};
      });
    }
  }

  void trace(net::TraceOp op, const net::Packet& packet,
             std::string note = {}) {
    if (ctx_.trace != nullptr) {
      ctx_.trace->emit_lazy([&] {
        return net::TraceRecord{now(), self(), op, packet, std::move(note)};
      });
    }
  }

  RoutingContext ctx_;
  sim::Rng rng_;

 private:
  struct PendingDiscovery {
    net::NodeId dst = net::kNoNode;
    std::uint32_t attempts = 0;  ///< RREQs sent before the latest one
    sim::EventId timer = sim::kInvalidEvent;
  };

  [[nodiscard]] PendingDiscovery* pending_for(net::NodeId dst);
  /// Purge tick: ages the send buffer, then the protocol's `purge`.
  void purge_tick();
  /// Sends the next RREQ for a pending discovery and arms its retry.
  void query(net::NodeId dst, bool first);
  void discovery_timeout(net::NodeId dst);
  /// Forgets a discovery (its timer is fired or already cancelled).
  void forget(PendingDiscovery& d);

  RetryPolicy retry_;
  SendBuffer buffer_;
  std::vector<net::Packet> take_scratch_;  ///< reused by flush and give-up
  /// In-flight discoveries; a node runs a handful at a time, so a
  /// linear scan beats hashing.
  std::vector<PendingDiscovery> pending_;
  sim::PeriodicTimer purge_timer_;
  /// Parking slots for jitter-deferred rebroadcast packets (see
  /// rebroadcast_jittered); recycled LIFO so header buffers get reused.
  std::vector<net::Packet> rebroadcast_pool_;
  std::vector<std::uint32_t> rebroadcast_free_;
};

}  // namespace mts::routing
