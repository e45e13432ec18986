#pragma once

#include <cstdint>
#include <set>

#include "net/counters.hpp"
#include "net/packet.hpp"
#include "sim/scheduler.hpp"
#include "tcp/flow_stats.hpp"
#include "tcp/transport_listener.hpp"

namespace mts::tcp {

/// One-way TCP receiver (ns-2 `Agent/TCPSink`): buffers out-of-order
/// segments, acknowledges every arriving data packet with the current
/// cumulative ACK, and echoes the sender's timestamp for RTT sampling.
/// ACKs leave through `listener.send`, and every fresh delivery is
/// reported to `listener.delivered`.
class TcpSink {
 public:
  TcpSink(sim::Scheduler& sched, TransportListener& listener,
          net::NodeId self, net::NodeId peer, std::uint16_t flow_id,
          net::UidSource* uids, net::Counters* counters, FlowStats* stats)
      : sched_(&sched),
        listener_(&listener),
        self_(self),
        peer_(peer),
        flow_id_(flow_id),
        uids_(uids),
        counters_(counters),
        stats_(stats) {}

  /// Handles a data packet routed to this node.
  void on_data(const net::Packet& data);

  [[nodiscard]] std::uint32_t rcv_nxt() const { return rcv_nxt_; }
  [[nodiscard]] std::size_t ooo_buffered() const { return ooo_.size(); }

 private:
  void send_ack(const net::TcpHeader& triggering);

  sim::Scheduler* sched_;
  TransportListener* listener_;
  net::NodeId self_;
  net::NodeId peer_;
  std::uint16_t flow_id_;
  net::UidSource* uids_;
  net::Counters* counters_;
  FlowStats* stats_;

  std::uint32_t rcv_nxt_ = 1;    ///< next expected segment
  std::set<std::uint32_t> ooo_;  ///< buffered out-of-order segments
};

static_assert(sizeof(TcpSink) <= 120,
              "tcp::TcpSink grew: the user plane holds one per open "
              "session (share up-calls through the listener)");

}  // namespace mts::tcp
