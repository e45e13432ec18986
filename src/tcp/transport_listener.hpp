#pragma once

#include <cstdint>

#include "net/node_id.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"

namespace mts::tcp {

/// Up-calls from a TCP agent to whatever hosts it.  Each names the
/// sending node or the flow, so one object serves every agent of a run:
/// the harness for the static flows, the traffic plane for its sessions.
class TransportListener {
 public:
  /// A segment or ACK leaving node `from` for its routing layer.
  virtual void send(net::NodeId from, net::Packet&& packet) = 0;
  /// A finite transfer's last segment was cumulatively acknowledged.
  /// Runs from inside `TcpSource::on_ack`: it must not destroy that
  /// source synchronously.
  virtual void transfer_done(std::uint16_t /*flow_id*/) {}
  /// A sink accepted a fresh segment (duplicates excluded) `delay` after
  /// the source sent it.
  virtual void delivered(std::uint16_t /*flow_id*/, sim::Time /*delay*/) {}

 protected:
  ~TransportListener() = default;
};

}  // namespace mts::tcp
