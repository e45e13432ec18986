#pragma once

#include <cstdint>

#include "net/node_id.hpp"
#include "net/packet.hpp"
#include "sim/time.hpp"

namespace mts::phy {

/// MAC frame types.  RTS/CTS exist for the optional virtual-carrier-sense
/// ablation; the paper-default configuration uses basic access.
enum class FrameType : std::uint8_t { kData, kAck, kRts, kCts };

/// The unit a node transmits: a MAC frame, possibly wrapping a
/// network-layer packet.  Copying a Frame copies a few plain fields and
/// bumps the payload body's refcount — broadcast fan-out to k receivers
/// shares one packet body instead of deep-copying it k times.
struct Frame {
  FrameType type = FrameType::kData;
  net::NodeId transmitter = net::kNoNode;
  net::NodeId receiver = net::kBroadcastId;
  std::uint32_t bytes = 0;      ///< full frame size incl. MAC header + FCS
  std::uint16_t seq = 0;        ///< MAC sequence (duplicate detection)
  bool retry = false;
  sim::Time nav;                ///< medium reservation beyond frame end
  net::Packet payload;          ///< shared handle; empty for ACK/RTS/CTS

  [[nodiscard]] bool has_payload() const { return payload.has_body(); }
  [[nodiscard]] bool is_broadcast() const {
    return receiver == net::kBroadcastId;
  }
};

}  // namespace mts::phy
