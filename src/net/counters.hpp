#pragma once

#include <array>
#include <cstdint>

namespace mts::net {

/// Why a packet died.  Kept simulator-wide so studies can attribute loss.
enum class DropReason : std::uint8_t {
  kQueueFull = 0,      ///< interface queue overflow
  kNoRoute,            ///< routing had no path and could not buffer
  kMacRetryExceeded,   ///< unicast failed after the MAC retry limit
  kTtlExpired,         ///< network-layer loop guard
  kCollision,          ///< PHY reception corrupted by overlap
  kSendBufferTimeout,  ///< waited too long for a route
  kSendBufferFull,     ///< route-pending buffer overflow
  kStaleRoute,         ///< forwarding state missing/expired mid-path
  kDuplicate,          ///< flood duplicate, intentionally ignored
  kAdversary,          ///< absorbed by an insider attacker (blackhole)
  kRateLimited,        ///< suppressed by the flood-rate-limit defense
  kCount
};

const char* drop_reason_name(DropReason r);

/// Per-node packet accounting.  Incremented on the hot path; aggregation
/// happens off-line, so plain integers (no atomics — one simulator is
/// single-threaded by construction).
struct Counters {
  std::uint64_t sent_data = 0;        ///< transport packets originated here
  std::uint64_t recv_data = 0;        ///< transport packets delivered here
  std::uint64_t forwarded_data = 0;   ///< TCP *data* packets relayed (β_i)
  std::uint64_t forwarded_ack = 0;    ///< TCP ACK packets relayed
  std::uint64_t sent_control = 0;     ///< routing packets originated here
  std::uint64_t forwarded_control = 0;
  std::uint64_t mac_retries = 0;     ///< unicast retransmission attempts
  std::array<std::uint64_t, static_cast<std::size_t>(DropReason::kCount)>
      drops{};

  void drop(DropReason r) { ++drops[static_cast<std::size_t>(r)]; }
  [[nodiscard]] std::uint64_t drops_total() const {
    std::uint64_t s = 0;
    for (auto d : drops) s += d;
    return s;
  }
  [[nodiscard]] std::uint64_t dropped(DropReason r) const {
    return drops[static_cast<std::size_t>(r)];
  }
  /// Control packets transmitted (originated + relayed): the unit of the
  /// paper's Fig. 11 "control overhead: the total routing packets".
  [[nodiscard]] std::uint64_t control_transmissions() const {
    return sent_control + forwarded_control;
  }
};

}  // namespace mts::net
