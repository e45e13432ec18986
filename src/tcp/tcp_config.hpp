#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace mts::tcp {

/// Congestion-control variant.  The paper uses Reno; Tahoe and NewReno
/// are the alternatives.
enum class TcpVariant : std::uint8_t { kTahoe, kReno, kNewReno };

const char* tcp_variant_name(TcpVariant v);

/// One-way TCP (ns-2 `Agent/TCP` style): data flows source -> sink,
/// cumulative ACKs flow back.  Sequence numbers count *segments*, as in
/// ns-2, which keeps the arithmetic transparent in traces and tests.
struct TcpConfig {
  std::uint32_t segment_bytes = 1000;  ///< ns-2 packetSize_ default
  std::uint32_t max_window = 32;       ///< cap on cwnd (segments)
  TcpVariant variant = TcpVariant::kReno;
  std::uint32_t dupack_threshold = 3;
  sim::Time initial_rto = sim::Time::sec(3);
  sim::Time min_rto = sim::Time::sec(1);   ///< RFC 6298 floor
  sim::Time max_rto = sim::Time::sec(64);
  double rtt_alpha = 0.125;  ///< srtt gain  (RFC 6298)
  double rtt_beta = 0.25;    ///< rttvar gain
  /// Record (time, cwnd) samples for diagnostics.
  bool trace_cwnd = false;
};

}  // namespace mts::tcp
