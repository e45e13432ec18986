#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/packet.hpp"

/// Wire-format codec (v1): the byte-level contract for every header the
/// network layer can put on the air.
///
/// The codec is the single source of truth for what crosses the air:
/// each header's layout is written once (`wire.cpp`), and the encoder,
/// the decoder and the size law `routing_wire_size` (declared in
/// `headers.hpp`, so `Packet::wire_bytes` and with it every airtime and
/// overhead number can reach it) are all walks of that one layout, so
/// they cannot disagree.
///
/// Layout conventions (see docs/architecture/wire-format.md for the full
/// byte maps):
///  - Big-endian (network order) multi-byte fields.
///  - The common header is 20 bytes, IPv4-sized; byte 0 packs the wire
///    version in the high nibble and the packet kind in the low nibble.
///  - Control headers are discriminated by the packet kind; data-plane
///    options (source route, MTS data tag, MTS probe, TCP) carry a
///    one-byte tag because a data packet's kind does not determine them.
///  - Route list lengths are derived from the section length, the way
///    DSR options work, so a route costs exactly 4 bytes per address on
///    the wire; an AODV RERR counts its entries in a u8 that must agree
///    with the section length.
///  - Some fields are not re-encoded because the common header already
///    carries them (e.g. a DSR RREQ's originator IS the packet source);
///    `encode_headers` requires those invariants and `decode_packet`
///    reconstitutes the struct fields from the common header.
///
/// Round-trip contract: for every packet the simulator can emit,
/// `decode(encode(p))` reproduces the headers exactly — except
/// `CommonHeader::originated`, which travels as 32-bit microseconds
/// (documented lossy; the delay metrics never read decoded values) — and
/// `encode(decode(buf))` is byte-identical to `buf` for every buffer
/// `decode` accepts (decode rejects nonzero padding, bad versions,
/// truncation, and length/count mismatches rather than guessing).
namespace mts::net::wire {

/// Bumped on any layout change; decoders reject other versions.  A
/// future v2 may add per-version decode branches.
inline constexpr std::uint8_t kWireVersion = 1;

/// Option tags in a data packet's option section.  kTagTcp also fronts
/// the TCP header so the transport section is self-describing.
inline constexpr std::uint8_t kTagSourceRoute = 0x01;
inline constexpr std::uint8_t kTagMtsData = 0x02;
inline constexpr std::uint8_t kTagMtsProbe = 0x03;
inline constexpr std::uint8_t kTagTcp = 0x10;

/// Appends the wire encoding of all headers (common + TCP option +
/// routing option, no payload) to `out`.  `hop` supplies the per-hop
/// fields (TTL, hop count, route cursor) that live in the packet
/// handle's `HopState` cell rather than the header structs; the default
/// cell encodes a freshly originated packet.
void encode_headers(const CommonHeader& common, const TcpHeader* tcp,
                    const RoutingHeader& routing,
                    std::vector<std::uint8_t>& out,
                    const HopState& hop = HopState{});

/// Convenience overload over a live packet handle.
void encode_headers(const Packet& p, std::vector<std::uint8_t>& out);

/// Appends the full wire image: headers followed by
/// `common.payload_bytes` of payload.  `payload` supplies up to
/// `payload_len` leading bytes; the remainder is zero-filled (the
/// simulator models payload existence, not application content — the
/// secrecy plane is the one caller that materializes real bytes).
void encode_packet(const Packet& p, std::vector<std::uint8_t>& out,
                   const std::uint8_t* payload = nullptr,
                   std::size_t payload_len = 0);

/// A decoded wire image.  `payload_offset` locates the payload region
/// inside the original buffer (the codec does not copy payload bytes).
struct DecodedPacket {
  CommonHeader common;
  std::optional<TcpHeader> tcp;
  RoutingHeader routing;
  /// Per-hop fields decoded off the wire (TTL byte, hop-count and
  /// cursor fields of the routing section).
  HopState hop;
  std::size_t payload_offset = 0;
  std::uint32_t payload_bytes = 0;
};

/// Decodes a full wire image; `std::nullopt` on any malformed input
/// (truncated, bad version, unknown kind/tag, length or count mismatch,
/// nonzero padding).  Never throws on untrusted bytes.
[[nodiscard]] std::optional<DecodedPacket> decode_packet(
    const std::uint8_t* data, std::size_t len);

[[nodiscard]] std::optional<DecodedPacket> decode_packet(
    const std::vector<std::uint8_t>& buf);

}  // namespace mts::net::wire
