#pragma once

#include <cstdint>
#include <variant>

#include "net/small_vec.hpp"
#include "net/node_id.hpp"
#include "sim/time.hpp"

namespace mts::net {

/// Route record for headers: node lists are bounded by the network
/// diameter, and eight inline slots cover the common path length, so
/// copying (or CoW-cloning) a routing header rarely touches the heap.
using RouteVec = SmallVec<NodeId, 8>;

/// Discriminates every packet the network layer can carry.  The kind is
/// redundant with the header variant for control packets but lets hot
/// paths (queue priority, overhead counters) switch without visiting the
/// variant.
enum class PacketKind : std::uint8_t {
  kTcpData,
  kTcpAck,
  // AODV control
  kAodvRreq,
  kAodvRrep,
  kAodvRerr,
  // DSR control
  kDsrRreq,
  kDsrRrep,
  kDsrRerr,
  // MTS control
  kMtsRreq,
  kMtsRrep,
  kMtsCheck,
  kMtsCheckError,
  kMtsRerr,
};

/// True for routing-protocol control packets (the paper's "control
/// overhead" metric counts transmissions of exactly these).
constexpr bool is_routing_control(PacketKind k) {
  switch (k) {
    case PacketKind::kTcpData:
    case PacketKind::kTcpAck:
      return false;
    default:
      return true;
  }
}

constexpr bool is_transport(PacketKind k) {
  return k == PacketKind::kTcpData || k == PacketKind::kTcpAck;
}

const char* packet_kind_name(PacketKind k);

// ---------------------------------------------------------------------------
// Network-layer common header (IP-ish).
// ---------------------------------------------------------------------------

struct CommonHeader {
  PacketKind kind = PacketKind::kTcpData;
  NodeId src = kNoNode;          ///< originator (end-to-end)
  NodeId dst = kNoNode;          ///< final destination (end-to-end)
  std::uint32_t uid = 0;         ///< unique per simulation, for tracing
  std::uint32_t payload_bytes = 0;  ///< application payload (0 for control)
  sim::Time originated;          ///< end-to-end delay measurement
};

/// The per-hop mutable cell of a packet: every field a forwarding hop
/// rewrites lives here, *outside* the shared CoW body, carried by value
/// in the 16-byte `Packet` handle (it fits the handle's padding).  A
/// TTL decrement or cursor advance therefore mutates only the
/// forwarder's own handle — sibling handles (retry buffers, in-flight
/// receptions, trace records) keep their own copies, exactly the
/// isolation CoW used to buy with a full body clone.
///
/// Field roles per packet kind (at most one count and one cursor each):
///  - `ttl`: all kinds (decremented per network-layer hop)
///  - `hops`: AODV RREQ/RREP hop_count, MTS RREQ hop_count
///  - `cursor`: DSR RREP/RERR hops_done, DSR source-route index,
///    MTS RREP/check/check-error hops_done
struct HopState {
  std::uint8_t ttl = 32;     ///< decremented per network-layer hop
  std::uint8_t hops = 0;     ///< hops accumulated since the originator
  std::uint16_t cursor = 0;  ///< position along a carried route list
  friend bool operator==(const HopState&, const HopState&) = default;
};

/// On-wire size of the common header, matching IPv4's 20 bytes so that
/// airtime accounting is comparable to ns-2.
inline constexpr std::uint32_t kCommonHeaderBytes = 20;

// ---------------------------------------------------------------------------
// TCP (one-way data + cumulative ACK, as in ns-2's Agent/TCP).
// ---------------------------------------------------------------------------

struct TcpHeader {
  std::uint32_t seq = 0;   ///< data: segment sequence number (in segments)
  std::uint32_t ack = 0;   ///< ack: cumulative — next expected segment
  std::uint16_t flow_id = 0;
  sim::Time ts;            ///< data: send timestamp; ack: echoed timestamp
  bool retransmit = false; ///< data: Karn — echoed back, suppresses RTT sample
};

inline constexpr std::uint32_t kTcpHeaderBytes = 20;

// ---------------------------------------------------------------------------
// AODV (RFC 3561 subset, ns-2 flavoured).
// ---------------------------------------------------------------------------

/// Per-hop hop_count travels in `HopState::hops`, not in the header.
struct AodvRreqHeader {
  std::uint32_t rreq_id = 0;    ///< (orig, rreq_id) dedups the flood
  NodeId orig = kNoNode;
  NodeId dst = kNoNode;
  std::uint32_t orig_seq = 0;
  std::uint32_t dst_seq = 0;    ///< last known; 0 when unknown
  bool dst_seq_known = false;
};

/// Per-hop hop_count travels in `HopState::hops`, not in the header.
struct AodvRrepHeader {
  NodeId orig = kNoNode;        ///< RREQ originator (RREP travels to it)
  NodeId dst = kNoNode;         ///< route destination
  std::uint32_t dst_seq = 0;
  sim::Time lifetime;           ///< route validity advertised by the dest
};

struct AodvRerrHeader {
  struct Unreachable {
    NodeId dst = kNoNode;
    std::uint32_t seq = 0;
    friend bool operator==(const Unreachable&, const Unreachable&) = default;
  };
  /// One RERR rarely names more than a handful of destinations.
  using List = SmallVec<Unreachable, 4>;
  List unreachable;
};

// ---------------------------------------------------------------------------
// DSR (route record / source route).
// ---------------------------------------------------------------------------

struct DsrRreqHeader {
  std::uint32_t rreq_id = 0;
  NodeId orig = kNoNode;
  NodeId target = kNoNode;
  RouteVec record;     ///< nodes traversed so far (excl. orig)
};

/// The target->orig forwarding cursor (hops_done) travels in
/// `HopState::cursor`.
struct DsrRrepHeader {
  NodeId orig = kNoNode;        ///< requester
  NodeId target = kNoNode;
  RouteVec route;       ///< full path orig..target inclusive
};

/// The forwarding cursor (hops_done) travels in `HopState::cursor`.
struct DsrRerrHeader {
  NodeId notify = kNoNode;      ///< source being informed
  NodeId from = kNoNode;        ///< broken link tail
  NodeId to = kNoNode;          ///< broken link head
  RouteVec back_path;  ///< route from reporter to `notify`
};

/// Source-route option attached to DSR *data* packets.  The position of
/// the current hop in `route` (the per-hop index) travels in
/// `HopState::cursor`; `salvaged` stays here because salvaging replaces
/// the whole route (a true divergent edit that CoWs the body anyway).
struct DsrSourceRoute {
  RouteVec route;       ///< full path src..dst inclusive
  bool salvaged = false;        ///< set when an intermediate re-routed it
};

// ---------------------------------------------------------------------------
// MTS (the paper's protocol).
// ---------------------------------------------------------------------------

/// §III-B: packet type, source address, destination address, broadcast
/// ID, hop count from the source, and list of intermediate nodes.  The
/// per-hop hop count travels in `HopState::hops`.
struct MtsRreqHeader {
  std::uint32_t bcast_id = 0;
  NodeId orig = kNoNode;
  NodeId dst = kNoNode;
  RouteVec nodes;       ///< intermediate nodes traversed (excl. endpoints)
};

/// §III-B: packet type, source address, destination address, route reply
/// ID, hop count, and list of intermediate nodes.  `hop_count` here is
/// the *total* path length, stamped once at the destination and never
/// rewritten per hop; the forwarding cursor (hops_done) travels in
/// `HopState::cursor`.
struct MtsRrepHeader {
  std::uint32_t rrep_id = 0;
  NodeId orig = kNoNode;        ///< RREQ originator (the TCP source)
  NodeId dst = kNoNode;         ///< destination that generated this RREP
  std::uint8_t hop_count = 0;   ///< total path length (origin-stamped)
  RouteVec nodes;       ///< intermediate nodes of the replied path
};

/// §III-D: packet type, checking packet ID, hop count, and list of
/// intermediate nodes.  Travels destination -> source along one stored
/// disjoint path, refreshing per-hop forward state as it goes.  As with
/// the RREP, `hop_count` is origin-stamped; the forwarding cursor
/// (hops_done) travels in `HopState::cursor`.
struct MtsCheckHeader {
  std::uint32_t check_id = 0;   ///< round number; bumps once per period
  std::uint16_t path_id = 0;    ///< which stored disjoint path
  NodeId checker = kNoNode;     ///< the destination (sender of checks)
  NodeId source = kNoNode;      ///< the TCP source (receiver of checks)
  std::uint8_t hop_count = 0;   ///< total path length (origin-stamped)
  RouteVec nodes;       ///< intermediate nodes, source-side first
};

/// §III-D: "a checking error packet is sent to the destination"; the
/// destination deletes the failed path.  The cursor while travelling
/// back to the checker (hops_done) travels in `HopState::cursor`.
struct MtsCheckErrorHeader {
  std::uint16_t path_id = 0;
  NodeId checker = kNoNode;     ///< destination to inform
  NodeId flow_source = kNoNode; ///< identifies which path set at the checker
  NodeId reporter = kNoNode;    ///< node that observed the failure
  NodeId broken_from = kNoNode;
  NodeId broken_to = kNoNode;
  RouteVec nodes;       ///< the failed path (source-side first)
};

/// §III-E: RERR relayed upstream until it reaches the source, which then
/// triggers a new route discovery.
struct MtsRerrHeader {
  NodeId source = kNoNode;      ///< TCP source being informed
  NodeId dst = kNoNode;         ///< unreachable destination
  std::uint16_t path_id = 0;
  NodeId broken_from = kNoNode;
  NodeId broken_to = kNoNode;
};

/// Tag attached to MTS *data* packets: forwarding state at intermediate
/// nodes is per (destination, path), installed/refreshed by check
/// packets and the initial RREP.
struct MtsDataTag {
  std::uint16_t path_id = 0;
};

/// End-to-end acked-checking probe (countermeasure subsystem).  Rides
/// the *data plane*: the packet kind is kTcpData, so an insider veto
/// keyed on kind (blackhole/grayhole) eats probes exactly like the
/// stream they guard — unlike MTS's native check packets, which are
/// control traffic the attacker forwards faithfully.  The source sends
/// one per stored path per probe period; the destination turns it
/// around with `echo` set, routed back on the same path's reverse
/// state.
struct MtsProbeHeader {
  std::uint16_t path_id = 0;
  std::uint32_t probe_id = 0;  ///< per-source sequence, for tracing
  bool echo = false;           ///< false: source -> dst; true: the ack
};

// ---------------------------------------------------------------------------
// The routing header slot.
// ---------------------------------------------------------------------------

using RoutingHeader =
    std::variant<std::monostate, AodvRreqHeader, AodvRrepHeader, AodvRerrHeader,
                 DsrRreqHeader, DsrRrepHeader, DsrRerrHeader, DsrSourceRoute,
                 MtsRreqHeader, MtsRrepHeader, MtsCheckHeader,
                 MtsCheckErrorHeader, MtsRerrHeader, MtsDataTag,
                 MtsProbeHeader>;

namespace wire {

/// On-wire size of a routing header/option in bytes: the wire codec's
/// size law (`net/wire.cpp` derives it from the same layout as the
/// encoder and the decoder), and so every MAC frame's airtime.  Sizes
/// follow the respective drafts: fixed part + 4 bytes per address.
[[nodiscard]] std::uint32_t routing_wire_size(const RoutingHeader& h);

}  // namespace wire

}  // namespace mts::net
