#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "net/headers.hpp"
#include "net/node_id.hpp"
#include "sim/error.hpp"

namespace mts::net {

/// The heap-side contents of a packet: common header + optional TCP
/// header + at most one routing header/option, plus the intrusive
/// bookkeeping of the body pool (refcount, generation, free link).
///
/// Bodies are immutable through shared `Packet` handles: every mutation
/// goes through a `mutable_*` accessor that clones the body first when
/// other handles still reference it (copy-on-write).
struct PacketBody {
  CommonHeader common;
  std::optional<TcpHeader> tcp;
  RoutingHeader routing;  // std::monostate when absent

  /// Materialized wire payload (the secrecy plane's key shares + masked
  /// fragment bytes), cached on the body so every tap of the same frame
  /// reads the same bytes without re-deriving them.  Null when nothing
  /// materialized one (the default — the simulator models payload
  /// existence, not content).  This is a cache of a deterministic
  /// function of the headers: copying a handle shares it, any mutation
  /// (own/clone) drops it.
  std::shared_ptr<const std::vector<std::uint8_t>> wire_payload;

  std::uint32_t refcount = 0;
  /// Bumped every time the body returns to the pool; live handles carry
  /// the generation they bound to, so a use-after-release trips a
  /// deterministic check instead of reading a recycled packet.
  std::uint32_t generation = 0;
  PacketBody* next_free = nullptr;
};

/// Allocation stats of the thread-local body pool (tests, benches, and
/// the zero-clone assertions of the packet-plane integration tests).
struct PacketPoolStats {
  std::uint64_t acquired = 0;   ///< fresh bodies handed out (incl. clones)
  std::uint64_t released = 0;   ///< bodies returned on last handle release
  std::uint64_t cow_clones = 0; ///< deep copies forced by mutating a shared body
  std::uint64_t slots = 0;      ///< bodies ever carved from chunk storage
  /// Per-hop mutable cells grabbed via `Packet::mutable_hop()` — the
  /// mutations that used to force a CoW clone on forwarding hops.
  std::uint64_t cell_acquired = 0;
  /// Reads of an already-materialized wire-payload cache; with the
  /// hop-split layout the cache survives multi-hop forwarding, so taps
  /// along a chain hit instead of re-deriving.
  std::uint64_t wire_cache_hits = 0;
  [[nodiscard]] std::uint64_t live() const { return acquired - released; }
};

/// Snapshot of the calling thread's pool counters.
PacketPoolStats packet_pool_stats();

namespace detail {
/// Counter hooks into the thread-local pool stats, for the handle's
/// inline accessors (the pool type itself is private to packet.cpp).
void note_cell_acquired();
void note_wire_cache_hit();
}  // namespace detail

/// A network-layer packet: a cheap handle onto a pooled, intrusively
/// refcounted `PacketBody`, plus the packet's per-hop mutable cell
/// (`HopState`) carried *in the handle itself* — the 4 bytes of TTL /
/// hop count / route cursor ride in what used to be handle padding, so
/// sizeof(Packet) stays 16.
///
/// Copying a Packet is a refcount bump plus a 4-byte cell copy —
/// broadcast fan-out to k receivers, interface-queue inserts, MAC retry
/// buffers, in-flight channel records, and trace records all share one
/// body while each carries its own hop cell.  Reads go through the
/// const accessors; body writes go through the `mutable_*` accessors,
/// which clone the body first iff other handles still reference it.
/// Per-hop writes go through `mutable_hop()` and never touch the body:
/// a forwarding hop that only decrements TTL or advances a cursor
/// copies nothing, and the cached wire-payload image survives the hop.
/// Cell semantics are exactly CoW-observable: a mutation is never seen
/// by pre-existing sibling handles, and later copies carry it forward.
///
/// The body pool is thread-local: a packet must be created, used, and
/// released on one thread.  The harness runs each scenario on a single
/// thread, so this costs nothing and needs no atomics.
class Packet {
 public:
  Packet() = default;  ///< empty handle; a body is acquired on first write

  Packet(const Packet& other)
      : body_(other.body_), gen_(other.gen_), hop_(other.hop_) {
    if (body_ != nullptr) ++body_->refcount;
  }

  Packet(Packet&& other) noexcept
      : body_(other.body_), gen_(other.gen_), hop_(other.hop_) {
    other.body_ = nullptr;
  }

  Packet& operator=(const Packet& other) {
    if (this != &other) {
      reset();
      body_ = other.body_;
      gen_ = other.gen_;
      hop_ = other.hop_;
      if (body_ != nullptr) ++body_->refcount;
    }
    return *this;
  }

  Packet& operator=(Packet&& other) noexcept {
    if (this != &other) {
      reset();
      body_ = other.body_;
      gen_ = other.gen_;
      hop_ = other.hop_;
      other.body_ = nullptr;
    }
    return *this;
  }

  ~Packet() { reset(); }

  /// Drops this handle's reference; the body returns to the pool when
  /// the last handle lets go.
  void reset();

  [[nodiscard]] bool has_body() const { return body_ != nullptr; }

  // --- read access (shared body, never copies) -------------------------
  [[nodiscard]] const CommonHeader& common() const {
    return checked().common;
  }
  [[nodiscard]] bool has_tcp() const {
    return body_ != nullptr && checked().tcp.has_value();
  }
  [[nodiscard]] const TcpHeader& tcp() const { return *checked().tcp; }
  [[nodiscard]] const RoutingHeader& routing() const {
    return checked().routing;
  }

  /// Typed routing-header access: `header<DsrRreqHeader>()` instead of
  /// `std::get<DsrRreqHeader>(p.routing())` at every call site.  Trips a
  /// deterministic check (not std::bad_variant_access) on a kind
  /// mismatch.
  template <typename T>
  [[nodiscard]] const T& header() const {
    const T* h = std::get_if<T>(&checked().routing);
    sim::require(h != nullptr, "Packet: routing header kind mismatch");
    return *h;
  }
  /// Typed access that answers "is it carrying one?" and "give it to me"
  /// in one call; nullptr when the slot holds something else (or the
  /// handle is empty).
  template <typename T>
  [[nodiscard]] const T* header_if() const {
    return body_ == nullptr ? nullptr : std::get_if<T>(&checked().routing);
  }

  // --- per-hop mutable cell (lives in the handle, not the body) ---------
  /// The hop cell this handle carries: TTL, hop count, route cursor.
  [[nodiscard]] const HopState& hop() const { return hop_; }
  /// Mutable grab of the hop cell.  Never clones, never invalidates the
  /// wire-payload cache (the cached payload bytes are hop-invariant);
  /// counted in `PacketPoolStats::cell_acquired`.
  [[nodiscard]] HopState& mutable_hop() {
    detail::note_cell_acquired();
    return hop_;
  }

  // --- write access (copy-on-write) ------------------------------------
  [[nodiscard]] CommonHeader& mutable_common() { return own().common; }
  /// Creates the TCP header if absent.
  [[nodiscard]] TcpHeader& mutable_tcp() {
    PacketBody& b = own();
    if (!b.tcp.has_value()) b.tcp.emplace();
    return *b.tcp;
  }
  [[nodiscard]] RoutingHeader& mutable_routing() { return own().routing; }

  /// CoW-aware typed mutation: clones a shared body first, then hands
  /// out the routing header, requiring the kind to match.
  template <typename T>
  [[nodiscard]] T& mutable_header() {
    T* h = std::get_if<T>(&own().routing);
    sim::require(h != nullptr, "Packet: routing header kind mismatch");
    return *h;
  }

  // --- materialized wire payload (secrecy plane) ------------------------
  /// The cached wire-payload image; null when none was materialized.
  /// Populated reads are counted in `PacketPoolStats::wire_cache_hits`
  /// — the taps a multi-hop forward chain no longer forces to re-derive.
  [[nodiscard]] const std::shared_ptr<const std::vector<std::uint8_t>>&
  wire_payload() const {
    const PacketBody& b = checked();
    if (b.wire_payload != nullptr) detail::note_wire_cache_hit();
    return b.wire_payload;
  }
  /// Stamps the cache through a shared body without CoW: the image is a
  /// pure function of the headers, so all handles agree on it — this is
  /// logically const and does not count as a mutation.
  void cache_wire_payload(
      std::shared_ptr<const std::vector<std::uint8_t>> bytes) const {
    const_cast<PacketBody&>(checked()).wire_payload = std::move(bytes);
  }

  /// Total on-wire bytes above the MAC layer (headers + payload); this is
  /// what the MAC serializes at the PHY rate.
  [[nodiscard]] std::uint32_t wire_bytes() const {
    const PacketBody& b = checked();
    std::uint32_t n = kCommonHeaderBytes + b.common.payload_bytes;
    if (b.tcp.has_value()) n += kTcpHeaderBytes;
    n += wire::routing_wire_size(b.routing);
    return n;
  }

  [[nodiscard]] PacketKind kind() const { return checked().common.kind; }
  [[nodiscard]] bool is_control() const {
    return is_routing_control(kind());
  }

  /// One-line rendering for traces and test diagnostics.
  [[nodiscard]] std::string summary() const;

  // --- introspection (tests) -------------------------------------------
  [[nodiscard]] std::uint32_t ref_count() const {
    return body_ == nullptr ? 0 : checked().refcount;
  }
  [[nodiscard]] bool unique() const { return ref_count() == 1; }

 private:
  [[nodiscard]] const PacketBody& checked() const {
    sim::require(body_ != nullptr, "Packet: read through an empty handle");
    sim::require(body_->generation == gen_,
                 "Packet: stale handle (body was recycled)");
    return *body_;
  }
  /// Returns a body this handle exclusively owns: acquires a fresh one
  /// when empty, clones first when shared.
  PacketBody& own();

  PacketBody* body_ = nullptr;
  std::uint32_t gen_ = 0;
  /// Per-hop mutable cell; occupies the handle's former padding.
  HopState hop_;
};

static_assert(sizeof(Packet) == 16,
              "Packet handle grew past 16 bytes: the HopState cell must "
              "fit the former padding after gen_");

/// Allocates unique packet ids within one simulation.
class UidSource {
 public:
  std::uint32_t next() { return ++last_; }
  [[nodiscard]] std::uint32_t issued() const { return last_; }

 private:
  std::uint32_t last_ = 0;
};

}  // namespace mts::net
