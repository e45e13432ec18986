#include "net/wire.hpp"

#include <algorithm>
#include <type_traits>

#include "sim/error.hpp"

namespace mts::net::wire {

namespace {

// ---------------------------------------------------------------------------
// Walkers.  Every header's layout is written once, as a `layout(io, ...)`
// function template that names its fields in wire order; three walkers
// give the field operations their meaning:
//  - `Writer` appends big-endian bytes and `require`s the encoder's
//    invariants (a violation is a simulator bug, not wire noise);
//  - `Reader` fills the fields from untrusted bytes and latches failure;
//  - `Sizer` counts bytes: the size law.
// So the encoder, the decoder and the size law cannot disagree.
// ---------------------------------------------------------------------------

/// How a layout sees a header: writable for the Reader, read-only for
/// the Writer and the Sizer.
template <class IO, class T>
using Ref = std::conditional_t<IO::kFills, T&, const T&>;

class Writer {
 public:
  static constexpr bool kFills = false;

  Writer(std::vector<std::uint8_t>& out, const CommonHeader& c)
      : out_(out), c_(c) {}

  void u8(std::uint8_t v) { be(v, 1); }
  void u16(std::uint16_t v) { be(v, 2); }
  void u32(std::uint32_t v) { be(v, 4); }
  void pad(std::size_t n) { out_.insert(out_.end(), n, 0); }
  void flag(bool v) { u8(v ? 1 : 0); }
  void tag(std::uint8_t t) { u8(t); }
  void route(const RouteVec& r) {
    for (NodeId n : r) u32(n);
  }

  /// The routing header must belong to the packet kind.
  void kind(PacketKind k) const {
    sim::require(c_.kind == k,
                 "wire: routing header does not match the packet kind");
  }
  void data_plane() const {
    sim::require(is_transport(c_.kind),
                 "wire: data-plane option on a control packet");
  }
  /// A field the common header implies is not sent; it must agree.
  void from_src(NodeId v, const char* what) const {
    sim::require(v == c_.src, what);
  }
  void from_dst(NodeId v, const char* what) const {
    sim::require(v == c_.dst, what);
  }
  /// A route whose ends are two header fields: only the route is sent.
  void ends(const RouteVec& r, NodeId front, NodeId back, const char* what) {
    sim::require(r.size() >= 2 && r.front() == front && r.back() == back,
                 what);
    route(r);
  }
  /// A u8 count of the entries that follow.
  template <class List>
  void count8(const List& l, const char* what) {
    sim::require(l.size() <= 0xff, what);
    u8(static_cast<std::uint8_t>(l.size()));
  }
  void ns48(sim::Time t, const char* what) {
    const std::int64_t ns = t.nanoseconds();
    sim::require(ns >= 0 && ns < (std::int64_t{1} << 48), what);
    be(static_cast<std::uint64_t>(ns), 6);
  }
  void ns64(sim::Time t) { be(static_cast<std::uint64_t>(t.nanoseconds()), 8); }

  // Common-header fields.
  void version_kind(PacketKind k) {
    const auto kind = static_cast<std::uint32_t>(k);
    sim::require(kind <= 0x0f, "wire: packet kind exceeds the v1 kind nibble");
    u8(static_cast<std::uint8_t>((std::uint32_t{kWireVersion} << 4) | kind));
  }
  void len16(std::uint32_t v) {
    sim::require(v <= 0xffff, "wire: payload_bytes exceeds the u16 wire field");
    u16(static_cast<std::uint16_t>(v));
  }
  /// Lossy: sub-microsecond digits are dropped.
  void us32(sim::Time t) {
    const std::int64_t us = t.nanoseconds() / 1000;
    sim::require(us >= 0 && us <= 0xffffffffLL,
                 "wire: originated outside the u32-microsecond wire range");
    u32(static_cast<std::uint32_t>(us));
  }

  [[nodiscard]] std::size_t size() const { return out_.size(); }

 private:
  /// The low `n` bytes of `v`, most significant first.
  void be(std::uint64_t v, int n) {
    while (n-- > 0) out_.push_back(static_cast<std::uint8_t>(v >> (8 * n)));
  }

  std::vector<std::uint8_t>& out_;
  const CommonHeader& c_;
};

/// Reads one section of a wire image.  Reading past the section end, a
/// nonzero pad byte or an undefined flag bit latches failure (the field
/// reads as zero); `done()` then also asks that the walk ended exactly
/// at the section end.  Nothing here throws on untrusted bytes.
class Reader {
 public:
  static constexpr bool kFills = true;

  Reader(const std::uint8_t* d, std::size_t n, const CommonHeader& c)
      : d_(d), n_(n), c_(c) {}

  void u8(std::uint8_t& v) { v = static_cast<std::uint8_t>(be(1)); }
  void u16(std::uint16_t& v) { v = static_cast<std::uint16_t>(be(2)); }
  void u32(std::uint32_t& v) { v = static_cast<std::uint32_t>(be(4)); }
  /// Padding must be zero, or encode(decode(buf)) would differ from buf.
  void pad(std::size_t n) {
    for (; n > 0; --n) {
      if (be(1) != 0) ok_ = false;
    }
  }
  /// A one-byte flag: any bit but bit 0 is corruption.
  void flag(bool& v) {
    const std::uint64_t b = be(1);
    if (b > 1) ok_ = false;
    v = b == 1;
  }
  void tag(std::uint8_t t) {
    if (be(1) != t) ok_ = false;
  }
  /// A trailing route list fills the rest of the section, 4 bytes per
  /// address: its length is the section's, DSR-option style.
  void route(RouteVec& r) {
    if ((n_ - off_) % 4 != 0) {
      ok_ = false;
      return;
    }
    r.resize((n_ - off_) / 4);
    for (NodeId& n : r) u32(n);
  }

  void kind(PacketKind) const {}  // the packet kind chose this layout
  void data_plane() const {}
  void from_src(NodeId& v, const char*) const { v = c_.src; }
  void from_dst(NodeId& v, const char*) const { v = c_.dst; }
  void ends(RouteVec& r, NodeId& front, NodeId& back, const char*) {
    route(r);
    if (r.size() < 2) {
      ok_ = false;
      return;
    }
    front = r.front();
    back = r.back();
  }
  template <class List>
  void count8(List& l, const char*) {
    l.resize(be(1));
  }
  void ns48(sim::Time& t, const char*) {
    t = sim::Time::ns(static_cast<std::int64_t>(be(6)));
  }
  void ns64(sim::Time& t) {
    t = sim::Time::ns(static_cast<std::int64_t>(be(8)));
  }

  void version_kind(PacketKind& k) {
    const std::uint64_t b = be(1);
    if ((b >> 4) != kWireVersion ||
        (b & 0x0f) > static_cast<std::uint64_t>(PacketKind::kMtsRerr)) {
      ok_ = false;
    }
    k = static_cast<PacketKind>(b & 0x0f);
  }
  void len16(std::uint32_t& v) { v = static_cast<std::uint32_t>(be(2)); }
  void us32(sim::Time& t) { t = sim::Time::us(static_cast<std::int64_t>(be(4))); }

  /// The next byte, or 0 at the section end (no tag is 0).
  [[nodiscard]] std::uint8_t peek() const { return off_ < n_ ? d_[off_] : 0; }
  [[nodiscard]] bool at_end() const { return off_ == n_; }
  [[nodiscard]] bool done() const { return ok_ && off_ == n_; }

 private:
  /// The next `n` bytes as a big-endian number; 0 past the section end.
  std::uint64_t be(int n) {
    std::uint64_t v = 0;
    for (; n > 0; --n) {
      if (off_ == n_) {
        ok_ = false;
        return 0;
      }
      v = (v << 8) | d_[off_++];
    }
    return v;
  }

  const std::uint8_t* d_;
  std::size_t n_;
  const CommonHeader& c_;
  std::size_t off_ = 0;
  bool ok_ = true;
};

struct Sizer {
  static constexpr bool kFills = false;
  std::uint32_t n = 0;

  void u8(std::uint8_t) { n += 1; }
  void u16(std::uint16_t) { n += 2; }
  void u32(std::uint32_t) { n += 4; }
  void pad(std::size_t k) { n += static_cast<std::uint32_t>(k); }
  void flag(bool) { n += 1; }
  void tag(std::uint8_t) { n += 1; }
  void route(const RouteVec& r) { n += 4 * static_cast<std::uint32_t>(r.size()); }
  void kind(PacketKind) const {}
  void data_plane() const {}
  void from_src(NodeId, const char*) const {}
  void from_dst(NodeId, const char*) const {}
  void ends(const RouteVec& r, NodeId, NodeId, const char*) { route(r); }
  template <class List>
  void count8(const List&, const char*) {
    n += 1;
  }
  void ns48(sim::Time, const char*) { n += 6; }
};

// ---------------------------------------------------------------------------
// Layouts, in wire order.  Per-hop fields (TTL, hop counts, route
// cursors) live in the packet handle's `HopState` cell, not the header
// structs; the layout says where each travels.
// ---------------------------------------------------------------------------

/// The 20-byte common header (IPv4-sized).
template <class IO>
void layout(IO& io, Ref<IO, CommonHeader> c, Ref<IO, HopState> hop) {
  io.version_kind(c.kind);
  io.u8(hop.ttl);
  io.len16(c.payload_bytes);
  io.u32(c.src);
  io.u32(c.dst);
  io.u32(c.uid);
  io.us32(c.originated);
}

/// The TCP header, tagged so the transport section describes itself.
template <class IO>
void layout(IO& io, Ref<IO, TcpHeader> t) {
  io.tag(kTagTcp);
  io.flag(t.retransmit);
  io.u16(t.flow_id);
  io.u32(t.seq);
  io.u32(t.ack);
  io.ns64(t.ts);
}

/// No routing option: a bare transport segment.
template <class IO>
void layout(IO& io, Ref<IO, std::monostate>, Ref<IO, HopState>) {
  io.data_plane();
}

template <class IO>
void layout(IO& io, Ref<IO, AodvRreqHeader> h, Ref<IO, HopState> hop) {
  io.kind(PacketKind::kAodvRreq);
  io.u32(h.rreq_id);
  io.u32(h.orig);
  io.u32(h.dst);
  io.u32(h.orig_seq);
  io.u32(h.dst_seq);
  io.u8(hop.hops);
  io.flag(h.dst_seq_known);
  io.pad(2);
}

template <class IO>
void layout(IO& io, Ref<IO, AodvRrepHeader> h, Ref<IO, HopState> hop) {
  io.kind(PacketKind::kAodvRrep);
  io.u32(h.orig);
  io.u32(h.dst);
  io.u32(h.dst_seq);
  io.u8(hop.hops);
  io.ns48(h.lifetime, "wire: AODV RREP lifetime outside the u48 wire range");
  io.pad(1);
}

template <class IO>
void layout(IO& io, Ref<IO, AodvRerrHeader> h, Ref<IO, HopState>) {
  io.kind(PacketKind::kAodvRerr);
  io.count8(h.unreachable,
            "wire: AODV RERR entry count exceeds the u8 wire field");
  io.pad(3);
  for (auto& u : h.unreachable) {
    io.u32(u.dst);
    io.u32(u.seq);
  }
}

/// v1: a DSR RREQ's originator is the packet source (the flood
/// rebroadcast mutates only ttl and the record).
template <class IO>
void layout(IO& io, Ref<IO, DsrRreqHeader> h, Ref<IO, HopState>) {
  io.kind(PacketKind::kDsrRreq);
  io.from_src(h.orig, "wire: DSR RREQ originator != packet source");
  io.u32(h.rreq_id);
  io.u32(h.target);
  io.route(h.record);
}

/// v1: the route runs orig..target inclusive, so both endpoints live in
/// the route list and are not sent again.
template <class IO>
void layout(IO& io, Ref<IO, DsrRrepHeader> h, Ref<IO, HopState> hop) {
  io.kind(PacketKind::kDsrRrep);
  io.u16(hop.cursor);
  io.pad(6);
  io.ends(h.route, h.orig, h.target,
          "wire: DSR RREP route does not span orig..target");
}

/// v1: the notified source is the packet destination.
template <class IO>
void layout(IO& io, Ref<IO, DsrRerrHeader> h, Ref<IO, HopState> hop) {
  io.kind(PacketKind::kDsrRerr);
  io.from_dst(h.notify, "wire: DSR RERR notify != packet dest");
  io.u32(h.from);
  io.u32(h.to);
  io.u16(hop.cursor);
  io.pad(2);
  io.route(h.back_path);
}

template <class IO>
void layout(IO& io, Ref<IO, DsrSourceRoute> h, Ref<IO, HopState> hop) {
  io.data_plane();
  io.tag(kTagSourceRoute);
  io.flag(h.salvaged);
  io.u16(hop.cursor);
  io.route(h.route);
}

template <class IO>
void layout(IO& io, Ref<IO, MtsRreqHeader> h, Ref<IO, HopState> hop) {
  io.kind(PacketKind::kMtsRreq);
  io.u32(h.bcast_id);
  io.u32(h.orig);
  io.u32(h.dst);
  io.u8(hop.hops);
  io.pad(3);
  io.route(h.nodes);
}

template <class IO>
void layout(IO& io, Ref<IO, MtsRrepHeader> h, Ref<IO, HopState> hop) {
  io.kind(PacketKind::kMtsRrep);
  io.u32(h.rrep_id);
  io.u32(h.orig);
  io.u32(h.dst);
  io.u8(h.hop_count);
  io.pad(1);
  io.u16(hop.cursor);
  io.route(h.nodes);
}

/// v1: checks travel checker -> source, so the receiving source is the
/// packet destination (relays mutate only the cursor).
template <class IO>
void layout(IO& io, Ref<IO, MtsCheckHeader> h, Ref<IO, HopState> hop) {
  io.kind(PacketKind::kMtsCheck);
  io.from_dst(h.source, "wire: MTS check source != packet dest");
  io.u32(h.check_id);
  io.u16(h.path_id);
  io.u8(h.hop_count);
  io.pad(1);
  io.u32(h.checker);
  io.u16(hop.cursor);
  io.pad(2);
  io.route(h.nodes);
}

/// v1: a check error travels reporter -> checker.
template <class IO>
void layout(IO& io, Ref<IO, MtsCheckErrorHeader> h, Ref<IO, HopState> hop) {
  static constexpr const char* kEnds =
      "wire: MTS check error endpoints != packet src/dest";
  io.kind(PacketKind::kMtsCheckError);
  io.from_dst(h.checker, kEnds);
  io.from_src(h.reporter, kEnds);
  io.u16(h.path_id);
  io.u32(h.flow_source);
  io.u32(h.broken_from);
  io.u32(h.broken_to);
  io.u16(hop.cursor);
  io.route(h.nodes);
}

/// v1: the informed source is the packet destination.
template <class IO>
void layout(IO& io, Ref<IO, MtsRerrHeader> h, Ref<IO, HopState>) {
  io.kind(PacketKind::kMtsRerr);
  io.from_dst(h.source, "wire: MTS RERR source != packet dest");
  io.u32(h.dst);
  io.u16(h.path_id);
  io.u32(h.broken_from);
  io.u32(h.broken_to);
  io.pad(2);
}

template <class IO>
void layout(IO& io, Ref<IO, MtsDataTag> h, Ref<IO, HopState>) {
  io.data_plane();
  io.tag(kTagMtsData);
  io.pad(1);
  io.u16(h.path_id);
}

/// Deliberately the same order of size as the data tag: a probe should
/// not stand out from the data plane it hides in.
template <class IO>
void layout(IO& io, Ref<IO, MtsProbeHeader> h, Ref<IO, HopState>) {
  io.data_plane();
  io.tag(kTagMtsProbe);
  io.flag(h.echo);
  io.u16(h.path_id);
  io.u32(h.probe_id);
}

/// Reads the rest of the section as alternative `H`.
template <class H>
void read_as(Reader& r, RoutingHeader& out, HopState& hop) {
  layout(r, out.emplace<H>(), hop);
}

/// A control packet's kind names its layout.  Returns false for the
/// transport kinds, which carry tagged options instead.
bool read_control(Reader& r, PacketKind kind, RoutingHeader& out,
                  HopState& hop) {
  switch (kind) {
    case PacketKind::kAodvRreq: read_as<AodvRreqHeader>(r, out, hop); break;
    case PacketKind::kAodvRrep: read_as<AodvRrepHeader>(r, out, hop); break;
    case PacketKind::kAodvRerr: read_as<AodvRerrHeader>(r, out, hop); break;
    case PacketKind::kDsrRreq: read_as<DsrRreqHeader>(r, out, hop); break;
    case PacketKind::kDsrRrep: read_as<DsrRrepHeader>(r, out, hop); break;
    case PacketKind::kDsrRerr: read_as<DsrRerrHeader>(r, out, hop); break;
    case PacketKind::kMtsRreq: read_as<MtsRreqHeader>(r, out, hop); break;
    case PacketKind::kMtsRrep: read_as<MtsRrepHeader>(r, out, hop); break;
    case PacketKind::kMtsCheck: read_as<MtsCheckHeader>(r, out, hop); break;
    case PacketKind::kMtsCheckError:
      read_as<MtsCheckErrorHeader>(r, out, hop);
      break;
    case PacketKind::kMtsRerr: read_as<MtsRerrHeader>(r, out, hop); break;
    case PacketKind::kTcpData:
    case PacketKind::kTcpAck:
      return false;
  }
  return true;
}

/// A data packet's option names its layout by its tag byte.
bool read_option(Reader& r, RoutingHeader& out, HopState& hop) {
  switch (r.peek()) {
    case kTagSourceRoute: read_as<DsrSourceRoute>(r, out, hop); return true;
    case kTagMtsData: read_as<MtsDataTag>(r, out, hop); return true;
    case kTagMtsProbe: read_as<MtsProbeHeader>(r, out, hop); return true;
    default: return false;
  }
}

}  // namespace

std::uint32_t routing_wire_size(const RoutingHeader& h) {
  return std::visit(
      [](const auto& alt) {
        Sizer s;
        layout(s, alt, HopState{});
        return s.n;
      },
      h);
}

void encode_headers(const CommonHeader& common, const TcpHeader* tcp,
                    const RoutingHeader& routing,
                    std::vector<std::uint8_t>& out, const HopState& hop) {
  Writer w(out, common);
  const std::size_t base = w.size();
  layout(w, common, hop);
  sim::require(w.size() - base == kCommonHeaderBytes,
               "wire: common header layout drifted from kCommonHeaderBytes");
  if (tcp != nullptr) {
    sim::require(is_transport(common.kind),
                 "wire: TCP header on a control packet");
    layout(w, *tcp);
    sim::require(w.size() - base == kCommonHeaderBytes + kTcpHeaderBytes,
                 "wire: TCP header layout drifted from kTcpHeaderBytes");
  }
  std::visit([&](const auto& h) { layout(w, h, hop); }, routing);
}

void encode_headers(const Packet& p, std::vector<std::uint8_t>& out) {
  encode_headers(p.common(), p.has_tcp() ? &p.tcp() : nullptr, p.routing(),
                 out, p.hop());
}

void encode_packet(const Packet& p, std::vector<std::uint8_t>& out,
                   const std::uint8_t* payload, std::size_t payload_len) {
  encode_headers(p, out);
  const std::uint32_t want = p.common().payload_bytes;
  const std::size_t copy = std::min<std::size_t>(payload_len, want);
  if (copy != 0) out.insert(out.end(), payload, payload + copy);
  if (copy < want) out.insert(out.end(), want - copy, 0);
}

std::optional<DecodedPacket> decode_packet(const std::uint8_t* data,
                                           std::size_t len) {
  if (len < kCommonHeaderBytes) return std::nullopt;
  DecodedPacket d;
  Reader head(data, kCommonHeaderBytes, d.common);
  layout(head, d.common, d.hop);
  if (!head.done() || len - kCommonHeaderBytes < d.common.payload_bytes)
    return std::nullopt;
  // Payload sits last; everything between the common header and it is
  // the routing/option section.
  d.payload_bytes = d.common.payload_bytes;
  d.payload_offset = len - d.payload_bytes;
  Reader r(data + kCommonHeaderBytes, d.payload_offset - kCommonHeaderBytes,
           d.common);
  if (is_transport(d.common.kind)) {
    if (r.peek() == kTagTcp) layout(r, d.tcp.emplace());
    if (!r.at_end() && !read_option(r, d.routing, d.hop)) return std::nullopt;
  } else if (!read_control(r, d.common.kind, d.routing, d.hop)) {
    return std::nullopt;
  }
  if (!r.done()) return std::nullopt;
  return d;
}

std::optional<DecodedPacket> decode_packet(const std::vector<std::uint8_t>& buf) {
  return decode_packet(buf.data(), buf.size());
}

}  // namespace mts::net::wire
