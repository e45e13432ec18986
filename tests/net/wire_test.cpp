// The wire codec's contract: (1) the derived size law reproduces the
// legacy hand-maintained table for every packet kind, (2) every layout
// encodes to its pinned golden image, (3) randomized round trips are
// exact — decode(encode(p)) == p and encode(decode(buf)) == buf — and
// (4) malformed buffers (truncation, corruption, bad versions, nonzero
// padding, unknown tags, fuzzed mutants) are rejected rather than
// guessed at, and never make the decoder throw.
#include "net/wire.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "net/headers.hpp"
#include "sim/error.hpp"
#include "sim/rng.hpp"

namespace mts::net::wire {
namespace {

// ---------------------------------------------------------------------------
// Randomized instance builders.  Each returns a routing header plus the
// common header that satisfies the v1 encode invariants (redundant
// fields mirrored from the common header).
// ---------------------------------------------------------------------------

std::uint32_t ru32(sim::Rng& rng) {
  return static_cast<std::uint32_t>(rng.uniform_int(0, 0xffffffffLL));
}
std::uint16_t ru16(sim::Rng& rng) {
  return static_cast<std::uint16_t>(rng.uniform_int(0, 0xffff));
}
std::uint8_t ru8(sim::Rng& rng) {
  return static_cast<std::uint8_t>(rng.uniform_int(0, 0xff));
}
NodeId rnode(sim::Rng& rng) {
  return static_cast<NodeId>(rng.uniform_int(0, 499));
}
RouteVec rroute(sim::Rng& rng, std::int64_t min_len = 0) {
  RouteVec v;
  const auto n = rng.uniform_int(min_len, 12);
  for (std::int64_t i = 0; i < n; ++i) v.push_back(rnode(rng));
  return v;
}

CommonHeader rcommon(sim::Rng& rng, PacketKind kind) {
  CommonHeader c;
  c.kind = kind;
  c.src = rnode(rng);
  c.dst = rnode(rng);
  c.uid = ru32(rng);
  c.payload_bytes = is_transport(kind)
                        ? static_cast<std::uint32_t>(rng.uniform_int(0, 1500))
                        : 0;
  // Whole microseconds: the wire carries u32 µs, so round trips of
  // µs-aligned times are exact (sub-µs loss is pinned separately).
  c.originated = sim::Time::us(rng.uniform_int(0, 0xffffffffLL));
  return c;
}

TcpHeader rtcp(sim::Rng& rng) {
  TcpHeader t;
  t.seq = ru32(rng);
  t.ack = ru32(rng);
  t.flow_id = ru16(rng);
  t.ts = sim::Time::ns(rng.uniform_int(0, (1LL << 62)));
  t.retransmit = rng.bernoulli(0.5);
  return t;
}

/// One randomized (common, tcp?, routing, payload) tuple per variant
/// alternative, invariants included.
struct Sample {
  CommonHeader common;
  bool has_tcp = false;
  TcpHeader tcp;
  RoutingHeader routing;
  /// Per-hop cell; the TTL byte always travels, hops/cursor only where
  /// the kind's wire layout carries the corresponding field.
  HopState hop;
  std::vector<std::uint8_t> payload;
};

Sample sample_for(std::size_t alternative, sim::Rng& rng) {
  Sample s;
  switch (alternative) {
    case 0: {  // monostate: a bare TCP segment
      s.common = rcommon(rng, rng.bernoulli(0.5) ? PacketKind::kTcpData
                                                 : PacketKind::kTcpAck);
      s.routing = std::monostate{};
      break;
    }
    case 1: {
      s.common = rcommon(rng, PacketKind::kAodvRreq);
      AodvRreqHeader h;
      h.rreq_id = ru32(rng);
      h.orig = rnode(rng);
      h.dst = rnode(rng);
      h.orig_seq = ru32(rng);
      h.dst_seq = ru32(rng);
      h.dst_seq_known = rng.bernoulli(0.5);
      s.routing = h;
      break;
    }
    case 2: {
      s.common = rcommon(rng, PacketKind::kAodvRrep);
      AodvRrepHeader h;
      h.orig = rnode(rng);
      h.dst = rnode(rng);
      h.dst_seq = ru32(rng);
      h.lifetime = sim::Time::ns(rng.uniform_int(0, (1LL << 48) - 1));
      s.routing = h;
      break;
    }
    case 3: {
      s.common = rcommon(rng, PacketKind::kAodvRerr);
      AodvRerrHeader h;
      const auto n = rng.uniform_int(0, 6);
      for (std::int64_t i = 0; i < n; ++i) {
        h.unreachable.push_back({rnode(rng), ru32(rng)});
      }
      s.routing = h;
      break;
    }
    case 4: {
      s.common = rcommon(rng, PacketKind::kDsrRreq);
      DsrRreqHeader h;
      h.rreq_id = ru32(rng);
      h.orig = s.common.src;  // v1 invariant
      h.target = rnode(rng);
      h.record = rroute(rng);
      s.routing = h;
      break;
    }
    case 5: {
      s.common = rcommon(rng, PacketKind::kDsrRrep);
      DsrRrepHeader h;
      h.route = rroute(rng, 2);
      h.orig = h.route.front();  // v1 invariant: route spans orig..target
      h.target = h.route.back();
      s.routing = h;
      break;
    }
    case 6: {
      s.common = rcommon(rng, PacketKind::kDsrRerr);
      DsrRerrHeader h;
      h.notify = s.common.dst;  // v1 invariant
      h.from = rnode(rng);
      h.to = rnode(rng);
      h.back_path = rroute(rng);
      s.routing = h;
      break;
    }
    case 7: {
      s.common = rcommon(rng, PacketKind::kTcpData);
      DsrSourceRoute h;
      h.route = rroute(rng);
      h.salvaged = rng.bernoulli(0.5);
      s.routing = h;
      break;
    }
    case 8: {
      s.common = rcommon(rng, PacketKind::kMtsRreq);
      MtsRreqHeader h;
      h.bcast_id = ru32(rng);
      h.orig = rnode(rng);
      h.dst = rnode(rng);
      h.nodes = rroute(rng);
      s.routing = h;
      break;
    }
    case 9: {
      s.common = rcommon(rng, PacketKind::kMtsRrep);
      MtsRrepHeader h;
      h.rrep_id = ru32(rng);
      h.orig = rnode(rng);
      h.dst = rnode(rng);
      h.hop_count = ru8(rng);  // origin-stamped total, stays in the header
      h.nodes = rroute(rng);
      s.routing = h;
      break;
    }
    case 10: {
      s.common = rcommon(rng, PacketKind::kMtsCheck);
      MtsCheckHeader h;
      h.check_id = ru32(rng);
      h.path_id = ru16(rng);
      h.checker = rnode(rng);
      h.source = s.common.dst;  // v1 invariant
      h.hop_count = ru8(rng);  // origin-stamped total, stays in the header
      h.nodes = rroute(rng);
      s.routing = h;
      break;
    }
    case 11: {
      s.common = rcommon(rng, PacketKind::kMtsCheckError);
      MtsCheckErrorHeader h;
      h.path_id = ru16(rng);
      h.checker = s.common.dst;  // v1 invariant
      h.reporter = s.common.src;
      h.flow_source = rnode(rng);
      h.broken_from = rnode(rng);
      h.broken_to = rnode(rng);
      h.nodes = rroute(rng);
      s.routing = h;
      break;
    }
    case 12: {
      s.common = rcommon(rng, PacketKind::kMtsRerr);
      MtsRerrHeader h;
      h.source = s.common.dst;  // v1 invariant
      h.dst = rnode(rng);
      h.path_id = ru16(rng);
      h.broken_from = rnode(rng);
      h.broken_to = rnode(rng);
      s.routing = h;
      break;
    }
    case 13: {
      s.common = rcommon(rng, PacketKind::kTcpData);
      MtsDataTag h;
      h.path_id = ru16(rng);
      s.routing = h;
      break;
    }
    case 14: {
      s.common = rcommon(rng, PacketKind::kTcpData);
      MtsProbeHeader h;
      h.path_id = ru16(rng);
      h.probe_id = ru32(rng);
      h.echo = rng.bernoulli(0.5);
      s.routing = h;
      break;
    }
    default:
      ADD_FAILURE() << "no such alternative";
  }
  s.hop.ttl = ru8(rng);
  s.hop.hops = ru8(rng);
  s.hop.cursor = ru16(rng);
  if (is_transport(s.common.kind)) {
    s.has_tcp = true;
    s.tcp = rtcp(rng);
    s.payload.resize(s.common.payload_bytes);
    for (auto& b : s.payload) b = ru8(rng);
  }
  return s;
}

constexpr std::size_t kAlternatives = 15;

std::vector<std::uint8_t> encode_sample(const Sample& s) {
  std::vector<std::uint8_t> buf;
  encode_headers(s.common, s.has_tcp ? &s.tcp : nullptr, s.routing, buf,
                 s.hop);
  buf.insert(buf.end(), s.payload.begin(), s.payload.end());
  return buf;
}

// ---------------------------------------------------------------------------
// Golden images: one fixed sample per routing alternative (in variant
// order) plus a TCP data segment, each field a distinct non-zero value,
// pinned byte for byte.  The random round trips below cannot see a
// layout change that the encoder and the decoder make together (two
// fields swapped on both sides still round-trip); these pins can.
// ---------------------------------------------------------------------------

CommonHeader golden_common(PacketKind kind) {
  CommonHeader c;
  c.kind = kind;
  c.src = 0x0A0B0C01;
  c.dst = 0x0A0B0C02;
  c.uid = 0x1D2D3D4D;
  c.payload_bytes = 2;
  c.originated = sim::Time::us(0x01234567);
  return c;
}

std::vector<Sample> golden_samples() {
  std::vector<Sample> out;
  const auto add = [&out](PacketKind kind, RoutingHeader routing) {
    Sample s;
    s.common = golden_common(kind);
    s.routing = std::move(routing);
    s.hop = HopState{0x2A, 0x05, 0x0103};
    s.payload = {0xE1, 0xE2};
    if (is_transport(kind)) {
      s.has_tcp = true;
      s.tcp.seq = 0x51525354;
      s.tcp.ack = 0x61626364;
      s.tcp.flow_id = 0x7172;
      s.tcp.ts = sim::Time::ns(0x0102030405060708);
      s.tcp.retransmit = true;
    }
    out.push_back(std::move(s));
  };
  const NodeId src = golden_common(PacketKind::kTcpData).src;
  const NodeId dst = golden_common(PacketKind::kTcpData).dst;

  add(PacketKind::kTcpAck, std::monostate{});
  add(PacketKind::kAodvRreq,
      AodvRreqHeader{0x11121314, 0x21222324, 0x31323334, 0x41424344,
                     0x51525354, true});
  add(PacketKind::kAodvRrep,
      AodvRrepHeader{0x21222324, 0x31323334, 0x41424344,
                     sim::Time::ns(0xA1A2A3A4A5A6)});
  AodvRerrHeader rerr;
  rerr.unreachable.push_back({0x21222324, 0x41424344});
  rerr.unreachable.push_back({0x31323334, 0x51525354});
  add(PacketKind::kAodvRerr, rerr);
  add(PacketKind::kDsrRreq,
      DsrRreqHeader{0x11121314, src, 0x31323334, {0x61626364, 0x71727374}});
  add(PacketKind::kDsrRrep,
      DsrRrepHeader{0x21222324, 0x31323334,
                    {0x21222324, 0x61626364, 0x31323334}});
  add(PacketKind::kDsrRerr,
      DsrRerrHeader{dst, 0x21222324, 0x31323334, {0x61626364, 0x71727374}});
  add(PacketKind::kTcpData,
      DsrSourceRoute{{0x61626364, 0x71727374, 0x81828384}, true});
  add(PacketKind::kMtsRreq,
      MtsRreqHeader{0x11121314, 0x21222324, 0x31323334,
                    {0x61626364, 0x71727374}});
  add(PacketKind::kMtsRrep,
      MtsRrepHeader{0x11121314, 0x21222324, 0x31323334, 0x09,
                    {0x61626364, 0x71727374}});
  add(PacketKind::kMtsCheck,
      MtsCheckHeader{0x11121314, 0x9192, 0x21222324, dst, 0x09,
                     {0x61626364, 0x71727374}});
  add(PacketKind::kMtsCheckError,
      MtsCheckErrorHeader{0x9192, dst, 0x21222324, src, 0x31323334,
                          0x41424344, {0x61626364, 0x71727374}});
  add(PacketKind::kMtsRerr,
      MtsRerrHeader{dst, 0x31323334, 0x9192, 0x41424344, 0x51525354});
  add(PacketKind::kTcpData, MtsDataTag{0x9192});
  add(PacketKind::kTcpData, MtsProbeHeader{0x9192, 0x11121314, true});
  // A plain TCP data segment (AODV's data plane) with a longer payload.
  add(PacketKind::kTcpData, std::monostate{});
  out.back().common.payload_bytes = 7;
  out.back().payload = {0xD1, 0xD2, 0xD3, 0xD4, 0xD5, 0xD6, 0xD7};
  return out;
}

std::string hex(const std::vector<std::uint8_t>& buf) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string s;
  for (std::uint8_t b : buf) {
    s += kDigits[b >> 4];
    s += kDigits[b & 0x0f];
  }
  return s;
}

TEST(WireGoldenTest, EveryLayoutMatchesItsPinnedImage) {
  // Each image reads common header | TCP option | routing section |
  // payload, hex, one line per section.
  const char* const kImages[] = {
      // TCP ACK (no routing option)
      "112a00020a0b0c010a0b0c021d2d3d4d01234567"
      "1001717251525354616263640102030405060708"
      "e1e2",
      // AODV RREQ
      "122a00020a0b0c010a0b0c021d2d3d4d01234567"
      "111213142122232431323334414243445152535405010000"
      "e1e2",
      // AODV RREP
      "132a00020a0b0c010a0b0c021d2d3d4d01234567"
      "21222324313233344142434405a1a2a3a4a5a600"
      "e1e2",
      // AODV RERR
      "142a00020a0b0c010a0b0c021d2d3d4d01234567"
      "0200000021222324414243443132333451525354"
      "e1e2",
      // DSR RREQ
      "152a00020a0b0c010a0b0c021d2d3d4d01234567"
      "11121314313233346162636471727374"
      "e1e2",
      // DSR RREP
      "162a00020a0b0c010a0b0c021d2d3d4d01234567"
      "0103000000000000212223246162636431323334"
      "e1e2",
      // DSR RERR
      "172a00020a0b0c010a0b0c021d2d3d4d01234567"
      "2122232431323334010300006162636471727374"
      "e1e2",
      // DSR source route
      "102a00020a0b0c010a0b0c021d2d3d4d01234567"
      "1001717251525354616263640102030405060708"
      "01010103616263647172737481828384"
      "e1e2",
      // MTS RREQ
      "182a00020a0b0c010a0b0c021d2d3d4d01234567"
      "111213142122232431323334050000006162636471727374"
      "e1e2",
      // MTS RREP
      "192a00020a0b0c010a0b0c021d2d3d4d01234567"
      "111213142122232431323334090001036162636471727374"
      "e1e2",
      // MTS CHECK
      "1a2a00020a0b0c010a0b0c021d2d3d4d01234567"
      "111213149192090021222324010300006162636471727374"
      "e1e2",
      // MTS CHECK-ERROR
      "1b2a00020a0b0c010a0b0c021d2d3d4d01234567"
      "919221222324313233344142434401036162636471727374"
      "e1e2",
      // MTS RERR
      "1c2a00020a0b0c010a0b0c021d2d3d4d01234567"
      "31323334919241424344515253540000"
      "e1e2",
      // MTS data tag
      "102a00020a0b0c010a0b0c021d2d3d4d01234567"
      "1001717251525354616263640102030405060708"
      "02009192"
      "e1e2",
      // MTS probe
      "102a00020a0b0c010a0b0c021d2d3d4d01234567"
      "1001717251525354616263640102030405060708"
      "0301919211121314"
      "e1e2",
      // TCP data segment (no routing option)
      "102a00070a0b0c010a0b0c021d2d3d4d01234567"
      "1001717251525354616263640102030405060708"
      "d1d2d3d4d5d6d7",
  };
  const std::vector<Sample> samples = golden_samples();
  ASSERT_EQ(samples.size(), std::size(kImages));
  for (std::size_t i = 0; i < samples.size(); ++i) {
    const std::vector<std::uint8_t> image = encode_sample(samples[i]);
    EXPECT_EQ(hex(image), kImages[i]) << "sample " << i;
    EXPECT_TRUE(decode_packet(image).has_value()) << "sample " << i;
  }
}

// ---------------------------------------------------------------------------
// Satellite: the codec-derived size law equals the legacy table.
// ---------------------------------------------------------------------------

TEST(WireSizeTest, SizeLawPinsTheLegacyTable) {
  // The exact values the retired hand-maintained table carried; airtime
  // accounting (and every fingerprint) depends on these staying fixed.
  EXPECT_EQ(routing_wire_size(RoutingHeader{std::monostate{}}), 0u);
  EXPECT_EQ(routing_wire_size(RoutingHeader{AodvRreqHeader{}}), 24u);
  EXPECT_EQ(routing_wire_size(RoutingHeader{AodvRrepHeader{}}), 20u);
  AodvRerrHeader rerr;
  rerr.unreachable.push_back({1, 2});
  rerr.unreachable.push_back({3, 4});
  EXPECT_EQ(routing_wire_size(RoutingHeader{rerr}), 4u + 2 * 8u);
  DsrRreqHeader dreq;
  dreq.record = {1, 2, 3};
  EXPECT_EQ(routing_wire_size(RoutingHeader{dreq}), 8u + 3 * 4u);
  DsrRrepHeader drep;
  drep.route = {1, 2};
  EXPECT_EQ(routing_wire_size(RoutingHeader{drep}), 8u + 2 * 4u);
  DsrRerrHeader derr;
  derr.back_path = {7};
  EXPECT_EQ(routing_wire_size(RoutingHeader{derr}), 12u + 4u);
  DsrSourceRoute sr;
  sr.route = {1, 2, 3, 4};
  EXPECT_EQ(routing_wire_size(RoutingHeader{sr}), 4u + 4 * 4u);
  MtsRreqHeader mreq;
  mreq.nodes = {1, 2, 3};
  EXPECT_EQ(routing_wire_size(RoutingHeader{mreq}), 16u + 3 * 4u);
  MtsRrepHeader mrep;
  mrep.nodes = {1};
  EXPECT_EQ(routing_wire_size(RoutingHeader{mrep}), 16u + 4u);
  MtsCheckHeader chk;
  chk.nodes = {1, 2};
  EXPECT_EQ(routing_wire_size(RoutingHeader{chk}), 16u + 2 * 4u);
  MtsCheckErrorHeader cerr;
  cerr.nodes = {1, 2, 3, 4};
  EXPECT_EQ(routing_wire_size(RoutingHeader{cerr}), 16u + 4 * 4u);
  EXPECT_EQ(routing_wire_size(RoutingHeader{MtsRerrHeader{}}), 16u);
  EXPECT_EQ(routing_wire_size(RoutingHeader{MtsDataTag{}}), 4u);
  EXPECT_EQ(routing_wire_size(RoutingHeader{MtsProbeHeader{}}), 8u);
}

TEST(WireSizeTest, EncoderWritesExactlyTheLawfulByteCount) {
  sim::Rng rng(7);
  for (int iter = 0; iter < 50; ++iter) {
    for (std::size_t a = 0; a < kAlternatives; ++a) {
      const Sample s = sample_for(a, rng);
      std::vector<std::uint8_t> buf;
      encode_headers(s.common, s.has_tcp ? &s.tcp : nullptr, s.routing, buf);
      EXPECT_EQ(buf.size(), kCommonHeaderBytes +
                                (s.has_tcp ? kTcpHeaderBytes : 0) +
                                routing_wire_size(s.routing));
    }
  }
}

// ---------------------------------------------------------------------------
// Round trips.
// ---------------------------------------------------------------------------

TEST(WireRoundTripTest, EveryAlternativeRoundTripsBitIdentically) {
  sim::Rng rng(42);
  for (int iter = 0; iter < 200; ++iter) {
    for (std::size_t a = 0; a < kAlternatives; ++a) {
      const Sample s = sample_for(a, rng);
      const std::vector<std::uint8_t> buf = encode_sample(s);
      const auto d = decode_packet(buf);
      ASSERT_TRUE(d.has_value()) << "alternative " << a;
      // The decoded struct re-encodes to the identical byte string —
      // with the common header byte-equal and the encoders injective
      // per field, this is a full struct-level round-trip check.
      Sample back;
      back.common = d->common;
      back.has_tcp = d->tcp.has_value();
      if (back.has_tcp) back.tcp = *d->tcp;
      back.routing = d->routing;
      back.hop = d->hop;
      back.payload.assign(buf.begin() + static_cast<std::ptrdiff_t>(d->payload_offset),
                          buf.end());
      EXPECT_EQ(encode_sample(back), buf) << "alternative " << a;
      // The TTL byte travels for every kind; hops/cursor only where the
      // kind's layout carries them (the re-encode above covers those).
      EXPECT_EQ(d->hop.ttl, s.hop.ttl);
      // Spot checks on the reconstituted redundant fields.
      EXPECT_EQ(d->common.src, s.common.src);
      EXPECT_EQ(d->common.dst, s.common.dst);
      EXPECT_EQ(d->common.uid, s.common.uid);
      EXPECT_EQ(d->common.originated, s.common.originated);
      EXPECT_EQ(d->routing.index(), s.routing.index());
      EXPECT_EQ(d->payload_bytes, s.common.payload_bytes);
    }
  }
}

TEST(WireRoundTripTest, ReconstitutedFieldsComeFromTheCommonHeader) {
  sim::Rng rng(11);
  const Sample s = sample_for(4, rng);  // DSR RREQ
  const auto d = decode_packet(encode_sample(s));
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(std::get<DsrRreqHeader>(d->routing).orig, s.common.src);

  const Sample q = sample_for(1, rng);  // AODV RREQ: hop count off the wire
  const auto dq = decode_packet(encode_sample(q));
  ASSERT_TRUE(dq.has_value());
  EXPECT_EQ(dq->hop.hops, q.hop.hops);

  const Sample r = sample_for(5, rng);  // DSR RREP: cursor off the wire
  const auto dr = decode_packet(encode_sample(r));
  ASSERT_TRUE(dr.has_value());
  EXPECT_EQ(dr->hop.cursor, r.hop.cursor);

  const Sample c = sample_for(10, rng);  // MTS check
  const auto dc = decode_packet(encode_sample(c));
  ASSERT_TRUE(dc.has_value());
  EXPECT_EQ(std::get<MtsCheckHeader>(dc->routing).source, c.common.dst);

  const Sample e = sample_for(11, rng);  // MTS check error
  const auto de = decode_packet(encode_sample(e));
  ASSERT_TRUE(de.has_value());
  EXPECT_EQ(std::get<MtsCheckErrorHeader>(de->routing).reporter, e.common.src);
  EXPECT_EQ(std::get<MtsCheckErrorHeader>(de->routing).checker, e.common.dst);
}

TEST(WireRoundTripTest, OriginatedTravelsAsFlooredMicroseconds) {
  CommonHeader c;
  c.kind = PacketKind::kTcpAck;
  c.originated = sim::Time::ns(1234567);  // 1234.567 µs
  std::vector<std::uint8_t> buf;
  encode_headers(c, nullptr, RoutingHeader{std::monostate{}}, buf);
  const auto d = decode_packet(buf);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->common.originated, sim::Time::us(1234));  // documented loss
}

TEST(WireRoundTripTest, PayloadBytesAreCopiedAndZeroFilled) {
  net::Packet p;
  p.mutable_common().kind = PacketKind::kTcpData;
  p.mutable_common().payload_bytes = 8;
  p.mutable_tcp() = TcpHeader{};
  const std::uint8_t head[3] = {0xAA, 0xBB, 0xCC};
  std::vector<std::uint8_t> buf;
  encode_packet(p, buf, head, sizeof head);
  const auto d = decode_packet(buf);
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(d->payload_bytes, 8u);
  EXPECT_EQ(buf.size(), d->payload_offset + 8);
  EXPECT_EQ(buf[d->payload_offset], 0xAA);
  EXPECT_EQ(buf[d->payload_offset + 2], 0xCC);
  EXPECT_EQ(buf[d->payload_offset + 3], 0x00);  // zero-filled remainder
  EXPECT_EQ(buf.back(), 0x00);
}

// ---------------------------------------------------------------------------
// Rejection: malformed buffers must come back nullopt, never garbage.
// ---------------------------------------------------------------------------

TEST(WireRejectTest, BadVersionNibble) {
  sim::Rng rng(1);
  std::vector<std::uint8_t> buf = encode_sample(sample_for(1, rng));
  buf[0] = static_cast<std::uint8_t>((buf[0] & 0x0f) |
                                     ((kWireVersion + 1) << 4));
  EXPECT_FALSE(decode_packet(buf).has_value());
}

TEST(WireRejectTest, UnknownKindNibble) {
  sim::Rng rng(2);
  std::vector<std::uint8_t> buf = encode_sample(sample_for(0, rng));
  buf[0] = static_cast<std::uint8_t>((kWireVersion << 4) | 0x0e);  // kind 14
  EXPECT_FALSE(decode_packet(buf).has_value());
}

TEST(WireRejectTest, NonzeroPaddingIsCorruption) {
  sim::Rng rng(3);
  std::vector<std::uint8_t> buf = encode_sample(sample_for(1, rng));
  ASSERT_EQ(buf.size(), kCommonHeaderBytes + 24u);
  buf.back() = 0x01;  // last pad byte of the AODV RREQ
  EXPECT_FALSE(decode_packet(buf).has_value());
}

TEST(WireRejectTest, UndefinedFlagBitsAreCorruption) {
  sim::Rng rng(4);
  std::vector<std::uint8_t> buf = encode_sample(sample_for(1, rng));
  buf[kCommonHeaderBytes + 21] = 0x02;  // dst_seq_known flags byte
  EXPECT_FALSE(decode_packet(buf).has_value());
}

TEST(WireRejectTest, UnknownOptionTag) {
  net::Packet p;
  p.mutable_common().kind = PacketKind::kTcpData;
  p.mutable_tcp() = TcpHeader{};
  std::vector<std::uint8_t> buf;
  encode_headers(p, buf);
  buf.insert(buf.end(), {0x7f, 0x00, 0x00, 0x00});  // bogus option
  EXPECT_FALSE(decode_packet(buf).has_value());
}

TEST(WireRejectTest, ShortRouteDsrRrepIsRejected) {
  // A decoded DSR RREP must span orig..target: fabricate one whose
  // route list is a single entry.
  CommonHeader c;
  c.kind = PacketKind::kDsrRrep;
  DsrRrepHeader h;
  h.route = {5, 9};
  h.orig = 5;
  h.target = 9;
  std::vector<std::uint8_t> buf;
  encode_headers(c, nullptr, RoutingHeader{h}, buf);
  buf.resize(buf.size() - 4);  // drop one route entry -> size 1
  EXPECT_FALSE(decode_packet(buf).has_value());
}

TEST(WireRejectTest, AodvRerrCountMustMatchTheSectionLength) {
  sim::Rng rng(5);
  Sample s;
  do {
    s = sample_for(3, rng);
  } while (std::get<AodvRerrHeader>(s.routing).unreachable.empty());
  std::vector<std::uint8_t> buf = encode_sample(s);
  ++buf[kCommonHeaderBytes];  // count field no longer matches the length
  EXPECT_FALSE(decode_packet(buf).has_value());
}

TEST(WireRejectTest, TruncatedPrefixesAreRejectedOrSelfConsistent) {
  // Dropping trailing bytes from a DSR-style section legitimately reads
  // as a shorter route list, so the honest property is: every prefix
  // either fails to decode or re-encodes bit-identically to itself.
  sim::Rng rng(6);
  for (std::size_t a = 0; a < kAlternatives; ++a) {
    const Sample s = sample_for(a, rng);
    const std::vector<std::uint8_t> buf = encode_sample(s);
    for (std::size_t len = 0; len < buf.size(); ++len) {
      const auto d = decode_packet(buf.data(), len);
      if (!d.has_value()) continue;
      std::vector<std::uint8_t> again;
      encode_headers(d->common, d->tcp.has_value() ? &*d->tcp : nullptr,
                     d->routing, again, d->hop);
      again.insert(again.end(), buf.begin() + static_cast<std::ptrdiff_t>(d->payload_offset),
                   buf.begin() + static_cast<std::ptrdiff_t>(len));
      EXPECT_EQ(again, std::vector<std::uint8_t>(buf.begin(),
                                                 buf.begin() + static_cast<std::ptrdiff_t>(len)))
          << "alternative " << a << " prefix " << len;
    }
  }
}

TEST(WireRejectTest, EmptyAndTinyBuffers) {
  EXPECT_FALSE(decode_packet(nullptr, 0).has_value());
  const std::vector<std::uint8_t> tiny(kCommonHeaderBytes - 1, 0);
  EXPECT_FALSE(decode_packet(tiny).has_value());
}

// ---------------------------------------------------------------------------
// Encode-side invariants are construction bugs, not soft failures.
// ---------------------------------------------------------------------------

TEST(WireEncodeTest, ViolatedInvariantsTrip) {
  std::vector<std::uint8_t> buf;

  CommonHeader c;
  c.kind = PacketKind::kDsrRreq;
  c.src = 1;
  DsrRreqHeader rreq;
  rreq.orig = 2;  // != src
  EXPECT_THROW(encode_headers(c, nullptr, RoutingHeader{rreq}, buf),
               sim::SimError);

  CommonHeader mc;
  mc.kind = PacketKind::kMtsRerr;
  mc.dst = 3;
  MtsRerrHeader rerr;
  rerr.source = 4;  // != dst
  EXPECT_THROW(encode_headers(mc, nullptr, RoutingHeader{rerr}, buf),
               sim::SimError);

  CommonHeader big;
  big.kind = PacketKind::kTcpData;
  big.payload_bytes = 0x10000;  // exceeds the u16 wire field
  EXPECT_THROW(encode_headers(big, nullptr, RoutingHeader{std::monostate{}}, buf),
               sim::SimError);

  CommonHeader mismatched;
  mismatched.kind = PacketKind::kAodvRreq;
  EXPECT_THROW(
      encode_headers(mismatched, nullptr, RoutingHeader{AodvRrepHeader{}}, buf),
      sim::SimError);

  CommonHeader control;
  control.kind = PacketKind::kMtsRreq;
  TcpHeader t;
  EXPECT_THROW(encode_headers(control, &t, RoutingHeader{MtsRreqHeader{}}, buf),
               sim::SimError);
}

// ---------------------------------------------------------------------------
// Mutation fuzzing: `decode_packet` reads untrusted bytes.  A fixed
// budget of mutants of the golden images, drawn from a splitmix64
// stream so every run sees the same inputs.
// ---------------------------------------------------------------------------

TEST(WireFuzzTest, MutantsAreRejectedOrReencodeExactly) {
  std::vector<std::vector<std::uint8_t>> corpus;
  for (const Sample& s : golden_samples()) corpus.push_back(encode_sample(s));
  std::uint64_t counter = 0x5EED;
  const auto draw = [&counter](std::uint64_t bound) {
    return sim::splitmix64(counter++) % bound;
  };

  constexpr int kMutants = 200'000;
  int accepted = 0;
  for (int m = 0; m < kMutants; ++m) {
    std::vector<std::uint8_t> mutant = corpus[draw(corpus.size())];
    for (std::uint64_t ops = 1 + draw(3); ops > 0; --ops) {
      switch (draw(4)) {
        case 0:  // flip one bit
          if (!mutant.empty()) {
            mutant[draw(mutant.size())] ^=
                static_cast<std::uint8_t>(1u << draw(8));
          }
          break;
        case 1: {  // splice: this image's head, another image's tail
          const std::vector<std::uint8_t>& other = corpus[draw(corpus.size())];
          mutant.resize(draw(mutant.size() + 1));
          mutant.insert(mutant.end(),
                        other.begin() + static_cast<std::ptrdiff_t>(
                                            draw(other.size() + 1)),
                        other.end());
          break;
        }
        case 2:  // truncate
          mutant.resize(draw(mutant.size() + 1));
          break;
        default:  // extend by 1-8 bytes, zero half the time (pads, lists)
          for (std::uint64_t n = 1 + draw(8); n > 0; --n) {
            mutant.push_back(draw(2) == 0 ? 0 : static_cast<std::uint8_t>(draw(256)));
          }
          break;
      }
    }
    // An exactly sized heap copy, so a sanitizer build flags any read
    // past the end.
    const std::size_t len = mutant.size();
    const auto bytes = std::make_unique<std::uint8_t[]>(len);
    std::copy(mutant.begin(), mutant.end(), bytes.get());

    std::optional<DecodedPacket> d;
    ASSERT_NO_THROW(d = decode_packet(bytes.get(), len)) << "mutant " << m;
    if (!d.has_value()) continue;
    ++accepted;
    std::vector<std::uint8_t> again;
    encode_headers(d->common, d->tcp.has_value() ? &*d->tcp : nullptr,
                   d->routing, again, d->hop);
    again.insert(again.end(), bytes.get() + d->payload_offset,
                 bytes.get() + len);
    ASSERT_EQ(again, mutant) << "mutant " << m;
  }
  // Both verdicts are exercised.
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, kMutants);
}

}  // namespace
}  // namespace mts::net::wire
