#include "net/packet.hpp"

#include <gtest/gtest.h>

#include <utility>

#include "sim/error.hpp"

namespace mts::net {
namespace {

TEST(PacketTest, FreshBodyWireSizeIsCommonHeaderOnly) {
  Packet p;
  (void)p.mutable_common();  // acquire an all-defaults body
  EXPECT_EQ(p.wire_bytes(), kCommonHeaderBytes);
}

TEST(PacketTest, TcpDataWireSize) {
  Packet p;
  p.mutable_common().kind = PacketKind::kTcpData;
  p.mutable_common().payload_bytes = 1000;
  p.mutable_tcp() = TcpHeader{};
  EXPECT_EQ(p.wire_bytes(), kCommonHeaderBytes + kTcpHeaderBytes + 1000);
}

TEST(PacketTest, TcpAckWireSize) {
  Packet p;
  p.mutable_common().kind = PacketKind::kTcpAck;
  p.mutable_tcp() = TcpHeader{};
  EXPECT_EQ(p.wire_bytes(), kCommonHeaderBytes + kTcpHeaderBytes);  // 40 B
}

TEST(PacketTest, RoutingHeaderSizesGrowWithCarriedAddresses) {
  Packet p;
  DsrSourceRoute sr;
  sr.route = {0, 1, 2, 3};
  p.mutable_routing() = sr;
  const auto four = p.wire_bytes();
  std::get<DsrSourceRoute>(p.mutable_routing()).route.push_back(4);
  EXPECT_EQ(p.wire_bytes(), four + 4);
}

TEST(PacketTest, MtsHeaderSizes) {
  MtsRreqHeader rreq;
  rreq.nodes = {1, 2, 3};
  EXPECT_EQ(wire::routing_wire_size(RoutingHeader{rreq}), 16u + 12u);

  MtsCheckHeader check;
  check.nodes = {1, 2};
  EXPECT_EQ(wire::routing_wire_size(RoutingHeader{check}), 16u + 8u);

  EXPECT_EQ(wire::routing_wire_size(RoutingHeader{MtsDataTag{}}), 4u);
  EXPECT_EQ(wire::routing_wire_size(RoutingHeader{std::monostate{}}), 0u);
}

TEST(PacketTest, AodvHeaderSizes) {
  EXPECT_EQ(wire::routing_wire_size(RoutingHeader{AodvRreqHeader{}}), 24u);
  EXPECT_EQ(wire::routing_wire_size(RoutingHeader{AodvRrepHeader{}}), 20u);
  AodvRerrHeader rerr;
  rerr.unreachable.push_back({1, 2});
  rerr.unreachable.push_back({3, 4});
  EXPECT_EQ(wire::routing_wire_size(RoutingHeader{rerr}), 4u + 16u);
}

TEST(PacketTest, ControlClassification) {
  EXPECT_FALSE(is_routing_control(PacketKind::kTcpData));
  EXPECT_FALSE(is_routing_control(PacketKind::kTcpAck));
  EXPECT_TRUE(is_routing_control(PacketKind::kAodvRreq));
  EXPECT_TRUE(is_routing_control(PacketKind::kDsrRerr));
  EXPECT_TRUE(is_routing_control(PacketKind::kMtsCheck));
  EXPECT_TRUE(is_routing_control(PacketKind::kMtsCheckError));
}

TEST(PacketTest, TransportClassification) {
  EXPECT_TRUE(is_transport(PacketKind::kTcpData));
  EXPECT_TRUE(is_transport(PacketKind::kTcpAck));
  EXPECT_FALSE(is_transport(PacketKind::kMtsRreq));
}

TEST(PacketTest, KindNamesAreDistinct) {
  EXPECT_STRNE(packet_kind_name(PacketKind::kTcpData),
               packet_kind_name(PacketKind::kTcpAck));
  EXPECT_STRNE(packet_kind_name(PacketKind::kMtsRreq),
               packet_kind_name(PacketKind::kMtsRrep));
}

TEST(PacketTest, SummaryMentionsKindAndEndpoints) {
  Packet p;
  auto& common = p.mutable_common();
  common.kind = PacketKind::kTcpData;
  common.src = 3;
  common.dst = 9;
  common.uid = 77;
  p.mutable_tcp().seq = 5;
  const std::string s = p.summary();
  EXPECT_NE(s.find("TCP_DATA"), std::string::npos);
  EXPECT_NE(s.find("3->9"), std::string::npos);
  EXPECT_NE(s.find("uid=77"), std::string::npos);
  EXPECT_NE(s.find("seq=5"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Handle semantics: sharing, copy-on-write, pool lifecycle.
// ---------------------------------------------------------------------------

TEST(PacketTest, CopySharesTheBody) {
  Packet a;
  a.mutable_common().uid = 42;
  EXPECT_TRUE(a.unique());
  Packet b = a;
  EXPECT_EQ(a.ref_count(), 2u);
  EXPECT_EQ(b.ref_count(), 2u);
  EXPECT_EQ(&a.common(), &b.common());  // literally the same body
}

TEST(PacketTest, MoveTransfersTheBodyWithoutRefcountTraffic) {
  Packet a;
  a.mutable_common().uid = 7;
  Packet b = std::move(a);
  EXPECT_FALSE(a.has_body());
  EXPECT_TRUE(b.unique());
  EXPECT_EQ(b.common().uid, 7u);
}

TEST(PacketTest, MutatingASharedBodyClonesItFirst) {
  Packet a;
  DsrSourceRoute sr;
  sr.route = {1, 2, 3};
  a.mutable_routing() = sr;
  a.mutable_common().uid = 32;

  Packet b = a;
  const auto before = packet_pool_stats().cow_clones;
  std::get<DsrSourceRoute>(b.mutable_routing()).route.push_back(4);
  b.mutable_common().uid = 31;
  EXPECT_EQ(packet_pool_stats().cow_clones, before + 1);  // one clone, then unique

  // The sibling still sees the original body, bit for bit.
  EXPECT_EQ(std::get<DsrSourceRoute>(a.routing()).route.size(), 3u);
  EXPECT_EQ(a.common().uid, 32u);
  EXPECT_EQ(std::get<DsrSourceRoute>(b.routing()).route.size(), 4u);
  EXPECT_EQ(b.common().uid, 31u);
  EXPECT_TRUE(a.unique());
  EXPECT_TRUE(b.unique());
}

TEST(PacketTest, MutatingAUniqueBodyNeverClones) {
  Packet p;
  const auto before = packet_pool_stats().cow_clones;
  p.mutable_common().uid = 5;
  auto& sr = p.mutable_routing();
  sr = DsrSourceRoute{};
  p.mutable_common().uid = 4;
  EXPECT_EQ(packet_pool_stats().cow_clones, before);
}

TEST(PacketTest, HopCellMutatesWithoutCloningAndStaysPerHandle) {
  Packet a;
  a.mutable_common().uid = 1;
  EXPECT_EQ(a.hop().ttl, 32);  // freshly originated default

  Packet b = a;
  const auto before = packet_pool_stats();
  --b.mutable_hop().ttl;
  b.mutable_hop().cursor = 3;
  // No clone, no acquire: the cell lives in the handle, not the body.
  EXPECT_EQ(packet_pool_stats().cow_clones, before.cow_clones);
  EXPECT_EQ(packet_pool_stats().acquired, before.acquired);
  EXPECT_EQ(packet_pool_stats().cell_acquired, before.cell_acquired + 2);
  EXPECT_EQ(a.ref_count(), 2u);  // still shared

  // CoW-observable isolation: the sibling keeps its own cell...
  EXPECT_EQ(a.hop().ttl, 32);
  EXPECT_EQ(a.hop().cursor, 0);
  EXPECT_EQ(b.hop().ttl, 31);
  EXPECT_EQ(b.hop().cursor, 3u);
  // ...and later copies carry the mutation forward.
  Packet c = b;
  EXPECT_EQ(c.hop().ttl, 31);
  EXPECT_EQ(c.hop().cursor, 3u);
}

TEST(PacketTest, HopCellResetsWithTheHandle) {
  Packet p;
  p.mutable_common().uid = 2;
  p.mutable_hop().ttl = 7;
  p.mutable_hop().hops = 4;
  p.reset();
  EXPECT_EQ(p.hop(), HopState{});
}

TEST(PacketTest, LastReleaseReturnsTheBodyToThePool) {
  const auto before = packet_pool_stats();
  {
    Packet a;
    a.mutable_common().uid = 1;
    Packet b = a;
    Packet c = std::move(a);
    EXPECT_EQ(packet_pool_stats().live(), before.live() + 1);
  }
  const auto after = packet_pool_stats();
  EXPECT_EQ(after.live(), before.live());
  EXPECT_EQ(after.acquired, before.acquired + 1);
  EXPECT_EQ(after.released, before.released + 1);
}

TEST(PacketTest, PoolRecyclesReleasedBodies) {
  const CommonHeader* recycled = nullptr;
  {
    Packet a;
    a.mutable_common().uid = 9;
    recycled = &a.common();
  }
  // The released slot is first in the free list: the next acquire must
  // reuse it (LIFO), with a bumped generation and cleared headers.
  Packet b;
  (void)b.mutable_common();
  EXPECT_EQ(&b.common(), recycled);
  EXPECT_EQ(b.common().uid, 0u);
  EXPECT_FALSE(b.has_tcp());
  EXPECT_TRUE(std::holds_alternative<std::monostate>(b.routing()));
}

TEST(PacketTest, ReadingThroughAnEmptyHandleTrips) {
  const Packet p;
  EXPECT_FALSE(p.has_body());
  EXPECT_FALSE(p.has_tcp());
  EXPECT_THROW((void)p.common(), sim::SimError);
  EXPECT_THROW((void)p.wire_bytes(), sim::SimError);
}

TEST(PacketTest, AssignmentReleasesThePreviousBody) {
  const auto before = packet_pool_stats().live();
  Packet a;
  a.mutable_common().uid = 1;
  Packet b;
  b.mutable_common().uid = 2;
  EXPECT_EQ(packet_pool_stats().live(), before + 2);
  b = a;  // b's old body returns to the pool
  EXPECT_EQ(packet_pool_stats().live(), before + 1);
  EXPECT_EQ(b.common().uid, 1u);
  a.reset();
  b.reset();
  EXPECT_EQ(packet_pool_stats().live(), before);
}

TEST(UidSourceTest, MonotonicAndCounts) {
  UidSource u;
  EXPECT_EQ(u.next(), 1u);
  EXPECT_EQ(u.next(), 2u);
  EXPECT_EQ(u.issued(), 2u);
}

}  // namespace
}  // namespace mts::net
