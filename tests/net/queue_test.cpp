#include "net/queue.hpp"

#include <gtest/gtest.h>

namespace mts::net {
namespace {

Packet data_packet(NodeId dst = 9, std::uint32_t uid = 0) {
  Packet p;
  auto& common = p.mutable_common();
  common.kind = PacketKind::kTcpData;
  common.dst = dst;
  common.uid = uid;
  return p;
}

Packet control_packet(std::uint32_t uid = 0) {
  Packet p;
  p.mutable_common().kind = PacketKind::kAodvRreq;
  p.mutable_common().uid = uid;
  return p;
}

TEST(PriQueueTest, FifoWithinBand) {
  PriQueue q(10);
  q.enqueue({data_packet(9, 1), 5});
  q.enqueue({data_packet(9, 2), 5});
  EXPECT_EQ(q.dequeue()->packet.common().uid, 1u);
  EXPECT_EQ(q.dequeue()->packet.common().uid, 2u);
  EXPECT_FALSE(q.dequeue().has_value());
}

TEST(PriQueueTest, ControlPreemptsData) {
  PriQueue q(10);
  q.enqueue({data_packet(9, 1), 5});
  q.enqueue({control_packet(2), kBroadcastId});
  q.enqueue({data_packet(9, 3), 5});
  EXPECT_EQ(q.dequeue()->packet.common().uid, 2u);  // control first
  EXPECT_EQ(q.dequeue()->packet.common().uid, 1u);
  EXPECT_EQ(q.dequeue()->packet.common().uid, 3u);
}

TEST(PriQueueTest, DropTailWhenFullOfData) {
  PriQueue q(2);
  EXPECT_FALSE(q.enqueue({data_packet(9, 1), 5}).has_value());
  EXPECT_FALSE(q.enqueue({data_packet(9, 2), 5}).has_value());
  auto dropped = q.enqueue({data_packet(9, 3), 5});
  ASSERT_TRUE(dropped.has_value());
  EXPECT_EQ(dropped->packet.common().uid, 3u);  // the arrival dies
  EXPECT_EQ(q.size(), 2u);
}

TEST(PriQueueTest, ControlEvictsNewestDataWhenFull) {
  PriQueue q(2);
  q.enqueue({data_packet(9, 1), 5});
  q.enqueue({data_packet(9, 2), 5});
  auto dropped = q.enqueue({control_packet(3), kBroadcastId});
  ASSERT_TRUE(dropped.has_value());
  EXPECT_EQ(dropped->packet.common().uid, 2u);  // newest data evicted
  EXPECT_EQ(q.control_size(), 1u);
  EXPECT_EQ(q.data_size(), 1u);
}

TEST(PriQueueTest, ControlDroppedWhenFullOfControl) {
  PriQueue q(2);
  q.enqueue({control_packet(1), kBroadcastId});
  q.enqueue({control_packet(2), kBroadcastId});
  auto dropped = q.enqueue({control_packet(3), kBroadcastId});
  ASSERT_TRUE(dropped.has_value());
  EXPECT_EQ(dropped->packet.common().uid, 3u);
}

TEST(PriQueueTest, ExtractIfRemovesFromBothBands) {
  PriQueue q(10);
  q.enqueue({data_packet(9, 1), 5});
  q.enqueue({data_packet(9, 2), 6});
  q.enqueue({control_packet(3), 5});
  std::vector<std::uint32_t> drained;
  const std::size_t n = q.extract_if(
      [](const QueueItem& item) { return item.next_hop == 5; },
      [&](QueueItem&& item) { drained.push_back(item.packet.common().uid); });
  EXPECT_EQ(n, 2u);
  EXPECT_EQ(drained, (std::vector<std::uint32_t>{3, 1}));  // control first
  EXPECT_EQ(q.size(), 1u);
}

TEST(PriQueueTest, ExtractIfCanSelectDataOnly) {
  PriQueue q(10);
  q.enqueue({data_packet(7, 1), 5});
  q.enqueue({data_packet(8, 2), 5});
  Packet ctl = control_packet(3);
  ctl.mutable_common().dst = 7;
  q.enqueue({ctl, 5});
  std::size_t n = q.extract_if(
      [](const QueueItem& i) {
        return !i.packet.is_control() && i.packet.common().dst == 7;
      },
      [](QueueItem&&) {});
  EXPECT_EQ(n, 1u);  // the control packet to 7 stays
  EXPECT_EQ(q.size(), 2u);
}

TEST(PriQueueTest, CapacityAccounting) {
  PriQueue q(3);
  EXPECT_EQ(q.capacity(), 3u);
  EXPECT_TRUE(q.empty());
  q.enqueue({data_packet(), 1});
  EXPECT_FALSE(q.empty());
  EXPECT_EQ(q.size(), 1u);
}

}  // namespace
}  // namespace mts::net
