#include "net/ring.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "net/queue.hpp"
#include "routing/send_buffer.hpp"

namespace mts::net {
namespace {

std::vector<int> contents(const Ring<int>& r) {
  std::vector<int> out;
  for (std::size_t i = 0; i < r.size(); ++i) out.push_back(r[i]);
  return out;
}

TEST(RingTest, EmptyRingAllocatesNothing) {
  Ring<int> r(50);
  EXPECT_TRUE(r.empty());
  EXPECT_EQ(r.capacity(), 0u);
}

TEST(RingTest, GrowsByDoublingUpToTheLimit) {
  Ring<int> r(50);
  std::vector<std::size_t> caps;
  for (int i = 0; i < 50; ++i) {
    r.push_back(i);
    if (caps.empty() || caps.back() != r.capacity()) {
      caps.push_back(r.capacity());
    }
  }
  EXPECT_EQ(caps, (std::vector<std::size_t>{1, 2, 4, 8, 16, 32, 50}));
  EXPECT_THROW(r.push_back(50), sim::SimError);
}

TEST(RingTest, FifoOrderAcrossWrapAroundAndGrowth) {
  Ring<int> r(64);
  int next_in = 0;
  int next_out = 0;
  // Keep the ring part-full while the head walks around it, and grow it
  // while the live window straddles the end of the storage.
  for (int round = 0; round < 6; ++round) {
    for (int k = 0; k < 3 + round; ++k) r.push_back(next_in++);
    for (int k = 0; k < 2; ++k) EXPECT_EQ(r.pop_front(), next_out++);
  }
  EXPECT_EQ(r.size(), static_cast<std::size_t>(next_in - next_out));
  std::vector<int> want;
  for (int v = next_out; v < next_in; ++v) want.push_back(v);
  EXPECT_EQ(contents(r), want);
  while (!r.empty()) EXPECT_EQ(r.pop_front(), next_out++);
  EXPECT_EQ(next_out, next_in);
}

TEST(RingTest, PushFrontAndPopBackWorkAcrossTheWrap) {
  Ring<int> r(64);
  r.push_back(2);
  r.push_front(1);  // wraps the head to the end of the storage
  r.push_back(3);
  r.push_front(0);
  EXPECT_EQ(contents(r), (std::vector<int>{0, 1, 2, 3}));
  EXPECT_EQ(r.front(), 0);
  EXPECT_EQ(r.pop_back(), 3);
  EXPECT_EQ(r.pop_back(), 2);
  EXPECT_EQ(r.pop_front(), 0);
  EXPECT_EQ(contents(r), (std::vector<int>{1}));
}

TEST(RingTest, ExtractIfKeepsTheOrderOfBothHalves) {
  Ring<int> r(64);
  // Start the live window mid-storage so the scan crosses the wrap.
  for (int i = 0; i < 5; ++i) r.push_back(-1);
  for (int i = 0; i < 5; ++i) r.pop_front();
  for (int i = 0; i < 8; ++i) r.push_back(i);
  ASSERT_EQ(r.capacity(), 8u);  // no growth: the window does wrap
  std::vector<int> out;
  const std::size_t n = r.extract_if([](int v) { return v % 3 == 0; },
                                     [&out](int&& v) { out.push_back(v); });
  EXPECT_EQ(n, 3u);
  EXPECT_EQ(out, (std::vector<int>{0, 3, 6}));
  EXPECT_EQ(contents(r), (std::vector<int>{1, 2, 4, 5, 7}));
  r.push_back(10);  // still a working FIFO afterwards
  EXPECT_EQ(r.pop_front(), 1);
  EXPECT_EQ(contents(r), (std::vector<int>{2, 4, 5, 7, 10}));
}

TEST(RingTest, ExtractIfOnEmptyAndNoMatch) {
  Ring<int> r(64);
  EXPECT_EQ(r.extract_if([](int) { return true; }, [](int&&) {}), 0u);
  r.push_back(1);
  r.push_back(2);
  EXPECT_EQ(r.extract_if([](int) { return false; }, [](int&&) {}), 0u);
  EXPECT_EQ(contents(r), (std::vector<int>{1, 2}));
}

TEST(RingTest, DestroysWhatItHolds) {
  auto token = std::make_shared<int>(0);
  {
    Ring<std::shared_ptr<int>> r(8);
    for (int i = 0; i < 6; ++i) r.push_back(token);
    r.pop_front();
    r.pop_back();
    EXPECT_EQ(token.use_count(), 5);
    r.extract_if([](const std::shared_ptr<int>& p) { return p != nullptr; },
                 [](std::shared_ptr<int>&&) {});
    EXPECT_EQ(token.use_count(), 1);
    for (int i = 0; i < 3; ++i) r.push_back(token);
  }
  EXPECT_EQ(token.use_count(), 1);
}

Packet data_packet(NodeId dst, std::uint32_t uid) {
  Packet p;
  p.mutable_common().kind = PacketKind::kTcpData;
  p.mutable_common().dst = dst;
  p.mutable_common().uid = uid;
  return p;
}

Packet control_packet(std::uint32_t uid) {
  Packet p;
  p.mutable_common().kind = PacketKind::kAodvRreq;
  p.mutable_common().uid = uid;
  return p;
}

TEST(RingTest, PriQueueEvictsNewestDataAfterTheBandWrapped) {
  PriQueue q(4);
  for (std::uint32_t uid = 10; uid < 14; ++uid) {
    q.enqueue({data_packet(9, uid), 5});
  }
  // Free the two front slots and refill them: the data band's newest
  // packet now sits at the start of its storage, behind the head.
  EXPECT_EQ(q.dequeue()->packet.common().uid, 10u);
  EXPECT_EQ(q.dequeue()->packet.common().uid, 11u);
  q.enqueue({data_packet(9, 14), 5});
  q.enqueue({data_packet(9, 15), 5});
  EXPECT_EQ(q.reserved(), 4u);
  auto evicted = q.enqueue({control_packet(20), kBroadcastId});
  ASSERT_TRUE(evicted.has_value());
  EXPECT_EQ(evicted->packet.common().uid, 15u);  // the newest data packet
  std::vector<std::uint32_t> order;
  while (auto item = q.dequeue()) order.push_back(item->packet.common().uid);
  EXPECT_EQ(order, (std::vector<std::uint32_t>{20, 12, 13, 14}));
}

TEST(RingTest, DefaultQueuesHoldNoHeapStorage) {
  PriQueue q;
  routing::SendBuffer b;
  EXPECT_EQ(q.reserved(), 0u);
  EXPECT_EQ(b.reserved(), 0u);
  // Storage appears with the first packet and stays once drained.
  q.enqueue({control_packet(1), kBroadcastId});
  b.push(data_packet(3, 2), sim::Time::zero());
  EXPECT_EQ(q.reserved(), 1u);
  EXPECT_EQ(b.reserved(), 1u);
  q.dequeue();
  EXPECT_EQ(q.reserved(), 1u);
}

}  // namespace
}  // namespace mts::net
