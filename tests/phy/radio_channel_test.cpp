#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "net/packet.hpp"
#include "phy/channel.hpp"
#include "phy/radio.hpp"
#include "sim/rng.hpp"

namespace mts::phy {
namespace {

/// Adapts the radio's listener interface to per-test lambdas.
struct StubListener final : Radio::Listener {
  std::function<void(const Frame&)> frame;
  std::function<void(bool)> busy;
  void on_frame(const Frame& f) override {
    if (frame) frame(f);
  }
  void on_medium_busy(bool b) override {
    if (busy) busy(b);
  }
  void on_tx_done() override {}
};

/// Three radios on a line; positions chosen per test.
class RadioChannelTest : public ::testing::Test {
 protected:
  void build(std::vector<mobility::Vec2> positions, double range = 250.0,
             double cs_factor = 1.0) {
    prop_ = std::make_unique<UnitDiskPropagation>(range);
    ChannelConfig cc;
    cc.cs_range_factor = cs_factor;
    channel_ = std::make_unique<Channel>(sched_, *prop_, cc);
    // Callbacks capture element addresses: size the containers up front.
    received_.reserve(positions.size());
    busy_log_.reserve(positions.size());
    for (std::size_t i = 0; i < positions.size(); ++i) {
      radios_.push_back(std::make_unique<Radio>(
          sched_, static_cast<net::NodeId>(i), &counters_[i]));
      received_.emplace_back();
      busy_log_.emplace_back();
      auto* rx = &received_.back();
      auto* busy = &busy_log_.back();
      listeners_.push_back(std::make_unique<StubListener>());
      listeners_.back()->frame = [rx](const Frame& f) { rx->push_back(f); };
      listeners_.back()->busy = [busy](bool b) { busy->push_back(b); };
      radios_.back()->set_listener(listeners_.back().get());
      radios_.back()->set_edge_calls(true);
      channel_->attach(radios_.back().get(), mobility::Trajectory(positions[i]));
    }
    channel_->finalize();
  }

  Frame frame(net::NodeId tx, net::NodeId rx) {
    Frame f;
    f.transmitter = tx;
    f.receiver = rx;
    f.bytes = 100;
    return f;
  }

  /// Radio `tx` sends a frame to radio 1 at `at` for `airtime`.
  void key_up_at(sim::Time at, net::NodeId tx, sim::Time airtime) {
    sched_.schedule_at(at, [this, tx, airtime] {
      radios_[tx]->start_transmit(frame(tx, 1), airtime);
    });
  }

  sim::Scheduler sched_;
  net::Counters counters_[17];
  std::unique_ptr<UnitDiskPropagation> prop_;
  std::unique_ptr<Channel> channel_;
  std::vector<std::unique_ptr<Radio>> radios_;
  std::vector<std::unique_ptr<StubListener>> listeners_;
  std::vector<std::vector<Frame>> received_;
  std::vector<std::vector<bool>> busy_log_;
};

TEST_F(RadioChannelTest, DeliversWithinRange) {
  build({{0, 0}, {200, 0}});
  radios_[0]->start_transmit(frame(0, 1), sim::Time::ms(1));
  sched_.run();
  ASSERT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(received_[1][0].transmitter, 0u);
  EXPECT_EQ(received_[0].size(), 0u);  // no self-reception
}

TEST_F(RadioChannelTest, NoDeliveryBeyondRange) {
  build({{0, 0}, {300, 0}});
  radios_[0]->start_transmit(frame(0, 1), sim::Time::ms(1));
  sched_.run();
  EXPECT_TRUE(received_[1].empty());
}

TEST_F(RadioChannelTest, BroadcastReachesAllInRange) {
  build({{0, 0}, {100, 0}, {200, 0}, {600, 0}});
  radios_[0]->start_transmit(frame(0, net::kBroadcastId), sim::Time::ms(1));
  sched_.run();
  EXPECT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(received_[2].size(), 1u);
  EXPECT_TRUE(received_[3].empty());  // 600 m away
}

TEST_F(RadioChannelTest, FramesAddressedElsewhereStillDecoded) {
  // The radio hands every decodable frame up; filtering is MAC business
  // (and the eavesdropper depends on it).
  build({{0, 0}, {100, 0}, {200, 0}});
  radios_[0]->start_transmit(frame(0, 2), sim::Time::ms(1));
  sched_.run();
  EXPECT_EQ(received_[1].size(), 1u);  // overheard
  EXPECT_EQ(received_[2].size(), 1u);
}

TEST_F(RadioChannelTest, OverlappingReceptionsCollide) {
  // 0 and 2 both in range of 1; equidistant -> no capture, both corrupt.
  build({{0, 0}, {100, 0}, {200, 0}});
  radios_[0]->start_transmit(frame(0, 1), sim::Time::ms(1));
  radios_[2]->start_transmit(frame(2, 1), sim::Time::ms(1));
  sched_.run();
  EXPECT_TRUE(received_[1].empty());
  EXPECT_EQ(radios_[1]->collisions(), 2u);
}

TEST_F(RadioChannelTest, CaptureStrongerFirstFrameSurvives) {
  // Sender 0 is 50 m away (strong); interferer 2 is 200 m away.  Power
  // ratio (200/50)^4 = 256 >> 10, so 1 captures 0's frame.
  build({{0, 0}, {50, 0}, {250, 0}});
  radios_[0]->start_transmit(frame(0, 1), sim::Time::ms(1));
  sched_.run_until(sim::Time::us(100));
  radios_[2]->start_transmit(frame(2, 1), sim::Time::ms(1));
  sched_.run();
  ASSERT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(received_[1][0].transmitter, 0u);
}

TEST_F(RadioChannelTest, NoCaptureWhenComparablePower) {
  // Interferer at similar distance: both die.
  build({{0, 0}, {100, 0}, {210, 0}});
  radios_[0]->start_transmit(frame(0, 1), sim::Time::ms(1));
  sched_.run_until(sim::Time::us(100));
  radios_[2]->start_transmit(frame(2, 1), sim::Time::ms(1));
  sched_.run();
  EXPECT_TRUE(received_[1].empty());
}

TEST_F(RadioChannelTest, CaptureKeepsFirstFrameAcrossTwoWeakArrivals) {
  // Receiver 1 locks onto sender 0 at 50 m; radios 2 and 3, 200 m from
  // it (256x weaker), overlap each other and the reception.
  build({{0, 0}, {50, 0}, {250, 0}, {50, 200}});
  radios_[0]->start_transmit(frame(0, 1), sim::Time::ms(1));
  key_up_at(sim::Time::us(100), 2, sim::Time::us(200));
  key_up_at(sim::Time::us(150), 3, sim::Time::us(200));
  sched_.run();
  ASSERT_EQ(received_[1].size(), 1u);
  EXPECT_EQ(received_[1][0].transmitter, 0u);
  EXPECT_EQ(radios_[1]->collisions(), 2u);
}

TEST_F(RadioChannelTest, ComparableThirdArrivalCorruptsACapturedFrame) {
  // The same two weak arrivals, then radio 4 from 60 m (2.1x weaker).
  build({{0, 0}, {50, 0}, {250, 0}, {50, 200}, {50, -60}});
  radios_[0]->start_transmit(frame(0, 1), sim::Time::ms(1));
  key_up_at(sim::Time::us(100), 2, sim::Time::us(200));
  key_up_at(sim::Time::us(150), 3, sim::Time::us(200));
  key_up_at(sim::Time::us(400), 4, sim::Time::us(50));
  sched_.run();
  EXPECT_TRUE(received_[1].empty());
  EXPECT_EQ(radios_[1]->collisions(), 4u);
}

TEST_F(RadioChannelTest, MuchStrongerNewcomerCorruptsAndIsCorrupt) {
  // Receiver 1 hears 0 from 200 m; radio 2 then keys up 50 m away,
  // 256x stronger.  Capture only ever protects the reception in flight:
  // the first frame is corrupted and the newcomer is noise too.
  build({{0, 0}, {200, 0}, {250, 0}});
  radios_[0]->start_transmit(frame(0, 1), sim::Time::ms(1));
  sched_.run_until(sim::Time::us(100));
  radios_[2]->start_transmit(frame(2, 1), sim::Time::us(100));
  sched_.run();
  EXPECT_TRUE(received_[1].empty());
  EXPECT_EQ(radios_[1]->collisions(), 2u);
}

TEST_F(RadioChannelTest, LateWeakFrameNeverDecodedEvenAfterStrongEnds) {
  // The newcomer is always undecodable if the medium was busy at its
  // start (ns-2 semantics), even though the first frame ends earlier.
  build({{0, 0}, {50, 0}, {250, 0}});
  radios_[0]->start_transmit(frame(0, 1), sim::Time::us(200));
  sched_.run_until(sim::Time::us(100));
  radios_[2]->start_transmit(frame(2, 1), sim::Time::ms(1));
  sched_.run();
  ASSERT_EQ(received_[1].size(), 1u);  // only the strong one
  EXPECT_EQ(received_[1][0].transmitter, 0u);
}

TEST_F(RadioChannelTest, DeafWhileTransmitting) {
  build({{0, 0}, {100, 0}});
  radios_[1]->start_transmit(frame(1, 0), sim::Time::ms(2));
  sched_.run_until(sim::Time::us(10));
  radios_[0]->start_transmit(frame(0, 1), sim::Time::us(50));
  sched_.run();
  // Radio 1 was mid-transmission when 0's frame arrived: nothing decoded.
  EXPECT_TRUE(received_[1].empty());
  // Radio 0 receives 1's frame corrupted? No: 0 keyed up at t=10us while
  // receiving 1's frame -> that reception is corrupted.
  EXPECT_TRUE(received_[0].empty());
}

TEST_F(RadioChannelTest, HalfDuplexTransmitCorruptsOngoingReception) {
  build({{0, 0}, {100, 0}, {200, 0}});
  radios_[0]->start_transmit(frame(0, 1), sim::Time::ms(1));
  sched_.run_until(sim::Time::us(100));
  // Radio 1 keys up mid-reception: its ongoing reception dies.
  radios_[1]->start_transmit(frame(1, 2), sim::Time::us(50));
  sched_.run();
  EXPECT_TRUE(received_[1].empty());
  EXPECT_EQ(radios_[1]->collisions(), 1u);
}

TEST_F(RadioChannelTest, EnergyBeyondDecodeRangeTriggersCarrierOnly) {
  // cs_factor 2.2: a node at 400 m senses energy but decodes nothing.
  build({{0, 0}, {400, 0}}, 250.0, 2.2);
  radios_[0]->start_transmit(frame(0, net::kBroadcastId), sim::Time::ms(1));
  sched_.run();
  EXPECT_TRUE(received_[1].empty());
  // Carrier went busy then idle.
  ASSERT_GE(busy_log_[1].size(), 2u);
  EXPECT_TRUE(busy_log_[1][0]);
  EXPECT_FALSE(busy_log_[1].back());
}

TEST_F(RadioChannelTest, MediumBusyEdgesArePaired) {
  build({{0, 0}, {100, 0}});
  radios_[0]->start_transmit(frame(0, 1), sim::Time::ms(1));
  sched_.run();
  ASSERT_EQ(busy_log_[1].size(), 2u);
  EXPECT_TRUE(busy_log_[1][0]);
  EXPECT_FALSE(busy_log_[1][1]);
  EXPECT_FALSE(radios_[1]->medium_busy());
}

TEST_F(RadioChannelTest, TransmitterSeesOwnBusyPeriod) {
  build({{0, 0}, {100, 0}});
  radios_[0]->start_transmit(frame(0, 1), sim::Time::ms(1));
  EXPECT_TRUE(radios_[0]->transmitting());
  EXPECT_TRUE(radios_[0]->medium_busy());
  sched_.run();
  EXPECT_FALSE(radios_[0]->transmitting());
}

TEST_F(RadioChannelTest, NeighborsOfReportsExact) {
  // The grid pre-filters candidates; the result is exact membership in
  // ascending id order.
  build({{0, 0}, {100, 0}, {240, 0}, {600, 0}});
  Channel::NeighborVec n;
  channel_->neighbors_of(0, sim::Time::zero(), n);
  EXPECT_EQ(n, (std::vector<net::NodeId>{1, 2}));
  channel_->neighbors_of(2, sim::Time::zero(), n);
  EXPECT_EQ(n, (std::vector<net::NodeId>{0, 1}));
  channel_->neighbors_of(3, sim::Time::zero(), n);
  EXPECT_TRUE(n.empty());  // refilling must discard the previous result
}

TEST(ChannelTrajectoryTest, OwnedTrajectoriesMatchUntrimmedTwinsThroughRebuilds) {
  // 200 moving nodes queried at non-decreasing times: every grid rebuild
  // runs the snapshot hook, which trims the channel's trajectories.  Each
  // answer must equal a twin built from the same substream and never
  // trimmed, and neighbors_of must equal an all-pairs scan of the twins.
  constexpr std::uint32_t kNodes = 200;
  mobility::RandomWaypointConfig rc;
  rc.field = mobility::Field{2000, 2000};
  rc.max_speed = 20.0;
  rc.pause = sim::Time::ms(200);
  const sim::Rng mob = sim::Rng(42).substream("mobility");
  sim::Scheduler sched;
  UnitDiskPropagation prop(250.0);
  Channel channel(sched, prop);
  channel.reserve(kNodes);
  std::vector<std::unique_ptr<Radio>> radios;
  std::vector<mobility::Trajectory> twins;
  for (net::NodeId i = 0; i < kNodes; ++i) {
    radios.push_back(std::make_unique<Radio>(sched, i, nullptr));
    channel.attach(radios.back().get(),
                   mobility::Trajectory(rc, mob.substream(i)));
    twins.emplace_back(rc, mob.substream(i));
  }
  channel.finalize();

  Channel::NeighborVec got;
  std::vector<net::NodeId> want;
  for (int step = 0; step <= 1200; ++step) {
    const sim::Time t = sim::Time::ms(100 * step);
    const net::NodeId probe = static_cast<net::NodeId>(step) % kNodes;
    channel.neighbors_of(probe, t, got);  // refreshes a stale grid
    want.clear();
    const mobility::Vec2 p = twins[probe].position_at(t);
    for (net::NodeId j = 0; j < kNodes; ++j) {
      if (j != probe && prop.in_range(p, twins[j].position_at(t))) {
        want.push_back(j);
      }
    }
    ASSERT_EQ(got, want) << "probe " << probe << " at step " << step;
    for (net::NodeId i = 0; i < kNodes; ++i) {
      ASSERT_EQ(channel.position_of(i, t), twins[i].position_at(t))
          << "node " << i << " at step " << step;
    }
  }
  EXPECT_GE(channel.index().rebuild_count(), 150u);
  std::size_t twin_live = 0;
  for (const mobility::Trajectory& tw : twins) twin_live += tw.stats().live;
  const mobility::Trajectory::Stats s = channel.mobility_stats();
  EXPECT_GT(s.pruned, 0u);
  EXPECT_EQ(s.live, s.generated - s.pruned);
  EXPECT_LT(s.live, twin_live);
}

TEST_F(RadioChannelTest, InFlightBroadcastSiblingsSurviveReceiverMutation) {
  // Node 1 (near) decodes first and immediately mutates its packet the
  // way a flood relay does — TTL down, record append — while node 2's
  // copy is still in flight in the channel pool.  Node 2 and the
  // sender's own handle must keep seeing the original body.
  build({{0, 0}, {100, 0}, {200, 0}});
  net::Packet fwd;
  listeners_[1]->frame = [&fwd](const Frame& f) {
    fwd = f.payload;  // refcount bump, as the MAC/routing seam does
    --fwd.mutable_hop().ttl;
    std::get<net::DsrRreqHeader>(fwd.mutable_routing()).record.push_back(1);
  };
  Frame f = frame(0, net::kBroadcastId);
  f.payload.mutable_common().kind = net::PacketKind::kDsrRreq;
  f.payload.mutable_hop().ttl = 32;
  net::DsrRreqHeader h;
  h.orig = 0;
  f.payload.mutable_routing() = h;
  radios_[0]->start_transmit(f, sim::Time::ms(1));
  sched_.run();
  // The relay saw (and kept) its mutated clone...
  ASSERT_TRUE(fwd.has_body());
  EXPECT_EQ(fwd.hop().ttl, 31);
  // ...while the far receiver decoded the untouched original.
  ASSERT_EQ(received_[2].size(), 1u);
  const net::Packet& far = received_[2][0].payload;
  EXPECT_EQ(far.hop().ttl, 32);
  EXPECT_TRUE(std::get<net::DsrRreqHeader>(far.routing()).record.empty());
  // The sender's handle is intact too.
  EXPECT_EQ(f.payload.hop().ttl, 32);
}

TEST_F(RadioChannelTest, BroadcastIsOneWaveEvent) {
  // 16 receivers on a ring: the whole fan-out waits in the scheduler as
  // one wave next to the sender's tx-done, not one event per receiver.
  std::vector<mobility::Vec2> pos{{0, 0}};
  for (int i = 0; i < 16; ++i) {
    const double a = 2.0 * 3.141592653589793 * i / 16.0;
    pos.push_back({(50.0 + 10.0 * i) * std::cos(a),
                   (50.0 + 10.0 * i) * std::sin(a)});
  }
  build(pos);
  radios_[0]->start_transmit(frame(0, net::kBroadcastId), sim::Time::ms(1));
  EXPECT_EQ(sched_.pending_count(), 2u);
  sched_.run();
  for (std::size_t i = 1; i < pos.size(); ++i) {
    EXPECT_EQ(received_[i].size(), 1u) << "receiver " << i;
  }
  // Logical events still count one per arrival and one per end.
  EXPECT_EQ(sched_.executed_count(sim::EventCategory::kChannel), 16u);
  EXPECT_EQ(sched_.executed_count(sim::EventCategory::kPhy), 17u);
}

TEST_F(RadioChannelTest, ProbeBetweenArrivalsInterleavesInOrder) {
  // Arrivals at 100 m and 200 m land at 334 ns and 667 ns.  Events at
  // those ticks order by sequence: the one scheduled before the
  // transmission goes first, the ones scheduled after go after.
  build({{0, 0}, {100, 0}, {200, 0}});
  std::vector<std::pair<std::size_t, std::size_t>> seen;
  const auto probe = [&] {
    seen.emplace_back(busy_log_[1].size(), busy_log_[2].size());
  };
  sched_.schedule_at(sim::Time::ns(667), probe);
  radios_[0]->start_transmit(frame(0, net::kBroadcastId), sim::Time::ms(1));
  sched_.schedule_at(sim::Time::ns(334), probe);
  sched_.schedule_at(sim::Time::ns(500), probe);
  sched_.schedule_at(sim::Time::ns(667), probe);
  sched_.run();
  using Seen = std::vector<std::pair<std::size_t, std::size_t>>;
  EXPECT_EQ(seen, (Seen{{1, 0}, {1, 0}, {1, 0}, {1, 1}}));
}

TEST_F(RadioChannelTest, ReceiverKeyingUpMidWaveGetsNoReceptionEnd) {
  // Radio 2 starts transmitting after the wave reached radio 1 but
  // before it reaches radio 2, so radio 2 is deaf to it.
  build({{0, 0}, {100, 0}, {200, 0}});
  radios_[0]->start_transmit(frame(0, net::kBroadcastId), sim::Time::ms(1));
  sched_.schedule_at(sim::Time::ns(500), [&] {
    radios_[2]->start_transmit(frame(2, net::kBroadcastId),
                               sim::Time::us(50));
  });
  sched_.run();
  EXPECT_TRUE(received_[2].empty());
  EXPECT_EQ(radios_[2]->collisions(), 0u);
  // Arrivals: radio 0's frame at 1 and 2, radio 2's at 1 and 0.  Ends:
  // two tx-dones plus radio 1's two receptions; radio 2 (keyed up) and
  // radio 0 (transmitting) start none.
  EXPECT_EQ(sched_.executed_count(sim::EventCategory::kChannel), 4u);
  EXPECT_EQ(sched_.executed_count(sim::EventCategory::kPhy), 4u);
  EXPECT_EQ(radios_[1]->collisions(), 2u);
  EXPECT_EQ(sched_.pending_count(), 0u);
}

TEST_F(RadioChannelTest, FinishedWavePinsNoPacketBody) {
  build({{0, 0}, {100, 0}, {200, 0}, {300, 0}},
        /*range=*/250.0, /*cs_factor=*/2.2);
  for (auto& r : radios_) r->set_listener(nullptr);
  const std::uint64_t before = net::packet_pool_stats().live();
  {
    Frame f = frame(0, net::kBroadcastId);
    f.payload.mutable_common().kind = net::PacketKind::kDsrRreq;
    radios_[0]->start_transmit(f, sim::Time::ms(1));
  }
  // The sender dropped its handle; the in-flight wave still holds it.
  EXPECT_EQ(net::packet_pool_stats().live(), before + 1);
  sched_.run();
  EXPECT_EQ(radios_[3]->frames_decoded(), 0u);  // 300 m: energy only
  EXPECT_EQ(radios_[2]->frames_decoded(), 1u);
  EXPECT_EQ(net::packet_pool_stats().live(), before);
}

TEST_F(RadioChannelTest, DeliveredFrameOutlivesWavePoolGrowth) {
  // Receiver 1's on_frame callback keys up 15 other radios, each
  // launching a wave of its own, so the pool grows well past its size
  // while the delivered frame — the wave's one copy — is still in use.
  std::vector<mobility::Vec2> pos{{0, 0}};
  for (int i = 1; i < 17; ++i) {
    const double a = 2.0 * 3.141592653589793 * i / 16.0;
    pos.push_back({60.0 * std::cos(a), 60.0 * std::sin(a)});
  }
  build(pos);
  bool checked = false;
  listeners_[1]->frame = [&](const Frame& f) {
    if (checked) return;
    for (std::size_t k = 2; k < radios_.size(); ++k) {
      radios_[k]->start_transmit(
          frame(static_cast<net::NodeId>(k), net::kBroadcastId),
          sim::Time::us(50));
    }
    EXPECT_EQ(f.transmitter, 0u);
    EXPECT_EQ(f.receiver, 1u);
    EXPECT_EQ(f.bytes, 100u);
    EXPECT_EQ(f.seq, 7u);
    ASSERT_TRUE(f.has_payload());
    EXPECT_EQ(f.payload.common().kind, net::PacketKind::kDsrRreq);
    EXPECT_EQ(f.payload.hop().ttl, 32);
    checked = true;
  };
  Frame f = frame(0, 1);
  f.seq = 7;
  f.payload.mutable_common().kind = net::PacketKind::kDsrRreq;
  f.payload.mutable_hop().ttl = 32;
  radios_[0]->start_transmit(f, sim::Time::ms(1));
  sched_.run();
  EXPECT_TRUE(checked);
}

/// The capture rule with every arrival's power computed up front — the
/// reference the radio's lazy, overlap-only powers must agree with.
struct EagerReception {
  std::uint32_t id;
  double power;
  bool corrupt;
  bool decodable;
  bool overlapped;
};

TEST(RadioCaptureTest, LazyPowerMatchesEagerReferenceModel) {
  sim::Scheduler sched;
  Radio radio(sched, 0, nullptr);
  enum class Outcome { kNone, kDecoded, kGarbage };
  Outcome got = Outcome::kNone;
  std::uint16_t got_seq = 0;
  StubListener listener;
  listener.frame = [&](const Frame& f) {
    got = Outcome::kDecoded;
    got_seq = f.seq;
  };
  radio.set_listener(&listener);
  sim::Rng rng(15);
  std::vector<EagerReception> ref;
  std::uint64_t collisions = 0;
  std::uint64_t captured = 0;  // decoded despite an overlap
  std::uint64_t decoded = 0;
  for (int step = 0; step < 50'000; ++step) {
    if (ref.empty() || (ref.size() < 6 && rng.uniform() < 0.5)) {
      double d;
      switch (rng.uniform_int(0, 3)) {
        case 0: d = rng.uniform(0.0, 2.0); break;  // the 1 m clamp
        case 1: d = 25.0 * static_cast<double>(rng.uniform_int(1, 8)); break;
        default: d = rng.uniform(1.0, 550.0); break;
      }
      const bool decodable = rng.uniform() < 0.8;
      const double p = std::pow(std::max(d, 1.0), -4.0);
      const bool corrupt = !ref.empty();
      for (EagerReception& r : ref) {
        r.overlapped = true;
        if (r.power < p * 10.0) r.corrupt = true;
      }
      const auto end = radio.begin_reception(decodable, d);
      ASSERT_TRUE(end.has_value());
      ref.push_back(EagerReception{end->id, p, corrupt, decodable, corrupt});
    } else {
      const auto k = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(ref.size()) - 1));
      const EagerReception r = ref[k];
      ref.erase(ref.begin() + static_cast<std::ptrdiff_t>(k));
      Frame f;
      f.seq = static_cast<std::uint16_t>(step);
      got = Outcome::kNone;
      radio.end_reception(r.id, f);
      // Every end either decodes (clearing the EIFS mark) or is garbage
      // (setting it).
      if (got == Outcome::kNone && radio.undecodable_end().has_value()) {
        got = Outcome::kGarbage;
      }
      const Outcome want =
          r.corrupt || !r.decodable ? Outcome::kGarbage : Outcome::kDecoded;
      ASSERT_EQ(got, want) << "step " << step;
      if (want == Outcome::kDecoded) {
        EXPECT_EQ(got_seq, f.seq);
        ++decoded;
        if (r.overlapped) ++captured;
      }
      if (r.corrupt) ++collisions;
    }
    ASSERT_EQ(radio.medium_busy(), !ref.empty());
  }
  EXPECT_EQ(radio.collisions(), collisions);
  EXPECT_EQ(radio.frames_decoded(), decoded);
  // The walk reached every branch of the rule, captures included.
  EXPECT_GT(captured, 100u);
  EXPECT_GT(collisions, 1000u);
  EXPECT_GT(decoded - captured, 1000u);
}

TEST_F(RadioChannelTest, StatsCountDecodes) {
  build({{0, 0}, {100, 0}});
  radios_[0]->start_transmit(frame(0, 1), sim::Time::ms(1));
  sched_.run();
  EXPECT_EQ(radios_[0]->frames_sent(), 1u);
  EXPECT_EQ(radios_[1]->frames_decoded(), 1u);
}

}  // namespace
}  // namespace mts::phy
