#include <gtest/gtest.h>

#include <functional>
#include <vector>

#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "tcp/tcp_sink.hpp"
#include "tcp/tcp_source.hpp"

namespace mts::tcp {
namespace {

/// Deterministic two-way pipe between a TcpSource (node 0) and a
/// TcpSink (node 1) with configurable one-way delay and scripted loss.
/// The fixture is both agents' listener: it carries what each sends and
/// records the completion and delivery up-calls.
class TcpPipeTest : public ::testing::Test, public TransportListener {
 protected:
  void build(TcpConfig cfg = {}, sim::Time delay = sim::Time::ms(50)) {
    cfg_ = cfg;
    delay_ = delay;
    source_ = std::make_unique<TcpSource>(sched_, *this, 0, 1, 1, cfg_,
                                          &uids_, nullptr, &stats_);
    sink_ = std::make_unique<TcpSink>(sched_, *this, 1, 0, 1, &uids_,
                                      nullptr, &stats_);
  }

  void send(net::NodeId from, net::Packet&& p) override {
    if (from == 0) {
      carry_to_sink(std::move(p));
    } else {
      carry_to_source(std::move(p));
    }
  }

  void transfer_done(std::uint16_t flow_id) override {
    EXPECT_EQ(flow_id, 1u);
    done_at_.push_back(sched_.now());
  }

  void delivered(std::uint16_t flow_id, sim::Time delay) override {
    EXPECT_EQ(flow_id, 1u);
    delays_.push_back(delay);
  }

  void carry_to_sink(net::Packet&& p) {
    ASSERT_TRUE(p.has_tcp());
    if (drop_data_ && drop_data_(p.tcp().seq)) return;
    sched_.schedule_in(delay_, [this, p] { sink_->on_data(p); });
  }

  void carry_to_source(net::Packet&& p) {
    if (drop_ack_ && drop_ack_(p.tcp().ack)) return;
    sched_.schedule_in(delay_, [this, p] { source_->on_ack(p); });
  }

  sim::Scheduler sched_;
  net::UidSource uids_;
  FlowStats stats_;
  TcpConfig cfg_;
  sim::Time delay_;
  std::unique_ptr<TcpSource> source_;
  std::unique_ptr<TcpSink> sink_;
  std::function<bool(std::uint32_t)> drop_data_;
  std::function<bool(std::uint32_t)> drop_ack_;
  std::vector<sim::Time> done_at_;  ///< one entry per transfer_done
  std::vector<sim::Time> delays_;   ///< one entry per fresh delivery
};

TEST_F(TcpPipeTest, LosslessPipeIsWindowLimited) {
  build();
  source_->start(sim::Time::zero());
  sched_.run_until(sim::Time::sec(10));
  // RTT 100 ms, window 32 => ~320 segments/s.
  EXPECT_NEAR(static_cast<double>(stats_.unique_segments_delivered), 3200,
              200);
  EXPECT_EQ(stats_.timeouts, 0u);
  EXPECT_EQ(stats_.retransmits, 0u);
  EXPECT_DOUBLE_EQ(source_->cwnd(), 32.0);
}

TEST_F(TcpPipeTest, SlowStartDoublesPerRtt) {
  build();
  source_->start(sim::Time::zero());
  // After ~1 RTT the first ack arrives (cwnd 2); run three RTTs:
  sched_.run_until(sim::Time::ms(350));
  EXPECT_GE(source_->cwnd(), 8.0);  // 1 -> 2 -> 4 -> 8
}

TEST_F(TcpPipeTest, SingleLossTriggersFastRetransmitNotTimeout) {
  build();
  std::uint32_t dropped = 0;
  drop_data_ = [&dropped](std::uint32_t seq) {
    if (seq == 50 && dropped == 0) {
      ++dropped;
      return true;
    }
    return false;
  };
  source_->start(sim::Time::zero());
  sched_.run_until(sim::Time::sec(10));
  EXPECT_EQ(dropped, 1u);
  EXPECT_EQ(stats_.fast_retransmits, 1u);
  EXPECT_EQ(stats_.timeouts, 0u);
  // All data keeps flowing (sink buffered out-of-order segments).
  EXPECT_GT(stats_.unique_segments_delivered, 2000u);
}

TEST_F(TcpPipeTest, RenoHalvesWindowOnFastRetransmit) {
  build();
  bool armed = false;
  double cwnd_before = 0;
  drop_data_ = [&](std::uint32_t seq) {
    if (seq == 100 && !armed) {
      armed = true;
      cwnd_before = source_->cwnd();
      return true;
    }
    return false;
  };
  source_->start(sim::Time::zero());
  sched_.run_until(sim::Time::sec(6));
  ASSERT_TRUE(armed);
  // cwnd may have regrown by now; the halving is visible in ssthresh,
  // which was set to flight/2 at the fast retransmit.
  EXPECT_LT(source_->ssthresh(), cfg_.max_window);
  EXPECT_GE(source_->ssthresh(), 2u);
  EXPECT_EQ(stats_.fast_retransmits, 1u);
  (void)cwnd_before;
}

TEST_F(TcpPipeTest, TahoeRestartsFromOne) {
  TcpConfig cfg;
  cfg.variant = TcpVariant::kTahoe;
  cfg.trace_cwnd = true;
  build(cfg);
  bool armed = false;
  drop_data_ = [&armed](std::uint32_t seq) {
    if (seq == 100 && !armed) {
      armed = true;
      return true;
    }
    return false;
  };
  source_->start(sim::Time::zero());
  sched_.run_until(sim::Time::sec(6));
  ASSERT_TRUE(armed);
  // Somewhere in the trace the window fell to 1 without a timeout.
  EXPECT_EQ(stats_.timeouts, 0u);
  bool saw_one = false;
  for (const auto& [t, w] : source_->cwnd_trace()) {
    if (w == 1.0 && t > sim::Time::ms(500)) saw_one = true;
  }
  EXPECT_TRUE(saw_one);
}

TEST_F(TcpPipeTest, BurstLossRecoversThroughTimeoutAndGoBackN) {
  build();
  // Kill a full window's worth of in-flight segments exactly once:
  // dupacks cannot help (nothing arrives); only the RTO + go-back-N
  // rewind can restart the stream.
  int to_drop = 32;
  drop_data_ = [&to_drop](std::uint32_t seq) {
    if (seq >= 100 && to_drop > 0) {
      --to_drop;
      return true;
    }
    return false;
  };
  source_->start(sim::Time::zero());
  sched_.run_until(sim::Time::sec(20));
  EXPECT_GE(stats_.timeouts, 1u);
  // Recovery happened: the stream continued far past the hole.
  EXPECT_GT(stats_.unique_segments_delivered, 3000u);
  // A trailing in-flight hole may leave buffered segments; everything
  // reassembled so far is contiguous.
  EXPECT_LE(sink_->rcv_nxt(), stats_.unique_segments_delivered + 1);
  EXPECT_GT(sink_->rcv_nxt(), 3000u);
}

TEST_F(TcpPipeTest, AckLossIsHarmlessWhenCumulative) {
  build();
  int counter = 0;
  drop_ack_ = [&counter](std::uint32_t) { return ++counter % 3 == 0; };
  source_->start(sim::Time::zero());
  sched_.run_until(sim::Time::sec(10));
  // Cumulative acks cover the holes; some throughput loss, no collapse.
  EXPECT_GT(stats_.unique_segments_delivered, 1500u);
}

TEST_F(TcpPipeTest, SinkBuffersOutOfOrderAndAcksCumulatively) {
  build();
  // Deliver 2 before 1 by dropping seq 1 once: ack stays at 1 then jumps.
  bool dropped = false;
  drop_data_ = [&dropped](std::uint32_t seq) {
    if (seq == 1 && !dropped) {
      dropped = true;
      return true;
    }
    return false;
  };
  source_->start(sim::Time::zero());
  sched_.run_until(sim::Time::sec(5));
  EXPECT_GT(sink_->rcv_nxt(), 100u);
  EXPECT_EQ(sink_->ooo_buffered(), 0u);  // everything reassembled
}

TEST_F(TcpPipeTest, DelayMetricsMatchPipeDelay) {
  build({}, sim::Time::ms(80));
  source_->start(sim::Time::zero());
  sched_.run_until(sim::Time::sec(5));
  EXPECT_NEAR(stats_.avg_delay_s(), 0.080, 0.001);
}

TEST_F(TcpPipeTest, ThroughputTimeSeriesAccumulates) {
  build();
  source_->start(sim::Time::sec(1));
  sched_.run_until(sim::Time::sec(5));
  ASSERT_GE(stats_.deliveries_per_second.size(), 4u);
  EXPECT_EQ(stats_.deliveries_per_second[0], 0u);  // nothing before start
  std::uint64_t total = 0;
  for (auto v : stats_.deliveries_per_second) total += v;
  EXPECT_EQ(total, stats_.unique_segments_delivered);
}

TEST_F(TcpPipeTest, KarnNoRttSampleFromRetransmits) {
  TcpConfig cfg;
  build(cfg, sim::Time::ms(100));
  // Lose the very first segment: its retransmission must not produce an
  // RTT sample, so srtt stays unset until a fresh segment is acked.
  bool dropped = false;
  drop_data_ = [&dropped](std::uint32_t seq) {
    if (seq == 1 && !dropped) {
      dropped = true;
      return true;
    }
    return false;
  };
  source_->start(sim::Time::zero());
  sched_.run_until(sim::Time::sec(30));
  EXPECT_TRUE(source_->rtt().has_sample());
  // The sample reflects the true 200 ms RTT, not RTO-inflated values.
  EXPECT_NEAR(source_->rtt().srtt().to_millis(), 200.0, 50.0);
}

TEST_F(TcpPipeTest, DeliveredReportsEachFreshSegmentOnce) {
  build({}, sim::Time::ms(80));
  // A lost segment makes later ones arrive out of order; a lost window
  // of ACKs forces a timeout whose go-back-N resends segments the sink
  // already holds.  Each segment is reported once, when fresh.
  bool dropped = false;
  drop_data_ = [&dropped](std::uint32_t seq) {
    if (seq == 20 && !dropped) {
      dropped = true;
      return true;
    }
    return false;
  };
  int acks_to_drop = 32;
  drop_ack_ = [&acks_to_drop](std::uint32_t ack) {
    if (ack >= 100 && acks_to_drop > 0) {
      --acks_to_drop;
      return true;
    }
    return false;
  };
  source_->start(sim::Time::zero());
  sched_.run_until(sim::Time::sec(5));
  ASSERT_TRUE(dropped);
  ASSERT_GE(stats_.timeouts, 1u);
  EXPECT_GT(stats_.data_packets_received, stats_.unique_segments_delivered);
  EXPECT_EQ(delays_.size(), stats_.unique_segments_delivered);
  for (const sim::Time d : delays_) EXPECT_GE(d, sim::Time::ms(80));
  EXPECT_TRUE(done_at_.empty());  // an infinite FTP backlog never ends
}

TEST_F(TcpPipeTest, FiniteTransferReportsDoneOnceOnTheFinalAck) {
  build();
  source_->set_transfer(10);
  source_->start(sim::Time::zero());
  sched_.run_until(sim::Time::sec(5));
  ASSERT_EQ(done_at_.size(), 1u);
  EXPECT_EQ(source_->snd_una(), 11u);
  EXPECT_EQ(stats_.unique_segments_delivered, 10u);
  // 1 + 2 + 4 + 3 segments: the final ACK closes the fourth round trip.
  EXPECT_EQ(done_at_[0], sim::Time::ms(400));
}

TEST_F(TcpPipeTest, FlowIdMismatchIgnored) {
  build();
  net::Packet alien;
  alien.mutable_common().kind = net::PacketKind::kTcpAck;
  net::TcpHeader alienh;
  alienh.ack = 999;
  alienh.flow_id = 77;
  alien.mutable_tcp() = alienh;
  source_->on_ack(alien);
  EXPECT_EQ(source_->snd_una(), 1u);  // untouched
}

TEST_F(TcpPipeTest, ConfigValidation) {
  TcpConfig bad;
  bad.segment_bytes = 0;
  EXPECT_THROW(TcpSource(sched_, *this, 0, 1, 1, bad, &uids_, nullptr, &stats_),
               sim::ConfigError);
  TcpConfig bad2;
  bad2.max_window = 1;
  EXPECT_THROW(
      TcpSource(sched_, *this, 0, 1, 1, bad2, &uids_, nullptr, &stats_),
      sim::ConfigError);
}

class TcpVariantTest : public TcpPipeTest,
                       public ::testing::WithParamInterface<TcpVariant> {};

TEST_P(TcpVariantTest, AllVariantsSurviveRandomLoss) {
  TcpConfig cfg;
  cfg.variant = GetParam();
  build(cfg);
  sim::Rng rng(99);
  auto drop = [&rng](std::uint32_t) { return rng.bernoulli(0.03); };
  drop_data_ = drop;
  source_->start(sim::Time::zero());
  sched_.run_until(sim::Time::sec(30));
  // 3% loss: all variants keep a working stream.
  EXPECT_GT(stats_.unique_segments_delivered, 1000u);
  EXPECT_EQ(sink_->rcv_nxt(), stats_.unique_segments_delivered + 1);
}

INSTANTIATE_TEST_SUITE_P(Variants, TcpVariantTest,
                         ::testing::Values(TcpVariant::kTahoe,
                                           TcpVariant::kReno,
                                           TcpVariant::kNewReno),
                         [](const auto& info) {
                           return tcp_variant_name(info.param);
                         });

}  // namespace
}  // namespace mts::tcp
