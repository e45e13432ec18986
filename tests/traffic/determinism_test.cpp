// Satellite: the determinism contract of the traffic axis.
//
// Off (the default) must be *free*: the plane is never constructed, the
// master RNG's "traffic" substream is never drawn, and every
// pre-existing fixed-seed fingerprint replays bit-identically — pinned
// here against the same 20-node and 50-node references the packet-plane
// and scale suites use.  On, the workload itself must be a pure
// function of the seed: two runs of an identical config produce
// bit-identical event counts, session counters and percentile reports.
#include <gtest/gtest.h>

#include "harness/scenario.hpp"

namespace mts::harness {
namespace {

ScenarioConfig paper_like(Protocol p) {
  ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.node_count = 20;
  cfg.max_speed = 10.0;
  cfg.sim_time = sim::Time::sec(15);
  cfg.seed = 42;
  return cfg;
}

ScenarioConfig bench_like(Protocol p) {
  ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.node_count = 50;
  cfg.max_speed = 10.0;
  cfg.sim_time = sim::Time::sec(40);
  cfg.seed = 42;
  return cfg;
}

ScenarioConfig traffic_on(Protocol p) {
  ScenarioConfig cfg = paper_like(p);
  cfg.traffic.enabled = true;
  cfg.traffic.gateway_count = 2;
  cfg.traffic.user_pool = 8;
  cfg.traffic.session_rate = 10.0;
  cfg.traffic.diurnal = {0.5, 1.5};
  cfg.traffic.diurnal_bucket = sim::Time::sec(5);
  return cfg;
}

TEST(TrafficDeterminismTest, DisabledTrafficReplaysThePinned20NodeRun) {
  // The packet_plane_test DSR pin, with the traffic spec spelled out as
  // its default: adding the axis must not move a single event.
  ScenarioConfig cfg = paper_like(Protocol::kDsr);
  cfg.traffic = traffic::TrafficSpec{};
  const RunMetrics m = run_scenario(cfg);
  EXPECT_EQ(m.events_executed, 242727u);
  EXPECT_EQ(m.segments_delivered, 401u);
  EXPECT_EQ(m.control_packets, 41u);
  EXPECT_EQ(m.pe, 0u);
  EXPECT_EQ(m.sessions_started, 0u);
  EXPECT_EQ(m.sessions_completed, 0u);
}

TEST(TrafficDeterminismTest, DisabledTrafficReplaysThePinned50NodeRun) {
  // The scale_test DSR pin (kPinned50).
  const RunMetrics m = run_scenario(bench_like(Protocol::kDsr));
  EXPECT_EQ(m.events_executed, 200471u);
  EXPECT_EQ(m.segments_delivered, 151u);
  EXPECT_EQ(m.control_packets, 118u);
  EXPECT_EQ(m.pe, 1u);
}

TEST(TrafficDeterminismTest, EnabledTrafficIsBitStableAcrossRepeats) {
  const RunMetrics a = run_scenario(traffic_on(Protocol::kDsr));
  const RunMetrics b = run_scenario(traffic_on(Protocol::kDsr));

  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.segments_delivered, b.segments_delivered);
  EXPECT_EQ(a.control_packets, b.control_packets);
  EXPECT_EQ(a.sessions_started, b.sessions_started);
  EXPECT_EQ(a.sessions_completed, b.sessions_completed);
  EXPECT_EQ(a.sessions_rejected, b.sessions_rejected);
  for (std::size_t c = 0; c < traffic::kUserClassCount; ++c) {
    EXPECT_EQ(a.traffic_classes[c].flows_completed,
              b.traffic_classes[c].flows_completed);
    EXPECT_DOUBLE_EQ(a.traffic_classes[c].delay_p50_ms,
                     b.traffic_classes[c].delay_p50_ms);
    EXPECT_DOUBLE_EQ(a.traffic_classes[c].delay_p95_ms,
                     b.traffic_classes[c].delay_p95_ms);
    EXPECT_DOUBLE_EQ(a.traffic_classes[c].delay_p99_ms,
                     b.traffic_classes[c].delay_p99_ms);
    EXPECT_DOUBLE_EQ(a.traffic_classes[c].goodput_p50_seg_s,
                     b.traffic_classes[c].goodput_p50_seg_s);
  }

  // And the workload actually ran: sessions arrived and finite
  // transfers completed through the real mesh stack.
  EXPECT_GT(a.sessions_started, 20u);
  EXPECT_GT(a.traffic_classes[0].flows_completed +
                a.traffic_classes[1].flows_completed,
            0u);
}

TEST(TrafficDeterminismTest, EnabledTrafficChangesTheRun) {
  // Sanity inverse of the off-is-free property: the same seed with the
  // plane on executes a different event stream.
  const RunMetrics off = run_scenario(paper_like(Protocol::kDsr));
  const RunMetrics on = run_scenario(traffic_on(Protocol::kDsr));
  EXPECT_NE(off.events_executed, on.events_executed);
  EXPECT_GT(on.sessions_started, 0u);
}

}  // namespace
}  // namespace mts::harness
