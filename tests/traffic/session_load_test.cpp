// The user plane at arena scale: a 100-node MTS network at the paper's
// density must admit a requested session load and report per-class
// delivery-delay percentiles, so the traffic plane, the percentile
// digests and the metrics plumbing all run end to end through the real
// mesh stack (and under the sanitizers, via the `traffic` label).
#include <gtest/gtest.h>

#include <cmath>

#include "harness/scenario.hpp"

namespace mts::harness {
namespace {

TEST(TrafficSessionLoadTest, HundredNodeArenaSustainsTwoHundredSessions) {
  constexpr std::uint64_t kSessions = 200;
  constexpr double kSimSeconds = 20.0;
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kMts;
  cfg.node_count = 100;
  // Paper density: 50 nodes per 1000 m x 1000 m.
  const double side = 1000.0 * std::sqrt(cfg.node_count / 50.0);
  cfg.field = mobility::Field{side, side};
  cfg.max_speed = 10.0;
  cfg.sim_time = sim::Time::seconds(kSimSeconds);
  cfg.flow_count = 10;
  cfg.seed = 42;
  cfg.traffic.enabled = true;
  cfg.traffic.gateway_count = 8;
  cfg.traffic.user_pool = 64;
  // 3% headroom so the realized Poisson arrival count clears the target.
  cfg.traffic.session_rate = kSessions / kSimSeconds * 1.03;
  cfg.traffic.max_concurrent_flows = 16384;

  const RunMetrics m = run_scenario(cfg);
  EXPECT_GE(m.sessions_started, kSessions);
  // Captured on the eager cancel-and-push event queue: lazy timer re-arm
  // must not reorder a single event of this timer-heavy run.
  EXPECT_EQ(m.event_order_hash, 0x4f3b0ab9372383b0u);
  for (std::size_t c = 0; c < traffic::kUserClassCount; ++c) {
    const auto& tc = m.traffic_classes[c];
    const char* name =
        traffic::user_class_name(static_cast<traffic::UserClass>(c));
    EXPECT_GT(tc.delay_p99_ms, 0.0) << name;
    EXPECT_GT(tc.flows_completed, 0u) << name;
  }
}

}  // namespace
}  // namespace mts::harness
