// Scenario/harness behaviour: configuration validation, determinism,
// metric wiring, and the campaign machinery.
#include <gtest/gtest.h>

#include "harness/campaign.hpp"
#include "harness/scenario.hpp"
#include "integration/campaign_fixture.hpp"

namespace mts::harness {
namespace {

ScenarioConfig small(Protocol p = Protocol::kMts, std::uint64_t seed = 1) {
  ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.node_count = 20;
  cfg.max_speed = 10.0;
  cfg.sim_time = sim::Time::sec(15);
  cfg.seed = seed;
  return cfg;
}

TEST(ScenarioTest, IdenticalSeedsGiveIdenticalResults) {
  const RunMetrics a = run_scenario(small());
  const RunMetrics b = run_scenario(small());
  EXPECT_EQ(a.segments_delivered, b.segments_delivered);
  EXPECT_EQ(a.control_packets, b.control_packets);
  EXPECT_EQ(a.events_executed, b.events_executed);
  EXPECT_EQ(a.pe, b.pe);
  EXPECT_DOUBLE_EQ(a.avg_delay_s, b.avg_delay_s);
}

TEST(ScenarioTest, DifferentSeedsGiveDifferentRuns) {
  const RunMetrics a = run_scenario(small(Protocol::kMts, 1));
  const RunMetrics b = run_scenario(small(Protocol::kMts, 2));
  EXPECT_NE(a.events_executed, b.events_executed);
}

TEST(ScenarioTest, SameSeedSharesMobilityAcrossProtocols) {
  // Flow endpoints and the eavesdropper are seed-derived, protocol
  // independent (paired comparisons).
  const RunMetrics a = run_scenario(small(Protocol::kAodv, 7));
  const RunMetrics b = run_scenario(small(Protocol::kDsr, 7));
  EXPECT_EQ(a.eavesdropper, b.eavesdropper);
}

TEST(ScenarioTest, MetricsAreInternallyConsistent) {
  const RunMetrics m = run_scenario(small());
  EXPECT_EQ(m.pr, m.segments_delivered);
  EXPECT_GE(m.delivery_rate, 0.0);
  EXPECT_LE(m.delivery_rate, 1.2);  // small dup-arrival slack
  EXPECT_GE(m.relay_stddev, 0.0);
  EXPECT_LE(m.relay_stddev, 1.0);
  std::uint64_t beta_sum = 0;
  std::uint64_t beta_max = 0;
  for (const auto& [node, beta] : m.betas) {
    beta_sum += beta;
    beta_max = std::max(beta_max, beta);
  }
  EXPECT_EQ(beta_sum, m.alpha);
  EXPECT_EQ(beta_max, m.max_beta);
  EXPECT_EQ(m.participating_nodes, m.betas.size());
}

TEST(ScenarioTest, EavesdropperNeverAFlowEndpoint) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    ScenarioConfig cfg = small(Protocol::kAodv, seed);
    const RunMetrics m = run_scenario(cfg);
    ASSERT_NE(m.eavesdropper, net::kNoNode);
    // Endpoints are excluded from the census; the eavesdropper is not.
    for (const auto& [node, beta] : m.betas) {
      EXPECT_LT(node, cfg.node_count);
    }
  }
}

TEST(ScenarioTest, ValidationRejectsBadConfigs) {
  ScenarioConfig cfg = small();
  cfg.node_count = 1;
  EXPECT_THROW(run_scenario(cfg), sim::ConfigError);

  cfg = small();
  cfg.sim_time = sim::Time::zero();
  EXPECT_THROW(run_scenario(cfg), sim::ConfigError);

  cfg = small();
  cfg.static_positions = {{0, 0}};  // wrong count
  EXPECT_THROW(run_scenario(cfg), sim::ConfigError);

  cfg = small();
  cfg.explicit_flows.push_back({5, 5, sim::Time::sec(1)});  // src == dst
  EXPECT_THROW(run_scenario(cfg), sim::ConfigError);

  cfg = small();
  cfg.explicit_flows.push_back({0, 99, sim::Time::sec(1)});  // out of range
  EXPECT_THROW(run_scenario(cfg), sim::ConfigError);
}

TEST(ScenarioTest, MinFlowDistanceRespectedAtPlacement) {
  ScenarioConfig cfg = small();
  cfg.min_flow_distance = 400.0;
  cfg.node_count = 50;
  cfg.sim_time = sim::Time::sec(5);
  // Nothing to assert directly about endpoints (hidden), but the run
  // must complete and pick a multihop pair, observable as relays or
  // discovery traffic.
  const RunMetrics m = run_scenario(cfg);
  EXPECT_GT(m.control_packets, 0u);
}


TEST(ScenarioTest, FadingChannelRunsAndDegradesGracefully) {
  // With slow fading on, marginal links blink at the coherence time;
  // the stack must keep delivering (routing repairs around fades) and
  // determinism must hold.
  ScenarioConfig cfg = small(Protocol::kMts, 9);
  cfg.node_count = 40;
  cfg.fading_enabled = true;
  cfg.fading.fade_probability = 0.25;
  cfg.fading.coherence_time = sim::Time::sec(3);
  const RunMetrics a = run_scenario(cfg);
  const RunMetrics b = run_scenario(cfg);
  EXPECT_EQ(a.events_executed, b.events_executed);  // still deterministic
  EXPECT_GT(a.events_executed, 1000u);
  // Fading must actually bite relative to the clean channel.
  cfg.fading_enabled = false;
  const RunMetrics clean = run_scenario(cfg);
  EXPECT_NE(clean.events_executed, a.events_executed);
}

TEST(CampaignTest, RunsFullGridAndAggregates) {
  CampaignConfig cfg;
  cfg.base = small();
  cfg.base.sim_time = sim::Time::sec(5);
  cfg.speeds = {2, 20};
  cfg.protocols = {Protocol::kAodv, Protocol::kMts};
  cfg.repetitions = 2;
  const CampaignResult r = run_test_campaign(cfg);
  EXPECT_EQ(r.total_runs(), 8u);
  for (Protocol p : cfg.protocols) {
    for (double v : cfg.speeds) {
      EXPECT_EQ(r.runs(p, v).size(), 2u);
      const auto s = r.summarize(
          p, v, [](const RunMetrics& m) { return m.delivery_rate; });
      EXPECT_EQ(s.count(), 2u);
      EXPECT_GE(s.mean(), 0.0);
    }
  }
}

TEST(CampaignTest, PairedSeedsAcrossProtocols) {
  CampaignConfig cfg;
  cfg.base = small();
  cfg.base.sim_time = sim::Time::sec(3);
  cfg.speeds = {10};
  cfg.repetitions = 3;
  cfg.seed_base = 100;
  const CampaignResult r = run_test_campaign(cfg);
  const auto& aodv = r.runs(Protocol::kAodv, 10);
  const auto& mts = r.runs(Protocol::kMts, 10);
  ASSERT_EQ(aodv.size(), 3u);
  ASSERT_EQ(mts.size(), 3u);
  std::set<std::uint64_t> sa, sm;
  for (const auto& m : aodv) sa.insert(m.seed);
  for (const auto& m : mts) sm.insert(m.seed);
  EXPECT_EQ(sa, sm);  // identical seed sets => paired comparison
}

TEST(CampaignTest, MissingCellYieldsEmpty) {
  CampaignResult r;
  EXPECT_TRUE(r.runs(Protocol::kDsr, 99).empty());
  EXPECT_EQ(r.summarize(Protocol::kDsr, 99, [](const RunMetrics&) {
              return 1.0;
            }).count(),
            0u);
}

TEST(CampaignTest, PrintFigureProducesRowsPerSpeed) {
  CampaignConfig cfg;
  cfg.base = small();
  cfg.base.sim_time = sim::Time::sec(2);
  cfg.speeds = {2, 20};
  cfg.protocols = {Protocol::kMts};
  cfg.repetitions = 1;
  const CampaignResult r = run_test_campaign(cfg);
  std::ostringstream os;
  print_figure(os, r, cfg, "Test figure", "unit",
               [](const RunMetrics& m) { return m.delivery_rate; });
  const std::string out = os.str();
  EXPECT_NE(out.find("Test figure"), std::string::npos);
  EXPECT_NE(out.find("MTS"), std::string::npos);
  // One row per speed (cells are right-aligned with padding).
  EXPECT_NE(out.find(" 2 "), std::string::npos);
  EXPECT_NE(out.find(" 20 "), std::string::npos);
}

}  // namespace
}  // namespace mts::harness
