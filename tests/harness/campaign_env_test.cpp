// apply_bench_env and the env parsers it shares with the benches must
// never throw on malformed environment values — a typo'd MTS_BENCH_*
// variable warns and falls back instead of killing a multi-hour
// campaign at startup.
#include <gtest/gtest.h>

#include <cstdlib>

#include "harness/campaign.hpp"
#include "harness/supervisor.hpp"

namespace mts::harness {
namespace {

class BenchEnvTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const char* name :
         {"MTS_BENCH_REPS", "MTS_BENCH_SIM_TIME", "MTS_BENCH_SPEEDS",
          "MTS_BENCH_THREADS", "MTS_BENCH_NODES", "MTS_BENCH_NO_CACHE"}) {
      unsetenv(name);
    }
  }
};

TEST_F(BenchEnvTest, ValidValuesApply) {
  setenv("MTS_BENCH_REPS", "3", 1);
  setenv("MTS_BENCH_SIM_TIME", "12.5", 1);
  setenv("MTS_BENCH_SPEEDS", "2,5,10", 1);
  setenv("MTS_BENCH_THREADS", "4", 1);
  setenv("MTS_BENCH_NODES", "30", 1);
  CampaignConfig cfg;
  FabricConfig fab;
  apply_bench_env(cfg, fab);
  EXPECT_EQ(cfg.repetitions, 3u);
  EXPECT_EQ(cfg.base.sim_time, sim::Time::seconds(12.5));
  EXPECT_EQ(cfg.speeds, (std::vector<double>{2.0, 5.0, 10.0}));
  EXPECT_EQ(fab.workers, 4u);
  EXPECT_TRUE(fab.resume);
  EXPECT_EQ(cfg.base.node_count, 30u);
}

TEST_F(BenchEnvTest, GarbageFallsBackToDefaultsWithoutThrowing) {
  setenv("MTS_BENCH_REPS", "lots", 1);
  setenv("MTS_BENCH_SIM_TIME", "fast", 1);
  setenv("MTS_BENCH_SPEEDS", "2,speedy,10", 1);
  setenv("MTS_BENCH_NODES", "-5", 1);
  CampaignConfig defaults;
  CampaignConfig cfg;
  FabricConfig fab;
  EXPECT_NO_THROW(apply_bench_env(cfg, fab));
  EXPECT_EQ(cfg.repetitions, defaults.repetitions);
  EXPECT_EQ(cfg.base.sim_time, defaults.base.sim_time);
  EXPECT_EQ(cfg.speeds, defaults.speeds);
  EXPECT_EQ(cfg.base.node_count, defaults.base.node_count);
}

TEST_F(BenchEnvTest, BadThreadsFallsBackToHardwareConcurrency) {
  setenv("MTS_BENCH_THREADS", "max", 1);
  CampaignConfig cfg;
  FabricConfig fab;
  fab.workers = 7;  // pre-set: the fallback must override, not keep it
  EXPECT_NO_THROW(apply_bench_env(cfg, fab));
  EXPECT_EQ(fab.workers, 0u);  // 0 = "use hardware concurrency"
}

TEST_F(BenchEnvTest, NoCacheTurnsResumeOff) {
  CampaignConfig cfg;
  FabricConfig fab;
  setenv("MTS_BENCH_NO_CACHE", "0", 1);
  apply_bench_env(cfg, fab);
  EXPECT_TRUE(fab.resume);
  setenv("MTS_BENCH_NO_CACHE", "1", 1);
  apply_bench_env(cfg, fab);
  EXPECT_FALSE(fab.resume);
}

TEST_F(BenchEnvTest, OutOfRangeValuesRejected) {
  setenv("MTS_BENCH_REPS", "99999999999999999999999", 1);
  setenv("MTS_BENCH_THREADS", "1000000", 1);
  setenv("MTS_BENCH_NODES", "1", 1);  // a 1-node network is not a sweep
  CampaignConfig defaults;
  CampaignConfig cfg;
  FabricConfig fab;
  EXPECT_NO_THROW(apply_bench_env(cfg, fab));
  EXPECT_EQ(cfg.repetitions, defaults.repetitions);
  EXPECT_EQ(fab.workers, 0u);
  EXPECT_EQ(cfg.base.node_count, defaults.base.node_count);
}

TEST_F(BenchEnvTest, TrailingJunkRejected) {
  setenv("MTS_BENCH_REPS", "5x", 1);
  setenv("MTS_BENCH_SIM_TIME", "10s", 1);
  CampaignConfig defaults;
  CampaignConfig cfg;
  FabricConfig fab;
  EXPECT_NO_THROW(apply_bench_env(cfg, fab));
  EXPECT_EQ(cfg.repetitions, defaults.repetitions);
  EXPECT_EQ(cfg.base.sim_time, defaults.base.sim_time);
}

// The parsers the benches with their own knobs call directly
// (table1_relay_normalization's MTS_BENCH_SIM_TIME,
// ext_adversary_sweep's MTS_BENCH_COALITIONS): junk, non-finite and
// out-of-range values leave `out` alone instead of throwing.
TEST(BenchEnvParseTest, JunkInfAndOutOfRangeKeepTheDefault) {
  double d = 7.0;
  for (const char* bad : {"abc", "", "10s", "inf", "nan", "-3", "0", "1e10",
                          "1e999"}) {
    EXPECT_FALSE(parse_env_double("MTS_BENCH_SIM_TIME", bad, d)) << bad;
    EXPECT_EQ(d, 7.0) << bad;
  }
  EXPECT_TRUE(parse_env_double("MTS_BENCH_SIM_TIME", "12.5", d));
  EXPECT_EQ(d, 12.5);

  std::uint64_t n = 3;
  for (const char* bad : {"two", "", "2x", "-1", "100001",
                          "99999999999999999999999"}) {
    EXPECT_FALSE(parse_env_u64("MTS_BENCH_COALITIONS", bad, 100000, n)) << bad;
    EXPECT_EQ(n, 3u) << bad;
  }
  EXPECT_TRUE(parse_env_u64("MTS_BENCH_COALITIONS", "100000", 100000, n));
  EXPECT_EQ(n, 100000u);
}

}  // namespace
}  // namespace mts::harness
