// The fabric must be a pure reliability layer: a sweep run through
// process-isolated workers — including one that crashes, hangs or is
// resumed after a kill — has to produce the same merged CSV as running
// every cell's scenarios directly, one after another, and a unit that
// can never finish must degrade to marked `failed` rows instead of
// taking the sweep down.
#include <gtest/gtest.h>
#include <unistd.h>

#include <csignal>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "integration/campaign_fixture.hpp"

namespace mts::harness {
namespace {

class FabricTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setenv("MTS_BENCH_CACHE_DIR", dir_.path().c_str(), 1);
    unsetenv("MTS_BENCH_NO_CACHE");
    unsetenv("MTS_FABRIC_TEST_HANG_UNIT");
    unsetenv("MTS_FABRIC_TEST_HANG_ATTEMPTS");
  }
  void TearDown() override {
    unsetenv("MTS_BENCH_CACHE_DIR");
    unsetenv("MTS_FABRIC_TEST_HANG_UNIT");
    unsetenv("MTS_FABRIC_TEST_HANG_ATTEMPTS");
  }

  /// 2 speeds x 2 reps of a small AODV grid: a narrow grid, so four
  /// one-run work units (unit 2k+r is speed k, repetition r) — big
  /// enough to have innocent bystander units next to the faulty one,
  /// small enough to fork repeatedly.
  static CampaignConfig tiny() {
    CampaignConfig cfg;
    cfg.base.node_count = 15;
    cfg.base.sim_time = sim::Time::sec(2);
    cfg.speeds = {5, 10};
    cfg.protocols = {Protocol::kAodv};
    cfg.repetitions = 2;
    return cfg;
  }

  static FabricConfig quick_fabric() {
    FabricConfig fab;
    fab.workers = 2;
    fab.backoff_base_s = 0.01;
    return fab;
  }

  ScratchDir dir_;
};

TEST_F(FabricTest, CleanFabricRunMatchesDirectRunsByteForByte) {
  const CampaignConfig cfg = tiny();
  const CampaignResult reference = run_direct(cfg);

  const FabricReport report = run_campaign_fabric(cfg, quick_fabric());
  EXPECT_EQ(report.units_total, 4u);
  EXPECT_EQ(report.units_owned, 4u);
  EXPECT_EQ(report.units_run, 4u);
  EXPECT_EQ(report.units_ok, 4u);
  EXPECT_EQ(report.units_failed, 0u);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(csv_of(cfg, report.result), csv_of(cfg, reference));

  // Re-running finds every shard: nothing is simulated again.
  const FabricReport again = run_campaign_fabric(cfg, quick_fabric());
  EXPECT_EQ(again.units_resumed, 4u);
  EXPECT_EQ(again.units_run, 0u);
  EXPECT_EQ(csv_of(cfg, again.result), csv_of(cfg, reference));
}

TEST_F(FabricTest, SplitCellListsItsRunsInRepetitionOrder) {
  const CampaignConfig cfg = tiny();
  const CampaignResult reference = run_direct(cfg);

  // Repetition 0 of the first cell finishes last: its worker (unit 0)
  // stalls while unit 1, repetition 1 of the same cell, completes.  The
  // merged rows must still follow the repetitions, not completion.
  FabricConfig fab = quick_fabric();
  fab.test_child_hook = [](const WorkUnit& u, std::uint32_t) {
    if (u.index == 0) ::usleep(300'000);
  };
  const FabricReport report = run_campaign_fabric(cfg, fab);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(csv_of(cfg, report.result), csv_of(cfg, reference));
}

TEST_F(FabricTest, SigkilledWorkerIsRetriedAndTheSweepStillMatches) {
  const CampaignConfig cfg = tiny();
  const CampaignResult reference = run_direct(cfg);

  // Crash the workers of the speed-5 cell's units (SIGKILL mid-unit,
  // before they write a shard) on the first attempt only: the
  // supervisor must see "killed by signal", back off, re-fork, and the
  // retries succeed.
  FabricConfig fab = quick_fabric();
  fab.test_child_hook = [](const WorkUnit& u, std::uint32_t attempt) {
    if (u.cells.front().speed == 0 && attempt == 1) ::raise(SIGKILL);
  };
  std::ostringstream log;
  const FabricReport report = run_campaign_fabric(cfg, fab, &log);
  EXPECT_EQ(report.units_failed, 0u);
  EXPECT_TRUE(report.complete);
  EXPECT_NE(log.str().find("killed by signal"), std::string::npos)
      << log.str();
  // attempts=2 on the retried unit's rows is the only allowed
  // difference; everything else is byte-identical.
  for (const RunMetrics& want : reference.runs(Protocol::kAodv, 5)) {
    bool found = false;
    for (const RunMetrics& got : report.result.runs(Protocol::kAodv, 5)) {
      if (got.seed != want.seed) continue;
      found = true;
      EXPECT_EQ(got.attempts, 2u);
      EXPECT_EQ(got.run_status, RunStatus::kOk);
      EXPECT_EQ(got.segments_delivered, want.segments_delivered);
      EXPECT_EQ(got.events_executed, want.events_executed);
      EXPECT_DOUBLE_EQ(got.avg_delay_s, want.avg_delay_s);
    }
    EXPECT_TRUE(found) << "seed " << want.seed << " missing after retry";
  }
  // The telemetry tells the killed attempts from their retries.
  ASSERT_EQ(report.attempts.size(), 6u);
  for (const AttemptRecord& a : report.attempts) {
    const bool speed5 = a.index < 2;
    EXPECT_LE(a.attempt, speed5 ? 2u : 1u);
    const bool killed = speed5 && a.attempt == 1;
    EXPECT_EQ(a.exit, killed ? WorkerExit::kSignal : WorkerExit::kOk)
        << "unit " << a.index << " attempt " << a.attempt;
    EXPECT_EQ(a.code, killed ? SIGKILL : 0);
  }
}

TEST_F(FabricTest, CleanRunRecordsEveryWorkerAndNeverWakesIdle) {
  // Each worker lingers 50 ms, longer than any polling interval would.
  const CampaignConfig cfg = tiny();
  FabricConfig fab = quick_fabric();
  fab.test_child_hook = [](const WorkUnit&, std::uint32_t) {
    ::usleep(50'000);
  };
  const FabricReport report = run_campaign_fabric(cfg, fab);
  EXPECT_EQ(report.units_ok, 4u);
  // Every wake reaped a worker: with no timeout and no retry there is
  // nothing else to wake for.
  EXPECT_EQ(report.idle_wakes, 0u);
  ASSERT_EQ(report.attempts.size(), report.units_run);
  std::vector<int> seen(4, 0);
  for (const AttemptRecord& a : report.attempts) {
    ASSERT_LT(a.index, 4u);
    ++seen[a.index];
    EXPECT_EQ(a.attempt, 1u);
    EXPECT_EQ(a.exit, WorkerExit::kOk);
    EXPECT_EQ(a.code, 0);
    EXPECT_GE(a.wall_s, 0.05);
    EXPECT_GT(a.user_cpu_s + a.sys_cpu_s, 0.0);
    EXPECT_GT(a.max_rss_kib, 0);
  }
  EXPECT_EQ(seen, std::vector<int>(4, 1));
}

TEST_F(FabricTest, RetryRunsWhenItsBackoffEndsNotWhenASlowPeerExits) {
  // Two units on two workers.  Unit 0's first attempt dies at once and
  // is due again 50 ms later; unit 1 holds the other worker for 1.5 s.
  // The free slot must take the retry when its backoff ends, so the
  // retry finishes first.
  CampaignConfig cfg = tiny();
  cfg.speeds = {5};
  FabricConfig fab = quick_fabric();
  fab.backoff_base_s = 0.05;
  fab.test_child_hook = [](const WorkUnit& u, std::uint32_t attempt) {
    if (u.index == 0 && attempt == 1) ::raise(SIGKILL);
    if (u.index == 1) ::usleep(1'500'000);
  };
  std::ostringstream log;
  const FabricReport report = run_campaign_fabric(cfg, fab, &log);
  EXPECT_EQ(report.units_ok, 2u);
  const std::size_t retry_ok = log.str().find("[unit 1/2] ok");
  const std::size_t slow_ok = log.str().find("[unit 2/2] ok");
  ASSERT_NE(retry_ok, std::string::npos) << log.str();
  ASSERT_NE(slow_ok, std::string::npos) << log.str();
  EXPECT_LT(retry_ok, slow_ok) << log.str();
}

TEST_F(FabricTest, TimedOutWorkerIsRecordedAsTimeout) {
  CampaignConfig cfg = tiny();
  cfg.speeds = {5};
  cfg.repetitions = 1;
  setenv("MTS_FABRIC_TEST_HANG_UNIT", "0", 1);
  FabricConfig fab = quick_fabric();
  fab.unit_timeout_s = 0.2;
  fab.max_retries = 0;
  const FabricReport report = run_campaign_fabric(cfg, fab);
  EXPECT_EQ(report.units_failed, 1u);
  ASSERT_EQ(report.attempts.size(), 1u);
  EXPECT_EQ(report.attempts[0].exit, WorkerExit::kTimeout);
  EXPECT_EQ(report.attempts[0].code, SIGKILL);
  EXPECT_GE(report.attempts[0].wall_s, 0.2);
  // One wake at the deadline (the kill), one at the hang-up (the reap).
  EXPECT_EQ(report.idle_wakes, 0u);
}

TEST_F(FabricTest, CrashedSweepResumesAndMergesByteIdentical) {
  const CampaignConfig cfg = tiny();
  const CampaignResult reference = run_direct(cfg);

  // Invocation 1 stands in for a host that died mid-sweep: unit 0's
  // worker is SIGKILLed on every attempt and no retries are granted, so
  // its shard ends up failed while units 1-3 complete normally.
  FabricConfig crash = quick_fabric();
  crash.max_retries = 0;
  crash.test_child_hook = [](const WorkUnit& u, std::uint32_t) {
    if (u.index == 0) ::raise(SIGKILL);
  };
  const FabricReport first = run_campaign_fabric(cfg, crash);
  EXPECT_EQ(first.units_failed, 1u);
  EXPECT_EQ(first.units_ok, 3u);
  EXPECT_TRUE(first.complete);  // degraded rows keep the grid complete
  ASSERT_EQ(first.failures.size(), 1u);
  EXPECT_EQ(first.failures[0].index, 0u);

  // Invocation 2: resume without the fault.  Only the failed unit is
  // re-run; the intact shards are ingested from disk.
  const FabricReport second = run_campaign_fabric(cfg, quick_fabric());
  EXPECT_EQ(second.units_resumed, 3u);
  EXPECT_EQ(second.units_run, 1u);
  EXPECT_EQ(second.units_failed, 0u);
  EXPECT_TRUE(second.complete);

  // The merged result is byte-identical to an uninterrupted run (the
  // re-run starts a fresh attempt budget, so even attempts match).
  EXPECT_EQ(csv_of(cfg, second.result), csv_of(cfg, reference));
}

TEST_F(FabricTest, TimeoutKillsTheHangingWorkerAndTheRetrySucceeds) {
  const CampaignConfig cfg = tiny();
  const CampaignResult reference = run_direct(cfg);

  // Env-forced hang: unit 0's worker (speed 5, repetition 0) spins
  // forever on attempt 1 and behaves on attempt 2 — the supervisor must
  // SIGKILL it at the deadline and the retry completes the unit.
  setenv("MTS_FABRIC_TEST_HANG_UNIT", "0", 1);
  setenv("MTS_FABRIC_TEST_HANG_ATTEMPTS", "1", 1);
  FabricConfig fab = quick_fabric();
  fab.unit_timeout_s = 2.0;
  std::ostringstream log;
  const FabricReport report = run_campaign_fabric(cfg, fab, &log);
  EXPECT_EQ(report.units_failed, 0u);
  EXPECT_EQ(report.units_ok, 4u);
  EXPECT_TRUE(report.complete);
  EXPECT_NE(log.str().find("timeout after"), std::string::npos) << log.str();
  // Same results as the direct runs, modulo attempts=2 on the hung unit.
  for (const RunMetrics& got : report.result.runs(Protocol::kAodv, 5)) {
    EXPECT_EQ(got.run_status, RunStatus::kOk);
    EXPECT_EQ(got.attempts, got.seed == cfg.seed_base ? 2u : 1u);
  }
  EXPECT_EQ(report.result.summarize(
                          Protocol::kAodv, 5,
                          [](const RunMetrics& m) {
                            return static_cast<double>(m.segments_delivered);
                          })
                .mean(),
            reference.summarize(Protocol::kAodv, 5, [](const RunMetrics& m) {
                       return static_cast<double>(m.segments_delivered);
                     }).mean());
}

TEST_F(FabricTest, PermanentHangDegradesToFailedRowsAndStillCompletes) {
  // A 1-run grid whose only unit hangs on every attempt: after
  // 1 + max_retries timeouts the fabric must give up, emit failed
  // placeholder rows carrying the full cell identity, and return a
  // complete report — graceful degradation, not a wedged sweep.
  CampaignConfig cfg = tiny();
  cfg.speeds = {5};
  cfg.repetitions = 1;
  setenv("MTS_FABRIC_TEST_HANG_UNIT", "0", 1);
  FabricConfig fab = quick_fabric();
  fab.unit_timeout_s = 0.4;
  fab.max_retries = 1;
  const FabricReport report = run_campaign_fabric(cfg, fab);
  EXPECT_TRUE(report.complete);
  EXPECT_EQ(report.units_failed, 1u);
  EXPECT_EQ(report.units_ok, 0u);
  ASSERT_EQ(report.failures.size(), 1u);
  EXPECT_EQ(report.failures[0].attempts, 2u);
  EXPECT_NE(report.failures[0].error.find("timeout"), std::string::npos);

  const auto& rows = report.result.runs(Protocol::kAodv, 5);
  ASSERT_EQ(rows.size(), 1u);
  for (const RunMetrics& m : rows) {
    EXPECT_EQ(m.run_status, RunStatus::kFailed);
    EXPECT_EQ(m.attempts, 2u);
    EXPECT_NE(m.run_error.find("timeout"), std::string::npos);
    EXPECT_EQ(m.protocol, Protocol::kAodv);
    EXPECT_DOUBLE_EQ(m.max_speed, 5.0);
  }
  // Honest accounting: summarize must skip the failed placeholders —
  // zeros averaged in would silently bias every figure.
  const stats::Summary s = report.result.summarize(
      Protocol::kAodv, 5,
      [](const RunMetrics& m) { return static_cast<double>(m.seed); });
  EXPECT_EQ(s.count(), 0u);
  // The failed shard is not a cache hit: drop the fault and resume, and
  // the unit runs again with a fresh retry budget.
  unsetenv("MTS_FABRIC_TEST_HANG_UNIT");
  const FabricReport retry = run_campaign_fabric(cfg, quick_fabric());
  EXPECT_EQ(retry.units_run, 1u);
  EXPECT_EQ(retry.units_resumed, 0u);
  EXPECT_EQ(retry.units_failed, 0u);
}

TEST_F(FabricTest, ShardSlicesMergeAcrossInvocations) {
  const CampaignConfig cfg = tiny();
  const CampaignResult reference = run_direct(cfg);

  // Two hosts, one slice each.  The first finisher's grid is
  // incomplete: its peer's shard is still pending.
  FabricConfig shard0 = quick_fabric();
  shard0.shard_index = 0;
  shard0.shard_count = 2;
  const FabricReport first = run_campaign_fabric(cfg, shard0);
  EXPECT_EQ(first.units_owned, 2u);
  EXPECT_EQ(first.units_run, 2u);
  EXPECT_FALSE(first.complete);

  // The second shard runs its slice, ingests the first one's shard
  // file, and merges the full grid byte-identical to the direct runs.
  FabricConfig shard1 = quick_fabric();
  shard1.shard_index = 1;
  shard1.shard_count = 2;
  const FabricReport second = run_campaign_fabric(cfg, shard1);
  EXPECT_EQ(second.units_owned, 2u);
  EXPECT_EQ(second.units_run, 2u);
  EXPECT_TRUE(second.complete);
  EXPECT_EQ(csv_of(cfg, second.result), csv_of(cfg, reference));
}

}  // namespace
}  // namespace mts::harness
