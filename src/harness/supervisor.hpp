#pragma once

#include <filesystem>
#include <functional>
#include <ostream>
#include <string>
#include <vector>

#include "harness/work_unit.hpp"

namespace mts::harness {

/// Knobs of the fault-tolerant campaign fabric, the one campaign
/// executor.
struct FabricConfig {
  /// Concurrent worker processes; 0 = hardware concurrency
  /// (MTS_BENCH_THREADS in the benches).
  unsigned workers = 0;
  /// Work cells (see `partition_campaign`) batched into one worker
  /// process (SoA batch mode): tiny cells amortize fork/pool/shard
  /// setup.  Part of the partition, so resume requires the same value.
  std::size_t cells_per_unit = 1;
  /// Per-unit wall-clock timeout in seconds; a worker past it is
  /// SIGKILLed and the attempt counts as failed.  0 = no timeout.
  double unit_timeout_s = 0.0;
  /// Retries after the first failed attempt (total attempts = 1 + this)
  /// before the unit degrades to `failed` placeholder rows.
  std::uint32_t max_retries = 2;
  /// Exponential backoff: attempt k reruns no earlier than
  /// `backoff_base_s * 2^(k-1)` seconds after its failure.
  double backoff_base_s = 0.25;
  /// Multi-host slicing (`--shard i/n`): this invocation executes only
  /// units whose index ≡ shard_index (mod shard_count), but ingests
  /// every complete shard it finds, so the last finisher (or a final
  /// pass without `--shard`) merges the whole grid.
  std::uint32_t shard_index = 0;
  std::uint32_t shard_count = 1;
  /// Ingest complete shards from a previous (possibly killed) run and
  /// schedule only missing/failed units — a re-run that finds every
  /// shard is the campaign's cache hit.  false (MTS_BENCH_NO_CACHE=1
  /// in the benches) recomputes this invocation's slice from scratch.
  bool resume = true;
  /// Shard directory override; empty = `ShardStore::dir_for(cfg)`.
  std::filesystem::path shard_dir;
  /// Test seam, run inside the forked worker before any cell executes
  /// (fault injection: raise(SIGKILL), throw, ...).  Never set outside
  /// tests.
  std::function<void(const WorkUnit&, std::uint32_t attempt)> test_child_hook;
};

/// One unit that exhausted its retries.
struct FailedUnit {
  std::uint64_t id = 0;
  std::uint32_t index = 0;
  std::uint32_t attempts = 0;
  std::string error;
};

/// How one worker process ended.
enum class WorkerExit {
  kOk,        ///< exited 0 (the unit still needs a valid shard to count)
  kExitCode,  ///< exited with a non-zero code
  kSignal,    ///< killed by a signal it did not get from the supervisor
  kTimeout,   ///< SIGKILLed by the supervisor past `unit_timeout_s`
};

/// One worker process, spawn to reap; the resource figures come from
/// `wait4`.
struct AttemptRecord {
  std::uint32_t index = 0;    ///< unit index
  std::uint32_t attempt = 1;  ///< 1-based
  WorkerExit exit = WorkerExit::kOk;
  int code = 0;               ///< exit code, or signal number
  double wall_s = 0.0;        ///< fork to reap
  double user_cpu_s = 0.0;
  double sys_cpu_s = 0.0;
  long max_rss_kib = 0;       ///< peak resident set of the worker
};

/// What a fabric invocation did and what the grid now looks like.
struct FabricReport {
  CampaignResult result;       ///< ingested + freshly run rows
  std::size_t units_total = 0;    ///< whole partition
  std::size_t units_owned = 0;    ///< in this invocation's shard slice
  std::size_t units_resumed = 0;  ///< ingested from disk, not re-run
  std::size_t units_run = 0;      ///< spawned at least one worker here
  std::size_t units_ok = 0;       ///< units with ok rows in `result`
  std::size_t units_failed = 0;   ///< units degraded to failed rows
  std::vector<FailedUnit> failures;
  /// One record per spawned worker, in reap order (empty on builds
  /// without fork).  Not part of the CSV or the shards.
  std::vector<AttemptRecord> attempts;
  /// Supervisor wakes that reaped, spawned and killed nothing.  The
  /// supervisor sleeps until a worker exits or the nearest unit
  /// deadline or retry time, so a clean run reads 0.
  std::size_t idle_wakes = 0;
  /// Every unit of the grid has rows in `result` (all shards present).
  /// False on a `--shard` slice whose peers have not finished yet.
  bool complete = false;
};

/// Runs the campaign: partitions the grid into work units, ingests
/// complete shards (resume), forks one worker process per remaining
/// unit (bounded by `workers`), and supervises timeouts,
/// bounded-backoff retries and graceful degradation to `failed` rows.
/// A crashing or hanging scenario takes down only its unit; the sweep
/// always completes and reports.  With fork, the report's rows are read
/// back from the shards, so only the CSV columns carry values.
FabricReport run_campaign_fabric(const CampaignConfig& cfg,
                                 const FabricConfig& fab,
                                 std::ostream* progress = nullptr);

}  // namespace mts::harness
