#pragma once

#include <filesystem>
#include <string>
#include <vector>

#include "harness/work_unit.hpp"

namespace mts::harness {

/// Per-unit shard files: the fabric's durable state, and the only
/// thing a campaign persists.
///
/// Each worker writes its unit's rows as one CSV (`unit-<idhex>.csv`)
/// in the campaign's shard directory — via a temp file and an atomic
/// rename, so a shard either exists complete or not at all; a worker
/// killed mid-write leaves only a `.tmp` the next supervisor sweeps
/// away.  The directory is named by the campaign key, so a config
/// change can never resume from foreign shards.
class ShardStore {
 public:
  /// What scanning a unit's shard found.
  enum class State {
    kMissing,  ///< no shard (or an invalid one, now deleted): schedule it
    kOk,       ///< complete, all rows ok: ingest, skip the unit
    kFailed,   ///< complete but holds failed placeholder rows: reschedule
  };

  explicit ShardStore(std::filesystem::path dir) : dir_(std::move(dir)) {}

  /// Shard directory for a campaign, under the cache root
  /// ($MTS_BENCH_CACHE_DIR, default `.mts_bench_cache`):
  /// `<cache>/shards/<campaign key>`.
  static std::filesystem::path dir_for(const CampaignConfig& cfg);

  [[nodiscard]] const std::filesystem::path& dir() const { return dir_; }
  [[nodiscard]] std::filesystem::path path_of(const WorkUnit& unit) const;

  /// Creates the directory and removes stale `.tmp` leftovers of
  /// workers that died mid-write.  Returns false if the directory
  /// cannot be created.
  bool prepare();

  /// Atomically persists a unit's rows (temp + rename).  Returns false
  /// on any I/O failure; `error` then holds a description.
  bool write(const WorkUnit& unit, const std::vector<RunMetrics>& rows,
             std::string* error) const;

  /// Validates and loads a unit's shard.  A shard is complete when it
  /// carries the current header, every row parses, the final line ends
  /// in a newline, and the row count equals the unit's run count; a
  /// truncated final line (mid-write kill on a filesystem without the
  /// rename guarantee) or any other corruption deletes the file and
  /// reports kMissing so the supervisor simply re-runs the unit.
  State read(const WorkUnit& unit, std::vector<RunMetrics>& out) const;

  /// Deletes a unit's shard (used before re-running a failed unit).
  void remove(const WorkUnit& unit) const;

 private:
  std::filesystem::path dir_;
};

}  // namespace mts::harness
