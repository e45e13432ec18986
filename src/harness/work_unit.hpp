#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness/campaign.hpp"

namespace mts::harness {

/// One grid cell of a campaign plus the seed range to run in it: the
/// fabric's unit of scheduling, retry and shard storage.  Indices point
/// into the owning `CampaignConfig`'s lists, so a cell is meaningful
/// only next to the config that produced it — which is exactly the
/// resume contract: the same config partitions into the same cells.
struct WorkCell {
  std::uint32_t protocol = 0;   ///< index into cfg.protocols
  std::uint32_t speed = 0;      ///< index into cfg.speeds
  std::uint32_t adversary = 0;  ///< index into cfg.adversaries
  std::uint32_t defense = 0;    ///< index into cfg.defenses
  std::uint32_t traffic = 0;    ///< index into cfg.traffics
  std::uint32_t rep_begin = 0;  ///< first repetition (seed = seed_base + rep)
  std::uint32_t rep_end = 0;    ///< one past the last repetition

  [[nodiscard]] std::uint32_t runs() const { return rep_end - rep_begin; }
  bool operator==(const WorkCell&) const = default;
};

/// A batch of work cells one worker process executes and writes as one
/// shard.  `cells_per_unit > 1` is the SoA batch mode: tiny cells share
/// a single process setup (fork, pools, shard fsync) instead of paying
/// it per cell.
struct WorkUnit {
  /// Deterministic identity: a hash of the campaign key, the unit's
  /// first work-cell ordinal and its cell count.  Two invocations of
  /// the same (config, cells_per_unit) produce identical ids, so a
  /// resumed or sharded sweep finds exactly the shard files an earlier
  /// one wrote; any config change flips the campaign key and with it
  /// every id.
  std::uint64_t id = 0;
  std::uint32_t index = 0;  ///< position in the partition, 0-based
  std::vector<WorkCell> cells;

  [[nodiscard]] std::size_t total_runs() const {
    std::size_t n = 0;
    for (const WorkCell& c : cells) n += c.runs();
    return n;
  }
};

/// Grids with at least this many cells give each work cell a whole
/// repetition range, paying the per-unit fork/poll/shard cost once for
/// all of a cell's runs; that many cells already keep as many workers
/// busy.  A narrower grid gives every repetition its own work cell, so
/// a one-cell ablation still spreads its runs over the workers.
inline constexpr std::size_t kWideGridCells = 32;

/// Splits the campaign grid (protocol x speed x adversary x defense x
/// traffic, row-major in that order, then repetitions) into work cells
/// — one per grid cell, or one per run below `kWideGridCells` — and
/// batches `cells_per_unit` consecutive work cells into a unit (0 acts
/// as 1).  Pure function of its inputs: any two runs partition
/// identically, on any host and with any worker count.
std::vector<WorkUnit> partition_campaign(const CampaignConfig& cfg,
                                         std::size_t cells_per_unit);

/// The ScenarioConfig for one run of a cell: cfg.base with the cell's
/// protocol/speed/adversary/defense applied and seed = seed_base + rep.
ScenarioConfig cell_scenario(const CampaignConfig& cfg, const WorkCell& cell,
                             std::uint32_t rep);

/// Placeholder row for one run of a cell whose unit exhausted its
/// retries: carries the full cell identity so the merged CSV keeps the
/// grid complete, `run_status = kFailed` so `summarize` skips it.
RunMetrics failed_run_metrics(const CampaignConfig& cfg, const WorkCell& cell,
                              std::uint32_t rep, std::uint32_t attempts,
                              const std::string& error);

}  // namespace mts::harness
