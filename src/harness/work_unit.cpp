#include "harness/work_unit.hpp"

#include <algorithm>

#include "sim/error.hpp"
#include "sim/rng.hpp"

namespace mts::harness {

std::vector<WorkUnit> partition_campaign(const CampaignConfig& cfg,
                                         std::size_t cells_per_unit) {
  sim::require_config(!cfg.protocols.empty() && !cfg.speeds.empty(),
                      "Fabric: empty protocol or speed axis");
  sim::require_config(!cfg.adversaries.empty() && !cfg.defenses.empty(),
                      "Fabric: adversaries/defenses list empty "
                      "(use a kNone spec)");
  sim::require_config(!cfg.traffics.empty(),
                      "Fabric: traffics list empty (use a disabled spec)");
  if (cells_per_unit == 0) cells_per_unit = 1;
  // The id namespace is the campaign itself: units of different
  // campaigns can never be confused even if a shard directory is
  // (mis)shared.
  const std::uint64_t campaign_hash =
      sim::fnv1a(campaign_key(cfg));
  std::vector<WorkUnit> units;
  WorkUnit current;
  std::uint32_t ordinal = 0;
  auto flush = [&](std::uint32_t first_ordinal) {
    if (current.cells.empty()) return;
    current.index = static_cast<std::uint32_t>(units.size());
    current.id = sim::splitmix64(
        campaign_hash ^ sim::splitmix64(first_ordinal) ^
        sim::splitmix64(static_cast<std::uint64_t>(current.cells.size())
                        << 32));
    units.push_back(std::move(current));
    current = WorkUnit{};
  };
  const std::size_t grid_cells = cfg.protocols.size() * cfg.speeds.size() *
                                 cfg.adversaries.size() *
                                 cfg.defenses.size() * cfg.traffics.size();
  const std::uint32_t reps_per_cell =
      grid_cells < kWideGridCells ? 1 : cfg.repetitions;
  std::uint32_t batch_first = 0;
  for (std::uint32_t p = 0; p < cfg.protocols.size(); ++p) {
    for (std::uint32_t s = 0; s < cfg.speeds.size(); ++s) {
      for (std::uint32_t a = 0; a < cfg.adversaries.size(); ++a) {
        for (std::uint32_t d = 0; d < cfg.defenses.size(); ++d) {
          for (std::uint32_t t = 0; t < cfg.traffics.size(); ++t) {
            for (std::uint32_t r = 0; r < cfg.repetitions;
                 r += reps_per_cell) {
              if (current.cells.empty()) batch_first = ordinal;
              current.cells.push_back(WorkCell{
                  p, s, a, d, t, r,
                  std::min(r + reps_per_cell, cfg.repetitions)});
              if (current.cells.size() >= cells_per_unit) flush(batch_first);
              ++ordinal;
            }
          }
        }
      }
    }
  }
  flush(batch_first);
  return units;
}

ScenarioConfig cell_scenario(const CampaignConfig& cfg, const WorkCell& cell,
                             std::uint32_t rep) {
  sim::require_config(cell.protocol < cfg.protocols.size() &&
                          cell.speed < cfg.speeds.size() &&
                          cell.adversary < cfg.adversaries.size() &&
                          cell.defense < cfg.defenses.size() &&
                          cell.traffic < cfg.traffics.size(),
                      "Fabric: work cell indexes outside the campaign grid "
                      "(a cell of a different config?)");
  ScenarioConfig sc = cfg.base;
  sc.protocol = cfg.protocols[cell.protocol];
  sc.max_speed = cfg.speeds[cell.speed];
  // Same seed across protocols/adversaries/defenses/traffics for a given
  // (speed, rep): paired comparisons see identical mobility and flow
  // placement.
  sc.seed = cfg.seed_base + rep;
  sc.adversary = cfg.adversaries[cell.adversary];
  sc.defense = cfg.defenses[cell.defense];
  sc.traffic = cfg.traffics[cell.traffic];
  return sc;
}

RunMetrics failed_run_metrics(const CampaignConfig& cfg, const WorkCell& cell,
                              std::uint32_t rep, std::uint32_t attempts,
                              const std::string& error) {
  RunMetrics m;
  m.protocol = cfg.protocols[cell.protocol];
  m.max_speed = cfg.speeds[cell.speed];
  m.seed = cfg.seed_base + rep;
  m.adversary_index = cell.adversary;
  m.adversary_kind = cfg.adversaries[cell.adversary].kind;
  m.adversary_count = cfg.adversaries[cell.adversary].count;
  m.defense_index = cell.defense;
  m.defense_kind = cfg.defenses[cell.defense].kind;
  m.traffic_index = cell.traffic;
  m.run_status = RunStatus::kFailed;
  m.attempts = attempts;
  m.run_error = error;
  return m;
}

}  // namespace mts::harness
