#pragma once

// Shared scaffolding for the per-figure bench binaries: every figure of
// the paper is one sweep (protocol x MAXSPEED x repetitions) projected
// onto one metric, run through the campaign fabric.  Environment
// overrides (all optional):
//   MTS_BENCH_REPS       repetitions per cell       (default 5, as paper)
//   MTS_BENCH_SIM_TIME   seconds simulated per run  (default 200, as paper)
//   MTS_BENCH_SPEEDS     comma list of MAXSPEEDs    (default 2,5,10,15,20)
//   MTS_BENCH_THREADS    worker processes           (default: hw cores)
//   MTS_BENCH_NODES      node count                 (default 50, as paper)
//   MTS_BENCH_CACHE_DIR  shard cache root           (default .mts_bench_cache)
//   MTS_BENCH_NO_CACHE   1 = recompute, read no earlier shards

#include <functional>
#include <iostream>
#include <string>

#include "harness/supervisor.hpp"

namespace mts::bench {

/// Runs the paper sweep (resuming from the shared shard cache — the
/// eight figure benches project one grid) and prints one figure table.
inline int run_figure_bench(
    const std::string& title, const std::string& shape_note,
    const std::string& unit,
    const std::function<double(const harness::RunMetrics&)>& metric,
    int precision = 3) {
  harness::CampaignConfig cfg;
  harness::FabricConfig fab;
  harness::apply_bench_env(cfg, fab);
  std::cout << title << "\n" << shape_note << "\n";
  std::cout << "sweep: " << cfg.protocols.size() << " protocols x "
            << cfg.speeds.size() << " speeds x " << cfg.repetitions
            << " reps, " << cfg.base.sim_time.to_seconds() << "s each\n";
  const harness::CampaignResult result =
      harness::run_campaign_fabric(cfg, fab, &std::cerr).result;
  harness::print_figure(std::cout, result, cfg, title, unit, metric, precision);
  return 0;
}

}  // namespace mts::bench
