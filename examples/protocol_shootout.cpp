// Protocol shootout: a miniature version of the paper's full evaluation
// sweep — three protocols, a few speeds, TCP metrics side by side.
// Shows how to drive the campaign fabric (`run_campaign_fabric`)
// programmatically instead of through the per-figure bench binaries.
// Its shards live in a temporary directory that is removed afterwards,
// so every run simulates afresh.
#include <unistd.h>

#include <filesystem>
#include <iostream>
#include <string>

#include "harness/supervisor.hpp"

int main() {
  using namespace mts;
  using harness::RunMetrics;

  harness::CampaignConfig cfg;
  cfg.speeds = {2, 10, 20};
  cfg.repetitions = 2;
  cfg.base.sim_time = sim::Time::sec(60);

  std::cout << "Shootout: " << cfg.speeds.size() << " speeds x 3 protocols x "
            << cfg.repetitions << " reps, "
            << cfg.base.sim_time.to_seconds() << "s each...\n";
  harness::FabricConfig fab;
  fab.shard_dir = std::filesystem::temp_directory_path() /
                  ("mts_shootout_" + std::to_string(::getpid()));
  const harness::CampaignResult result =
      harness::run_campaign_fabric(cfg, fab).result;
  std::filesystem::remove_all(fab.shard_dir);

  harness::print_figure(std::cout, result, cfg, "Throughput", "kb/s",
                        [](const RunMetrics& m) { return m.throughput_kbps; },
                        1);
  harness::print_figure(std::cout, result, cfg, "Average end-to-end delay",
                        "ms",
                        [](const RunMetrics& m) { return m.avg_delay_s * 1e3; },
                        1);
  harness::print_figure(std::cout, result, cfg, "Delivery rate", "fraction",
                        [](const RunMetrics& m) { return m.delivery_rate; });
  harness::print_figure(std::cout, result, cfg, "Control overhead",
                        "routing packets",
                        [](const RunMetrics& m) {
                          return static_cast<double>(m.control_packets);
                        },
                        0);
  return 0;
}
