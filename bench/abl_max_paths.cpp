// Ablation C: the paper stores "not more than five" disjoint paths at
// the destination (§III-B) "in order to save space".  This sweep varies
// that cap at MAXSPEED 10 m/s.  K = 1 collapses MTS to a single
// checked path (no spreading, security regresses toward AODV); larger K
// spreads relaying across more nodes until path diversity in a 50-node
// field saturates.
#include <iostream>

#include "harness/supervisor.hpp"
#include "stats/table.hpp"

int main() {
  using namespace mts;
  using harness::RunMetrics;

  const std::vector<std::size_t> caps{1, 2, 3, 5, 8};

  harness::CampaignConfig base;
  harness::FabricConfig fab;
  harness::apply_bench_env(base, fab);
  base.protocols = {harness::Protocol::kMts};
  base.speeds = {10};

  std::cout << "Ablation C: MTS max disjoint paths sweep @ MAXSPEED 10 m/s ("
            << base.repetitions << " reps x "
            << base.base.sim_time.to_seconds() << "s)\n";

  stats::Table table({"max paths", "participating nodes", "relay stddev %",
                      "highest Ri", "throughput (kb/s)", "control packets"});
  for (std::size_t cap : caps) {
    harness::CampaignConfig cfg = base;
    cfg.base.mts.max_paths = cap;
    const harness::CampaignResult r =
        harness::run_campaign_fabric(cfg, fab, &std::cerr).result;
    auto mean = [&](const std::function<double(const RunMetrics&)>& f) {
      return r.summarize(harness::Protocol::kMts, 10, f).mean();
    };
    table.add_row(
        {std::to_string(cap),
         stats::Table::fmt(mean([](const RunMetrics& m) {
           return static_cast<double>(m.participating_nodes);
         }), 1),
         stats::Table::fmt(mean([](const RunMetrics& m) {
           return m.relay_stddev * 100.0;
         }), 2),
         stats::Table::fmt(mean([](const RunMetrics& m) {
           return m.highest_interception_ratio;
         }), 3),
         stats::Table::fmt(mean([](const RunMetrics& m) {
           return m.throughput_kbps;
         }), 1),
         stats::Table::fmt(mean([](const RunMetrics& m) {
           return static_cast<double>(m.control_packets);
         }), 0)});
  }
  table.print(std::cout);
  return 0;
}
