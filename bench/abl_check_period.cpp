// Ablation B: the paper fixes the route-checking period at "two to four
// seconds" (§III-D) as a function of channel coherence time.  This
// sweep varies the period at MAXSPEED 10 m/s and shows the trade the
// paper describes: shorter periods buy fresher routes (higher
// throughput, more participating relays) at the price of control
// overhead; long periods let state go stale.
#include <iostream>

#include "harness/supervisor.hpp"
#include "stats/summary.hpp"
#include "stats/table.hpp"

int main() {
  using namespace mts;
  using harness::RunMetrics;

  const std::vector<double> periods_s{1, 2, 3, 4, 6, 8};

  harness::CampaignConfig base;
  harness::FabricConfig fab;
  harness::apply_bench_env(base, fab);
  base.protocols = {harness::Protocol::kMts};
  base.speeds = {10};

  std::cout << "Ablation B: MTS check period sweep @ MAXSPEED 10 m/s ("
            << base.repetitions << " reps x "
            << base.base.sim_time.to_seconds() << "s)\n";

  stats::Table table({"check period (s)", "throughput (kb/s)",
                      "participating nodes", "highest Ri",
                      "control packets", "route switches"});
  for (double period : periods_s) {
    harness::CampaignConfig cfg = base;
    cfg.base.mts.check_period = sim::Time::seconds(period);
    const harness::CampaignResult r =
        harness::run_campaign_fabric(cfg, fab, &std::cerr).result;
    auto mean = [&](const std::function<double(const RunMetrics&)>& f) {
      return r.summarize(harness::Protocol::kMts, 10, f).mean();
    };
    table.add_row(
        {stats::Table::fmt(period, 0),
         stats::Table::fmt(mean([](const RunMetrics& m) {
           return m.throughput_kbps;
         }), 1),
         stats::Table::fmt(mean([](const RunMetrics& m) {
           return static_cast<double>(m.participating_nodes);
         }), 1),
         stats::Table::fmt(mean([](const RunMetrics& m) {
           return m.highest_interception_ratio;
         }), 3),
         stats::Table::fmt(mean([](const RunMetrics& m) {
           return static_cast<double>(m.control_packets);
         }), 0),
         stats::Table::fmt(mean([](const RunMetrics& m) {
           return static_cast<double>(m.route_switches);
         }), 1)});
  }
  table.print(std::cout);
  return 0;
}
