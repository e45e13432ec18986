// Extension D: the paper's §II argues (citing Lim et al. [7]) that
// SMR's *concurrent* multipath "behaves worse than using only single
// path with TCP traffic", because striping segments over paths with
// different RTTs reorders them and triggers spurious congestion
// control.  MTS's answer is to use one (continuously re-validated)
// path at a time.  This bench reproduces that comparison: SMR vs DSR
// (the single-path protocol SMR extends) vs MTS, TCP throughput and
// spurious fast retransmits across the paper's speed sweep.
#include <iostream>

#include "harness/supervisor.hpp"

int main() {
  using namespace mts;
  using harness::Protocol;
  using harness::RunMetrics;

  harness::CampaignConfig cfg;
  harness::FabricConfig fab;
  harness::apply_bench_env(cfg, fab);
  cfg.protocols = {Protocol::kDsr, Protocol::kSmr, Protocol::kMts};

  std::cout << "Extension D: SMR's concurrent multipath vs single-path vs "
               "MTS\n(expected: SMR underperforms DSR with TCP — the "
               "paper's §II claim via [7])\n";
  const harness::CampaignResult result =
      harness::run_campaign_fabric(cfg, fab, &std::cerr).result;

  harness::print_figure(std::cout, result, cfg, "TCP throughput", "kb/s",
                        [](const RunMetrics& m) { return m.throughput_kbps; },
                        1);
  harness::print_figure(
      std::cout, result, cfg, "Retransmissions per delivered segment",
      "ratio",
      [](const RunMetrics& m) {
        return m.segments_delivered == 0
                   ? 0.0
                   : static_cast<double>(m.retransmits) /
                         static_cast<double>(m.segments_delivered);
      });
  return 0;
}
