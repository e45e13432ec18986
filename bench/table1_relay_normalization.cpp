// Table I: "Normalization of the received packets in the participating
// nodes" — one DSR scenario's per-node relay counts (beta), their
// normalized shares (gamma, Eq. 3), the total (alpha, Eq. 2), and the
// normalized standard deviation (Eq. 4 / Table I's sample form).
//
// Two tables are printed: (a) the paper's literal Table I beta column
// re-normalized through our implementation (validating the math against
// the published alpha = 30486 and sigma = 19.60 %), and (b) the same
// table produced live from one simulated DSR run.
#include <cstdlib>
#include <iostream>

#include "harness/campaign.hpp"
#include "harness/scenario.hpp"
#include "security/relay_census.hpp"
#include "stats/table.hpp"

namespace {

void print_report(const mts::security::RelayReport& report) {
  mts::stats::Table t({"Node ID", "beta", "gamma"});
  for (const auto& [node, beta] : report.participants) {
    t.add_row({std::to_string(node), std::to_string(beta),
               mts::stats::Table::fmt(100.0 * static_cast<double>(beta) /
                                          static_cast<double>(report.alpha),
                                      5) +
                   "%"});
  }
  t.print(std::cout);
  std::cout << "alpha = " << report.alpha << ", standard deviation = "
            << mts::stats::Table::fmt(report.normalized_stddev * 100.0, 2)
            << "%\n";
}

}  // namespace

int main() {
  using namespace mts;

  std::cout << "Table I (a): the paper's published beta column\n";
  const std::vector<std::pair<net::NodeId, std::uint64_t>> paper_betas = {
      {2, 10581}, {3, 283},  {17, 1}, {21, 3886},
      {23, 1},    {28, 15458}, {36, 275}, {45, 1}};
  print_report(security::analyze_relays(paper_betas));
  std::cout << "paper reports: alpha = 30486, standard deviation = 19.60%\n\n";

  std::cout << "Table I (b): live DSR run (50 nodes, MAXSPEED 2, 200 s)\n";
  harness::ScenarioConfig cfg;
  cfg.protocol = harness::Protocol::kDsr;
  cfg.max_speed = 2.0;
  cfg.seed = 1;
  if (const char* v = std::getenv("MTS_BENCH_SIM_TIME")) {
    double seconds = 0.0;
    if (harness::parse_env_double("MTS_BENCH_SIM_TIME", v, seconds)) {
      cfg.sim_time = sim::Time::seconds(seconds);
    }
  }
  const harness::RunMetrics m = harness::run_scenario(cfg);
  print_report(security::analyze_relays(m.betas));
  return 0;
}
