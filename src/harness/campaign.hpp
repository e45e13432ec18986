#pragma once

#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "harness/scenario.hpp"
#include "stats/summary.hpp"

namespace mts::harness {

/// A full sweep: protocol x MAXSPEED x adversary x defense x
/// repetitions — the paper's grid (protocol x speed) plus the adversary
/// axis the extension benches sweep and the defense axis the
/// countermeasure study scores against it.  The default single
/// `AdversarySpec{}` / `DefenseSpec{}` (kind = kNone) reproduces the
/// paper's grid exactly.
struct CampaignConfig {
  ScenarioConfig base;  ///< speed/protocol/seed/adversary overwritten per cell
  std::vector<double> speeds{2, 5, 10, 15, 20};
  std::vector<Protocol> protocols{Protocol::kDsr, Protocol::kAodv,
                                  Protocol::kMts};
  std::vector<security::AdversarySpec> adversaries{security::AdversarySpec{}};
  std::vector<security::DefenseSpec> defenses{security::DefenseSpec{}};
  /// Traffic axis: user-plane workloads to sweep.  The default single
  /// disabled spec keeps the grid the pre-traffic one-cell product.
  std::vector<traffic::TrafficSpec> traffics{traffic::TrafficSpec{}};
  std::uint32_t repetitions = 5;  ///< paper: "repeated for 5 times"
  std::uint64_t seed_base = 1;
};

struct FabricConfig;

/// Stable content key for a campaign: a hash of every result-affecting
/// input plus the CSV header, so a changed column set never reads old
/// shards.  Names the campaign's shard directory and seeds its work
/// unit ids.
std::string campaign_key(const CampaignConfig& cfg);

/// Short human label for an adversary spec ("none", "colluding x4", ...).
std::string adversary_label(const security::AdversarySpec& spec);

/// Short human label for a defense spec ("none", "suite", ...).
std::string defense_label(const security::DefenseSpec& spec);

/// Short human label for a traffic spec ("off", "20/s x4gw", ...).
std::string traffic_label(const traffic::TrafficSpec& spec);

/// All runs, indexable by (protocol, speed[, adversary[, defense]]).
class CampaignResult {
 public:
  void add(RunMetrics m);

  /// Runs of the adversary-free, undefended paper grid (indices 0, 0).
  [[nodiscard]] const std::vector<RunMetrics>& runs(Protocol p,
                                                    double speed) const {
    return runs(p, speed, 0, 0);
  }
  [[nodiscard]] const std::vector<RunMetrics>& runs(
      Protocol p, double speed, std::uint32_t adversary) const {
    return runs(p, speed, adversary, 0);
  }
  [[nodiscard]] const std::vector<RunMetrics>& runs(
      Protocol p, double speed, std::uint32_t adversary,
      std::uint32_t defense) const {
    return runs(p, speed, adversary, defense, 0);
  }
  [[nodiscard]] const std::vector<RunMetrics>& runs(
      Protocol p, double speed, std::uint32_t adversary,
      std::uint32_t defense, std::uint32_t traffic) const;

  /// Aggregates one metric across the repetitions of a cell.
  [[nodiscard]] stats::Summary summarize(
      Protocol p, double speed,
      const std::function<double(const RunMetrics&)>& metric) const {
    return summarize(p, speed, 0, 0, metric);
  }
  [[nodiscard]] stats::Summary summarize(
      Protocol p, double speed, std::uint32_t adversary,
      const std::function<double(const RunMetrics&)>& metric) const {
    return summarize(p, speed, adversary, 0, metric);
  }
  [[nodiscard]] stats::Summary summarize(
      Protocol p, double speed, std::uint32_t adversary,
      std::uint32_t defense,
      const std::function<double(const RunMetrics&)>& metric) const {
    return summarize(p, speed, adversary, defense, 0, metric);
  }
  [[nodiscard]] stats::Summary summarize(
      Protocol p, double speed, std::uint32_t adversary,
      std::uint32_t defense, std::uint32_t traffic,
      const std::function<double(const RunMetrics&)>& metric) const;

  [[nodiscard]] std::size_t total_runs() const { return count_; }

 private:
  static std::int64_t speed_key(double speed) {
    return static_cast<std::int64_t>(speed * 1000.0 + 0.5);
  }
  std::map<std::tuple<int, std::int64_t, std::uint32_t, std::uint32_t,
                      std::uint32_t>,
           std::vector<RunMetrics>>
      cells_;
  std::size_t count_ = 0;
};

/// Prints one paper figure: rows = MAXSPEED, one column (mean +/- 95 % CI
/// half-width) per protocol.
void print_figure(std::ostream& os, const CampaignResult& result,
                  const CampaignConfig& cfg, const std::string& title,
                  const std::string& unit,
                  const std::function<double(const RunMetrics&)>& metric,
                  int precision = 3);

/// Prints one table per adversary spec in the sweep: rows = MAXSPEED,
/// one column per protocol — the adversary-axis analogue of
/// `print_figure`.
void print_adversary_figure(
    std::ostream& os, const CampaignResult& result, const CampaignConfig& cfg,
    const std::string& title, const std::string& unit,
    const std::function<double(const RunMetrics&)>& metric, int precision = 3);

/// Strict unsigned-integer env parse of value `v` of variable `name`.
/// `std::stoul` would throw (and kill the bench with an unhelpful
/// backtrace) on junk like `MTS_BENCH_THREADS=max`; instead a malformed
/// value or one above `max` warns on stderr and returns false, so the
/// caller keeps its default.
bool parse_env_u64(const char* name, const char* v, std::uint64_t max,
                   std::uint64_t& out);

/// Strict positive-double env parse with the same warn-and-fall-back
/// contract.  Rejects non-finite values and anything above 1e9: the
/// consumers multiply by 1e9 (Time::seconds) or feed mobility speeds,
/// and an `inf`/1e15 would turn into int64 overflow UB downstream.
bool parse_env_double(const char* name, const char* v, double& out);

/// Reads the standard bench environment overrides: MTS_BENCH_REPS,
/// MTS_BENCH_SIM_TIME, MTS_BENCH_SPEEDS and MTS_BENCH_NODES into `cfg`;
/// MTS_BENCH_THREADS into `fab.workers`; MTS_BENCH_NO_CACHE=1 turns
/// `fab.resume` off, so nothing from an earlier invocation is read.
void apply_bench_env(CampaignConfig& cfg, FabricConfig& fab);

}  // namespace mts::harness
