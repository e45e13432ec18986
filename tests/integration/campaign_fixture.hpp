#pragma once

// Helpers for tests that run whole campaigns.  Every campaign goes
// through the fabric, which persists shards; tests keep them in a
// per-test temporary directory so a second ctest run simulates again
// instead of resuming, and nothing lands in the build tree.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "harness/campaign_csv.hpp"
#include "harness/supervisor.hpp"

namespace mts::harness {

/// A fresh temporary directory named after the running test; removed
/// again on destruction.
class ScratchDir {
 public:
  ScratchDir() {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = std::filesystem::temp_directory_path() /
            ("mts_" + std::string(info->test_suite_name()) + "_" +
             info->name() + "_" + std::to_string(::getpid()));
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::filesystem::path& path() const { return path_; }

 private:
  std::filesystem::path path_;
};

/// Runs `cfg` through the fabric (two workers) in a scratch shard
/// directory; the shards are gone when this returns.
inline CampaignResult run_test_campaign(const CampaignConfig& cfg) {
  const ScratchDir dir;
  FabricConfig fab;
  fab.workers = 2;
  fab.shard_dir = dir.path();
  FabricReport report = run_campaign_fabric(cfg, fab);
  EXPECT_TRUE(report.failures.empty());
  return std::move(report.result);
}

/// The reference a campaign must reproduce: every run of the grid,
/// in-process and one after another, tagged with its cell indices.
inline CampaignResult run_direct(const CampaignConfig& cfg) {
  CampaignResult out;
  for (std::uint32_t p = 0; p < cfg.protocols.size(); ++p) {
    for (std::uint32_t s = 0; s < cfg.speeds.size(); ++s) {
      for (std::uint32_t a = 0; a < cfg.adversaries.size(); ++a) {
        for (std::uint32_t d = 0; d < cfg.defenses.size(); ++d) {
          for (std::uint32_t t = 0; t < cfg.traffics.size(); ++t) {
            const WorkCell cell{p, s, a, d, t, 0, cfg.repetitions};
            for (std::uint32_t r = 0; r < cfg.repetitions; ++r) {
              RunMetrics m = run_scenario(cell_scenario(cfg, cell, r));
              m.adversary_index = a;
              m.defense_index = d;
              m.traffic_index = t;
              out.add(std::move(m));
            }
          }
        }
      }
    }
  }
  return out;
}

/// Byte-identical merged output: the strongest equivalence we can ask
/// for, and exactly what the sharded-sweep CI job diffs.
inline std::string csv_of(const CampaignConfig& cfg, const CampaignResult& r) {
  std::ostringstream os;
  csv::write_campaign(os, cfg, r);
  return os.str();
}

}  // namespace mts::harness
