#include "harness/shard_store.hpp"

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "harness/campaign_csv.hpp"

namespace mts::harness {

std::filesystem::path ShardStore::dir_for(const CampaignConfig& cfg) {
  const char* root = std::getenv("MTS_BENCH_CACHE_DIR");
  return std::filesystem::path(root != nullptr ? root : ".mts_bench_cache") /
         "shards" / campaign_key(cfg);
}

std::filesystem::path ShardStore::path_of(const WorkUnit& unit) const {
  std::ostringstream name;
  name << "unit-" << std::hex << unit.id << ".csv";
  return dir_ / name.str();
}

bool ShardStore::prepare() {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  if (ec) return false;
  for (const auto& entry : std::filesystem::directory_iterator(dir_, ec)) {
    if (entry.path().extension() == ".tmp") {
      std::error_code rm;
      std::filesystem::remove(entry.path(), rm);
    }
  }
  return !ec;
}

bool ShardStore::write(const WorkUnit& unit,
                       const std::vector<RunMetrics>& rows,
                       std::string* error) const {
  const auto path = path_of(unit);
  const auto tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) {
      if (error != nullptr) *error = "cannot open " + tmp;
      return false;
    }
    out << csv::header() << '\n';
    for (const RunMetrics& m : rows) csv::write_row(out, m);
    out.flush();
    if (!out) {
      if (error != nullptr) *error = "write failed on " + tmp;
      std::error_code ec;
      out.close();
      std::filesystem::remove(tmp, ec);
      return false;
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    if (error != nullptr) *error = "rename failed: " + ec.message();
    std::filesystem::remove(tmp, ec);
    return false;
  }
  return true;
}

ShardStore::State ShardStore::read(const WorkUnit& unit,
                                   std::vector<RunMetrics>& out) const {
  const auto path = path_of(unit);
  std::ifstream in(path, std::ios::binary);
  if (!in) return State::kMissing;
  std::ostringstream buf;
  buf << in.rdbuf();
  const std::string text = buf.str();
  std::vector<RunMetrics> rows;
  bool valid = !text.empty() && text.back() == '\n';
  if (valid) {
    std::istringstream lines(text);
    std::string line;
    // A header mismatch means another binary's column set: re-run.
    valid = std::getline(lines, line) && line == csv::header();
    while (valid && std::getline(lines, line)) {
      if (line.empty()) continue;
      auto m = csv::parse_row(line);
      if (!m.has_value()) {
        valid = false;
        break;
      }
      rows.push_back(std::move(*m));
    }
  }
  if (!valid || rows.size() != unit.total_runs()) {
    // Truncated / corrupt / wrong shape: delete so the supervisor
    // schedules the unit as missing instead of tripping on it forever.
    remove(unit);
    return State::kMissing;
  }
  for (const RunMetrics& m : rows) {
    if (m.run_status != RunStatus::kOk) {
      out = std::move(rows);
      return State::kFailed;
    }
  }
  out = std::move(rows);
  return State::kOk;
}

void ShardStore::remove(const WorkUnit& unit) const {
  std::error_code ec;
  std::filesystem::remove(path_of(unit), ec);
}

}  // namespace mts::harness
