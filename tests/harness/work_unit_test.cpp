// The fabric's partitioning is a pure function of the campaign config:
// any two invocations — different hosts, different worker counts,
// different days — must slice the grid into identical units with
// identical ids, or resume and sharding would silently recompute (or
// worse, mis-merge) work.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <sstream>

#include "harness/campaign_csv.hpp"
#include "harness/work_unit.hpp"

namespace mts::harness {
namespace {

CampaignConfig tiny() {
  CampaignConfig cfg;
  cfg.protocols = {Protocol::kAodv, Protocol::kMts};
  cfg.speeds = {5, 10};
  cfg.adversaries = {security::AdversarySpec{}, security::AdversarySpec{}};
  cfg.adversaries[1].kind = security::AdversaryKind::kBlackhole;
  cfg.adversaries[1].count = 2;
  cfg.repetitions = 3;
  return cfg;
}

/// tiny() with enough speeds to reach `kWideGridCells` cells.
CampaignConfig wide() {
  CampaignConfig cfg = tiny();
  cfg.speeds = {1, 2, 3, 4, 5, 6, 7, 8};  // 2 x 8 x 2 = 32 cells
  return cfg;
}

TEST(WorkUnitTest, NarrowGridGetsOneUnitPerRunInRowMajorOrder) {
  const CampaignConfig cfg = tiny();
  const auto units = partition_campaign(cfg, 1);
  // 2 protocols x 2 speeds x 2 adversaries x 1 defense x 1 traffic
  // = 8 cells, below kWideGridCells: one unit per (cell, repetition).
  ASSERT_EQ(units.size(), 8u * cfg.repetitions);
  std::uint32_t expect_p = 0, expect_s = 0, expect_a = 0, expect_r = 0;
  for (std::size_t i = 0; i < units.size(); ++i) {
    EXPECT_EQ(units[i].index, i);
    ASSERT_EQ(units[i].cells.size(), 1u);
    const WorkCell& c = units[i].cells[0];
    EXPECT_EQ(c.protocol, expect_p);
    EXPECT_EQ(c.speed, expect_s);
    EXPECT_EQ(c.adversary, expect_a);
    EXPECT_EQ(c.defense, 0u);
    EXPECT_EQ(c.traffic, 0u);
    EXPECT_EQ(c.rep_begin, expect_r);
    EXPECT_EQ(c.rep_end, expect_r + 1);
    EXPECT_EQ(units[i].total_runs(), 1u);
    if (++expect_r < cfg.repetitions) continue;
    expect_r = 0;
    if (++expect_a == 2) {
      expect_a = 0;
      if (++expect_s == 2) {
        expect_s = 0;
        ++expect_p;
      }
    }
  }
}

TEST(WorkUnitTest, WideGridGetsOneUnitPerCellWithEveryRepetition) {
  const CampaignConfig cfg = wide();
  const auto units = partition_campaign(cfg, 1);
  ASSERT_EQ(units.size(), kWideGridCells);
  for (std::size_t i = 0; i < units.size(); ++i) {
    ASSERT_EQ(units[i].cells.size(), 1u);
    const WorkCell& c = units[i].cells[0];
    EXPECT_EQ(c.protocol, i / 16);
    EXPECT_EQ(c.speed, (i / 2) % 8);
    EXPECT_EQ(c.adversary, i % 2);
    EXPECT_EQ(c.rep_begin, 0u);
    EXPECT_EQ(c.rep_end, cfg.repetitions);
  }
}

TEST(WorkUnitTest, TrafficAxisIsInnermostBeforeRepetitions) {
  CampaignConfig cfg = tiny();
  traffic::TrafficSpec on;
  on.enabled = true;
  cfg.traffics = {traffic::TrafficSpec{}, on};
  const auto units = partition_campaign(cfg, 1);
  // The 8-cell grid doubled by traffic, one unit per repetition.
  ASSERT_EQ(units.size(), 16u * cfg.repetitions);
  for (std::size_t i = 0; i < units.size(); ++i) {
    ASSERT_EQ(units[i].cells.size(), 1u);
    EXPECT_EQ(units[i].cells[0].traffic, (i / cfg.repetitions) % 2)
        << "unit " << i;
    EXPECT_EQ(units[i].cells[0].rep_begin, i % cfg.repetitions)
        << "unit " << i;
  }
}

TEST(WorkUnitTest, PartitionIsDeterministicAndKeyedByTheConfig) {
  for (const CampaignConfig& cfg : {tiny(), wide()}) {
    const auto a = partition_campaign(cfg, 1);
    const auto b = partition_campaign(cfg, 1);
    ASSERT_EQ(a.size(), b.size());
    std::set<std::uint64_t> ids;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(a[i].id, b[i].id) << "unit " << i;
      EXPECT_EQ(a[i].cells, b[i].cells) << "unit " << i;
      ids.insert(a[i].id);
    }
    EXPECT_EQ(ids.size(), a.size()) << "unit ids collide within the campaign";

    // Any result-affecting change flips the campaign key and every id:
    // stale shards of the old sweep can never be mistaken for new ones.
    CampaignConfig other = cfg;
    other.seed_base += 1;
    const auto c = partition_campaign(other, 1);
    ASSERT_EQ(c.size(), a.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_NE(c[i].id, a[i].id) << "unit " << i;
    }
  }
}

TEST(WorkUnitTest, BatchModeGroupsConsecutiveWorkCells) {
  const CampaignConfig cfg = tiny();
  const auto units = partition_campaign(cfg, 5);  // 24 work cells -> 5x4 + 4
  ASSERT_EQ(units.size(), 5u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(units[i].cells.size(), 5u);
    EXPECT_EQ(units[i].total_runs(), 5u);
  }
  EXPECT_EQ(units[4].cells.size(), 4u);
  // The flat work-cell sequence is the same as the unbatched partition.
  const auto flat = partition_campaign(cfg, 1);
  std::size_t k = 0;
  for (const WorkUnit& u : units) {
    for (const WorkCell& c : u.cells) {
      EXPECT_EQ(c, flat[k].cells[0]);
      ++k;
    }
  }
  EXPECT_EQ(k, flat.size());
  // 0 acts as 1; a different batch size is a different partition with
  // different ids (resume requires the same cells_per_unit).
  EXPECT_EQ(partition_campaign(cfg, 0).size(), flat.size());
  EXPECT_NE(units[0].id, flat[0].id);
  // Batching a wide grid groups whole cells.
  const auto wide_units = partition_campaign(wide(), 3);
  ASSERT_EQ(wide_units.size(), 11u);  // 32 cells -> 10x3 + 2
  EXPECT_EQ(wide_units[0].total_runs(), 3u * cfg.repetitions);
}

TEST(WorkUnitTest, ShardSlicesAreDisjointAndCover) {
  const auto units = partition_campaign(tiny(), 1);
  const std::uint32_t n = 3;
  std::set<std::uint32_t> covered;
  for (std::uint32_t shard = 0; shard < n; ++shard) {
    for (const WorkUnit& u : units) {
      if (u.index % n == shard) {
        EXPECT_TRUE(covered.insert(u.index).second)
            << "unit " << u.index << " owned by two shards";
      }
    }
  }
  EXPECT_EQ(covered.size(), units.size());
}

TEST(WorkUnitTest, CellScenarioAppliesTheCellAndPairsSeeds) {
  const CampaignConfig cfg = tiny();
  const WorkCell mts{1, 1, 1, 0, 0, 0, 3};
  const ScenarioConfig sc = cell_scenario(cfg, mts, 2);
  EXPECT_EQ(sc.protocol, Protocol::kMts);
  EXPECT_DOUBLE_EQ(sc.max_speed, 10.0);
  EXPECT_EQ(sc.adversary.kind, security::AdversaryKind::kBlackhole);
  EXPECT_EQ(sc.seed, cfg.seed_base + 2);
  // Paired seeds: the same (speed, rep) under the other protocol and no
  // adversary sees the identical seed.
  const WorkCell aodv{0, 1, 0, 0, 0, 0, 3};
  EXPECT_EQ(cell_scenario(cfg, aodv, 2).seed, sc.seed);
  // A stale cell for a different (smaller) grid must throw, not index
  // out of bounds.
  EXPECT_THROW(cell_scenario(cfg, WorkCell{5, 0, 0, 0, 0, 0, 1}, 0),
               std::exception);
  EXPECT_THROW(cell_scenario(cfg, WorkCell{0, 0, 0, 0, 3, 0, 1}, 0),
               std::exception)
      << "traffic index outside the campaign grid must throw";
}

TEST(WorkUnitTest, FailedRunMetricsCarryCellIdentityAndRoundTripAsCsv) {
  const CampaignConfig cfg = tiny();
  const WorkCell cell{1, 0, 1, 0, 0, 0, 3};
  const RunMetrics m =
      failed_run_metrics(cfg, cell, 1, 3, "timeout after 2.5s");
  EXPECT_EQ(m.protocol, Protocol::kMts);
  EXPECT_DOUBLE_EQ(m.max_speed, 5.0);
  EXPECT_EQ(m.seed, cfg.seed_base + 1);
  EXPECT_EQ(m.adversary_index, 1u);
  EXPECT_EQ(m.adversary_kind, security::AdversaryKind::kBlackhole);
  EXPECT_EQ(m.defense_index, 0u);
  EXPECT_EQ(m.run_status, RunStatus::kFailed);
  EXPECT_EQ(m.attempts, 3u);

  // A failed placeholder survives the CSV round trip.
  std::ostringstream os;
  csv::write_row(os, m);
  std::string line = os.str();
  ASSERT_FALSE(line.empty());
  line.pop_back();  // write_row appends the newline
  const auto back = csv::parse_row(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->run_status, RunStatus::kFailed);
  EXPECT_EQ(back->attempts, 3u);
  EXPECT_EQ(back->run_error, "timeout after 2.5s");
  EXPECT_EQ(back->adversary_kind, m.adversary_kind);
  EXPECT_EQ(back->seed, m.seed);
}

/// `row` with the cell under header column `column` replaced by `value`.
std::string with_cell(const std::string& row, const std::string& column,
                      const std::string& value) {
  auto split = [](const std::string& line) {
    std::vector<std::string> cells;
    std::stringstream ss(line);
    std::string cell;
    while (std::getline(ss, cell, ',')) cells.push_back(cell);
    return cells;
  };
  const std::vector<std::string> names = split(csv::header());
  std::vector<std::string> cells = split(row);
  EXPECT_EQ(cells.size(), names.size());
  const auto it = std::find(names.begin(), names.end(), column);
  EXPECT_NE(it, names.end()) << "no column " << column;
  cells[static_cast<std::size_t>(it - names.begin())] = value;
  std::string out;
  for (const std::string& c : cells) out += c + ',';
  out.pop_back();
  return out;
}

TEST(WorkUnitTest, SanitizeErrorKeepsMessagesSingleCell) {
  EXPECT_EQ(csv::sanitize_error(""), "-");
  EXPECT_EQ(csv::sanitize_error("plain"), "plain");
  EXPECT_EQ(csv::sanitize_error("a,b\nc\rd"), "a b c d");
  std::ostringstream os;
  csv::write_row(os, RunMetrics{});
  std::string line = os.str();
  line.pop_back();
  ASSERT_TRUE(csv::parse_row(line).has_value());
  // Malformed cells must not parse as a row: an unknown status word,
  // enum values without a name, trailing junk, a negative
  // unsigned, a value that only fits after truncation to 32 bits, and
  // rows one cell short or long.
  for (const auto& [column, value] :
       std::vector<std::pair<std::string, std::string>>{
           {"run_status", "maybe"},
           {"protocol", "9"},
           {"protocol", "1x"},
           {"seed", "-1"},
           {"adv_kind", "200"},
           {"adv_index", "4294967297"},
           {"def_kind", "5"},
           {"speed", " 5"},
           {"delivered", ""},
           {"adv_members", "3.4"},
       }) {
    EXPECT_FALSE(csv::parse_row(with_cell(line, column, value)).has_value())
        << column << "=" << value;
  }
  EXPECT_FALSE(csv::parse_row(line + ",0").has_value());
  EXPECT_FALSE(csv::parse_row(line.substr(0, line.rfind(','))).has_value());
}

// Every value of an enum column's underlying type: the named ones (all
// enumerators, however many an enum grows to) must survive write_row ->
// parse_row, and no other value may parse.
template <class E, class Field, class Name>
void expect_enum_cells_round_trip(Field field, Name name) {
  std::size_t named = 0;
  for (unsigned n = 0; n <= 0xff; ++n) {
    const E v{static_cast<std::underlying_type_t<E>>(n)};
    RunMetrics m;
    field(m) = v;
    std::ostringstream os;
    csv::write_row(os, m);
    std::string line = os.str();
    line.pop_back();
    const auto parsed = csv::parse_row(line);
    if (std::string(name(v)) == "?") {
      EXPECT_FALSE(parsed.has_value()) << "value " << n;
      continue;
    }
    ++named;
    ASSERT_TRUE(parsed.has_value()) << name(v);
    EXPECT_EQ(field(*parsed), v) << name(v);
  }
  EXPECT_GE(named, 2u);
}

TEST(WorkUnitTest, EveryEnumeratorRoundTripsAndNothingElseParses) {
  expect_enum_cells_round_trip<Protocol>(
      [](auto& m) -> auto& { return m.protocol; }, protocol_name);
  expect_enum_cells_round_trip<security::AdversaryKind>(
      [](auto& m) -> auto& { return m.adversary_kind; },
      security::adversary_kind_name);
  expect_enum_cells_round_trip<security::DefenseKind>(
      [](auto& m) -> auto& { return m.defense_kind; },
      security::defense_kind_name);
}

}  // namespace
}  // namespace mts::harness
