// docs/metrics.md documents every CSV column in row order; this test
// keeps it honest against the header the binary actually writes, so a
// metric added to the column table without its docs row (or a docs row
// for a column that no longer exists) fails here.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "harness/campaign_csv.hpp"

namespace mts::harness {
namespace {

/// First-cell names of every row of every "| CSV column |" table.
std::vector<std::string> documented_columns(const std::filesystem::path& md) {
  std::ifstream in(md);
  std::vector<std::string> names;
  bool in_table = false;
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("| CSV column |", 0) == 0) {
      in_table = true;
      continue;
    }
    if (line.rfind('|', 0) != 0) {
      in_table = false;
      continue;
    }
    if (!in_table || line.rfind("|--", 0) == 0) continue;
    const std::size_t open = line.find('`');
    const std::size_t close = line.find('`', open + 1);
    const std::size_t bar = line.find('|', 1);
    if (open == std::string::npos || close == std::string::npos ||
        close > bar) {
      ADD_FAILURE() << "column row without a `name` first cell: " << line;
      continue;
    }
    names.push_back(line.substr(open + 1, close - open - 1));
  }
  return names;
}

TEST(CampaignCsvTest, MetricsDocListsExactlyTheHeaderColumnsInOrder) {
  const auto md = std::filesystem::path(__FILE__).parent_path() / ".." /
                  ".." / "docs" / "metrics.md";
  ASSERT_TRUE(std::filesystem::exists(md)) << md;
  std::string documented;
  for (const std::string& name : documented_columns(md)) {
    documented += name + ',';
  }
  if (!documented.empty()) documented.pop_back();
  EXPECT_EQ(documented, csv::header());
}

}  // namespace
}  // namespace mts::harness
