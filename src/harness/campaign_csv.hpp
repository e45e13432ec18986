#pragma once

#include <optional>
#include <ostream>
#include <string>
#include <string_view>

#include "harness/campaign.hpp"

namespace mts::harness::csv {

/// The campaign CSV: one row per run, shared by the fabric's per-unit
/// shard files and the `--csv-out` export.  Header, writer and parser
/// are all generated from one column table in `campaign_csv.cpp`, and
/// `campaign_key` hashes the header, so a changed column set is a
/// different campaign: old shards are never read, only recomputed.

/// The header line (no terminator): every column name, comma-separated.
const std::string& header();

/// Writes one row (doubles in shortest round-trip form, so a parse
/// gives back the exact bits).
void write_row(std::ostream& os, const RunMetrics& m);

/// Parses one row (no terminator).  Strict: exactly one cell per
/// column, every cell consumed whole, integers range-checked against
/// their field's type, enums against the values their name function
/// knows.  nullopt on any malformed cell — callers treat that as
/// corruption, never crash.
std::optional<RunMetrics> parse_row(std::string_view line);

/// Collapses an arbitrary error message into a single CSV cell: commas,
/// newlines and CRs become spaces, empty becomes the '-' sentinel.
std::string sanitize_error(const std::string& msg);

/// Writes the whole campaign (header + one row per run, grid order:
/// protocol-major, then speed, adversary, defense, traffic, repetition)
/// — the `--csv-out` export.
void write_campaign(std::ostream& os, const CampaignConfig& cfg,
                    const CampaignResult& result);

}  // namespace mts::harness::csv
