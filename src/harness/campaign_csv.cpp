#include "harness/campaign_csv.hpp"

#include <array>
#include <charconv>
#include <concepts>
#include <tuple>
#include <type_traits>
#include <vector>

namespace mts::harness::csv {
namespace {

/// One CSV column: its header name and the `RunMetrics` field it holds.
template <class Get>
struct Column {
  std::string_view name;
  Get get;  ///< `(auto& m) -> auto&`: the field, const or mutable
};
template <class Get>
Column(std::string_view, Get) -> Column<Get>;

#define MTS_COLUMN(name, field) \
  Column { name, [](auto& m) -> auto& { return m.field; } }

/// The schema, in row order.  Adding a metric is one line here plus its
/// row in docs/metrics.md (`campaign_csv_test` checks the two agree).
constexpr auto kColumns = std::make_tuple(
    MTS_COLUMN("protocol", protocol),
    MTS_COLUMN("speed", max_speed),
    MTS_COLUMN("seed", seed),
    MTS_COLUMN("participating", participating_nodes),
    MTS_COLUMN("relay_stddev", relay_stddev),
    MTS_COLUMN("alpha", alpha),
    MTS_COLUMN("max_beta", max_beta),
    MTS_COLUMN("highest_ri", highest_interception_ratio),
    MTS_COLUMN("pe", pe),
    MTS_COLUMN("pr", pr),
    MTS_COLUMN("ri", interception_ratio),
    MTS_COLUMN("delay_s", avg_delay_s),
    MTS_COLUMN("thr_seg_s", throughput_seg_s),
    MTS_COLUMN("thr_kbps", throughput_kbps),
    MTS_COLUMN("delivery", delivery_rate),
    MTS_COLUMN("delivered", segments_delivered),
    MTS_COLUMN("data_sent", data_packets_sent),
    MTS_COLUMN("retx", retransmits),
    MTS_COLUMN("timeouts", timeouts),
    MTS_COLUMN("acks_sent", acks_sent),
    MTS_COLUMN("acks_recv", acks_received),
    MTS_COLUMN("eavesdropper", eavesdropper),
    MTS_COLUMN("ctrl", control_packets),
    MTS_COLUMN("switches", route_switches),
    MTS_COLUMN("checks", checks_sent),
    MTS_COLUMN("events", events_executed),
    MTS_COLUMN("events_hash", event_order_hash),
    MTS_COLUMN("adv_index", adversary_index),
    MTS_COLUMN("adv_kind", adversary_kind),
    MTS_COLUMN("adv_count", adversary_count),
    MTS_COLUMN("adv_captured", coalition_captured),
    MTS_COLUMN("adv_ri", coalition_interception_ratio),
    MTS_COLUMN("adv_missing", fragments_missing),
    MTS_COLUMN("adv_absorbed", blackhole_absorbed),
    MTS_COLUMN("adv_tunneled", wormhole_tunneled),
    MTS_COLUMN("adv_gray_absorbed", grayhole_absorbed),
    MTS_COLUMN("adv_endpoint_acc", endpoint_inference_accuracy),
    MTS_COLUMN("adv_flood_injected", flood_injected),
    MTS_COLUMN("def_index", defense_index),
    MTS_COLUMN("def_kind", defense_kind),
    MTS_COLUMN("def_detect_s", detection_time_s),
    MTS_COLUMN("def_quarantined", paths_quarantined),
    MTS_COLUMN("def_recovery_s", recovery_time_s),
    MTS_COLUMN("def_fpr", false_positive_rate),
    MTS_COLUMN("def_suppressed", flood_suppressed),
    MTS_COLUMN("def_probes", probes_sent),
    MTS_COLUMN("sec_shares", secrecy_shares),
    MTS_COLUMN("sec_threshold", secrecy_threshold),
    MTS_COLUMN("sec_captured", shares_captured),
    MTS_COLUMN("sec_keys", keys_recovered),
    MTS_COLUMN("sec_recovery", key_recovery_rate),
    MTS_COLUMN("tra_index", traffic_index),
    MTS_COLUMN("tra_sessions", sessions_started),
    MTS_COLUMN("tra_completed", sessions_completed),
    MTS_COLUMN("tra_rejected", sessions_rejected),
    MTS_COLUMN("tra_msg_flows", traffic_classes[0].flows_completed),
    MTS_COLUMN("tra_msg_p50_ms", traffic_classes[0].delay_p50_ms),
    MTS_COLUMN("tra_msg_p95_ms", traffic_classes[0].delay_p95_ms),
    MTS_COLUMN("tra_msg_p99_ms", traffic_classes[0].delay_p99_ms),
    MTS_COLUMN("tra_msg_goodput", traffic_classes[0].goodput_p50_seg_s),
    MTS_COLUMN("tra_msg_exposure", traffic_classes[0].key_exposure),
    MTS_COLUMN("tra_bulk_flows", traffic_classes[1].flows_completed),
    MTS_COLUMN("tra_bulk_p50_ms", traffic_classes[1].delay_p50_ms),
    MTS_COLUMN("tra_bulk_p95_ms", traffic_classes[1].delay_p95_ms),
    MTS_COLUMN("tra_bulk_p99_ms", traffic_classes[1].delay_p99_ms),
    MTS_COLUMN("tra_bulk_goodput", traffic_classes[1].goodput_p50_seg_s),
    MTS_COLUMN("tra_bulk_exposure", traffic_classes[1].key_exposure),
    MTS_COLUMN("run_status", run_status),
    MTS_COLUMN("run_attempts", attempts),
    MTS_COLUMN("run_error", run_error),
    MTS_COLUMN("adv_members", adversary_members));

#undef MTS_COLUMN

constexpr std::size_t kColumnCount = std::tuple_size_v<decltype(kColumns)>;

// --- one codec per cell type ----------------------------------------------

/// Enums travel as their integer value; parsing accepts exactly the
/// values the enum's name function knows.  Those are exhaustive
/// switches, which -Wswitch flags when an enumerator is added.
const char* enum_name(Protocol p) { return protocol_name(p); }
const char* enum_name(security::AdversaryKind k) {
  return security::adversary_kind_name(k);
}
const char* enum_name(security::DefenseKind k) {
  return security::defense_kind_name(k);
}

template <class T>
  requires std::integral<T> || std::floating_point<T>
void put(std::string& out, T v) {
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, res.ptr);
}

template <class E>
  requires std::is_enum_v<E>
void put(std::string& out, E v) {
  put(out, static_cast<unsigned>(v));
}

void put(std::string& out, RunStatus s) { out += run_status_name(s); }

void put(std::string& out, const std::string& error) {
  out += sanitize_error(error);
}

/// `.`-terminated ids; '-' when empty so the cell is never blank.
void put(std::string& out, const std::vector<net::NodeId>& ids) {
  if (ids.empty()) out += '-';
  for (const net::NodeId id : ids) {
    put(out, id);
    out += '.';
  }
}

template <class T>
  requires std::integral<T> || std::floating_point<T>
bool get(std::string_view cell, T& v) {
  const char* end = cell.data() + cell.size();
  const auto res = std::from_chars(cell.data(), end, v);
  return res.ec == std::errc{} && res.ptr == end;
}

template <class E>
  requires std::is_enum_v<E>
bool get(std::string_view cell, E& v) {
  std::underlying_type_t<E> n = 0;
  if (!get(cell, n) || std::string_view(enum_name(E{n})) == "?") return false;
  v = E{n};
  return true;
}

bool get(std::string_view cell, RunStatus& s) {
  for (const RunStatus c : {RunStatus::kOk, RunStatus::kFailed}) {
    if (cell == run_status_name(c)) {
      s = c;
      return true;
    }
  }
  return false;
}

bool get(std::string_view cell, std::string& error) {
  if (cell != "-") error = cell;
  return !cell.empty();
}

bool get(std::string_view cell, std::vector<net::NodeId>& ids) {
  if (cell == "-") return true;
  while (!cell.empty()) {
    const std::size_t dot = cell.find('.');
    if (dot == std::string_view::npos) return false;
    net::NodeId id = 0;
    if (!get(cell.substr(0, dot), id)) return false;
    ids.push_back(id);
    cell.remove_prefix(dot + 1);
  }
  return !ids.empty();
}

}  // namespace

const std::string& header() {
  static const std::string kHeader = [] {
    std::string h;
    std::apply([&](const auto&... col) { ((h += col.name, h += ','), ...); },
               kColumns);
    h.pop_back();
    return h;
  }();
  return kHeader;
}

std::string sanitize_error(const std::string& msg) {
  if (msg.empty()) return "-";
  std::string out = msg;
  for (char& c : out) {
    if (c == ',' || c == '\n' || c == '\r') c = ' ';
  }
  return out;
}

void write_row(std::ostream& os, const RunMetrics& m) {
  std::string row;
  std::apply(
      [&](const auto&... col) { ((put(row, col.get(m)), row += ','), ...); },
      kColumns);
  row.back() = '\n';
  os << row;
}

std::optional<RunMetrics> parse_row(std::string_view line) {
  std::array<std::string_view, kColumnCount> cells;
  std::size_t n = 0;
  for (;;) {
    if (n == kColumnCount) return std::nullopt;  // too many cells
    const std::size_t comma = line.find(',');
    cells[n++] = line.substr(0, comma);
    if (comma == std::string_view::npos) break;
    line.remove_prefix(comma + 1);
  }
  if (n != kColumnCount) return std::nullopt;
  RunMetrics m;
  std::size_t i = 0;
  bool ok = true;
  std::apply(
      [&](const auto&... col) {
        ((ok = ok && get(cells[i++], col.get(m))), ...);
      },
      kColumns);
  if (!ok) return std::nullopt;
  return m;
}

void write_campaign(std::ostream& os, const CampaignConfig& cfg,
                    const CampaignResult& result) {
  os << header() << '\n';
  for (Protocol p : cfg.protocols) {
    for (double s : cfg.speeds) {
      for (std::uint32_t a = 0;
           a < static_cast<std::uint32_t>(cfg.adversaries.size()); ++a) {
        for (std::uint32_t d = 0;
             d < static_cast<std::uint32_t>(cfg.defenses.size()); ++d) {
          for (std::uint32_t t = 0;
               t < static_cast<std::uint32_t>(cfg.traffics.size()); ++t) {
            for (const RunMetrics& m : result.runs(p, s, a, d, t)) {
              write_row(os, m);
            }
          }
        }
      }
    }
  }
}

}  // namespace mts::harness::csv
