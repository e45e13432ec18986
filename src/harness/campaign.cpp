#include "harness/campaign.hpp"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>

#include "harness/campaign_csv.hpp"
#include "harness/supervisor.hpp"
#include "sim/rng.hpp"
#include "stats/table.hpp"

namespace mts::harness {

std::string adversary_label(const security::AdversarySpec& spec) {
  if (!spec.enabled()) return "none";
  std::ostringstream os;
  // A wormhole is always an endpoint pair, whatever `count` says.
  const std::uint32_t n =
      spec.kind == security::AdversaryKind::kWormhole ? 2 : spec.count;
  os << security::adversary_kind_name(spec.kind) << " x" << n;
  switch (spec.kind) {
    case security::AdversaryKind::kWormhole:
    case security::AdversaryKind::kGrayhole:
      os << " p=" << spec.drop_prob;
      break;
    case security::AdversaryKind::kRreqFlood:
      os << " @" << spec.flood_rate << "/s";
      break;
    default:
      break;
  }
  return os.str();
}

std::string defense_label(const security::DefenseSpec& spec) {
  if (!spec.enabled()) return "none";
  std::ostringstream os;
  os << security::defense_kind_name(spec.kind);
  switch (spec.kind) {
    case security::DefenseKind::kAckedChecking:
      os << " @" << spec.probe_period.to_seconds() << "s";
      break;
    case security::DefenseKind::kFloodRateLimit:
      os << " @" << spec.rreq_rate << "/s";
      break;
    default:
      break;
  }
  return os.str();
}

std::string traffic_label(const traffic::TrafficSpec& spec) {
  if (!spec.enabled) return "off";
  std::ostringstream os;
  os << spec.session_rate << "/s x" << spec.gateway_count << "gw";
  if (!spec.diurnal.empty()) os << " diurnal" << spec.diurnal.size();
  return os.str();
}

std::string campaign_key(const CampaignConfig& cfg) {
  // Hash the CSV header (a changed column set is a different
  // campaign) and every result-affecting input, doubles at full
  // precision.  A knob left out here lets two campaigns share a shard
  // directory, and the second would resume the first one's rows.
  const ScenarioConfig& b = cfg.base;
  std::ostringstream os;
  os.precision(17);
  os << csv::header() << '|' << cfg.repetitions << '|' << cfg.seed_base << '|'
     << b.node_count << '|' << b.sim_time.nanoseconds() << '|'
     << b.field.width << 'x' << b.field.height << '|' << b.min_speed << '|'
     << b.pause.nanoseconds() << '|' << b.radio_range << '|' << b.flow_count
     << '|' << b.min_flow_distance << '|' << b.eavesdropper_enabled << '|'
     << b.fading_enabled << ',' << b.fading.faded_fraction << ','
     << b.fading.fade_probability << ','
     << b.fading.coherence_time.nanoseconds() << '|';
  for (const FlowSpec& f : b.explicit_flows) {
    os << f.src << '>' << f.dst << '@' << f.start.nanoseconds() << ';';
  }
  os << '|';
  for (const mobility::Vec2& v : b.static_positions) {
    os << v.x << ',' << v.y << ';';
  }
  const tcp::TcpConfig& t = b.tcp;
  os << '|' << t.segment_bytes << ',' << t.max_window << ','
     << static_cast<int>(t.variant) << ',' << t.dupack_threshold << ','
     << t.initial_rto.nanoseconds() << ',' << t.min_rto.nanoseconds() << ','
     << t.max_rto.nanoseconds() << ',' << t.rtt_alpha << ',' << t.rtt_beta
     << '|' << b.mts.max_paths << ',' << b.mts.check_period.nanoseconds()
     << ',' << b.mts.check_jitter.nanoseconds() << ','
     << b.mts.freshness_periods << ','
     << static_cast<int>(b.mts.net_diameter_ttl) << '|';
  const mac::MacConfig& m = b.mac;
  os << m.data_rate_bps << ',' << m.basic_rate_bps << ','
     << m.slot.nanoseconds() << ',' << m.sifs.nanoseconds() << ','
     << m.difs.nanoseconds() << ',' << m.plcp_overhead.nanoseconds() << ','
     << m.cw_min << ',' << m.cw_max << ',' << m.retry_limit << ','
     << m.data_header_bytes << ',' << m.ack_bytes << ',' << m.rts_bytes << ','
     << m.cts_bytes << ',' << m.queue_capacity << ','
     << m.rts_threshold_bytes << ',' << m.timeout_slack.nanoseconds() << '|'
     << b.channel.cs_range_factor << '|' << b.secrecy.enabled << ','
     << static_cast<int>(b.secrecy.key_bytes) << ',' << b.secrecy.threshold
     << '|';
  for (Protocol p : cfg.protocols) os << static_cast<int>(p) << ';';
  os << '|';
  for (double s : cfg.speeds) os << s << ';';
  os << '|';
  for (const security::AdversarySpec& a : cfg.adversaries) {
    os << static_cast<int>(a.kind) << ',' << a.count << ',' << a.sniff_range
       << ',' << a.min_speed << ',' << a.max_speed << ','
       << a.pause.nanoseconds() << ',' << a.drop_prob << ','
       << a.active_window.nanoseconds() << ','
       << a.active_period.nanoseconds() << ',' << a.flood_rate << ','
       << a.flood_start.nanoseconds() << ',';
    for (net::NodeId m : a.members) os << m << '.';
    os << ';';
  }
  os << '|';
  for (const security::DefenseSpec& d : cfg.defenses) {
    os << static_cast<int>(d.kind) << ','
       << d.probe_period.nanoseconds() << ',' << d.ewma_alpha << ','
       << d.demote_threshold << ',' << d.min_probes << ',' << d.leash_slack
       << ',' << d.rreq_rate << ',' << d.rreq_burst << ';';
  }
  os << '|';
  for (const traffic::TrafficSpec& t : cfg.traffics) {
    os << t.enabled << ',' << t.gateway_count << ',' << t.user_pool << ','
       << t.session_rate << ',' << t.diurnal_bucket.nanoseconds() << ','
       << t.bulk_fraction << ',' << t.max_concurrent_flows << ',';
    for (double w : t.diurnal) os << w << '.';
    for (const traffic::ClassSpec* c : {&t.messaging, &t.bulk}) {
      os << ',' << c->min_flows << '-' << c->max_flows << '-'
         << c->min_segments << '-' << c->max_segments << '-' << c->think_min_s
         << '-' << c->think_max_s << '-' << c->uplink;
    }
    os << ';';
  }
  const std::uint64_t h = sim::splitmix64(sim::fnv1a(os.str()));
  std::ostringstream name;
  name << std::hex << h;
  return name.str();
}

void CampaignResult::add(RunMetrics m) {
  cells_[{static_cast<int>(m.protocol), speed_key(m.max_speed),
          m.adversary_index, m.defense_index, m.traffic_index}]
      .push_back(std::move(m));
  ++count_;
}

const std::vector<RunMetrics>& CampaignResult::runs(
    Protocol p, double speed, std::uint32_t adversary, std::uint32_t defense,
    std::uint32_t traffic) const {
  static const std::vector<RunMetrics> kEmpty;
  auto it = cells_.find(
      {static_cast<int>(p), speed_key(speed), adversary, defense, traffic});
  return it == cells_.end() ? kEmpty : it->second;
}

stats::Summary CampaignResult::summarize(
    Protocol p, double speed, std::uint32_t adversary, std::uint32_t defense,
    std::uint32_t traffic,
    const std::function<double(const RunMetrics&)>& metric) const {
  // Honest accounting: `failed` placeholder rows from the fabric carry
  // zeros for every metric — averaging them in would silently bias
  // false_positive_rate, paired-seed deltas and every figure toward 0.
  // Only ok rows contribute; a fully failed cell reports count() == 0.
  stats::Summary s;
  for (const RunMetrics& m : runs(p, speed, adversary, defense, traffic)) {
    if (m.run_status != RunStatus::kOk) continue;
    s.add(metric(m));
  }
  return s;
}

void print_figure(std::ostream& os, const CampaignResult& result,
                  const CampaignConfig& cfg, const std::string& title,
                  const std::string& unit,
                  const std::function<double(const RunMetrics&)>& metric,
                  int precision) {
  os << "\n=== " << title << " ===\n";
  if (!unit.empty()) os << "(" << unit << "; mean +/- 95% CI over "
                        << cfg.repetitions << " runs)\n";
  std::vector<std::string> header{"MAXSPEED (m/s)"};
  for (Protocol p : cfg.protocols) header.emplace_back(protocol_name(p));
  stats::Table table(std::move(header));
  for (double speed : cfg.speeds) {
    std::vector<std::string> row{stats::Table::fmt(speed, 0)};
    for (Protocol p : cfg.protocols) {
      const stats::Summary s = result.summarize(p, speed, metric);
      row.push_back(stats::Table::fmt(s.mean(), precision) + " +/- " +
                    stats::Table::fmt(s.ci95(), precision));
    }
    table.add_row(std::move(row));
  }
  table.print(os);
}

void print_adversary_figure(
    std::ostream& os, const CampaignResult& result, const CampaignConfig& cfg,
    const std::string& title, const std::string& unit,
    const std::function<double(const RunMetrics&)>& metric, int precision) {
  os << "\n=== " << title << " ===\n";
  if (!unit.empty()) {
    os << "(" << unit << "; mean +/- 95% CI over " << cfg.repetitions
       << " runs)\n";
  }
  for (std::uint32_t a = 0;
       a < static_cast<std::uint32_t>(cfg.adversaries.size()); ++a) {
    os << "\n--- adversary: " << adversary_label(cfg.adversaries[a])
       << " ---\n";
    std::vector<std::string> header{"MAXSPEED (m/s)"};
    for (Protocol p : cfg.protocols) header.emplace_back(protocol_name(p));
    stats::Table table(std::move(header));
    for (double speed : cfg.speeds) {
      std::vector<std::string> row{stats::Table::fmt(speed, 0)};
      for (Protocol p : cfg.protocols) {
        const stats::Summary s = result.summarize(p, speed, a, metric);
        row.push_back(stats::Table::fmt(s.mean(), precision) + " +/- " +
                      stats::Table::fmt(s.ci95(), precision));
      }
      table.add_row(std::move(row));
    }
    table.print(os);
  }
}

bool parse_env_u64(const char* name, const char* v, std::uint64_t max,
                   std::uint64_t& out) {
  errno = 0;
  char* end = nullptr;
  const unsigned long long n = std::strtoull(v, &end, 10);
  if (end == v || *end != '\0' || errno == ERANGE || n > max) {
    std::cerr << "warning: ignoring " << name << "='" << v
              << "' (expected an integer in [0, " << max << "])\n";
    return false;
  }
  out = n;
  return true;
}

bool parse_env_double(const char* name, const char* v, double& out) {
  errno = 0;
  char* end = nullptr;
  const double d = std::strtod(v, &end);
  if (end == v || *end != '\0' || errno == ERANGE || !std::isfinite(d) ||
      !(d > 0.0) || d > 1e9) {
    std::cerr << "warning: ignoring " << name << "='" << v
              << "' (expected a positive number <= 1e9)\n";
    return false;
  }
  out = d;
  return true;
}

namespace {

std::vector<double> parse_speeds(const char* s) {
  std::vector<double> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    double speed = 0.0;
    if (!parse_env_double("MTS_BENCH_SPEEDS", item.c_str(), speed)) {
      return {};  // one bad element invalidates the list
    }
    out.push_back(speed);
  }
  return out;
}

}  // namespace

void apply_bench_env(CampaignConfig& cfg, FabricConfig& fab) {
  std::uint64_t n = 0;
  double d = 0.0;
  if (const char* v = std::getenv("MTS_BENCH_REPS")) {
    if (parse_env_u64("MTS_BENCH_REPS", v, 100000, n) && n > 0) {
      cfg.repetitions = static_cast<std::uint32_t>(n);
    }
  }
  if (const char* v = std::getenv("MTS_BENCH_SIM_TIME")) {
    if (parse_env_double("MTS_BENCH_SIM_TIME", v, d)) {
      cfg.base.sim_time = sim::Time::seconds(d);
    }
  }
  if (const char* v = std::getenv("MTS_BENCH_SPEEDS")) {
    auto speeds = parse_speeds(v);
    if (!speeds.empty()) cfg.speeds = std::move(speeds);
  }
  if (const char* v = std::getenv("MTS_BENCH_THREADS")) {
    // 0, and any value that does not parse, = hardware concurrency.
    fab.workers = parse_env_u64("MTS_BENCH_THREADS", v, 4096, n)
                      ? static_cast<unsigned>(n)
                      : 0;
  }
  if (const char* v = std::getenv("MTS_BENCH_NO_CACHE")) {
    if (v[0] != '\0' && v[0] != '0') fab.resume = false;
  }
  if (const char* v = std::getenv("MTS_BENCH_NODES")) {
    if (parse_env_u64("MTS_BENCH_NODES", v, 100000, n) && n >= 2) {
      cfg.base.node_count = static_cast<std::uint32_t>(n);
    }
  }
}

}  // namespace mts::harness
