// mts_perf: the repository's benchmark binary.
//
//   mts_perf --workload W [--seed N] [--seconds S] [--trace 0|1]
//            [--work-dir D]
//   mts_perf --self-test
//
// Runs one named workload and prints one JSON object on stdout: per-rep
// throughput, set-up times, fingerprints, deterministic per-layer counts
// and, with --trace 1, sampled per-layer self time.  `perf/run.py`
// builds this binary, runs it in a child process, checks the
// fingerprints against perf/fingerprints.json and turns the record into
// metrics.
//
// Timed reps always run the workload's pinned scenario (seed 42).  Host
// cost per simulated second differs up to 2x between scenario seeds of
// the same workload, so a timed scenario drawn from --seed would make
// every metric a property of the draw rather than of the program.
// --seed instead picks the check scenario: the same workload, cut
// short, run twice before timing starts (which also warms pools and
// caches); its two runs must produce identical fingerprints.
//
// mts_perf reaches the simulator only through its top-level API
// (run_scenario, run_campaign_fabric and packet_pool_stats), so the
// scheduler, channel and metrics internals stay free to change under
// it.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "harness/campaign.hpp"
#include "harness/scenario.hpp"
#include "harness/supervisor.hpp"
#include "net/packet.hpp"
#include "trace.hpp"

namespace mts::perf {
namespace {

using harness::Protocol;
using harness::RunMetrics;
using harness::ScenarioConfig;
using Clock = std::chrono::steady_clock;

constexpr std::uint64_t kPinnedSeed = 42;
constexpr int kSetupRuns = 11;
constexpr unsigned kFabricWorkers = 2;
constexpr sim::Time kSetupSimTime = sim::Time::ms(1);

// --- workloads ---------------------------------------------------------------

/// Field side that keeps the paper's density of 50 nodes per km^2.
double paper_density_side(std::uint32_t nodes) {
  return 1000.0 * std::sqrt(nodes / 50.0);
}

/// The paper's scenario (§IV): 50 nodes on 1000 m x 1000 m, 250 m
/// range, MAXSPEED 10, one TCP flow, 200 s, run by each protocol.
std::vector<ScenarioConfig> paper50(std::uint64_t seed) {
  std::vector<ScenarioConfig> out;
  for (Protocol p : {Protocol::kDsr, Protocol::kAodv, Protocol::kMts,
                     Protocol::kSmr}) {
    ScenarioConfig c;
    c.protocol = p;
    c.max_speed = 10.0;
    c.seed = seed;
    out.push_back(c);
  }
  return out;
}

/// MTS on a 10,000-node arena at paper density: working set and pending
/// set far beyond cache; phy fan-out and the neighbor index dominate.
std::vector<ScenarioConfig> arena10k(std::uint64_t seed) {
  ScenarioConfig c;
  c.node_count = 10000;
  const double side = paper_density_side(c.node_count);
  c.field = mobility::Field{side, side};
  c.max_speed = 10.0;
  c.flow_count = 10;
  c.sim_time = sim::Time::sec(10);
  c.seed = seed;
  return {c};
}

/// MTS with the user plane on: thousands of short TCP flows start and
/// stop, discovery floods, long-horizon timers.  The rate admits every
/// session (a collapse is not a workload).
std::vector<ScenarioConfig> users(std::uint64_t seed) {
  ScenarioConfig c;
  c.node_count = 100;
  const double side = paper_density_side(c.node_count);
  c.field = mobility::Field{side, side};
  c.max_speed = 10.0;
  c.flow_count = 10;
  c.sim_time = sim::Time::sec(60);
  c.seed = seed;
  c.traffic.enabled = true;
  c.traffic.gateway_count = 8;
  c.traffic.user_pool = 64;
  c.traffic.session_rate = 10000.0 / 60.0 * 1.03;
  c.traffic.max_concurrent_flows = 16384;
  return {c};
}

/// The security sweep through the process-isolated fabric: {AODV, MTS}
/// x speeds {2, 10} x 5 adversaries x {no defense, suite} x 2 reps =
/// 80 runs of 50 nodes x 30 s with the secrecy game on.
harness::CampaignConfig sweep_grid(std::uint64_t seed) {
  harness::CampaignConfig cfg;
  cfg.base.sim_time = sim::Time::sec(30);
  cfg.base.secrecy.enabled = true;
  cfg.protocols = {Protocol::kAodv, Protocol::kMts};
  cfg.speeds = {2.0, 10.0};
  security::AdversarySpec colluding;
  colluding.kind = security::AdversaryKind::kColluding;
  colluding.count = 4;
  security::AdversarySpec wormhole;
  wormhole.kind = security::AdversaryKind::kWormhole;
  security::AdversarySpec grayhole;
  grayhole.kind = security::AdversaryKind::kGrayhole;
  grayhole.count = 3;
  grayhole.drop_prob = 0.3;
  security::AdversarySpec flood;
  flood.kind = security::AdversaryKind::kRreqFlood;
  flood.flood_rate = 5.0;
  cfg.adversaries = {security::AdversarySpec{}, colluding, wormhole, grayhole,
                     flood};
  security::DefenseSpec suite;
  suite.kind = security::DefenseKind::kSuite;
  cfg.defenses = {security::DefenseSpec{}, suite};
  cfg.repetitions = 2;
  cfg.seed_base = seed;
  return cfg;
}

/// Simulated time of the --seed check runs: long enough to get flows
/// and discoveries going, short next to a timed rep.
sim::Time check_time(const std::string& workload) {
  if (workload == "paper50") return sim::Time::sec(20);
  if (workload == "arena10k") return sim::Time::sec(2);
  if (workload == "users") return sim::Time::sec(6);
  return sim::Time::sec(3);
}

bool is_workload(const std::string& w) {
  return w == "paper50" || w == "arena10k" || w == "users" || w == "sweep";
}

// --- fingerprints ------------------------------------------------------------

std::uint64_t fnv1a64(const std::string& s) {
  std::uint64_t h = 14695981039346656037ULL;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  return h;
}

/// One canonical line of a run's logical outcome.  Event counts are left
/// out on purpose: batching events changes them without changing what
/// the simulation computes.
std::string fingerprint_line(const RunMetrics& m) {
  std::ostringstream os;
  os.precision(17);
  os << "delivered=" << m.segments_delivered << " control="
     << m.control_packets << " pe=" << m.pe << " pr=" << m.pr
     << " retx=" << m.retransmits << " timeouts=" << m.timeouts << " drops=";
  for (const std::uint64_t d : m.drops) os << d << ',';
  os << " switches=" << m.route_switches << " checks=" << m.checks_sent
     << " sessions=" << m.sessions_started << '/' << m.sessions_completed
     << '/' << m.sessions_rejected;
  for (const auto& c : m.traffic_classes) {
    os << " class=" << c.flows_completed << '/' << c.delay_p50_ms << '/'
       << c.delay_p99_ms;
  }
  os << " coalition=" << m.coalition_captured << " keys=" << m.keys_recovered
     << '/' << m.shares_captured << " quarantined=" << m.paths_quarantined
     << " status=" << harness::run_status_name(m.run_status);
  return os.str();
}

std::string fingerprint(const RunMetrics& m) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(fnv1a64(fingerprint_line(m))));
  return buf;
}

// --- one rep -----------------------------------------------------------------

struct LabeledRun {
  std::string label;
  RunMetrics metrics;
};

/// One pass over a workload: every scenario, or one fabric sweep.
struct Rep {
  double wall_s = 0.0;
  double sim_s = 0.0;  ///< simulated seconds of the runs that completed
  std::vector<LabeledRun> runs;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  net::PacketPoolStats pool_before;
  net::PacketPoolStats pool_after;
  // fabric only
  std::uint64_t units_run = 0;
  std::uint64_t units_retried = 0;
  double children_cpu_s = 0.0;
  double self_cpu_s = 0.0;
};

double cpu_seconds(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

class Workload {
 public:
  Workload(std::string workload, std::filesystem::path work)
      : workload_(std::move(workload)), work_(std::move(work)) {}

  /// Runs the workload once with scenario seed `seed`.  A non-zero
  /// `sim_time` replaces every run's simulated time.
  Rep run(std::uint64_t seed, sim::Time sim_time, bool traced) {
    return workload_ == "sweep" ? run_fabric(seed, sim_time, traced)
                                : run_scenarios(seed, sim_time, traced);
  }

 private:
  Rep run_scenarios(std::uint64_t seed, sim::Time sim_time, bool traced) {
    std::vector<ScenarioConfig> cfgs = workload_ == "paper50" ? paper50(seed)
                                       : workload_ == "users" ? users(seed)
                                                              : arena10k(seed);
    Rep rep;
    rep.attempted = cfgs.size();
    rep.pool_before = net::packet_pool_stats();
    const auto t0 = Clock::now();
    for (ScenarioConfig& c : cfgs) {
      if (sim_time > sim::Time::zero()) c.sim_time = sim_time;
      const std::string label = harness::protocol_name(c.protocol);
      try {
        ProfSpan span(traced);
        rep.runs.push_back(LabeledRun{label, harness::run_scenario(c)});
        rep.sim_s += c.sim_time.to_seconds();
      } catch (const std::exception& e) {
        ++rep.failed;
        rep.errors.push_back(label + ": " + e.what());
      }
    }
    rep.wall_s = seconds_since(t0);
    rep.pool_after = net::packet_pool_stats();
    return rep;
  }

  Rep run_fabric(std::uint64_t seed, sim::Time sim_time, bool traced) {
    harness::CampaignConfig cfg = sweep_grid(seed);
    if (sim_time > sim::Time::zero()) cfg.base.sim_time = sim_time;
    harness::FabricConfig fab;
    fab.workers = kFabricWorkers;
    fab.cells_per_unit = 1;
    fab.resume = false;
    fab.shard_dir = work_ / ("shards-" + std::to_string(++fabric_calls_));
    std::filesystem::remove_all(fab.shard_dir);

    Rep rep;
    rep.attempted = cfg.protocols.size() * cfg.speeds.size() *
                    cfg.adversaries.size() * cfg.defenses.size() *
                    cfg.repetitions;
    rep.pool_before = net::packet_pool_stats();
    const double self0 = cpu_seconds(RUSAGE_SELF);
    const double children0 = cpu_seconds(RUSAGE_CHILDREN);
    const auto t0 = Clock::now();
    harness::FabricReport report;
    try {
      ProfSpan span(traced);
      report = harness::run_campaign_fabric(cfg, fab);
    } catch (const std::exception& e) {
      rep.errors.push_back(std::string("fabric: ") + e.what());
    }
    rep.wall_s = seconds_since(t0);
    rep.self_cpu_s = cpu_seconds(RUSAGE_SELF) - self0;
    rep.children_cpu_s = cpu_seconds(RUSAGE_CHILDREN) - children0;
    rep.pool_after = net::packet_pool_stats();
    std::filesystem::remove_all(fab.shard_dir);
    rep.units_run = report.units_run;
    for (const harness::FailedUnit& f : report.failures) {
      rep.errors.push_back("unit " + std::to_string(f.index) + ": " + f.error);
    }

    for (const Protocol p : cfg.protocols) {
      for (const double speed : cfg.speeds) {
        for (std::uint32_t a = 0; a < cfg.adversaries.size(); ++a) {
          for (std::uint32_t d = 0; d < cfg.defenses.size(); ++d) {
            const std::string cell =
                std::string(harness::protocol_name(p)) + "/s" +
                std::to_string(static_cast<int>(speed)) + "/" +
                harness::adversary_label(cfg.adversaries[a]) + "/" +
                harness::defense_label(cfg.defenses[d]) + "/r";
            bool retried = false;
            for (const RunMetrics& m : report.result.runs(p, speed, a, d, 0)) {
              retried = retried || m.attempts > 1;
              if (m.run_status != harness::RunStatus::kOk) continue;
              rep.sim_s += cfg.base.sim_time.to_seconds();
              rep.runs.push_back(
                  LabeledRun{cell + std::to_string(m.seed - seed), m});
            }
            if (retried) ++rep.units_retried;
          }
        }
      }
    }
    // Failed placeholder rows and cells missing from the report alike.
    rep.failed = rep.attempted - rep.runs.size();
    return rep;
  }

  std::string workload_;
  std::filesystem::path work_;
  int fabric_calls_ = 0;
};

// --- per-layer counts --------------------------------------------------------

using Values = std::map<std::string, double>;

/// Deterministic work counts of one rep, by layer.  Rows that come back
/// from fabric workers carry only what the CSV schema holds, so the
/// per-category event and drop counts read 0 on the sweep.
Values layer_counts(const Rep& rep) {
  Values c;
  auto n = [](std::uint64_t v) { return static_cast<double>(v); };
  double delivered = 0;
  double completed = 0;
  c["mobility.peak_live_legs"] = 0;
  for (const LabeledRun& r : rep.runs) {
    const RunMetrics& m = r.metrics;
    c["sim.events"] += n(m.events_executed);
    c["sim.heap_fallback"] += n(m.heap_fallback_closures);
    c["phy.channel_events"] += n(m.executed(sim::EventCategory::kChannel));
    c["phy.radio_events"] += n(m.executed(sim::EventCategory::kPhy));
    c["phy.neighbor_rebuilds"] += n(m.neighbor_rebuilds);
    c["phy.rebuild_allocs"] += n(m.neighbor_rebuild_allocs);
    c["phy.collision_drops"] += n(m.dropped(net::DropReason::kCollision));
    c["mac.events"] += n(m.executed(sim::EventCategory::kMac));
    c["mac.retry_drops"] += n(m.dropped(net::DropReason::kMacRetryExceeded));
    c["mac.queue_drops"] += n(m.dropped(net::DropReason::kQueueFull));
    c["routing.events"] += n(m.executed(sim::EventCategory::kRouting));
    c["routing.control_packets"] += n(m.control_packets);
    c["routing.route_drops"] +=
        n(m.dropped(net::DropReason::kNoRoute) +
          m.dropped(net::DropReason::kStaleRoute) +
          m.dropped(net::DropReason::kSendBufferTimeout) +
          m.dropped(net::DropReason::kSendBufferFull));
    c["core.route_switches"] += n(m.route_switches);
    c["core.checks_sent"] += n(m.checks_sent);
    c["tcp.events"] += n(m.executed(sim::EventCategory::kTransport));
    c["tcp.data_sent"] += n(m.data_packets_sent);
    c["tcp.retransmits"] += n(m.retransmits);
    delivered += n(m.segments_delivered);
    c["mobility.legs_generated"] += n(m.mobility_legs_generated);
    c["mobility.peak_live_legs"] = std::max(c["mobility.peak_live_legs"],
                                            n(m.mobility_peak_live_legs));
    c["security.probes_sent"] += n(m.probes_sent);
    c["security.shares_captured"] += n(m.shares_captured);
    c["security.keys_recovered"] += n(m.keys_recovered);
    c["security.paths_quarantined"] += n(m.paths_quarantined);
    c["traffic.sessions_started"] += n(m.sessions_started);
    c["traffic.sessions_rejected"] += n(m.sessions_rejected);
    completed += n(m.sessions_completed);
  }
  c["tcp.delivery_ratio"] =
      c["tcp.data_sent"] > 0 ? delivered / c["tcp.data_sent"] : 0.0;
  c["traffic.completion_ratio"] =
      c["traffic.sessions_started"] > 0
          ? completed / c["traffic.sessions_started"]
          : 0.0;
  const net::PacketPoolStats& a = rep.pool_after;
  const net::PacketPoolStats& b = rep.pool_before;
  c["net.bodies_acquired"] = n(a.acquired - b.acquired);
  c["net.cow_clones"] = n(a.cow_clones - b.cow_clones);
  c["net.cells_acquired"] = n(a.cell_acquired - b.cell_acquired);
  c["harness.units_run"] = n(rep.units_run);
  c["harness.units_retried"] = n(rep.units_retried);
  return c;
}

// --- JSON --------------------------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += static_cast<unsigned char>(ch) < 0x20 ? ' ' : ch;
  }
  return out + '"';
}

std::string num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

template <typename Range, typename Fmt>
std::string list(const Range& items, Fmt fmt) {
  std::string out = "[";
  for (const auto& item : items) {
    if (out.size() > 1) out += ',';
    out += fmt(item);
  }
  return out + "]";
}

std::string num_list(const std::vector<double>& v) { return list(v, num); }

template <typename Map, typename Fmt>
std::string object(const Map& m, Fmt fmt) {
  std::string out = "{";
  for (const auto& [k, v] : m) {
    if (out.size() > 1) out += ',';
    out += quote(k);
    out += ':';
    out += fmt(v);
  }
  return out + "}";
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- the measurement ---------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = kPinnedSeed;
  double seconds = 10.0;
  bool trace = false;
  std::filesystem::path work_dir = "build-perf/work";
  bool check = false;
  bool self_test = false;
};

/// Tallies runs and compares each run's fingerprint with the first rep
/// of its series.
struct Checker {
  void add(const Rep& rep, bool first) {
    attempted += rep.attempted;
    failed += rep.failed;
    for (const std::string& e : rep.errors) note(e);
    for (const LabeledRun& r : rep.runs) {
      const std::string fp = fingerprint(r.metrics);
      if (first) {
        reference[r.label] = fp;
        headline[r.label] = r.metrics;
      } else if (reference[r.label] != fp) {
        ++failed;
        note(r.label + ": fingerprint " + fp + " differs from the first " +
             "rep's " + reference[r.label]);
      }
    }
  }

  void note(const std::string& e) {
    if (errors.size() < 20) errors.push_back(e);
  }

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<std::string> errors;
  std::map<std::string, std::string> reference;
  std::map<std::string, RunMetrics> headline;
};

/// The --seed check scenario, run twice: both runs must produce the same
/// fingerprints.  It runs in a process of its own so its memory does not
/// count toward the timed process's peak RSS.
int check(const Options& opt) {
  std::filesystem::create_directories(opt.work_dir);
  Workload workload(opt.workload, opt.work_dir);
  Checker tally;
  for (int i = 0; i < 2; ++i) {
    tally.add(workload.run(opt.seed, check_time(opt.workload), false),
              i == 0);
  }
  std::cout << "{\"workload\":" << quote(opt.workload)
            << ",\"seed\":" << opt.seed << ",\"attempted\":"
            << tally.attempted << ",\"failed\":" << tally.failed
            << ",\"errors\":" << list(tally.errors, quote) << "}" << std::endl;
  return 0;
}

int measure(const Options& opt) {
  std::filesystem::create_directories(opt.work_dir);
  if (opt.trace) install_sampler();
  Workload workload(opt.workload, opt.work_dir);

  // Warm-up: the pinned scenario cut short fills pools and caches before
  // anything is timed.  The sweep's set-up runs serve as its warm-up.
  Checker untimed;
  if (opt.workload != "sweep") {
    untimed.add(workload.run(kPinnedSeed, check_time(opt.workload), false),
                true);
  }

  // Set-up time: the pinned scenario with simulated time cut to 1 ms.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetupRuns; ++i) {
    const Rep rep = workload.run(kPinnedSeed, kSetupSimTime, false);
    untimed.attempted += rep.attempted;
    untimed.failed += rep.failed;
    for (const std::string& e : rep.errors) untimed.note("set-up: " + e);
    setup_s.push_back(rep.wall_s);
  }

  // Timed reps of the pinned scenario, a closed loop.  A traced
  // invocation alternates untraced and traced reps, so both see the same
  // machine state and the untraced ones give the overhead baseline.
  Checker timed;
  Values counts;
  std::vector<double> rate, rate_traced, allocs, alloc_bytes, worker_util,
      supervisor_cpu;
  const int min_reps = opt.trace ? 2 : 1;
  const auto t_start = Clock::now();
  for (int i = 0; i < min_reps || seconds_since(t_start) < opt.seconds; ++i) {
    const bool traced = opt.trace && i % 2 == 1;
    const AllocCounts a0 = alloc_counts();
    count_allocations(traced);
    const Rep rep = workload.run(kPinnedSeed, sim::Time::zero(), traced);
    count_allocations(false);
    const AllocCounts a1 = alloc_counts();
    timed.add(rep, i == 0);
    if (i == 0) counts = layer_counts(rep);
    if (rep.failed != 0 || rep.wall_s <= 0.0) continue;
    (traced ? rate_traced : rate).push_back(rep.sim_s / rep.wall_s);
    if (traced) {
      allocs.push_back(static_cast<double>(a1.count - a0.count));
      alloc_bytes.push_back(static_cast<double>(a1.bytes - a0.bytes));
      worker_util.push_back(rep.children_cpu_s /
                            (rep.wall_s * kFabricWorkers));
      supervisor_cpu.push_back(rep.self_cpu_s);
    }
  }

  std::vector<std::string> errors = untimed.errors;
  errors.insert(errors.end(), timed.errors.begin(), timed.errors.end());
  std::ostringstream out;
  out << "{\"workload\":" << quote(opt.workload)
      << ",\"pinned_seed\":" << kPinnedSeed
      << ",\"attempted\":" << untimed.attempted + timed.attempted
      << ",\"failed\":" << untimed.failed + timed.failed
      << ",\"errors\":" << list(errors, quote)
      << ",\"sim_s_per_s\":" << num_list(rate)
      << ",\"setup_s\":" << num_list(setup_s)
      << ",\"fingerprints\":" << object(timed.reference, quote)
      << ",\"headline\":"
      << object(timed.headline,
                [](const RunMetrics& m) {
                  return "{\"delivered\":" + num(m.segments_delivered) +
                         ",\"control\":" + num(m.control_packets) +
                         ",\"sessions\":" +
                         num_list({static_cast<double>(m.sessions_started),
                                   static_cast<double>(m.sessions_completed),
                                   static_cast<double>(m.sessions_rejected)}) +
                         "}";
                })
      << ",\"counts\":" << object(counts, num);
  if (opt.trace) {
    const bool fabric = opt.workload == "sweep";
    const Values traced{
        {"trace.overhead_pct",
         rate_traced.empty()
             ? 0.0
             : 100.0 * (median(rate) / median(rate_traced) - 1.0)},
        {"alloc.count", median(allocs)},
        {"alloc.bytes", median(alloc_bytes)},
        {"harness.worker_util", fabric ? median(worker_util) : 0.0},
        {"harness.supervisor_cpu_s", fabric ? median(supervisor_cpu) : 0.0},
    };
    out << ",\"sim_s_per_s_traced\":" << num_list(rate_traced)
        << ",\"samples\":"
        << object(attribute_samples(),
                  [](std::uint64_t v) { return num(static_cast<double>(v)); })
        << ",\"traced\":" << object(traced, num);
  }
  out << "}";
  std::cout << out.str() << std::endl;
  return 0;
}

// --- self-test ---------------------------------------------------------------

/// Burns CPU inside a perf/ function so the sampler's attribution can be
/// checked against a known answer.
[[gnu::noinline]] std::uint64_t calibration_spin(double seconds) {
  volatile std::uint64_t x = 1;
  const double end = cpu_seconds(RUSAGE_SELF) + seconds;
  while (cpu_seconds(RUSAGE_SELF) < end) {
    for (int i = 0; i < 1000000; ++i) x = x * 6364136223846793005ULL + 1;
  }
  return x;
}

int self_test() {
  struct Case {
    const char* symbol;
    const char* layer;
  };
  static constexpr Case kCases[] = {
      {"mts::sim::EventFn::kInlineVTable<mts::phy::Channel::radiate(unsigned "
       "int, mts::mobility::Vec2 const&, mts::phy::Frame const&, "
       "mts::sim::Time)::{lambda(unsigned int)#1}>::{lambda(void*)#1}::_FUN("
       "void*)",
       "phy"},
      {"std::_Function_handler<void (), mts::mac::Mac80211::Mac80211("
       "mts::sim::Scheduler&, mts::phy::Radio&, mts::mac::MacConfig, "
       "mts::sim::Rng, mts::net::Counters*)::{lambda()#1}>::_M_invoke("
       "std::_Any_data const&)",
       "mac"},
      {"void std::vector<mts::net::Packet, std::allocator<mts::net::Packet> "
       ">::_M_realloc_insert<mts::net::Packet const&>(__gnu_cxx::__normal_"
       "iterator<mts::net::Packet*, std::vector<mts::net::Packet, "
       "std::allocator<mts::net::Packet> > >, mts::net::Packet const&)",
       "net"},
      {"malloc", "alloc"},
      {"operator delete(void*, unsigned long)", "alloc"},
      {"mts::routing::aodv::Aodv::handle_rreq(mts::net::Packet&&, unsigned "
       "int)",
       "routing"},
      {"std::mersenne_twister_engine<unsigned long, 64ul, 312ul, 156ul, 31ul, "
       "13043109905998158313ul, 29ul, 6148914691236517205ul, 17ul, "
       "8202884508482404352ul, 37ul, 18444473444759240704ul, 43ul, "
       "6364136223846793005ul>::_M_gen_rand()",
       "sim"},
      {"std::_Hashtable<unsigned long, unsigned long>::find(unsigned long "
       "const&)",
       "unattributed"},
  };
  bool ok = true;
  const std::string table = list(kCases, [&ok](const Case& c) {
    const std::string got = classify_symbol(c.symbol);
    ok = ok && got == c.layer;
    return "{\"want\":" + quote(c.layer) + ",\"got\":" + quote(got) + "}";
  });

  install_sampler();
  {
    ProfSpan span(true);
    calibration_spin(0.5);
  }
  const auto buckets = attribute_samples();
  std::uint64_t total = 0;
  for (const auto& [layer, count] : buckets) total += count;
  const auto in_perf = buckets.find("perf");
  const double share =
      total == 0 || in_perf == buckets.end()
          ? 0.0
          : static_cast<double>(in_perf->second) / static_cast<double>(total);
  ok = ok && total >= 20 && share >= 0.95;
  std::cout << "{\"ok\":" << (ok ? "true" : "false") << ",\"classifier\":"
            << table << ",\"calibration_samples\":" << total
            << ",\"calibration_share\":" << num(share) << "}" << std::endl;
  return ok ? 0 : 1;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test" || a == "--check") {
      (a == "--check" ? opt.check : opt.self_test) = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    try {
      if (a == "--workload") {
        opt.workload = v;
      } else if (a == "--seed") {
        opt.seed = std::stoull(v);
      } else if (a == "--seconds") {
        opt.seconds = std::stod(v);
      } else if (a == "--trace") {
        opt.trace = v != "0";
      } else if (a == "--work-dir") {
        opt.work_dir = v;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return opt.self_test || is_workload(opt.workload);
}

}  // namespace
}  // namespace mts::perf

int main(int argc, char** argv) {
  mts::perf::Options opt;
  if (!mts::perf::parse(argc, argv, opt)) {
    std::cerr << "usage: mts_perf --workload paper50|arena10k|users|sweep "
                 "[--seconds S] [--trace 0|1] [--work-dir DIR]\n"
                 "       mts_perf --check --workload W [--seed N] "
                 "[--work-dir DIR]\n"
                 "       mts_perf --self-test\n";
    return 2;
  }
  if (opt.self_test) return mts::perf::self_test();
  return opt.check ? mts::perf::check(opt) : mts::perf::measure(opt);
}
