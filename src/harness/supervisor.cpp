#include "harness/supervisor.hpp"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <sstream>
#include <thread>

#include "harness/shard_store.hpp"
#include "sim/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define MTS_FABRIC_HAS_FORK 1
#include <signal.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>
#else
#include <stdexcept>
#endif

namespace mts::harness {
namespace {

using Clock = std::chrono::steady_clock;

/// Progress lines for a sweep; a null stream makes it a no-op.  Only
/// the supervisor writes (workers report through shards and exit
/// codes), so each line goes out whole.
class ProgressSink {
 public:
  explicit ProgressSink(std::ostream* os) : os_(os) {}

  void line(const std::string& text) {
    if (os_ != nullptr) (*os_) << text << '\n' << std::flush;
  }

  /// `line` with the "[unit k/N]" prefix so interleaved unit lifecycles
  /// stay attributable in a sweep log.
  void unit_line(std::size_t k, std::size_t n, const std::string& text) {
    line("  [unit " + std::to_string(k) + '/' + std::to_string(n) + "] " +
         text);
  }

 private:
  std::ostream* os_;
};

std::filesystem::path error_path(const ShardStore& store, const WorkUnit& u) {
  auto p = store.path_of(u);
  p.replace_extension(".err");
  return p;
}

/// Workers report their failure reason through a tiny sidecar file
/// (atomic like the shard itself): exit codes can't carry a trap
/// message across the process boundary.
void write_error_file(const ShardStore& store, const WorkUnit& u,
                      const std::string& msg) {
  const auto path = error_path(store, u);
  const auto tmp = path.string() + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return;
    out << msg;
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
}

std::string take_error_file(const ShardStore& store, const WorkUnit& u) {
  const auto path = error_path(store, u);
  std::ifstream in(path);
  std::string msg;
  if (in) {
    std::ostringstream buf;
    buf << in.rdbuf();
    msg = buf.str();
  }
  std::error_code ec;
  std::filesystem::remove(path, ec);
  return msg;
}

/// Test-only fault injection reachable from the CLI (and CI): a worker
/// whose unit index matches MTS_FABRIC_TEST_HANG_UNIT spins forever —
/// on attempts <= MTS_FABRIC_TEST_HANG_ATTEMPTS when set, else always —
/// which is how the timeout -> retry -> failed-cell path is exercised
/// without a genuinely wedged scenario.
void maybe_test_hang(const WorkUnit& unit, std::uint32_t attempt) {
  const char* v = std::getenv("MTS_FABRIC_TEST_HANG_UNIT");
  if (v == nullptr || std::to_string(unit.index) != v) return;
  if (const char* upto = std::getenv("MTS_FABRIC_TEST_HANG_ATTEMPTS")) {
    char* end = nullptr;
    const unsigned long long n = std::strtoull(upto, &end, 10);
    if (end != upto && *end == '\0' && attempt > n) return;
  }
  for (;;) std::this_thread::sleep_for(std::chrono::seconds(1));
}

std::vector<RunMetrics> run_unit_cells(const CampaignConfig& cfg,
                                       const WorkUnit& unit,
                                       std::uint32_t attempt) {
  std::vector<RunMetrics> rows;
  rows.reserve(unit.total_runs());
  for (const WorkCell& c : unit.cells) {
    for (std::uint32_t rep = c.rep_begin; rep < c.rep_end; ++rep) {
      const ScenarioConfig sc = cell_scenario(cfg, c, rep);
      RunMetrics m = run_scenario(sc);
      m.adversary_index = c.adversary;
      m.defense_index = c.defense;
      m.traffic_index = c.traffic;
      m.attempts = attempt;
      rows.push_back(std::move(m));
    }
  }
  return rows;
}

std::string short_unit_desc(const CampaignConfig& cfg, const WorkUnit& u) {
  const WorkCell& c = u.cells.front();
  std::ostringstream os;
  os << protocol_name(cfg.protocols[c.protocol])
     << " speed=" << cfg.speeds[c.speed] << " adversary=" << c.adversary
     << " defense=" << c.defense << " traffic=" << c.traffic
     << " reps=" << c.runs();
  if (u.cells.size() > 1) os << " (+" << (u.cells.size() - 1) << " cells)";
  return os.str();
}

std::string fmt_seconds(double s) {
  std::ostringstream os;
  os.precision(3);
  os << s << 's';
  return os.str();
}

#if defined(MTS_FABRIC_HAS_FORK)
/// The worker body after fork.  `std::_Exit` everywhere: the child must
/// never run the parent's static destructors or flush its inherited
/// stream buffers.
[[noreturn]] void worker_main(const CampaignConfig& cfg,
                              const FabricConfig& fab, const ShardStore& store,
                              const WorkUnit& unit, std::uint32_t attempt) {
  try {
    if (fab.test_child_hook) fab.test_child_hook(unit, attempt);
    maybe_test_hang(unit, attempt);
    const std::vector<RunMetrics> rows = run_unit_cells(cfg, unit, attempt);
    std::string err;
    if (!store.write(unit, rows, &err)) {
      write_error_file(store, unit, err);
      std::_Exit(4);
    }
    std::_Exit(0);
  } catch (const std::exception& e) {
    write_error_file(store, unit, e.what());
    std::_Exit(3);
  } catch (...) {
    write_error_file(store, unit, "unknown exception");
    std::_Exit(3);
  }
}
#endif

}  // namespace

FabricReport run_campaign_fabric(const CampaignConfig& cfg,
                                 const FabricConfig& fab,
                                 std::ostream* progress) {
  sim::require_config(fab.shard_count >= 1 &&
                          fab.shard_index < fab.shard_count,
                      "Fabric: shard index out of range (want i/n, i < n)");
  ProgressSink sink(progress);
  const std::vector<WorkUnit> units =
      partition_campaign(cfg, fab.cells_per_unit);
  ShardStore store(fab.shard_dir.empty() ? ShardStore::dir_for(cfg)
                                         : fab.shard_dir);
  if (!store.prepare()) {
    throw sim::ConfigError("Fabric: cannot create shard dir " +
                           store.dir().string());
  }

  FabricReport report;
  report.units_total = units.size();
  const std::size_t total = units.size();

  struct Pending {
    std::size_t idx = 0;
    std::uint32_t attempt = 1;
    Clock::time_point not_before;
  };
  std::deque<Pending> pending;
  // Rows per unit, added to the result in partition order at the end:
  // a cell split over several units then lists its runs in repetition
  // order whichever unit finished first.
  std::vector<std::vector<RunMetrics>> unit_rows(units.size());
  std::vector<char> have(units.size(), 0);
  std::vector<char> spawned(units.size(), 0);

  // --- merge/resume: ingest what is already on disk --------------------
  for (const WorkUnit& u : units) {
    const bool owned = (u.index % fab.shard_count) == fab.shard_index;
    if (owned) ++report.units_owned;
    std::vector<RunMetrics> rows;
    ShardStore::State st = store.read(u, rows);
    if (owned && !fab.resume && st != ShardStore::State::kMissing) {
      store.remove(u);
      st = ShardStore::State::kMissing;
      rows.clear();
    }
    switch (st) {
      case ShardStore::State::kOk:
        unit_rows[u.index] = std::move(rows);
        have[u.index] = 1;
        ++report.units_ok;
        if (owned) {
          ++report.units_resumed;
          sink.unit_line(u.index + 1, total, "resumed from shard");
        }
        break;
      case ShardStore::State::kFailed:
        if (owned) {
          // A previous invocation exhausted its retries here; a fresh
          // invocation is a fresh budget.
          store.remove(u);
          pending.push_back(Pending{u.index, 1, Clock::now()});
          sink.unit_line(u.index + 1, total,
                         "failed shard found; rescheduling");
        } else {
          // Another host's slice: report its failure as recorded.
          report.failures.push_back(FailedUnit{
              u.id, u.index, rows.front().attempts, rows.front().run_error});
          unit_rows[u.index] = std::move(rows);
          have[u.index] = 1;
          ++report.units_failed;
        }
        break;
      case ShardStore::State::kMissing:
        if (owned) pending.push_back(Pending{u.index, 1, Clock::now()});
        break;
    }
  }

  // --- degradation path shared by every failure source -----------------
  auto on_attempt_failure = [&](const WorkUnit& u, std::uint32_t attempt,
                                const std::string& error) {
    if (attempt <= fab.max_retries) {
      const double backoff =
          fab.backoff_base_s * std::ldexp(1.0, static_cast<int>(attempt) - 1);
      pending.push_back(
          Pending{u.index, attempt + 1,
                  Clock::now() + std::chrono::microseconds(
                                     static_cast<std::int64_t>(backoff * 1e6))});
      sink.unit_line(u.index + 1, total,
                     "attempt " + std::to_string(attempt) + " failed (" +
                         error + "); retrying in " + fmt_seconds(backoff));
      return;
    }
    std::vector<RunMetrics> rows;
    rows.reserve(u.total_runs());
    for (const WorkCell& c : u.cells) {
      for (std::uint32_t rep = c.rep_begin; rep < c.rep_end; ++rep) {
        rows.push_back(failed_run_metrics(cfg, c, rep, attempt, error));
      }
    }
    std::string werr;
    store.write(u, rows, &werr);  // best effort: the report is the truth
    unit_rows[u.index] = std::move(rows);
    have[u.index] = 1;
    ++report.units_failed;
    report.failures.push_back(FailedUnit{u.id, u.index, attempt, error});
    sink.unit_line(u.index + 1, total,
                   "FAILED after " + std::to_string(attempt) + " attempts: " +
                       error);
  };

  auto on_success = [&](const WorkUnit& u, std::vector<RunMetrics> rows) {
    sink.unit_line(u.index + 1, total,
                   "ok (" + std::to_string(rows.size()) + " runs)");
    unit_rows[u.index] = std::move(rows);
    have[u.index] = 1;
    ++report.units_ok;
  };

  unsigned workers = fab.workers != 0
                         ? fab.workers
                         : std::max(1u, std::thread::hardware_concurrency());

#if defined(MTS_FABRIC_HAS_FORK)
  struct Running {
    pid_t pid = -1;
    std::size_t idx = 0;
    std::uint32_t attempt = 1;
    Clock::time_point deadline;
    bool timed_out = false;
  };
  std::vector<Running> running;

  auto handle_exit = [&](const Running& r, int status) {
    const WorkUnit& u = units[r.idx];
    std::string error;
    if (r.timed_out) {
      error = "timeout after " + fmt_seconds(fab.unit_timeout_s);
      take_error_file(store, u);  // discard: the kill is the reason
    } else if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
      std::vector<RunMetrics> rows;
      if (store.read(u, rows) == ShardStore::State::kOk) {
        on_success(u, std::move(rows));
        return;
      }
      error = "worker exited 0 but left no valid shard";
    } else {
      const std::string detail = take_error_file(store, u);
      if (!detail.empty()) {
        error = detail;
      } else if (WIFSIGNALED(status)) {
        error = "worker killed by signal " + std::to_string(WTERMSIG(status));
      } else {
        error = "worker exit code " +
                std::to_string(WIFEXITED(status) ? WEXITSTATUS(status) : -1);
      }
    }
    on_attempt_failure(u, r.attempt, error);
  };

  while (!pending.empty() || !running.empty()) {
    bool advanced = false;
    // Spawn every ready unit into a free slot.
    const auto now = Clock::now();
    for (auto it = pending.begin();
         it != pending.end() && running.size() < workers;) {
      if (it->not_before > now) {
        ++it;
        continue;
      }
      const WorkUnit& u = units[it->idx];
      sink.unit_line(u.index + 1, total,
                     (it->attempt == 1
                          ? "run: "
                          : "retry " + std::to_string(it->attempt) + ": ") +
                         short_unit_desc(cfg, u));
      const pid_t pid = ::fork();
      if (pid == 0) {
        worker_main(cfg, fab, store, u, it->attempt);  // never returns
      }
      if (pid < 0) {
        on_attempt_failure(u, it->attempt, "fork failed");
      } else {
        if (!spawned[u.index]) {
          spawned[u.index] = 1;
          ++report.units_run;
        }
        Running r;
        r.pid = pid;
        r.idx = it->idx;
        r.attempt = it->attempt;
        r.deadline = fab.unit_timeout_s > 0.0
                         ? now + std::chrono::microseconds(static_cast<
                                     std::int64_t>(fab.unit_timeout_s * 1e6))
                         : Clock::time_point::max();
        running.push_back(r);
      }
      it = pending.erase(it);
      advanced = true;
    }
    // Reap exits and enforce deadlines.
    for (auto it = running.begin(); it != running.end();) {
      int status = 0;
      const pid_t r = ::waitpid(it->pid, &status, WNOHANG);
      if (r == 0) {
        if (!it->timed_out && Clock::now() >= it->deadline) {
          it->timed_out = true;
          ::kill(it->pid, SIGKILL);
        }
        ++it;
        continue;
      }
      advanced = true;
      handle_exit(*it, r == it->pid ? status : 0);
      it = running.erase(it);
    }
    if (!advanced) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
#else
  // No fork on this platform: units run in-process (sharding, resume
  // and batching still work; crash isolation and timeouts do not).
  (void)workers;
  while (!pending.empty()) {
    const Pending p = pending.front();
    pending.pop_front();
    const WorkUnit& u = units[p.idx];
    if (!spawned[u.index]) {
      spawned[u.index] = 1;
      ++report.units_run;
    }
    try {
      std::vector<RunMetrics> rows = run_unit_cells(cfg, u, p.attempt);
      std::string err;
      if (!store.write(u, rows, &err)) throw std::runtime_error(err);
      on_success(u, std::move(rows));
    } catch (const std::exception& e) {
      on_attempt_failure(u, p.attempt, e.what());
    }
  }
#endif

  report.complete = true;
  for (std::size_t i = 0; i < units.size(); ++i) {
    if (!have[i]) report.complete = false;
    for (RunMetrics& m : unit_rows[i]) report.result.add(std::move(m));
  }
  {
    std::ostringstream os;
    os << "  fabric: " << report.units_ok << '/' << report.units_total
       << " units ok, " << report.units_failed << " failed, "
       << report.units_resumed << " resumed, " << report.units_run
       << " run here";
    if (!report.complete) {
      os << " (grid incomplete: other shards still pending)";
    }
    sink.line(os.str());
  }
  return report;
}

}  // namespace mts::harness
