#include "harness/supervisor.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <climits>
#include <cmath>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <sstream>
#include <system_error>
#include <thread>
#include <utility>

#include "harness/shard_store.hpp"
#include "sim/error.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define MTS_FABRIC_HAS_FORK 1
#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/resource.h>
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
/// Owns one file descriptor.
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  Fd(Fd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      close_fd();
      fd_ = std::exchange(other.fd_, -1);
    }
    return *this;
  }
  ~Fd() { close_fd(); }

  [[nodiscard]] int get() const { return fd_; }

 private:
  void close_fd() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  int fd_ = -1;
};

/// A close-on-exec pipe for one worker, which keeps the write end: the
/// read end polls as hung up once the worker has exited, however it
/// died.
bool open_exit_pipe(Fd& read_end, Fd& write_end) {
  int fds[2];
  if (::pipe(fds) != 0) return false;
  read_end = Fd(fds[0]);
  write_end = Fd(fds[1]);
  ::fcntl(fds[0], F_SETFD, FD_CLOEXEC);
  ::fcntl(fds[1], F_SETFD, FD_CLOEXEC);
  return true;
}

/// `poll`'s timeout for waking at `t`: -1 (none) for
/// `time_point::max()`, else whole milliseconds rounded up, so the wake
/// never comes before `t`.
int poll_timeout_ms(Clock::time_point t) {
  if (t == Clock::time_point::max()) return -1;
  const auto left = t - Clock::now();
  if (left <= Clock::duration::zero()) return 0;
  const auto ms =
      std::chrono::ceil<std::chrono::milliseconds>(left).count();
  return static_cast<int>(std::min<decltype(ms)>(ms, INT_MAX));
}

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

AttemptRecord attempt_record(std::uint32_t index, std::uint32_t attempt,
                             bool timed_out, int status, const rusage& usage,
                             double wall_s) {
  AttemptRecord rec;
  rec.index = index;
  rec.attempt = attempt;
  if (WIFSIGNALED(status)) rec.code = WTERMSIG(status);
  if (WIFEXITED(status)) rec.code = WEXITSTATUS(status);
  if (timed_out) {
    rec.exit = WorkerExit::kTimeout;
  } else if (WIFSIGNALED(status)) {
    rec.exit = WorkerExit::kSignal;
  } else if (rec.code != 0) {
    rec.exit = WorkerExit::kExitCode;
  }
  rec.wall_s = wall_s;
  rec.user_cpu_s = seconds_of(usage.ru_utime);
  rec.sys_cpu_s = seconds_of(usage.ru_stime);
#if defined(__APPLE__)
  rec.max_rss_kib = usage.ru_maxrss / 1024;  // bytes there
#else
  rec.max_rss_kib = usage.ru_maxrss;
#endif
  return rec;
}

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
    Fd exit_fd;  ///< read end of the worker's exit pipe
    std::size_t idx = 0;
    std::uint32_t attempt = 1;
    Clock::time_point started;
    Clock::time_point deadline;
    bool timed_out = false;
  };
  std::vector<Running> running;
  std::vector<pollfd> wait_set;

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

  // Forks every ready unit into a free slot.  Indices, not iterators:
  // a failed fork re-queues its unit at the back of `pending`.
  auto spawn_ready = [&](Clock::time_point now) {
    bool acted = false;
    for (std::size_t i = 0; i < pending.size() && running.size() < workers;) {
      if (pending[i].not_before > now) {
        ++i;
        continue;
      }
      const Pending p = pending[i];
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
      acted = true;
      const WorkUnit& u = units[p.idx];
      sink.unit_line(u.index + 1, total,
                     (p.attempt == 1
                          ? "run: "
                          : "retry " + std::to_string(p.attempt) + ": ") +
                         short_unit_desc(cfg, u));
      Fd exit_fd;
      Fd write_end;
      if (!open_exit_pipe(exit_fd, write_end)) {
        on_attempt_failure(u, p.attempt, "pipe failed");
        continue;
      }
      const Clock::time_point started = Clock::now();
      const pid_t pid = ::fork();
      if (pid == 0) {
        worker_main(cfg, fab, store, u, p.attempt);  // never returns
      }
      write_end = Fd();  // the worker now holds the only write end
      if (pid < 0) {
        on_attempt_failure(u, p.attempt, "fork failed");
        continue;
      }
      if (!spawned[u.index]) {
        spawned[u.index] = 1;
        ++report.units_run;
      }
      Running r;
      r.pid = pid;
      r.exit_fd = std::move(exit_fd);
      r.idx = p.idx;
      r.attempt = p.attempt;
      r.started = started;
      r.deadline = fab.unit_timeout_s > 0.0
                       ? started + std::chrono::microseconds(static_cast<
                                       std::int64_t>(fab.unit_timeout_s * 1e6))
                       : Clock::time_point::max();
      running.push_back(std::move(r));
    }
    return acted;
  };

  auto kill_overdue = [&](Clock::time_point now) {
    bool killed = false;
    for (Running& r : running) {
      if (!r.timed_out && now >= r.deadline) {
        r.timed_out = true;
        ::kill(r.pid, SIGKILL);
        killed = true;
      }
    }
    return killed;
  };

  // The one blocking reap: the worker has closed its pipe, so it has
  // exited or is about to.
  auto reap = [&](const Running& r) {
    int status = 0;
    rusage usage{};
    pid_t got = -1;
    do {
      got = ::wait4(r.pid, &status, 0, &usage);
    } while (got < 0 && errno == EINTR);
    if (got != r.pid) status = 0;
    report.attempts.push_back(attempt_record(
        units[r.idx].index, r.attempt, r.timed_out, status, usage,
        std::chrono::duration<double>(Clock::now() - r.started).count()));
    handle_exit(r, status);
  };

  // The next time the supervisor must act without a worker exiting: a
  // running unit's deadline, or a retry's not-before while a slot is
  // free to run it.
  auto next_wake = [&] {
    Clock::time_point t = Clock::time_point::max();
    for (const Running& r : running) {
      if (!r.timed_out) t = std::min(t, r.deadline);
    }
    if (running.size() < workers) {
      for (const Pending& p : pending) t = std::min(t, p.not_before);
    }
    return t;
  };

  spawn_ready(Clock::now());
  while (!pending.empty() || !running.empty()) {
    wait_set.clear();
    for (const Running& r : running) {
      wait_set.push_back(pollfd{r.exit_fd.get(), POLLIN, 0});
    }
    if (::poll(wait_set.data(), wait_set.size(),
               poll_timeout_ms(next_wake())) < 0) {
      if (errno == EINTR) continue;
      throw std::system_error(errno, std::generic_category(), "Fabric: poll");
    }
    bool acted = false;
    std::size_t kept = 0;
    for (std::size_t i = 0; i < running.size(); ++i) {
      if (wait_set[i].revents != 0) {
        reap(running[i]);
        acted = true;
      } else {
        running[kept++] = std::move(running[i]);
      }
    }
    running.resize(kept);  // closes the reaped workers' pipes
    const Clock::time_point now = Clock::now();
    acted = kill_overdue(now) || acted;
    acted = spawn_ready(now) || acted;
    if (!acted) ++report.idle_wakes;
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
