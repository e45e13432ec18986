// Extension: adversary-model sweep.  The paper fixes its threat model to
// one randomly placed passive eavesdropper; this bench sweeps the
// adversary axis instead — colluding insider coalitions of growing size,
// mobile external sniffers, and the active half of the taxonomy
// (wormhole tunnel, grayhole, traffic-analysis profiler, RREQ flood) —
// and reports the pooled interception ratio (union-Pe / Pr), the
// key-recovery rate of the threshold-secret-sharing secrecy game,
// goodput, endpoint-inference accuracy, and control overhead per
// (protocol, MAXSPEED) cell.
//
// Expected shape: interception grows with coalition size for every
// protocol, but MTS's path spreading means a small coalition still sees
// far less of the stream than it would of a single-path protocol; under
// blackhole, multipath protocols keep some goodput while single-path
// AODV collapses whenever the attacker sits on the active route.  The
// active kinds invert parts of that story: the wormhole's phantom
// shortcut attracts MTS's "best" paths and reads most of the stream,
// the grayhole degrades goodput while keeping the delivery rate in the
// healthy band, the traffic profiler identifies flow endpoints from
// volume skew regardless of relay spreading, and the RREQ flood taxes
// every protocol's control plane (MTS hardest — forged discoveries also
// spin up its periodic path checking).
//
// Environment overrides: the standard MTS_BENCH_* set (bench_common.hpp)
// plus MTS_BENCH_COALITIONS (comma list of coalition sizes, default
// 1,2,4).
//
// The sweep runs through the campaign fabric
// (docs/architecture/campaign-fabric.md): process-isolated workers,
// per-unit shards, and a re-run resumes from the shards it finds.
// --shard i/n executes only every n-th work unit (multi-host slicing);
// MTS_BENCH_NO_CACHE=1 recomputes instead of resuming; --timeout,
// --max-retries, --workers and --cells-per-unit tune the supervisor;
// --csv-out PATH exports the merged CSV for diffing/archiving.
//
// --traffic adds the user-plane axis: every cell runs once with the
// session workload off and once with it on, and the per-class delivery
// delay p99 table is printed for the on half of the grid.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_common.hpp"
#include "harness/campaign.hpp"
#include "harness/campaign_csv.hpp"
#include "harness/supervisor.hpp"

namespace {

struct CliOptions {
  bool traffic = false;
  mts::harness::FabricConfig fab;
  std::string csv_out;
};

bool parse_cli(int argc, char** argv, CliOptions& opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next_value = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::cerr << "error: " << flag << " needs a value\n";
        return nullptr;
      }
      return argv[++i];
    };
    try {
      if (arg == "--shard") {
        const char* v = next_value("--shard");
        if (v == nullptr) return false;
        const std::string spec = v;
        const auto slash = spec.find('/');
        if (slash == std::string::npos) {
          std::cerr << "error: --shard wants i/n (e.g. --shard 1/3)\n";
          return false;
        }
        opt.fab.shard_index =
            static_cast<std::uint32_t>(std::stoul(spec.substr(0, slash)));
        opt.fab.shard_count =
            static_cast<std::uint32_t>(std::stoul(spec.substr(slash + 1)));
        if (opt.fab.shard_count == 0 ||
            opt.fab.shard_index >= opt.fab.shard_count) {
          std::cerr << "error: --shard wants i < n\n";
          return false;
        }
      } else if (arg == "--timeout") {
        const char* v = next_value("--timeout");
        if (v == nullptr) return false;
        opt.fab.unit_timeout_s = std::stod(v);
      } else if (arg == "--max-retries") {
        const char* v = next_value("--max-retries");
        if (v == nullptr) return false;
        opt.fab.max_retries = static_cast<std::uint32_t>(std::stoul(v));
      } else if (arg == "--workers") {
        const char* v = next_value("--workers");
        if (v == nullptr) return false;
        opt.fab.workers = static_cast<unsigned>(std::stoul(v));
      } else if (arg == "--cells-per-unit") {
        const char* v = next_value("--cells-per-unit");
        if (v == nullptr) return false;
        opt.fab.cells_per_unit = std::stoul(v);
      } else if (arg == "--traffic") {
        opt.traffic = true;
      } else if (arg == "--csv-out") {
        const char* v = next_value("--csv-out");
        if (v == nullptr) return false;
        opt.csv_out = v;
      } else if (arg == "--help" || arg == "-h") {
        std::cout
            << "usage: ext_adversary_sweep [--shard i/n] [--timeout S]\n"
               "         [--max-retries N] [--workers N] "
               "[--cells-per-unit K]\n"
               "         [--csv-out PATH] [--traffic]\n";
        std::exit(0);
      } else {
        std::cerr << "error: unknown flag '" << arg << "' (try --help)\n";
        return false;
      }
    } catch (const std::exception&) {
      std::cerr << "error: bad value for " << arg << "\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace mts;
  CliOptions opt;
  harness::CampaignConfig cfg;
  harness::apply_bench_env(cfg, opt.fab);  // flags below override the env
  if (!parse_cli(argc, argv, opt)) return 2;
  cfg.protocols = {harness::Protocol::kAodv, harness::Protocol::kMts};
  // Play the key-recovery game in every cell: each flow's session key is
  // Shamir-split across its paths (1-of-1 on unipath AODV, n-of-n on
  // MTS), so the sweep reports how often each adversary reassembles an
  // actual key, not just how many fragments it overheard.
  cfg.base.secrecy.enabled = true;

  std::vector<std::uint32_t> coalition_sizes{1, 2, 4};
  if (const char* v = std::getenv("MTS_BENCH_COALITIONS")) {
    std::vector<std::uint32_t> sizes;
    std::stringstream ss(v);
    std::string item;
    while (std::getline(ss, item, ',')) {
      if (item.empty()) continue;
      std::uint64_t k = 0;
      if (!harness::parse_env_u64("MTS_BENCH_COALITIONS", item.c_str(),
                                  100000, k)) {
        sizes.clear();  // one bad element invalidates the list
        break;
      }
      sizes.push_back(static_cast<std::uint32_t>(k));
    }
    if (!sizes.empty()) coalition_sizes = std::move(sizes);
  }

  cfg.adversaries.clear();
  for (std::uint32_t k : coalition_sizes) {
    security::AdversarySpec s;
    s.kind = security::AdversaryKind::kColluding;
    s.count = k;
    cfg.adversaries.push_back(s);
  }
  for (std::uint32_t k : coalition_sizes) {
    security::AdversarySpec s;
    s.kind = security::AdversaryKind::kMobile;
    s.count = k;
    s.max_speed = 10.0;
    cfg.adversaries.push_back(s);
  }
  {
    security::AdversarySpec s;
    s.kind = security::AdversaryKind::kBlackhole;
    s.count = 1;
    cfg.adversaries.push_back(s);
  }
  // The active half of the taxonomy, one representative spec each.
  {
    security::AdversarySpec s;
    s.kind = security::AdversaryKind::kWormhole;
    cfg.adversaries.push_back(s);
  }
  {
    security::AdversarySpec s;
    s.kind = security::AdversaryKind::kGrayhole;
    s.count = 3;
    s.drop_prob = 0.3;
    cfg.adversaries.push_back(s);
  }
  {
    security::AdversarySpec s;
    s.kind = security::AdversaryKind::kTrafficAnalysis;
    s.count = 3;
    cfg.adversaries.push_back(s);
  }
  {
    security::AdversarySpec s;
    s.kind = security::AdversaryKind::kRreqFlood;
    s.count = 1;
    s.flood_rate = 5.0;
    cfg.adversaries.push_back(s);
  }

  // The defense axis: every adversary cell runs undefended (index 0 —
  // the PR 4 ledger) and under the full countermeasure suite (index 1 —
  // acked checking + wormhole leash + flood rate limiting), so the
  // attack/defense contrast is a paired comparison on identical seeds.
  {
    security::DefenseSpec suite;
    suite.kind = security::DefenseKind::kSuite;
    cfg.defenses = {security::DefenseSpec{}, suite};
  }

  // The optional user-plane axis: index 0 keeps every cell's workload
  // identical to the pre-traffic sweep, index 1 layers the session
  // generator on top so adversary exposure can be read per user class.
  if (opt.traffic) {
    traffic::TrafficSpec on;
    on.enabled = true;
    cfg.traffics = {traffic::TrafficSpec{}, on};
  }

  std::cout << "Extension: adversary sweep (colluding coalitions, mobile "
               "sniffers, insider blackhole, wormhole, grayhole, "
               "traffic analysis, RREQ flood) x {undefended, defense suite}\n";
  std::cout << "sweep: " << cfg.protocols.size() << " protocols x "
            << cfg.speeds.size() << " speeds x " << cfg.adversaries.size()
            << " adversaries x " << cfg.defenses.size() << " defenses x "
            << cfg.traffics.size() << " traffics x "
            << cfg.repetitions << " reps, "
            << cfg.base.sim_time.to_seconds() << "s each\n";

  const harness::FabricReport report =
      harness::run_campaign_fabric(cfg, opt.fab, &std::cerr);
  const harness::CampaignResult& result = report.result;
  if (!report.failures.empty()) {
    std::cout << "\n!!! " << report.failures.size()
              << " work unit(s) degraded to failed rows (summaries below "
                 "cover ok rows only):\n";
    for (const harness::FailedUnit& f : report.failures) {
      std::cout << "  unit " << (f.index + 1) << '/' << report.units_total
                << " after " << f.attempts << " attempts: " << f.error
                << "\n";
    }
  }
  if (!report.complete) {
    std::cout << "\n(grid incomplete: this invocation ran shard "
              << opt.fab.shard_index << '/' << opt.fab.shard_count
              << "; rerun without --shard once all shards finished to "
                 "merge)\n";
  }
  if (!opt.csv_out.empty()) {
    std::ofstream out(opt.csv_out, std::ios::trunc);
    if (!out) {
      std::cerr << "error: cannot write " << opt.csv_out << "\n";
      return 1;
    }
    harness::csv::write_campaign(out, cfg, result);
  }

  harness::print_adversary_figure(
      std::cout, result, cfg,
      "Coalition interception ratio (union-Pe / Pr) vs MAXSPEED", "ratio",
      [](const harness::RunMetrics& m) {
        return m.coalition_interception_ratio;
      });
  harness::print_adversary_figure(
      std::cout, result, cfg,
      "Fragments still missing to reconstruct the stream", "segments",
      [](const harness::RunMetrics& m) {
        return static_cast<double>(m.fragments_missing);
      },
      1);
  harness::print_adversary_figure(
      std::cout, result, cfg,
      "Key recovery rate (threshold secret sharing, t = paths)", "ratio",
      [](const harness::RunMetrics& m) { return m.key_recovery_rate; });
  harness::print_adversary_figure(
      std::cout, result, cfg, "Distinct key shares captured", "shares",
      [](const harness::RunMetrics& m) {
        return static_cast<double>(m.shares_captured);
      },
      1);
  harness::print_adversary_figure(
      std::cout, result, cfg, "TCP throughput under the adversary",
      "segments/s",
      [](const harness::RunMetrics& m) { return m.throughput_seg_s; });
  harness::print_adversary_figure(
      std::cout, result, cfg, "Delivery rate under the adversary", "ratio",
      [](const harness::RunMetrics& m) { return m.delivery_rate; });
  harness::print_adversary_figure(
      std::cout, result, cfg,
      "Control overhead under the adversary (flood amplification)",
      "packets",
      [](const harness::RunMetrics& m) {
        return static_cast<double>(m.control_packets);
      },
      1);
  harness::print_adversary_figure(
      std::cout, result, cfg,
      "Endpoint-inference accuracy (traffic analysis only)", "ratio",
      [](const harness::RunMetrics& m) {
        return m.endpoint_inference_accuracy;
      });

  // --- defended columns: undefended vs. suite, paired per adversary ----
  const auto defended_mean =
      [&](harness::Protocol p, std::uint32_t a, std::uint32_t d,
          const std::function<double(const harness::RunMetrics&)>& metric) {
        double sum = 0.0;
        std::size_t n = 0;
        for (double speed : cfg.speeds) {
          const auto s = result.summarize(p, speed, a, d, metric);
          sum += s.mean() * static_cast<double>(s.count());
          n += s.count();
        }
        return n == 0 ? 0.0 : sum / static_cast<double>(n);
      };
  std::cout << "\n=== Defense suite vs. each adversary (means over all "
               "speeds; undef -> defended) ===\n";
  for (harness::Protocol p : cfg.protocols) {
    std::cout << "\n--- " << harness::protocol_name(p) << " ---\n";
    for (std::uint32_t a = 0;
         a < static_cast<std::uint32_t>(cfg.adversaries.size()); ++a) {
      const auto thr = [](const harness::RunMetrics& m) {
        return m.throughput_seg_s;
      };
      const auto ctrl = [](const harness::RunMetrics& m) {
        return static_cast<double>(m.control_packets);
      };
      const auto ri = [](const harness::RunMetrics& m) {
        return m.coalition_interception_ratio;
      };
      std::cout << "  " << harness::adversary_label(cfg.adversaries[a])
                << ": thr " << defended_mean(p, a, 0, thr) << " -> "
                << defended_mean(p, a, 1, thr) << " seg/s"
                << "; ctrl " << defended_mean(p, a, 0, ctrl) << " -> "
                << defended_mean(p, a, 1, ctrl)
                << "; read " << defended_mean(p, a, 0, ri) << " -> "
                << defended_mean(p, a, 1, ri)
                << "; keyrec " << defended_mean(p, a, 0,
                       [](const harness::RunMetrics& m) {
                         return m.key_recovery_rate;
                       })
                << " -> " << defended_mean(p, a, 1,
                       [](const harness::RunMetrics& m) {
                         return m.key_recovery_rate;
                       })
                << "; detect@" << defended_mean(p, a, 1,
                       [](const harness::RunMetrics& m) {
                         return m.detection_time_s;
                       })
                << "s; recover " << defended_mean(p, a, 1,
                       [](const harness::RunMetrics& m) {
                         return m.recovery_time_s;
                       })
                << "s; quar " << defended_mean(p, a, 1,
                       [](const harness::RunMetrics& m) {
                         return static_cast<double>(m.paths_quarantined);
                       })
                << "; suppr " << defended_mean(p, a, 1,
                       [](const harness::RunMetrics& m) {
                         return static_cast<double>(m.flood_suppressed);
                       })
                << "\n";
    }
  }

  // --- user-plane axis: per-class delivery delay p99 and exposure ------
  if (opt.traffic) {
    const auto traffic_mean =
        [&](harness::Protocol p, std::uint32_t a,
            const std::function<double(const harness::RunMetrics&)>& metric) {
          double sum = 0.0;
          std::size_t n = 0;
          for (double speed : cfg.speeds) {
            const auto s = result.summarize(p, speed, a, 0, 1, metric);
            sum += s.mean() * static_cast<double>(s.count());
            n += s.count();
          }
          return n == 0 ? 0.0 : sum / static_cast<double>(n);
        };
    std::cout << "\n=== User-plane delivery delay p99 / key exposure ("
              << harness::traffic_label(cfg.traffics[1])
              << ", undefended, means over all speeds) ===\n";
    for (harness::Protocol p : cfg.protocols) {
      std::cout << "\n--- " << harness::protocol_name(p) << " ---\n";
      for (std::uint32_t a = 0;
           a < static_cast<std::uint32_t>(cfg.adversaries.size()); ++a) {
        std::cout << "  " << harness::adversary_label(cfg.adversaries[a])
                  << ": msg p99 "
                  << traffic_mean(p, a,
                                  [](const harness::RunMetrics& m) {
                                    return m.traffic_classes[0].delay_p99_ms;
                                  })
                  << " ms (exposure "
                  << traffic_mean(p, a,
                                  [](const harness::RunMetrics& m) {
                                    return m.traffic_classes[0].key_exposure;
                                  })
                  << "); bulk p99 "
                  << traffic_mean(p, a,
                                  [](const harness::RunMetrics& m) {
                                    return m.traffic_classes[1].delay_p99_ms;
                                  })
                  << " ms (exposure "
                  << traffic_mean(p, a,
                                  [](const harness::RunMetrics& m) {
                                    return m.traffic_classes[1].key_exposure;
                                  })
                  << "); sessions "
                  << traffic_mean(p, a,
                                  [](const harness::RunMetrics& m) {
                                    return static_cast<double>(
                                        m.sessions_completed);
                                  })
                  << "\n";
      }
    }
  }
  return 0;
}
