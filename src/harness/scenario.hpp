#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/mts.hpp"
#include "mac/mac80211.hpp"
#include "phy/fading.hpp"
#include "mobility/trajectory.hpp"
#include "net/trace.hpp"
#include "phy/channel.hpp"
#include "security/adversary.hpp"
#include "security/defense/defense.hpp"
#include "security/keyshare.hpp"
#include "tcp/flow_stats.hpp"
#include "tcp/tcp_config.hpp"
#include "traffic/traffic.hpp"

namespace mts::harness {

/// kSmr is the related-work baseline (Lee/Gerla's Split Multipath
/// Routing, the paper's reference [6]) used by the `ext_smr_tcp` bench;
/// the paper's own evaluation compares DSR, AODV and MTS.
enum class Protocol : std::uint8_t { kDsr, kAodv, kMts, kSmr };

const char* protocol_name(Protocol p);

/// One TCP connection in the scenario.
struct FlowSpec {
  net::NodeId src = 0;
  net::NodeId dst = 1;
  sim::Time start = sim::Time::sec(1);
};

/// The paper's simulation environment (§IV-A) plus the knobs the
/// extension/ablation benches vary.  Defaults reproduce the paper.
struct ScenarioConfig {
  /// The paper does not state the TCP window.  8 segments ~ the
  /// delay-bandwidth product of a 2-4 hop path at 2 Mb/s; ns-2's
  /// window_=20 default over-drives the channel into a MAC-failure
  /// regime whose churn drowns the routing-level contrasts the paper
  /// reports.
  ScenarioConfig() { tcp.max_window = 8; }

  std::uint32_t node_count = 50;
  mobility::Field field{1000.0, 1000.0};
  double max_speed = 2.0;   ///< the paper's MAXSPEED
  double min_speed = 0.1;
  sim::Time pause = sim::Time::sec(1);
  sim::Time sim_time = sim::Time::sec(200);
  double radio_range = 250.0;
  Protocol protocol = Protocol::kMts;
  std::uint64_t seed = 1;

  /// Number of TCP flows with random distinct endpoints (paper: one TCP
  /// Reno session).  Ignored when `explicit_flows` is non-empty.
  std::uint32_t flow_count = 1;
  std::vector<FlowSpec> explicit_flows;
  /// Minimum initial src-dst separation for randomly drawn flows.  The
  /// paper does not state how endpoints were picked, but Table I's relay
  /// volume (~150 relays/s) implies a multihop session; 400 m (>= 2
  /// hops at a 250 m range) reproduces that regime.  Set to 0 for fully
  /// uniform pairs.
  double min_flow_distance = 400.0;

  /// Randomly chosen intermediate node sniffing all decodable frames.
  bool eavesdropper_enabled = true;

  /// Optional adversary model beyond the paper's single eavesdropper:
  /// colluding coalitions, mobile sniffers, traffic-analysis profilers,
  /// insider blackholes/grayholes, wormhole tunnels, or RREQ floods.
  /// `kNone` (the default) reproduces the paper's threat model exactly.
  /// Passive adversaries (colluding/mobile/traffic) are pure observers —
  /// enabling one changes no packet-level behaviour; the others are
  /// active by design.
  security::AdversarySpec adversary;

  /// Optional countermeasure model (`src/security/defense`): end-to-end
  /// acked checking for MTS, wormhole leashes, routing-layer RREQ rate
  /// limiting, or the full suite.  `kNone` (the default) runs the stock
  /// protocols — the configuration every pre-defense fingerprint pins.
  security::DefenseSpec defense;

  /// Optional threshold-secret-sharing secrecy game
  /// (`src/security/keyshare`): each flow's session key is Shamir-split
  /// across the protocol's disjoint paths and adversary pools score
  /// *key recovery* from real wire bytes, not fragment counts.
  /// Disabled (the default) adds no state at all — every pre-existing
  /// fingerprint runs with no plane.
  security::SecrecySpec secrecy;

  /// Optional user-traffic plane (`src/traffic`): session-level workload
  /// on gateway/attachment nodes with per-class percentile metrics.
  /// Disabled (the default) constructs nothing and draws nothing — every
  /// pre-existing fingerprint replays bit-identical.
  traffic::TrafficSpec traffic;

  /// Fixed node placement instead of random waypoint (tests, examples).
  /// Non-empty => static topology; must have node_count entries.
  std::vector<mobility::Vec2> static_positions;

  /// Optional slow-fading channel (paper §III-D motivates the checking
  /// period by the fading/shadowing coherence time; the unit disk can't
  /// express that).  Off = pure 250 m disk, as the headline figures use.
  bool fading_enabled = false;
  phy::FadingConfig fading;

  tcp::TcpConfig tcp;
  mac::MacConfig mac;
  core::MtsConfig mts;
  phy::ChannelConfig channel;
};

/// Outcome of a run as the campaign fabric records it.  In-process runs
/// are always `kOk` (a trap propagates); under the process-isolated
/// supervisor a unit that exhausts its retries is written into the
/// merged CSV as `kFailed` placeholder rows so the sweep completes and
/// the failure stays visible instead of silently shrinking the grid.
enum class RunStatus : std::uint8_t { kOk = 0, kFailed = 1 };

const char* run_status_name(RunStatus s);

/// Everything a single run produces; aggregation happens in `campaign`.
struct RunMetrics {
  Protocol protocol = Protocol::kMts;
  double max_speed = 0.0;
  std::uint64_t seed = 0;

  // --- security (paper §IV-B) -----------------------------------------
  std::size_t participating_nodes = 0;   ///< Fig. 5
  double relay_stddev = 0.0;             ///< Fig. 6 (Eqs. 2-4)
  std::uint64_t alpha = 0;               ///< Σ β_i (Table I)
  std::uint64_t max_beta = 0;
  double highest_interception_ratio = 0.0;  ///< Fig. 7
  std::uint64_t pe = 0;                  ///< eavesdropped segments
  std::uint64_t pr = 0;                  ///< delivered segments
  double interception_ratio = 0.0;       ///< Eq. 1 (extension bench)
  net::NodeId eavesdropper = net::kNoNode;
  std::vector<std::pair<net::NodeId, std::uint64_t>> betas;  ///< Table I rows

  // --- adversary (extension: coalition/mobile/blackhole sweeps) ---------
  /// Index into `CampaignConfig::adversaries` (0 outside campaigns).
  std::uint32_t adversary_index = 0;
  security::AdversaryKind adversary_kind = security::AdversaryKind::kNone;
  std::uint32_t adversary_count = 0;          ///< coalition/attacker size
  std::uint64_t coalition_captured = 0;       ///< pooled distinct segments
  double coalition_interception_ratio = 0.0;  ///< pooled Pe / Pr
  /// Segments the coalition still lacks to reconstruct the delivered
  /// stream — the "fragments-to-reconstruct" distance.
  std::uint64_t fragments_missing = 0;
  /// Data packets deliberately eaten by an insider attacker of any kind
  /// (blackhole absorption, grayhole absorption, wormhole tunnel drops).
  std::uint64_t blackhole_absorbed = 0;
  std::vector<net::NodeId> adversary_members;

  // --- active-attack metrics (wormhole/grayhole/traffic/flood) ----------
  /// Frames replayed through the wormhole's out-of-band tunnel.
  std::uint64_t wormhole_tunneled = 0;
  /// Data packets the grayhole's probabilistic/time-windowed veto ate
  /// (isolated from blackhole_absorbed so the sweep can contrast them).
  std::uint64_t grayhole_absorbed = 0;
  /// kTrafficAnalysis: fraction of flows whose (src, dst) the metadata
  /// profiler guessed exactly.
  double endpoint_inference_accuracy = 0.0;
  /// Forged route discoveries injected by kRreqFlood.
  std::uint64_t flood_injected = 0;

  // --- secrecy game (keyshare plane) -------------------------------------
  /// Shares each flow's session key is split into (0 = game off).
  std::uint32_t secrecy_shares = 0;
  /// Shares needed to reconstruct a key (t of n).
  std::uint32_t secrecy_threshold = 0;
  /// Distinct (flow, share) pairs the adversary pool parsed out of
  /// captured wire images.
  std::uint64_t shares_captured = 0;
  /// Flows whose session key the coalition actually reconstructed
  /// (reconstruction must equal the true key byte-for-byte).
  std::uint64_t keys_recovered = 0;
  /// keys_recovered / flows — the headline key-recovery rate.
  double key_recovery_rate = 0.0;

  // --- defense (countermeasure subsystem) --------------------------------
  /// Index into `CampaignConfig::defenses` (0 outside campaigns).
  std::uint32_t defense_index = 0;
  security::DefenseKind defense_kind = security::DefenseKind::kNone;
  /// Sim time (seconds) of the first quarantine/suppression; 0 = the
  /// defense never fired.
  double detection_time_s = 0.0;
  /// Paths demoted by the acked-checking estimator or the leash.
  std::uint64_t paths_quarantined = 0;
  /// Seconds from first detection to the next delivered segment, at the
  /// 1-second resolution of `deliveries_per_second`; 0 = no delivery
  /// after detection (or no detection).
  double recovery_time_s = 0.0;
  /// Defense events per opportunity in an adversary-free run — every
  /// quarantine/suppression without an attacker is by definition false.
  /// Reported as 0 when an adversary is present (ground truth unknown).
  double false_positive_rate = 0.0;
  /// Route discoveries refused by the rate limiter, network-wide.
  std::uint64_t flood_suppressed = 0;
  /// Acked-checking data-plane probes sent by all sources.
  std::uint64_t probes_sent = 0;

  // --- fabric (campaign fabric) ------------------------------------------
  /// `kFailed` rows are placeholders for cells whose worker crashed,
  /// hung past its timeout, or trapped on every attempt; they carry the
  /// cell identity (protocol/speed/seed/adversary/defense) and zeros
  /// everywhere else.  `CampaignResult::summarize` skips them.
  RunStatus run_status = RunStatus::kOk;
  /// Worker attempts this row consumed (1 = first try, and always 1
  /// from a direct `run_scenario`).
  std::uint32_t attempts = 1;
  /// Why the cell failed ("signal 9", "timeout after 30s", a trap
  /// message); empty on `kOk` rows.  Sanitized to one CSV cell.
  std::string run_error;

  // --- user-traffic plane (traffic axis) ---------------------------------
  /// Index into `CampaignConfig::traffics` (0 outside campaigns).
  std::uint32_t traffic_index = 0;
  std::uint64_t sessions_started = 0;
  std::uint64_t sessions_completed = 0;
  std::uint64_t sessions_rejected = 0;
  /// Per-user-class percentile metrics out of the traffic plane's
  /// mergeable digests, plus the secrecy exposure of the class's lanes.
  struct TrafficClassMetrics {
    std::uint64_t flows_completed = 0;
    double delay_p50_ms = 0.0;
    double delay_p95_ms = 0.0;
    double delay_p99_ms = 0.0;
    double goodput_p50_seg_s = 0.0;
    /// Fraction of the class's flow-id lanes whose session key the
    /// adversary pool reconstructed (secrecy game on, else 0).  Lanes
    /// recycled across classes count toward each class that used them.
    double key_exposure = 0.0;
  };
  std::array<TrafficClassMetrics, traffic::kUserClassCount>
      traffic_classes{};

  // --- TCP (paper Figs. 8-10) ------------------------------------------
  double avg_delay_s = 0.0;              ///< Fig. 8
  double throughput_seg_s = 0.0;         ///< Fig. 9
  double throughput_kbps = 0.0;
  double delivery_rate = 0.0;            ///< Fig. 10
  std::uint64_t segments_delivered = 0;
  std::uint64_t data_packets_sent = 0;
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t acks_received = 0;
  /// Per-flow congestion-window evolution, recorded when
  /// `tcp.trace_cwnd` is set (diagnostics).
  std::vector<std::vector<std::pair<sim::Time, double>>> cwnd_traces;
  std::vector<std::uint32_t> deliveries_per_second;

  // --- routing (paper Fig. 11) -------------------------------------------
  std::uint64_t control_packets = 0;     ///< Fig. 11: total routing pkts
  std::uint64_t route_switches = 0;      ///< MTS only
  std::uint64_t checks_sent = 0;         ///< MTS only

  // --- loss attribution ---------------------------------------------------
  /// Sum over nodes of per-reason drop counters (indexed by DropReason).
  std::array<std::uint64_t, static_cast<std::size_t>(net::DropReason::kCount)>
      drops{};
  [[nodiscard]] std::uint64_t dropped(net::DropReason r) const {
    return drops[static_cast<std::size_t>(r)];
  }

  // --- engine -------------------------------------------------------------
  std::uint64_t events_executed = 0;
  /// Order-sensitive digest of every executed event's (time, category)
  /// (`Scheduler::order_hash`): equal counts can hide a reordering, this
  /// cannot.
  std::uint64_t event_order_hash = 0;
  /// Always 0: an event closure that would not fit the event core's
  /// inline storage no longer compiles (`sim::EventFn`).  Kept because
  /// `perf/mts_perf.cpp` still reports it as `sim.heap_fallback`.
  std::uint64_t heap_fallback_closures = 0;
  /// Executed events attributed per subsystem (indexed by EventCategory);
  /// `perf/` reports them as its per-layer event counts.
  std::array<std::uint64_t, sim::kEventCategoryCount> events_by_category{};
  [[nodiscard]] std::uint64_t executed(sim::EventCategory c) const {
    return events_by_category[static_cast<std::size_t>(c)];
  }

  // --- scale (10k-node arena bookkeeping) ---------------------------------
  /// Mobility trajectory entries created / pruned across all nodes; the
  /// steady-state residency is `mobility_legs_generated -
  /// mobility_legs_pruned`, which the snapshot-hook trimming keeps flat.
  std::uint64_t mobility_legs_generated = 0;
  std::uint64_t mobility_legs_pruned = 0;
  /// Largest per-node trajectory history ever held (high-water mark).
  std::uint64_t mobility_peak_live_legs = 0;
  /// NeighborIndex refreshes, and how many of them grew a buffer (the
  /// CSR arrays are reused, so this settles after warm-up).
  std::uint64_t neighbor_rebuilds = 0;
  std::uint64_t neighbor_rebuild_allocs = 0;
};

/// Builds the scenario, runs it to `sim_time`, and reports the metrics.
/// `trace` (optional) receives every packet-level event — used by the
/// trace_explorer example and tests.
RunMetrics run_scenario(const ScenarioConfig& cfg,
                        net::TraceHub* trace = nullptr);

}  // namespace mts::harness
