#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "net/counters.hpp"
#include "net/packet.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"
#include "sim/timer.hpp"
#include "stats/digest.hpp"
#include "tcp/flow_stats.hpp"
#include "tcp/tcp_config.hpp"
#include "tcp/transport_listener.hpp"

namespace mts::traffic {

/// The user-traffic plane: a session-level workload generator for the
/// "millions of users" scaling story.  Users do not get their own mesh
/// nodes — they aggregate onto a bounded pool of *attachment* nodes and
/// talk to designated *gateway* nodes (the internet-gateway mesh
/// architecture), so 100k+ sessions ride a 1k-node arena.  Sessions
/// arrive as a Poisson process thinned against a configurable diurnal
/// rate curve, belong to a user class (short messaging vs bulk
/// transfer), and spawn finite TCP transfers through the existing
/// `tcp_source`/`tcp_sink` plane with think times in between.
///
/// Determinism: every draw comes from the scenario master RNG's
/// dedicated `substream("traffic")`, and the plane only exists when
/// `TrafficSpec::enabled` — disabled runs construct nothing, draw
/// nothing, and replay every pre-existing fixed-seed fingerprint
/// bit-identical.

enum class UserClass : std::uint8_t { kMessaging = 0, kBulk = 1 };
inline constexpr std::size_t kUserClassCount = 2;

const char* user_class_name(UserClass c);

/// Per-class workload shape: how many TCP flows a session runs, how
/// large each transfer is (in segments), the think time between flows,
/// and the transfer direction (uplink = attachment node -> gateway).
struct ClassSpec {
  std::uint32_t min_flows = 1;
  std::uint32_t max_flows = 3;
  std::uint32_t min_segments = 1;
  std::uint32_t max_segments = 4;
  double think_min_s = 0.2;
  double think_max_s = 2.0;
  bool uplink = true;
};

/// Scenario-level description of the user plane; lives in
/// `ScenarioConfig::traffic` and sweeps as the campaign's traffic axis.
/// Disabled by default: no plane, no draws, fingerprints untouched.
struct TrafficSpec {
  TrafficSpec() {
    // Bulk transfers: one long downlink flow per session (gateway ->
    // attachment node), short think before departure.
    bulk.min_flows = 1;
    bulk.max_flows = 1;
    bulk.min_segments = 20;
    bulk.max_segments = 60;
    bulk.think_min_s = 0.5;
    bulk.think_max_s = 1.0;
    bulk.uplink = false;
  }

  bool enabled = false;
  /// Designated gateway nodes sessions arrive/depart on (drawn
  /// uniformly, distinct, from the traffic substream).
  std::uint32_t gateway_count = 4;
  /// Attachment-node pool users aggregate onto; 0 = every non-gateway
  /// node.  A bounded pool is what makes >=100k sessions tractable:
  /// route discoveries amortize over (pool x gateways) pairs instead of
  /// growing with the session count.
  std::uint32_t user_pool = 64;
  /// Mean session arrivals per second where the diurnal curve is 1.0.
  double session_rate = 20.0;
  /// Per-bucket rate multipliers, cycled over the (compressed) day;
  /// empty = flat `session_rate`.  Values >= 0, at least one > 0.
  std::vector<double> diurnal;
  /// Sim-time width of one diurnal bucket (one "hour" of the model day).
  sim::Time diurnal_bucket = sim::Time::sec(5);
  /// Fraction of sessions in the bulk-transfer class (rest: messaging).
  double bulk_fraction = 0.2;
  ClassSpec messaging;
  ClassSpec bulk;
  /// Cap on concurrently open TCP flows; arrivals beyond it are counted
  /// rejected instead of growing memory without bound.
  std::uint32_t max_concurrent_flows = 4096;
};

/// Nonhomogeneous Poisson arrival stream: exponential candidates at the
/// curve's peak rate, thinned (Lewis-Shedler) by the instantaneous
/// diurnal rate.  Separated from the plane so the arrival-rate property
/// test can exercise it without a full scenario.
class ArrivalProcess {
 public:
  ArrivalProcess(double base_rate, std::vector<double> curve,
                 sim::Time bucket, sim::Rng rng);

  /// Next arrival strictly after `t`.
  [[nodiscard]] sim::Time next_after(sim::Time t);
  /// Instantaneous rate (sessions/s) at `t`.
  [[nodiscard]] double rate_at(sim::Time t) const;
  [[nodiscard]] double peak_rate() const { return peak_; }

 private:
  double base_;
  std::vector<double> curve_;
  sim::Time bucket_;
  double peak_;
  sim::Rng rng_;
};

/// Everything the plane needs from the harness, kept behind callbacks
/// so `src/traffic` depends on tcp/net/sim only (no harness cycle).
struct TrafficContext {
  sim::Scheduler* sched = nullptr;
  net::UidSource* uids = nullptr;
  std::uint32_t node_count = 0;
  /// First flow id the plane may use (static scenario flows own
  /// 1..first_flow_id-1); lanes recycle FIFO above it.
  std::uint16_t first_flow_id = 1;
  tcp::TcpConfig tcp;  ///< shared by every session's agents
  /// Hands a transport packet to `node`'s routing layer.
  std::function<void(net::NodeId, net::Packet&&)> send;
  std::function<net::Counters*(net::NodeId)> counters_of;
  /// Invoked once per *fresh* flow-id lane (never for recycled ids);
  /// the harness registers the lane with the secrecy plane here.
  std::function<void(std::uint16_t)> on_new_lane;
};

struct ClassReport {
  std::uint64_t sessions = 0;
  std::uint64_t flows_completed = 0;
  std::uint64_t delay_samples = 0;
  double delay_p50_ms = 0.0;
  double delay_p95_ms = 0.0;
  double delay_p99_ms = 0.0;
  /// Median per-flow goodput over completed transfers (segments/s).
  double goodput_p50_seg_s = 0.0;
};

struct TrafficReport {
  std::uint64_t sessions_started = 0;
  std::uint64_t sessions_completed = 0;
  std::uint64_t sessions_rejected = 0;  ///< flow-id pool exhausted
  std::array<ClassReport, kUserClassCount> classes{};
  /// Arrivals per diurnal bucket (flat curve: one synthetic bucket
  /// stream at `diurnal_bucket` width) — diagnostics + property tests.
  std::vector<std::uint64_t> arrivals_per_bucket;
};

/// Also every session agent's transport listener: the up-calls name
/// the flow lane, and `by_flow_` finds the session that owns it now.
class TrafficPlane final : private tcp::TransportListener {
 public:
  TrafficPlane(const TrafficSpec& spec, TrafficContext ctx, sim::Rng rng);
  ~TrafficPlane();
  TrafficPlane(const TrafficPlane&) = delete;
  TrafficPlane& operator=(const TrafficPlane&) = delete;

  /// Schedules the first arrival; sessions stop arriving at `horizon`.
  void start(sim::Time horizon);

  /// Routes a TCP data/ack packet delivered at `node` to the session
  /// that owns its flow lane; false when no live lane matches (the
  /// packet belongs to the static flows, or to a torn-down session).
  bool deliver(net::NodeId node, const net::Packet& p);

  [[nodiscard]] TrafficReport report() const;
  [[nodiscard]] const std::vector<net::NodeId>& gateways() const {
    return gateways_;
  }
  [[nodiscard]] const std::vector<net::NodeId>& attachment_nodes() const {
    return users_;
  }
  /// Flow-id lanes the class has used, in first-use order — the secrecy
  /// exposure metric walks these against the adversary's recovery pool.
  [[nodiscard]] const std::vector<std::uint16_t>& lanes(UserClass c) const {
    return lanes_[static_cast<std::size_t>(c)];
  }

 private:
  struct Session;

  void send(net::NodeId from, net::Packet&& p) override;
  void transfer_done(std::uint16_t flow_id) override;
  void delivered(std::uint16_t flow_id, sim::Time delay) override;
  [[nodiscard]] Session& owner_of(std::uint16_t flow_id);

  void on_arrival();
  void schedule_next_arrival();
  void start_flow(std::size_t slot);
  void advance(std::size_t slot);
  void teardown_flow(Session& s);
  [[nodiscard]] std::uint16_t alloc_flow_id();
  [[nodiscard]] const ClassSpec& class_spec(UserClass c) const {
    return c == UserClass::kBulk ? spec_.bulk : spec_.messaging;
  }

  TrafficSpec spec_;
  TrafficContext ctx_;
  sim::Rng rng_;             ///< session draws (class, endpoints, sizes)
  ArrivalProcess arrivals_;  ///< its own substream: arrival times never
                             ///< shift when session internals change
  sim::Timer arrival_timer_;
  sim::Time horizon_ = sim::Time::zero();

  std::vector<net::NodeId> gateways_;
  std::vector<net::NodeId> users_;

  std::vector<std::unique_ptr<Session>> slots_;
  std::vector<std::size_t> free_slots_;
  std::deque<std::uint16_t> free_ids_;  ///< FIFO: maximize reuse distance
  std::uint32_t next_fresh_id_;
  std::uint32_t live_flows_ = 0;
  std::unordered_map<std::uint16_t, std::size_t> by_flow_;

  std::array<std::vector<std::uint16_t>, kUserClassCount> lanes_;
  std::array<std::unordered_set<std::uint16_t>, kUserClassCount> lane_seen_;

  std::uint64_t started_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t rejected_ = 0;
  std::vector<std::uint64_t> arrivals_per_bucket_;

  struct ClassAgg {
    std::uint64_t sessions = 0;
    std::uint64_t flows_completed = 0;
    /// One delay digest per gateway, merged at report time — the
    /// mergeable sketch is exercised on the production path, not just
    /// in its unit tests.
    std::vector<stats::PercentileDigest> delay_ms_by_gateway;
    stats::PercentileDigest goodput_seg_s;
  };
  std::array<ClassAgg, kUserClassCount> agg_;
};

}  // namespace mts::traffic
