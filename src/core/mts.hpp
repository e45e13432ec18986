#pragma once

#include <cstdint>
#include <map>
#include <unordered_map>
#include <vector>

#include "core/disjoint.hpp"
#include "routing/flood_cache.hpp"
#include "routing/protocol.hpp"
#include "sim/timer.hpp"

namespace mts::core {

/// MTS tunables.  Defaults follow the paper: at most five disjoint
/// paths (§III-B), checking every "two to four seconds" (§III-D).
struct MtsConfig {
  std::size_t max_paths = 5;
  sim::Time check_period = sim::Time::sec(3);
  /// Per-round jitter so the five checks of a round do not collide on
  /// air (they are sent "concurrently" per the paper — back-to-back
  /// queueing achieves that without synchronized collisions).
  sim::Time check_jitter = sim::Time::ms(20);
  /// A path (or per-hop forwarding entry) is fresh while its last
  /// confirmation is younger than this many check periods.
  double freshness_periods = 2.5;
  std::uint8_t net_diameter_ttl = 32;
};

/// Multipath TCP Security (the paper's contribution).
///
/// Mechanism summary (paper §III):
///  * On-demand RREQ flood; intermediate nodes forward only the first
///    copy and append themselves to the carried node list, so the paths
///    reaching the destination differ before the destination (§III-B).
///  * The destination replies *immediately* to the first RREQ (no
///    disjoint-computation delay) and silently accumulates up to
///    `max_paths` disjoint alternatives using the next-hop/last-hop rule
///    (§III-B, §III-C).
///  * The destination periodically unicasts checking packets along every
///    stored path; each hop they traverse refreshes per-(dst, path)
///    forwarding state ("construction of forward path", Fig. 4).
///  * The source switches its active path to the one whose check packet
///    arrives *first* in each round — the freshest route wins (§III-E).
///  * Check forwarding failures produce checking-error packets back to
///    the destination, which deletes the failed path (§III-D); data
///    forwarding failures produce RERRs back to the source, which
///    triggers a new discovery (§III-E).
///  * A new RREQ (higher broadcast id) reaching the destination flushes
///    every stored path (§III-D).
class Mts final : public routing::RoutingProtocol {
 public:
  /// `cfg` is shared, not copied: one config serves every node of a run
  /// and must outlive the protocol.
  Mts(routing::RoutingContext ctx, const MtsConfig& cfg, sim::Rng rng);
  Mts(routing::RoutingContext, const MtsConfig&&, sim::Rng) = delete;

  void start() override;
  void send_from_transport(net::Packet packet) override;
  void receive_from_mac(net::Packet packet, net::NodeId from) override;
  void on_link_failure(const net::Packet& packet,
                       net::NodeId next_hop) override;
  [[nodiscard]] const char* name() const override { return "MTS"; }

  // --- introspection for tests / examples ------------------------------
  /// Paths currently stored at this node acting as a *destination* for
  /// traffic from `src`.
  [[nodiscard]] std::vector<PathNodes> stored_paths_for(net::NodeId src) const;
  /// The path id this node (as a *source*) currently uses toward `dst`,
  /// or -1 when none.
  [[nodiscard]] int current_path_id(net::NodeId dst) const;
  /// Number of route switches this source has performed.
  [[nodiscard]] std::uint64_t route_switches() const { return switches_; }
  [[nodiscard]] std::uint64_t checks_sent() const { return checks_sent_; }
  [[nodiscard]] std::uint64_t checks_received() const { return checks_recv_; }
  // Acked-checking countermeasure introspection (defense wired via
  // `RoutingContext::defense`; zero everywhere when no defense is set).
  [[nodiscard]] std::uint64_t probes_sent() const { return probes_sent_; }
  [[nodiscard]] std::uint64_t probe_echoes() const { return probe_echoes_; }
  [[nodiscard]] std::uint64_t paths_quarantined() const {
    return paths_quarantined_;
  }

 private:
  // -- source-side state ------------------------------------------------
  struct SourcePath {
    PathNodes nodes;          ///< intermediate nodes, source-side first
    sim::Time last_confirmed; ///< RREP or check arrival
    bool alive = true;
    /// Demoted by the acked-checking estimator or the leash: stays down
    /// — a check arrival must not resurrect it — until the next
    /// discovery generation replaces the path set.
    bool quarantined = false;
  };
  struct SourceState {
    std::map<std::uint16_t, SourcePath> paths;  ///< by path id
    int current = -1;                           ///< active path id
    std::uint32_t last_switch_round = 0;        ///< check round already honoured
  };

  // -- destination-side state --------------------------------------------
  struct DestState {
    std::vector<PathNodes> paths;   ///< stored disjoint paths (id = index)
    std::vector<bool> alive;
    std::uint32_t bcast_id = 0;     ///< flood generation the paths belong to
    std::uint32_t check_round = 0;
    sim::Time last_activity;        ///< last data from this source
  };

  // -- per-hop forwarding state (installed by RREP/check/data packets) --
  struct HopEntry {
    net::NodeId next_hop = net::kNoNode;
    sim::Time refreshed;
  };
  /// Key: (final packet destination, path id).
  using HopKey = std::uint64_t;
  static HopKey hop_key(net::NodeId dst, std::uint16_t path_id) {
    return (static_cast<std::uint64_t>(dst) << 16) | path_id;
  }

  void handle_rreq(net::Packet&& p, net::NodeId from);
  void handle_rrep(net::Packet&& p, net::NodeId from);
  void handle_check(net::Packet&& p, net::NodeId from);
  void handle_check_error(net::Packet&& p, net::NodeId from);
  void handle_rerr(net::Packet&& p, net::NodeId from);
  void handle_data(net::Packet&& p, net::NodeId from);

  void send_rreq(net::NodeId dst, bool first) override;
  void accept_path_at_destination(net::NodeId src, PathNodes nodes,
                                  std::uint32_t bcast_id);
  void send_rrep(net::NodeId src, const PathNodes& nodes);
  void check_tick();
  void probe_tick();
  void send_probe(net::NodeId dst, std::uint16_t path_id,
                  const SourcePath& sp);
  void handle_probe(const net::MtsProbeHeader& h, net::NodeId peer);
  void quarantine_path(net::NodeId dst, std::uint16_t path_id);
  void send_check(net::NodeId src, DestState& ds, std::uint16_t path_id);
  void send_check_error(const net::MtsCheckHeader& failed_check,
                        std::uint16_t hops_done, net::NodeId broken_to);
  void send_rerr_to_source(net::NodeId src, net::NodeId dst,
                           std::uint16_t path_id, net::NodeId broken_from,
                           net::NodeId broken_to);
  void source_path_confirmed(net::NodeId dst, std::uint16_t path_id,
                             const PathNodes& nodes, std::uint32_t round,
                             bool switch_allowed);
  void mark_source_path_dead(net::NodeId dst, std::uint16_t path_id);

  void install_hop(net::NodeId final_dst, std::uint16_t path_id,
                   net::NodeId next_hop);
  [[nodiscard]] const HopEntry* fresh_hop(net::NodeId final_dst,
                                          std::uint16_t path_id) const;
  [[nodiscard]] const HopEntry* any_hop(net::NodeId final_dst,
                                        std::uint16_t path_id) const;
  [[nodiscard]] sim::Time freshness_limit() const {
    return cfg_->check_period * cfg_->freshness_periods;
  }
  [[nodiscard]] SourcePath* fresh_source_path(net::NodeId dst);
  /// Purge tick: ages out silent sources and long-stale hop entries.
  void purge() override;

  const MtsConfig* cfg_;
  std::uint32_t bcast_id_ = 0;   ///< our RREQ generation counter
  std::uint32_t rrep_id_ = 0;

  std::unordered_map<net::NodeId, SourceState> as_source_;
  std::unordered_map<net::NodeId, DestState> as_dest_;
  std::unordered_map<HopKey, HopEntry> hops_;
  /// Sink side: path id of the most recent data per peer (ACK routing).
  std::unordered_map<net::NodeId, std::uint16_t> last_rx_path_;
  routing::FloodCache rreq_seen_;
  /// Destination-side flood generations the rate limiter refused: later
  /// copies of a suppressed generation must not re-drain the bucket.
  routing::FloodCache suppressed_gens_;
  sim::PeriodicTimer check_timer_;
  /// Acked-checking data-plane probes (armed only when the defense asks).
  sim::PeriodicTimer probe_timer_;

  std::uint64_t switches_ = 0;
  std::uint64_t checks_sent_ = 0;
  std::uint64_t checks_recv_ = 0;
  std::uint32_t probe_seq_ = 0;
  std::uint64_t probes_sent_ = 0;
  std::uint64_t probe_echoes_ = 0;
  std::uint64_t paths_quarantined_ = 0;
};

static_assert(sizeof(Mts) <= 752,
              "core::Mts grew: one per node, so per-node state must stay "
              "small (share the config, bind timers to member functions)");

}  // namespace mts::core
