#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <tuple>
#include <utility>

#include "mobility/vec2.hpp"
#include "net/headers.hpp"
#include "net/node_id.hpp"
#include "security/context.hpp"
#include "sim/time.hpp"

namespace mts::security {

/// The countermeasure families — the defense side of the adversary
/// taxonomy's ledger, one per open attack the fingerprints pinned:
///
///  - kAckedChecking: end-to-end acked checking for MTS.  Stock MTS
///    checking is control traffic, which a blackhole forwards faithfully
///    — the mechanism provably cannot see the attack.  Here the *source*
///    probes every stored path on the data plane (probes travel as
///    kTcpData, so the insider veto eats them exactly like the stream it
///    is hiding in) and the destination echoes each probe back; a
///    per-path delivery EWMA over duty-cycle-sized windows demotes paths
///    whose probes stop coming back.  Detects the insider blackhole and
///    the duty-cycled grayhole that sits under a long-run delivery-rate
///    detector.
///  - kWormholeLeash: packet-leash path admission (Hu/Perrig/Johnson).
///    A node about to store or use an advertised path checks that every
///    consecutive hop is geometrically feasible: no single hop may span
///    more than `leash_slack` x radio range.  The wormhole's phantom
///    shortcut names two "adjacent" nodes an arena apart, so tunnelled
///    paths are quarantined at admission.  (A *temporal* leash — RTT
///    versus advertised hop count — is blind to this simulator's
///    zero-delay tunnel by construction: the tunnel removes on-air hops
///    and their latency together, so RTT stays consistent with the
///    shortened hop count.  docs/threat-model.md records that finding.)
///  - kFloodRateLimit: per-origin token-bucket admission for route
///    discoveries, consulted by every protocol after its own duplicate
///    suppression.  Caps the RREQ-flood DoS amplification (and MTS's
///    check spin-up) at `rreq_rate` genuine-looking discoveries per
///    origin per second with burst `rreq_burst`.
///  - kSuite: all three at once — the "defenses on" configuration the
///    false-positive runs pin.
enum class DefenseKind : std::uint8_t {
  kNone = 0,
  kAckedChecking,
  kWormholeLeash,
  kFloodRateLimit,
  kSuite,
};

const char* defense_kind_name(DefenseKind k);

/// Scenario-level defense description.  Lives in `ScenarioConfig`;
/// campaigns sweep vectors of these alongside the adversary axis.
struct DefenseSpec {
  DefenseKind kind = DefenseKind::kNone;

  // --- acked checking ---------------------------------------------------
  /// Data-plane probe cadence per stored path.  Sized to the duty cycles
  /// worth detecting: a window of W seconds sees ~W/probe_period probes.
  sim::Time probe_period = sim::Time::ms(400);
  /// EWMA step per probe outcome (1 = echoed, 0 = lost).
  double ewma_alpha = 0.5;
  /// Demote a path when its EWMA falls below this.
  double demote_threshold = 0.35;
  /// Never demote on fewer than this many probes (cold-start guard).
  std::uint32_t min_probes = 3;

  // --- wormhole leash ---------------------------------------------------
  /// Per-hop feasibility budget as a multiple of the radio range; slack
  /// covers node drift between discovery and validation.
  double leash_slack = 1.3;

  // --- flood rate limiting ---------------------------------------------
  /// Sustained route discoveries admitted per origin per second.
  double rreq_rate = 1.0;
  /// Token-bucket depth (genuine retry bursts fit under it).
  double rreq_burst = 3.0;

  [[nodiscard]] bool enabled() const { return kind != DefenseKind::kNone; }
};

/// What a defense did over a run; the harness reads it into
/// `RunMetrics`.  Each part counts only its own events.
struct DefenseCounters {
  /// Time of the first quarantine/suppression; zero = never fired.
  sim::Time first_detection;
  /// Paths demoted by the estimator or rejected by the leash.
  std::uint64_t quarantined = 0;
  /// Path admissions evaluated by the leash.
  std::uint64_t validated = 0;
  /// Route discoveries suppressed / evaluated by the rate limiter.
  std::uint64_t suppressed = 0;
  std::uint64_t rreqs_seen = 0;
  /// Data-plane probes sent / echoes received end-to-end.
  std::uint64_t probes_sent = 0;
  std::uint64_t echoes = 0;
};

/// The scenario's countermeasure: one shared instance, consulted by
/// every node through `RoutingContext::defense` at three points:
///
///  * `admit_rreq` — per-origin route-discovery rate limiting.  Called
///    once per *novel* (origin, id) flood a node processes — after the
///    protocol's own duplicate suppression, so copies of one genuine
///    discovery never drain the origin's token budget.
///  * `admit_path` — path admission (wormhole leash).  Called when a
///    node is about to store or start using an advertised node list;
///    false quarantines the path.
///  * the probe family — MTS's end-to-end acked checking.  The source
///    probes each stored path on the data plane (`probe_period`),
///    reports sends and echoes, and asks `path_suspect` whether the
///    per-path delivery estimator has demoted the path.
///
/// The spec's kind switches on up to three parts: the probe estimator
/// (kAckedChecking), the leash (kWormholeLeash) and the token buckets
/// (kFloodRateLimit); kSuite switches on all three.  A hook whose part
/// is off answers as if no defense were present: admit, probe period
/// zero, never suspect, no-op.
class Defense {
 public:
  /// Validates the spec fields of the parts `spec.kind` switches on.
  /// The leash takes the radio range and position oracle from `ctx`
  /// (the harness binds node mobility, as it does for the adversary
  /// context) — nodes knowing their own loosely synchronized positions
  /// is the assumption geographical packet leashes make.
  Defense(const DefenseSpec& spec, const SecurityContext& ctx);

  [[nodiscard]] DefenseKind kind() const { return kind_; }
  [[nodiscard]] const DefenseCounters& counters() const { return counters_; }

  // --- flood rate limiting ---------------------------------------------
  /// Should `self` process a route discovery originated by `origin`?
  /// False = suppress (drop as kRateLimited, do not rebroadcast/reply).
  [[nodiscard]] bool admit_rreq(net::NodeId self, net::NodeId origin,
                                sim::Time now);

  // --- path admission (wormhole leash) ----------------------------------
  /// Is the advertised path src -> intermediates -> dst physically
  /// plausible?  False = quarantine (do not store / do not use).
  [[nodiscard]] bool admit_path(net::NodeId src, net::NodeId dst,
                                const net::RouteVec& intermediates,
                                sim::Time now);

  // --- end-to-end acked checking (MTS data-plane probes) ---------------
  /// Probe cadence; zero disables probing entirely.
  [[nodiscard]] sim::Time probe_period() const { return period_; }
  /// A fresh path entry was (re)established at `self`; any estimator
  /// state left over from a previous discovery generation is stale.
  void on_path_established(net::NodeId self, net::NodeId dst,
                           std::uint16_t path_id);
  /// `self` put a probe toward `dst` on path `path_id` on the wire.
  void on_probe_sent(net::NodeId self, net::NodeId dst,
                     std::uint16_t path_id);
  /// The destination's echo for a probe came back end-to-end.
  void on_probe_echo(net::NodeId self, net::NodeId dst,
                     std::uint16_t path_id);
  /// Has the per-path delivery estimator demoted this path?
  [[nodiscard]] bool path_suspect(net::NodeId self, net::NodeId dst,
                                  std::uint16_t path_id) const;
  /// The protocol honoured a `path_suspect` verdict and quarantined.
  void on_path_quarantined(net::NodeId self, net::NodeId dst,
                           std::uint16_t path_id, sim::Time now);

  /// Current EWMA for one path (introspection / tests); 1.0 if unseen.
  [[nodiscard]] double ewma(net::NodeId self, net::NodeId dst,
                            std::uint16_t path_id) const;

 private:
  void detected(sim::Time now);

  struct Estimator {
    double ewma = 1.0;
    std::uint32_t probes = 0;
    bool outstanding = false;  ///< last probe not yet echoed
  };
  using PathKey = std::tuple<net::NodeId, net::NodeId, std::uint16_t>;
  struct Bucket {
    double tokens;
    sim::Time last;
  };

  DefenseKind kind_;
  bool leashed_;
  bool limiting_;

  // --- acked checking (on iff period_ > 0) --------------------------------
  sim::Time period_;
  double alpha_;
  double threshold_;
  std::uint32_t min_probes_;
  /// Ordered map: consulted once per probe tick per path, never on the
  /// per-packet path — no hashing needed.
  std::map<PathKey, Estimator> estimators_;

  // --- wormhole leash ---------------------------------------------------
  double limit_sq_;
  std::function<mobility::Vec2(net::NodeId, sim::Time)> position_of_;

  // --- flood rate limiting: one bucket per (node, origin) pair ----------
  double rate_;
  double burst_;
  std::map<std::pair<net::NodeId, net::NodeId>, Bucket> buckets_;

  DefenseCounters counters_;
};

}  // namespace mts::security
