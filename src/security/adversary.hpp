#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "mobility/trajectory.hpp"
#include "net/packet.hpp"
#include "phy/frame.hpp"
#include "security/context.hpp"
#include "security/segment_pool.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/time.hpp"

namespace mts::phy {
class Channel;
}

namespace mts::security {

/// The adversary families the scenario space sweeps (extensions of the
/// paper's single passive eavesdropper of §IV-B).
///
/// Passive families (pure observers — enabling one changes nothing at
/// packet level):
///  - kColluding: a coalition of insider nodes pooling every TCP data
///    segment any member overhears — the natural attack on multipath
///    splitting (one eavesdropper sees one path; a coalition stitches
///    the stream back together).
///  - kMobile: external sniffers with their own trajectories (random
///    waypoint over the arena), decoupled from the node population.
///  - kTrafficAnalysis: a coalition that never decodes payloads — it
///    profiles per-node transmit/receive *volume* from frame metadata
///    (transmitter, MAC addressee, frame bytes) and infers the flow
///    endpoints from the volume skew.  Probes whether MTS's relay
///    spreading hides *who* talks to whom, not just *what* they say.
///
/// Active families (perturb routing and traffic by design; each draws
/// from its own RNG substream and schedules its own event slots, so
/// passive families above stay perturbation-free):
///  - kBlackhole: insider nodes that participate in route discovery
///    like honest nodes but silently absorb the data packets they are
///    asked to forward (AODVSEC's threat model, arXiv:1208.1959).
///  - kWormhole: two colluding endpoints joined by an out-of-band
///    zero-delay tunnel.  Everything one end overhears (or transmits)
///    is replayed verbatim at the other end, so route discoveries cross
///    the arena in one phantom hop and routes collapse onto the
///    shortcut — where the endpoints capture the data stream and
///    selectively drop it.
///  - kGrayhole: the blackhole's stealthy cousin — probabilistic
///    (`drop_prob`) and time-windowed (`active_window`/`active_period`)
///    absorption designed to sit under a delivery-rate detector's
///    threshold.
///  - kRreqFlood: insider DoS — forged route discoveries for rotating
///    victims injected through the member's own MAC at `flood_rate`
///    per second, amplified network-wide by honest rebroadcasting.
enum class AdversaryKind : std::uint8_t {
  kNone = 0,
  kColluding,
  kMobile,
  kBlackhole,
  kWormhole,
  kGrayhole,
  kTrafficAnalysis,
  kRreqFlood,
};

const char* adversary_kind_name(AdversaryKind k);

/// Scenario-level adversary description.  Lives in `ScenarioConfig`;
/// campaigns sweep vectors of these alongside protocol x speed.
struct AdversarySpec {
  AdversaryKind kind = AdversaryKind::kNone;
  /// Coalition size (kColluding/kBlackhole: insider count; kMobile:
  /// sniffer count).
  std::uint32_t count = 1;
  /// Eavesdropping radius in metres; 0 = use the scenario radio range.
  double sniff_range = 0.0;
  /// kMobile trajectory parameters (random waypoint over the arena).
  double min_speed = 0.1;
  double max_speed = 10.0;
  sim::Time pause = sim::Time::sec(1);
  /// Explicit insider node ids (insider kinds).  Empty = drawn uniformly
  /// from the intermediate nodes via `resolve_members` (kWormhole:
  /// exactly two via `resolve_wormhole_pair`).
  std::vector<net::NodeId> members;

  // --- active-attack knobs ---------------------------------------------
  /// kGrayhole: per-eligible-packet absorption probability.
  /// kWormhole: probability a TCP data segment crossing the tunnel is
  /// dropped instead of replayed (selective dropping on the shortcut).
  double drop_prob = 0.5;
  /// kGrayhole duty cycle: absorb only while (now mod active_period) <
  /// active_window.  Either zero = always active.
  sim::Time active_window = sim::Time::zero();
  sim::Time active_period = sim::Time::zero();
  /// kRreqFlood: forged route discoveries per second, per member.  Must
  /// be finite and > 0, with 1 / rate between 1 ns and `Time::max()`.
  double flood_rate = 10.0;
  /// kRreqFlood: time of the first forged discovery.
  sim::Time flood_start = sim::Time::sec(1);

  [[nodiscard]] bool enabled() const { return kind != AdversaryKind::kNone; }
};

/// Deterministic insider selection: shuffles the candidate pool once
/// (excluding flow endpoints) and takes the first `count`.  The prefix
/// property matters: for a fixed seed, a size-k coalition is a subset of
/// the size-(k+1) coalition, which makes interception monotone in
/// coalition size by construction — the property the sweep figures rely
/// on and the unit tests pin.
std::vector<net::NodeId> resolve_members(
    const AdversarySpec& spec, std::uint32_t node_count,
    const std::unordered_set<net::NodeId>& excluded, sim::Rng rng);

/// Deterministic wormhole endpoint selection.  Explicit members (exactly
/// two, distinct) pass through; otherwise the first shuffled candidate
/// anchors the tunnel and the candidate farthest from it at t=0 becomes
/// the far end — the placement constraint that makes the tunnel an
/// actual shortcut (adjacent endpoints would tunnel nothing the radio
/// does not already deliver).  For a fixed seed the pair is a pure
/// function of (node_count, excluded, positions).
std::array<net::NodeId, 2> resolve_wormhole_pair(
    const AdversarySpec& spec, std::uint32_t node_count,
    const std::unordered_set<net::NodeId>& excluded, sim::Rng rng,
    const std::function<mobility::Vec2(net::NodeId, sim::Time)>& position_of);

/// One transmission as seen by the channel at radiation time.
struct Transmission {
  net::NodeId sender = net::kNoNode;
  mobility::Vec2 sender_pos;
  sim::Time airtime;
  sim::Time now;
};

/// Context the adversary needs for one scenario.  The shared plumbing
/// (radio range, position oracle, scheduler, RNG, secrecy plane) lives in
/// `SecurityContext`; only the adversary-specific hooks are declared here.
struct AdversaryContext : SecurityContext {
  std::uint32_t node_count = 0;
  mobility::Field field;
  /// Flow endpoints — never conscripted as insiders (they would trivially
  /// see their own traffic).
  std::unordered_set<net::NodeId> excluded;

  // --- active-family hooks (null for passive-only scenarios) -----------
  /// The medium's injection entry (wormhole far-end replay).
  phy::Channel* channel = nullptr;
  /// The scenario protocol's route-discovery kind (kRreqFlood forging).
  net::PacketKind rreq_kind = net::PacketKind::kAodvRreq;
  /// Injects a forged control packet through `member`'s own MAC.
  std::function<void(net::NodeId member, net::Packet&&)> inject_control;
};

/// What an adversary did over a run; the harness reads it into
/// `RunMetrics`.  Captured segments live in the `SegmentPool`.
struct AdversaryCounters {
  /// Transit data absorbed by blackhole/grayhole members, or TCP data
  /// the wormhole dropped instead of replaying (selective drops).
  std::uint64_t absorbed = 0;
  /// Frames replayed through the wormhole tunnel.
  std::uint64_t tunneled = 0;
  /// Forged route discoveries injected by the RREQ flood.
  std::uint64_t injected = 0;
  /// Frames whose metadata the traffic-analysis coalition profiled.
  std::uint64_t profiled = 0;
};

/// The scenario's adversary: one instance, one family picked by
/// `spec.kind`, wired by the harness at three points:
///
///  * `on_transmission` — the channel tap, called for every frame
///    radiated anywhere.  Colluding and mobile coalitions pool the TCP
///    data segments radiated within `sniff_range` of a member; the
///    wormhole replays what its endpoints hear at the far end through
///    `Channel::inject`; traffic analysis profiles frame metadata.
///  * `absorbs` / `on_absorb` — the insider forwarding veto between a
///    member's MAC and its routing layer (blackhole, grayhole).
///  * `on_start` — arms the RREQ flood's self-scheduled injections.
///
/// Passive families are observers: they never perturb the simulation's
/// RNG streams or event order, so runs with and without one are
/// identical packet-for-packet (paired comparisons stay paired).  Active
/// families keep that property *for the rest of the stack* by drawing
/// only from their own RNG substream and scheduling only their own
/// pooled event slots.
class Adversary {
 public:
  /// Resolves the members (RNG substream "members"; the mobile family
  /// builds its sniffers from "mobile" instead) and validates the spec
  /// fields the kind reads.  Payload-reading families (all but traffic
  /// analysis and the RREQ flood) play the secrecy game when `ctx`
  /// carries a plane.  kNone builds an inert adversary.
  Adversary(const AdversarySpec& spec, const AdversaryContext& ctx);
  /// Scheduled replays and flood ticks capture `this`.
  Adversary(const Adversary&) = delete;
  Adversary& operator=(const Adversary&) = delete;

  [[nodiscard]] AdversaryKind kind() const { return kind_; }
  /// Insider node ids in resolved order (kWormhole: anchor, far end);
  /// empty for the external mobile sniffers.
  [[nodiscard]] const std::vector<net::NodeId>& members() const {
    return members_;
  }
  /// Insiders, or mobile sniffers.
  [[nodiscard]] std::size_t member_count() const {
    return kind_ == AdversaryKind::kMobile ? sniffers_.size()
                                           : members_.size();
  }
  [[nodiscard]] bool is_member(net::NodeId n) const {
    return std::find(members_.begin(), members_.end(), n) != members_.end();
  }
  [[nodiscard]] const AdversaryCounters& counters() const { return counters_; }
  /// Distinct TCP data segments the coalition read.
  [[nodiscard]] const SegmentPool& pool() const { return pool_; }
  /// The coalition's key-recovery pool; nullptr when the secrecy game is
  /// off or the family never reads payloads.
  [[nodiscard]] const KeyRecoveryPool* key_recovery() const {
    return pool_.recovery();
  }

  /// Called once when the simulation starts; the RREQ flood arms its
  /// injection timer here.  `sim_end` bounds self-rescheduling.
  void on_start(sim::Time sim_end);
  /// The channel tap: called for every frame the channel radiates.
  void on_transmission(const Transmission& tx, const phy::Frame& f);
  /// Insider veto: should member `node` silently absorb `p` instead of
  /// forwarding it?  Only transit TCP data dies — control keeps the
  /// attacker attractive to route discovery.  The grayhole draws one
  /// Bernoulli per eligible packet while its duty cycle is on.
  [[nodiscard]] bool absorbs(net::NodeId node, const net::Packet& p,
                             sim::Time now);
  /// The harness honoured an `absorbs` verdict: count it, and read what
  /// was eaten.
  void on_absorb(const net::Packet& p);

  // --- per-family introspection (tests, metrics) ------------------------
  /// kGrayhole: true while the duty cycle has the attacker dropping.
  [[nodiscard]] bool active_at(sim::Time now) const;
  /// kMobile: sniffer `i`'s position (the sniffer never leaves the arena).
  [[nodiscard]] mobility::Vec2 sniffer_position(std::size_t i,
                                                sim::Time t) const;
  /// kTrafficAnalysis: a node's observed sent-minus-received bytes.
  [[nodiscard]] std::int64_t volume_skew(net::NodeId n) const;
  /// kTrafficAnalysis: top-k guessed (src, dst) flow endpoint pairs from
  /// the volume skew; empty for every other family.
  [[nodiscard]] std::vector<std::pair<net::NodeId, net::NodeId>>
  inferred_endpoints(std::size_t k) const;
  /// kWormhole: live entries in the per-uid dedup window.
  [[nodiscard]] std::size_t dedup_entries() const {
    return tunneled_uids_.size();
  }

  /// kWormhole: how long a tunneled uid is remembered.  Sized to outlive
  /// every legitimate same-uid reappearance: MAC retries and far-end
  /// rebroadcasts are milliseconds, and a packet parked in a routing
  /// send buffer keeps its uid for up to the buffer's 30 s age limit
  /// (`routing::SendBuffer`) before re-entering the air.  Thirty seconds
  /// covers all of those while keeping the dedup state bounded by recent
  /// tunnel throughput on long runs.
  static constexpr sim::Time kUidFreshness = sim::Time::sec(30);
  /// kRreqFlood: forged ids start here so they never collide with a
  /// member's genuine discovery ids in the network-wide flood dedup
  /// caches.
  static constexpr std::uint32_t kForgedIdBase = 0x40000000u;

 private:
  void wormhole_tap(const Transmission& tx, const phy::Frame& f);
  void tunnel_to(std::size_t far_end, const Transmission& tx,
                 const phy::Frame& f);
  void fire(std::uint32_t slot);
  /// True if `uid` was not seen within the freshness window — and
  /// records it.  Ages expired entries out as a side effect.
  bool remember_uid(std::uint64_t uid, sim::Time now);
  void profile(const Transmission& tx, const phy::Frame& f);
  void flood_tick();
  void inject_one(net::NodeId member);

  /// A wormhole replay parked until its zero-delay event fires; pooled so
  /// the closure stays {this, slot} (the frame's payload handle is a
  /// refcount bump, and recycled slots drop it on fire).
  struct PendingReplay {
    phy::Frame frame;
    net::NodeId spoof = net::kNoNode;
    std::size_t far_end = 0;
    sim::Time airtime;
    std::uint32_t next_free = 0;
  };
  struct Profile {
    std::uint64_t sent_bytes = 0;
    std::uint64_t recv_bytes = 0;
  };
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  AdversaryKind kind_;
  std::vector<net::NodeId> members_;
  SegmentPool pool_;
  AdversaryCounters counters_;

  // --- plumbing ---------------------------------------------------------
  double sniff_r2_;
  std::function<mobility::Vec2(net::NodeId, sim::Time)> position_of_;
  sim::Scheduler* sched_;
  phy::Channel* channel_;
  std::function<void(net::NodeId, net::Packet&&)> inject_;
  /// The family's own substream ("wormhole", "grayhole" or "flood").
  sim::Rng rng_{0};
  std::uint32_t node_count_;

  // --- kMobile ----------------------------------------------------------
  std::vector<mobility::Trajectory> sniffers_;

  // --- kWormhole / kGrayhole --------------------------------------------
  double drop_prob_;
  sim::Time active_window_;
  sim::Time active_period_;
  /// uid -> first-seen time, aged out after kUidFreshness via the
  /// insertion-ordered queue.  Unlike routing::FloodCache's FIFO ring
  /// this ages by time, not by count: uids are not monotone, so a pure
  /// FIFO cap could evict a uid whose retries are still in flight.
  std::unordered_map<std::uint64_t, sim::Time> tunneled_uids_;
  std::deque<std::pair<std::uint64_t, sim::Time>> tunneled_order_;
  std::vector<PendingReplay> replay_pool_;
  std::uint32_t replay_free_ = kNoSlot;

  // --- kTrafficAnalysis -------------------------------------------------
  std::vector<Profile> profiles_;

  // --- kRreqFlood -------------------------------------------------------
  net::PacketKind rreq_kind_;
  sim::Time interval_;
  sim::Time flood_start_;
  sim::Time sim_end_;
  std::uint32_t next_id_ = kForgedIdBase;
};

}  // namespace mts::security
