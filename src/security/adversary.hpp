#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
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
  /// kRreqFlood: forged route discoveries per second, per member.
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

/// Pluggable adversary.  Passive hooks: a channel tap (every frame
/// radiated anywhere, evaluated against each member's position).
/// Active hooks: an insider forwarding veto (blackhole/grayhole
/// absorption), a start hook for self-scheduled activity (RREQ
/// flooding), and — via the context — the channel's `inject` entry for
/// out-of-band replays (wormhole).  Passive models are observers: they
/// never perturb the simulation's RNG streams or event order, so runs
/// with and without one are identical packet-for-packet (paired
/// comparisons stay paired).  Active models keep that property *for the
/// rest of the stack* by drawing only from their own RNG substream and
/// scheduling only their own pooled event slots.
class AdversaryModel {
 public:
  virtual ~AdversaryModel() = default;

  [[nodiscard]] virtual AdversaryKind kind() const = 0;
  [[nodiscard]] virtual const char* name() const = 0;
  [[nodiscard]] virtual std::size_t member_count() const = 0;

  /// Called once when the simulation starts; active models arm their
  /// injection timers here.  `sim_end` bounds self-rescheduling.
  virtual void on_start(sim::Time /*sim_end*/) {}

  /// Passive tap: called for every frame the channel radiates.
  virtual void on_transmission(const Transmission&, const phy::Frame&) {}

  /// Insider veto: should `node` silently absorb `p` instead of
  /// forwarding it?  Only consulted for coalition members.  `now` lets
  /// time-windowed attackers (grayhole) gate their activity.
  [[nodiscard]] virtual bool absorbs(net::NodeId /*node*/,
                                     const net::Packet& /*p*/,
                                     sim::Time /*now*/) const {
    return false;
  }
  /// Notification that the harness honoured an `absorbs` verdict.
  virtual void on_absorb(net::NodeId /*node*/, const net::Packet& /*p*/) {}

  /// True if this node is part of the coalition (insider models).
  [[nodiscard]] virtual bool is_member(net::NodeId) const { return false; }

  // --- metrics --------------------------------------------------------
  [[nodiscard]] virtual std::uint64_t captured_segments() const { return 0; }
  [[nodiscard]] virtual double interception_ratio(std::uint64_t /*pr*/) const {
    return 0.0;
  }
  [[nodiscard]] virtual std::uint64_t fragments_missing(std::uint64_t pr) const {
    return pr;
  }
  [[nodiscard]] virtual std::uint64_t absorbed_packets() const { return 0; }
  /// Frames replayed through an out-of-band tunnel (kWormhole).
  [[nodiscard]] virtual std::uint64_t tunneled_frames() const { return 0; }
  /// Forged control packets injected (kRreqFlood).
  [[nodiscard]] virtual std::uint64_t injected_packets() const { return 0; }
  /// Top-k guessed (src, dst) flow endpoint pairs (kTrafficAnalysis);
  /// empty for models that do not infer endpoints.
  [[nodiscard]] virtual std::vector<std::pair<net::NodeId, net::NodeId>>
  inferred_endpoints(std::size_t /*k*/) const {
    return {};
  }
  /// Insider node ids (empty for external adversaries).
  [[nodiscard]] virtual std::vector<net::NodeId> members() const { return {}; }
  /// The coalition's key-recovery pool (secrecy game); nullptr for
  /// models that do not capture payload bytes, or when the game is off.
  [[nodiscard]] virtual const KeyRecoveryPool* key_recovery() const {
    return nullptr;
  }
};

/// Shared base for models whose metrics come from a capture pool — all
/// three concrete families; they differ only in *how* segments land in
/// the pool.
class PooledAdversary : public AdversaryModel {
 public:
  [[nodiscard]] std::uint64_t captured_segments() const override {
    return pool_.captured_segments();
  }
  [[nodiscard]] double interception_ratio(std::uint64_t pr) const override {
    return pool_.interception_ratio(pr);
  }
  [[nodiscard]] std::uint64_t fragments_missing(std::uint64_t pr) const override {
    return pool_.fragments_missing(pr);
  }
  [[nodiscard]] const KeyRecoveryPool* key_recovery() const override {
    return pool_.recovery();
  }

  /// Arms the secrecy game on the shared pool (called by the factory
  /// when the scenario has a plane).
  void attach_secrecy(const SecrecyPlane* plane) {
    pool_.attach_secrecy(plane);
  }

 protected:
  SegmentPool pool_;
};

/// (a) Colluding insider eavesdroppers: coalition members are regular
/// nodes; any data frame radiated within `sniff_range` of a member's
/// current position lands in the shared pool.
class ColludingEavesdroppers final : public PooledAdversary {
 public:
  /// `position_of` maps a member node id to its position at a time (the
  /// harness binds it to the node mobility models).
  ColludingEavesdroppers(
      std::vector<net::NodeId> members, double sniff_range,
      std::function<mobility::Vec2(net::NodeId, sim::Time)> position_of);

  [[nodiscard]] AdversaryKind kind() const override {
    return AdversaryKind::kColluding;
  }
  [[nodiscard]] const char* name() const override { return "colluding"; }
  [[nodiscard]] std::size_t member_count() const override {
    return members_.size();
  }
  [[nodiscard]] bool is_member(net::NodeId n) const override {
    return member_set_.contains(n);
  }
  [[nodiscard]] std::vector<net::NodeId> members() const override {
    return members_;
  }

  void on_transmission(const Transmission& tx, const phy::Frame& f) override;

  /// Raw overheard data frames per member (diagnostics).
  [[nodiscard]] std::uint64_t frames_seen_by(net::NodeId n) const;

 private:
  std::vector<net::NodeId> members_;
  std::unordered_set<net::NodeId> member_set_;
  double sniff_range_;
  std::function<mobility::Vec2(net::NodeId, sim::Time)> position_of_;
  std::unordered_map<net::NodeId, std::uint64_t> frames_seen_;
};

/// (b) Mobile external eavesdroppers: sniffers that are not part of the
/// node population, each following its own random-waypoint trajectory
/// over the arena, pooling captures like a coalition.
class MobileEavesdroppers final : public PooledAdversary {
 public:
  MobileEavesdroppers(std::uint32_t count, const mobility::Field& field,
                      const AdversarySpec& spec, double sniff_range,
                      sim::Rng rng);

  [[nodiscard]] AdversaryKind kind() const override {
    return AdversaryKind::kMobile;
  }
  [[nodiscard]] const char* name() const override { return "mobile"; }
  [[nodiscard]] std::size_t member_count() const override {
    return trajectories_.size();
  }

  void on_transmission(const Transmission& tx, const phy::Frame& f) override;

  /// Trajectory introspection (tests: the sniffer never leaves the arena).
  [[nodiscard]] mobility::Vec2 position_of_member(std::size_t i,
                                                  sim::Time t) const;

 private:
  std::vector<mobility::Trajectory> trajectories_;
  double sniff_range_;
};

/// (c) Insider blackhole: members answer route discovery like honest
/// nodes (control packets pass through untouched), then absorb every
/// TCP data packet they are asked to relay.  Absorbed segments also land
/// in the capture pool — a blackhole reads what it eats.
class BlackholeAttacker final : public PooledAdversary {
 public:
  explicit BlackholeAttacker(std::vector<net::NodeId> members);

  [[nodiscard]] AdversaryKind kind() const override {
    return AdversaryKind::kBlackhole;
  }
  [[nodiscard]] const char* name() const override { return "blackhole"; }
  [[nodiscard]] std::size_t member_count() const override {
    return members_.size();
  }
  [[nodiscard]] bool is_member(net::NodeId n) const override {
    return member_set_.contains(n);
  }
  [[nodiscard]] std::vector<net::NodeId> members() const override {
    return members_;
  }

  [[nodiscard]] bool absorbs(net::NodeId node, const net::Packet& p,
                             sim::Time now) const override;
  void on_absorb(net::NodeId node, const net::Packet& p) override;

  [[nodiscard]] std::uint64_t absorbed_packets() const override {
    return absorbed_;
  }
  [[nodiscard]] std::uint64_t absorbed_by(net::NodeId n) const;

 private:
  std::vector<net::NodeId> members_;
  std::unordered_set<net::NodeId> member_set_;
  std::uint64_t absorbed_ = 0;
  std::unordered_map<net::NodeId, std::uint64_t> per_member_;
};

/// (d) Wormhole: two colluding endpoints joined by an out-of-band
/// zero-delay tunnel.  Every payload-carrying frame radiated within
/// `sniff_range` of one endpoint (or transmitted by it) is replayed
/// verbatim — same spoofed transmitter, same MAC sequence — at the other
/// endpoint's position via the channel's injection hook, so RREQ floods,
/// RREPs and data cross the arena in one phantom hop and route discovery
/// collapses onto the shortcut.  MAC ACKs transmitted *by* an endpoint
/// are tunneled too, which is exactly what makes the phantom link
/// complete unicast handshakes.  TCP data crossing the tunnel is
/// captured into the segment pool, and dropped (not replayed) with
/// probability `drop_prob` — the selective-drop half of the attack.
///
/// Replays are deferred through pooled slots onto the scheduler (zero
/// simulated delay, deterministic insertion order), and every random
/// draw comes from the tunnel's own RNG substream, so the rest of the
/// stack keeps its event/RNG streams.  A per-packet-uid filter tunnels
/// each network packet at most once (MAC retries and far-end
/// rebroadcasts re-entering the tap do not ping-pong).
class WormholeAttacker final : public PooledAdversary {
 public:
  WormholeAttacker(
      std::array<net::NodeId, 2> endpoints, double sniff_range,
      double drop_prob,
      std::function<mobility::Vec2(net::NodeId, sim::Time)> position_of,
      sim::Scheduler* sched, phy::Channel* channel, sim::Rng rng);

  [[nodiscard]] AdversaryKind kind() const override {
    return AdversaryKind::kWormhole;
  }
  [[nodiscard]] const char* name() const override { return "wormhole"; }
  [[nodiscard]] std::size_t member_count() const override { return 2; }
  [[nodiscard]] bool is_member(net::NodeId n) const override {
    return n == ends_[0] || n == ends_[1];
  }
  [[nodiscard]] std::vector<net::NodeId> members() const override {
    return {ends_[0], ends_[1]};
  }

  void on_transmission(const Transmission& tx, const phy::Frame& f) override;

  [[nodiscard]] std::uint64_t tunneled_frames() const override {
    return tunneled_;
  }
  /// Data packets deliberately killed at the tunnel (selective drops).
  [[nodiscard]] std::uint64_t absorbed_packets() const override {
    return dropped_;
  }
  [[nodiscard]] const std::array<net::NodeId, 2>& endpoints() const {
    return ends_;
  }
  /// Live entries in the per-uid dedup window (tests: bounded over time).
  [[nodiscard]] std::size_t dedup_entries() const {
    return tunneled_uids_.size();
  }

  /// How long a tunneled uid is remembered.  Sized to outlive every
  /// legitimate same-uid reappearance: MAC retries and far-end
  /// rebroadcasts are milliseconds, and a packet parked in a routing
  /// send buffer keeps its uid for up to the buffer's 30 s age limit
  /// (`routing::SendBuffer`) before re-entering the air.  Thirty
  /// seconds covers all of those — so short-run behaviour is identical to the old unbounded set —
  /// while keeping the dedup state bounded by recent tunnel throughput
  /// on long runs instead of growing one entry per packet forever.
  static constexpr sim::Time kUidFreshness = sim::Time::sec(30);

 private:
  void tunnel_to(std::size_t far_end, const Transmission& tx,
                 const phy::Frame& f);
  void fire(std::uint32_t slot);
  /// True if `uid` was not seen within the freshness window — and
  /// records it.  Ages expired entries out as a side effect.
  bool remember_uid(std::uint64_t uid, sim::Time now);

  /// A replay parked until its zero-delay event fires; pooled so the
  /// closure stays {this, slot} (the frame's payload handle is a
  /// refcount bump, and recycled slots drop it on fire).
  struct PendingReplay {
    phy::Frame frame;
    net::NodeId spoof = net::kNoNode;
    std::size_t far_end = 0;
    sim::Time airtime;
    std::uint32_t next_free = 0;
  };

  std::array<net::NodeId, 2> ends_;
  double sniff_range_;
  double drop_prob_;
  std::function<mobility::Vec2(net::NodeId, sim::Time)> position_of_;
  sim::Scheduler* sched_;
  phy::Channel* channel_;
  sim::Rng rng_;
  /// uid -> first-seen time, aged out after kUidFreshness via the
  /// insertion-ordered queue.  Unlike routing::FloodCache's FIFO ring
  /// this ages by time, not by count: uids are not monotone, so a pure
  /// FIFO cap could evict a uid whose retries are still in flight.
  std::unordered_map<std::uint64_t, sim::Time> tunneled_uids_;
  std::deque<std::pair<std::uint64_t, sim::Time>> tunneled_order_;
  std::vector<PendingReplay> replay_pool_;
  std::uint32_t replay_free_ = kNoSlot;
  std::uint64_t tunneled_ = 0;
  std::uint64_t dropped_ = 0;
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
};

/// (e) Grayhole: probabilistic, time-windowed insider absorption.  Like
/// the blackhole it forwards control untouched; unlike the blackhole it
/// eats each eligible transit data packet only with probability
/// `drop_prob`, and only while (now mod active_period) < active_window —
/// parameters chosen to sit under a delivery-rate detector's threshold.
/// Decisions draw from the grayhole's own RNG substream in MAC receive
/// order, so they are deterministic for a fixed seed.
class GrayholeAttacker final : public PooledAdversary {
 public:
  GrayholeAttacker(std::vector<net::NodeId> members, double drop_prob,
                   sim::Time active_window, sim::Time active_period,
                   sim::Rng rng);

  [[nodiscard]] AdversaryKind kind() const override {
    return AdversaryKind::kGrayhole;
  }
  [[nodiscard]] const char* name() const override { return "grayhole"; }
  [[nodiscard]] std::size_t member_count() const override {
    return members_.size();
  }
  [[nodiscard]] bool is_member(net::NodeId n) const override {
    return member_set_.contains(n);
  }
  [[nodiscard]] std::vector<net::NodeId> members() const override {
    return members_;
  }

  [[nodiscard]] bool absorbs(net::NodeId node, const net::Packet& p,
                             sim::Time now) const override;
  void on_absorb(net::NodeId node, const net::Packet& p) override;

  [[nodiscard]] std::uint64_t absorbed_packets() const override {
    return absorbed_;
  }
  /// True while the duty cycle has the attacker dropping.
  [[nodiscard]] bool active_at(sim::Time now) const;

 private:
  std::vector<net::NodeId> members_;
  std::unordered_set<net::NodeId> member_set_;
  double drop_prob_;
  sim::Time active_window_;
  sim::Time active_period_;
  /// absorbs() is a const query from the harness's point of view, but
  /// each eligible packet consumes one Bernoulli draw.
  mutable sim::Rng rng_;
  std::uint64_t absorbed_ = 0;
};

/// (f) Traffic analysis: a passive insider coalition that never decodes
/// payloads.  It accumulates per-node sent/received byte volumes from
/// frame *metadata* only (transmitter id, MAC addressee, frame size) for
/// every frame radiated within `sniff_range` of a member, then infers
/// flow endpoints from the volume skew: a TCP source transmits large
/// data frames and receives only small ACKs (strongly positive
/// sent-recv skew), a sink is the mirror image, and relays cancel out.
/// Probes the paper's core claim from a new angle — MTS's relay
/// spreading disguises *which relays* carry the stream, but can it hide
/// the endpoints' volume signature?
class TrafficAnalysisAttacker final : public AdversaryModel {
 public:
  TrafficAnalysisAttacker(
      std::vector<net::NodeId> members, double sniff_range,
      std::uint32_t node_count,
      std::function<mobility::Vec2(net::NodeId, sim::Time)> position_of);

  [[nodiscard]] AdversaryKind kind() const override {
    return AdversaryKind::kTrafficAnalysis;
  }
  [[nodiscard]] const char* name() const override { return "traffic"; }
  [[nodiscard]] std::size_t member_count() const override {
    return members_.size();
  }
  [[nodiscard]] bool is_member(net::NodeId n) const override {
    return member_set_.contains(n);
  }
  [[nodiscard]] std::vector<net::NodeId> members() const override {
    return members_;
  }

  void on_transmission(const Transmission& tx, const phy::Frame& f) override;

  [[nodiscard]] std::vector<std::pair<net::NodeId, net::NodeId>>
  inferred_endpoints(std::size_t k) const override;

  /// Diagnostics: frames profiled and a node's observed volume skew.
  [[nodiscard]] std::uint64_t frames_profiled() const { return frames_; }
  [[nodiscard]] std::int64_t volume_skew(net::NodeId n) const;

 private:
  struct Profile {
    std::uint64_t sent_bytes = 0;
    std::uint64_t recv_bytes = 0;
  };

  std::vector<net::NodeId> members_;
  std::unordered_set<net::NodeId> member_set_;
  double sniff_range_;
  std::function<mobility::Vec2(net::NodeId, sim::Time)> position_of_;
  std::vector<Profile> profiles_;
  std::uint64_t frames_ = 0;
};

/// (g) RREQ flood: insider DoS.  Each member injects forged route
/// discoveries (the scenario protocol's RREQ kind, rotating victim
/// destinations, ids from a reserved range) through its own MAC at
/// `flood_rate` per second — the "normal routing path", so the flood
/// contends for the medium, is rebroadcast by honest nodes, and lands in
/// the control-overhead figures like genuine discovery traffic.
class RreqFlooder final : public AdversaryModel {
 public:
  /// `inject` is bound by the harness to the member's MAC (uid
  /// assignment + control counters + broadcast enqueue).
  RreqFlooder(std::vector<net::NodeId> members, net::PacketKind rreq_kind,
              std::uint32_t node_count, double rate, sim::Time start,
              sim::Scheduler* sched,
              std::function<void(net::NodeId, net::Packet&&)> inject,
              sim::Rng rng);

  [[nodiscard]] AdversaryKind kind() const override {
    return AdversaryKind::kRreqFlood;
  }
  [[nodiscard]] const char* name() const override { return "rreq-flood"; }
  [[nodiscard]] std::size_t member_count() const override {
    return members_.size();
  }
  [[nodiscard]] bool is_member(net::NodeId n) const override {
    return member_set_.contains(n);
  }
  [[nodiscard]] std::vector<net::NodeId> members() const override {
    return members_;
  }

  void on_start(sim::Time sim_end) override;

  [[nodiscard]] std::uint64_t injected_packets() const override {
    return injected_;
  }
  [[nodiscard]] sim::Time interval() const { return interval_; }

  /// Forged ids start here so they never collide with a member's
  /// genuine discovery ids in the network-wide flood dedup caches.
  static constexpr std::uint32_t kForgedIdBase = 0x40000000u;

 private:
  void tick();
  void inject_one(net::NodeId member);

  std::vector<net::NodeId> members_;
  std::unordered_set<net::NodeId> member_set_;
  net::PacketKind rreq_kind_;
  std::uint32_t node_count_;
  sim::Time interval_;
  sim::Time start_;
  sim::Time sim_end_;
  sim::Scheduler* sched_;
  std::function<void(net::NodeId, net::Packet&&)> inject_;
  sim::Rng rng_;
  std::uint32_t next_id_ = kForgedIdBase;
  std::uint64_t injected_ = 0;
};

/// Context the factory needs to instantiate a model for one scenario.
/// The shared plumbing (radio range, position oracle, scheduler, RNG,
/// secrecy plane) lives in `SecurityContext`; only the adversary-specific
/// hooks are declared here.
struct AdversaryContext : SecurityContext {
  std::uint32_t node_count = 0;
  mobility::Field field;
  /// Flow endpoints — never conscripted as insiders (they would trivially
  /// see their own traffic).
  std::unordered_set<net::NodeId> excluded;

  // --- active-model hooks (null for passive-only scenarios) ------------
  /// The medium's injection entry (wormhole far-end replay).
  phy::Channel* channel = nullptr;
  /// The scenario protocol's route-discovery kind (kRreqFlood forging).
  net::PacketKind rreq_kind = net::PacketKind::kAodvRreq;
  /// Injects a forged control packet through `member`'s own MAC.
  std::function<void(net::NodeId member, net::Packet&&)> inject_control;
};

/// Builds the model described by `spec`, or nullptr for kNone.
std::unique_ptr<AdversaryModel> make_adversary(const AdversarySpec& spec,
                                               const AdversaryContext& ctx);

}  // namespace mts::security
