#include "security/adversary.hpp"

#include <algorithm>

#include "phy/channel.hpp"
#include "sim/error.hpp"

namespace mts::security {

const char* adversary_kind_name(AdversaryKind k) {
  switch (k) {
    case AdversaryKind::kNone: return "none";
    case AdversaryKind::kColluding: return "colluding";
    case AdversaryKind::kMobile: return "mobile";
    case AdversaryKind::kBlackhole: return "blackhole";
    case AdversaryKind::kWormhole: return "wormhole";
    case AdversaryKind::kGrayhole: return "grayhole";
    case AdversaryKind::kTrafficAnalysis: return "traffic";
    case AdversaryKind::kRreqFlood: return "rreq-flood";
  }
  return "?";
}

std::vector<net::NodeId> resolve_members(
    const AdversarySpec& spec, std::uint32_t node_count,
    const std::unordered_set<net::NodeId>& excluded, sim::Rng rng) {
  if (!spec.members.empty()) {
    for (net::NodeId m : spec.members) {
      sim::require_config(m < node_count, "Adversary: member id out of range");
    }
    return spec.members;
  }
  std::vector<net::NodeId> pool;
  pool.reserve(node_count);
  for (net::NodeId i = 0; i < node_count; ++i) {
    if (!excluded.contains(i)) pool.push_back(i);
  }
  // One shuffle, then a prefix: coalitions of increasing size are nested
  // for a fixed seed (see header).
  rng.shuffle(pool.begin(), pool.end());
  const std::size_t n = std::min<std::size_t>(spec.count, pool.size());
  pool.resize(n);
  return pool;
}

std::array<net::NodeId, 2> resolve_wormhole_pair(
    const AdversarySpec& spec, std::uint32_t node_count,
    const std::unordered_set<net::NodeId>& excluded, sim::Rng rng,
    const std::function<mobility::Vec2(net::NodeId, sim::Time)>& position_of) {
  if (!spec.members.empty()) {
    sim::require_config(spec.members.size() == 2,
                        "Adversary: wormhole needs exactly 2 members");
    sim::require_config(spec.members[0] != spec.members[1],
                        "Adversary: wormhole endpoints must differ");
    for (net::NodeId m : spec.members) {
      sim::require_config(m < node_count, "Adversary: member id out of range");
    }
    return {spec.members[0], spec.members[1]};
  }
  sim::require_config(static_cast<bool>(position_of),
                      "Adversary: wormhole placement needs a position lookup");
  // Same shuffled pool as resolve_members (minus the count prefix): the
  // anchor is the first shuffled candidate, the far end the candidate
  // farthest from it at t=0.
  AdversarySpec all = spec;
  all.count = node_count;
  all.members.clear();
  const std::vector<net::NodeId> pool =
      resolve_members(all, node_count, excluded, rng);
  sim::require_config(pool.size() >= 2,
                      "Adversary: wormhole needs >= 2 eligible nodes");
  const net::NodeId a = pool[0];
  const mobility::Vec2 ap = position_of(a, sim::Time::zero());
  net::NodeId b = pool[1];
  double best = -1.0;
  for (std::size_t i = 1; i < pool.size(); ++i) {
    const double d =
        mobility::distance_sq(ap, position_of(pool[i], sim::Time::zero()));
    if (d > best) {
      best = d;
      b = pool[i];
    }
  }
  return {a, b};
}

namespace {

/// Passive models only care about decodable TCP data payloads.
bool sniffable(const phy::Frame& f) {
  return f.has_payload() && f.payload.common().kind == net::PacketKind::kTcpData;
}

}  // namespace

// --- ColludingEavesdroppers ------------------------------------------------

ColludingEavesdroppers::ColludingEavesdroppers(
    std::vector<net::NodeId> members, double sniff_range,
    std::function<mobility::Vec2(net::NodeId, sim::Time)> position_of)
    : members_(std::move(members)),
      member_set_(members_.begin(), members_.end()),
      sniff_range_(sniff_range),
      position_of_(std::move(position_of)) {
  sim::require_config(sniff_range_ > 0, "Adversary: sniff_range <= 0");
  sim::require_config(static_cast<bool>(position_of_),
                      "Adversary: colluding model needs a position lookup");
}

void ColludingEavesdroppers::on_transmission(const Transmission& tx,
                                             const phy::Frame& f) {
  if (!sniffable(f)) return;
  const double r2 = sniff_range_ * sniff_range_;
  for (net::NodeId m : members_) {
    if (m == tx.sender) continue;  // own transmission, not an overhear
    const mobility::Vec2 p = position_of_(m, tx.now);
    if (mobility::distance_sq(p, tx.sender_pos) > r2) continue;
    ++frames_seen_[m];
    pool_.capture(f.payload);
  }
}

std::uint64_t ColludingEavesdroppers::frames_seen_by(net::NodeId n) const {
  auto it = frames_seen_.find(n);
  return it == frames_seen_.end() ? 0 : it->second;
}

// --- MobileEavesdroppers ---------------------------------------------------

MobileEavesdroppers::MobileEavesdroppers(std::uint32_t count,
                                         const mobility::Field& field,
                                         const AdversarySpec& spec,
                                         double sniff_range, sim::Rng rng)
    : sniff_range_(sniff_range) {
  sim::require_config(count >= 1, "Adversary: mobile count < 1");
  sim::require_config(sniff_range_ > 0, "Adversary: sniff_range <= 0");
  mobility::RandomWaypointConfig rc;
  rc.field = field;
  rc.min_speed = spec.min_speed;
  rc.max_speed = spec.max_speed;
  rc.pause = spec.pause;
  trajectories_.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    trajectories_.emplace_back(rc, rng.substream(i));
  }
}

void MobileEavesdroppers::on_transmission(const Transmission& tx,
                                          const phy::Frame& f) {
  if (!sniffable(f)) return;
  const double r2 = sniff_range_ * sniff_range_;
  for (const mobility::Trajectory& traj : trajectories_) {
    const mobility::Vec2 p = traj.position_at(tx.now);
    if (mobility::distance_sq(p, tx.sender_pos) > r2) continue;
    pool_.capture(f.payload);
  }
}

mobility::Vec2 MobileEavesdroppers::position_of_member(std::size_t i,
                                                       sim::Time t) const {
  sim::require(i < trajectories_.size(), "Adversary: member index");
  return trajectories_[i].position_at(t);
}

// --- BlackholeAttacker -----------------------------------------------------

BlackholeAttacker::BlackholeAttacker(std::vector<net::NodeId> members)
    : members_(std::move(members)),
      member_set_(members_.begin(), members_.end()) {}

bool BlackholeAttacker::absorbs(net::NodeId node, const net::Packet& p,
                                sim::Time /*now*/) const {
  // Only transit data dies: control packets keep the attacker attractive
  // to route discovery, and traffic terminating at the attacker is its
  // own (it may legitimately be a flow endpoint in pathological specs).
  return member_set_.contains(node) &&
         p.common().kind == net::PacketKind::kTcpData && p.common().dst != node;
}

void BlackholeAttacker::on_absorb(net::NodeId node, const net::Packet& p) {
  ++absorbed_;
  ++per_member_[node];
  pool_.capture(p);
}

std::uint64_t BlackholeAttacker::absorbed_by(net::NodeId n) const {
  auto it = per_member_.find(n);
  return it == per_member_.end() ? 0 : it->second;
}

// --- WormholeAttacker ------------------------------------------------------

WormholeAttacker::WormholeAttacker(
    std::array<net::NodeId, 2> endpoints, double sniff_range, double drop_prob,
    std::function<mobility::Vec2(net::NodeId, sim::Time)> position_of,
    sim::Scheduler* sched, phy::Channel* channel, sim::Rng rng)
    : ends_(endpoints),
      sniff_range_(sniff_range),
      drop_prob_(drop_prob),
      position_of_(std::move(position_of)),
      sched_(sched),
      channel_(channel),
      rng_(rng) {
  sim::require_config(ends_[0] != ends_[1],
                      "Adversary: wormhole endpoints must differ");
  sim::require_config(sniff_range_ > 0, "Adversary: sniff_range <= 0");
  sim::require_config(drop_prob_ >= 0.0 && drop_prob_ <= 1.0,
                      "Adversary: drop_prob outside [0, 1]");
  sim::require_config(static_cast<bool>(position_of_),
                      "Adversary: wormhole needs a position lookup");
  sim::require_config(sched_ != nullptr && channel_ != nullptr,
                      "Adversary: wormhole needs scheduler + channel hooks");
}

void WormholeAttacker::on_transmission(const Transmission& tx,
                                       const phy::Frame& f) {
  const double r2 = sniff_range_ * sniff_range_;
  for (std::size_t e = 0; e < 2; ++e) {
    // The endpoint's own transmissions feed the tunnel too: a wormhole
    // transceiver mirrors everything it sends onto the out-of-band link.
    const bool heard =
        tx.sender == ends_[e] ||
        mobility::distance_sq(position_of_(ends_[e], tx.now), tx.sender_pos) <=
            r2;
    if (!heard) continue;
    tunnel_to(1 - e, tx, f);
    return;  // one crossing per radiation even if both ends hear it
  }
}

bool WormholeAttacker::remember_uid(std::uint64_t uid, sim::Time now) {
  // Age out entries past the freshness window before consulting the set:
  // over a long run the dedup state stays bounded by recent throughput
  // instead of accumulating one entry per packet ever tunneled.
  while (!tunneled_order_.empty() &&
         now - tunneled_order_.front().second > kUidFreshness) {
    const auto& [old_uid, seen_at] = tunneled_order_.front();
    if (auto it = tunneled_uids_.find(old_uid);
        it != tunneled_uids_.end() && it->second == seen_at) {
      tunneled_uids_.erase(it);
    }
    tunneled_order_.pop_front();
  }
  const auto [it, fresh] = tunneled_uids_.try_emplace(uid, now);
  if (!fresh) return false;
  tunneled_order_.emplace_back(uid, now);
  return true;
}

void WormholeAttacker::tunnel_to(std::size_t far_end, const Transmission& tx,
                                 const phy::Frame& f) {
  if (f.has_payload()) {
    // Tunnel each network packet once: retries and far-end rebroadcasts
    // re-entering the tap must not ping-pong through the tunnel.
    if (!remember_uid(f.payload.common().uid, tx.now)) return;
    if (f.payload.common().kind == net::PacketKind::kTcpData) {
      pool_.capture(f.payload);  // the shortcut reads what crosses it
      if (rng_.uniform() < drop_prob_) {
        ++dropped_;
        return;  // selectively dropped instead of replayed
      }
    }
  } else {
    // Of the bare MAC frames, only the endpoints' own ACKs matter: they
    // are what completes unicast handshakes across the phantom link.
    if (f.type != phy::FrameType::kAck || !is_member(tx.sender)) return;
  }
  std::uint32_t slot;
  if (replay_free_ != kNoSlot) {
    slot = replay_free_;
    replay_free_ = replay_pool_[slot].next_free;
  } else {
    slot = static_cast<std::uint32_t>(replay_pool_.size());
    replay_pool_.emplace_back();
  }
  PendingReplay& r = replay_pool_[slot];
  r.frame = f;
  r.spoof = tx.sender;
  r.far_end = far_end;
  r.airtime = tx.airtime;
  ++tunneled_;
  // Zero simulated delay: the replay fires after the in-flight dispatch
  // finishes, in deterministic insertion order.
  sched_->schedule_in(sim::Time::zero(), [this, slot] { fire(slot); },
                      sim::EventCategory::kSecurity);
}

void WormholeAttacker::fire(std::uint32_t slot) {
  phy::Frame frame = std::move(replay_pool_[slot].frame);
  const net::NodeId spoof = replay_pool_[slot].spoof;
  const std::size_t far_end = replay_pool_[slot].far_end;
  const sim::Time airtime = replay_pool_[slot].airtime;
  replay_pool_[slot].next_free = replay_free_;
  replay_free_ = slot;
  channel_->inject(spoof, position_of_(ends_[far_end], sched_->now()), frame,
                   airtime);
}

// --- GrayholeAttacker ------------------------------------------------------

GrayholeAttacker::GrayholeAttacker(std::vector<net::NodeId> members,
                                   double drop_prob, sim::Time active_window,
                                   sim::Time active_period, sim::Rng rng)
    : members_(std::move(members)),
      member_set_(members_.begin(), members_.end()),
      drop_prob_(drop_prob),
      active_window_(active_window),
      active_period_(active_period),
      rng_(rng) {
  sim::require_config(drop_prob_ >= 0.0 && drop_prob_ <= 1.0,
                      "Adversary: drop_prob outside [0, 1]");
  // Both-or-neither: a half-configured duty cycle (window without
  // period, or vice versa) would silently run always-on — make the typo
  // a config error instead of a wrong experiment.
  sim::require_config((active_window_ <= sim::Time::zero()) ==
                          (active_period_ <= sim::Time::zero()),
                      "Adversary: grayhole active_window and active_period "
                      "must be set together (or both zero)");
  sim::require_config(
      active_period_ <= sim::Time::zero() || active_window_ <= active_period_,
      "Adversary: grayhole active_window > active_period");
}

bool GrayholeAttacker::active_at(sim::Time now) const {
  if (active_period_ <= sim::Time::zero() ||
      active_window_ <= sim::Time::zero()) {
    return true;  // no duty cycle configured: always on
  }
  return now.nanoseconds() % active_period_.nanoseconds() <
         active_window_.nanoseconds();
}

bool GrayholeAttacker::absorbs(net::NodeId node, const net::Packet& p,
                               sim::Time now) const {
  if (!member_set_.contains(node)) return false;
  if (p.common().kind != net::PacketKind::kTcpData || p.common().dst == node) {
    return false;
  }
  if (!active_at(now)) return false;
  // One Bernoulli draw per eligible packet, in MAC receive order.
  return rng_.uniform() < drop_prob_;
}

void GrayholeAttacker::on_absorb(net::NodeId /*node*/, const net::Packet& p) {
  ++absorbed_;
  pool_.capture(p);  // a grayhole reads what it eats, like the blackhole
}

// --- TrafficAnalysisAttacker -----------------------------------------------

TrafficAnalysisAttacker::TrafficAnalysisAttacker(
    std::vector<net::NodeId> members, double sniff_range,
    std::uint32_t node_count,
    std::function<mobility::Vec2(net::NodeId, sim::Time)> position_of)
    : members_(std::move(members)),
      member_set_(members_.begin(), members_.end()),
      sniff_range_(sniff_range),
      position_of_(std::move(position_of)),
      profiles_(node_count) {
  sim::require_config(sniff_range_ > 0, "Adversary: sniff_range <= 0");
  sim::require_config(static_cast<bool>(position_of_),
                      "Adversary: traffic analysis needs a position lookup");
}

void TrafficAnalysisAttacker::on_transmission(const Transmission& tx,
                                              const phy::Frame& f) {
  if (tx.sender >= profiles_.size()) return;  // not a population node
  // Metadata only — transmitter, MAC addressee, frame bytes; payloads
  // are never decoded (captured_segments() stays 0 by construction).
  bool heard = member_set_.contains(tx.sender);
  if (!heard) {
    const double r2 = sniff_range_ * sniff_range_;
    for (net::NodeId m : members_) {
      if (mobility::distance_sq(position_of_(m, tx.now), tx.sender_pos) <=
          r2) {
        heard = true;
        break;
      }
    }
  }
  if (!heard) return;
  ++frames_;
  profiles_[tx.sender].sent_bytes += f.bytes;
  if (f.receiver < profiles_.size()) {
    profiles_[f.receiver].recv_bytes += f.bytes;
  }
}

std::int64_t TrafficAnalysisAttacker::volume_skew(net::NodeId n) const {
  if (n >= profiles_.size()) return 0;
  return static_cast<std::int64_t>(profiles_[n].sent_bytes) -
         static_cast<std::int64_t>(profiles_[n].recv_bytes);
}

std::vector<std::pair<net::NodeId, net::NodeId>>
TrafficAnalysisAttacker::inferred_endpoints(std::size_t k) const {
  // Candidates: every node observed at all.  Sorting is total (skew,
  // then id), so the inference is deterministic for a fixed seed.
  std::vector<net::NodeId> seen;
  for (net::NodeId n = 0; n < profiles_.size(); ++n) {
    if (profiles_[n].sent_bytes != 0 || profiles_[n].recv_bytes != 0) {
      seen.push_back(n);
    }
  }
  std::vector<net::NodeId> by_source = seen;
  std::sort(by_source.begin(), by_source.end(),
            [this](net::NodeId a, net::NodeId b) {
              const std::int64_t sa = volume_skew(a), sb = volume_skew(b);
              return sa != sb ? sa > sb : a < b;
            });
  std::vector<net::NodeId> by_sink = seen;
  std::sort(by_sink.begin(), by_sink.end(),
            [this](net::NodeId a, net::NodeId b) {
              const std::int64_t sa = volume_skew(a), sb = volume_skew(b);
              return sa != sb ? sa < sb : a < b;
            });
  std::vector<std::pair<net::NodeId, net::NodeId>> out;
  for (std::size_t i = 0; i < k && i < seen.size(); ++i) {
    if (by_source[i] == by_sink[i]) continue;  // degenerate observation
    out.emplace_back(by_source[i], by_sink[i]);
  }
  return out;
}

// --- RreqFlooder -----------------------------------------------------------

RreqFlooder::RreqFlooder(
    std::vector<net::NodeId> members, net::PacketKind rreq_kind,
    std::uint32_t node_count, double rate, sim::Time start,
    sim::Scheduler* sched,
    std::function<void(net::NodeId, net::Packet&&)> inject, sim::Rng rng)
    : members_(std::move(members)),
      member_set_(members_.begin(), members_.end()),
      rreq_kind_(rreq_kind),
      node_count_(node_count),
      interval_(sim::Time::seconds(1.0 / rate)),
      start_(start),
      sched_(sched),
      inject_(std::move(inject)),
      rng_(rng) {
  sim::require_config(rate > 0, "Adversary: flood_rate <= 0");
  sim::require_config(start_ >= sim::Time::zero(),
                      "Adversary: flood_start < 0");
  sim::require_config(node_count_ >= 2, "Adversary: flood needs >= 2 nodes");
  sim::require_config(
      rreq_kind_ == net::PacketKind::kAodvRreq ||
          rreq_kind_ == net::PacketKind::kDsrRreq ||
          rreq_kind_ == net::PacketKind::kMtsRreq,
      "Adversary: rreq_kind is not a route-discovery kind");
  sim::require_config(sched_ != nullptr && static_cast<bool>(inject_),
                      "Adversary: flood needs scheduler + inject hooks");
}

void RreqFlooder::on_start(sim::Time sim_end) {
  sim_end_ = sim_end;
  if (start_ > sim_end_) return;
  sched_->schedule_in(start_ - sched_->now(), [this] { tick(); },
                      sim::EventCategory::kSecurity);
}

void RreqFlooder::tick() {
  for (net::NodeId m : members_) inject_one(m);
  injected_ += members_.size();
  if (sched_->now() + interval_ <= sim_end_) {
    sched_->schedule_in(interval_, [this] { tick(); },
                        sim::EventCategory::kSecurity);
  }
}

void RreqFlooder::inject_one(net::NodeId member) {
  // Rotate victims over the real population (never the member itself):
  // a live destination answers with an RREP, maximizing the overhead the
  // flood induces; real ids keep every downstream code path ordinary.
  net::NodeId victim;
  do {
    victim = static_cast<net::NodeId>(rng_.uniform_int(0, node_count_ - 1));
  } while (victim == member);
  const std::uint32_t id = next_id_++;

  net::Packet p;
  auto& common = p.mutable_common();
  common.kind = rreq_kind_;
  common.src = member;
  common.dst = net::kBroadcastId;
  common.originated = sched_->now();
  switch (rreq_kind_) {
    case net::PacketKind::kAodvRreq: {
      net::AodvRreqHeader h;
      h.rreq_id = id;
      h.orig = member;
      h.dst = victim;
      h.orig_seq = 1;  // modest: do not poison genuine routes to the member
      p.mutable_routing() = h;
      break;
    }
    case net::PacketKind::kDsrRreq: {
      net::DsrRreqHeader h;
      h.rreq_id = id;
      h.orig = member;
      h.target = victim;
      p.mutable_routing() = h;
      break;
    }
    case net::PacketKind::kMtsRreq: {
      net::MtsRreqHeader h;
      h.bcast_id = id;
      h.orig = member;
      h.dst = victim;
      p.mutable_routing() = h;
      break;
    }
    default: break;  // unreachable (constructor validated)
  }
  inject_(member, std::move(p));
}

// --- factory ---------------------------------------------------------------

std::unique_ptr<AdversaryModel> make_adversary(const AdversarySpec& spec,
                                               const AdversaryContext& ctx) {
  if (!spec.enabled()) return nullptr;
  const double range = spec.sniff_range > 0 ? spec.sniff_range : ctx.radio_range;
  std::unique_ptr<AdversaryModel> model;
  switch (spec.kind) {
    case AdversaryKind::kColluding: {
      auto members = resolve_members(spec, ctx.node_count, ctx.excluded,
                                     ctx.rng.substream("members"));
      sim::require_config(!members.empty(),
                          "Adversary: no eligible coalition members");
      model = std::make_unique<ColludingEavesdroppers>(
          std::move(members), range, ctx.position_of);
      break;
    }
    case AdversaryKind::kMobile:
      model = std::make_unique<MobileEavesdroppers>(
          spec.count, ctx.field, spec, range, ctx.rng.substream("mobile"));
      break;
    case AdversaryKind::kBlackhole: {
      auto members = resolve_members(spec, ctx.node_count, ctx.excluded,
                                     ctx.rng.substream("members"));
      sim::require_config(!members.empty(),
                          "Adversary: no eligible blackhole members");
      model = std::make_unique<BlackholeAttacker>(std::move(members));
      break;
    }
    case AdversaryKind::kWormhole: {
      auto ends =
          resolve_wormhole_pair(spec, ctx.node_count, ctx.excluded,
                                ctx.rng.substream("members"), ctx.position_of);
      model = std::make_unique<WormholeAttacker>(
          ends, range, spec.drop_prob, ctx.position_of, ctx.sched, ctx.channel,
          ctx.rng.substream("wormhole"));
      break;
    }
    case AdversaryKind::kGrayhole: {
      auto members = resolve_members(spec, ctx.node_count, ctx.excluded,
                                     ctx.rng.substream("members"));
      sim::require_config(!members.empty(),
                          "Adversary: no eligible grayhole members");
      model = std::make_unique<GrayholeAttacker>(
          std::move(members), spec.drop_prob, spec.active_window,
          spec.active_period, ctx.rng.substream("grayhole"));
      break;
    }
    case AdversaryKind::kTrafficAnalysis: {
      auto members = resolve_members(spec, ctx.node_count, ctx.excluded,
                                     ctx.rng.substream("members"));
      sim::require_config(!members.empty(),
                          "Adversary: no eligible traffic-analysis members");
      model = std::make_unique<TrafficAnalysisAttacker>(
          std::move(members), range, ctx.node_count, ctx.position_of);
      break;
    }
    case AdversaryKind::kRreqFlood: {
      auto members = resolve_members(spec, ctx.node_count, ctx.excluded,
                                     ctx.rng.substream("members"));
      sim::require_config(!members.empty(),
                          "Adversary: no eligible flood members");
      model = std::make_unique<RreqFlooder>(
          std::move(members), ctx.rreq_kind, ctx.node_count, spec.flood_rate,
          spec.flood_start, ctx.sched, ctx.inject_control,
          ctx.rng.substream("flood"));
      break;
    }
    case AdversaryKind::kNone: break;
  }
  // Pool-backed models play the secrecy game: captured segments are
  // materialized into wire bytes and parsed for key shares.
  if (model != nullptr && ctx.secrecy != nullptr) {
    if (auto* pooled = dynamic_cast<PooledAdversary*>(model.get())) {
      pooled->attach_secrecy(ctx.secrecy);
    }
  }
  return model;
}

}  // namespace mts::security
