#include "phy/channel.hpp"

#include <algorithm>

#include "phy/propagation.hpp"
#include "sim/error.hpp"

namespace mts::phy {

namespace {

/// The neighbour grid's cell size, the carrier-sense range; checks the
/// decode range first, so a bad one is reported as such.
double cs_range(double decode_range, const ChannelConfig& cfg) {
  sim::require_config(decode_range > 0, "Channel: decode_range <= 0");
  sim::require_config(cfg.cs_range_factor >= 1.0,
                      "Channel: cs_range_factor < 1");
  return decode_range * cfg.cs_range_factor;
}

double max_speed(const std::vector<mobility::Trajectory>& trajectories) {
  double v = 0.0;
  for (const mobility::Trajectory& tr : trajectories) {
    v = std::max(v, tr.max_speed());
  }
  return v;
}

}  // namespace

Channel::Channel(sim::Scheduler& sched,
                 std::vector<mobility::Trajectory> trajectories,
                 double decode_range, ChannelConfig cfg,
                 std::optional<Fading> fading)
    : sched_(&sched),
      decode_range_(decode_range),
      cfg_(cfg),
      fading_(std::move(fading)),
      trajectories_(std::move(trajectories)),
      receivers_(trajectories_.size()),
      index_(static_cast<std::uint32_t>(trajectories_.size()),
             cs_range(decode_range, cfg), max_speed(trajectories_),
             kIndexRebuildPeriod, [this](std::uint32_t id, sim::Time t) {
               return position_of(id, t);
             }) {
  legs_.reserve(trajectories_.size());
  for (const mobility::Trajectory& tr : trajectories_) {
    legs_.push_back(tr.covering_leg(sim::Time::zero()));
  }
  // Every live query — radiate/neighbors_of at scheduler-now, the next
  // snapshot itself — happens at or after the previous snapshot time, so
  // each rebuild retires the trajectory history behind the one before it
  // (one rebuild period of slack).  This is what keeps mobility memory
  // flat over long runs: without it every leg list grows O(sim-time).
  index_.set_snapshot_hook([this](sim::Time prev, sim::Time /*now*/) {
    for (const mobility::Trajectory& tr : trajectories_) {
      tr.trim_history_before(prev);
    }
  });
}

void Channel::refresh_leg(net::NodeId id, sim::Time t) const {
  legs_[id] = trajectories_[id].covering_leg(t);
}

mobility::Trajectory::Stats Channel::mobility_stats() const {
  mobility::Trajectory::Stats total;
  for (const mobility::Trajectory& tr : trajectories_) {
    const mobility::Trajectory::Stats& s = tr.stats();
    total.generated += s.generated;
    total.pruned += s.pruned;
    total.live += s.live;
    total.peak_live = std::max(total.peak_live, s.peak_live);
  }
  return total;
}

void Channel::transmit(net::NodeId sender, const Frame& frame,
                       sim::Time airtime) {
  Receiver& r = receivers_[sender];
  const sim::Time now = sched_->now();
  sim::require(!r.transmitting(now), "Channel: transmit while transmitting");
  const bool was_busy = r.busy(now);
  r.key_up(now + airtime);
  const mobility::Vec2 sp = position_of(sender, now);
  if (sniffer_) sniffer_(sender, sp, frame, airtime, now);
  radiate(sender, sp, frame, airtime);
  sched_->schedule_at(now + airtime, [this, sender] { tx_done(sender); },
                      sim::EventCategory::kPhy);
  if (!was_busy) r.medium_edge(false, now);
}

void Channel::tx_done(net::NodeId sender) {
  Receiver& r = receivers_[sender];
  if (RadioListener* l = r.listener()) l->on_tx_done();
  r.medium_edge(/*was_busy=*/true, sched_->now());
}

void Channel::inject(net::NodeId as_sender, const mobility::Vec2& from_pos,
                     const Frame& frame, sim::Time airtime) {
  radiate(as_sender, from_pos, frame, airtime);
}

void Channel::radiate(net::NodeId sender, const mobility::Vec2& sp,
                      const Frame& frame, sim::Time airtime) {
  const sim::Time now = sched_->now();
  const double cs_r = decode_range_ * cfg_.cs_range_factor;
  const std::uint32_t w = acquire_wave();
  Wave& wave = waves_[w];
  for (net::NodeId id : index_.candidates(sp, cs_r, now)) {
    if (id == sender) continue;
    const mobility::Vec2 rp = position_of(id, now);
    const double d2 = mobility::distance_sq(sp, rp);
    if (d2 > cs_r * cs_r) continue;
    const double r = fading_ && fading_->is_faded(sender, id, now)
                         ? decode_range_ * fading_->config().faded_fraction
                         : decode_range_;
    const bool decodable = d2 <= r * r;
    const double d = std::sqrt(d2);
    wave.arrivals.push_back(
        Wave::Arrival{now + propagation_delay(d), 0, d, id, decodable});
  }
  if (wave.arrivals.empty()) {
    free_waves_.push_back(w);
    return;
  }
  // One sequence number per receiver, drawn in candidate order: each
  // arrival orders exactly as an event of its own scheduled here would.
  std::uint64_t seq = sched_->reserve_seqs(wave.arrivals.size());
  for (Wave::Arrival& a : wave.arrivals) a.seq = seq++;
  std::sort(wave.arrivals.begin(), wave.arrivals.end(),
            [](const Wave::Arrival& x, const Wave::Arrival& y) {
              return x.t != y.t ? x.t < y.t : x.seq < y.seq;
            });
  // Every end (t_i + airtime, reserved later) then orders after the
  // last arrival, so the wave's items are one sorted run.
  sim::require(wave.arrivals.back().t - wave.arrivals.front().t <= airtime,
               "Channel: propagation spread exceeds the airtime");
  // The frame is shared (a refcount bump, no deep copy even for a
  // k-receiver broadcast), and the wave's closure stays two words wide.
  wave.frame = frame;
  wave.airtime = airtime;
  const Wave::Arrival& first = wave.arrivals.front();
  sched_->schedule_reserved(first.t, first.seq, [this, w] { step_wave(w); },
                            sim::EventCategory::kChannel);
}

std::uint32_t Channel::acquire_wave() {
  if (!free_waves_.empty()) {
    const std::uint32_t w = free_waves_.back();
    free_waves_.pop_back();
    return w;
  }
  waves_.emplace_back();
  return static_cast<std::uint32_t>(waves_.size() - 1);
}

void Channel::step_wave(std::uint32_t w) {
  Wave& wave = waves_[w];
  const auto arrivals = static_cast<std::uint32_t>(wave.arrivals.size());
  for (;;) {
    const std::uint32_t i = wave.next++;
    if (i < arrivals) {
      const Wave::Arrival a = wave.arrivals[i];
      const std::optional<Receiver::ReceptionEnd> end =
          receivers_[a.node].begin_reception(*sched_, a.decodable, a.distance);
      if (end) {
        wave.ends.push_back(
            Wave::End{a.t + wave.airtime, end->seq, a.node, end->id});
      }
    } else {
      const Wave::End e = wave.ends[i - arrivals];
      receivers_[e.node].end_reception(sched_->now(), e.id, wave.frame);
    }
    const std::uint32_t k = wave.next;
    sim::Time t;
    std::uint64_t seq;
    sim::EventCategory cat;
    if (k < arrivals) {
      t = wave.arrivals[k].t;
      seq = wave.arrivals[k].seq;
      cat = sim::EventCategory::kChannel;
    } else if (k - arrivals < wave.ends.size()) {
      t = wave.ends[k - arrivals].t;
      seq = wave.ends[k - arrivals].seq;
      cat = sim::EventCategory::kPhy;
    } else {
      // The last item: a finished wave pins no packet body.
      wave.frame = Frame{};
      wave.arrivals.clear();
      wave.ends.clear();
      wave.next = 0;
      free_waves_.push_back(w);
      return;
    }
    if (!sched_->step_inline(t, seq, cat)) {
      sched_->schedule_reserved(t, seq, [this, w] { step_wave(w); }, cat);
      return;
    }
  }
}

void Channel::neighbors_of(net::NodeId id, sim::Time t,
                           NeighborVec& out) const {
  out.clear();
  const mobility::Vec2 p = position_of(id, t);
  // The grid returns a superset (snapshot positions + staleness margin)
  // in bucket order; re-filter with exact positions and sort by id.
  for (net::NodeId other : index_.candidates(p, decode_range_, t)) {
    if (other != id &&
        mobility::distance_sq(p, position_of(other, t)) <=
            decode_range_ * decode_range_) {
      out.push_back(other);
    }
  }
  std::sort(out.begin(), out.end());
}

}  // namespace mts::phy
