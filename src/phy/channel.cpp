#include "phy/channel.hpp"

#include <algorithm>

#include "phy/radio.hpp"
#include "sim/error.hpp"

namespace mts::phy {

Channel::Channel(sim::Scheduler& sched, const PropagationModel& prop,
                 ChannelConfig cfg)
    : sched_(&sched), prop_(&prop), cfg_(cfg) {
  sim::require_config(cfg.cs_range_factor >= 1.0,
                      "Channel: cs_range_factor < 1");
}

void Channel::reserve(std::size_t n) {
  radios_.reserve(n);
  trajectories_.reserve(n);
}

void Channel::attach(Radio* radio, mobility::Trajectory trajectory) {
  sim::require(radio != nullptr, "Channel: null attach");
  sim::require(radio->id() == radios_.size(),
               "Channel: radio ids must be dense and in attach order");
  max_speed_ = std::max(max_speed_, trajectory.max_speed());
  radios_.push_back(radio);
  trajectories_.push_back(std::move(trajectory));
  radio->set_channel(this);
}

void Channel::finalize() {
  const double cell = prop_->max_range() * cfg_.cs_range_factor;
  index_ = std::make_unique<NeighborIndex>(
      static_cast<std::uint32_t>(radios_.size()), cell, max_speed_,
      kIndexRebuildPeriod, [this](std::uint32_t id, sim::Time t) {
        return trajectories_[id].position_at(t);
      });
  // Every live query — radiate/neighbors_of at scheduler-now, the next
  // snapshot itself — happens at or after the previous snapshot time, so
  // each rebuild retires the trajectory history behind the one before it
  // (one rebuild period of slack).  This is what keeps mobility memory
  // flat over long runs: without it every leg list grows O(sim-time).
  index_->set_snapshot_hook([this](sim::Time prev, sim::Time /*now*/) {
    for (const mobility::Trajectory& tr : trajectories_) {
      tr.trim_history_before(prev);
    }
  });
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
  const sim::Time now = sched_->now();
  const mobility::Vec2 sp = position_of(sender, now);
  if (sniffer_) sniffer_(sender, sp, frame, airtime, now);
  radiate(sender, sp, frame, airtime);
}

void Channel::inject(net::NodeId as_sender, const mobility::Vec2& from_pos,
                     const Frame& frame, sim::Time airtime) {
  radiate(as_sender, from_pos, frame, airtime);
}

void Channel::radiate(net::NodeId sender, const mobility::Vec2& sp,
                      const Frame& frame, sim::Time airtime) {
  sim::require(index_ != nullptr, "Channel: radiate before finalize()");
  const sim::Time now = sched_->now();
  const double decode_r = prop_->max_range();
  const double cs_r = decode_r * cfg_.cs_range_factor;
  const std::uint32_t w = acquire_wave();
  Wave& wave = waves_[w];
  for (net::NodeId id : index_->candidates(sp, cs_r, now)) {
    if (id == sender) continue;
    const mobility::Vec2 rp = position_of(id, now);
    const double d2 = mobility::distance_sq(sp, rp);
    if (d2 > cs_r * cs_r) continue;
    const bool decodable = prop_->link_up(sender, sp, id, rp, now);
    const double d = std::sqrt(d2);
    wave.arrivals.push_back(Wave::Arrival{now + propagation_delay(d), 0,
                                          radios_[id], d, decodable});
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
      const std::optional<Radio::ReceptionEnd> end =
          a.radio->begin_reception(a.decodable, a.distance);
      if (end) {
        wave.ends.push_back(
            Wave::End{a.t + wave.airtime, end->seq, a.radio, end->id});
      }
    } else {
      const Wave::End e = wave.ends[i - arrivals];
      e.radio->end_reception(e.id, wave.frame);
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
  sim::require(index_ != nullptr, "Channel: neighbors_of before finalize()");
  out.clear();
  const mobility::Vec2 p = position_of(id, t);
  // The grid returns a superset (snapshot positions + staleness margin)
  // in bucket order; re-filter with exact positions and sort by id.
  for (net::NodeId other : index_->candidates(p, prop_->max_range(), t)) {
    if (other != id && prop_->in_range(p, position_of(other, t))) {
      out.push_back(other);
    }
  }
  std::sort(out.begin(), out.end());
}

}  // namespace mts::phy
