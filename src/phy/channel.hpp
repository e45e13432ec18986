#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <vector>

#include "mobility/trajectory.hpp"
#include "net/small_vec.hpp"
#include "phy/frame.hpp"
#include "phy/neighbor_index.hpp"
#include "phy/propagation.hpp"
#include "phy/receiver.hpp"
#include "sim/scheduler.hpp"

namespace mts::phy {

struct ChannelConfig {
  /// Decode range multiplier giving the carrier-sense/interference range.
  /// ns-2's TwoRayGround defaults put the carrier-sense threshold at
  /// 550 m against a 250 m decode range — factor 2.2.  This matters: at
  /// 1.0, two-hop chains collapse into hidden-terminal collision storms
  /// that the paper's substrate never exhibited.
  double cs_range_factor = 2.2;
};

/// The shared wireless medium: keys a node up and fans its transmission
/// out to every node within range of it at the moment the first bit
/// leaves.
///
/// It owns two flat tables indexed by node id.  The receiver table holds
/// each node's reception state (`Receiver`), which every wave step
/// reads and writes.  The leg table holds the trajectory leg covering
/// each node's last position read; a read evaluates it and asks the
/// node's trajectory for another leg only when the time falls outside
/// it.  The trajectories themselves, RNG and leg history, are cold.
class Channel {
 public:
  /// How stale the neighbour grid's position snapshot may get.
  static constexpr sim::Time kIndexRebuildPeriod = sim::Time::ms(500);

  Channel(sim::Scheduler& sched, const PropagationModel& prop,
          ChannelConfig cfg = {});

  /// Sizes the node arrays for `n` attach() calls up front, so a large
  /// population is never copied through a doubling vector.
  void reserve(std::size_t n);

  /// Registers the next node (ids are dense, in attach order) with the
  /// trajectory giving its position, and returns its id.
  net::NodeId attach(mobility::Trajectory trajectory);

  /// Must be called once after all attach() calls and before any
  /// transmission or neighbour query (builds the neighbour grid).
  void finalize();

  /// Global promiscuous tap: observes every frame at radiation time with
  /// the transmitter's position and airtime.  Purely observational (no
  /// scheduling, no RNG draws), so attaching a sniffer never perturbs
  /// the simulation — the adversary subsystem hangs off this.
  using Sniffer = std::function<void(net::NodeId sender,
                                     const mobility::Vec2& sender_pos,
                                     const Frame& frame, sim::Time airtime,
                                     sim::Time now)>;
  void set_sniffer(Sniffer s) { sniffer_ = std::move(s); }

  /// Node `sender` keys up and radiates `frame` for `airtime`.
  /// Pre-condition: `sender` is not already transmitting (its MAC's job
  /// to ensure).  Half duplex: anything it was receiving is lost.
  /// Receivers within decode range get a decodable reception; receivers
  /// inside the CS range but beyond decode range get energy only.  At
  /// `now + airtime` the sender's listener hears on_tx_done, then the
  /// sender's carrier may fall idle.
  void transmit(net::NodeId sender, const Frame& frame, sim::Time airtime);

  /// Active-adversary injection hook: radiates a (possibly spoofed)
  /// frame from an arbitrary position that need not match any attached
  /// radio — the wormhole's far-end replay.  Unlike the passive sniffer
  /// tap this perturbs the run by design: receptions are scheduled
  /// exactly as for a genuine transmission.  Injected frames are NOT fed
  /// back to the sniffer tap (an attacker does not overhear its own
  /// out-of-band replays, which also rules out tap→inject loops).
  void inject(net::NodeId as_sender, const mobility::Vec2& from_pos,
              const Frame& frame, sim::Time airtime);

  /// Node `id`'s position at `t`: bit-identical to its trajectory's
  /// position_at(t).
  [[nodiscard]] mobility::Vec2 position_of(net::NodeId id, sim::Time t) const {
    const mobility::Leg& leg = legs_[id];
    if (t < leg.start || leg.depart < t) refresh_leg(id, t);
    return leg.at(t);
  }
  [[nodiscard]] std::size_t node_count() const { return receivers_.size(); }
  [[nodiscard]] sim::Scheduler& scheduler() const { return *sched_; }

  /// Node `id`'s reception state.  Records never move after finalize().
  [[nodiscard]] Receiver& receiver(net::NodeId id) { return receivers_[id]; }
  [[nodiscard]] double decode_range() const { return prop_->max_range(); }

  /// Caller-owned neighbour list: inline up to 16 entries, so the
  /// common query never touches the heap.
  using NeighborVec = net::SmallVec<net::NodeId, 16>;

  /// Fills `out` with the nodes within decode range of `id` at time
  /// `t`, ascending (any previous contents are discarded).  Exact: the
  /// spatial index only pre-filters candidates, which are then
  /// re-checked against live positions.
  void neighbors_of(net::NodeId id, sim::Time t, NeighborVec& out) const;

  /// The neighbour grid; finalize() builds it.
  [[nodiscard]] const NeighborIndex& index() const { return *index_; }

  /// Aggregate history counters over all attached trajectories.
  [[nodiscard]] mobility::Trajectory::Stats mobility_stats() const;

 private:
  /// One transmission's reception fan-out, pooled: a single scheduler
  /// event walks it item by item in exact (t, seq) order — every
  /// arrival, then every reception end the arrivals started — stepping
  /// inline while the next item is the scheduler's next event and
  /// re-parking at that item's reserved (t, seq) otherwise.  Fire order
  /// and event counts are those of one event per item.  The frame's
  /// payload shares the transmitted packet body; every reception end
  /// reads this one copy, and the wave drops it with its last item.
  struct Wave {
    struct Arrival {
      sim::Time t;
      std::uint64_t seq;
      double distance;
      net::NodeId node;
      bool decodable;
    };
    struct End {
      sim::Time t;
      std::uint64_t seq;
      net::NodeId node;
      std::uint32_t id;
    };
    Frame frame;
    sim::Time airtime;
    std::vector<Arrival> arrivals;  ///< sorted by (t, seq)
    std::vector<End> ends;          ///< in arrival order, so (t, seq) too
    std::uint32_t next = 0;         ///< next item: arrivals, then ends
  };

  std::uint32_t acquire_wave();
  /// Runs wave `w`'s next item and every following one that is the
  /// scheduler's next event; parks the wave at the item after that.
  void step_wave(std::uint32_t w);
  /// Shared fan-out of transmit() and inject(): launches one wave with
  /// a reception per radio within carrier-sense range of `sp`.
  void radiate(net::NodeId sender, const mobility::Vec2& sp,
               const Frame& frame, sim::Time airtime);
  /// The end of `sender`'s own transmission.
  void tx_done(net::NodeId sender);
  /// Replaces node `id`'s leg-table entry with the leg covering `t`.
  void refresh_leg(net::NodeId id, sim::Time t) const;

  sim::Scheduler* sched_;
  const PropagationModel* prop_;
  ChannelConfig cfg_;
  Sniffer sniffer_;
  std::vector<Receiver> receivers_;
  mutable std::vector<mobility::Leg> legs_;         ///< parallel to receivers_
  std::vector<mobility::Trajectory> trajectories_;  ///< parallel to receivers_
  std::unique_ptr<NeighborIndex> index_;
  double max_speed_ = 0.0;

  /// Callbacks run by a wave can radiate and grow the pool; a deque
  /// never moves a wave, so the frame a reception end hands up stays
  /// valid for the whole callback.
  std::deque<Wave> waves_;
  std::vector<std::uint32_t> free_waves_;
};

}  // namespace mts::phy
