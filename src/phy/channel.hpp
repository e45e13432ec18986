#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <optional>
#include <vector>

#include "mobility/trajectory.hpp"
#include "net/small_vec.hpp"
#include "phy/fading.hpp"
#include "phy/frame.hpp"
#include "phy/neighbor_index.hpp"
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
/// leaves.  A receiver decodes when it lies within the decode range of
/// the sender (a disk, the paper's 250 m TwoRayGround range), shrunk on
/// links that the optional `Fading` holds faded; within the
/// carrier-sense range it gets energy only.
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

  /// One node per trajectory, node `i` moving along `trajectories[i]`.
  /// `decode_range` is the nominal decode range in metres.
  Channel(sim::Scheduler& sched, std::vector<mobility::Trajectory> trajectories,
          double decode_range, ChannelConfig cfg = {},
          std::optional<Fading> fading = {});
  /// The neighbour grid and the scheduled waves point back at it.
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

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
  /// frame from an arbitrary position that need not match any node's
  /// position — the wormhole's far-end replay.  Unlike the passive sniffer
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

  /// Node `id`'s reception state.  Records never move.
  [[nodiscard]] Receiver& receiver(net::NodeId id) { return receivers_[id]; }

  /// Caller-owned neighbour list: inline up to 16 entries, so the
  /// common query never touches the heap.
  using NeighborVec = net::SmallVec<net::NodeId, 16>;

  /// Fills `out` with the nodes within the nominal decode range of `id`
  /// at time `t`, ascending (any previous contents are discarded); fading
  /// does not apply.  Exact: the spatial index only pre-filters
  /// candidates, which are then re-checked against live positions.
  void neighbors_of(net::NodeId id, sim::Time t, NeighborVec& out) const;

  /// The neighbour grid.
  [[nodiscard]] const NeighborIndex& index() const { return index_; }

  /// Aggregate history counters over all trajectories.
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
  double decode_range_;
  ChannelConfig cfg_;
  std::optional<Fading> fading_;
  Sniffer sniffer_;
  std::vector<mobility::Trajectory> trajectories_;
  std::vector<Receiver> receivers_;                 ///< parallel to trajectories_
  mutable std::vector<mobility::Leg> legs_;         ///< parallel to trajectories_
  mutable NeighborIndex index_;

  /// Callbacks run by a wave can radiate and grow the pool; a deque
  /// never moves a wave, so the frame a reception end hands up stays
  /// valid for the whole callback.
  std::deque<Wave> waves_;
  std::vector<std::uint32_t> free_waves_;
};

}  // namespace mts::phy
