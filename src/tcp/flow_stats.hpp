#pragma once

#include <cstdint>
#include <vector>

#include "sim/time.hpp"

namespace mts::tcp {

/// Shared metrics record for one TCP flow; the source and sink sides
/// write disjoint fields, the harness reads them after the run.
struct FlowStats {
  // --- source side ----------------------------------------------------
  std::uint64_t data_packets_sent = 0;    ///< transmissions incl. retx
  std::uint64_t unique_segments_sent = 0; ///< highest seq handed to routing
  std::uint64_t retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t acks_received = 0;

  // --- sink side -------------------------------------------------------
  std::uint64_t data_packets_received = 0;   ///< arrivals incl. duplicates
  std::uint64_t unique_segments_delivered = 0;
  std::uint64_t acks_sent = 0;
  double delay_sum_s = 0.0;     ///< sum of per-packet end-to-end delays
  std::uint64_t delay_samples = 0;
  sim::Time first_delivery = sim::Time::max();
  sim::Time last_delivery = sim::Time::zero();
  /// Unique segments delivered in each whole second of simulation time
  /// (Fig. 9's "throughput over the simulation time").
  std::vector<std::uint32_t> deliveries_per_second;

  // --- derived ----------------------------------------------------------
  [[nodiscard]] double avg_delay_s() const {
    return delay_samples == 0 ? 0.0
                              : delay_sum_s / static_cast<double>(delay_samples);
  }
  /// The paper's Fig. 10 metric: arrivals / transmissions.
  [[nodiscard]] double delivery_rate() const {
    return data_packets_sent == 0
               ? 0.0
               : static_cast<double>(data_packets_received) /
                     static_cast<double>(data_packets_sent);
  }

  void record_delivery_second(sim::Time at) {
    const auto sec = static_cast<std::size_t>(at.to_seconds());
    if (deliveries_per_second.size() <= sec) {
      deliveries_per_second.resize(sec + 1, 0);
    }
    ++deliveries_per_second[sec];
  }
};

}  // namespace mts::tcp
