// Microbenchmarks of the packet plane (google-benchmark): broadcast
// fan-out through the channel (one reception wave per transmission,
// whose one frame copy every receiver's reception end reads),
// interface-queue churn, and trace-record emission — the three places
// a packet is copied per transmission.
// These bound the per-packet cost that perf/run.py's paper50 workload
// measures end-to-end.
#include <benchmark/benchmark.h>

#include "net/headers.hpp"
#include "net/packet.hpp"
#include "net/queue.hpp"
#include "net/trace.hpp"
#include "phy/channel.hpp"
#include "phy/frame.hpp"
#include "sim/scheduler.hpp"

namespace {

using namespace mts;

/// A TCP data packet carrying a DSR source route of `hops` addresses —
/// the packet shape the paper's data plane forwards all day.
net::Packet make_routed_packet(std::size_t hops) {
  net::Packet p;
  auto& common = p.mutable_common();
  common.kind = net::PacketKind::kTcpData;
  common.src = 0;
  common.dst = static_cast<net::NodeId>(hops - 1);
  common.uid = 1;
  common.payload_bytes = 512;
  net::TcpHeader th;
  th.seq = 7;
  th.flow_id = 1;
  p.mutable_tcp() = th;
  net::DsrSourceRoute sr;
  for (std::size_t i = 0; i < hops; ++i) {
    sr.route.push_back(static_cast<net::NodeId>(i));
  }
  p.mutable_routing() = std::move(sr);
  return p;
}

/// One broadcast radiated to `k` in-range receivers: the wave walks
/// every arrival and every reception end, each receiver keeps a copy
/// until its decode.  This is the RREQ-flood hot loop.
void BM_BroadcastFanout(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  sim::Scheduler sched;
  std::vector<mobility::Trajectory> trajectories;
  for (std::uint32_t i = 0; i <= k; ++i) {
    // All nodes inside decode range of node 0 (and of each other).
    trajectories.emplace_back(mobility::Vec2{static_cast<double>(i % 8),
                                             static_cast<double>(i / 8)});
  }
  phy::Channel channel(sched, std::move(trajectories), 250.0);

  phy::Frame f;
  f.type = phy::FrameType::kData;
  f.transmitter = 0;
  f.receiver = net::kBroadcastId;
  f.bytes = 560;
  f.payload = make_routed_packet(8);

  const sim::Time airtime = sim::Time::us(500);
  for (auto _ : state) {
    channel.transmit(0, f, airtime);
    sched.run();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * k);
}
BENCHMARK(BM_BroadcastFanout)->Arg(10)->Arg(40);

/// Interface-queue churn: enqueue a copy of a route-carrying packet,
/// dequeue it, throw it away — the per-hop cost of passing through the
/// priority queue.
void BM_QueueChurn(benchmark::State& state) {
  net::PriQueue q(50);
  const net::Packet p = make_routed_packet(8);
  for (auto _ : state) {
    net::Packet copy = p;
    auto dropped = q.enqueue(net::QueueItem{std::move(copy), 1});
    benchmark::DoNotOptimize(dropped);
    auto out = q.dequeue();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_QueueChurn);

/// Trace emission with one subscribed sink: the TraceRecord carries the
/// packet, so this measures what every traced hop pays.
void BM_TraceEmit(benchmark::State& state) {
  net::TraceHub hub;
  std::uint64_t seen = 0;
  hub.subscribe([&seen](const net::TraceRecord& r) {
    seen += r.packet.wire_bytes();
  });
  const net::Packet p = make_routed_packet(8);
  for (auto _ : state) {
    hub.emit_lazy([&] {
      return net::TraceRecord{sim::Time::zero(), 0, net::TraceOp::kForward, p,
                              {}};
    });
  }
  benchmark::DoNotOptimize(seen);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_TraceEmit);

}  // namespace

BENCHMARK_MAIN();
