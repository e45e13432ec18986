// Microbenchmarks of the simulator substrate (google-benchmark):
// the event scheduler, RNG substreams, priority interface queue,
// spatial neighbour index, random-waypoint evaluation, and the relay
// census math.  These bound what a 200 s / 50-node run costs and guard
// against regressions in the hot paths.
#include <benchmark/benchmark.h>

#include <deque>
#include <vector>

#include "mobility/trajectory.hpp"
#include "net/queue.hpp"
#include "phy/neighbor_index.hpp"
#include "security/relay_census.hpp"
#include "sim/rng.hpp"
#include "sim/scheduler.hpp"
#include "sim/timer.hpp"

namespace {

using namespace mts;

void BM_SchedulerScheduleRun(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Scheduler sched;
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      sched.schedule_at(sim::Time::ns(static_cast<std::int64_t>(i * 7 % 1000)),
                        [&sum, i] { sum += i; });
    }
    sched.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchedulerScheduleRun)->Arg(1000)->Arg(100000);

void BM_SchedulerCancelHeavy(benchmark::State& state) {
  // Half the events get cancelled — the MAC does this constantly
  // (backoff freezes, ACK timers).
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Scheduler sched;
    std::vector<sim::EventId> ids;
    ids.reserve(n);
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < n; ++i) {
      ids.push_back(sched.schedule_at(
          sim::Time::us(static_cast<std::int64_t>(i)), [&sum] { ++sum; }));
    }
    for (std::size_t i = 0; i < n; i += 2) sched.cancel(ids[i]);
    sched.run();
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchedulerCancelHeavy)->Arg(10000);

void BM_SchedulerTimerRearm(benchmark::State& state) {
  // The ACK/RTO/backoff idiom: a member timer is re-armed over and over,
  // firing only rarely relative to how often it is restarted.
  struct Counter {
    std::uint64_t fired = 0;
    void fire() { ++fired; }
  };
  const auto n = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    sim::Scheduler sched;
    Counter counter;
    sim::Timer timer(sched, sim::bind<&Counter::fire>(&counter));
    for (std::size_t i = 0; i < n; ++i) {
      timer.schedule_in(sim::Time::us(100));
    }
    sched.run();
    benchmark::DoNotOptimize(counter.fired);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SchedulerTimerRearm)->Arg(10000);

void BM_SchedulerParkRearm(benchmark::State& state) {
  // The MAC access-timer shape: each of K timers is armed about 300 us
  // ahead and parked again (a busy edge freezes the backoff) before it
  // fires, over a background of 10k far-future events.  One iteration
  // is one such cycle of every timer, then 10 us of simulated time.
  struct Counter {
    std::uint64_t fired = 0;
    void fire() { ++fired; }
  };
  const auto k = static_cast<std::size_t>(state.range(0));
  sim::Scheduler sched;
  for (std::int64_t i = 0; i < 10000; ++i) {
    sched.schedule_at(sim::Time::sec(1000) + sim::Time::us(i), [] {});
  }
  Counter counter;
  std::deque<sim::Timer> timers;
  for (std::size_t i = 0; i < k; ++i) {
    timers.emplace_back(sched, sim::bind<&Counter::fire>(&counter),
                        sim::EventCategory::kMac);
  }
  for (auto _ : state) {
    std::int64_t jitter = 0;
    for (sim::Timer& t : timers) {
      t.schedule_in(sim::Time::us(300 + jitter));
      t.cancel();
      jitter = (jitter + 7) % 20;
    }
    sched.run_until(sched.now() + sim::Time::us(10));
  }
  benchmark::DoNotOptimize(counter.fired);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(k));
}
BENCHMARK(BM_SchedulerParkRearm)->Arg(16)->Arg(1000);

void BM_RngUniform(benchmark::State& state) {
  sim::Rng rng(1);
  double acc = 0;
  for (auto _ : state) acc += rng.uniform();
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngUniform);

// A fresh stream's first draw: the 156-step cursor set-up, run alone.
void BM_RngFirstDraw(benchmark::State& state) {
  std::uint64_t seed = 1;
  double acc = 0;
  for (auto _ : state) {
    sim::Rng rng(seed++);
    acc += rng.uniform();
  }
  benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RngFirstDraw);

// N fresh streams set up together in one interleaved pass, then one draw
// each: what a scenario build pays per block of nodes.
void BM_RngBlockStart(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  std::vector<sim::Rng> block;
  block.reserve(n);
  std::uint64_t seed = 1;
  double acc = 0;
  for (auto _ : state) {
    block.clear();
    for (std::size_t k = 0; k < n; ++k) block.emplace_back(seed++);
    sim::Rng::start(block);
    for (sim::Rng& rng : block) acc += rng.uniform();
  }
  benchmark::DoNotOptimize(acc);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_RngBlockStart)->Arg(8);

void BM_PriQueueEnqueueDequeue(benchmark::State& state) {
  net::Packet data;
  data.mutable_common().kind = net::PacketKind::kTcpData;
  net::Packet ctrl;
  ctrl.mutable_common().kind = net::PacketKind::kAodvRreq;
  for (auto _ : state) {
    net::PriQueue q(50);
    for (int i = 0; i < 40; ++i) q.enqueue({data, 1});
    for (int i = 0; i < 10; ++i) q.enqueue({ctrl, net::kBroadcastId});
    while (auto item = q.dequeue()) benchmark::DoNotOptimize(item);
  }
}
BENCHMARK(BM_PriQueueEnqueueDequeue);

void BM_NeighborIndexQuery(benchmark::State& state) {
  const auto n = static_cast<std::uint32_t>(state.range(0));
  sim::Rng rng(7);
  std::vector<mobility::Vec2> pos;
  pos.reserve(n);
  for (std::uint32_t i = 0; i < n; ++i) {
    pos.push_back({rng.uniform(0, 1000), rng.uniform(0, 1000)});
  }
  phy::NeighborIndex index(
      n, 250.0, 20.0, sim::Time::ms(500),
      [&pos](std::uint32_t id, sim::Time) { return pos[id]; });
  std::uint32_t q = 0;
  for (auto _ : state) {
    const auto& c = index.candidates(pos[q % n], 250.0, sim::Time::zero());
    benchmark::DoNotOptimize(c.data());
    ++q;
  }
}
BENCHMARK(BM_NeighborIndexQuery)->Arg(50)->Arg(500);

void BM_RandomWaypointQuery(benchmark::State& state) {
  mobility::RandomWaypointConfig cfg;
  cfg.max_speed = 20.0;
  mobility::Trajectory rwp(cfg, sim::Rng(3));
  std::int64_t t = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(rwp.position_at(sim::Time::ms(t % 200000)));
    t += 137;
  }
}
BENCHMARK(BM_RandomWaypointQuery);

void BM_RelayCensus(benchmark::State& state) {
  sim::Rng rng(11);
  std::vector<std::pair<net::NodeId, std::uint64_t>> betas;
  for (net::NodeId i = 0; i < 48; ++i) {
    betas.emplace_back(
        i, static_cast<std::uint64_t>(rng.uniform_int(0, 20000)));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(security::analyze_relays(betas));
  }
}
BENCHMARK(BM_RelayCensus);

}  // namespace

BENCHMARK_MAIN();
