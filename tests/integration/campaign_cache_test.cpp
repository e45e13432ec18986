// Shards are the campaign cache: every run a campaign reports has been
// through a shard file, so a shard round trip has to reproduce the
// direct runs bit-for-bit, a re-run that finds every shard must resume
// instead of simulating, anything short of a complete, current-header
// shard must be a miss, and any config change that affects results
// must change the campaign key.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "harness/shard_store.hpp"
#include "harness/work_unit.hpp"
#include "integration/campaign_fixture.hpp"

namespace mts::harness {
namespace {

class CampaignCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    setenv("MTS_BENCH_CACHE_DIR", dir_.path().c_str(), 1);
    unsetenv("MTS_BENCH_NO_CACHE");
  }
  void TearDown() override {
    unsetenv("MTS_BENCH_CACHE_DIR");
    unsetenv("MTS_BENCH_NO_CACHE");
  }

  static CampaignConfig tiny() {
    CampaignConfig cfg;
    cfg.base.node_count = 15;
    cfg.base.sim_time = sim::Time::sec(3);
    cfg.speeds = {5};
    cfg.protocols = {Protocol::kAodv};
    cfg.repetitions = 2;
    return cfg;
  }

  static FabricConfig quick_fabric() {
    FabricConfig fab;
    fab.workers = 2;
    return fab;
  }

  /// The campaign as the fabric reports it: every row read back from
  /// its shard in the per-test cache directory.
  static CampaignResult via_shards(const CampaignConfig& cfg) {
    FabricReport report = run_campaign_fabric(cfg, quick_fabric());
    EXPECT_TRUE(report.failures.empty());
    return std::move(report.result);
  }

  /// The first unit of a campaign (its first run: the grid is narrow)
  /// and its shard store.
  static std::pair<WorkUnit, ShardStore> first_unit(const CampaignConfig& cfg) {
    auto units = partition_campaign(cfg, 1);
    EXPECT_EQ(units.size(), cfg.repetitions);
    return {units.front(), ShardStore(ShardStore::dir_for(cfg))};
  }

  static std::string slurp(const std::filesystem::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  static void overwrite(const std::filesystem::path& path,
                        const std::string& text) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }

  ScratchDir dir_;
};

TEST_F(CampaignCacheTest, SecondRunResumesEveryShardAndMatches) {
  const CampaignConfig cfg = tiny();
  const FabricReport first = run_campaign_fabric(cfg, quick_fabric());
  EXPECT_EQ(first.units_run, first.units_total);
  EXPECT_EQ(first.units_resumed, 0u);
  // The re-run is the cache hit: every unit comes from its shard.
  const FabricReport second = run_campaign_fabric(cfg, quick_fabric());
  EXPECT_EQ(second.units_run, 0u);
  EXPECT_EQ(second.units_resumed, second.units_total);
  EXPECT_EQ(csv_of(cfg, second.result), csv_of(cfg, first.result));

  const CampaignResult fresh = run_direct(cfg);
  const auto& a = fresh.runs(Protocol::kAodv, 5);
  const auto& b = second.result.runs(Protocol::kAodv, 5);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].seed, b[i].seed);
    EXPECT_EQ(a[i].segments_delivered, b[i].segments_delivered);
    EXPECT_EQ(a[i].control_packets, b[i].control_packets);
    EXPECT_DOUBLE_EQ(a[i].relay_stddev, b[i].relay_stddev);
    EXPECT_DOUBLE_EQ(a[i].avg_delay_s, b[i].avg_delay_s);
    EXPECT_EQ(a[i].events_executed, b[i].events_executed);
  }
}

TEST_F(CampaignCacheTest, KeyChangesWithResultAffectingKnobs) {
  // One mutator per result-affecting knob; each must move the key.
#define MUTATE(field, value) \
  {#field, [](CampaignConfig& c) { c.field = value; }}
  const std::pair<const char*, void (*)(CampaignConfig&)> mutators[] = {
      MUTATE(repetitions, 3),
      MUTATE(speeds, (std::vector<double>{5, 10})),
      MUTATE(base.eavesdropper_enabled, false),
      MUTATE(base.explicit_flows, (std::vector<FlowSpec>{{2, 3}})),
      MUTATE(base.static_positions, (std::vector<mobility::Vec2>{{1, 2}})),
      MUTATE(base.fading_enabled, true),
      MUTATE(base.fading.faded_fraction, 0.5),
      MUTATE(base.fading.fade_probability, 0.4),
      MUTATE(base.fading.coherence_time, sim::Time::sec(5)),
      MUTATE(base.tcp.max_window, 16),
      MUTATE(base.tcp.dupack_threshold, 4),
      MUTATE(base.tcp.initial_rto, sim::Time::sec(2)),
      MUTATE(base.tcp.min_rto, sim::Time::ms(200)),
      MUTATE(base.tcp.max_rto, sim::Time::sec(32)),
      MUTATE(base.tcp.rtt_alpha, 0.2),
      MUTATE(base.tcp.rtt_beta, 0.3),
      // Past the default six significant digits of a stream.
      MUTATE(base.tcp.rtt_alpha, 0.1250001),
      MUTATE(base.mts.check_period, sim::Time::sec(7)),
      MUTATE(base.mts.check_jitter, sim::Time::ms(30)),
      MUTATE(base.mts.net_diameter_ttl, 16),
      MUTATE(base.mac.data_rate_bps, 11e6),
      MUTATE(base.mac.basic_rate_bps, 1e6),
      MUTATE(base.mac.slot, sim::Time::us(9)),
      MUTATE(base.mac.sifs, sim::Time::us(16)),
      MUTATE(base.mac.difs, sim::Time::us(34)),
      MUTATE(base.mac.plcp_overhead, sim::Time::us(96)),
      MUTATE(base.mac.cw_min, 15),
      MUTATE(base.mac.cw_max, 255),
      MUTATE(base.mac.retry_limit, 4),
      MUTATE(base.mac.data_header_bytes, 30),
      MUTATE(base.mac.ack_bytes, 16),
      MUTATE(base.mac.rts_bytes, 22),
      MUTATE(base.mac.cts_bytes, 16),
      MUTATE(base.mac.queue_capacity, 64),
      MUTATE(base.mac.rts_threshold_bytes, 500),
      MUTATE(base.mac.timeout_slack, sim::Time::us(50)),
  };
#undef MUTATE
  const std::string base = campaign_key(tiny());
  for (const auto& [field, mutate] : mutators) {
    CampaignConfig other = tiny();
    mutate(other);
    EXPECT_NE(campaign_key(other), base) << field;
  }
  EXPECT_EQ(base, campaign_key(tiny()));
}

TEST_F(CampaignCacheTest, AdversaryAxisRoundTripsAndChangesTheKey) {
  CampaignConfig cfg = tiny();
  // Dense enough to actually deliver traffic: a zero-traffic grid would
  // make every double comparison below pass vacuously at 0.0.
  cfg.base.field = {400.0, 400.0};
  cfg.base.sim_time = sim::Time::sec(5);
  security::AdversarySpec coalition;
  coalition.kind = security::AdversaryKind::kColluding;
  coalition.count = 2;
  cfg.adversaries = {security::AdversarySpec{}, coalition};
  EXPECT_NE(campaign_key(cfg), campaign_key(tiny()));

  const CampaignResult fresh = run_direct(cfg);
  const CampaignResult cached = via_shards(cfg);
  EXPECT_EQ(cached.total_runs(), fresh.total_runs());
  const auto& a = fresh.runs(Protocol::kAodv, 5, 1);
  const auto& b = cached.runs(Protocol::kAodv, 5, 1);
  ASSERT_EQ(a.size(), b.size());
  ASSERT_FALSE(a.empty());
  std::uint64_t delivered = 0;
  std::uint64_t captured = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    delivered += a[i].segments_delivered;
    captured += a[i].coalition_captured;
    EXPECT_EQ(a[i].adversary_kind, security::AdversaryKind::kColluding);
    EXPECT_EQ(b[i].adversary_kind, a[i].adversary_kind);
    EXPECT_EQ(b[i].adversary_count, a[i].adversary_count);
    EXPECT_EQ(b[i].coalition_captured, a[i].coalition_captured);
    EXPECT_EQ(b[i].fragments_missing, a[i].fragments_missing);
    EXPECT_EQ(b[i].adversary_members, a[i].adversary_members);
    EXPECT_FALSE(a[i].adversary_members.empty());
    // Exact: the CSV stores doubles in shortest round-trip form.
    EXPECT_DOUBLE_EQ(b[i].coalition_interception_ratio,
                     a[i].coalition_interception_ratio);
    EXPECT_DOUBLE_EQ(b[i].delivery_rate, a[i].delivery_rate);
    EXPECT_DOUBLE_EQ(b[i].avg_delay_s, a[i].avg_delay_s);
  }
  EXPECT_GT(delivered, 0u) << "grid produced no traffic; round-trip vacuous";
  EXPECT_GT(captured, 0u) << "coalition saw nothing; round-trip vacuous";

  // A different coalition size is a different sweep.
  CampaignConfig other = cfg;
  other.adversaries[1].count = 3;
  EXPECT_NE(campaign_key(cfg), campaign_key(other));
}

TEST_F(CampaignCacheTest, ActiveAttackMetricsRoundTrip) {
  CampaignConfig cfg = tiny();
  cfg.base.field = {400.0, 400.0};
  cfg.base.sim_time = sim::Time::sec(5);
  security::AdversarySpec gray;
  gray.kind = security::AdversaryKind::kGrayhole;
  // Most of the 13 intermediates: some member is on the forwarding path
  // whatever the seed picks, so the absorbed counters are non-vacuous.
  gray.count = 8;
  gray.drop_prob = 0.4;
  security::AdversarySpec flood;
  flood.kind = security::AdversaryKind::kRreqFlood;
  flood.count = 1;
  flood.flood_rate = 4.0;
  cfg.adversaries = {gray, flood};

  const CampaignResult fresh = run_direct(cfg);
  const CampaignResult cached = via_shards(cfg);
  std::uint64_t gray_absorbed = 0;
  std::uint64_t injected = 0;
  for (std::uint32_t a = 0; a < 2; ++a) {
    const auto& want = fresh.runs(Protocol::kAodv, 5, a);
    const auto& got = cached.runs(Protocol::kAodv, 5, a);
    ASSERT_EQ(want.size(), got.size());
    ASSERT_FALSE(want.empty());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].adversary_kind, want[i].adversary_kind);
      EXPECT_EQ(got[i].wormhole_tunneled, want[i].wormhole_tunneled);
      EXPECT_EQ(got[i].grayhole_absorbed, want[i].grayhole_absorbed);
      EXPECT_EQ(got[i].flood_injected, want[i].flood_injected);
      EXPECT_DOUBLE_EQ(got[i].endpoint_inference_accuracy,
                       want[i].endpoint_inference_accuracy);
      gray_absorbed += want[i].grayhole_absorbed;
      injected += want[i].flood_injected;
    }
  }
  EXPECT_GT(gray_absorbed, 0u) << "grayhole cells ate nothing; vacuous";
  EXPECT_GT(injected, 0u) << "flood cells injected nothing; vacuous";

  // The new knobs are result-affecting, so they must key the cache.
  CampaignConfig other = cfg;
  other.adversaries[0].drop_prob = 0.8;
  EXPECT_NE(campaign_key(cfg), campaign_key(other));
  other = cfg;
  other.adversaries[1].flood_rate = 9.0;
  EXPECT_NE(campaign_key(cfg), campaign_key(other));
  other = cfg;
  other.adversaries[0].active_period = sim::Time::sec(4);
  EXPECT_NE(campaign_key(cfg), campaign_key(other));
}

TEST_F(CampaignCacheTest, DefenseMetricsRoundTrip) {
  CampaignConfig cfg = tiny();
  cfg.base.field = {400.0, 400.0};
  cfg.base.sim_time = sim::Time::sec(5);
  cfg.protocols = {Protocol::kMts};
  security::AdversarySpec blackhole;
  blackhole.kind = security::AdversaryKind::kBlackhole;
  // Most of the intermediates: some member sits on the forwarding path
  // whatever the seed picks, so detection is non-vacuous.
  blackhole.count = 8;
  cfg.adversaries = {blackhole};
  security::DefenseSpec acked;
  acked.kind = security::DefenseKind::kAckedChecking;
  cfg.defenses = {security::DefenseSpec{}, acked};

  const CampaignResult fresh = run_direct(cfg);
  const CampaignResult cached = via_shards(cfg);
  EXPECT_EQ(cached.total_runs(), fresh.total_runs());
  std::uint64_t probes = 0;
  for (std::uint32_t d = 0; d < 2; ++d) {
    const auto& want = fresh.runs(Protocol::kMts, 5, 0, d);
    const auto& got = cached.runs(Protocol::kMts, 5, 0, d);
    ASSERT_EQ(want.size(), got.size());
    ASSERT_FALSE(want.empty());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].defense_index, want[i].defense_index);
      EXPECT_EQ(got[i].defense_kind, want[i].defense_kind);
      EXPECT_EQ(got[i].paths_quarantined, want[i].paths_quarantined);
      EXPECT_EQ(got[i].flood_suppressed, want[i].flood_suppressed);
      EXPECT_EQ(got[i].probes_sent, want[i].probes_sent);
      EXPECT_DOUBLE_EQ(got[i].detection_time_s, want[i].detection_time_s);
      EXPECT_DOUBLE_EQ(got[i].recovery_time_s, want[i].recovery_time_s);
      EXPECT_DOUBLE_EQ(got[i].false_positive_rate,
                       want[i].false_positive_rate);
      probes += want[i].probes_sent;
    }
  }
  EXPECT_GT(probes, 0u) << "defended cells never probed; round-trip vacuous";

  // The defense knobs are result-affecting, so they must key the cache.
  CampaignConfig other = cfg;
  other.defenses[1].probe_period = sim::Time::ms(900);
  EXPECT_NE(campaign_key(cfg), campaign_key(other));
  other = cfg;
  other.defenses[1].demote_threshold = 0.6;
  EXPECT_NE(campaign_key(cfg), campaign_key(other));
  other = cfg;
  other.defenses[1].rreq_rate = 4.0;
  EXPECT_NE(campaign_key(cfg), campaign_key(other));
  other = cfg;
  other.defenses.pop_back();
  EXPECT_NE(campaign_key(cfg), campaign_key(other));
}

TEST_F(CampaignCacheTest, SecrecyMetricsRoundTrip) {
  CampaignConfig cfg = tiny();
  cfg.base.field = {400.0, 400.0};
  cfg.base.sim_time = sim::Time::sec(5);
  cfg.protocols = {Protocol::kMts};
  cfg.base.secrecy.enabled = true;
  security::AdversarySpec coalition;
  coalition.kind = security::AdversaryKind::kColluding;
  coalition.count = 4;
  cfg.adversaries = {coalition};

  const CampaignResult fresh = run_direct(cfg);
  const CampaignResult cached = via_shards(cfg);
  const auto& want = fresh.runs(Protocol::kMts, 5, 0);
  const auto& got = cached.runs(Protocol::kMts, 5, 0);
  ASSERT_EQ(want.size(), got.size());
  ASSERT_FALSE(want.empty());
  std::uint64_t shares = 0;
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].secrecy_shares, 5u);
    EXPECT_EQ(want[i].secrecy_threshold, 5u);
    EXPECT_EQ(got[i].secrecy_shares, want[i].secrecy_shares);
    EXPECT_EQ(got[i].secrecy_threshold, want[i].secrecy_threshold);
    EXPECT_EQ(got[i].shares_captured, want[i].shares_captured);
    EXPECT_EQ(got[i].keys_recovered, want[i].keys_recovered);
    EXPECT_DOUBLE_EQ(got[i].key_recovery_rate, want[i].key_recovery_rate);
    shares += want[i].shares_captured;
  }
  EXPECT_GT(shares, 0u) << "coalition captured no share; round-trip vacuous";

  // The game knobs are result-affecting, so they must key the cache.
  CampaignConfig other = cfg;
  other.base.secrecy.enabled = false;
  EXPECT_NE(campaign_key(cfg), campaign_key(other));
  other = cfg;
  other.base.secrecy.threshold = 2;
  EXPECT_NE(campaign_key(cfg), campaign_key(other));
  other = cfg;
  other.base.secrecy.key_bytes = 32;
  EXPECT_NE(campaign_key(cfg), campaign_key(other));
}

TEST_F(CampaignCacheTest, FailedRowsRoundTripThroughAShard) {
  CampaignConfig cfg = tiny();
  cfg.repetitions = 1;
  auto [unit, store] = first_unit(cfg);
  ASSERT_TRUE(store.prepare());
  // A degraded fabric row: status/attempts/error must survive a write
  // + read, with the error message collapsed to a single CSV cell.
  const std::vector<RunMetrics> rows{failed_run_metrics(
      cfg, unit.cells.front(), 0, 3, "timeout, then crash")};
  ASSERT_TRUE(store.write(unit, rows, nullptr));
  std::vector<RunMetrics> back;
  ASSERT_EQ(store.read(unit, back), ShardStore::State::kFailed);
  ASSERT_EQ(back.size(), 1u);
  EXPECT_EQ(back[0].run_status, RunStatus::kFailed);
  EXPECT_EQ(back[0].attempts, 3u);
  EXPECT_EQ(back[0].run_error, "timeout  then crash");
  EXPECT_EQ(back[0].seed, cfg.seed_base);
}

TEST_F(CampaignCacheTest, TrafficAxisRoundTripsAndChangesTheKey) {
  CampaignConfig cfg = tiny();
  cfg.base.field = {400.0, 400.0};
  cfg.base.sim_time = sim::Time::sec(5);
  traffic::TrafficSpec on;
  on.enabled = true;
  on.gateway_count = 2;
  on.user_pool = 6;
  on.session_rate = 5.0;
  // Two concurrent flows at most: later arrivals are shed, so the
  // rejected-session count below is non-vacuous.
  on.max_concurrent_flows = 2;
  cfg.traffics = {traffic::TrafficSpec{}, on};
  EXPECT_NE(campaign_key(cfg), campaign_key(tiny()));

  const CampaignResult fresh = run_direct(cfg);
  const CampaignResult cached = via_shards(cfg);
  EXPECT_EQ(cached.total_runs(), fresh.total_runs());
  for (std::uint32_t t = 0; t < 2; ++t) {
    const auto& want = fresh.runs(Protocol::kAodv, 5, 0, 0, t);
    const auto& got = cached.runs(Protocol::kAodv, 5, 0, 0, t);
    ASSERT_EQ(want.size(), got.size());
    ASSERT_FALSE(want.empty());
    for (std::size_t i = 0; i < want.size(); ++i) {
      EXPECT_EQ(got[i].traffic_index, t);
      EXPECT_EQ(got[i].sessions_started, want[i].sessions_started);
      EXPECT_EQ(got[i].sessions_completed, want[i].sessions_completed);
      EXPECT_EQ(got[i].sessions_rejected, want[i].sessions_rejected);
      if (t == 0) {
        EXPECT_EQ(want[i].sessions_started, 0u);
      }
      for (std::size_t c = 0; c < traffic::kUserClassCount; ++c) {
        EXPECT_EQ(got[i].traffic_classes[c].flows_completed,
                  want[i].traffic_classes[c].flows_completed);
        // Exact: the CSV stores doubles in shortest round-trip form.
        EXPECT_DOUBLE_EQ(got[i].traffic_classes[c].delay_p50_ms,
                         want[i].traffic_classes[c].delay_p50_ms);
        EXPECT_DOUBLE_EQ(got[i].traffic_classes[c].delay_p95_ms,
                         want[i].traffic_classes[c].delay_p95_ms);
        EXPECT_DOUBLE_EQ(got[i].traffic_classes[c].delay_p99_ms,
                         want[i].traffic_classes[c].delay_p99_ms);
        EXPECT_DOUBLE_EQ(got[i].traffic_classes[c].goodput_p50_seg_s,
                         want[i].traffic_classes[c].goodput_p50_seg_s);
        EXPECT_DOUBLE_EQ(got[i].traffic_classes[c].key_exposure,
                         want[i].traffic_classes[c].key_exposure);
      }
    }
  }
  // Non-vacuous: the enabled half of the grid actually ran sessions and
  // shed some at the flow cap.
  std::uint64_t sessions = 0;
  std::uint64_t rejected = 0;
  for (const RunMetrics& r : fresh.runs(Protocol::kAodv, 5, 0, 0, 1)) {
    sessions += r.sessions_started;
    rejected += r.sessions_rejected;
  }
  EXPECT_GT(sessions, 0u) << "traffic-on cells started no session; vacuous";
  EXPECT_GT(rejected, 0u) << "no session rejected; sessions_rejected vacuous";

  // The workload knobs are result-affecting, so they must key the cache.
  CampaignConfig other = cfg;
  other.traffics[1].session_rate = 9.0;
  EXPECT_NE(campaign_key(cfg), campaign_key(other));
  other = cfg;
  other.traffics[1].bulk_fraction = 0.9;
  EXPECT_NE(campaign_key(cfg), campaign_key(other));
  other = cfg;
  other.traffics[1].diurnal = {1.0, 2.0};
  EXPECT_NE(campaign_key(cfg), campaign_key(other));
  other = cfg;
  other.traffics[1].bulk.max_segments = 99;
  EXPECT_NE(campaign_key(cfg), campaign_key(other));
  other = cfg;
  other.traffics.pop_back();
  EXPECT_NE(campaign_key(cfg), campaign_key(other));
}

TEST_F(CampaignCacheTest, TruncationAtEveryByteOfTheLastRowIsAMiss) {
  // The crash-safety contract: shard writes are atomic (tmp + rename),
  // and even if a filesystem breaks that promise, `read` must reject a
  // shard cut at ANY byte offset of its last row — never ingest a
  // silently shortened row or a plausible-looking prefix.
  const CampaignConfig cfg = tiny();
  via_shards(cfg);
  auto [unit, store] = first_unit(cfg);
  const auto path = store.path_of(unit);
  ASSERT_TRUE(std::filesystem::exists(path));
  const std::string text = slurp(path);
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n');
  // Start of the last row: one past the previous newline.
  const std::size_t last_row = text.rfind('\n', text.size() - 2) + 1;
  ASSERT_GT(text.size() - last_row, 100u) << "last row implausibly short";
  std::vector<RunMetrics> rows;
  for (std::size_t cut = last_row; cut < text.size(); ++cut) {
    overwrite(path, text.substr(0, cut));
    EXPECT_EQ(store.read(unit, rows), ShardStore::State::kMissing)
        << "truncation to " << cut << " bytes (row byte "
        << (cut - last_row) << ") was ingested";
    // A rejected shard is deleted so the supervisor re-runs the unit.
    EXPECT_FALSE(std::filesystem::exists(path));
  }
  // Restoring the full file restores the hit.
  overwrite(path, text);
  EXPECT_EQ(store.read(unit, rows), ShardStore::State::kOk);
}

TEST_F(CampaignCacheTest, CorruptOrForeignHeaderShardIsRecomputed) {
  const CampaignConfig cfg = tiny();
  const std::string want = csv_of(cfg, via_shards(cfg));
  auto [unit, store] = first_unit(cfg);
  const auto path = store.path_of(unit);
  const std::string text = slurp(path);

  // A header mismatch is a miss and is recomputed: here, the shard of a
  // binary whose last column is missing.
  const std::string old_header =
      csv::header().substr(0, csv::header().rfind(','));
  overwrite(path, old_header + text.substr(text.find('\n')));
  FabricReport again = run_campaign_fabric(cfg, quick_fabric());
  EXPECT_EQ(again.units_run, 1u);
  EXPECT_EQ(again.units_resumed, again.units_total - 1);
  EXPECT_EQ(csv_of(cfg, again.result), want);

  // Same for a shard cut short.
  std::filesystem::resize_file(path, 40);
  again = run_campaign_fabric(cfg, quick_fabric());
  EXPECT_EQ(again.units_run, 1u);
  EXPECT_EQ(csv_of(cfg, again.result), want);
}

TEST_F(CampaignCacheTest, NoCacheEnvRecomputesEveryUnit) {
  const CampaignConfig cfg = tiny();
  via_shards(cfg);
  setenv("MTS_BENCH_NO_CACHE", "1", 1);
  FabricConfig fab = quick_fabric();
  CampaignConfig scratch = cfg;  // apply_bench_env also reads the grid knobs
  apply_bench_env(scratch, fab);
  EXPECT_FALSE(fab.resume);
  const FabricReport report = run_campaign_fabric(cfg, fab);
  EXPECT_EQ(report.units_resumed, 0u);
  EXPECT_EQ(report.units_run, report.units_total);
}

}  // namespace
}  // namespace mts::harness
