// The sweep cache must be a pure optimization: a cache round-trip has
// to reproduce the campaign bit-for-bit, and any config change that
// affects results must change the key.
#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>

#include "harness/campaign_cache.hpp"
#include "harness/work_unit.hpp"

namespace mts::harness {
namespace {

class CampaignCacheTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("mts_cache_test_" + std::to_string(::getpid()));
    setenv("MTS_BENCH_CACHE_DIR", dir_.c_str(), 1);
    unsetenv("MTS_BENCH_NO_CACHE");
  }
  void TearDown() override {
    unsetenv("MTS_BENCH_CACHE_DIR");
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
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

  std::filesystem::path dir_;
};

TEST_F(CampaignCacheTest, MissThenHitRoundTripsAllMetrics) {
  const CampaignConfig cfg = tiny();
  EXPECT_FALSE(CampaignCache::load(cfg).has_value());
  const CampaignResult fresh = CampaignCache::run(cfg);
  const auto cached = CampaignCache::load(cfg);
  ASSERT_TRUE(cached.has_value());
  const auto& a = fresh.runs(Protocol::kAodv, 5);
  const auto& b = cached->runs(Protocol::kAodv, 5);
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
  const CampaignConfig base = tiny();
  CampaignConfig other = base;
  other.base.mts.check_period = sim::Time::sec(7);
  EXPECT_NE(CampaignCache::key_of(base), CampaignCache::key_of(other));

  other = base;
  other.base.tcp.max_window = 16;
  EXPECT_NE(CampaignCache::key_of(base), CampaignCache::key_of(other));

  other = base;
  other.repetitions = 3;
  EXPECT_NE(CampaignCache::key_of(base), CampaignCache::key_of(other));

  other = base;
  other.speeds = {5, 10};
  EXPECT_NE(CampaignCache::key_of(base), CampaignCache::key_of(other));

  other = base;
  other.base.aodv.local_repair = true;
  EXPECT_NE(CampaignCache::key_of(base), CampaignCache::key_of(other));

  // Thread count must NOT change the key: it cannot affect results.
  other = base;
  other.threads = 7;
  EXPECT_EQ(CampaignCache::key_of(base), CampaignCache::key_of(other));
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
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(tiny()));

  const CampaignResult fresh = CampaignCache::run(cfg);
  const auto cached = CampaignCache::load(cfg);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->total_runs(), fresh.total_runs());
  const auto& a = fresh.runs(Protocol::kAodv, 5, 1);
  const auto& b = cached->runs(Protocol::kAodv, 5, 1);
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
    // Exact: the CSV stores doubles at max_digits10.
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
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
}

TEST_F(CampaignCacheTest, ActiveAttackMetricsRoundTripInV6Columns) {
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

  const CampaignResult fresh = CampaignCache::run(cfg);
  const auto cached = CampaignCache::load(cfg);
  ASSERT_TRUE(cached.has_value());
  std::uint64_t gray_absorbed = 0;
  std::uint64_t injected = 0;
  for (std::uint32_t a = 0; a < 2; ++a) {
    const auto& want = fresh.runs(Protocol::kAodv, 5, a);
    const auto& got = cached->runs(Protocol::kAodv, 5, a);
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
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
  other = cfg;
  other.adversaries[1].flood_rate = 9.0;
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
  other = cfg;
  other.adversaries[0].active_period = sim::Time::sec(4);
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
}

TEST_F(CampaignCacheTest, DefenseMetricsRoundTripInV7Columns) {
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

  const CampaignResult fresh = CampaignCache::run(cfg);
  const auto cached = CampaignCache::load(cfg);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->total_runs(), fresh.total_runs());
  std::uint64_t probes = 0;
  for (std::uint32_t d = 0; d < 2; ++d) {
    const auto& want = fresh.runs(Protocol::kMts, 5, 0, d);
    const auto& got = cached->runs(Protocol::kMts, 5, 0, d);
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
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
  other = cfg;
  other.defenses[1].demote_threshold = 0.6;
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
  other = cfg;
  other.defenses[1].rreq_rate = 4.0;
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
  other = cfg;
  other.defenses.pop_back();
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
}

TEST_F(CampaignCacheTest, SecrecyMetricsRoundTripInV8Columns) {
  CampaignConfig cfg = tiny();
  cfg.base.field = {400.0, 400.0};
  cfg.base.sim_time = sim::Time::sec(5);
  cfg.protocols = {Protocol::kMts};
  cfg.base.secrecy.enabled = true;
  security::AdversarySpec coalition;
  coalition.kind = security::AdversaryKind::kColluding;
  coalition.count = 4;
  cfg.adversaries = {coalition};

  const CampaignResult fresh = CampaignCache::run(cfg);
  const auto cached = CampaignCache::load(cfg);
  ASSERT_TRUE(cached.has_value());
  const auto& want = fresh.runs(Protocol::kMts, 5, 0);
  const auto& got = cached->runs(Protocol::kMts, 5, 0);
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
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
  other = cfg;
  other.base.secrecy.threshold = 2;
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
  other = cfg;
  other.base.secrecy.key_bytes = 32;
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
}

TEST_F(CampaignCacheTest, V7RowsStillParseWithSecrecyMetricsZeroed) {
  // Forward compatibility: a cache file written before the v8 columns
  // (46 cells, v7 header) must load, with the five secrecy-game metrics
  // defaulting to zero.  This is the exact v7 header and a row as the
  // previous binary wrote them.
  CampaignConfig cfg = tiny();
  cfg.speeds = {5};
  cfg.protocols = {Protocol::kAodv};
  cfg.repetitions = 1;

  const char* v7_header =
      "protocol,speed,seed,participating,relay_stddev,alpha,max_beta,"
      "highest_ri,pe,pr,ri,delay_s,thr_seg_s,thr_kbps,delivery,delivered,"
      "data_sent,retx,timeouts,acks_sent,acks_recv,eavesdropper,ctrl,"
      "switches,checks,events,adv_index,adv_kind,adv_count,adv_captured,"
      "adv_ri,adv_missing,adv_absorbed,adv_tunneled,adv_gray_absorbed,"
      "adv_endpoint_acc,adv_flood_injected,def_index,def_kind,def_detect_s,"
      "def_quarantined,def_recovery_s,def_fpr,def_suppressed,def_probes,"
      "adv_members";
  const char* v7_row =
      "1,5,1,7,0.25,120,30,0.125,4,80,0.05,0.033,26.5,217.1,0.93,80,86,3,1,"
      "80,78,12,45,0,0,123456,0,4,2,10,0.1,70,5,17,3,0.5,40,0,1,2.5,3,4.5,"
      "0.25,6,7,2.5.";

  std::filesystem::create_directories(dir_);
  const auto path = dir_ / (CampaignCache::key_of(cfg) + ".csv");
  {
    std::ofstream out(path);
    out << v7_header << '\n' << v7_row << '\n';
  }
  const auto loaded = CampaignCache::load(cfg);
  ASSERT_TRUE(loaded.has_value()) << "v7 cache file rejected";
  const auto& runs = loaded->runs(Protocol::kAodv, 5);
  ASSERT_EQ(runs.size(), 1u);
  const RunMetrics& m = runs[0];
  EXPECT_EQ(m.seed, 1u);
  EXPECT_EQ(m.segments_delivered, 80u);
  // The v7 defense columns parse...
  EXPECT_EQ(m.defense_index, 0u);
  EXPECT_DOUBLE_EQ(m.detection_time_s, 2.5);
  EXPECT_EQ(m.paths_quarantined, 3u);
  EXPECT_EQ(m.probes_sent, 7u);
  EXPECT_EQ(m.adversary_members, (std::vector<net::NodeId>{2, 5}));
  // ...and the v8-only secrecy metrics default.
  EXPECT_EQ(m.secrecy_shares, 0u);
  EXPECT_EQ(m.secrecy_threshold, 0u);
  EXPECT_EQ(m.shares_captured, 0u);
  EXPECT_EQ(m.keys_recovered, 0u);
  EXPECT_DOUBLE_EQ(m.key_recovery_rate, 0.0);

  // Storing refreshes the file to the v8 column set, which round-trips.
  CampaignCache::store(cfg, *loaded);
  const auto reloaded = CampaignCache::load(cfg);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->runs(Protocol::kAodv, 5)[0].probes_sent, 7u);
}

TEST_F(CampaignCacheTest, V6RowsStillParseWithDefenseMetricsZeroed) {
  // Forward compatibility: a cache file written before the v7 columns
  // (38 cells, v6 header) must load, with the eight defense metrics
  // defaulting to zero.  This is the exact v6 header and a row as the
  // previous binary wrote them.
  CampaignConfig cfg = tiny();
  cfg.speeds = {5};
  cfg.protocols = {Protocol::kAodv};
  cfg.repetitions = 1;

  const char* v6_header =
      "protocol,speed,seed,participating,relay_stddev,alpha,max_beta,"
      "highest_ri,pe,pr,ri,delay_s,thr_seg_s,thr_kbps,delivery,delivered,"
      "data_sent,retx,timeouts,acks_sent,acks_recv,eavesdropper,ctrl,"
      "switches,checks,events,adv_index,adv_kind,adv_count,adv_captured,"
      "adv_ri,adv_missing,adv_absorbed,adv_tunneled,adv_gray_absorbed,"
      "adv_endpoint_acc,adv_flood_injected,adv_members";
  const char* v6_row =
      "1,5,1,7,0.25,120,30,0.125,4,80,0.05,0.033,26.5,217.1,0.93,80,86,3,1,"
      "80,78,12,45,0,0,123456,0,4,2,10,0.1,70,5,17,3,0.5,40,2.5.";

  std::filesystem::create_directories(dir_);
  const auto path = dir_ / (CampaignCache::key_of(cfg) + ".csv");
  {
    std::ofstream out(path);
    out << v6_header << '\n' << v6_row << '\n';
  }
  const auto loaded = CampaignCache::load(cfg);
  ASSERT_TRUE(loaded.has_value()) << "v6 cache file rejected";
  const auto& runs = loaded->runs(Protocol::kAodv, 5);
  ASSERT_EQ(runs.size(), 1u);
  const RunMetrics& m = runs[0];
  EXPECT_EQ(m.seed, 1u);
  EXPECT_EQ(m.segments_delivered, 80u);
  // The v6 active-attack columns parse...
  EXPECT_EQ(m.wormhole_tunneled, 17u);
  EXPECT_EQ(m.grayhole_absorbed, 3u);
  EXPECT_DOUBLE_EQ(m.endpoint_inference_accuracy, 0.5);
  EXPECT_EQ(m.flood_injected, 40u);
  EXPECT_EQ(m.adversary_members, (std::vector<net::NodeId>{2, 5}));
  // ...and the v7-only defense metrics default.
  EXPECT_EQ(m.defense_index, 0u);
  EXPECT_EQ(m.defense_kind, security::DefenseKind::kNone);
  EXPECT_DOUBLE_EQ(m.detection_time_s, 0.0);
  EXPECT_EQ(m.paths_quarantined, 0u);
  EXPECT_DOUBLE_EQ(m.recovery_time_s, 0.0);
  EXPECT_DOUBLE_EQ(m.false_positive_rate, 0.0);
  EXPECT_EQ(m.flood_suppressed, 0u);
  EXPECT_EQ(m.probes_sent, 0u);

  // Storing refreshes the file to the v7 column set, which round-trips.
  CampaignCache::store(cfg, *loaded);
  const auto reloaded = CampaignCache::load(cfg);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->runs(Protocol::kAodv, 5)[0].wormhole_tunneled, 17u);
}

TEST_F(CampaignCacheTest, V5RowsStillParseWithActiveMetricsZeroed) {
  // Forward compatibility: a cache file written before the v6 columns
  // (34 cells, v5 header) must load, with the four active-attack
  // metrics defaulting to zero.  This is the exact v5 header and a row
  // as the previous binary wrote them.
  CampaignConfig cfg = tiny();
  cfg.speeds = {5};
  cfg.protocols = {Protocol::kAodv};
  cfg.repetitions = 1;

  const char* v5_header =
      "protocol,speed,seed,participating,relay_stddev,alpha,max_beta,"
      "highest_ri,pe,pr,ri,delay_s,thr_seg_s,thr_kbps,delivery,delivered,"
      "data_sent,retx,timeouts,acks_sent,acks_recv,eavesdropper,ctrl,"
      "switches,checks,events,adv_index,adv_kind,adv_count,adv_captured,"
      "adv_ri,adv_missing,adv_absorbed,adv_members";
  const char* v5_row =
      "1,5,1,7,0.25,120,30,0.125,4,80,0.05,0.033,26.5,217.1,0.93,80,86,3,1,"
      "80,78,12,45,0,0,123456,0,0,0,0,0,80,0,-";

  std::filesystem::create_directories(dir_);
  const auto path = dir_ / (CampaignCache::key_of(cfg) + ".csv");
  {
    std::ofstream out(path);
    out << v5_header << '\n' << v5_row << '\n';
  }
  const auto loaded = CampaignCache::load(cfg);
  ASSERT_TRUE(loaded.has_value()) << "v5 cache file rejected";
  const auto& runs = loaded->runs(Protocol::kAodv, 5);
  ASSERT_EQ(runs.size(), 1u);
  const RunMetrics& m = runs[0];
  EXPECT_EQ(m.seed, 1u);
  EXPECT_EQ(m.segments_delivered, 80u);
  EXPECT_EQ(m.events_executed, 123456u);
  EXPECT_DOUBLE_EQ(m.delivery_rate, 0.93);
  // The v6-only metrics default.
  EXPECT_EQ(m.wormhole_tunneled, 0u);
  EXPECT_EQ(m.grayhole_absorbed, 0u);
  EXPECT_DOUBLE_EQ(m.endpoint_inference_accuracy, 0.0);
  EXPECT_EQ(m.flood_injected, 0u);

  // Storing refreshes the file to the v6 column set, which round-trips.
  CampaignCache::store(cfg, *loaded);
  const auto reloaded = CampaignCache::load(cfg);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->runs(Protocol::kAodv, 5)[0].segments_delivered, 80u);
}

TEST_F(CampaignCacheTest, V8RowsStillParseWithFabricColumnsDefaulted) {
  // Forward compatibility: a cache file written before the v9 fabric
  // columns (51 cells, v8 header) must load with run_status ok,
  // attempts 1 and no error — exactly what a pre-fabric binary meant.
  CampaignConfig cfg = tiny();
  cfg.speeds = {5};
  cfg.protocols = {Protocol::kAodv};
  cfg.repetitions = 1;

  const char* v8_header =
      "protocol,speed,seed,participating,relay_stddev,alpha,max_beta,"
      "highest_ri,pe,pr,ri,delay_s,thr_seg_s,thr_kbps,delivery,delivered,"
      "data_sent,retx,timeouts,acks_sent,acks_recv,eavesdropper,ctrl,"
      "switches,checks,events,adv_index,adv_kind,adv_count,adv_captured,"
      "adv_ri,adv_missing,adv_absorbed,adv_tunneled,adv_gray_absorbed,"
      "adv_endpoint_acc,adv_flood_injected,def_index,def_kind,def_detect_s,"
      "def_quarantined,def_recovery_s,def_fpr,def_suppressed,def_probes,"
      "sec_shares,sec_threshold,sec_captured,sec_keys,sec_recovery,"
      "adv_members";
  const char* v8_row =
      "1,5,1,7,0.25,120,30,0.125,4,80,0.05,0.033,26.5,217.1,0.93,80,86,3,1,"
      "80,78,12,45,0,0,123456,0,4,2,10,0.1,70,5,17,3,0.5,40,0,1,2.5,3,4.5,"
      "0.25,6,7,5,5,3,2,0.66,2.5.";

  std::filesystem::create_directories(dir_);
  const auto path = dir_ / (CampaignCache::key_of(cfg) + ".csv");
  {
    std::ofstream out(path);
    out << v8_header << '\n' << v8_row << '\n';
  }
  const auto loaded = CampaignCache::load(cfg);
  ASSERT_TRUE(loaded.has_value()) << "v8 cache file rejected";
  const auto& runs = loaded->runs(Protocol::kAodv, 5);
  ASSERT_EQ(runs.size(), 1u);
  const RunMetrics& m = runs[0];
  EXPECT_EQ(m.seed, 1u);
  // The v8 secrecy columns parse...
  EXPECT_EQ(m.secrecy_shares, 5u);
  EXPECT_EQ(m.shares_captured, 3u);
  EXPECT_DOUBLE_EQ(m.key_recovery_rate, 0.66);
  EXPECT_EQ(m.adversary_members, (std::vector<net::NodeId>{2, 5}));
  // ...and the v9-only fabric columns default to a clean run.
  EXPECT_EQ(m.run_status, RunStatus::kOk);
  EXPECT_EQ(m.attempts, 1u);
  EXPECT_TRUE(m.run_error.empty());

  // Storing refreshes the file to the v9 column set, which round-trips.
  CampaignCache::store(cfg, *loaded);
  const auto reloaded = CampaignCache::load(cfg);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->runs(Protocol::kAodv, 5)[0].shares_captured, 3u);
}

TEST_F(CampaignCacheTest, FailedRowsRoundTripInV10Columns) {
  CampaignConfig cfg = tiny();
  cfg.repetitions = 1;
  CampaignResult result;
  // A degraded fabric row: status/attempts/error must survive a store
  // + load, with the error message collapsed to a single CSV cell.
  RunMetrics m = failed_run_metrics(cfg, WorkCell{0, 0, 0, 0, 0, 0, 1}, 0, 3,
                                    "timeout, then crash");
  result.add(std::move(m));
  CampaignCache::store(cfg, result);
  const auto loaded = CampaignCache::load(cfg);
  ASSERT_TRUE(loaded.has_value());
  const auto& runs = loaded->runs(Protocol::kAodv, 5);
  ASSERT_EQ(runs.size(), 1u);
  EXPECT_EQ(runs[0].run_status, RunStatus::kFailed);
  EXPECT_EQ(runs[0].attempts, 3u);
  EXPECT_EQ(runs[0].run_error, "timeout  then crash");
  EXPECT_EQ(runs[0].seed, cfg.seed_base);
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
  cfg.traffics = {traffic::TrafficSpec{}, on};
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(tiny()));

  const CampaignResult fresh = CampaignCache::run(cfg);
  const auto cached = CampaignCache::load(cfg);
  ASSERT_TRUE(cached.has_value());
  EXPECT_EQ(cached->total_runs(), fresh.total_runs());
  for (std::uint32_t t = 0; t < 2; ++t) {
    const auto& want = fresh.runs(Protocol::kAodv, 5, 0, 0, t);
    const auto& got = cached->runs(Protocol::kAodv, 5, 0, 0, t);
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
        // Exact: the CSV stores doubles at max_digits10.
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
  // Non-vacuous: the enabled half of the grid actually ran sessions.
  std::uint64_t sessions = 0;
  for (const RunMetrics& r : fresh.runs(Protocol::kAodv, 5, 0, 0, 1)) {
    sessions += r.sessions_started;
  }
  EXPECT_GT(sessions, 0u) << "traffic-on cells started no session; vacuous";

  // The workload knobs are result-affecting, so they must key the cache.
  CampaignConfig other = cfg;
  other.traffics[1].session_rate = 9.0;
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
  other = cfg;
  other.traffics[1].bulk_fraction = 0.9;
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
  other = cfg;
  other.traffics[1].diurnal = {1.0, 2.0};
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
  other = cfg;
  other.traffics[1].bulk.max_segments = 99;
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
  other = cfg;
  other.traffics.pop_back();
  EXPECT_NE(CampaignCache::key_of(cfg), CampaignCache::key_of(other));
}

TEST_F(CampaignCacheTest, V9RowsStillParseWithTrafficColumnsDefaulted) {
  // Forward compatibility: a cache file written before the v10 traffic
  // columns (54 cells, v9 header) must load with the fifteen user-plane
  // metrics defaulting to zero.  This is the exact v9 header and a row
  // as the previous binary wrote them.
  CampaignConfig cfg = tiny();
  cfg.speeds = {5};
  cfg.protocols = {Protocol::kAodv};
  cfg.repetitions = 1;

  const char* v9_header =
      "protocol,speed,seed,participating,relay_stddev,alpha,max_beta,"
      "highest_ri,pe,pr,ri,delay_s,thr_seg_s,thr_kbps,delivery,delivered,"
      "data_sent,retx,timeouts,acks_sent,acks_recv,eavesdropper,ctrl,"
      "switches,checks,events,adv_index,adv_kind,adv_count,adv_captured,"
      "adv_ri,adv_missing,adv_absorbed,adv_tunneled,adv_gray_absorbed,"
      "adv_endpoint_acc,adv_flood_injected,def_index,def_kind,def_detect_s,"
      "def_quarantined,def_recovery_s,def_fpr,def_suppressed,def_probes,"
      "sec_shares,sec_threshold,sec_captured,sec_keys,sec_recovery,"
      "run_status,run_attempts,run_error,adv_members";
  const char* v9_row =
      "1,5,1,7,0.25,120,30,0.125,4,80,0.05,0.033,26.5,217.1,0.93,80,86,3,1,"
      "80,78,12,45,0,0,123456,0,4,2,10,0.1,70,5,17,3,0.5,40,0,1,2.5,3,4.5,"
      "0.25,6,7,5,5,3,2,0.66,ok,2,-,2.5.";

  std::filesystem::create_directories(dir_);
  const auto path = dir_ / (CampaignCache::key_of(cfg) + ".csv");
  {
    std::ofstream out(path);
    out << v9_header << '\n' << v9_row << '\n';
  }
  const auto loaded = CampaignCache::load(cfg);
  ASSERT_TRUE(loaded.has_value()) << "v9 cache file rejected";
  const auto& runs = loaded->runs(Protocol::kAodv, 5);
  ASSERT_EQ(runs.size(), 1u);
  const RunMetrics& m = runs[0];
  EXPECT_EQ(m.seed, 1u);
  // The v9 secrecy + fabric columns parse...
  EXPECT_EQ(m.shares_captured, 3u);
  EXPECT_DOUBLE_EQ(m.key_recovery_rate, 0.66);
  EXPECT_EQ(m.run_status, RunStatus::kOk);
  EXPECT_EQ(m.attempts, 2u);
  EXPECT_EQ(m.adversary_members, (std::vector<net::NodeId>{2, 5}));
  // ...and the v10-only user-plane metrics default: the row predates
  // the traffic plane, so it can only mean "workload off".
  EXPECT_EQ(m.traffic_index, 0u);
  EXPECT_EQ(m.sessions_started, 0u);
  EXPECT_EQ(m.sessions_completed, 0u);
  EXPECT_EQ(m.sessions_rejected, 0u);
  for (const auto& c : m.traffic_classes) {
    EXPECT_EQ(c.flows_completed, 0u);
    EXPECT_DOUBLE_EQ(c.delay_p50_ms, 0.0);
    EXPECT_DOUBLE_EQ(c.delay_p99_ms, 0.0);
    EXPECT_DOUBLE_EQ(c.key_exposure, 0.0);
  }

  // Storing refreshes the file to the v10 column set, which round-trips.
  CampaignCache::store(cfg, *loaded);
  const auto reloaded = CampaignCache::load(cfg);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_EQ(reloaded->runs(Protocol::kAodv, 5)[0].shares_captured, 3u);
}

TEST_F(CampaignCacheTest, TruncationAtEveryByteOfTheLastRowIsAFullMiss) {
  // The crash-safety contract: `store` is atomic (tmp + rename), and
  // even if a filesystem breaks that promise, `load` must reject a file
  // cut at ANY byte offset of its last row — never serve a cache entry
  // with a silently shortened row or a plausible-looking prefix.
  const CampaignConfig cfg = tiny();
  CampaignCache::run(cfg);
  const auto path = dir_ / (CampaignCache::key_of(cfg) + ".csv");
  ASSERT_TRUE(std::filesystem::exists(path));
  std::string text;
  {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buf;
    buf << in.rdbuf();
    text = buf.str();
  }
  ASSERT_FALSE(text.empty());
  ASSERT_EQ(text.back(), '\n');
  // Start of the last row: one past the previous newline.
  const std::size_t last_row =
      text.rfind('\n', text.size() - 2) + 1;
  ASSERT_GT(text.size() - last_row, 100u) << "last row implausibly short";
  for (std::size_t cut = last_row; cut < text.size(); ++cut) {
    std::filesystem::resize_file(path, cut);
    EXPECT_FALSE(CampaignCache::load(cfg).has_value())
        << "truncation to " << cut << " bytes (row byte "
        << (cut - last_row) << ") was served from cache";
  }
  // Restoring the full file restores the hit.
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << text;
  }
  EXPECT_TRUE(CampaignCache::load(cfg).has_value());
}

TEST_F(CampaignCacheTest, CorruptFileIsAFullMiss) {
  const CampaignConfig cfg = tiny();
  CampaignCache::run(cfg);
  // Truncate the cached file: load must reject it.
  const auto path = dir_ / (CampaignCache::key_of(cfg) + ".csv");
  ASSERT_TRUE(std::filesystem::exists(path));
  std::filesystem::resize_file(path, 40);
  EXPECT_FALSE(CampaignCache::load(cfg).has_value());
}

TEST_F(CampaignCacheTest, NoCacheEnvBypasses) {
  const CampaignConfig cfg = tiny();
  CampaignCache::run(cfg);
  setenv("MTS_BENCH_NO_CACHE", "1", 1);
  EXPECT_FALSE(CampaignCache::load(cfg).has_value());
  unsetenv("MTS_BENCH_NO_CACHE");
  EXPECT_TRUE(CampaignCache::load(cfg).has_value());
}

}  // namespace
}  // namespace mts::harness
