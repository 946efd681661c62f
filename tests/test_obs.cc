// Tests for the observability layer (src/obs/): lock-free counter and
// histogram correctness under concurrency, bucket/percentile math against
// an exact sort, snapshot render formats, and the metrics threaded through
// the GDPR stores — erasure latency, audit seal lag, denials, health
// transitions under injected faults, and the cluster roll-up.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_store.h"
#include "common/clock.h"
#include "common/random.h"
#include "gdpr/kv_backend.h"
#include "gdpr/rel_backend.h"
#include "obs/metrics.h"
#include "storage/fault_env.h"

namespace gdpr {
namespace {

using obs::Histogram;
using obs::HistogramSnapshot;
using obs::MetricsRegistry;
using obs::RegistrySnapshot;

// ---- primitives ------------------------------------------------------------

TEST(ObsCounter, ConcurrentAddsAllLand) {
  obs::Counter c;
  constexpr int kThreads = 8;
  constexpr uint64_t kPerThread = 50000;
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Add(1);
    });
  }
  for (auto& w : workers) w.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(ObsGauge, SetAndAdd) {
  obs::Gauge g;
  EXPECT_EQ(g.Value(), 0);
  g.Set(42);
  EXPECT_EQ(g.Value(), 42);
  g.Add(-50);
  EXPECT_EQ(g.Value(), -8);
}

TEST(ObsHistogram, BucketBoundaries) {
  const auto& bounds = Histogram::Bounds();
  // Strictly increasing, 0 first, +inf last — the shared fixed layout that
  // merge/subtract depend on.
  EXPECT_EQ(bounds[0], 0u);
  EXPECT_EQ(bounds[Histogram::kBuckets - 1], UINT64_MAX);
  for (size_t i = 1; i < Histogram::kBuckets; ++i) {
    EXPECT_GT(bounds[i], bounds[i - 1]) << "bucket " << i;
  }
  // A value lands in the first bucket whose upper bound admits it; the
  // bound value itself is inclusive.
  EXPECT_EQ(Histogram::BucketFor(0), 0u);
  EXPECT_EQ(Histogram::BucketFor(1), 1u);
  for (size_t i = 1; i + 1 < Histogram::kBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketFor(bounds[i]), i);
    EXPECT_EQ(Histogram::BucketFor(bounds[i] + 1), i + 1);
  }
}

TEST(ObsHistogram, PercentilesTrackExactSortWithinBucketResolution) {
  Histogram h;
  std::vector<uint64_t> exact;
  Random rng(1234);
  for (int i = 0; i < 20000; ++i) {
    // Span several decades so many buckets participate.
    const uint64_t v = rng.Uniform(10) == 0 ? rng.Uniform(1000000)
                                            : rng.Uniform(500);
    exact.push_back(v);
    h.Record(v);
  }
  std::sort(exact.begin(), exact.end());
  HistogramSnapshot snap = HistogramSnapshot::Of("h", h);
  ASSERT_EQ(snap.count, exact.size());
  for (const double p : {50.0, 95.0, 99.0, 99.9}) {
    const double est = snap.Percentile(p);
    const double truth = double(
        exact[std::min(exact.size() - 1,
                       size_t(p / 100.0 * double(exact.size())))]);
    // One log bucket is a 1.3x step; interpolation keeps the estimate
    // inside the containing bucket, so the error is bounded by one step
    // (plus slack for the integer low-end buckets).
    EXPECT_LE(est, truth * 1.35 + 2.0) << "p" << p;
    EXPECT_GE(est, truth / 1.35 - 2.0) << "p" << p;
  }
}

TEST(ObsHistogram, SnapshotWhileRecordingStaysMonotonic) {
  Histogram h;
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  constexpr int kThreads = 4;
  constexpr uint64_t kPerThread = 50000;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&h, t] {
      for (uint64_t i = 0; i < kPerThread; ++i) h.Record((i * 7 + t) % 9000);
    });
  }
  uint64_t last_count = 0;
  uint64_t last_sum = 0;
  while (!stop.load(std::memory_order_relaxed)) {
    HistogramSnapshot s = HistogramSnapshot::Of("h", h);
    EXPECT_GE(s.count, last_count);
    EXPECT_GE(s.sum, last_sum);
    last_count = s.count;
    last_sum = s.sum;
    if (s.count >= kThreads * kPerThread) stop.store(true);
  }
  for (auto& w : writers) w.join();
  EXPECT_EQ(HistogramSnapshot::Of("h", h).count, kThreads * kPerThread);
}

TEST(ObsRegistry, StablePointersAndRenderFormats) {
  MetricsRegistry reg;
  obs::Counter* c = reg.GetCounter("requests_total");
  EXPECT_EQ(c, reg.GetCounter("requests_total"));  // same object, no dup
  c->Add(3);
  reg.GetGauge("depth")->Set(-4);
  reg.GetHistogram("lat_us{op=\"GET\"}")->Record(17);

  RegistrySnapshot snap = reg.Snapshot();
  EXPECT_EQ(snap.CounterValue("requests_total"), 3u);
  EXPECT_EQ(snap.GaugeValue("depth"), -4);
  ASSERT_NE(snap.FindHistogram("lat_us{op=\"GET\"}"), nullptr);
  EXPECT_EQ(snap.FindHistogram("lat_us{op=\"GET\"}")->count, 1u);

  const std::string prom = snap.ToPrometheus();
  EXPECT_NE(prom.find("# TYPE requests_total counter"), std::string::npos);
  EXPECT_NE(prom.find("requests_total 3"), std::string::npos);
  EXPECT_NE(prom.find("depth -4"), std::string::npos);
  // Labeled histogram: the le label joins the op label.
  EXPECT_NE(prom.find("lat_us_bucket{op=\"GET\",le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(prom.find("lat_us_sum{op=\"GET\"} 17"), std::string::npos);

  const std::string json = snap.ToJson();
  EXPECT_NE(json.find("\"requests_total\":3"), std::string::npos);
  EXPECT_NE(json.find("\"depth\":-4"), std::string::npos);
  EXPECT_NE(json.find("\"count\":1"), std::string::npos);
}

TEST(ObsRegistry, DeltaSubtractsCountersKeepsGauges) {
  MetricsRegistry reg;
  reg.GetCounter("ops")->Add(10);
  reg.GetGauge("depth")->Set(5);
  reg.GetHistogram("lat")->Record(100);
  RegistrySnapshot before = reg.Snapshot();
  reg.GetCounter("ops")->Add(7);
  reg.GetGauge("depth")->Set(9);
  reg.GetHistogram("lat")->Record(200);
  RegistrySnapshot delta = reg.Snapshot().Delta(before);
  EXPECT_EQ(delta.CounterValue("ops"), 7u);
  EXPECT_EQ(delta.GaugeValue("depth"), 9);  // gauges: current value
  ASSERT_NE(delta.FindHistogram("lat"), nullptr);
  EXPECT_EQ(delta.FindHistogram("lat")->count, 1u);
  EXPECT_EQ(delta.FindHistogram("lat")->sum, 200u);
}

#ifndef GDPR_OBS_OFF
TEST(ObsScopedTimer, RecordsElapsedMicros) {
  SimulatedClock clock(1000);
  Histogram h;
  {
    obs::ScopedTimer t(&h, &clock);
    clock.AdvanceMicros(50);
  }
  HistogramSnapshot s = HistogramSnapshot::Of("h", h);
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.sum, 50u);
}
#endif

// ---- GDPR store integration ------------------------------------------------

std::unique_ptr<KvGdprStore> OpenKvStore(Clock* clock) {
  KvGdprOptions o;
  o.clock = clock;
  o.compliance.audit_enabled = true;
  o.compliance.metadata_indexing = true;
  auto store = std::make_unique<KvGdprStore>(o);
  EXPECT_TRUE(store->Open().ok());
  return store;
}

GdprRecord MakeRecord(const std::string& key, const std::string& user) {
  GdprRecord rec;
  rec.key = key;
  rec.data = "data-" + key;
  rec.metadata.user = user;
  rec.metadata.purposes = {"analytics"};
  rec.metadata.origin = "test";
  return rec;
}

TEST(ObsGdprStore, ErasureLatencyAndOpClassCountsRecorded) {
  SimulatedClock clock(1000000);
  auto store = OpenKvStore(&clock);
  const Actor controller = Actor::Controller();
  ASSERT_TRUE(store->CreateRecord(controller, MakeRecord("k1", "u1")).ok());
  ASSERT_TRUE(store->CreateRecord(controller, MakeRecord("k2", "u2")).ok());
  ASSERT_TRUE(store->DeleteRecordByKey(controller, "k1").ok());
  ASSERT_TRUE(store->ReadDataByKey(controller, "k2").ok());

  RegistrySnapshot snap = store->StatsSnapshot();
  // Point ops (create/read) go through the 1-in-32 SampledTimer: the
  // histogram exists and only ever holds whole kEvery-weighted samples.
  const HistogramSnapshot* creates =
      snap.FindHistogram("gdpr_op_us{op=\"CREATE-RECORD\"}");
  ASSERT_NE(creates, nullptr);
  EXPECT_EQ(creates->count % obs::SampledTimer::kEvery, 0u);
  // Compliance ops are timed on every invocation: exact counts.
  const HistogramSnapshot* deletes =
      snap.FindHistogram("gdpr_op_us{op=\"DELETE-RECORD-BY-KEY\"}");
  ASSERT_NE(deletes, nullptr);
  EXPECT_EQ(deletes->count, 1u);
  // Forget end-to-end latency recorded once per erasure op.
  const HistogramSnapshot* forget = snap.FindHistogram("gdpr_forget_e2e_us");
  ASSERT_NE(forget, nullptr);
  EXPECT_EQ(forget->count, 1u);
  EXPECT_EQ(snap.GaugeValue("gdpr_tombstones"), 1);
  EXPECT_EQ(snap.GaugeValue("gdpr_records"), 1);
}

TEST(ObsGdprStore, DeniedOpsCount) {
  SimulatedClock clock(1000000);
  auto store = OpenKvStore(&clock);
  ASSERT_TRUE(
      store->CreateRecord(Actor::Controller(), MakeRecord("k1", "alice"))
          .ok());
  // bob may not read alice's record.
  EXPECT_TRUE(
      store->ReadDataByKey(Actor::Customer("bob"), "k1").status()
          .IsPermissionDenied());
  EXPECT_EQ(store->StatsSnapshot().CounterValue("gdpr_denied_total"), 1u);
}

TEST(ObsGdprStore, AuditSealLagReturnsToZeroAfterFlush) {
  SimulatedClock clock(1000000);
  auto store = OpenKvStore(&clock);
  store->audit_log()->set_seal_interval(1000);  // keep the tail unsealed
  const Actor controller = Actor::Controller();
  ASSERT_TRUE(store->CreateRecord(controller, MakeRecord("k1", "u1")).ok());
  clock.AdvanceMicros(500);
  ASSERT_TRUE(store->CreateRecord(controller, MakeRecord("k2", "u2")).ok());

  RegistrySnapshot snap = store->StatsSnapshot();
  EXPECT_EQ(snap.GaugeValue("gdpr_audit_unsealed_tail"), 2);
  // Oldest unsealed entry was appended 500us ago (entry timestamps come
  // from the same simulated clock).
  EXPECT_EQ(snap.GaugeValue("gdpr_audit_seal_lag_us"), 500);
  EXPECT_EQ(snap.CounterValue("audit_appends_total"), 2u);

  store->audit_log()->head_hash();  // seals the pending tail
  snap = store->StatsSnapshot();
  EXPECT_EQ(snap.GaugeValue("gdpr_audit_unsealed_tail"), 0);
  EXPECT_EQ(snap.GaugeValue("gdpr_audit_seal_lag_us"), 0);
  EXPECT_EQ(snap.CounterValue("audit_sealed_groups_total"), 1u);
}

TEST(ObsGdprStore, HealthTransitionCountedUnderFaultEnv) {
  MemEnv mem;
  FaultEnv fenv(&mem, 42);
  KvGdprOptions o;
  o.compliance.metadata_indexing = true;
  o.kv.env = &fenv;
  o.kv.aof_enabled = true;
  o.kv.aof_path = "kv/aof";
  o.kv.sync_policy = SyncPolicy::kAlways;
  KvGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  const Actor controller = Actor::Controller();
  ASSERT_TRUE(store.CreateRecord(controller, MakeRecord("k1", "u1")).ok());

  RegistrySnapshot snap = store.StatsSnapshot();
  EXPECT_EQ(snap.GaugeValue("memkv_health_state"), 0);
  EXPECT_EQ(snap.CounterValue("memkv_health_transitions_total"), 0u);

  // Every fsync fails from here: the next write exhausts retries and the
  // engine degrades to read-only.
  FaultPlan plan;
  plan.fail_prob[static_cast<int>(FaultOpKind::kSync)] = 1.0;
  fenv.set_plan(plan);
  EXPECT_FALSE(store.CreateRecord(controller, MakeRecord("k2", "u2")).ok());
  fenv.ClearFaults();

  snap = store.StatsSnapshot();
  EXPECT_EQ(snap.GaugeValue("memkv_health_state"),
            int64_t(HealthState::kDegradedReadOnly));
  EXPECT_EQ(snap.CounterValue("memkv_health_transitions_total"), 1u);
  EXPECT_EQ(snap.GaugeValue("gdpr_store_health"),
            int64_t(HealthState::kDegradedReadOnly));
  EXPECT_GE(snap.CounterValue("memkv_aof_fsync_failures_total"), 1u);
}

TEST(ObsGdprStore, UniformSnapshotAcrossAllThreeBackends) {
  SimulatedClock clock(1000000);
  std::vector<std::unique_ptr<GdprStore>> stores;
  {
    KvGdprOptions o;
    o.clock = &clock;
    o.compliance.audit_enabled = true;
    stores.push_back(std::make_unique<KvGdprStore>(o));
  }
  {
    RelGdprOptions o;
    o.clock = &clock;
    o.compliance.audit_enabled = true;
    stores.push_back(std::make_unique<RelGdprStore>(o));
  }
  {
    cluster::ClusterOptions o;
    o.nodes = 4;
    o.clock = &clock;
    o.compliance.audit_enabled = true;
    stores.push_back(std::make_unique<cluster::ClusterGdprStore>(o));
  }
  const Actor controller = Actor::Controller();
  for (auto& store : stores) {
    ASSERT_TRUE(store->Open().ok());
    for (int i = 0; i < 8; ++i) {
      const std::string key = "k" + std::to_string(i);
      ASSERT_TRUE(store->CreateRecord(controller, MakeRecord(key, "u")).ok());
      ASSERT_TRUE(store->ReadDataByKey(controller, key).ok());
    }
    // Erasure is fully timed (one histogram entry per op), so its count is
    // exact and uniform across backends — on the cluster each delete is a
    // point op that lands on exactly one node and the roll-up sums to 8.
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(
          store->DeleteRecordByKey(controller, "k" + std::to_string(i)).ok());
    }
    RegistrySnapshot snap = store->StatsSnapshot();
    const HistogramSnapshot* creates =
        snap.FindHistogram("gdpr_op_us{op=\"CREATE-RECORD\"}");
    ASSERT_NE(creates, nullptr);  // sampled: present, count approximate
    const HistogramSnapshot* deletes =
        snap.FindHistogram("gdpr_op_us{op=\"DELETE-RECORD-BY-KEY\"}");
    ASSERT_NE(deletes, nullptr);
    EXPECT_EQ(deletes->count, 8u);
    const HistogramSnapshot* forget = snap.FindHistogram("gdpr_forget_e2e_us");
    ASSERT_NE(forget, nullptr);
    EXPECT_EQ(forget->count, 8u);
    EXPECT_GE(snap.CounterValue("audit_appends_total"), 24u);
    EXPECT_EQ(snap.GaugeValue("gdpr_store_health") +
                  snap.GaugeValue("cluster_health"),
              0);
    ASSERT_TRUE(store->Close().ok());
  }
}

TEST(ObsCluster, FanOutAndMigrationMetrics) {
  cluster::ClusterOptions o;
  o.nodes = 4;
  o.compliance.metadata_indexing = true;
  cluster::ClusterGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  const Actor controller = Actor::Controller();
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(store
                    .CreateRecord(controller,
                                  MakeRecord("k" + std::to_string(i),
                                             "user" + std::to_string(i % 4)))
                    .ok());
  }
  // Scatter-gather op: every node's fan-out histogram gains one sample.
  ASSERT_TRUE(store.ReadMetadataByUser(controller, "user1").ok());
  RegistrySnapshot snap = store.StatsSnapshot();
  for (size_t n = 0; n < 4; ++n) {
    const HistogramSnapshot* fanout = snap.FindHistogram(
        "cluster_node_fanout_us{node=\"" + std::to_string(n) + "\"}");
    ASSERT_NE(fanout, nullptr) << "node " << n;
    EXPECT_EQ(fanout->count, 1u) << "node " << n;
  }
  EXPECT_EQ(snap.GaugeValue("cluster_nodes"), 4);
  EXPECT_EQ(snap.CounterValue("cluster_slots_moved_total"), 0u);

  // Move every slot node0 owns to node1 and verify the progress counters.
  std::vector<uint32_t> slots;
  for (uint32_t s = 0; s < store.slot_map().num_slots(); ++s) {
    if (store.slot_map().OwnerOf(s) == 0) slots.push_back(s);
  }
  ASSERT_FALSE(slots.empty());
  ASSERT_TRUE(store.MoveSlots(slots, 1).ok());
  snap = store.StatsSnapshot();
  EXPECT_EQ(snap.CounterValue("cluster_slots_moved_total"), slots.size());
  EXPECT_EQ(snap.GaugeValue("cluster_migration_active"), 0);
  EXPECT_EQ(snap.GaugeValue("gdpr_records"), 32);  // nothing lost
  ASSERT_TRUE(store.Close().ok());
}

// With encrypt_at_rest, a row's string cells are sealed as one: an inserted
// row counts one seal and a decoded row one open, whatever its number of
// string cells. An int predicate opens nothing; unencrypted stores count
// none.
TEST(ObsRelDb, AeadCellCounters) {
  for (const bool encrypt : {false, true}) {
    rel::RelOptions o;
    o.encrypt_at_rest = encrypt;
    rel::Database db(o);
    ASSERT_TRUE(db.Open().ok());
    rel::Table* t =
        db.CreateTable("people",
                       rel::Schema({{"name", rel::ValueType::kString},
                                    {"age", rel::ValueType::kInt64},
                                    {"city", rel::ValueType::kString}}))
            .value();
    ASSERT_TRUE(db.Insert(t, {rel::Value("ada"), rel::Value(int64_t(36)),
                              rel::Value("london")})
                    .ok());
    RegistrySnapshot snap = db.StatsSnapshot();
    EXPECT_EQ(snap.CounterValue("reldb_rows_sealed_total"), encrypt ? 1u : 0u);
    EXPECT_EQ(snap.CounterValue("reldb_rows_opened_total"), 0u);
    auto rows = db.Select(
        t, rel::Compare(1, rel::CompareOp::kEq, rel::Value(int64_t(36))));
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows.value().size(), 1u);
    snap = db.StatsSnapshot();
    EXPECT_EQ(snap.CounterValue("reldb_rows_opened_total"), encrypt ? 1u : 0u);
  }
}

#ifndef GDPR_OBS_OFF
// A write's wait for its table's writer mutex is sampled once per
// SampledTimer::kEvery writes on each thread, weighted kEvery, even on a
// thread that runs nothing but writes (each already ticks an op timer).
TEST(ObsRelDb, WriteWaitSampledOnAWriteOnlyThread) {
  rel::Database db((rel::RelOptions()));
  ASSERT_TRUE(db.Open().ok());
  rel::Table* t =
      db.CreateTable("n", rel::Schema({{"v", rel::ValueType::kInt64}}))
          .value();
  std::thread([&] {
    for (uint32_t i = 0; i < obs::SampledTimer::kEvery; ++i) {
      EXPECT_TRUE(db.Insert(t, {rel::Value(int64_t(i))}).ok());
    }
  }).join();
  const RegistrySnapshot snap = db.StatsSnapshot();
  const HistogramSnapshot* wait = snap.FindHistogram("reldb_write_wait_us");
  ASSERT_NE(wait, nullptr);
  EXPECT_EQ(wait->count, uint64_t(obs::SampledTimer::kEvery));
}
#endif

}  // namespace
}  // namespace gdpr
