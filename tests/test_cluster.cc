// The cluster layer: slot map invariants, the scatter-gather executor, and
// the contract that matters — a 4-node ClusterGdprStore is semantically
// indistinguishable from a single KvGdprStore for the same op sequence, and
// MoveSlots rebalances live without losing records, erasure evidence, or
// audit-chain integrity.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>

#include "bench/generator.h"
#include "cluster/cluster_store.h"

namespace gdpr::cluster {
namespace {

using bench::DatasetConfig;
using bench::RecordGenerator;

// ---- slot map -------------------------------------------------------------

TEST(SlotMap, InitialAssignmentIsBalancedAndDeterministic) {
  SlotMap map(1024, 4);
  const auto counts = map.SlotsPerNode();
  ASSERT_EQ(counts.size(), 4u);
  for (const size_t c : counts) EXPECT_EQ(c, 256u);
  EXPECT_EQ(map.SlotOf("some-key"), map.SlotOf("some-key"));
  EXPECT_LT(map.SlotOf("some-key"), 1024u);
  EXPECT_TRUE(map.PlanRebalance().empty());  // already level
}

TEST(SlotMap, PlanRebalanceLevelsASkewedMap) {
  SlotMap map(64, 4);
  for (uint32_t s = 0; s < 64; ++s) map.SetOwner(s, 0);  // all on node 0
  const auto moves = map.PlanRebalance();
  EXPECT_EQ(moves.size(), 48u);
  for (const auto& [slot, dst] : moves) map.SetOwner(slot, dst);
  for (const size_t c : map.SlotsPerNode()) EXPECT_EQ(c, 16u);
}

// ---- scatter-gather executor ----------------------------------------------

TEST(ScatterGather, RunsEveryTaskOnceAcrossPoolSizes) {
  for (const size_t workers : {size_t(0), size_t(1), size_t(4)}) {
    ScatterGather pool(workers);
    std::atomic<int> sum{0};
    std::vector<std::function<void()>> tasks;
    for (int i = 1; i <= 100; ++i) {
      tasks.push_back([&sum, i] { sum.fetch_add(i); });
    }
    pool.Run(std::move(tasks));
    EXPECT_EQ(sum.load(), 5050) << "workers=" << workers;
  }
}

TEST(ScatterGather, BackToBackBatchesReuseThePool) {
  ScatterGather pool(3);
  std::atomic<int> count{0};
  for (int round = 0; round < 20; ++round) {
    std::vector<std::function<void()>> tasks(7, [&count] { count++; });
    pool.Run(std::move(tasks));
  }
  EXPECT_EQ(count.load(), 140);
}

TEST(ScatterGather, OneTaskRunsOnTheCallingThread) {
  ScatterGather pool(4);
  for (int round = 0; round < 200; ++round) {
    std::thread::id ran_on;
    std::vector<std::function<void()>> tasks;
    tasks.push_back([&ran_on] { ran_on = std::this_thread::get_id(); });
    pool.Run(std::move(tasks));
    ASSERT_EQ(ran_on, std::this_thread::get_id()) << "round " << round;
  }
}

// ---- cluster vs single-node semantic equivalence --------------------------

void ExpectSameRecordSets(std::vector<GdprRecord> a, std::vector<GdprRecord> b,
                          const char* what) {
  auto by_key = [](const GdprRecord& x, const GdprRecord& y) {
    return x.key < y.key;
  };
  std::sort(a.begin(), a.end(), by_key);
  std::sort(b.begin(), b.end(), by_key);
  ASSERT_EQ(a.size(), b.size()) << what;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].key, b[i].key) << what;
    EXPECT_EQ(a[i].data, b[i].data) << what;
    EXPECT_EQ(a[i].metadata.user, b[i].metadata.user) << what;
    EXPECT_EQ(a[i].metadata.purposes, b[i].metadata.purposes) << what;
    EXPECT_EQ(a[i].metadata.objections, b[i].metadata.objections) << what;
    EXPECT_EQ(a[i].metadata.shared_with, b[i].metadata.shared_with) << what;
    EXPECT_EQ(a[i].metadata.expiry_micros, b[i].metadata.expiry_micros)
        << what;
  }
}

// The equivalence and live-rebalance suites run once per transport: the
// in-process seam and the full wire protocol (socketpair RPC per node) must
// produce identical results, audit evidence, and health states.
class ClusterTransportTest
    : public ::testing::TestWithParam<ClusterTransport> {
 protected:
  ClusterOptions BaseOptions() const {
    ClusterOptions co;
    co.nodes = 4;
    co.compliance.metadata_indexing = true;
    co.transport = GetParam();
    return co;
  }
};

TEST_P(ClusterTransportTest, LockstepOpSequenceMatchesSingleNode) {
  SimulatedClock clock(1000000);
  KvGdprOptions ko;
  ko.clock = &clock;
  ko.compliance.metadata_indexing = true;
  KvGdprStore single(ko);
  ASSERT_TRUE(single.Open().ok());

  ClusterOptions co = BaseOptions();
  co.clock = &clock;
  ClusterGdprStore cluster(co);
  ASSERT_TRUE(cluster.Open().ok());

  DatasetConfig cfg;
  cfg.data_bytes = 32;
  cfg.users = 20;
  cfg.purposes = 8;
  cfg.partners = 4;
  RecordGenerator gen(cfg, &clock);
  const Actor controller = Actor::Controller();

  const size_t kRecords = 300;
  for (size_t i = 0; i < kRecords; ++i) {
    const GdprRecord rec = gen.Make(i);
    ASSERT_TRUE(single.CreateRecord(controller, rec).ok());
    ASSERT_TRUE(cluster.CreateRecord(controller, rec).ok());
  }
  EXPECT_EQ(single.RecordCount(), cluster.RecordCount());

  // Metadata queries: user (SAR), purpose, sharing.
  for (size_t u = 0; u < cfg.users; ++u) {
    const std::string user = gen.UserOf(u);
    ExpectSameRecordSets(
        single.ReadMetadataByUser(controller, user).value(),
        cluster.ReadMetadataByUser(controller, user).value(), "by-user");
    ExpectSameRecordSets(single.ReadRecordsByUser(controller, user).value(),
                         cluster.ReadRecordsByUser(controller, user).value(),
                         "records-by-user");
  }
  for (size_t p = 0; p < cfg.purposes; ++p) {
    const std::string purpose = gen.PurposeOf(p);
    ExpectSameRecordSets(
        single.ReadMetadataByPurpose(controller, purpose).value(),
        cluster.ReadMetadataByPurpose(controller, purpose).value(),
        "by-purpose");
  }
  for (size_t t = 0; t < cfg.partners; ++t) {
    const std::string partner = gen.PartnerOf(t);
    ExpectSameRecordSets(
        single.ReadMetadataBySharing(Actor::Regulator(), partner).value(),
        cluster.ReadMetadataBySharing(Actor::Regulator(), partner).value(),
        "by-sharing");
  }

  // Denials agree too.
  EXPECT_TRUE(single.ReadMetadataByUser(Actor::Customer("user-000001"),
                                        "user-000002")
                  .status()
                  .IsPermissionDenied());
  EXPECT_TRUE(cluster.ReadMetadataByUser(Actor::Customer("user-000001"),
                                         "user-000002")
                  .status()
                  .IsPermissionDenied());

  // Consent withdrawal (objection) on a few keys.
  for (size_t i = 0; i < 10; ++i) {
    MetadataUpdate u;
    u.objections = std::vector<std::string>{gen.PurposeOf(i)};
    const std::string key = gen.Key(i);
    ASSERT_TRUE(single.UpdateMetadataByKey(controller, key, u).ok());
    ASSERT_TRUE(cluster.UpdateMetadataByKey(controller, key, u).ok());
    const auto sm = single.ReadMetadataByKey(controller, key).value();
    const auto cm = cluster.ReadMetadataByKey(controller, key).value();
    EXPECT_EQ(sm.objections, cm.objections);
  }

  // Right to be forgotten for three users: counts and evidence agree.
  for (size_t u = 0; u < 3; ++u) {
    const std::string user = gen.UserOf(u);
    const auto se = single.DeleteRecordsByUser(controller, user);
    const auto ce = cluster.DeleteRecordsByUser(controller, user);
    ASSERT_TRUE(se.ok() && ce.ok());
    EXPECT_EQ(se.value(), ce.value());
    EXPECT_GT(se.value(), 0u);
  }
  for (size_t i = 0; i < kRecords; ++i) {
    if (i % 50 != 0) continue;  // spot-check the evidence
    const std::string key = gen.Key(i);
    EXPECT_EQ(single.VerifyDeletion(Actor::Regulator(), key).value(),
              cluster.VerifyDeletion(Actor::Regulator(), key).value())
        << key;
  }

  // Timely deletion after a simulated fortnight.
  clock.AdvanceMicros(cfg.ttl_horizon_micros / 2);
  const auto sr = single.DeleteExpiredRecords(controller);
  const auto cr = cluster.DeleteExpiredRecords(controller);
  ASSERT_TRUE(sr.ok() && cr.ok());
  EXPECT_EQ(sr.value(), cr.value());
  EXPECT_EQ(single.RecordCount(), cluster.RecordCount());

  // The controller's scan over the survivors: the same key set, and an
  // early stop stops the callback.
  const auto scan_keys = [&](GdprStore& store) {
    std::set<std::string> keys;
    EXPECT_TRUE(store
                    .ScanRecords(controller,
                                 [&](const GdprRecord& rec) {
                                   EXPECT_TRUE(keys.insert(rec.key).second)
                                       << rec.key << " scanned twice";
                                   return true;
                                 })
                    .ok());
    return keys;
  };
  const std::set<std::string> survivors = scan_keys(single);
  EXPECT_EQ(survivors.size(), single.RecordCount());
  EXPECT_EQ(scan_keys(cluster), survivors);
  size_t seen = 0;
  EXPECT_TRUE(cluster
                  .ScanRecords(controller,
                               [&](const GdprRecord&) { return ++seen < 5; })
                  .ok());
  EXPECT_EQ(seen, 5u);

  // Point reads on the survivors.
  size_t checked = 0;
  for (size_t i = 0; i < kRecords && checked < 20; ++i) {
    const std::string key = gen.Key(i);
    const auto sd = single.ReadDataByKey(controller, key);
    const auto cd = cluster.ReadDataByKey(controller, key);
    ASSERT_EQ(sd.ok(), cd.ok()) << key;
    if (!sd.ok()) continue;
    EXPECT_EQ(sd.value().data, cd.value().data);
    ++checked;
  }
  EXPECT_GT(checked, 0u);

  // Compliance surface matches feature-for-feature.
  const auto sf = single.GetFeatures(controller).value();
  const auto cf = cluster.GetFeatures(controller).value();
  ASSERT_EQ(sf.rows.size(), cf.rows.size());
  for (size_t i = 0; i < sf.rows.size(); ++i) {
    EXPECT_EQ(sf.rows[i].article, cf.rows[i].article);
    EXPECT_EQ(sf.rows[i].supported, cf.rows[i].supported);
  }

  // Every chain — the single store's, each node's, and the router's —
  // verifies independently.
  EXPECT_TRUE(single.audit_log()->VerifyChain());
  std::vector<bool> per_node;
  EXPECT_TRUE(cluster.VerifyAuditChains(&per_node));
  EXPECT_EQ(per_node.size(), co.nodes + 1);
}

// ---- live slot migration --------------------------------------------------

TEST_P(ClusterTransportTest, MoveSlotsPreservesRecordsAndEvidence) {
  SimulatedClock clock(1000000);
  ClusterOptions co = BaseOptions();
  co.clock = &clock;
  ClusterGdprStore cluster(co);
  ASSERT_TRUE(cluster.Open().ok());

  DatasetConfig cfg;
  cfg.data_bytes = 32;
  cfg.users = 16;
  cfg.ttl_every = 0;  // keep the population stable for exact counts
  RecordGenerator gen(cfg, &clock);
  const Actor controller = Actor::Controller();
  const size_t kRecords = 400;
  for (size_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(cluster.CreateRecord(controller, gen.Make(i)).ok());
  }
  // A few erasures so tombstone evidence has to migrate too.
  for (size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(cluster.DeleteRecordByKey(controller, gen.Key(i)).ok());
  }
  const size_t before = cluster.RecordCount();
  const auto by_user_before =
      cluster.ReadMetadataByUser(controller, gen.UserOf(7)).value();

  const auto slots = cluster.slot_map().SlotsOwnedBy(0);
  ASSERT_FALSE(slots.empty());
  ASSERT_TRUE(cluster.MoveSlots(slots, 1).ok());

  EXPECT_EQ(cluster.node(0)->RecordCount(), 0u);
  EXPECT_EQ(cluster.RecordCount(), before);
  EXPECT_TRUE(cluster.slot_map().SlotsOwnedBy(0).empty());
  for (size_t i = 5; i < kRecords; ++i) {
    ASSERT_TRUE(cluster.ReadDataByKey(controller, gen.Key(i)).ok())
        << gen.Key(i);
  }
  for (size_t i = 0; i < 5; ++i) {
    EXPECT_TRUE(cluster.VerifyDeletion(Actor::Regulator(), gen.Key(i)).value())
        << "evidence lost for " << gen.Key(i);
  }
  ExpectSameRecordSets(
      by_user_before,
      cluster.ReadMetadataByUser(controller, gen.UserOf(7)).value(),
      "by-user after migration");
  EXPECT_TRUE(cluster.VerifyAuditChains());
}

TEST_P(ClusterTransportTest, RebalanceUnderLiveTraffic) {
  ClusterOptions co = BaseOptions();
  ClusterGdprStore cluster(co);
  ASSERT_TRUE(cluster.Open().ok());

  SimulatedClock gen_clock(1000000);
  DatasetConfig cfg;
  cfg.data_bytes = 32;
  cfg.users = 16;
  cfg.ttl_every = 0;
  RecordGenerator gen(cfg, &gen_clock);
  const Actor controller = Actor::Controller();
  const size_t kRecords = 600;
  for (size_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(cluster.CreateRecord(controller, gen.Make(i)).ok());
  }
  // Skew everything onto node 0, then rebalance while traffic runs.
  std::vector<uint32_t> all_slots(cluster.slot_map().num_slots());
  for (uint32_t s = 0; s < all_slots.size(); ++s) all_slots[s] = s;
  ASSERT_TRUE(cluster.MoveSlots(all_slots, 0).ok());
  ASSERT_EQ(cluster.node(0)->RecordCount(), kRecords);

  std::atomic<bool> stop{false};
  std::atomic<size_t> read_failures{0};
  std::vector<std::thread> traffic;
  for (int t = 0; t < 4; ++t) {
    traffic.emplace_back([&, t] {
      Random rng(uint64_t(1234 + t));
      while (!stop.load()) {
        const size_t i = rng.Uniform(kRecords);
        if (t == 0) {
          cluster.UpdateDataByKey(controller, gen.Key(i), "rewritten").ok();
        } else if (t == 1) {
          cluster.ReadMetadataByUser(controller, gen.UserOf(i)).ok();
        } else if (!cluster.ReadDataByKey(controller, gen.Key(i)).ok()) {
          read_failures.fetch_add(1);
        }
      }
    });
  }
  ASSERT_TRUE(cluster.Rebalance().ok());
  stop.store(true);
  for (auto& t : traffic) t.join();

  // No record lost, no read ever failed, every chain still verifies, and
  // ownership is level again.
  EXPECT_EQ(read_failures.load(), 0u);
  EXPECT_EQ(cluster.RecordCount(), kRecords);
  for (size_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(cluster.ReadDataByKey(controller, gen.Key(i)).ok())
        << gen.Key(i);
  }
  const auto counts = cluster.slot_map().SlotsPerNode();
  for (const size_t c : counts) EXPECT_EQ(c, 256u);
  EXPECT_TRUE(cluster.VerifyAuditChains());
}

// ---- the owner-filtered merge ---------------------------------------------

// Every key in answer appears once; returns the key set.
std::set<std::string> UniqueKeys(const std::vector<GdprRecord>& answer,
                                 const char* what) {
  std::set<std::string> keys;
  for (const auto& rec : answer) {
    EXPECT_TRUE(keys.insert(rec.key).second) << what << ": " << rec.key
                                             << " returned twice";
  }
  return keys;
}

TEST_P(ClusterTransportTest, DoubleResidentSlotsServeTheOwnersCopyOnce) {
  // A failed rollback or eviction can leave a slot's records on two nodes.
  // Recreate that by importing a differing copy of every third record
  // through a non-owner's handle: every query and the scan must still
  // return each key once, and always the owner's copy.
  SimulatedClock clock(1000000);
  ClusterOptions co = BaseOptions();
  co.clock = &clock;
  ClusterGdprStore cluster(co);
  ASSERT_TRUE(cluster.Open().ok());
  DatasetConfig cfg;
  cfg.data_bytes = 32;
  cfg.users = 12;
  cfg.purposes = 6;
  cfg.partners = 3;
  cfg.ttl_every = 0;
  RecordGenerator gen(cfg, &clock);
  const Actor controller = Actor::Controller();
  const size_t kRecords = 300;
  for (size_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(cluster.CreateRecord(controller, gen.Make(i)).ok());
  }
  const auto queries = [&] {
    std::vector<std::pair<std::string, std::vector<GdprRecord>>> out;
    for (size_t u = 0; u < cfg.users; ++u) {
      out.emplace_back("by-user",
                       cluster.ReadMetadataByUser(controller, gen.UserOf(u))
                           .value());
      out.emplace_back("records-by-user",
                       cluster.ReadRecordsByUser(controller, gen.UserOf(u))
                           .value());
    }
    for (size_t p = 0; p < cfg.purposes; ++p) {
      out.emplace_back(
          "by-purpose",
          cluster.ReadMetadataByPurpose(controller, gen.PurposeOf(p)).value());
    }
    for (size_t t = 0; t < cfg.partners; ++t) {
      out.emplace_back("by-sharing", cluster
                                         .ReadMetadataBySharing(
                                             Actor::Regulator(),
                                             gen.PartnerOf(t))
                                         .value());
    }
    std::vector<GdprRecord> scanned;
    EXPECT_TRUE(cluster
                    .ScanRecords(controller,
                                 [&](const GdprRecord& rec) {
                                   scanned.push_back(rec);
                                   return true;
                                 })
                    .ok());
    out.emplace_back("scan", std::move(scanned));
    return out;
  };
  const auto before = queries();
  size_t doubled = 0;
  for (size_t i = 0; i < kRecords; i += 3) {
    GdprRecord stale = gen.Make(i);
    stale.data = "stale-copy";
    stale.metadata.origin = "stale-copy";
    const uint32_t owner =
        cluster.slot_map().OwnerOf(cluster.slot_map().SlotOf(stale.key));
    const size_t other = (owner + 1) % cluster.node_count();
    ASSERT_TRUE(cluster.handle(other)->ImportSlot({{stale}, {}}).ok());
    ++doubled;
  }
  EXPECT_EQ(cluster.RecordCount(), kRecords + doubled);
  const auto after = queries();
  ASSERT_EQ(before.size(), after.size());
  size_t returned = 0;
  for (size_t q = 0; q < after.size(); ++q) {
    const char* what = after[q].first.c_str();
    UniqueKeys(after[q].second, what);
    ExpectSameRecordSets(before[q].second, after[q].second, what);
    for (const auto& rec : after[q].second) {
      EXPECT_NE(rec.metadata.origin, "stale-copy") << what << ": " << rec.key;
      EXPECT_NE(rec.data, "stale-copy") << what << ": " << rec.key;
    }
    returned += after[q].second.size();
  }
  // Users twice (metadata and records), purposes and the scan once: 4 per
  // record, plus the shared quarter.
  EXPECT_EQ(returned, 4 * kRecords + kRecords / cfg.share_every);
}

TEST_P(ClusterTransportTest, MaskedQueriesCarryNoPayloadButExportsDo) {
  SimulatedClock clock(1000000);
  ClusterOptions co = BaseOptions();
  co.clock = &clock;
  ClusterGdprStore cluster(co);
  ASSERT_TRUE(cluster.Open().ok());
  DatasetConfig cfg;
  cfg.data_bytes = 32;
  cfg.users = 4;
  cfg.purposes = 2;
  cfg.partners = 1;
  cfg.ttl_every = 0;
  RecordGenerator gen(cfg, &clock);
  const size_t kRecords = 80;
  for (size_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(cluster.CreateRecord(Actor::Controller(), gen.Make(i)).ok());
  }
  const std::vector<StatusOr<std::vector<GdprRecord>>> masked = {
      cluster.ReadMetadataByUser(Actor::Controller(), gen.UserOf(1)),
      cluster.ReadMetadataByPurpose(Actor::Controller(), gen.PurposeOf(1)),
      cluster.ReadMetadataBySharing(Actor::Regulator(), gen.PartnerOf(0))};
  for (const auto& answer : masked) {
    ASSERT_TRUE(answer.ok());
    EXPECT_FALSE(answer.value().empty());
    for (const auto& r : answer.value()) EXPECT_TRUE(r.data.empty()) << r.key;
  }
  auto exported = cluster.ReadRecordsByUser(Actor::Controller(), gen.UserOf(1));
  ASSERT_TRUE(exported.ok());
  EXPECT_EQ(exported.value().size(), kRecords / cfg.users);
  for (const auto& r : exported.value()) {
    const size_t i = size_t(std::stoul(r.key.substr(4)));
    EXPECT_EQ(r.data, gen.Make(i).data) << r.key;
  }
}

TEST_P(ClusterTransportTest, QueriesRacingRebalanceReturnEachKeyOnce) {
  SimulatedClock clock(1000000);
  ClusterOptions co = BaseOptions();
  co.clock = &clock;
  ClusterGdprStore cluster(co);
  ASSERT_TRUE(cluster.Open().ok());
  DatasetConfig cfg;
  cfg.data_bytes = 32;
  cfg.users = 16;
  cfg.purposes = 4;
  cfg.ttl_every = 0;
  RecordGenerator gen(cfg, &clock);
  const Actor controller = Actor::Controller();
  const size_t kRecords = 400;
  for (size_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(cluster.CreateRecord(controller, gen.Make(i)).ok());
  }
  // Skew everything onto node 0, then level it while queries run.
  std::vector<uint32_t> all_slots(cluster.slot_map().num_slots());
  for (uint32_t s = 0; s < all_slots.size(); ++s) all_slots[s] = s;
  ASSERT_TRUE(cluster.MoveSlots(all_slots, 0).ok());

  std::atomic<bool> stop{false};
  std::atomic<size_t> answers{0}, wrong{0};
  std::vector<std::thread> queriers;
  for (int t = 0; t < 2; ++t) {
    queriers.emplace_back([&, t] {
      for (size_t n = 0; !stop.load() || n < 4; ++n) {
        const std::string purpose = gen.PurposeOf(n + size_t(t));
        auto got = cluster.ReadMetadataByPurpose(controller, purpose);
        if (!got.ok()) {
          wrong.fetch_add(1);
          continue;
        }
        const auto keys = UniqueKeys(got.value(), "by-purpose");
        if (keys.size() != kRecords / cfg.purposes) wrong.fetch_add(1);
        answers.fetch_add(1);
      }
    });
  }
  ASSERT_TRUE(cluster.Rebalance().ok());
  stop.store(true);
  for (auto& th : queriers) th.join();
  EXPECT_EQ(wrong.load(), 0u);
  EXPECT_GE(answers.load(), 8u);
  for (const size_t c : cluster.slot_map().SlotsPerNode()) EXPECT_EQ(c, 256u);
}

// ---- who runs a fan-out's node parts ---------------------------------------

// Fan-outs whose node parts the caller ran, and those handed to the pool.
struct FanoutCounts {
  uint64_t caller = 0;
  uint64_t pool = 0;
};

FanoutCounts CountFanouts(ClusterGdprStore& cluster) {
  const obs::RegistrySnapshot snap = cluster.StatsSnapshot();
  return {snap.CounterValue("cluster_fanout_caller_total"),
          snap.CounterValue("cluster_fanout_pool_total")};
}

// A clock that parks the first reading taken after Arm() until Release().
// The router's first reading in a collection read is a node part's fan-out
// timer, so parking it holds that read in flight for as long as a test
// needs.
class ParkingClock : public Clock {
 public:
  int64_t NowMicros() override {
    if (armed_.exchange(false)) {
      std::unique_lock<std::mutex> l(mu_);
      parked_ = true;
      cv_.notify_all();
      cv_.wait(l, [this] { return released_; });
    }
    return inner_.NowMicros();
  }
  void SleepMicros(int64_t micros) override { inner_.SleepMicros(micros); }

  void Arm() { armed_.store(true); }
  bool WaitParked() {
    std::unique_lock<std::mutex> l(mu_);
    return cv_.wait_for(l, std::chrono::seconds(30),
                        [this] { return parked_; });
  }
  void Release() {
    std::lock_guard<std::mutex> l(mu_);
    released_ = true;
    cv_.notify_all();
  }

 private:
  SimulatedClock inner_{1000000};
  std::atomic<bool> armed_{false};
  std::mutex mu_;
  std::condition_variable cv_;
  bool parked_ = false;
  bool released_ = false;
};

TEST_P(ClusterTransportTest, LoneReadHandsItsNodePartsToThePool) {
  SimulatedClock clock(1000000);
  ClusterOptions co = BaseOptions();
  co.clock = &clock;
  ClusterGdprStore cluster(co);
  ASSERT_TRUE(cluster.Open().ok());
  DatasetConfig cfg;
  cfg.data_bytes = 32;
  cfg.purposes = 4;
  RecordGenerator gen(cfg, &clock);
  const Actor controller = Actor::Controller();
  for (size_t i = 0; i < 200; ++i) {
    ASSERT_TRUE(cluster.CreateRecord(controller, gen.Make(i)).ok());
  }
  const FanoutCounts before = CountFanouts(cluster);
  ASSERT_TRUE(cluster.ReadMetadataByPurpose(controller, gen.PurposeOf(0)).ok());
  const FanoutCounts after = CountFanouts(cluster);
  EXPECT_EQ(after.pool - before.pool, 1u);
  EXPECT_EQ(after.caller - before.caller, 0u);
}

TEST_P(ClusterTransportTest, HeldReadRoutesOverlappingFanOuts) {
  // One read is held in flight. A Forget and a second read issued meanwhile
  // overlap it, so in process their callers run the node parts, while over
  // sockets they still go to the pool. Every answer stays whole.
  ParkingClock clock;
  ClusterOptions co = BaseOptions();
  co.clock = &clock;
  ClusterGdprStore cluster(co);
  ASSERT_TRUE(cluster.Open().ok());
  DatasetConfig cfg;
  cfg.data_bytes = 32;
  cfg.users = 10;
  cfg.purposes = 4;
  cfg.ttl_every = 0;
  RecordGenerator gen(cfg, &clock);
  const Actor controller = Actor::Controller();
  const size_t kRecords = 200;
  for (size_t i = 0; i < kRecords; ++i) {
    ASSERT_TRUE(cluster.CreateRecord(controller, gen.Make(i)).ok());
  }
  const FanoutCounts before = CountFanouts(cluster);

  clock.Arm();
  StatusOr<std::vector<GdprRecord>> held = Status::Internal("not run");
  std::thread holder([&] {
    held = cluster.ReadMetadataByPurpose(controller, gen.PurposeOf(0));
  });
  const bool parked = clock.WaitParked();
  EXPECT_TRUE(parked);
  StatusOr<size_t> erased = Status::Internal("not run");
  StatusOr<std::vector<GdprRecord>> overlapping = Status::Internal("not run");
  if (parked) {
    erased = cluster.DeleteRecordsByUser(controller, gen.UserOf(0));
    overlapping = cluster.ReadMetadataByPurpose(controller, gen.PurposeOf(1));
  }
  clock.Release();
  holder.join();
  ASSERT_TRUE(parked);

  ASSERT_TRUE(erased.ok()) << erased.status().ToString();
  EXPECT_EQ(erased.value(), kRecords / cfg.users);
  ASSERT_TRUE(held.ok()) << held.status().ToString();
  ASSERT_TRUE(overlapping.ok()) << overlapping.status().ToString();
  // User 0's records are gone from the overlapping read's answer; the held
  // read may have run its other node parts before or after the Forget.
  size_t purpose1 = 0;
  for (size_t i = 0; i < kRecords; ++i) {
    if (gen.PurposeOf(i) == gen.PurposeOf(1) &&
        gen.UserOf(i) != gen.UserOf(0)) {
      ++purpose1;
    }
  }
  EXPECT_EQ(UniqueKeys(overlapping.value(), "overlapping").size(), purpose1);
  EXPECT_LE(UniqueKeys(held.value(), "held").size(), kRecords / cfg.purposes);

  const FanoutCounts after = CountFanouts(cluster);
  const bool in_process = GetParam() == ClusterTransport::kInProcess;
  EXPECT_EQ(after.caller - before.caller, in_process ? 2u : 0u);
  EXPECT_EQ(after.pool - before.pool, in_process ? 1u : 3u);
}

INSTANTIATE_TEST_SUITE_P(
    Transports, ClusterTransportTest,
    ::testing::Values(ClusterTransport::kInProcess,
                      ClusterTransport::kLoopbackSocket),
    [](const ::testing::TestParamInfo<ClusterTransport>& info) {
      return info.param == ClusterTransport::kInProcess ? "InProcess"
                                                        : "Socket";
    });

TEST(ClusterFanout, ConcurrentReadsMatchSingleNodeAndCountEveryFanOut) {
  // Four callers read at once through an in-process cluster. Whether any two
  // reads overlap is up to the scheduler (on one core they may never), so
  // this asserts only that every answer is whole and every read is counted
  // once, on whichever path ran it.
  SimulatedClock clock(1000000);
  KvGdprOptions ko;
  ko.clock = &clock;
  ko.compliance.metadata_indexing = true;
  KvGdprStore single(ko);
  ASSERT_TRUE(single.Open().ok());
  ClusterOptions co;
  co.nodes = 4;
  co.clock = &clock;
  co.compliance.metadata_indexing = true;
  ClusterGdprStore cluster(co);
  ASSERT_TRUE(cluster.Open().ok());
  DatasetConfig cfg;
  cfg.data_bytes = 32;
  cfg.users = 16;
  cfg.purposes = 4;
  cfg.ttl_every = 0;
  RecordGenerator gen(cfg, &clock);
  const Actor controller = Actor::Controller();
  for (size_t i = 0; i < 400; ++i) {
    const GdprRecord rec = gen.Make(i);
    ASSERT_TRUE(single.CreateRecord(controller, rec).ok());
    ASSERT_TRUE(cluster.CreateRecord(controller, rec).ok());
  }
  // Read i asks for a purpose when even, a user when odd.
  auto read = [&](GdprStore& store, size_t i) {
    return i % 2 == 0
               ? store.ReadMetadataByPurpose(controller, gen.PurposeOf(i))
               : store.ReadMetadataByUser(controller, gen.UserOf(i));
  };
  std::vector<std::vector<GdprRecord>> expected;
  for (size_t i = 0; i < cfg.users * cfg.purposes; ++i) {
    auto answer = read(single, i);
    ASSERT_TRUE(answer.ok());
    expected.push_back(std::move(answer.value()));
  }
  const FanoutCounts before = CountFanouts(cluster);
  constexpr size_t kThreads = 4, kReads = 200;
  std::atomic<size_t> failed{0};
  std::vector<std::thread> callers;
  for (size_t t = 0; t < kThreads; ++t) {
    callers.emplace_back([&, t] {
      for (size_t n = 0; n < kReads; ++n) {
        const size_t i = (t * kReads + n) % expected.size();
        auto answer = read(cluster, i);
        if (!answer.ok()) {
          failed.fetch_add(1);
          continue;
        }
        ExpectSameRecordSets(answer.value(), expected[i], "concurrent read");
      }
    });
  }
  for (auto& th : callers) th.join();
  EXPECT_EQ(failed.load(), 0u);
  const FanoutCounts after = CountFanouts(cluster);
  EXPECT_EQ((after.caller - before.caller) + (after.pool - before.pool),
            kThreads * kReads);
}

TEST(ClusterTransportEquivalence, AuditEvidenceMatchesAcrossTransports) {
  // Drive the identical lockstep workload through both transports on a
  // simulated clock: every node's audit chain must end at the same head
  // hash — the wire seam may not add, drop, reorder, or re-time a single
  // audited op — and record counts and health must agree too.
  std::vector<std::vector<std::string>> heads;
  std::vector<size_t> counts;
  std::vector<HealthState> healths;
  for (const ClusterTransport transport :
       {ClusterTransport::kInProcess, ClusterTransport::kLoopbackSocket}) {
    SimulatedClock clock(1000000);
    ClusterOptions co;
    co.nodes = 4;
    co.clock = &clock;
    co.compliance.metadata_indexing = true;
    co.transport = transport;
    ClusterGdprStore cluster(co);
    ASSERT_TRUE(cluster.Open().ok());
    DatasetConfig cfg;
    cfg.data_bytes = 32;
    cfg.users = 12;
    cfg.ttl_every = 0;
    RecordGenerator gen(cfg, &clock);
    const Actor controller = Actor::Controller();
    for (size_t i = 0; i < 200; ++i) {
      ASSERT_TRUE(cluster.CreateRecord(controller, gen.Make(i)).ok());
    }
    // Advance the clock between mutation phases: the audit log's staged
    // append path only promises per-thread order for equal timestamps, and
    // the in-process fan-out appends from pool threads while point ops
    // append from the caller — distinct timestamps make the global merge
    // order well-defined on every transport.
    for (size_t u = 0; u < 3; ++u) {
      clock.AdvanceMicros(1);
      ASSERT_TRUE(
          cluster.DeleteRecordsByUser(controller, gen.UserOf(u)).ok());
    }
    clock.AdvanceMicros(1);
    for (size_t i = 0; i < 200; i += 20) {
      (void)cluster.ReadDataByKey(controller, gen.Key(i));
      (void)cluster.VerifyDeletion(Actor::Regulator(), gen.Key(i));
    }
    std::vector<std::string> h;
    for (size_t n = 0; n < co.nodes; ++n) {
      const auto verdict = cluster.handle(n)->VerifyAuditChain();
      ASSERT_TRUE(verdict.ok());
      ASSERT_TRUE(verdict.value().chain_ok);
      h.push_back(verdict.value().head_hash);
    }
    heads.push_back(std::move(h));
    counts.push_back(cluster.RecordCount());
    healths.push_back(cluster.GetHealth().state);
  }
  EXPECT_EQ(heads[0], heads[1]);
  EXPECT_EQ(counts[0], counts[1]);
  EXPECT_EQ(healths[0], healths[1]);
}

}  // namespace
}  // namespace gdpr::cluster
