#include <gtest/gtest.h>

#include <algorithm>

#include "gdpr/kv_backend.h"

namespace gdpr {
namespace {

GdprRecord MakeRec(const std::string& key, const std::string& user,
                   std::vector<std::string> purposes = {"billing"},
                   std::vector<std::string> shared = {}) {
  GdprRecord rec;
  rec.key = key;
  rec.data = "data-" + key;
  rec.metadata.user = user;
  rec.metadata.purposes = std::move(purposes);
  rec.metadata.shared_with = std::move(shared);
  rec.metadata.origin = "first-party";
  return rec;
}

TEST(KvGdprStore, RightToBeForgottenAndVerify) {
  KvGdprStore store((KvGdprOptions()));
  ASSERT_TRUE(store.Open().ok());
  for (int i = 0; i < 10; ++i) {
    store.CreateRecord(Actor::Controller(),
                       MakeRec("k" + std::to_string(i),
                               i < 6 ? "neo" : "trinity"))
        .ok();
  }
  // Not deleted yet: verification must come back false.
  EXPECT_FALSE(store.VerifyDeletion(Actor::Regulator(), "k0").value());
  auto erased = store.DeleteRecordsByUser(Actor::Customer("neo"), "neo");
  ASSERT_TRUE(erased.ok());
  EXPECT_EQ(erased.value(), 6u);
  EXPECT_EQ(store.RecordCount(), 4u);
  for (int i = 0; i < 6; ++i) {
    EXPECT_TRUE(
        store.VerifyDeletion(Actor::Regulator(), "k" + std::to_string(i))
            .value());
  }
  EXPECT_FALSE(store.VerifyDeletion(Actor::Regulator(), "k7").value());
  // A customer cannot erase someone else's records.
  EXPECT_TRUE(store.DeleteRecordsByUser(Actor::Customer("neo"), "trinity")
                  .status()
                  .IsPermissionDenied());
}

TEST(KvGdprStore, AuditTrailRecordsDenials) {
  SimulatedClock clock(1000);
  KvGdprOptions o;
  o.clock = &clock;
  KvGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  store.CreateRecord(Actor::Controller(), MakeRec("k1", "neo", {"ads"})).ok();
  clock.AdvanceMicros(10);
  store.ReadDataByKey(Actor::Processor("rogue", "fraud"), "k1").ok();
  auto logs =
      store.GetSystemLogs(Actor::Regulator(), 0, clock.NowMicros());
  ASSERT_TRUE(logs.ok());
  bool saw_denial = false;
  for (const auto& e : logs.value()) {
    if (e.actor_id == "rogue" && e.op == "READ-DATA-BY-KEY" && !e.allowed) {
      saw_denial = true;
    }
  }
  EXPECT_TRUE(saw_denial);
  EXPECT_TRUE(store.audit_log()->VerifyChain());
}

TEST(KvGdprStore, ExpiryReclaimedAndInvisible) {
  SimulatedClock clock(1000);
  KvGdprOptions o;
  o.clock = &clock;
  KvGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  GdprRecord rec = MakeRec("k1", "neo");
  rec.metadata.expiry_micros = 5000;
  store.CreateRecord(Actor::Controller(), rec).ok();
  store.CreateRecord(Actor::Controller(), MakeRec("k2", "neo")).ok();
  EXPECT_TRUE(store.ReadDataByKey(Actor::Customer("neo"), "k1").ok());
  clock.AdvanceMicros(10000);
  // Dead to reads even before reclamation.
  EXPECT_TRUE(store.ReadDataByKey(Actor::Customer("neo"), "k1")
                  .status()
                  .IsNotFound());
  auto n = store.DeleteExpiredRecords(Actor::Controller());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1u);
  EXPECT_TRUE(store.VerifyDeletion(Actor::Regulator(), "k1").value());
  EXPECT_TRUE(store.ReadDataByKey(Actor::Customer("neo"), "k2").ok());
}

TEST(KvGdprStore, IndexesRebuiltAfterAofReplay) {
  MemEnv env;
  KvGdprOptions o;
  o.compliance.metadata_indexing = true;
  o.kv.env = &env;
  o.kv.aof_enabled = true;
  o.kv.aof_path = "gdpr.aof";
  o.kv.sync_policy = SyncPolicy::kNever;
  {
    KvGdprStore store(o);
    ASSERT_TRUE(store.Open().ok());
    for (int i = 0; i < 20; ++i) {
      store
          .CreateRecord(Actor::Controller(),
                        MakeRec("k" + std::to_string(i),
                                i % 2 ? "neo" : "trinity", {"billing"},
                                {"partner-1"}))
          .ok();
    }
    ASSERT_TRUE(store.Close().ok());
  }
  {
    KvGdprStore store(o);
    ASSERT_TRUE(store.Open().ok());
    EXPECT_EQ(store.RecordCount(), 20u);
    // These all take the indexed path; without a rebuild they would
    // silently return nothing.
    EXPECT_EQ(store.ReadMetadataByUser(Actor::Controller(), "neo")
                  .value()
                  .size(),
              10u);
    EXPECT_EQ(store.ReadMetadataBySharing(Actor::Regulator(), "partner-1")
                  .value()
                  .size(),
              20u);
    auto erased = store.DeleteRecordsByUser(Actor::Customer("neo"), "neo");
    ASSERT_TRUE(erased.ok());
    EXPECT_EQ(erased.value(), 10u);
    EXPECT_EQ(store.RecordCount(), 10u);
  }
}

TEST(KvGdprStore, ExpiredUpsertDoesNotLeaveStaleIndexEntries) {
  SimulatedClock clock(1000);
  KvGdprOptions o;
  o.clock = &clock;
  o.compliance.metadata_indexing = true;
  KvGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  GdprRecord rec = MakeRec("k1", "alice");
  rec.metadata.expiry_micros = 2000;
  store.CreateRecord(Actor::Controller(), rec).ok();
  clock.AdvanceMicros(5000);  // alice's record is now expired, unreclaimed
  store.CreateRecord(Actor::Controller(), MakeRec("k1", "bob")).ok();
  // alice must not be able to reach (or erase) bob's record via stale
  // index entries.
  EXPECT_TRUE(store.ReadMetadataByUser(Actor::Controller(), "alice")
                  .value()
                  .empty());
  auto erased = store.DeleteRecordsByUser(Actor::Customer("alice"), "alice");
  ASSERT_TRUE(erased.ok());
  EXPECT_EQ(erased.value(), 0u);
  EXPECT_TRUE(store.ReadDataByKey(Actor::Customer("bob"), "k1").ok());
}

// An indexed collection that meets a record it cannot parse reports
// DataLoss and delivers the readable records only: the half-decoded one is
// dropped, not handed on with whatever fields it had reached. k1 is cut
// once inside its key and once inside its timestamps, after its purposes,
// where a leftover record would still match "ads".
TEST(KvGdprStore, UnparsableIndexedRecordLeavesNoPartialRecord) {
  const std::string wire = MakeRec("k1", "neo", {"ads"}).Serialize();
  for (const size_t len : {size_t(3), wire.size() - 8}) {
    SCOPED_TRACE(len);
    KvGdprOptions o;
    o.compliance.metadata_indexing = true;
    KvGdprStore store(o);
    ASSERT_TRUE(store.Open().ok());
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(store
                      .CreateRecord(Actor::Controller(),
                                    MakeRec("k" + std::to_string(i), "neo",
                                            {"ads"}))
                      .ok());
    }
    // Magic and version intact, body truncated.
    ASSERT_TRUE(store.raw()->Set("k1", wire.substr(0, len)).ok());
    std::vector<GdprRecord> recs;
    const Status s = store.ReadCollection(
        Actor::Controller(), CollectionKind::kMetaByPurpose, "ads", &recs);
    EXPECT_TRUE(s.IsDataLoss()) << s.ToString();
    std::vector<std::string> seen;
    for (const GdprRecord& rec : recs) seen.push_back(rec.key);
    std::sort(seen.begin(), seen.end());  // posting sets are unordered
    EXPECT_EQ(seen, (std::vector<std::string>{"k0", "k2"}));
  }
}

// An update that leaves the expiry alone must not re-queue the record's
// TTL or re-charge its index bytes, and a TTL item the sweep pops is
// uncharged: the accounting follows the live index, not the update count.
TEST(KvGdprStore, SharingRotationsLeaveIndexAccountingFlat) {
  SimulatedClock clock(1000);
  KvGdprOptions o;
  o.clock = &clock;
  o.compliance.metadata_indexing = true;
  KvGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  GdprRecord rec = MakeRec("k1", "neo", {"billing"}, {"partner-a"});
  rec.metadata.expiry_micros = 1000000;
  ASSERT_TRUE(store.CreateRecord(Actor::Controller(), rec).ok());
  const obs::RegistrySnapshot before = store.StatsSnapshot();
  EXPECT_EQ(before.GaugeValue("gdpr_ttl_backlog"), 1);
  EXPECT_GT(before.GaugeValue("gdpr_index_bytes"), 0);
  for (int i = 0; i < 1000; ++i) {
    MetadataUpdate u;
    u.shared_with = std::vector<std::string>{i % 2 ? "partner-a" : "partner-b"};
    ASSERT_TRUE(store.UpdateMetadataByKey(Actor::Controller(), "k1", u).ok());
  }
  const obs::RegistrySnapshot after = store.StatsSnapshot();
  EXPECT_EQ(after.GaugeValue("gdpr_index_bytes"),
            before.GaugeValue("gdpr_index_bytes"));
  EXPECT_EQ(after.GaugeValue("gdpr_ttl_backlog"),
            before.GaugeValue("gdpr_ttl_backlog"));

  clock.AdvanceMicros(2000000);
  auto reclaimed = store.DeleteExpiredRecords(Actor::Controller());
  ASSERT_TRUE(reclaimed.ok());
  EXPECT_EQ(reclaimed.value(), 1u);
  const obs::RegistrySnapshot drained = store.StatsSnapshot();
  EXPECT_EQ(drained.GaugeValue("gdpr_ttl_backlog"), 0);
  EXPECT_EQ(drained.GaugeValue("gdpr_index_bytes"), 0);
}

TEST(KvGdprStore, AccessControlOffAllowsEverything) {
  KvGdprOptions o;
  o.compliance.enforce_access_control = false;
  o.compliance.audit_enabled = false;
  KvGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  store.CreateRecord(Actor::Controller(), MakeRec("k1", "neo", {"ads"})).ok();
  EXPECT_TRUE(store.ReadDataByKey(Actor::Processor("p", "fraud"), "k1").ok());
  EXPECT_TRUE(store.ReadDataByKey(Actor::Regulator(), "k1").ok());
  EXPECT_EQ(store.audit_log()->size(), 0u);
}

TEST(AuditLog, GroupSealingVerifiesAcrossIntervals) {
  for (const size_t k : {size_t(1), size_t(7), size_t(32)}) {
    AuditLog log(k);
    for (int i = 0; i < 100; ++i) {
      AuditEntry e;
      e.timestamp_micros = 1000 + i;
      e.actor_id = "controller";
      e.op = "CREATE-RECORD";
      e.key = "k" + std::to_string(i);
      log.Append(std::move(e));
    }
    EXPECT_EQ(log.size(), 100u) << "k=" << k;
    // 100 is not a multiple of 7: the partial tail group must seal too.
    EXPECT_TRUE(log.VerifyChain()) << "k=" << k;
    // The head is stable once sealed, and reads agree with appends.
    EXPECT_EQ(log.head_hash(), log.head_hash());
    EXPECT_EQ(log.Query(1000, 1049).size(), 50u);
  }
}

TEST(AuditLog, HeadAdvancesWithNewGroups) {
  AuditLog log(8);
  AuditEntry e;
  e.actor_id = "a";
  e.op = "OP";
  log.Append(e);
  const std::string h1 = log.head_hash();  // seals the 1-entry tail
  log.Append(e);
  const std::string h2 = log.head_hash();
  EXPECT_NE(h1, h2);
  EXPECT_TRUE(log.VerifyChain());
}

TEST(KvGdprStore, FeaturesReflectConfiguration) {
  KvGdprOptions o;
  o.compliance.metadata_indexing = true;
  o.compliance.encrypt_at_rest = true;
  KvGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  auto f = store.GetFeatures(Actor::Regulator());
  ASSERT_TRUE(f.ok());
  EXPECT_TRUE(f.value().Supports("G 30"));
  EXPECT_TRUE(f.value().Supports("G 25/32"));
  // Expiry sweeps and tombstoned erasure always run.
  EXPECT_TRUE(f.value().Supports("G 17"));
  EXPECT_TRUE(f.value().Supports("G 5(1e)"));
  EXPECT_FALSE(RenderComplianceMatrix(f.value()).empty());
}

// GET-SYSTEM-FEATURES reports the sealing the store applies: the engine's
// own encrypt_at_rest seals as surely as the compliance flag does.
TEST(KvGdprStore, FeaturesReportEngineEncryption) {
  for (const bool engine : {false, true}) {
    KvGdprOptions o;
    o.kv.encrypt_at_rest = engine;
    KvGdprStore store(o);
    ASSERT_TRUE(store.Open().ok());
    auto f = store.GetFeatures(Actor::Regulator());
    ASSERT_TRUE(f.ok());
    EXPECT_EQ(f.value().Supports("G 25/32"), engine);
  }
}

}  // namespace
}  // namespace gdpr
