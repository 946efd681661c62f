#include <gtest/gtest.h>

#include <limits>
#include <set>

#include "common/string_util.h"
#include "gdpr/rel_backend.h"

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

TEST(RelGdprStore, BasicLifecycle) {
  RelGdprOptions o;
  o.compliance.metadata_indexing = true;
  RelGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(
      store.CreateRecord(Actor::Controller(), MakeRec("k1", "neo", {"ads"}))
          .ok());
  auto rec = store.ReadDataByKey(Actor::Customer("neo"), "k1");
  ASSERT_TRUE(rec.ok());
  EXPECT_EQ(rec.value().data, "data-k1");
  EXPECT_EQ(rec.value().metadata.purposes,
            std::vector<std::string>{"ads"});
  // Upsert replaces, not duplicates.
  ASSERT_TRUE(
      store.CreateRecord(Actor::Controller(), MakeRec("k1", "neo", {"2fa"}))
          .ok());
  EXPECT_EQ(store.RecordCount(), 1u);
  auto meta = store.ReadMetadataByKey(Actor::Controller(), "k1");
  EXPECT_EQ(meta.value().purposes, std::vector<std::string>{"2fa"});

  ASSERT_TRUE(store.DeleteRecordByKey(Actor::Customer("neo"), "k1").ok());
  EXPECT_TRUE(store.ReadDataByKey(Actor::Customer("neo"), "k1")
                  .status()
                  .IsNotFound());
  EXPECT_TRUE(store.VerifyDeletion(Actor::Regulator(), "k1").value());
}

TEST(RelGdprStore, AuditAndLogs) {
  SimulatedClock clock(1000);
  RelGdprOptions o;
  o.clock = &clock;
  RelGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  store.CreateRecord(Actor::Controller(), MakeRec("k1", "neo")).ok();
  const int64_t mid = clock.NowMicros();
  clock.AdvanceMicros(100);
  store.ReadDataByKey(Actor::Customer("neo"), "k1").ok();
  auto all = store.GetSystemLogs(Actor::Regulator(), 0, clock.NowMicros());
  ASSERT_TRUE(all.ok());
  EXPECT_GE(all.value().size(), 2u);
  // Time-ranged query excludes earlier entries (the CREATE at t=mid).
  auto late = store.GetSystemLogs(Actor::Regulator(), mid + 1,
                                  clock.NowMicros());
  ASSERT_TRUE(late.ok());
  for (const auto& e : late.value()) EXPECT_GT(e.timestamp_micros, mid);
  bool saw_create = false;
  for (const auto& e : all.value()) {
    saw_create = saw_create || e.op == "CREATE-RECORD";
  }
  EXPECT_TRUE(saw_create);
  EXPECT_TRUE(store.audit_log()->VerifyChain());
}

TEST(RelGdprStore, SpaceGrowsWithIndexing) {
  size_t bytes_plain = 0, bytes_indexed = 0;
  for (const bool indexed : {false, true}) {
    RelGdprOptions o;
    o.compliance.metadata_indexing = indexed;
    o.compliance.audit_enabled = false;
    RelGdprStore store(o);
    ASSERT_TRUE(store.Open().ok());
    for (size_t i = 0; i < 500; ++i) {
      store.CreateRecord(Actor::Controller(),
                         MakeRec(StringPrintf("k%04zu", i),
                                 StringPrintf("u%zu", i % 50),
                                 {"billing"}, {"partner"}))
          .ok();
    }
    (indexed ? bytes_indexed : bytes_plain) = store.TotalBytes();
  }
  // Table 3's point: the indexed configuration costs measurably more space.
  EXPECT_GT(bytes_indexed, bytes_plain + bytes_plain / 10);
}

std::set<std::string> KeysOf(const StatusOr<std::vector<GdprRecord>>& recs) {
  EXPECT_TRUE(recs.ok()) << recs.status().ToString();
  std::set<std::string> keys;
  if (recs.ok()) {
    for (const auto& r : recs.value()) keys.insert(r.key);
  }
  return keys;
}

// Stores written before element indexes kept every purpose and sharing
// party a second time, as sealed rows of two join tables. Such a store
// still opens, WAL-only or checkpointed: its join rows are dropped at open,
// purpose and sharing answers come from gdpr_records, by scan or by index,
// and the next compaction leaves the join tables off disk.
TEST(RelGdprStore, OpensStoreWithLegacyJoinTables) {
  using rel::ValueType;
  const ValueType kStr = ValueType::kString, kInt = ValueType::kInt64;
  const int64_t kNoExpiry = std::numeric_limits<int64_t>::max();
  for (const bool checkpointed : {false, true}) {
    SCOPED_TRACE(checkpointed ? "checkpointed" : "WAL only");
    MemEnv env;
    rel::RelOptions ro;
    ro.env = &env;
    ro.wal_enabled = true;
    ro.wal_path = "legacy.wal";
    ro.encrypt_at_rest = true;
    {
      // The older layout, written table by table as RelGdprStore did.
      rel::Database db(ro);
      ASSERT_TRUE(db.Open().ok());
      rel::Table* records =
          db.CreateTable("gdpr_records",
                         rel::Schema({{"key", kStr},
                                      {"user", kStr},
                                      {"data", kStr},
                                      {"origin", kStr},
                                      {"purposes", kStr},
                                      {"objections", kStr},
                                      {"shared", kStr},
                                      {"expiry", kInt},
                                      {"created", kInt}}))
              .value();
      ASSERT_TRUE(
          db.CreateTable("gdpr_tombstones", rel::Schema({{"key", kStr}})).ok());
      rel::Table* purpose_idx =
          db.CreateTable("gdpr_purpose_idx",
                         rel::Schema({{"purpose", kStr}, {"key", kStr}}))
              .value();
      rel::Table* sharing_idx =
          db.CreateTable("gdpr_sharing_idx",
                         rel::Schema({{"party", kStr}, {"key", kStr}}))
              .value();
      for (int i = 0; i < 6; ++i) {
        const std::string key = "k" + std::to_string(i);
        const std::vector<std::string> purposes =
            i % 2 ? std::vector<std::string>{"ads", "billing"}
                  : std::vector<std::string>{"billing"};
        const std::string party = i % 3 == 0 ? "p1" : "p2";
        ASSERT_TRUE(db.Insert(records, {key, "neo", "data-" + key,
                                        "first-party",
                                        JoinStrings(purposes, '|'), "", party,
                                        kNoExpiry, int64_t(0)})
                        .ok());
        for (const auto& p : purposes) {
          ASSERT_TRUE(db.Insert(purpose_idx, {p, key}).ok());
        }
        ASSERT_TRUE(db.Insert(sharing_idx, {party, key}).ok());
      }
      if (checkpointed) ASSERT_TRUE(db.Checkpoint().ok());
      ASSERT_TRUE(db.Close().ok());
    }
    const std::string snapshot = rel::Database::SnapshotPath(ro.wal_path);
    auto on_disk = [&](const std::string& path) {
      return env.FileExists(path) ? env.ReadFileToString(path).value() : "";
    };
    EXPECT_EQ(on_disk(snapshot).find("gdpr_purpose_idx") != std::string::npos,
              checkpointed);
    const Actor ctrl = Actor::Controller();
    for (const bool indexed : {false, true}) {
      SCOPED_TRACE(indexed ? "indexed" : "scan");
      RelGdprOptions o;
      o.compliance.metadata_indexing = indexed;
      o.compliance.encrypt_at_rest = true;
      o.rel = ro;
      RelGdprStore store(o);
      ASSERT_TRUE(store.Open().ok());
      EXPECT_EQ(store.RecordCount(), 6u);
      EXPECT_EQ(KeysOf(store.ReadMetadataByPurpose(ctrl, "ads")),
                (std::set<std::string>{"k1", "k3", "k5"}));
      EXPECT_EQ(KeysOf(store.ReadMetadataByPurpose(ctrl, "billing")).size(),
                6u);
      EXPECT_EQ(KeysOf(store.ReadMetadataBySharing(ctrl, "p1")),
                (std::set<std::string>{"k0", "k3"}));
      EXPECT_EQ(KeysOf(store.ReadMetadataBySharing(ctrl, "p2")),
                (std::set<std::string>{"k1", "k2", "k4", "k5"}));
      if (indexed) {
        auto compacted = store.CompactNow(ctrl);
        EXPECT_TRUE(compacted.ok()) << compacted.status().ToString();
        EXPECT_EQ(on_disk(snapshot).find("gdpr_purpose_idx"),
                  std::string::npos);
        EXPECT_EQ(on_disk(ro.wal_path).find("gdpr_purpose_idx"),
                  std::string::npos);
      }
      ASSERT_TRUE(store.Close().ok());
    }
  }
}

}  // namespace
}  // namespace gdpr
