#include <gtest/gtest.h>

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

}  // namespace
}  // namespace gdpr
