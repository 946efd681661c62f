#include <gtest/gtest.h>

#include "relstore/database.h"
#include "relstore/ttl_daemon.h"

namespace gdpr::rel {
namespace {

Table* MakeAccounts(Database* db) {
  auto t = db->CreateTable("accounts", Schema({{"aid", ValueType::kInt64},
                                               {"balance", ValueType::kInt64},
                                               {"owner", ValueType::kString}}));
  EXPECT_TRUE(t.ok());
  return t.value();
}

TEST(Database, InsertSelectScanPath) {
  Database db((RelOptions()));
  ASSERT_TRUE(db.Open().ok());
  Table* t = MakeAccounts(&db);
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.Insert(t, {Value(i), Value(i * 10),
                              Value("u" + std::to_string(i % 10))})
                    .ok());
  }
  auto rows = db.Select(t, Compare(0, CompareOp::kEq, Value(int64_t(7)), "aid"));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0][1].AsInt64(), 70);
  // Scan predicate over a non-indexed column.
  auto owned = db.Select(t, Compare(2, CompareOp::kEq, Value("u3"), "owner"));
  EXPECT_EQ(owned.value().size(), 10u);
  // Limit.
  auto limited =
      db.Select(t, Compare(2, CompareOp::kEq, Value("u3"), "owner"), 3);
  EXPECT_EQ(limited.value().size(), 3u);
}

TEST(Database, IndexedSelectMatchesScan) {
  Database db((RelOptions()));
  ASSERT_TRUE(db.Open().ok());
  Table* t = MakeAccounts(&db);
  for (int64_t i = 0; i < 500; ++i) {
    db.Insert(t, {Value(i), Value(i), Value("u" + std::to_string(i % 7))}).ok();
  }
  auto scan = db.Select(t, Compare(2, CompareOp::kEq, Value("u5"), "owner"));
  ASSERT_TRUE(db.CreateIndex("accounts", "owner").ok());
  auto indexed = db.Select(t, Compare(2, CompareOp::kEq, Value("u5"), "owner"));
  ASSERT_TRUE(scan.ok());
  ASSERT_TRUE(indexed.ok());
  EXPECT_EQ(scan.value().size(), indexed.value().size());
}

TEST(Database, UpdateMaintainsIndexes) {
  Database db((RelOptions()));
  ASSERT_TRUE(db.Open().ok());
  Table* t = MakeAccounts(&db);
  ASSERT_TRUE(db.CreateIndex("accounts", "aid").ok());
  ASSERT_TRUE(db.CreateIndex("accounts", "owner").ok());
  for (int64_t i = 0; i < 50; ++i) {
    db.Insert(t, {Value(i), Value(int64_t(0)), Value("before")}).ok();
  }
  auto n = db.Update(t, Compare(0, CompareOp::kEq, Value(int64_t(3)), "aid"),
                     [](Row* row) {
                       (*row)[1] = Value(int64_t(777));
                       (*row)[2] = Value("after");
                     });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1u);
  // The index must reflect the new value and forget the old one.
  auto after = db.Select(t, Compare(2, CompareOp::kEq, Value("after"), "owner"));
  ASSERT_EQ(after.value().size(), 1u);
  EXPECT_EQ(after.value()[0][1].AsInt64(), 777);
  auto before =
      db.Select(t, Compare(2, CompareOp::kEq, Value("before"), "owner"));
  EXPECT_EQ(before.value().size(), 49u);
}

TEST(Database, DeleteRemovesFromIndexes) {
  Database db((RelOptions()));
  ASSERT_TRUE(db.Open().ok());
  Table* t = MakeAccounts(&db);
  ASSERT_TRUE(db.CreateIndex("accounts", "owner").ok());
  for (int64_t i = 0; i < 30; ++i) {
    db.Insert(t, {Value(i), Value(i), Value(i % 2 ? "odd" : "even")}).ok();
  }
  auto n = db.Delete(t, Compare(2, CompareOp::kEq, Value("odd"), "owner"));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 15u);
  EXPECT_EQ(t->live_rows(), 15u);
  EXPECT_TRUE(
      db.Select(t, Compare(2, CompareOp::kEq, Value("odd"), "owner"))
          .value()
          .empty());
}

TEST(Database, RangePredicatesUseIndex) {
  Database db((RelOptions()));
  ASSERT_TRUE(db.Open().ok());
  Table* t = MakeAccounts(&db);
  ASSERT_TRUE(db.CreateIndex("accounts", "aid").ok());
  for (int64_t i = 0; i < 100; ++i) {
    db.Insert(t, {Value(i), Value(i), Value("u")}).ok();
  }
  EXPECT_EQ(db.Select(t, Compare(0, CompareOp::kGe, Value(int64_t(90)), "aid"))
                .value()
                .size(),
            10u);
  EXPECT_EQ(db.Select(t, Compare(0, CompareOp::kLt, Value(int64_t(10)), "aid"))
                .value()
                .size(),
            10u);
}

TEST(Database, EncryptionAtRestTransparentToQueries) {
  RelOptions o;
  o.encrypt_at_rest = true;
  Database db(o);
  ASSERT_TRUE(db.Open().ok());
  Table* t = MakeAccounts(&db);
  ASSERT_TRUE(db.CreateIndex("accounts", "owner").ok());
  db.Insert(t, {Value(int64_t(1)), Value(int64_t(5)), Value("alice")}).ok();
  auto rows = db.Select(t, Compare(2, CompareOp::kEq, Value("alice"), "owner"));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0][2].AsString(), "alice");
}

TEST(Database, WalNeverSeesPlaintextWhenEncrypted) {
  MemEnv env;
  RelOptions o;
  o.env = &env;
  o.encrypt_at_rest = true;
  o.wal_enabled = true;
  o.wal_path = "rel.wal";
  o.sync_policy = SyncPolicy::kNever;
  Database db(o);
  ASSERT_TRUE(db.Open().ok());
  Table* t = MakeAccounts(&db);
  db.Insert(t, {Value(int64_t(1)), Value(int64_t(5)),
                Value("super-secret-owner")})
      .ok();
  db.Close().ok();
  auto wal = env.ReadFileToString("rel.wal");
  ASSERT_TRUE(wal.ok());
  EXPECT_FALSE(wal.value().empty());
  EXPECT_EQ(wal.value().find("super-secret-owner"), std::string::npos);
}

// A sealed cell whose MAC no longer verifies must never come back as its
// ciphertext, nor vanish from a scan: every read path that meets the row
// says DataLoss, and a path that never touches it still answers.
TEST(Database, UnreadableRowIsDataLossNotCiphertext) {
  MemEnv env;
  RelOptions o;
  o.env = &env;
  o.encrypt_at_rest = true;
  o.wal_enabled = true;
  o.wal_path = "rel.wal";
  o.sync_policy = SyncPolicy::kNever;
  {
    Database db(o);
    ASSERT_TRUE(db.Open().ok());
    Table* t = MakeAccounts(&db);
    for (int64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          db.Insert(t, {Value(i), Value(i), Value("u" + std::to_string(i))})
              .ok());
    }
    ASSERT_TRUE(db.Close().ok());
  }
  // The WAL ends with row 2's sealed owner cell; its last byte is the MAC.
  std::string wal = env.ReadFileToString("rel.wal").value();
  wal.back() = char(uint8_t(wal.back()) ^ 0x01);
  auto f = env.NewWritableFile("rel.wal", /*truncate=*/true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(f.value()->Append(wal).ok());
  ASSERT_TRUE(f.value()->Close().ok());

  Database db(o);
  ASSERT_TRUE(db.Open().ok());
  Table* t = MakeAccounts(&db);
  EXPECT_TRUE(db.Select(t, Compare(2, CompareOp::kEq, Value("u0"), "owner"))
                  .status()
                  .IsDataLoss());
  EXPECT_TRUE(db.Select(t, Compare(0, CompareOp::kEq, Value(int64_t(2)), "aid"))
                  .status()
                  .IsDataLoss());
  auto healthy =
      db.Select(t, Compare(0, CompareOp::kEq, Value(int64_t(0)), "aid"));
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_EQ(healthy.value()[0][2].AsString(), "u0");
  EXPECT_TRUE(db.SelectWhere(t, [](const Row&) { return true; })
                  .status()
                  .IsDataLoss());
  size_t visited = 0;
  EXPECT_TRUE(db.ScanRows(t, [&](const Row&) { return ++visited > 0; })
                  .IsDataLoss());
  EXPECT_EQ(visited, 2u);
}

TEST(Database, ScanRowsStopsEarly) {
  Database db((RelOptions()));
  ASSERT_TRUE(db.Open().ok());
  Table* t = MakeAccounts(&db);
  for (int64_t i = 0; i < 100; ++i) {
    db.Insert(t, {Value(i), Value(i), Value("u")}).ok();
  }
  size_t visited = 0;
  ASSERT_TRUE(db.ScanRows(t, [&](const Row&) { return ++visited < 7; }).ok());
  EXPECT_EQ(visited, 7u);
}

TEST(TtlDaemon, ReclaimsExpiredRows) {
  SimulatedClock clock(1000);
  RelOptions o;
  o.clock = &clock;
  Database db(o);
  ASSERT_TRUE(db.Open().ok());
  auto t = db.CreateTable("usertable", Schema({{"k", ValueType::kString},
                                               {"expiry", ValueType::kInt64}}));
  ASSERT_TRUE(t.ok());
  for (int64_t i = 0; i < 20; ++i) {
    // Half expire at t=2000, half never (expiry 0).
    db.Insert(t.value(), {Value("k" + std::to_string(i)),
                          Value(i % 2 ? int64_t(2000) : int64_t(0))})
        .ok();
  }
  TtlDaemon daemon(&db, "usertable", "expiry", 1000000);
  EXPECT_EQ(daemon.RunOnce(), 0u);  // nothing expired yet
  clock.AdvanceMicros(5000);
  EXPECT_EQ(daemon.RunOnce(), 10u);
  EXPECT_EQ(t.value()->live_rows(), 10u);
  EXPECT_EQ(daemon.RunOnce(), 0u);
}

}  // namespace
}  // namespace gdpr::rel
