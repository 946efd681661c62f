// WAL replay for rel::Database: mutations survive a close/reopen cycle,
// a torn tail (crash mid-append) truncates cleanly to the last whole
// record, and the RelGdprStore composes replay with index backfill. The
// golden-bytes sections pin the frames of every log recovery reads: the
// WAL, the MemKV AOF and the audit chain's segments.

#include <gtest/gtest.h>

#include <algorithm>

#include "common/clock.h"
#include "common/coding.h"
#include "crypto/aead.h"
#include "gdpr/audit.h"
#include "gdpr/rel_backend.h"
#include "kvstore/db.h"
#include "relstore/database.h"

namespace gdpr::rel {
namespace {

RelOptions WalOptions(Env* env, const std::string& path) {
  RelOptions o;
  o.env = env;
  o.wal_enabled = true;
  o.wal_path = path;
  o.sync_policy = SyncPolicy::kNever;
  return o;
}

Schema PeopleSchema() {
  return Schema({{"name", ValueType::kString}, {"age", ValueType::kInt64}});
}

TEST(WalReplay, InsertsSurviveReopen) {
  MemEnv env;
  {
    Database db(WalOptions(&env, "wal"));
    ASSERT_TRUE(db.Open().ok());
    Table* t = db.CreateTable("people", PeopleSchema()).value();
    ASSERT_TRUE(db.Insert(t, {Value("ada"), Value(int64_t(36))}).ok());
    ASSERT_TRUE(db.Insert(t, {Value("alan"), Value(int64_t(41))}).ok());
    ASSERT_TRUE(db.Close().ok());
  }
  Database db(WalOptions(&env, "wal"));
  ASSERT_TRUE(db.Open().ok());
  Table* t = db.CreateTable("people", PeopleSchema()).value();
  EXPECT_EQ(t->live_rows(), 2u);
  EXPECT_EQ(db.replay_stats().inserts, 2u);
  EXPECT_FALSE(db.replay_stats().truncated_tail);
  auto rows = db.Select(t, Compare(0, CompareOp::kEq, Value("ada")));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0][1].AsInt64(), 36);
}

TEST(WalReplay, UpdatesAndDeletesReplayByRowId) {
  MemEnv env;
  {
    Database db(WalOptions(&env, "wal"));
    ASSERT_TRUE(db.Open().ok());
    Table* t = db.CreateTable("people", PeopleSchema()).value();
    for (int i = 0; i < 5; ++i) {
      ASSERT_TRUE(
          db.Insert(t, {Value("p" + std::to_string(i)), Value(int64_t(i))})
              .ok());
    }
    ASSERT_EQ(db.Update(t, Compare(0, CompareOp::kEq, Value("p2")),
                        [](Row* r) { (*r)[1] = Value(int64_t(99)); })
                  .value(),
              1u);
    ASSERT_EQ(db.Delete(t, Compare(0, CompareOp::kEq, Value("p4"))).value(),
              1u);
    ASSERT_TRUE(db.Close().ok());
  }
  Database db(WalOptions(&env, "wal"));
  ASSERT_TRUE(db.Open().ok());
  Table* t = db.CreateTable("people", PeopleSchema()).value();
  EXPECT_EQ(t->live_rows(), 4u);
  EXPECT_EQ(db.replay_stats().updates, 1u);
  EXPECT_EQ(db.replay_stats().deletes, 1u);
  auto rows = db.Select(t, Compare(0, CompareOp::kEq, Value("p2")));
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0][1].AsInt64(), 99);
  EXPECT_TRUE(
      db.Select(t, Compare(0, CompareOp::kEq, Value("p4"))).value().empty());
}

TEST(WalReplay, ToleratesTruncatedTail) {
  MemEnv env;
  {
    Database db(WalOptions(&env, "wal"));
    ASSERT_TRUE(db.Open().ok());
    Table* t = db.CreateTable("people", PeopleSchema()).value();
    for (int i = 0; i < 3; ++i) {
      ASSERT_TRUE(
          db.Insert(t, {Value("row" + std::to_string(i)), Value(int64_t(i))})
              .ok());
    }
    ASSERT_TRUE(db.Close().ok());
  }
  // Simulate a torn append: chop bytes off the last record.
  std::string wal = env.ReadFileToString("wal").value();
  auto torn = std::move(env.NewWritableFile("wal", /*truncate=*/true).value());
  ASSERT_TRUE(torn->Append(wal.substr(0, wal.size() - 4)).ok());
  ASSERT_TRUE(torn->Close().ok());

  {
    Database db(WalOptions(&env, "wal"));
    ASSERT_TRUE(db.Open().ok());
    Table* t = db.CreateTable("people", PeopleSchema()).value();
    EXPECT_EQ(t->live_rows(), 2u);  // the torn third insert is dropped
    EXPECT_TRUE(db.replay_stats().truncated_tail);
    EXPECT_EQ(db.replay_stats().inserts, 2u);
    // The store keeps working: new writes append after the recovered
    // prefix (recovery rewrote the log, dropping the torn bytes).
    ASSERT_TRUE(db.Insert(t, {Value("fresh"), Value(int64_t(7))}).ok());
    EXPECT_EQ(t->live_rows(), 3u);
    ASSERT_TRUE(db.Close().ok());
  }
  // Writes made after a torn-tail recovery must survive the NEXT reopen —
  // i.e. recovery may not leave torn bytes in front of them.
  Database db(WalOptions(&env, "wal"));
  ASSERT_TRUE(db.Open().ok());
  Table* t = db.CreateTable("people", PeopleSchema()).value();
  EXPECT_FALSE(db.replay_stats().truncated_tail);
  EXPECT_EQ(t->live_rows(), 3u);
  auto rows = db.Select(t, Compare(0, CompareOp::kEq, Value("fresh")));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0][1].AsInt64(), 7);
}

TEST(WalReplay, EncryptedCellsRoundTrip) {
  MemEnv env;
  RelOptions o = WalOptions(&env, "wal");
  o.encrypt_at_rest = true;
  {
    Database db(o);
    ASSERT_TRUE(db.Open().ok());
    Table* t = db.CreateTable("people", PeopleSchema()).value();
    ASSERT_TRUE(db.Insert(t, {Value("secret"), Value(int64_t(1))}).ok());
    ASSERT_TRUE(db.Close().ok());
  }
  // Personal data must not sit in the log in plaintext.
  EXPECT_EQ(env.ReadFileToString("wal").value().find("secret"),
            std::string::npos);
  Database db(o);
  ASSERT_TRUE(db.Open().ok());
  Table* t = db.CreateTable("people", PeopleSchema()).value();
  auto rows = db.Select(t, Compare(0, CompareOp::kEq, Value("secret")));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0][0].AsString(), "secret");
}

TEST(WalReplay, RelGdprStoreRecordsSurviveReopen) {
  MemEnv env;
  RelGdprOptions o;
  o.compliance.metadata_indexing = true;
  o.rel.env = &env;
  o.rel.wal_enabled = true;
  o.rel.wal_path = "gdpr-wal";
  o.rel.sync_policy = SyncPolicy::kNever;

  GdprRecord rec;
  rec.key = "k1";
  rec.data = "payload";
  rec.metadata.user = "neo";
  rec.metadata.purposes = {"billing"};
  rec.metadata.origin = "first-party";
  {
    RelGdprStore store(o);
    ASSERT_TRUE(store.Open().ok());
    ASSERT_TRUE(store.CreateRecord(Actor::Controller(), rec).ok());
    ASSERT_TRUE(store.Close().ok());
  }
  RelGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  auto back = store.ReadDataByKey(Actor::Customer("neo"), "k1");
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back.value().data, "payload");
  EXPECT_EQ(back.value().metadata.user, "neo");
  // Index backfill ran over the replayed rows.
  auto by_user = store.ReadMetadataByUser(Actor::Customer("neo"), "neo");
  ASSERT_TRUE(by_user.ok());
  EXPECT_EQ(by_user.value().size(), 1u);
}

// ---- replay equals live -----------------------------------------------------
// A mixed history, replayed from the WAL alone or from a checkpoint plus its
// tail, must rebuild the database the live writes left behind: the same
// answers, the same live row count and, on an unindexed table, the same
// resident bytes (an indexed table's B+tree shape depends on insert order).

struct ReplayCase {
  bool encrypt;
  bool checkpoint;
  bool indexed;
};

class ReplayEqualsLive : public ::testing::TestWithParam<ReplayCase> {};

struct DbState {
  std::vector<Row> rows;  // every live row, sorted
  std::vector<Row> old;   // Select(age >= 100), sorted
  std::vector<Row> named; // Select(name == "q8")
  size_t live_rows = 0;
  size_t bytes = 0;
};

DbState Capture(Database* db, Table* t) {
  DbState s;
  EXPECT_TRUE(db->ScanRows(t, [&](const Row& r) {
                  s.rows.push_back(r);
                  return true;
                }).ok());
  s.old = db->Select(t, Compare(1, CompareOp::kGe, Value(int64_t(100))))
              .value();
  s.named = db->Select(t, Compare(0, CompareOp::kEq, Value("q8")))
                .value();
  std::sort(s.rows.begin(), s.rows.end());
  std::sort(s.old.begin(), s.old.end());
  s.live_rows = t->live_rows();
  s.bytes = db->ApproximateBytes();
  return s;
}

TEST_P(ReplayEqualsLive, ReopenedDatabaseAnswersLikeTheLiveOne) {
  const ReplayCase c = GetParam();
  MemEnv env;
  RelOptions o = WalOptions(&env, "wal");
  o.encrypt_at_rest = c.encrypt;
  const auto open_people = [&](Database* db) {
    Table* t = db->CreateTable("people", PeopleSchema()).value();
    if (c.indexed) {
      EXPECT_TRUE(db->CreateIndex("people", "name").ok());
      EXPECT_TRUE(db->CreateIndex("people", "age").ok());
    }
    return t;
  };
  DbState live;
  {
    Database db(o);
    ASSERT_TRUE(db.Open().ok());
    Table* t = open_people(&db);
    for (int64_t i = 0; i < 20; ++i) {
      ASSERT_TRUE(
          db.Insert(t, {Value("p" + std::to_string(i)), Value(i)}).ok());
    }
    auto aged = db.Update(t, Compare(1, CompareOp::kLt, Value(int64_t(5))),
                          [](Row* r) {
                            (*r)[1] = Value((*r)[1].AsInt64() + 100);
                          });
    ASSERT_EQ(aged.value(), 5u);
    ASSERT_EQ(db.Delete(t, Compare(0, CompareOp::kEq, Value("p7"))).value(),
              1u);
    if (c.checkpoint) {
      ASSERT_TRUE(db.Checkpoint().ok());
    }
    auto thirds = db.DeleteWhere(
        t, [](const Row& r) { return r[1].AsInt64() % 3 == 0; });
    ASSERT_GT(thirds.value(), 0u);
    ASSERT_EQ(db.Update(t, Compare(0, CompareOp::kEq, Value("p8")),
                        [](Row* r) { (*r)[0] = Value("q8"); })
                  .value(),
              1u);
    ASSERT_TRUE(db.Insert(t, {Value("late"), Value(int64_t(1000))}).ok());
    ASSERT_EQ(
        db.Delete(t, Compare(1, CompareOp::kGe, Value(int64_t(104)))).value(),
        2u);  // p4 (104) and late (1000)
    live = Capture(&db, t);
    ASSERT_TRUE(db.Close().ok());
  }
  Database db(o);
  ASSERT_TRUE(db.Open().ok());
  EXPECT_EQ(db.replay_stats().from_snapshot, c.checkpoint);
  Table* t = open_people(&db);
  const DbState replayed = Capture(&db, t);
  EXPECT_EQ(replayed.rows, live.rows);
  EXPECT_EQ(replayed.old, live.old);
  EXPECT_EQ(replayed.named, live.named);
  ASSERT_EQ(live.named.size(), 1u);
  EXPECT_EQ(replayed.live_rows, live.live_rows);
  if (!c.indexed) {
    EXPECT_EQ(replayed.bytes, live.bytes);
  }
}

INSTANTIATE_TEST_SUITE_P(
    MixedHistory, ReplayEqualsLive,
    ::testing::Values(ReplayCase{false, false, false},
                      ReplayCase{false, true, false},
                      ReplayCase{true, false, false},
                      ReplayCase{true, true, false},
                      ReplayCase{false, false, true},
                      ReplayCase{false, true, true},
                      ReplayCase{true, false, true},
                      ReplayCase{true, true, true}),
    [](const ::testing::TestParamInfo<ReplayCase>& info) {
      return std::string(info.param.encrypt ? "Sealed" : "Plain") +
             (info.param.checkpoint ? "Checkpointed" : "WalOnly") +
             (info.param.indexed ? "Indexed" : "Unindexed");
    });

// ---- golden bytes ---------------------------------------------------------
// One frame of every kind the WAL holds, pinned byte for byte. The replay
// tests above would still pass if the encoder and ParseWalFrame drifted
// together; these literals pin the on-disk format itself, so a change to
// them is a format change that existing logs would no longer replay.

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    out.push_back(kDigits[uint8_t(c) >> 4]);
    out.push_back(kDigits[uint8_t(c) & 0xf]);
  }
  return out;
}

TEST(WalGolden, EveryFrameKindEncodesToItsPinnedBytes) {
  MemEnv env;
  {
    Database db(WalOptions(&env, "wal"));
    ASSERT_TRUE(db.Open().ok());
    Table* t = db.CreateTable("people", PeopleSchema()).value();
    ASSERT_TRUE(db.Checkpoint().ok());
    ASSERT_TRUE(db.Insert(t, {Value("ada"), Value(int64_t(36))}).ok());
    ASSERT_EQ(db.Update(t, Compare(0, CompareOp::kEq, Value("ada")),
                        [](Row* r) { (*r)[1] = Value(int64_t(37)); })
                  .value(),
              1u);
    ASSERT_EQ(db.Delete(t, Compare(0, CompareOp::kEq, Value("ada"))).value(),
              1u);
    ASSERT_TRUE(db.Close().ok());
  }
  // Varints are LEB128, cells are <type byte> then an 8-byte little-endian
  // int64 or a length-prefixed string (kInt64 = 1, kString = 2).
  const std::string expected = std::string() +
      "4501" +                                  // 'E' epoch 1
      "49" "06" "70656f706c65"                  // 'I' "people"
          "02" "02" "03" "616461"               //   2 cells: "ada"
          "01" "2400000000000000" +             //            36
      "55" "06" "70656f706c65" "01"             // 'U' "people" rid 1
          "02" "02" "03" "616461"               //   2 cells: "ada"
          "01" "2500000000000000" +             //            37
      "44" "06" "70656f706c65" "01";            // 'D' "people" rid 1
  EXPECT_EQ(Hex(env.ReadFileToString("wal").value()), expected);
}

// The same 'I' frame with encrypt_at_rest on: each string cell is the
// marker byte 3, the int64 cell stays in the clear, and one AEAD blob,
// [8B LE seq][ciphertext][16B tag], seals the row's length-prefixed string
// cells after the cells.
TEST(WalGolden, SealedRowInsertEncodesToItsPinnedBytes) {
  MemEnv env;
  RelOptions o = WalOptions(&env, "wal");
  o.encrypt_at_rest = true;
  {
    Database db(o);
    ASSERT_TRUE(db.Open().ok());
    Table* t = db.CreateTable("people", PeopleSchema()).value();
    ASSERT_TRUE(db.Insert(t, {Value("ada"), Value(int64_t(36))}).ok());
    ASSERT_TRUE(db.Close().ok());
  }
  const std::string expected = std::string() +
      "49" "06" "70656f706c65"                  // 'I' "people"
          "02" "03"                             //   2 cells: sealed string
          "01" "2400000000000000"               //            36
          "1c"                                  //   28 sealed bytes
          "0100000000000000"                    //     seq 1
          "a1b74d72"                            //     03 "ada" enciphered
          "de00f0cf9b815eb7bd961c78a53c39f9";   //     tag
  EXPECT_EQ(Hex(env.ReadFileToString("wal").value()), expected);
}

// The sealed 'I' frame of builds that sealed each string cell alone (a
// kString cell holding [8B LE seq][ciphertext][16B tag]) still replays. The
// bytes were captured from such a build. Replay seals the row again in
// today's layout, so the next checkpoint writes no legacy cell and the row
// still reads back after a reopen from that checkpoint.
const std::string kLegacySealedInsert = std::string() +
    "49" "06" "70656f706c65"                    // 'I' "people"
        "02" "02" "1b"                          //   2 cells: 27 sealed bytes
        "0100000000000000"                      //     seq 1
        "c3b248"                                //     "ada" enciphered
        "e75a583760196af05ed9d1910b0e8b91"      //     tag
        "01" "2400000000000000";                //   36

std::string Unhex(std::string_view hex) {
  std::string out;
  for (size_t i = 0; i + 1 < hex.size(); i += 2) {
    out.push_back(char(std::stoi(std::string(hex.substr(i, 2)), nullptr, 16)));
  }
  return out;
}

void WriteFile(MemEnv* env, const std::string& path, std::string_view bytes) {
  auto f = env->NewWritableFile(path, /*truncate=*/true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(f.value()->Append(bytes).ok());
  ASSERT_TRUE(f.value()->Close().ok());
}

void ExpectAda(Database* db) {
  Table* t = db->CreateTable("people", PeopleSchema()).value();
  auto rows = db->Select(t, Compare(0, CompareOp::kEq, Value("ada")));
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0][1].AsInt64(), 36);
}

TEST(WalReplay, LegacySealedCellFrameOpensAndMigrates) {
  MemEnv env;
  RelOptions o = WalOptions(&env, "wal");
  o.encrypt_at_rest = true;
  WriteFile(&env, "wal", Unhex(kLegacySealedInsert));
  {
    Database db(o);
    ASSERT_TRUE(db.Open().ok());
    ExpectAda(&db);
    EXPECT_EQ(db.replay_stats().inserts, 1u);
    ASSERT_TRUE(db.Checkpoint().ok());
    ASSERT_TRUE(db.Close().ok());
  }
  const std::string snapshot =
      env.ReadFileToString(Database::SnapshotPath("wal")).value();
  EXPECT_EQ(Hex(snapshot).find("c3b248e75a58"), std::string::npos);
  EXPECT_NE(Hex(snapshot).find("020301" "2400000000000000"),
            std::string::npos);  // the row in today's layout
  Database db(o);
  ASSERT_TRUE(db.Open().ok());
  EXPECT_TRUE(db.replay_stats().from_snapshot);
  ExpectAda(&db);
}

// A checkpoint snapshot from the same builds, its one row holding the same
// sealed cell, opens too.
TEST(WalReplay, LegacySnapshotWithSealedCellsOpens) {
  MemEnv env;
  RelOptions o = WalOptions(&env, "wal");
  o.encrypt_at_rest = true;
  std::string snapshot = "RSNP1";
  PutVarint64(&snapshot, 1);  // epoch
  PutFixed64(&snapshot, 2);   // seal counter mark
  PutVarint64(&snapshot, 1);  // one table
  PutLengthPrefixed(&snapshot, "people");
  PutVarint64(&snapshot, 1);  // one slot, live
  snapshot.push_back(char(1));
  // The legacy frame's cells follow its 'I' and table name.
  snapshot += Unhex(kLegacySealedInsert).substr(1 + 1 + 6);
  WriteFile(&env, Database::SnapshotPath("wal"), snapshot);
  Database db(o);
  ASSERT_TRUE(db.Open().ok());
  EXPECT_TRUE(db.replay_stats().from_snapshot);
  ExpectAda(&db);
  EXPECT_EQ(db.replay_stats().snapshot_rows, 1u);
}

// The seq a sealed-row 'I' frame of PeopleSchema seals its block under:
// 'I', the table name, the cell count, the sealed string's marker and the
// int cell, then the block.
uint64_t SealedRowSeq(std::string_view in) {
  std::string_view table, sealed;
  uint64_t ncells = 0, age = 0, seq = 0;
  EXPECT_EQ(in.front(), 'I');
  in.remove_prefix(1);
  EXPECT_TRUE(GetLengthPrefixed(&in, &table));
  EXPECT_TRUE(GetVarint64(&in, &ncells));
  EXPECT_EQ(in.substr(0, 2), std::string_view("\x03\x01", 2));
  in.remove_prefix(2);
  EXPECT_TRUE(GetFixed64(&in, &age));
  EXPECT_TRUE(GetLengthPrefixed(&in, &sealed));
  EXPECT_TRUE(GetFixed64(&sealed, &seq));
  return seq;
}

// Recovery resumes the seal counter above the seq of every sealed cell it
// replays, not above the log's length: an Update whose build a concurrent
// write overtook seals its row again, and the discarded seqs never reach
// the WAL. A log holding one cell sealed at seq 1,000,000 (far more seqs
// than log bytes) must make the next seal use a higher one.
TEST(WalReplay, SealSeqResumesAboveEveryReplayedCell) {
  MemEnv env;
  RelOptions o = WalOptions(&env, "wal");
  o.encrypt_at_rest = true;
  std::string frame(1, 'I');
  PutLengthPrefixed(&frame, "people");
  PutVarint64(&frame, 2);
  frame.push_back(char(ValueType::kString));
  PutLengthPrefixed(&frame, Aead(o.encryption_key).Seal("ada", 1000000));
  frame.push_back(char(ValueType::kInt64));
  PutFixed64(&frame, 36);
  {
    auto f = env.NewWritableFile("wal", /*truncate=*/true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f.value()->Append(frame).ok());
    ASSERT_TRUE(f.value()->Close().ok());
  }
  {
    Database db(o);
    ASSERT_TRUE(db.Open().ok());
    Table* t = db.CreateTable("people", PeopleSchema()).value();
    auto rows = db.Select(t, Compare(0, CompareOp::kEq, Value("ada")));
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows.value().size(), 1u);
    ASSERT_TRUE(db.Insert(t, {Value("alan"), Value(int64_t(41))}).ok());
    ASSERT_TRUE(db.Close().ok());
  }
  // The insert's frame follows the hand-built one.
  const std::string wal = env.ReadFileToString("wal").value();
  std::string_view in(wal);
  ASSERT_GT(in.size(), frame.size());
  in.remove_prefix(frame.size());
  const uint64_t seq = SealedRowSeq(in);
  EXPECT_GT(seq, 1000000u);
}

// The same for a replayed frame in today's layout, its row sealed at seq
// 1,000,000.
TEST(WalReplay, SealSeqResumesAboveEveryReplayedRow) {
  MemEnv env;
  RelOptions o = WalOptions(&env, "wal");
  o.encrypt_at_rest = true;
  std::string frame(1, 'I'), strings;
  PutLengthPrefixed(&frame, "people");
  PutVarint64(&frame, 2);
  frame.push_back(char(3));  // a sealed string
  frame.push_back(char(ValueType::kInt64));
  PutFixed64(&frame, 36);
  PutLengthPrefixed(&strings, "ada");
  PutLengthPrefixed(&frame, Aead(o.encryption_key).Seal(strings, 1000000));
  WriteFile(&env, "wal", frame);
  {
    Database db(o);
    ASSERT_TRUE(db.Open().ok());
    ExpectAda(&db);
    Table* t = db.GetTable("people");
    ASSERT_TRUE(db.Insert(t, {Value("alan"), Value(int64_t(41))}).ok());
    ASSERT_TRUE(db.Close().ok());
  }
  const std::string wal = env.ReadFileToString("wal").value();
  std::string_view in(wal);
  ASSERT_GT(in.size(), frame.size());
  in.remove_prefix(frame.size());
  EXPECT_GT(SealedRowSeq(in), 1000000u);
}

// ---- AOF and audit-chain golden bytes ---------------------------------------
// The same pin for the other two logs recovery reads: every AOF frame kind,
// and an audit segment's header and group frames across one rotation.

kv::Options AofOptions(Env* env, Clock* clock) {
  kv::Options o;
  o.env = env;
  o.clock = clock;
  o.aof_enabled = true;
  o.aof_path = "aof";
  o.sync_policy = SyncPolicy::kNever;
  return o;
}

TEST(AofGolden, EveryFrameKindEncodesToItsPinnedBytes) {
  MemEnv env;
  SimulatedClock clock(0);
  kv::Options o = AofOptions(&env, &clock);
  o.log_reads = true;
  {
    kv::MemKV db(o);
    ASSERT_TRUE(db.Open().ok());
    ASSERT_TRUE(db.Set("ada", "v1").ok());
    ASSERT_TRUE(db.SetWithTtl("bob", "v2", 1000000).ok());
    ASSERT_TRUE(db.Get("ada").ok());
    ASSERT_TRUE(db.Delete("ada").ok());
    ASSERT_TRUE(db.AddTombstone("ada").ok());
    ASSERT_TRUE(db.ClearTombstone("ada").ok());
    ASSERT_TRUE(db.Close().ok());
  }
  // Keys and values are varint-length-prefixed; an 'S' frame's expiry is
  // an 8-byte little-endian absolute time in microseconds (0 = none).
  const std::string expected = std::string() +
      "53" "03" "616461" "02" "7631"            // 'S' "ada" = "v1"
          "0000000000000000" +                  //   no expiry
      "53" "03" "626f62" "02" "7632"            // 'S' "bob" = "v2"
          "40420f0000000000" +                  //   expires at 1 s
      "52" "03" "616461" +                      // 'R' "ada" (read log)
      "44" "03" "616461" +                      // 'D' "ada"
      "54" "03" "616461" +                      // 'T' "ada" (tombstone)
      "74" "03" "616461";                       // 't' "ada" (cleared)
  EXPECT_EQ(Hex(env.ReadFileToString("aof").value()), expected);
}

// A sealed 'S' frame stores the AEAD's [8B LE seq][ciphertext][16B tag],
// and the rewrite that drops dead sealed frames ends with the 'Q' frame
// carrying the seal-sequence high-water mark.
TEST(AofGolden, SealedRewriteEncodesToItsPinnedBytes) {
  MemEnv env;
  SimulatedClock clock(0);
  kv::Options o = AofOptions(&env, &clock);
  o.encrypt_at_rest = true;
  {
    kv::MemKV db(o);
    ASSERT_TRUE(db.Open().ok());
    ASSERT_TRUE(db.Set("ada", "v1").ok());
    ASSERT_TRUE(db.CompactAof().ok());
    ASSERT_TRUE(db.Close().ok());
  }
  const std::string expected = std::string() +
      "53" "03" "616461" "1a"                   // 'S' "ada", 26 sealed bytes
          "0100000000000000"                    //   seq 1
          "4e83"                                //   "v1" enciphered
          "c90947d5cb44e8f3be1717ca6fd0b45d"    //   tag
          "0000000000000000" +                  //   no expiry
      "51" "0200000000000000";                  // 'Q' next seq 2
  EXPECT_EQ(Hex(env.ReadFileToString("aof").value()), expected);
  kv::MemKV db(o);
  ASSERT_TRUE(db.Open().ok());
  EXPECT_EQ(db.Get("ada").value(), "v1");
}

TEST(AuditGolden, SegmentHeaderAndGroupFramesEncodeToTheirPinnedBytes) {
  MemEnv env;
  AuditLogOptions ao;
  ao.env = &env;
  ao.path = "audit";
  ao.sync_policy = SyncPolicy::kNever;
  ao.rotate_bytes = 1;  // every group frame fills its segment
  {
    AuditLog log(/*seal_interval=*/1);
    ASSERT_TRUE(log.OpenDurable(ao).ok());
    for (int i = 0; i < 2; ++i) {
      AuditEntry e;
      e.timestamp_micros = 1 + i;
      e.actor_id = "ctl";
      e.role = Actor::Role::kController;
      e.op = "READ";
      e.key = "k" + std::to_string(i);
      e.allowed = i == 0;
      log.Append(e);
    }
    ASSERT_TRUE(log.CloseDurable().ok());
  }
  // Headers are 'A' <epoch varint> <anchor>: segment 1 anchors at the
  // genesis string, later ones at the running head. A group is 'G' <hash>
  // <n varint> <entries>, hash = SHA-256(previous head || entries); an
  // entry is <ts fixed64> <actor> <role> <op> <key> <allowed>.
  const std::string head1 =
      "793df2a1fb464540c50ac1f4bcc186d1b4c64ce14666210c3551e83a5dc5036d";
  const std::string head2 =
      "f4aeae8c006cd15601e61b284dc3a390c52468d4fb8d42d3cbc7255d52712939";
  const std::string entry0 = std::string() + "0100000000000000" +
                             "03" "63746c" "00" "04" "52454144" +
                             "02" "6b30" "01";
  const std::string entry1 = std::string() + "0200000000000000" +
                             "03" "63746c" "00" "04" "52454144" +
                             "02" "6b31" "00";
  EXPECT_EQ(Hex(env.ReadFileToString("audit.seg1").value()),
            std::string() + "41" "00" "13" +
                "61756469742d636861696e2d67656e65736973" +  // genesis
                "47" "20" + head1 + "01" + entry0);
  EXPECT_EQ(Hex(env.ReadFileToString("audit.seg2").value()),
            std::string() + "41" "00" "20" + head1 +
                "47" "20" + head2 + "01" + entry1);
  AuditLog log(1);
  ASSERT_TRUE(log.OpenDurable(ao).ok());
  EXPECT_EQ(log.size(), 2u);
  EXPECT_TRUE(log.VerifyChain());
}

}  // namespace
}  // namespace gdpr::rel
