#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "relstore/database.h"
#include "relstore/ttl_daemon.h"
#include "storage/fault_env.h"

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
  auto rows = db.Select(t, Compare(0, CompareOp::kEq, Value(int64_t(7))));
  ASSERT_TRUE(rows.ok());
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0][1].AsInt64(), 70);
  // Scan predicate over a non-indexed column.
  auto owned = db.Select(t, Compare(2, CompareOp::kEq, Value("u3")));
  EXPECT_EQ(owned.value().size(), 10u);
  // Limit.
  auto limited =
      db.Select(t, Compare(2, CompareOp::kEq, Value("u3")), 3);
  EXPECT_EQ(limited.value().size(), 3u);
}

TEST(Database, IndexedSelectMatchesScan) {
  Database db((RelOptions()));
  ASSERT_TRUE(db.Open().ok());
  Table* t = MakeAccounts(&db);
  for (int64_t i = 0; i < 500; ++i) {
    db.Insert(t, {Value(i), Value(i), Value("u" + std::to_string(i % 7))}).ok();
  }
  auto scan = db.Select(t, Compare(2, CompareOp::kEq, Value("u5")));
  ASSERT_TRUE(db.CreateIndex("accounts", "owner").ok());
  auto indexed = db.Select(t, Compare(2, CompareOp::kEq, Value("u5")));
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
  auto n = db.Update(t, Compare(0, CompareOp::kEq, Value(int64_t(3))),
                     [](Row* row) {
                       (*row)[1] = Value(int64_t(777));
                       (*row)[2] = Value("after");
                     });
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1u);
  // The index must reflect the new value and forget the old one.
  auto after = db.Select(t, Compare(2, CompareOp::kEq, Value("after")));
  ASSERT_EQ(after.value().size(), 1u);
  EXPECT_EQ(after.value()[0][1].AsInt64(), 777);
  auto before =
      db.Select(t, Compare(2, CompareOp::kEq, Value("before")));
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
  auto n = db.Delete(t, Compare(2, CompareOp::kEq, Value("odd")));
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 15u);
  EXPECT_EQ(t->live_rows(), 15u);
  EXPECT_TRUE(
      db.Select(t, Compare(2, CompareOp::kEq, Value("odd")))
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
  EXPECT_EQ(db.Select(t, Compare(0, CompareOp::kGe, Value(int64_t(90))))
                .value()
                .size(),
            10u);
  EXPECT_EQ(db.Select(t, Compare(0, CompareOp::kLt, Value(int64_t(10))))
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
  auto rows = db.Select(t, Compare(2, CompareOp::kEq, Value("alice")));
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
// ciphertext, nor vanish from an answer: every read that meets the row says
// DataLoss, and a read that never touches it still answers. A write that
// cannot tell whether the row matches, or would re-seal its ciphertext,
// says DataLoss and changes nothing; only deletion may remove the row.
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
  // Each database below starts from this corrupt log.
  const auto reopen = [&](std::unique_ptr<Database>* db) {
    db->reset();
    auto f = env.NewWritableFile("rel.wal", /*truncate=*/true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f.value()->Append(wal).ok());
    ASSERT_TRUE(f.value()->Close().ok());
    *db = std::make_unique<Database>(o);
    ASSERT_TRUE((*db)->Open().ok());
  };
  const auto by_owner = [](const char* owner) {
    return Compare(2, CompareOp::kEq, Value(owner));
  };
  const auto by_aid = [](int64_t aid) {
    return Compare(0, CompareOp::kEq, Value(aid));
  };
  const auto bump = [](Row* r) { (*r)[1] = Value((*r)[1].AsInt64() + 10); };

  std::unique_ptr<Database> db;
  reopen(&db);
  Table* t = MakeAccounts(db.get());
  EXPECT_TRUE(db->Select(t, by_owner("u0")).status().IsDataLoss());
  EXPECT_TRUE(db->Select(t, by_aid(2)).status().IsDataLoss());
  auto healthy = db->Select(t, by_aid(0));
  ASSERT_TRUE(healthy.ok()) << healthy.status().ToString();
  EXPECT_EQ(healthy.value()[0][2].AsString(), "u0");
  size_t visited = 0;
  EXPECT_TRUE(db->ScanRows(t, [&](const Row&) { return ++visited > 0; })
                  .IsDataLoss());
  EXPECT_EQ(visited, 2u);

  // A scanned predicate cell that fails to open: the write cannot tell
  // whether row 2 matches, so it refuses rather than answer 1 for u0.
  EXPECT_TRUE(db->Update(t, by_owner("u0"), bump).status().IsDataLoss());
  EXPECT_TRUE(db->Delete(t, by_owner("u0")).status().IsDataLoss());
  // Row 2 matches on a readable cell, but re-sealing its row would turn
  // the owner's ciphertext into its plaintext.
  EXPECT_TRUE(db->Update(t, by_aid(2), bump).status().IsDataLoss());
  EXPECT_TRUE(db->Select(t, by_aid(2)).status().IsDataLoss());
  // An index whose backfill could not open row 2 cannot say either.
  ASSERT_TRUE(db->CreateIndex("accounts", "owner").ok());
  EXPECT_TRUE(db->Update(t, by_owner("u1"), bump).status().IsDataLoss());
  EXPECT_TRUE(db->Delete(t, by_owner("u1")).status().IsDataLoss());
  // Nothing changed, in memory or in the log.
  ASSERT_EQ(t->live_rows(), 3u);
  EXPECT_EQ(db->Select(t, by_aid(0)).value()[0][1].AsInt64(), 0);
  EXPECT_EQ(db->Select(t, by_aid(1)).value()[0][1].AsInt64(), 1);
  EXPECT_EQ(env.ReadFileToString("rel.wal").value(), wal);

  // Deletion may remove a matched row whose other cells are unreadable.
  auto erased = db->Delete(t, by_aid(2));
  ASSERT_TRUE(erased.ok()) << erased.status().ToString();
  EXPECT_EQ(erased.value(), 1u);
  visited = 0;
  EXPECT_TRUE(db->ScanRows(t, [&](const Row&) { return ++visited > 0; }).ok());
  EXPECT_EQ(visited, 2u);

  // DeleteWhere is the wipe path: its predicate sees unreadable cells still
  // sealed, and every row it accepts goes.
  reopen(&db);
  t = MakeAccounts(db.get());
  auto wiped = db->DeleteWhere(t, [](const Row&) { return true; });
  ASSERT_TRUE(wiped.ok()) << wiped.status().ToString();
  EXPECT_EQ(wiped.value(), 3u);
  EXPECT_EQ(t->live_rows(), 0u);
}

// An Update that fails on any matched row applies none of them: not in
// memory, not in the log.
TEST(Database, UpdateIsAllOrNothing) {
  MemEnv env;
  RelOptions o;
  o.env = &env;
  o.wal_enabled = true;
  o.wal_path = "rel.wal";
  o.sync_policy = SyncPolicy::kNever;
  const auto owned_by_u = [] {
    return Compare(2, CompareOp::kEq, Value("u"));
  };
  const auto balances = [&](Database* db, Table* t) {
    std::vector<int64_t> out;
    auto rows = db->Select(t, owned_by_u());
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    for (const Row& r : rows.value()) out.push_back(r[1].AsInt64());
    return out;
  };
  {
    Database db(o);
    ASSERT_TRUE(db.Open().ok());
    Table* t = MakeAccounts(&db);
    for (int64_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(db.Insert(t, {Value(i), Value(i), Value("u")}).ok());
    }
    size_t calls = 0;
    auto updated = db.Update(t, owned_by_u(), [&](Row* r) {
      (*r)[1] = Value(int64_t(100));
      if (++calls == 2) r->push_back(Value("extra"));  // arity change
    });
    EXPECT_EQ(updated.status().code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(balances(&db, t), (std::vector<int64_t>{0, 1, 2}));
    ASSERT_TRUE(db.Close().ok());
  }
  Database db(o);
  ASSERT_TRUE(db.Open().ok());
  Table* t = MakeAccounts(&db);
  EXPECT_EQ(balances(&db, t), (std::vector<int64_t>{0, 1, 2}));
}

// Log before apply: an Insert, Update or Delete whose WAL append, or whose
// statement-log append, fails returns the error and changes nothing — not
// what Select serves, and not what a Checkpoint and a reopen recover.
TEST(Database, FailedLogAppendChangesNothing) {
  const auto by_aid = [](int64_t aid) {
    return Compare(0, CompareOp::kEq, Value(aid));
  };
  const std::vector<std::function<Status(Database*, Table*)>> writes = {
      [](Database* db, Table* t) {
        return db->Insert(t, {Value(int64_t(3)), Value(int64_t(30)),
                              Value("u")});
      },
      [&](Database* db, Table* t) {
        return db
            ->Update(t, by_aid(1),
                     [](Row* r) { (*r)[1] = Value(int64_t(100)); })
            .status();
      },
      [&](Database* db, Table* t) {
        return db->Delete(t, by_aid(2)).status();
      },
  };
  const auto balances = [](Database* db, Table* t) {
    std::vector<int64_t> out;
    auto rows = db->Select(t, Compare(2, CompareOp::kEq, Value("u")));
    EXPECT_TRUE(rows.ok()) << rows.status().ToString();
    for (const Row& r : rows.value()) out.push_back(r[1].AsInt64());
    return out;
  };
  const std::vector<int64_t> want = {10, 20};
  for (const std::string log : {"rel.wal", "rel.stmt"}) {
    MemEnv mem;
    FaultEnv fenv(&mem);
    RelOptions o;
    o.env = &fenv;
    o.wal_enabled = true;
    o.wal_path = "rel.wal";
    o.log_statements = true;
    o.statement_log_path = "rel.stmt";
    o.sync_policy = SyncPolicy::kAlways;
    {
      Database db(o);
      ASSERT_TRUE(db.Open().ok());
      Table* t = MakeAccounts(&db);
      ASSERT_TRUE(
          db.Insert(t, {Value(int64_t(1)), Value(int64_t(10)), Value("u")})
              .ok());
      ASSERT_TRUE(
          db.Insert(t, {Value(int64_t(2)), Value(int64_t(20)), Value("u")})
              .ok());
      ASSERT_TRUE(db.Close().ok());
    }
    // One open per write: a reopen heals a failed statement log.
    for (size_t i = 0; i < writes.size(); ++i) {
      SCOPED_TRACE(log + " failing, write " + std::to_string(i));
      Database db(o);
      ASSERT_TRUE(db.Open().ok());
      Table* t = MakeAccounts(&db);
      FaultPlan plan;
      plan.fail_prob[int(FaultOpKind::kAppend)] = 1.0;
      plan.path_filter = log;
      fenv.set_plan(plan);
      EXPECT_FALSE(writes[i](&db, t).ok());
      fenv.ClearFaults();
      EXPECT_EQ(balances(&db, t), want);
      EXPECT_TRUE(db.Checkpoint().ok());
      (void)db.Close();
    }
    SCOPED_TRACE(log + " failing, reopened");
    Database db(o);
    ASSERT_TRUE(db.Open().ok());
    EXPECT_EQ(balances(&db, MakeAccounts(&db)), want);
  }
}

// Update builds its new images with no table lock held. A write that lands
// between the build's match and its apply makes it discard the build and
// run `mutate` again, under the lock, on the image that write installed.
// A write that matches nothing appends no WAL frame.
TEST(Database, UpdateRebuildsWhenRowChangesMidBuild) {
  MemEnv env;
  RelOptions o;
  o.env = &env;
  o.wal_enabled = true;
  o.wal_path = "rel.wal";
  o.sync_policy = SyncPolicy::kNever;
  o.encrypt_at_rest = true;
  const auto by_aid = [](int64_t aid) {
    return Compare(0, CompareOp::kEq, Value(aid));
  };
  const auto counter = [](Database* db, const char* name) {
    return db->metrics_registry()->GetCounter(name)->Value();
  };
  const auto rows = [](Database* db, Table* t) {
    std::vector<Row> out;
    EXPECT_TRUE(db->ScanRows(t, [&](const Row& r) {
                    out.push_back(r);
                    return true;
                  }).ok());
    return out;
  };
  const auto open_accounts = [](Database* db) {
    Table* t = MakeAccounts(db);
    EXPECT_TRUE(db->CreateIndex("accounts", "aid").ok());
    return t;
  };
  std::vector<Row> live;
  {
    Database db(o);
    ASSERT_TRUE(db.Open().ok());
    Table* t = open_accounts(&db);
    for (int64_t aid : {1, 2}) {
      ASSERT_TRUE(db.Insert(t, {Value(aid), Value(aid * 10), Value("u")}).ok());
    }
    size_t calls = 0;
    auto updated = db.Update(t, by_aid(1), [&](Row* r) {
      if (++calls == 1) {  // the competitor applies before this build does
        std::thread([&] {
          auto n = db.Update(t, by_aid(1), [](Row* c) {
            (*c)[2] = Value("competitor");
          });
          EXPECT_EQ(n.value(), 1u);
        }).join();
      }
      (*r)[1] = Value((*r)[1].AsInt64() + 1);
    });
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    EXPECT_EQ(updated.value(), 1u);
    EXPECT_EQ(calls, 2u);
    EXPECT_EQ(counter(&db, "reldb_write_rebuilds_total"), 1u);
    auto one = db.Select(t, by_aid(1));
    ASSERT_EQ(one.value().size(), 1u);
    EXPECT_EQ(one.value()[0][1].AsInt64(), 11);
    EXPECT_EQ(one.value()[0][2].AsString(), "competitor");

    const uint64_t appends = counter(&db, "reldb_wal_appends_total");
    EXPECT_EQ(db.Update(t, by_aid(9), [](Row* r) { (*r)[1] = Value(); })
                  .value(),
              0u);
    EXPECT_EQ(db.Delete(t, by_aid(9)).value(), 0u);
    EXPECT_EQ(counter(&db, "reldb_wal_appends_total"), appends);
    live = rows(&db, t);
    ASSERT_TRUE(db.Close().ok());
  }
  Database db(o);
  ASSERT_TRUE(db.Open().ok());
  EXPECT_EQ(rows(&db, open_accounts(&db)), live);
}

// An Env over MemEnv that can park one append: once armed, the next
// append to `path` waits for Release(), then writes, or fails when armed
// with `fail`. The test's own waits give up after kWait, so a store that
// blocks where it must not fails the test instead of hanging it; the
// parked append itself gives up only after kParkLimit, well after any
// test wait has failed.
class LatchEnv : public Env {
 public:
  static constexpr std::chrono::seconds kWait{5};
  static constexpr std::chrono::seconds kParkLimit{30};

  void Arm(std::string path, bool fail) {
    std::lock_guard<std::mutex> l(mu_);
    path_ = std::move(path);
    fail_ = fail;
    parked_ = released_ = false;
  }
  // True once the armed append is parked; false after kWait.
  bool WaitParked() {
    std::unique_lock<std::mutex> l(mu_);
    return cv_.wait_for(l, kWait, [&] { return parked_; });
  }
  void Release() {
    {
      std::lock_guard<std::mutex> l(mu_);
      released_ = true;
    }
    cv_.notify_all();
  }

  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    auto f = mem_.NewWritableFile(path, truncate);
    if (!f.ok()) return f.status();
    return std::unique_ptr<WritableFile>(
        new File(this, path, std::move(f.value())));
  }
  StatusOr<std::string> ReadFileToString(const std::string& path) override {
    return mem_.ReadFileToString(path);
  }
  StatusOr<uint64_t> FileSize(const std::string& path) override {
    return mem_.FileSize(path);
  }
  Status DeleteFile(const std::string& path) override {
    return mem_.DeleteFile(path);
  }
  bool FileExists(const std::string& path) override {
    return mem_.FileExists(path);
  }
  Status RenameFile(const std::string& from, const std::string& to) override {
    return mem_.RenameFile(from, to);
  }
  Status SyncDir(const std::string& path) override {
    return mem_.SyncDir(path);
  }

 private:
  class File : public WritableFile {
   public:
    File(LatchEnv* env, std::string path, std::unique_ptr<WritableFile> base)
        : env_(env), path_(std::move(path)), base_(std::move(base)) {}
    Status Append(std::string_view data) override {
      Status s = env_->Park(path_);
      return s.ok() ? base_->Append(data) : s;
    }
    Status Sync() override { return base_->Sync(); }
    Status Close() override { return base_->Close(); }

   private:
    LatchEnv* env_;
    std::string path_;
    std::unique_ptr<WritableFile> base_;
  };

  Status Park(const std::string& path) {
    std::unique_lock<std::mutex> l(mu_);
    if (path_.empty() || path != path_) return Status::OK();
    path_.clear();  // one append parks per Arm
    parked_ = true;
    cv_.notify_all();
    cv_.wait_for(l, kParkLimit, [&] { return released_; });
    return fail_ ? Status::IOError("latched append failed") : Status::OK();
  }

  MemEnv mem_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::string path_;
  bool fail_ = false;
  bool parked_ = false;
  bool released_ = false;
};

// Runs `read` on another thread and returns its answer. A read still
// blocked after LatchEnv::kWait fails the test, and the latch opens so the
// read (and the parked write ahead of it) can finish.
template <typename Read>
auto ReadWhileParked(LatchEnv* env, Read read) {
  auto answer = std::async(std::launch::async, read);
  const bool done =
      answer.wait_for(LatchEnv::kWait) == std::future_status::ready;
  EXPECT_TRUE(done) << "a read waited for an unacked write";
  if (!done) env->Release();
  return answer.get();
}

RelOptions LatchedWalOptions(LatchEnv* env) {
  RelOptions o;
  o.env = env;
  o.wal_enabled = true;
  o.wal_path = "rel.wal";
  o.sync_policy = SyncPolicy::kAlways;
  return o;
}

// Readers never wait on the WAL: while an Update's frame is parked in its
// append, a Select of the same row answers at once with the old image.
// The new image appears only once the frame is acked, and never when the
// append fails.
TEST(Database, ReaderDoesNotWaitForAnUnackedWrite) {
  const Predicate aid1 = Compare(0, CompareOp::kEq, Value(int64_t(1)));
  for (const bool fail : {false, true}) {
    SCOPED_TRACE(fail ? "append fails" : "append acked");
    LatchEnv env;
    Database db(LatchedWalOptions(&env));
    ASSERT_TRUE(db.Open().ok());
    Table* t = MakeAccounts(&db);
    ASSERT_TRUE(db.CreateIndex("accounts", "aid").ok());
    ASSERT_TRUE(
        db.Insert(t, {Value(int64_t(1)), Value(int64_t(10)), Value("u")})
            .ok());
    const auto balance = [&] {
      auto rows = db.Select(t, aid1);
      EXPECT_TRUE(rows.ok()) << rows.status().ToString();
      if (!rows.ok() || rows.value().size() != 1) return int64_t(-1);
      return rows.value()[0][1].AsInt64();
    };

    env.Arm("rel.wal", fail);
    auto update = std::async(std::launch::async, [&] {
      return db
          .Update(t, aid1, [](Row* r) { (*r)[1] = Value(int64_t(11)); })
          .status();
    });
    ASSERT_TRUE(env.WaitParked());
    EXPECT_EQ(ReadWhileParked(&env, balance), 10);
    env.Release();
    EXPECT_EQ(update.get().ok(), !fail);
    EXPECT_EQ(balance(), fail ? 10 : 11);
    (void)db.Close();

    Database reopened(LatchedWalOptions(&env));
    ASSERT_TRUE(reopened.Open().ok());
    auto rows = reopened.Select(MakeAccounts(&reopened), aid1);
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows.value().size(), 1u);
    EXPECT_EQ(rows.value()[0][1].AsInt64(), fail ? 10 : 11);
  }
}

// A checkpoint freezes writers through their writer mutex, so it waits for
// a write whose frame is parked in its append to be acked and applied:
// the write lands in the snapshot or in the WAL tail after it, never in
// neither. Readers are not frozen: they answer while both wait.
TEST(Database, CheckpointWaitsForAnAckedWriteToApply) {
  const auto by_aid = [](int64_t aid) {
    return Compare(0, CompareOp::kEq, Value(aid));
  };
  LatchEnv env;
  {
    Database db(LatchedWalOptions(&env));
    ASSERT_TRUE(db.Open().ok());
    Table* t = MakeAccounts(&db);
    ASSERT_TRUE(
        db.Insert(t, {Value(int64_t(1)), Value(int64_t(10)), Value("u")})
            .ok());

    env.Arm("rel.wal", /*fail=*/false);
    std::thread writer([&] {
      EXPECT_TRUE(
          db.Insert(t, {Value(int64_t(2)), Value(int64_t(20)), Value("u")})
              .ok());
    });
    ASSERT_TRUE(env.WaitParked());
    std::thread checkpointer([&] { EXPECT_TRUE(db.Checkpoint().ok()); });
    while (db.CheckpointStarts() == 0) std::this_thread::yield();
    // Time for a checkpoint that does not wait for the writer to cut its
    // snapshot without the parked row.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(ReadWhileParked(&env, [&] {
                return db.Select(t, by_aid(1)).value().size();
              }),
              1u);
    env.Release();
    writer.join();
    checkpointer.join();
    EXPECT_EQ(db.GetCheckpointStats().checkpoints, 1u);
    ASSERT_TRUE(db.Close().ok());
  }
  Database db(LatchedWalOptions(&env));
  ASSERT_TRUE(db.Open().ok());
  Table* t = MakeAccounts(&db);
  EXPECT_EQ(db.Select(t, by_aid(2)).value().size(), 1u);
  EXPECT_EQ(db.Select(t, by_aid(1)).value().size(), 1u);
  EXPECT_EQ(t->live_rows(), 2u);
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

// Ids of the rows whose tags column satisfies `op v`, ascending.
std::vector<int64_t> TagIds(Database* db, Table* t, CompareOp op,
                            const std::string& v) {
  auto rows = db->Select(t, Compare(1, op, Value(v)));
  EXPECT_TRUE(rows.ok());
  std::vector<int64_t> ids;
  for (const Row& r : rows.value()) ids.push_back(r[0].AsInt64());
  return ids;
}

// The element-indexed table answers kHas, and kEq, as the scanned one does.
void ExpectSameTagAnswers(Database* db, Table* indexed, Table* scanned) {
  for (const char* v : {"a", "b", "c", "d", "", "a|b", "b|c"}) {
    for (CompareOp op : {CompareOp::kHas, CompareOp::kEq}) {
      EXPECT_EQ(TagIds(db, indexed, op, v), TagIds(db, scanned, op, v))
          << "value '" << v << "' op " << int(op);
    }
  }
}

RelOptions TagOptions(Env* env) {
  RelOptions o;
  o.env = env;
  o.wal_enabled = true;
  o.wal_path = "tags.wal";
  o.sync_policy = SyncPolicy::kNever;
  o.encrypt_at_rest = true;
  return o;
}

// Two tables of (id, tags): "indexed" has an element index on tags, made
// after the tables' replay so reopening backfills it; "scanned" has none.
std::pair<Table*, Table*> OpenTagTables(Database* db) {
  const Schema schema(
      {{"id", ValueType::kInt64}, {"tags", ValueType::kString}});
  Table* indexed = db->CreateTable("indexed", schema).value();
  Table* scanned = db->CreateTable("scanned", schema).value();
  EXPECT_TRUE(db->CreateIndex("indexed", "tags", /*elements=*/true).ok());
  return {indexed, scanned};
}

// An element index files a list cell under each distinct element and
// answers kHas exactly as a scan does: through inserts, an update that
// moves elements, a delete, a duplicate element, an empty list, a backfill,
// and a reopen from the WAL and from a checkpoint. kEq on the indexed
// column still compares whole cells.
TEST(Database, ElementIndexAnswersHasLikeAScan) {
  using Ids = std::vector<int64_t>;
  MemEnv env;
  {
    Database db(TagOptions(&env));
    ASSERT_TRUE(db.Open().ok());
    auto [indexed, scanned] = OpenTagTables(&db);
    const std::vector<std::pair<int64_t, std::string>> rows = {
        {1, "a|b"}, {2, "b|c"}, {3, "a|a"}, {4, ""}, {5, "c|"}};
    for (const auto& [id, tags] : rows) {
      for (Table* t : {indexed, scanned}) {
        ASSERT_TRUE(db.Insert(t, {Value(id), Value(tags)}).ok());
      }
    }
    ExpectSameTagAnswers(&db, indexed, scanned);
    // Row 3's "a" is one entry, "" is no element, and "c|" holds "".
    EXPECT_EQ(TagIds(&db, indexed, CompareOp::kHas, "a"), (Ids{1, 3}));
    EXPECT_EQ(TagIds(&db, indexed, CompareOp::kHas, ""), (Ids{5}));
    EXPECT_EQ(TagIds(&db, indexed, CompareOp::kEq, "b|c"), (Ids{2}));
    EXPECT_EQ(TagIds(&db, indexed, CompareOp::kEq, ""), (Ids{4}));
    EXPECT_TRUE(TagIds(&db, indexed, CompareOp::kEq, "b").empty());
    // Row 1 moves from {a, b} to {c, d}; row 3 drops its duplicate "a"
    // whole, or a stale entry would still find it; row 2 goes.
    auto by_id = [](int64_t id) {
      return Compare(0, CompareOp::kEq, Value(id));
    };
    for (Table* t : {indexed, scanned}) {
      EXPECT_EQ(db.Update(t, by_id(1), [](Row* r) { (*r)[1] = Value("c|d"); })
                    .value(),
                1u);
      EXPECT_EQ(
          db.Update(t, by_id(3), [](Row* r) { (*r)[1] = Value("b"); }).value(),
          1u);
      EXPECT_EQ(db.Delete(t, by_id(2)).value(), 1u);
    }
    ExpectSameTagAnswers(&db, indexed, scanned);
    EXPECT_TRUE(TagIds(&db, indexed, CompareOp::kHas, "a").empty());
    EXPECT_EQ(TagIds(&db, indexed, CompareOp::kHas, "c"), (Ids{1, 5}));
    // A backfill over live rows files them as the maintained index did.
    ASSERT_TRUE(db.CreateIndex("scanned", "tags", /*elements=*/true).ok());
    ExpectSameTagAnswers(&db, indexed, scanned);
    ASSERT_TRUE(db.Close().ok());
  }
  // Index entries are never logged: replay, then the backfill, rebuild
  // them from the WAL and then from a checkpoint.
  for (const bool from_snapshot : {false, true}) {
    Database db(TagOptions(&env));
    ASSERT_TRUE(db.Open().ok());
    EXPECT_EQ(db.replay_stats().from_snapshot, from_snapshot);
    auto [indexed, scanned] = OpenTagTables(&db);
    ExpectSameTagAnswers(&db, indexed, scanned);
    EXPECT_EQ(TagIds(&db, indexed, CompareOp::kHas, "b"), (Ids{3}));
    EXPECT_EQ(TagIds(&db, indexed, CompareOp::kHas, "d"), (Ids{1}));
    if (!from_snapshot) ASSERT_TRUE(db.Checkpoint().ok());
    ASSERT_TRUE(db.Close().ok());
  }
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
