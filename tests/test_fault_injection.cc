// Fault-injection sweeps over every durability path. The harness
// (tests/fault_harness.h) runs a mixed GDPR workload once over a FaultEnv
// to learn how many failable I/O ops it issues, then re-runs it with a
// fault injected at each op index — fail-the-Nth-op for fsync-failure /
// ENOSPC hardening, crash-at-the-Nth-op for torn-write recovery — reopens
// the store from the surviving bytes, and machine-checks the durability
// contract (acked writes durable per sync policy, erased users stay
// erased, no resurrection from torn bytes, audit chains verify, degraded
// stores refuse writes but keep serving reads).
//
// The final test asserts the injection-point floor and emits the "faults"
// BENCH_RESULT_JSON line tools/bench_compare.py tracks.

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <functional>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_store.h"
#include "common/clock.h"
#include "fault_harness.h"
#include "gdpr/audit.h"
#include "gdpr/kv_backend.h"
#include "gdpr/rel_backend.h"
#include "kvstore/db.h"
#include "relstore/database.h"
#include "storage/fault_env.h"

namespace gdpr {
namespace {

constexpr uint64_t kSeed = 0xfa017;

// Rewrites a MemEnv file to drop its last `cut_bytes` (a torn trailing
// write), same idiom as test_audit_persistence.cc.
void Truncate(MemEnv* env, const std::string& path, size_t cut_bytes) {
  const std::string contents = env->ReadFileToString(path).value();
  ASSERT_GT(contents.size(), cut_bytes);
  auto f = std::move(env->NewWritableFile(path, /*truncate=*/true).value());
  ASSERT_TRUE(
      f->Append(contents.substr(0, contents.size() - cut_bytes)).ok());
}

// ---- FaultEnv unit tests ---------------------------------------------------

TEST(FaultEnvSmoke, CountsOps) {
  MemEnv mem;
  FaultEnv fenv(&mem, 42);
  auto f = fenv.NewWritableFile("x", true);
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(f.value()->Append("hello").ok());
  ASSERT_TRUE(f.value()->Sync().ok());
  ASSERT_TRUE(f.value()->Close().ok());
  EXPECT_EQ(fenv.op_count(), 4u);
  EXPECT_EQ(mem.ReadFileToString("x").value_or(""), "hello");
}

TEST(FaultEnvSmoke, EnospcShapedAppendIsTransient) {
  MemEnv mem;
  FaultEnv fenv(&mem, kSeed);
  auto f = std::move(fenv.NewWritableFile("x", true).value());  // op 1
  FaultPlan plan;
  plan.fail_at_op = 2;
  fenv.set_plan(plan);
  Status s = f->Append("lost");  // op 2: injected
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  EXPECT_NE(s.message().find("ENOSPC"), std::string::npos) << s.ToString();
  // ENOSPC does not poison the handle: the next attempt goes through.
  ASSERT_TRUE(f->Append("kept").ok());
  ASSERT_TRUE(f->Sync().ok());
  ASSERT_TRUE(f->Close().ok());
  EXPECT_EQ(mem.ReadFileToString("x").value_or(""), "kept");
  EXPECT_EQ(fenv.faults_injected(), 1u);
}

TEST(FaultEnvSmoke, FsyncgatePoisonsHandleAndDropsBuffer) {
  MemEnv mem;
  FaultEnv fenv(&mem, kSeed);
  auto f = std::move(fenv.NewWritableFile("x", true).value());  // op 1
  ASSERT_TRUE(f->Append("abc").ok());                           // op 2
  FaultPlan plan;
  plan.fail_at_op = 3;
  fenv.set_plan(plan);
  Status s = f->Sync();  // op 3: fsyncgate
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kIOError);
  // The unsynced bytes are gone and every later op on the handle fails —
  // a retried fsync must never be assumed to have persisted them.
  EXPECT_FALSE(f->Append("more").ok());
  EXPECT_FALSE(f->Sync().ok());
  EXPECT_FALSE(f->Close().ok());
  f.reset();  // the destructor must not resurrect the dropped buffer
  EXPECT_EQ(mem.ReadFileToString("x").value_or(""), "");
}

TEST(FaultEnvSmoke, CrashPointAbandonsSubsequentWrites) {
  MemEnv mem;
  FaultEnv fenv(&mem, kSeed);
  auto f = std::move(fenv.NewWritableFile("x", true).value());  // op 1
  ASSERT_TRUE(f->Append("AAAA").ok());                          // op 2
  ASSERT_TRUE(f->Sync().ok());                                  // op 3: durable
  ASSERT_TRUE(f->Append("BBBB").ok());                          // op 4: cached
  FaultPlan plan;
  plan.crash_at_op = 5;
  fenv.set_plan(plan);
  EXPECT_TRUE(f->Sync().ok());  // op 5: the crash — reported as success
  EXPECT_TRUE(fenv.crashed());
  // From here the world is stopped: writes, deletes and renames are
  // silently abandoned and the base Env holds the post-crash disk image.
  EXPECT_TRUE(f->Append("CCCC").ok());
  EXPECT_TRUE(f->Close().ok());
  EXPECT_TRUE(fenv.DeleteFile("x").ok());
  EXPECT_TRUE(mem.FileExists("x"));
  auto post = fenv.NewWritableFile("y", true);
  ASSERT_TRUE(post.ok());
  ASSERT_TRUE(post.value()->Append("z").ok());
  ASSERT_TRUE(post.value()->Sync().ok());
  EXPECT_FALSE(mem.FileExists("y"));
  // Disk image: the synced prefix plus at most a torn tail of the
  // unsynced buffer.
  const std::string img = mem.ReadFileToString("x").value_or("");
  ASSERT_GE(img.size(), 4u);
  ASSERT_LE(img.size(), 8u);
  EXPECT_EQ(img.substr(0, 4), "AAAA");
  EXPECT_EQ(img.substr(4), std::string("BBBB").substr(0, img.size() - 4));
}

TEST(FaultEnvSmoke, CrashUndoesRenamesNoSyncDirFollowed) {
  MemEnv mem;
  FaultEnv fenv(&mem, kSeed);
  auto put = [&](const std::string& path, const std::string& data) {
    auto f = std::move(fenv.NewWritableFile(path, true).value());
    ASSERT_TRUE(f->Append(data).ok());
    ASSERT_TRUE(f->Close().ok());
  };
  put("d/a", "old");
  put("d/a.tmp", "synced");
  ASSERT_TRUE(fenv.RenameFile("d/a.tmp", "d/a").ok());
  ASSERT_TRUE(fenv.SyncDir("d/a").ok());  // this rename is durable
  put("d/a.tmp", "unsynced");
  ASSERT_TRUE(fenv.RenameFile("d/a.tmp", "d/a").ok());
  put("d/b.tmp", "fresh");
  ASSERT_TRUE(fenv.RenameFile("d/b.tmp", "d/b").ok());
  ASSERT_TRUE(fenv.SyncDir("e/x").ok());  // another directory: no help
  FaultPlan plan;
  plan.crash_at_op = fenv.op_count() + 1;
  fenv.set_plan(plan);
  EXPECT_TRUE(fenv.SyncDir("d/a").ok());  // the crash — before this sync
  ASSERT_TRUE(fenv.crashed());
  // Both unsynced renames are undone; the synced one stands.
  EXPECT_EQ(fenv.renames_undone(), 2u);
  EXPECT_EQ(mem.ReadFileToString("d/a").value_or(""), "synced");
  EXPECT_EQ(mem.ReadFileToString("d/a.tmp").value_or(""), "unsynced");
  EXPECT_FALSE(mem.FileExists("d/b"));
  EXPECT_EQ(mem.ReadFileToString("d/b.tmp").value_or(""), "fresh");
}

TEST(FaultEnvSmoke, CorruptReadFlipsExactlyOneByte) {
  MemEnv mem;
  FaultEnv fenv(&mem, kSeed);
  const std::string payload = "0123456789abcdef";
  {
    auto f = std::move(fenv.NewWritableFile("x", true).value());
    ASSERT_TRUE(f->Append(payload).ok());
    ASSERT_TRUE(f->Sync().ok());
    ASSERT_TRUE(f->Close().ok());
  }
  FaultPlan plan;
  plan.fail_prob[static_cast<int>(FaultOpKind::kRead)] = 1.0;
  plan.corrupt_reads = true;
  fenv.set_plan(plan);
  auto r = fenv.ReadFileToString("x");
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), payload.size());
  int diffs = 0;
  for (size_t i = 0; i < payload.size(); ++i) {
    diffs += r.value()[i] != payload[i];
  }
  EXPECT_EQ(diffs, 1);
}

// ---- sweep driver ----------------------------------------------------------

using StoreFactory = std::function<std::unique_ptr<AuditedStore>(Env*)>;

std::unique_ptr<AuditedStore> MakeKvStore(Env* env, SyncPolicy sync) {
  KvGdprOptions o;
  o.compliance.metadata_indexing = true;
  o.kv.env = env;
  o.kv.shards = 4;
  o.kv.aof_enabled = true;
  o.kv.aof_path = "kv/aof";
  o.kv.sync_policy = sync;
  o.kv.log_reads = true;
  o.audit.path = "kv/audit";
  o.audit.rotate_bytes = 512;  // force segment rotations mid-workload
  auto store = std::make_unique<KvGdprStore>(o);
  store->audit_log()->set_seal_interval(4);
  return store;
}

std::unique_ptr<AuditedStore> MakeRelStore(Env* env) {
  RelGdprOptions o;
  o.compliance.metadata_indexing = true;
  o.rel.env = env;
  o.rel.wal_enabled = true;
  o.rel.wal_path = "rel/wal";
  o.rel.sync_policy = SyncPolicy::kAlways;
  o.rel.log_statements = true;
  o.rel.statement_log_path = "rel/stmt";
  o.rel.stmt_log_rotate_bytes = 512;  // force rotations mid-workload
  o.rel.stmt_log_max_segments = 3;
  o.audit.path = "rel/audit";
  o.audit.rotate_bytes = 512;
  auto store = std::make_unique<RelGdprStore>(o);
  store->audit_log()->set_seal_interval(4);
  return store;
}

struct SweepSpec {
  StoreFactory make;
  bool crash_mode = false;  // crash_at_op instead of fail_at_op
  bool strict_acks = true;  // the sync policy makes an OK binding
  std::string path_filter;  // restrict injection to matching paths
  // Filtered sweeps skip indices where the Nth op missed the filter.
  bool count_only_injected = false;
};

void RunSweep(const SweepSpec& spec) {
  // Discovery: no faults, learn the op total, and prove the fault-free
  // image round-trips before sweeping means anything.
  uint64_t total = 0;
  {
    MemEnv mem;
    FaultEnv fenv(&mem, kSeed);
    auto store = spec.make(&fenv);
    ASSERT_TRUE(store->Open().ok());
    fault::Ledger led;
    fault::RunGdprWorkload(store.get(), &fenv, &led, spec.strict_acks);
    ASSERT_TRUE(store->Close().ok());
    total = fenv.op_count();
    if (spec.strict_acks) {
      EXPECT_EQ(led.durable.size(), 8u);
      EXPECT_EQ(led.erased.size(), 5u);
    }
    auto reopened = spec.make(fenv.base());
    ASSERT_TRUE(reopened->Open().ok());
    fault::CheckRecovery(reopened.get(), led);
    ASSERT_TRUE(reopened->Close().ok());
  }
  ASSERT_GT(total, 40u) << "workload issues too few failable ops to sweep";
  const uint64_t stride = fault::SweepStride(total);
  for (uint64_t i = 1; i <= total; i += stride) {
    SCOPED_TRACE("injection at op " + std::to_string(i) + " of " +
                 std::to_string(total));
    MemEnv mem;
    FaultEnv fenv(&mem, kSeed);
    FaultPlan plan;
    if (spec.crash_mode) {
      plan.crash_at_op = i;
    } else {
      plan.fail_at_op = i;
    }
    plan.torn_appends = true;
    plan.path_filter = spec.path_filter;
    fenv.set_plan(plan);
    fault::Ledger led;
    {
      auto store = spec.make(&fenv);
      Status open = store->Open();
      if (open.ok()) {
        fault::RunGdprWorkload(store.get(), &fenv, &led, spec.strict_acks);
        fault::CheckDegradedContract(store.get());
        (void)store->Close().ok();  // may fail under the injected fault
      }
      // else: the open-time fault failed loudly; reopen must still work.
    }
    if (spec.count_only_injected && fenv.faults_injected() == 0) continue;
    fault::InjectionPoints().fetch_add(1, std::memory_order_relaxed);
    // Reopen over the base env: a fresh process reading what survived.
    auto store = spec.make(fenv.base());
    Status reopen = store->Open();
    ASSERT_TRUE(reopen.ok()) << reopen.ToString();
    fault::CheckRecovery(store.get(), led);
    ASSERT_TRUE(store->Close().ok());
  }
}

// ---- the sweeps ------------------------------------------------------------

TEST(FaultSweep, KvEveryOpFails) {
  SweepSpec spec;
  spec.make = [](Env* e) { return MakeKvStore(e, SyncPolicy::kAlways); };
  RunSweep(spec);
}

TEST(FaultSweep, KvEveryOpCrashes) {
  SweepSpec spec;
  spec.make = [](Env* e) { return MakeKvStore(e, SyncPolicy::kAlways); };
  spec.crash_mode = true;
  RunSweep(spec);
}

// Under everysec the acks are not binding (that is the policy's contract);
// the sweep still proves reopen succeeds, nothing resurrects, and the
// audit chain verifies after a crash at every op.
TEST(FaultSweep, KvEverySecCrashRecoversCleanly) {
  SweepSpec spec;
  spec.make = [](Env* e) { return MakeKvStore(e, SyncPolicy::kEverySec); };
  spec.crash_mode = true;
  spec.strict_acks = false;
  RunSweep(spec);
}

TEST(FaultSweep, KvAuditSegmentsFocused) {
  SweepSpec spec;
  spec.make = [](Env* e) { return MakeKvStore(e, SyncPolicy::kAlways); };
  spec.path_filter = ".seg";  // only audit segment files are eligible
  spec.count_only_injected = true;
  RunSweep(spec);
}

TEST(FaultSweep, RelEveryOpFails) {
  SweepSpec spec;
  spec.make = [](Env* e) { return MakeRelStore(e); };
  RunSweep(spec);
}

TEST(FaultSweep, RelEveryOpCrashes) {
  SweepSpec spec;
  spec.make = [](Env* e) { return MakeRelStore(e); };
  spec.crash_mode = true;
  RunSweep(spec);
}

TEST(FaultSweep, RelStatementLogFocused) {
  SweepSpec spec;
  spec.make = [](Env* e) { return MakeRelStore(e); };
  spec.path_filter = "stmt";  // statement log + its rotated segments
  spec.count_only_injected = true;
  RunSweep(spec);
}

// ---- statement-log torn-tail recovery (rel::Database directly) -------------

TEST(StatementLogTorn, ActiveTailSurvivesReopen) {
  MemEnv env;
  rel::RelOptions o;
  o.env = &env;
  o.log_statements = true;
  o.statement_log_path = "stmt";
  o.sync_policy = SyncPolicy::kAlways;
  {
    rel::Database db(o);
    ASSERT_TRUE(db.Open().ok());
    auto t = db.CreateTable("t", rel::Schema({{"id", rel::ValueType::kInt64}}));
    ASSERT_TRUE(t.ok());
    for (int64_t i = 0; i < 8; ++i) {
      ASSERT_TRUE(db.Insert(t.value(), {rel::Value(i)}).ok());
    }
    ASSERT_TRUE(db.Close().ok());
  }
  const std::string before = env.ReadFileToString("stmt").value();
  Truncate(&env, "stmt", 3);  // torn trailing write
  {
    rel::Database db(o);
    ASSERT_TRUE(db.Open().ok());
    EXPECT_EQ(db.Health().state, HealthState::kHealthy);
    auto t = db.CreateTable("t", rel::Schema({{"id", rel::ValueType::kInt64}}));
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(db.Insert(t.value(), {rel::Value(int64_t(99))}).ok());
    ASSERT_TRUE(db.Close().ok());
  }
  // The surviving prefix is untouched and new statements append after it.
  const std::string after = env.ReadFileToString("stmt").value();
  const std::string kept = before.substr(0, before.size() - 3);
  ASSERT_GT(after.size(), kept.size());
  EXPECT_EQ(after.substr(0, kept.size()), kept);
}

TEST(StatementLogTorn, RotatedSegmentKeepsValidPrefix) {
  MemEnv env;
  rel::RelOptions o;
  o.env = &env;
  o.log_statements = true;
  o.statement_log_path = "stmt";
  o.sync_policy = SyncPolicy::kAlways;
  o.stmt_log_rotate_bytes = 128;
  o.stmt_log_max_segments = 4;
  auto insert_until = [&](rel::Database* db, rel::Table* t,
                          const std::string& seg) {
    for (int64_t i = 0; i < 200 && !env.FileExists(seg); ++i) {
      ASSERT_TRUE(db->Insert(t, {rel::Value(i)}).ok());
    }
    ASSERT_TRUE(env.FileExists(seg));
  };
  {
    rel::Database db(o);
    ASSERT_TRUE(db.Open().ok());
    auto t = db.CreateTable("t", rel::Schema({{"id", rel::ValueType::kInt64}}));
    ASSERT_TRUE(t.ok());
    insert_until(&db, t.value(), "stmt.1");
    ASSERT_TRUE(db.Close().ok());
  }
  const std::string seg = env.ReadFileToString("stmt.1").value();
  Truncate(&env, "stmt.1", 4);  // tear the rotated segment's tail
  {
    rel::Database db(o);
    ASSERT_TRUE(db.Open().ok());
    EXPECT_EQ(db.Health().state, HealthState::kHealthy);
    auto t = db.CreateTable("t", rel::Schema({{"id", rel::ValueType::kInt64}}));
    ASSERT_TRUE(t.ok());
    insert_until(&db, t.value(), "stmt.2");
    ASSERT_TRUE(db.Close().ok());
  }
  // The torn segment shifted to .2 with its valid prefix intact — rotation
  // never rewrites retained history, torn tail or not.
  EXPECT_EQ(env.ReadFileToString("stmt.2").value(),
            seg.substr(0, seg.size() - 4));
}

TEST(StatementLogTorn, RotationRenameFailureDegradesThenReopenHeals) {
  MemEnv mem;
  FaultEnv fenv(&mem, kSeed);
  rel::RelOptions o;
  o.env = &fenv;
  o.log_statements = true;
  o.statement_log_path = "stmt";
  o.sync_policy = SyncPolicy::kAlways;
  o.stmt_log_rotate_bytes = 128;
  rel::Database db(o);
  ASSERT_TRUE(db.Open().ok());
  auto t = db.CreateTable("t", rel::Schema({{"id", rel::ValueType::kInt64}}));
  ASSERT_TRUE(t.ok());
  FaultPlan plan;
  plan.fail_prob[static_cast<int>(FaultOpKind::kRename)] = 1.0;
  plan.path_filter = "stmt";
  fenv.set_plan(plan);
  // The rotation's rename shuffle fails: the statement log degrades, once,
  // loudly, through the insert that triggered it.
  Status rot;
  for (int64_t i = 0; i < 200 && rot.ok(); ++i) {
    rot = db.Insert(t.value(), {rel::Value(i)});
  }
  ASSERT_FALSE(rot.ok());
  EXPECT_EQ(db.Health().state, HealthState::kDegradedReadOnly);
  // Mutations refuse (their statement evidence would be incomplete);
  // reads keep serving, unlogged.
  EXPECT_TRUE(db.Insert(t.value(), {rel::Value(int64_t(999))}).IsUnavailable());
  EXPECT_TRUE(
      db.ScanRows(t.value(), [](const rel::Row&) { return true; }).ok());
  (void)db.Close().ok();
  // A new incarnation over the recovered disk starts healthy.
  fenv.ClearFaults();
  rel::Database db2(o);
  ASSERT_TRUE(db2.Open().ok());
  EXPECT_EQ(db2.Health().state, HealthState::kHealthy);
  ASSERT_TRUE(db2.Close().ok());
}

// ---- close fsyncs every log -------------------------------------------------
//
// kNever promises an fsync on close and kEverySec bounds the loss to about a
// second, so a close whose final fsync fails must say so under both.

void FailEverySync(FaultEnv* fenv) {
  FaultPlan plan;
  plan.fail_prob[static_cast<int>(FaultOpKind::kSync)] = 1.0;
  fenv->set_plan(plan);
}

TEST(CloseSync, AofCloseReportsFailedFinalSync) {
  for (SyncPolicy policy : {SyncPolicy::kEverySec, SyncPolicy::kNever}) {
    MemEnv mem;
    FaultEnv fenv(&mem, kSeed);
    kv::Options o;
    o.env = &fenv;
    o.aof_enabled = true;
    o.aof_path = "aof";
    o.sync_policy = policy;
    kv::MemKV db(o);
    ASSERT_TRUE(db.Open().ok());
    ASSERT_TRUE(db.Set("k", "v").ok());
    FailEverySync(&fenv);
    EXPECT_FALSE(db.Close().ok()) << "policy " << int(policy);
  }
}

TEST(CloseSync, WalCloseReportsFailedFinalSync) {
  for (SyncPolicy policy : {SyncPolicy::kEverySec, SyncPolicy::kNever}) {
    MemEnv mem;
    FaultEnv fenv(&mem, kSeed);
    rel::RelOptions o;
    o.env = &fenv;
    o.wal_enabled = true;
    o.wal_path = "wal";
    o.sync_policy = policy;
    rel::Database db(o);
    ASSERT_TRUE(db.Open().ok());
    auto t = db.CreateTable("t", rel::Schema({{"id", rel::ValueType::kInt64}}));
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(db.Insert(t.value(), {rel::Value(int64_t(1))}).ok());
    FailEverySync(&fenv);
    EXPECT_FALSE(db.Close().ok()) << "policy " << int(policy);
  }
}

TEST(CloseSync, StatementLogCloseReportsFailedFinalSync) {
  for (SyncPolicy policy : {SyncPolicy::kEverySec, SyncPolicy::kNever}) {
    MemEnv mem;
    FaultEnv fenv(&mem, kSeed);
    rel::RelOptions o;
    o.env = &fenv;
    o.log_statements = true;
    o.statement_log_path = "stmt";
    o.sync_policy = policy;
    rel::Database db(o);
    ASSERT_TRUE(db.Open().ok());
    auto t = db.CreateTable("t", rel::Schema({{"id", rel::ValueType::kInt64}}));
    ASSERT_TRUE(t.ok());
    ASSERT_TRUE(db.Insert(t.value(), {rel::Value(int64_t(1))}).ok());
    FailEverySync(&fenv);
    EXPECT_FALSE(db.Close().ok()) << "policy " << int(policy);
  }
}

// ---- kEverySec syncs an idle tail -------------------------------------------
//
// kEverySec bounds the loss to about a second even when writes stop. Each
// log takes one write, then the interval passes with nothing more written:
// the idle-tail timer, reading the owner's clock, must still push the
// bytes through FaultEnv's page cache to the base env. No store here runs
// an expiry cron.

// Polls `pred` for up to ~5 s of real time: the idle-tail timer runs on
// real time even when a log's clock is simulated.
bool WaitFor(const std::function<bool()>& pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

// True once `needle` is in the base env's copy of `path`.
bool ReachesBase(MemEnv* mem, const std::string& path,
                 const std::string& needle) {
  return WaitFor([&] {
    auto s = mem->ReadFileToString(path);
    return s.ok() && s.value().find(needle) != std::string::npos;
  });
}

// Each write below is a lone writer, which leads its own batch through
// its timed-sync check before Commit returns; so once the write returns
// and the clock moves, only an idle wakeup can sync.

TEST(IdleTailSync, KvGdprStoreAof) {
  MemEnv mem;
  FaultEnv fenv(&mem, kSeed);
  SimulatedClock clock(0);
  KvGdprOptions o;
  o.clock = &clock;
  o.kv.env = &fenv;
  o.kv.aof_enabled = true;
  o.kv.aof_path = "aof";
  o.kv.sync_policy = SyncPolicy::kEverySec;
  KvGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store
                  .CreateRecord(Actor::Controller(),
                                fault::MakeRecord("idle-key", "u", "v"))
                  .ok());
  clock.AdvanceSeconds(2);
  EXPECT_TRUE(ReachesBase(&mem, "aof", "idle-key"));
  ASSERT_TRUE(store.Close().ok());
}

// One rel::Database over `o` takes one insert into table idle_t; then the
// interval passes and, with the store still open and idle, `needle` must
// reach the base copy of `path`.
void ExpectIdleRelTailSynced(rel::RelOptions o, const std::string& path,
                             const std::string& needle) {
  MemEnv mem;
  FaultEnv fenv(&mem, kSeed);
  SimulatedClock clock(0);
  o.env = &fenv;
  o.clock = &clock;
  o.sync_policy = SyncPolicy::kEverySec;
  rel::Database db(o);
  ASSERT_TRUE(db.Open().ok());
  auto t = db.CreateTable("idle_t",
                          rel::Schema({{"v", rel::ValueType::kString}}));
  ASSERT_TRUE(t.ok());
  ASSERT_TRUE(db.Insert(t.value(), {rel::Value("idle-row")}).ok());
  clock.AdvanceSeconds(2);
  EXPECT_TRUE(ReachesBase(&mem, path, needle));
  ASSERT_TRUE(db.Close().ok());
}

TEST(IdleTailSync, RelWal) {
  rel::RelOptions o;
  o.wal_enabled = true;
  o.wal_path = "wal";
  ExpectIdleRelTailSynced(o, "wal", "idle-row");
}

TEST(IdleTailSync, RelStatementLog) {
  rel::RelOptions o;
  o.log_statements = true;
  o.statement_log_path = "stmt";
  ExpectIdleRelTailSynced(o, "stmt", "INSERT INTO idle_t");
}

TEST(IdleTailSync, DurableAuditChain) {
  MemEnv mem;
  FaultEnv fenv(&mem, kSeed);
  SimulatedClock clock(0);
  AuditLog log(/*seal_interval=*/1);  // every append seals one group
  AuditLogOptions ao;
  ao.env = &fenv;
  ao.path = "audit";
  ao.sync_policy = SyncPolicy::kEverySec;
  ao.clock = &clock;
  ASSERT_TRUE(log.OpenDurable(ao).ok());
  AuditEntry e;
  e.actor_id = "idle-actor";
  e.op = "READ-DATA-BY-KEY";
  e.key = "k";
  log.Append(e);
  clock.AdvanceSeconds(2);
  EXPECT_TRUE(ReachesBase(&mem, "audit.seg1", "idle-actor"));
  ASSERT_TRUE(log.CloseDurable().ok());
}

// ---- crash during torn-tail repair -----------------------------------------
//
// Each log gets synced records and a torn tail, then reopens over a FaultEnv
// that crashes at one op of the repairing Open(), swept over every op of it.
// The repair replaces the log, so it must be atomic: a reopen from what
// survived still holds every record that was synced before the tear. One
// crash point falls between the repair's rename and its directory sync,
// which undoes the rename: the torn original must still be repairable.

struct TornLog {
  std::function<void(MemEnv*)> build;    // synced records, then the tear
  std::function<void(Env*)> open;        // the repairing Open; store dropped
  std::function<void(Env*)> check_all;   // reopen and check the survivors
  // Tear-offset sweeps only: one more record, checked after a reopen.
  std::function<void(Env*)> append_one;
};

void SweepCrashDuringRepair(const TornLog& log) {
  uint64_t total = 0;
  {
    MemEnv mem;
    log.build(&mem);
    FaultEnv fenv(&mem, kSeed);
    log.open(&fenv);
    total = fenv.op_count();  // an over-count only sweeps Close as well
    log.check_all(&mem);
  }
  ASSERT_GT(total, 2u);
  uint64_t renames_undone = 0;
  for (uint64_t i = 1; i <= total; ++i) {
    SCOPED_TRACE("crash at op " + std::to_string(i) + " of " +
                 std::to_string(total));
    MemEnv mem;
    log.build(&mem);
    FaultEnv fenv(&mem, kSeed);
    FaultPlan plan;
    plan.crash_at_op = i;
    fenv.set_plan(plan);
    log.open(&fenv);
    ASSERT_TRUE(fenv.crashed());
    renames_undone += fenv.renames_undone();
    log.check_all(&mem);
  }
  EXPECT_GT(renames_undone, 0u)
      << "no crash point fell between the rename and the directory sync";
}

constexpr int kTornRecords = 20;  // the tear cuts into the last one

TEST(RepairCrash, AofKeepsEverySyncedRecord) {
  auto opts = [](Env* env) {
    kv::Options o;
    o.env = env;
    o.aof_enabled = true;
    o.aof_path = "aof";
    o.sync_policy = SyncPolicy::kAlways;
    return o;
  };
  TornLog log;
  log.build = [&](MemEnv* mem) {
    kv::MemKV db(opts(mem));
    ASSERT_TRUE(db.Open().ok());
    for (int i = 0; i < kTornRecords; ++i) {
      ASSERT_TRUE(db.Set("k" + std::to_string(i), "v" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(db.Close().ok());
    Truncate(mem, "aof", 3);
  };
  log.open = [&](Env* env) {
    kv::MemKV db(opts(env));
    (void)db.Open().ok();
  };
  log.check_all = [&](Env* env) {
    kv::MemKV db(opts(env));
    ASSERT_TRUE(db.Open().ok());
    EXPECT_EQ(db.Size(), size_t(kTornRecords - 1));
    for (int i = 0; i + 1 < kTornRecords; ++i) {
      auto v = db.Get("k" + std::to_string(i));
      ASSERT_TRUE(v.ok()) << "k" << i;
      EXPECT_EQ(v.value(), "v" + std::to_string(i));
    }
  };
  SweepCrashDuringRepair(log);
}

TEST(RepairCrash, WalKeepsEverySyncedRecord) {
  auto opts = [](Env* env) {
    rel::RelOptions o;
    o.env = env;
    o.wal_enabled = true;
    o.wal_path = "wal";
    o.sync_policy = SyncPolicy::kAlways;
    return o;
  };
  const rel::Schema schema({{"id", rel::ValueType::kInt64}});
  TornLog log;
  log.build = [&](MemEnv* mem) {
    rel::Database db(opts(mem));
    ASSERT_TRUE(db.Open().ok());
    rel::Table* t = db.CreateTable("t", schema).value();
    for (int64_t i = 0; i < kTornRecords; ++i) {
      ASSERT_TRUE(db.Insert(t, {rel::Value(i)}).ok());
    }
    ASSERT_TRUE(db.Close().ok());
    Truncate(mem, "wal", 3);
  };
  log.open = [&](Env* env) {
    rel::Database db(opts(env));
    (void)db.Open().ok();
  };
  log.check_all = [&](Env* env) {
    rel::Database db(opts(env));
    ASSERT_TRUE(db.Open().ok());
    rel::Table* t = db.CreateTable("t", schema).value();
    EXPECT_EQ(t->live_rows(), size_t(kTornRecords - 1));
    for (int64_t i = 0; i + 1 < kTornRecords; ++i) {
      auto rows =
          db.Select(t, rel::Compare(0, rel::CompareOp::kEq, rel::Value(i)));
      ASSERT_TRUE(rows.ok());
      EXPECT_EQ(rows.value().size(), 1u) << "row " << i;
    }
  };
  SweepCrashDuringRepair(log);
}

TEST(RepairCrash, AuditKeepsEverySealedGroup) {
  auto opts = [](Env* env) {
    AuditLogOptions o;
    o.env = env;
    o.path = "audit";
    o.sync_policy = SyncPolicy::kAlways;
    return o;
  };
  constexpr size_t kGroup = 4;
  TornLog log;
  log.build = [&](MemEnv* mem) {
    AuditLog audit(kGroup);
    ASSERT_TRUE(audit.OpenDurable(opts(mem)).ok());
    for (size_t i = 0; i < 3 * kGroup; ++i) {  // three sealed groups
      AuditEntry e;
      e.timestamp_micros = 1000 + int64_t(i);
      e.actor_id = "ctrl";
      e.op = "CREATE-RECORD";
      e.key = "k" + std::to_string(i);
      audit.Append(e);
    }
    ASSERT_TRUE(audit.CloseDurable().ok());
    Truncate(mem, "audit.seg1", 5);  // the third group's frame is cut
  };
  log.open = [&](Env* env) {
    AuditLog audit(kGroup);
    (void)audit.OpenDurable(opts(env)).ok();
  };
  log.check_all = [&](Env* env) {
    AuditLog audit(kGroup);
    ASSERT_TRUE(audit.OpenDurable(opts(env)).ok());
    EXPECT_EQ(audit.size(), 2 * kGroup);
    EXPECT_TRUE(audit.VerifyChain());
  };
  SweepCrashDuringRepair(log);
}

// ---- tear at every offset --------------------------------------------------
//
// The second TornLog driver. `build` writes the log whole and sets
// `*frame_begin` to where its last frame starts: a record, or a header
// that is all the file holds. The driver cuts `path` back to every length
// from there to the end, a crash before, or partway through, that frame.
// After each cut the repairing `open` must leave the file holding exactly
// its valid prefix, or a fresh header (the same bytes as the one torn)
// when that prefix is empty; `check_all` must find exactly the records of
// the complete frames; and `append_one` must add a record that survives a
// second reopen.

void SweepTearOffsets(const TornLog& log, const std::string& path,
                      const size_t* frame_begin) {
  std::string whole;
  {
    MemEnv mem;
    log.build(&mem);
    whole = mem.ReadFileToString(path).value();
  }
  ASSERT_LT(*frame_begin, whole.size());
  const std::string repaired =
      whole.substr(0, *frame_begin > 0 ? *frame_begin : whole.size());
  for (size_t cut = *frame_begin; cut < whole.size(); ++cut) {
    SCOPED_TRACE("cut at byte " + std::to_string(cut) + " of " +
                 std::to_string(whole.size()));
    MemEnv mem;
    log.build(&mem);
    auto f = std::move(mem.NewWritableFile(path, /*truncate=*/true).value());
    ASSERT_TRUE(f->Append(whole.substr(0, cut)).ok());
    log.open(&mem);
    EXPECT_EQ(mem.ReadFileToString(path).value(), repaired);
    log.check_all(&mem);
    log.append_one(&mem);
  }
}

size_t FileBytes(Env* env, const std::string& path) {
  return size_t(env->FileSize(path).value());
}

kv::Options TearAofOptions(Env* env) {
  kv::Options o;
  o.env = env;
  o.aof_enabled = true;
  o.aof_path = "aof";
  o.sync_policy = SyncPolicy::kAlways;
  return o;
}

// Sets keys [from, to) in a reopened AOF.
void SetAofKeys(Env* env, int from, int to) {
  kv::MemKV db(TearAofOptions(env));
  ASSERT_TRUE(db.Open().ok());
  for (int i = from; i < to; ++i) {
    const std::string n = std::to_string(i);
    ASSERT_TRUE(db.Set("k" + n, "v" + n).ok());
  }
  ASSERT_TRUE(db.Close().ok());
}

// Reopens the AOF and checks that it holds keys [0, keys) and nothing else.
void ExpectAofKeys(Env* env, int keys) {
  kv::MemKV db(TearAofOptions(env));
  ASSERT_TRUE(db.Open().ok());
  EXPECT_EQ(db.Size(), size_t(keys));
  for (int i = 0; i < keys; ++i) {
    const std::string n = std::to_string(i);
    EXPECT_EQ(db.Get("k" + n).value_or(""), "v" + n) << "key " << i;
  }
}

TEST(TearOffsets, AofLastFrame) {
  size_t frame_begin = 0;
  TornLog log;
  log.build = [&](MemEnv* mem) {
    SetAofKeys(mem, 0, kTornRecords - 1);
    frame_begin = FileBytes(mem, "aof");
    SetAofKeys(mem, kTornRecords - 1, kTornRecords);
  };
  log.open = [](Env* env) {
    kv::MemKV db(TearAofOptions(env));
    ASSERT_TRUE(db.Open().ok());
  };
  log.check_all = [](Env* env) { ExpectAofKeys(env, kTornRecords - 1); };
  log.append_one = [](Env* env) {
    SetAofKeys(env, kTornRecords - 1, kTornRecords);
    ExpectAofKeys(env, kTornRecords);
  };
  SweepTearOffsets(log, "aof", &frame_begin);
}

rel::RelOptions TearWalOptions(Env* env) {
  rel::RelOptions o;
  o.env = env;
  o.wal_enabled = true;
  o.wal_path = "wal";
  o.sync_policy = SyncPolicy::kAlways;
  return o;
}

// Reopens the WAL and checks that it holds rows [0, rows) and nothing
// else.
void ExpectWalRows(Env* env, int64_t rows) {
  rel::Database db(TearWalOptions(env));
  ASSERT_TRUE(db.Open().ok());
  rel::Table* t =
      db.CreateTable("t", rel::Schema({{"id", rel::ValueType::kInt64}}))
          .value();
  EXPECT_EQ(t->live_rows(), size_t(rows));
  for (int64_t i = 0; i < rows; ++i) {
    auto match =
        db.Select(t, rel::Compare(0, rel::CompareOp::kEq, rel::Value(i)));
    ASSERT_TRUE(match.ok());
    EXPECT_EQ(match.value().size(), 1u) << "row " << i;
  }
}

// Inserts rows [from, to) into a reopened WAL, then checkpoints if asked.
void InsertWalRows(Env* env, int64_t from, int64_t to, bool checkpoint) {
  rel::Database db(TearWalOptions(env));
  ASSERT_TRUE(db.Open().ok());
  rel::Table* t =
      db.CreateTable("t", rel::Schema({{"id", rel::ValueType::kInt64}}))
          .value();
  for (int64_t i = from; i < to; ++i) {
    ASSERT_TRUE(db.Insert(t, {rel::Value(i)}).ok());
  }
  if (checkpoint) {
    ASSERT_TRUE(db.Checkpoint().ok());
  }
  ASSERT_TRUE(db.Close().ok());
}

// `survivors` rows must outlive the tear; one more is appended.
TornLog TornWal(int64_t survivors) {
  TornLog log;
  log.open = [](Env* env) {
    rel::Database db(TearWalOptions(env));
    ASSERT_TRUE(db.Open().ok());
  };
  log.check_all = [survivors](Env* env) { ExpectWalRows(env, survivors); };
  log.append_one = [survivors](Env* env) {
    InsertWalRows(env, survivors, survivors + 1, /*checkpoint=*/false);
    ExpectWalRows(env, survivors + 1);
  };
  return log;
}

TEST(TearOffsets, WalLastFrame) {
  size_t frame_begin = 0;
  TornLog log = TornWal(kTornRecords - 1);
  log.build = [&](MemEnv* mem) {
    InsertWalRows(mem, 0, kTornRecords - 1, /*checkpoint=*/false);
    frame_begin = FileBytes(mem, "wal");
    InsertWalRows(mem, kTornRecords - 1, kTornRecords, /*checkpoint=*/false);
  };
  SweepTearOffsets(log, "wal", &frame_begin);
}

// A checkpoint leaves the WAL holding only its 'E' epoch frame, next to
// the snapshot that holds every row; a torn stamp loses none of them.
TEST(TearOffsets, WalEpochFrameAfterCheckpoint) {
  const size_t frame_begin = 0;
  TornLog log = TornWal(kTornRecords);
  log.build = [](MemEnv* mem) {
    InsertWalRows(mem, 0, kTornRecords, /*checkpoint=*/true);
  };
  SweepTearOffsets(log, "wal", &frame_begin);
}

constexpr size_t kTearGroup = 4;

AuditLogOptions TearAuditOptions(Env* env, uint64_t rotate_bytes) {
  AuditLogOptions o;
  o.env = env;
  o.path = "audit";
  o.sync_policy = SyncPolicy::kAlways;
  o.rotate_bytes = rotate_bytes;
  return o;
}

// Appends `n` entries to a reopened chain; closing seals the tail.
void AppendAudit(Env* env, uint64_t rotate_bytes, size_t n) {
  AuditLog audit(kTearGroup);
  ASSERT_TRUE(audit.OpenDurable(TearAuditOptions(env, rotate_bytes)).ok());
  for (size_t i = 0; i < n; ++i) {
    AuditEntry e;
    e.timestamp_micros = 1000 + int64_t(i);
    e.actor_id = "ctrl";
    e.op = "CREATE-RECORD";
    e.key = "k" + std::to_string(i);
    audit.Append(e);
  }
  ASSERT_TRUE(audit.CloseDurable().ok());
}

void ExpectAuditEntries(Env* env, uint64_t rotate_bytes, size_t n) {
  AuditLog audit(kTearGroup);
  ASSERT_TRUE(audit.OpenDurable(TearAuditOptions(env, rotate_bytes)).ok());
  EXPECT_EQ(audit.size(), n);
  EXPECT_TRUE(audit.VerifyChain());
}

// `survivors` sealed entries must outlive the tear; one more is appended.
TornLog TornAudit(uint64_t rotate_bytes, size_t survivors) {
  TornLog log;
  log.open = [rotate_bytes](Env* env) {
    AuditLog audit(kTearGroup);
    ASSERT_TRUE(audit.OpenDurable(TearAuditOptions(env, rotate_bytes)).ok());
  };
  log.check_all = [rotate_bytes, survivors](Env* env) {
    ExpectAuditEntries(env, rotate_bytes, survivors);
  };
  log.append_one = [rotate_bytes, survivors](Env* env) {
    AppendAudit(env, rotate_bytes, 1);
    ExpectAuditEntries(env, rotate_bytes, survivors + 1);
  };
  return log;
}

TEST(TearOffsets, AuditLastGroup) {
  constexpr uint64_t kNoRotation = 4 << 20;
  size_t frame_begin = 0;
  TornLog log = TornAudit(kNoRotation, 2 * kTearGroup);
  log.build = [&](MemEnv* mem) {
    AppendAudit(mem, kNoRotation, 2 * kTearGroup);
    frame_begin = FileBytes(mem, "audit.seg1");
    AppendAudit(mem, kNoRotation, kTearGroup);
  };
  SweepTearOffsets(log, "audit.seg1", &frame_begin);
}

// Every group frame fills its segment, so after two groups the chain's
// third segment holds only the header a rotation wrote.
TEST(TearOffsets, AuditSegmentHeader) {
  constexpr uint64_t kRotateEveryGroup = 1;
  const size_t frame_begin = 0;
  TornLog log = TornAudit(kRotateEveryGroup, 2 * kTearGroup);
  log.build = [](MemEnv* mem) {
    AppendAudit(mem, kRotateEveryGroup, 2 * kTearGroup);
  };
  SweepTearOffsets(log, "audit.seg3", &frame_begin);
}

// ---- cluster: degraded node ------------------------------------------------

TEST(ClusterFaults, DegradedNodeRoutesAroundAndReportsPartialForget) {
  MemEnv mem;
  FaultEnv fenv(&mem, kSeed);
  cluster::ClusterOptions o;
  o.nodes = 4;
  o.compliance.metadata_indexing = true;
  o.kv.env = &fenv;
  o.kv.shards = 4;
  o.kv.aof_enabled = true;
  o.kv.aof_path = "cl/aof";
  o.kv.sync_policy = SyncPolicy::kAlways;
  o.audit.path = "cl/audit";
  cluster::ClusterGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  const Actor ctrl = Actor::Controller();

  // Spread keys until every node owns at least one.
  std::vector<std::string> owned_by_node(4);
  std::vector<std::string> keys;
  std::set<uint32_t> covered;
  for (int i = 0; i < 64 && covered.size() < 4; ++i) {
    const std::string key = "ck" + std::to_string(i);
    const uint32_t owner =
        store.slot_map().OwnerOf(store.slot_map().SlotOf(key));
    ASSERT_TRUE(
        store.CreateRecord(
                 ctrl, fault::MakeRecord(key, "cluster-user", "v-" + key))
            .ok());
    keys.push_back(key);
    owned_by_node[owner] = key;
    covered.insert(owner);
  }
  ASSERT_EQ(covered.size(), 4u);

  // Node 1's disk starts failing every fsync (fsyncgate); everyone else's
  // files (".node0", ".router", ...) are untouched.
  FaultPlan plan;
  plan.fail_prob[static_cast<int>(FaultOpKind::kSync)] = 1.0;
  plan.path_filter = ".node1";
  fenv.set_plan(plan);

  // The first write against node 1 surfaces the failure and degrades it.
  Status hit = store.UpdateDataByKey(ctrl, owned_by_node[1], "poke");
  ASSERT_FALSE(hit.ok());
  EXPECT_EQ(store.NodeHealth(1), HealthState::kDegradedReadOnly);
  EXPECT_EQ(store.NodeHealth(0), HealthState::kHealthy);
  EXPECT_EQ(store.GetHealth().state, HealthState::kDegradedReadOnly);
  Status cause = store.GetHealth().cause;
  ASSERT_FALSE(cause.ok());
  EXPECT_NE(cause.message().find("node 1"), std::string::npos)
      << cause.ToString();

  // Point ops: writes to the degraded node refuse with Unavailable, its
  // reads keep serving from memory, healthy nodes are unaffected.
  EXPECT_TRUE(
      store.UpdateDataByKey(ctrl, owned_by_node[1], "again").IsUnavailable());
  EXPECT_TRUE(store.ReadDataByKey(ctrl, owned_by_node[1]).ok());
  EXPECT_TRUE(store.UpdateDataByKey(ctrl, owned_by_node[0], "fine").ok());

  // Scatter-gather reads flow around the degraded node: the full key set
  // is still served.
  auto all = store.ReadMetadataByUser(ctrl, "cluster-user");
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all.value().size(), keys.size());

  // Forget cannot durably tombstone node 1: partial failure, loudly, with
  // the healthy nodes' share erased.
  auto forget = store.DeleteRecordsByUser(ctrl, "cluster-user");
  ASSERT_FALSE(forget.ok());
  EXPECT_TRUE(forget.status().IsUnavailable()) << forget.status().ToString();
  EXPECT_NE(forget.status().message().find("erasure incomplete"),
            std::string::npos)
      << forget.status().ToString();
  auto left = store.ReadMetadataByUser(ctrl, "cluster-user");
  ASSERT_TRUE(left.ok());
  ASSERT_FALSE(left.value().empty());
  for (const auto& rec : left.value()) {
    EXPECT_EQ(store.slot_map().OwnerOf(store.slot_map().SlotOf(rec.key)), 1u)
        << rec.key << " should have been erased (healthy owner)";
  }

  // The disk recovers; a successful full rewrite heals the node and the
  // retried Forget completes everywhere.
  fenv.ClearFaults();
  ASSERT_TRUE(store.node(1)->CompactNow(ctrl).ok());
  EXPECT_EQ(store.NodeHealth(1), HealthState::kHealthy);
  EXPECT_EQ(store.GetHealth().state, HealthState::kHealthy);
  auto retry = store.DeleteRecordsByUser(ctrl, "cluster-user");
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  auto gone = store.ReadMetadataByUser(ctrl, "cluster-user");
  ASSERT_TRUE(gone.ok());
  EXPECT_TRUE(gone.value().empty());
  auto verified = store.VerifyDeletion(Actor::Regulator(), owned_by_node[1]);
  ASSERT_TRUE(verified.ok());
  EXPECT_TRUE(verified.value());
  ASSERT_TRUE(store.Close().ok());
}

// A slot copy that fails on the destination's log. Two nodes over one
// FaultEnv; slot 0 of node 0 holds 12 keys of one user, 3 of them erased.
// Node 1's AOF fails at failable op `offset` of the move.
struct FailedSlotCopy {
  static constexpr uint32_t kSlot = 0;

  MemEnv mem;
  FaultEnv fenv{&mem, kSeed};
  std::unique_ptr<cluster::ClusterGdprStore> store;
  std::vector<std::string> live;
  std::vector<std::string> erased;
  Status moved;

  FailedSlotCopy(cluster::ClusterTransport transport, uint64_t offset) {
    cluster::ClusterOptions o;
    o.nodes = 2;
    o.slots = 8;
    o.compliance.metadata_indexing = true;
    o.kv.env = &fenv;
    o.kv.aof_enabled = true;
    o.kv.aof_path = "slot/aof";
    o.kv.sync_policy = SyncPolicy::kAlways;
    o.audit.path = "slot/audit";
    o.transport = transport;
    store = std::make_unique<cluster::ClusterGdprStore>(o);
    EXPECT_TRUE(store->Open().ok());
    const Actor ctrl = Actor::Controller();
    for (int i = 0; live.size() + erased.size() < 12; ++i) {
      const std::string key = "sk" + std::to_string(i);
      if (store->slot_map().SlotOf(key) != kSlot) continue;
      EXPECT_TRUE(
          store->CreateRecord(ctrl, fault::MakeRecord(key, "slot-user", key))
              .ok());
      if (erased.size() < 3) {
        EXPECT_TRUE(store->DeleteRecordByKey(ctrl, key).ok());
        erased.push_back(key);
      } else {
        live.push_back(key);
      }
    }
    FaultPlan plan;
    plan.fail_at_op = fenv.op_count() + offset;
    plan.path_filter = ".node1";
    fenv.set_plan(plan);
    moved = store->MoveSlots({kSlot}, 1);
  }

  // The owner still answers for the whole slot: live keys read, erased keys
  // verify, and a user query returns each live key exactly once.
  void ExpectSlotWholeOnOwner() {
    EXPECT_EQ(store->slot_map().OwnerOf(kSlot), 0u);
    for (const std::string& key : live) {
      EXPECT_TRUE(store->ReadDataByKey(Actor::Controller(), key).ok()) << key;
    }
    ExpectErased(erased);
    auto by_user = store->ReadMetadataByUser(Actor::Controller(), "slot-user");
    ASSERT_TRUE(by_user.ok()) << by_user.status().ToString();
    std::multiset<std::string> got;
    for (const GdprRecord& rec : by_user.value()) got.insert(rec.key);
    EXPECT_EQ(got, std::multiset<std::string>(live.begin(), live.end()));
  }

  void ExpectErased(const std::vector<std::string>& keys) {
    for (const std::string& key : keys) {
      EXPECT_TRUE(
          store->ReadDataByKey(Actor::Controller(), key).status().IsNotFound())
          << key << " is readable after its erasure";
      auto gone = store->VerifyDeletion(Actor::Regulator(), key);
      ASSERT_TRUE(gone.ok()) << gone.status().ToString();
      EXPECT_TRUE(gone.value()) << key;
    }
  }
};

const cluster::ClusterTransport kTransports[] = {
    cluster::ClusterTransport::kInProcess,
    cluster::ClusterTransport::kLoopbackSocket};

const char* TransportName(cluster::ClusterTransport t) {
  return t == cluster::ClusterTransport::kInProcess ? "in-process" : "socket";
}

TEST(ClusterFaults, SlotCopyFailingAtItsFirstFrameLeavesTheSlotOnItsOwner) {
  for (const auto transport : kTransports) {
    SCOPED_TRACE(TransportName(transport));
    FailedSlotCopy copy(transport, /*offset=*/1);
    EXPECT_FALSE(copy.moved.ok());
    EXPECT_EQ(copy.store->node(1)->RecordCount(), 0u);
    copy.ExpectSlotWholeOnOwner();

    // Once node 1 heals, the same slot moves whole.
    copy.fenv.ClearFaults();
    ASSERT_TRUE(copy.store->node(1)->CompactNow(Actor::Controller()).ok());
    Status moved = copy.store->MoveSlots({FailedSlotCopy::kSlot}, 1);
    ASSERT_TRUE(moved.ok()) << moved.ToString();
    EXPECT_EQ(copy.store->node(1)->RecordCount(), copy.live.size());
    EXPECT_EQ(copy.store->node(0)->RecordCount(), 0u);
    for (const std::string& key : copy.live) {
      EXPECT_TRUE(copy.store->ReadDataByKey(Actor::Controller(), key).ok());
    }
    copy.ExpectErased(copy.erased);
    ASSERT_TRUE(copy.store->Close().ok());
  }
}

// The copy fails after 3 records landed on node 1, and the destination's
// poisoned log cannot undo them. Those stale copies must not come back as
// readable records once the owner erased them and the slot moved there.
TEST(ClusterFaults, SlotCopyFailingMidwayCannotResurrectErasedRecords) {
  for (const auto transport : kTransports) {
    SCOPED_TRACE(TransportName(transport));
    // The first fault offset at which 3 records land; the ops a record
    // import issues are the engine's business, not this test's.
    std::unique_ptr<FailedSlotCopy> copy;
    for (uint64_t offset = 1; offset <= 64; ++offset) {
      copy = std::make_unique<FailedSlotCopy>(transport, offset);
      ASSERT_FALSE(copy->moved.ok()) << "offset " << offset;
      if (copy->store->node(1)->RecordCount() >= 3) break;
    }
    ASSERT_EQ(copy->store->node(1)->RecordCount(), 3u);
    copy->ExpectSlotWholeOnOwner();

    // Heal node 1, erase the rest of the slot on its owner, move it again.
    copy->fenv.ClearFaults();
    ASSERT_TRUE(copy->store->node(1)->CompactNow(Actor::Controller()).ok());
    for (const std::string& key : copy->live) {
      ASSERT_TRUE(
          copy->store->DeleteRecordByKey(Actor::Controller(), key).ok());
    }
    Status moved = copy->store->MoveSlots({FailedSlotCopy::kSlot}, 1);
    ASSERT_TRUE(moved.ok()) << moved.ToString();
    EXPECT_EQ(copy->store->slot_map().OwnerOf(FailedSlotCopy::kSlot), 1u);
    EXPECT_EQ(copy->store->RecordCount(), 0u);
    copy->ExpectErased(copy->live);
    copy->ExpectErased(copy->erased);
    ASSERT_TRUE(copy->store->Close().ok());
  }
}

// ---- coverage floor + robustness trajectory --------------------------------

// Runs last (registration order): asserts the acceptance floor on distinct
// injection points and emits the robustness-coverage line that
// tools/bench_compare.py tracks across PRs.
TEST(ZFaultSummary, CoverageFloorAndReport) {
  const uint64_t points = fault::InjectionPoints().load();
  const uint64_t checks = fault::InvariantChecks().load();
  // A constrained GDPR_FAULT_BUDGET (CI smoke) strides past indices; only
  // hold the full-floor assertion when the budget allows reaching it.
  if (fault::SweepBudget() == 0 || fault::SweepBudget() >= 50) {
    EXPECT_GE(points, 200u);
  }
  EXPECT_GT(checks, points);  // every swept point ran multiple invariants
  std::printf(
      "BENCH_RESULT_JSON {\"bench\":\"fault-sweep\",\"injection_points\":%llu,"
      "\"invariant_checks\":%llu}\n",
      static_cast<unsigned long long>(points),
      static_cast<unsigned long long>(checks));
}

}  // namespace
}  // namespace gdpr
