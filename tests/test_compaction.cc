// Erasure-aware log compaction & checkpointing, both persistence layers:
//
//   * MemKV AOF rewrite shrinks the log, preserves data / TTL / encryption
//     semantics across reopen, and carries erasure tombstones over.
//   * rel::Database checkpoint = snapshot + WAL-tail replay.
//   * The compliance contract: after Erase(user) + CompactNow(), a scan of
//     the on-disk bytes finds no record frame keyed to the erased user —
//     while the tombstone survives replay and VerifyDeletion stays true.
//   * Crash points: a temp file left mid-rewrite (rename never happened)
//     must reopen to the pre-compaction state; a snapshot renamed but WAL
//     not yet truncated must not double-apply.
//   * A 4-node cluster fans CompactNow out per node, and slot migration
//     does not resurrect compacted data.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "cluster/cluster_store.h"
#include "common/coding.h"
#include "gdpr/kv_backend.h"
#include "gdpr/rel_backend.h"
#include "kvstore/db.h"
#include "relstore/database.h"
#include "storage/env.h"

namespace gdpr {
namespace {

// ---- helpers ----------------------------------------------------------------

// Decodes MemKV AOF framing and returns the keys of all 'S' (set) records.
// Mirrors the wire format MemKV::ReplayAofFrame reads.
std::vector<std::string> AofSetKeys(const std::string& contents) {
  std::vector<std::string> keys;
  std::string_view in(contents);
  while (!in.empty()) {
    const char op = in.front();
    in.remove_prefix(1);
    std::string_view key;
    if (!GetLengthPrefixed(&in, &key)) break;
    if (op == 'S') {
      std::string_view value;
      uint64_t expiry = 0;
      if (!GetLengthPrefixed(&in, &value) || !GetFixed64(&in, &expiry)) break;
      keys.emplace_back(key);
    } else if (op != 'D' && op != 'T' && op != 't' && op != 'R') {
      break;
    }
  }
  return keys;
}

std::vector<std::string> AofTombstoneKeys(const std::string& contents) {
  std::vector<std::string> keys;
  std::string_view in(contents);
  while (!in.empty()) {
    const char op = in.front();
    in.remove_prefix(1);
    std::string_view key;
    if (!GetLengthPrefixed(&in, &key)) break;
    if (op == 'S') {
      std::string_view value;
      uint64_t expiry = 0;
      if (!GetLengthPrefixed(&in, &value) || !GetFixed64(&in, &expiry)) break;
    } else if (op == 'T') {
      keys.emplace_back(key);
    }
  }
  return keys;
}

GdprRecord MakeRecord(const std::string& key, const std::string& user,
                      const std::string& data) {
  GdprRecord rec;
  rec.key = key;
  rec.data = data;
  rec.metadata.user = user;
  rec.metadata.purposes = {"billing"};
  rec.metadata.origin = "first-party";
  return rec;
}

// ---- MemKV AOF rewrite ------------------------------------------------------

TEST(AofCompaction, RewriteShrinksLogAndSurvivesReopen) {
  MemEnv env;
  kv::Options o;
  o.env = &env;
  o.aof_enabled = true;
  o.aof_path = "aof";
  o.sync_policy = SyncPolicy::kNever;
  {
    kv::MemKV db(o);
    ASSERT_TRUE(db.Open().ok());
    // 10:1 overwrite: the log carries every version, memory only the last.
    for (int round = 0; round < 10; ++round) {
      for (int i = 0; i < 200; ++i) {
        ASSERT_TRUE(db.Set("k" + std::to_string(i),
                           "v" + std::to_string(round) + "-" +
                               std::to_string(i))
                        .ok());
      }
    }
    const uint64_t before = db.AofLogBytes();
    ASSERT_TRUE(db.CompactAof().ok());
    const kv::AofStats stats = db.GetAofStats();
    EXPECT_EQ(stats.rewrites, 1u);
    EXPECT_EQ(stats.last_bytes_before, before);
    EXPECT_LT(stats.log_bytes, before / 5);  // 10 versions -> 1
    EXPECT_EQ(env.ReadFileToString("aof").value().size(), stats.log_bytes);
    EXPECT_FALSE(env.FileExists("aof.compact.tmp"));
    ASSERT_TRUE(db.Close().ok());
  }
  kv::MemKV db(o);
  ASSERT_TRUE(db.Open().ok());
  EXPECT_EQ(db.Size(), 200u);
  for (int i = 0; i < 200; ++i) {
    auto v = db.Get("k" + std::to_string(i));
    ASSERT_TRUE(v.ok()) << i;
    EXPECT_EQ(v.value(), "v9-" + std::to_string(i));
  }
}

TEST(AofCompaction, PreservesEncryptionAndTtl) {
  MemEnv env;
  SimulatedClock clock;
  kv::Options o;
  o.env = &env;
  o.clock = &clock;
  o.aof_enabled = true;
  o.aof_path = "aof";
  o.sync_policy = SyncPolicy::kNever;
  o.encrypt_at_rest = true;
  {
    kv::MemKV db(o);
    ASSERT_TRUE(db.Open().ok());
    ASSERT_TRUE(db.Set("plain-key", "super-secret-payload").ok());
    ASSERT_TRUE(db.SetWithTtl("short-lived", "gone-soon", 1000).ok());
    ASSERT_TRUE(db.SetWithTtl("long-lived", "stays", 1000000000).ok());
    clock.AdvanceMicros(2000);  // expire short-lived (not yet reclaimed)
    ASSERT_TRUE(db.CompactAof().ok());
    ASSERT_TRUE(db.Close().ok());
  }
  const std::string log = env.ReadFileToString("aof").value();
  // Sealed values: plaintext never in the rewritten log.
  EXPECT_EQ(log.find("super-secret-payload"), std::string::npos);
  // Expired-but-unreclaimed entries are dropped by the rewrite.
  const auto keys = AofSetKeys(log);
  EXPECT_EQ(keys.size(), 2u);
  kv::MemKV db(o);
  ASSERT_TRUE(db.Open().ok());
  EXPECT_EQ(db.Get("plain-key").value(), "super-secret-payload");
  EXPECT_EQ(db.Get("long-lived").value(), "stays");
  EXPECT_FALSE(db.Get("short-lived").ok());
  // TTL survived the rewrite: advancing past the long deadline kills it.
  clock.AdvanceMicros(2000000000);
  EXPECT_FALSE(db.Get("long-lived").ok());
}

TEST(AofCompaction, CrashMidRewriteRecoversPreCompactionState) {
  MemEnv env;
  kv::Options o;
  o.env = &env;
  o.aof_enabled = true;
  o.aof_path = "aof";
  o.sync_policy = SyncPolicy::kNever;
  {
    kv::MemKV db(o);
    ASSERT_TRUE(db.Open().ok());
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db.Set("k" + std::to_string(i), "v" + std::to_string(i)).ok());
    }
    ASSERT_TRUE(db.Delete("k0").ok());
    ASSERT_TRUE(db.AddTombstone("k0").ok());
    ASSERT_TRUE(db.Close().ok());
  }
  // Simulate a crash mid-rewrite: the temp exists (partially written,
  // garbage), the rename never happened.
  {
    auto tmp = std::move(env.NewWritableFile("aof.compact.tmp", true).value());
    ASSERT_TRUE(tmp->Append("partial-snapshot-garbage").ok());
  }
  kv::MemKV db(o);
  ASSERT_TRUE(db.Open().ok());
  // Old AOF is authoritative: full pre-compaction state, temp discarded.
  EXPECT_EQ(db.Size(), 49u);
  EXPECT_EQ(db.Get("k7").value(), "v7");
  EXPECT_FALSE(db.Get("k0").ok());
  EXPECT_TRUE(db.HasTombstone("k0"));
  EXPECT_FALSE(env.FileExists("aof.compact.tmp"));
}

TEST(AofCompaction, AutoCompactionTriggersFromPolicy) {
  MemEnv env;
  kv::Options o;
  o.env = &env;
  o.aof_enabled = true;
  o.aof_path = "aof";
  o.sync_policy = SyncPolicy::kNever;
  o.aof_auto_compact = true;
  o.aof_compact_min_bytes = 1024;
  o.aof_compact_ratio = 2.0;
  kv::MemKV db(o);
  ASSERT_TRUE(db.Open().ok());
  EXPECT_FALSE(db.AofCompactionDue());  // below the byte floor
  for (int round = 0; round < 20; ++round) {
    for (int i = 0; i < 50; ++i) {
      ASSERT_TRUE(db.Set("k" + std::to_string(i), std::string(40, 'x')).ok());
    }
  }
  EXPECT_TRUE(db.AofCompactionDue());
  db.RunExpiryCycle();  // the cron body runs this + MaybeCompactAof
  db.MaybeCompactAof();
  EXPECT_EQ(db.GetAofStats().rewrites, 1u);
  EXPECT_FALSE(db.AofCompactionDue());
}

// ---- KV erasure contract ----------------------------------------------------

TEST(ErasureCompaction, KvForgetUserOnDisk) {
  MemEnv env;
  KvGdprOptions o;
  o.compliance.metadata_indexing = true;
  o.kv.env = &env;
  o.kv.aof_enabled = true;
  o.kv.aof_path = "aof";
  o.kv.sync_policy = SyncPolicy::kNever;
  const std::string sentinel = "ALICE-PAYLOAD-SENTINEL";
  {
    KvGdprStore store(o);
    ASSERT_TRUE(store.Open().ok());
    for (int i = 0; i < 8; ++i) {
      ASSERT_TRUE(store
                      .CreateRecord(Actor::Controller(),
                                    MakeRecord("alice:k" + std::to_string(i),
                                               "alice", sentinel))
                      .ok());
      ASSERT_TRUE(store
                      .CreateRecord(Actor::Controller(),
                                    MakeRecord("bob:k" + std::to_string(i),
                                               "bob", "bob-data"))
                      .ok());
    }
    auto erased = store.DeleteRecordsByUser(Actor::Controller(), "alice");
    ASSERT_TRUE(erased.ok());
    EXPECT_EQ(erased.value(), 8u);
    // Pre-compaction: the erased user's frames still sit in the log, and
    // the store says so.
    EXPECT_NE(env.ReadFileToString("aof").value().find(sentinel),
              std::string::npos);
    CompactionStats pending = store.GetCompactionStats();
    EXPECT_EQ(pending.erasures_pending_compaction, 8u);
    EXPECT_GT(pending.erasure_barrier, 0u);

    auto stats = store.CompactNow(Actor::Controller());
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.value().compactions, 1u);
    EXPECT_EQ(stats.value().erasures_pending_compaction, 0u);

    // Post-compaction byte-level scan: no plaintext payload, no record
    // frame keyed to alice. The tombstones (which carry only the key, as
    // evidence) survive.
    const std::string log = env.ReadFileToString("aof").value();
    EXPECT_EQ(log.find(sentinel), std::string::npos);
    for (const auto& key : AofSetKeys(log)) {
      EXPECT_NE(key.find("alice"), 0u) << "record frame survived compaction";
    }
    EXPECT_EQ(AofTombstoneKeys(log).size(), 8u);
    ASSERT_TRUE(store.Close().ok());
  }
  // Tombstone evidence survives replay; erased records stay gone.
  KvGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.RecordCount(), 8u);  // bob's
  EXPECT_TRUE(store.VerifyDeletion(Actor::Regulator(), "alice:k3").value());
  EXPECT_TRUE(
      store.ReadMetadataByUser(Actor::Controller(), "alice").value().empty());
  EXPECT_TRUE(store.audit_log()->VerifyChain());
}

TEST(ErasureCompaction, CronTriggeredRewriteDrainsTheBarrier) {
  // The engine's own auto-compaction must satisfy the erasure contract
  // just like an explicit CompactNow: pending is generation-based, not
  // tied to who ran the pass.
  MemEnv env;
  KvGdprOptions o;
  o.kv.env = &env;
  o.kv.aof_enabled = true;
  o.kv.aof_path = "aof";
  o.kv.sync_policy = SyncPolicy::kNever;
  KvGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  ASSERT_TRUE(store.CreateRecord(Actor::Controller(),
                                 MakeRecord("k1", "alice", "data"))
                  .ok());
  ASSERT_TRUE(store.DeleteRecordByKey(Actor::Controller(), "k1").ok());
  EXPECT_EQ(store.GetCompactionStats().erasures_pending_compaction, 1u);
  // Engine-level rewrite (what the expiry cron runs) — not CompactNow.
  ASSERT_TRUE(store.raw()->CompactAof().ok());
  EXPECT_EQ(store.GetCompactionStats().erasures_pending_compaction, 0u);
}

TEST(ErasureCompaction, CompactNowIsControllerOnly) {
  KvGdprOptions o;
  KvGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  EXPECT_TRUE(store.CompactNow(Actor::Customer("carol")).status()
                  .IsPermissionDenied());
  EXPECT_TRUE(
      store.CompactNow(Actor::Regulator()).status().IsPermissionDenied());
  EXPECT_TRUE(store.CompactNow(Actor::Controller()).ok());  // no AOF: no-op
}

// ---- rel::Database checkpoint ----------------------------------------------

rel::RelOptions RelWal(Env* env, const std::string& path) {
  rel::RelOptions o;
  o.env = env;
  o.wal_enabled = true;
  o.wal_path = path;
  o.sync_policy = SyncPolicy::kNever;
  return o;
}

rel::Schema PeopleSchema() {
  return rel::Schema(
      {{"name", rel::ValueType::kString}, {"age", rel::ValueType::kInt64}});
}

TEST(WalCheckpoint, SnapshotPlusTailReplays) {
  MemEnv env;
  {
    rel::Database db(RelWal(&env, "wal"));
    ASSERT_TRUE(db.Open().ok());
    rel::Table* t = db.CreateTable("people", PeopleSchema()).value();
    for (int i = 0; i < 100; ++i) {
      ASSERT_TRUE(db.Insert(t, {rel::Value("p" + std::to_string(i)),
                                rel::Value(int64_t(i))})
                      .ok());
    }
    // Overwrites bloat the WAL with dead versions.
    for (int round = 0; round < 5; ++round) {
      ASSERT_EQ(db.Update(t,
                          rel::Compare(1, rel::CompareOp::kGe,
                                       rel::Value(int64_t(0))),
                          [](rel::Row* r) {
                            (*r)[1] = rel::Value((*r)[1].AsInt64() + 100);
                          })
                    .value(),
                100u);
    }
    ASSERT_EQ(db.Delete(t, rel::Compare(0, rel::CompareOp::kEq,
                                        rel::Value("p7"))).value(),
              1u);
    const uint64_t wal_before = db.WalBytes();
    ASSERT_TRUE(db.Checkpoint().ok());
    const rel::CheckpointStats stats = db.GetCheckpointStats();
    EXPECT_EQ(stats.checkpoints, 1u);
    EXPECT_EQ(stats.last_wal_bytes_before, wal_before);
    EXPECT_LT(stats.wal_bytes, 16u);  // just the epoch frame
    EXPECT_TRUE(env.FileExists("wal.snapshot"));
    // Post-checkpoint writes land in the WAL tail.
    ASSERT_TRUE(
        db.Insert(t, {rel::Value("fresh"), rel::Value(int64_t(1))}).ok());
    ASSERT_TRUE(db.Close().ok());
  }
  rel::Database db(RelWal(&env, "wal"));
  ASSERT_TRUE(db.Open().ok());
  rel::Table* t = db.CreateTable("people", PeopleSchema()).value();
  EXPECT_TRUE(db.replay_stats().from_snapshot);
  EXPECT_EQ(db.replay_stats().snapshot_rows, 99u);
  EXPECT_EQ(db.replay_stats().inserts, 1u);  // the WAL-tail insert
  EXPECT_EQ(t->live_rows(), 100u);
  // Row ids survived (p7's slot stayed reserved); final images replayed.
  auto rows = db.Select(t, rel::Compare(0, rel::CompareOp::kEq,
                                        rel::Value("p3")));
  ASSERT_EQ(rows.value().size(), 1u);
  EXPECT_EQ(rows.value()[0][1].AsInt64(), 503);
  EXPECT_TRUE(db.Select(t, rel::Compare(0, rel::CompareOp::kEq,
                                        rel::Value("p7")))
                  .value()
                  .empty());
  auto fresh = db.Select(t, rel::Compare(0, rel::CompareOp::kEq,
                                         rel::Value("fresh")));
  EXPECT_EQ(fresh.value().size(), 1u);
}

TEST(WalCheckpoint, RepeatedCheckpointsAndEncryptedCells) {
  MemEnv env;
  rel::RelOptions o = RelWal(&env, "wal");
  o.encrypt_at_rest = true;
  for (int incarnation = 0; incarnation < 3; ++incarnation) {
    rel::Database db(o);
    ASSERT_TRUE(db.Open().ok());
    rel::Table* t = db.CreateTable("people", PeopleSchema()).value();
    ASSERT_TRUE(db.Insert(t, {rel::Value("secret-name-" +
                                         std::to_string(incarnation)),
                              rel::Value(int64_t(incarnation))})
                    .ok());
    ASSERT_TRUE(db.Checkpoint().ok());
    EXPECT_EQ(t->live_rows(), size_t(incarnation) + 1);
    ASSERT_TRUE(db.Close().ok());
    // Sealed cells only, in both snapshot and WAL.
    EXPECT_EQ(env.ReadFileToString("wal.snapshot").value().find("secret-name"),
              std::string::npos);
    EXPECT_EQ(env.ReadFileToString("wal").value().find("secret-name"),
              std::string::npos);
  }
  rel::Database db(o);
  ASSERT_TRUE(db.Open().ok());
  rel::Table* t = db.CreateTable("people", PeopleSchema()).value();
  EXPECT_EQ(t->live_rows(), 3u);
  for (int i = 0; i < 3; ++i) {
    auto rows = db.Select(
        t, rel::Compare(0, rel::CompareOp::kEq,
                        rel::Value("secret-name-" + std::to_string(i))));
    EXPECT_EQ(rows.value().size(), 1u) << i;
  }
}

TEST(WalCheckpoint, CrashBeforeSnapshotRenameIsIgnored) {
  MemEnv env;
  {
    rel::Database db(RelWal(&env, "wal"));
    ASSERT_TRUE(db.Open().ok());
    rel::Table* t = db.CreateTable("people", PeopleSchema()).value();
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(db.Insert(t, {rel::Value("p" + std::to_string(i)),
                                rel::Value(int64_t(i))})
                      .ok());
    }
    ASSERT_TRUE(db.Close().ok());
  }
  // Crash mid-checkpoint: partial snapshot temp, rename never happened.
  {
    auto tmp =
        std::move(env.NewWritableFile("wal.snapshot.tmp", true).value());
    ASSERT_TRUE(tmp->Append("RSNP1-partial-garbage").ok());
  }
  rel::Database db(RelWal(&env, "wal"));
  ASSERT_TRUE(db.Open().ok());
  rel::Table* t = db.CreateTable("people", PeopleSchema()).value();
  EXPECT_FALSE(db.replay_stats().from_snapshot);
  EXPECT_EQ(t->live_rows(), 10u);
  EXPECT_FALSE(env.FileExists("wal.snapshot.tmp"));
}

TEST(WalCheckpoint, CrashBetweenRenameAndTruncateDropsStaleWal) {
  MemEnv env;
  std::string pre_checkpoint_wal;
  {
    rel::Database db(RelWal(&env, "wal"));
    ASSERT_TRUE(db.Open().ok());
    rel::Table* t = db.CreateTable("people", PeopleSchema()).value();
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(db.Insert(t, {rel::Value("p" + std::to_string(i)),
                                rel::Value(int64_t(i))})
                      .ok());
    }
    pre_checkpoint_wal = env.ReadFileToString("wal").value();
    ASSERT_TRUE(db.Checkpoint().ok());
    ASSERT_TRUE(db.Close().ok());
  }
  // Rewind the WAL to its pre-checkpoint contents: exactly the state a
  // crash after the snapshot rename but before the truncate leaves behind
  // (old log, no epoch frame).
  {
    auto f = std::move(env.NewWritableFile("wal", true).value());
    ASSERT_TRUE(f->Append(pre_checkpoint_wal).ok());
  }
  rel::Database db(RelWal(&env, "wal"));
  ASSERT_TRUE(db.Open().ok());
  rel::Table* t = db.CreateTable("people", PeopleSchema()).value();
  EXPECT_TRUE(db.replay_stats().from_snapshot);
  // Snapshot only — the stale WAL must NOT double-apply its inserts.
  EXPECT_EQ(db.replay_stats().inserts, 0u);
  EXPECT_EQ(t->live_rows(), 10u);
  // And the interrupted truncation was finished: new writes replay fine.
  ASSERT_TRUE(db.Insert(t, {rel::Value("post"), rel::Value(int64_t(1))}).ok());
  ASSERT_TRUE(db.Close().ok());
  rel::Database db2(RelWal(&env, "wal"));
  ASSERT_TRUE(db2.Open().ok());
  rel::Table* t2 = db2.CreateTable("people", PeopleSchema()).value();
  EXPECT_EQ(t2->live_rows(), 11u);
}

// ---- rel erasure contract ---------------------------------------------------

TEST(ErasureCompaction, RelForgetUserOnDisk) {
  MemEnv env;
  RelGdprOptions o;
  o.compliance.metadata_indexing = true;
  o.rel.env = &env;
  o.rel.wal_enabled = true;
  o.rel.wal_path = "wal";
  o.rel.sync_policy = SyncPolicy::kNever;
  // Keys deliberately do NOT embed the user name: tombstones keep the key
  // as evidence, so the byte-level scan below can demand the user string
  // itself vanishes from disk entirely.
  const std::string sentinel = "ALICE-REL-SENTINEL";
  {
    RelGdprStore store(o);
    ASSERT_TRUE(store.Open().ok());
    for (int i = 0; i < 6; ++i) {
      ASSERT_TRUE(store
                      .CreateRecord(Actor::Controller(),
                                    MakeRecord("acct:r" + std::to_string(i),
                                               "alice", sentinel))
                      .ok());
      ASSERT_TRUE(store
                      .CreateRecord(Actor::Controller(),
                                    MakeRecord("bob:r" + std::to_string(i),
                                               "bob", "bob-data"))
                      .ok());
    }
    ASSERT_EQ(store.DeleteRecordsByUser(Actor::Controller(), "alice").value(),
              6u);
    // The WAL still carries the erased rows until the checkpoint.
    EXPECT_NE(env.ReadFileToString("wal").value().find(sentinel),
              std::string::npos);
    EXPECT_EQ(store.GetCompactionStats().erasures_pending_compaction, 6u);
    auto stats = store.CompactNow(Actor::Controller());
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats.value().compactions, 1u);
    EXPECT_EQ(stats.value().erasures_pending_compaction, 0u);
    // Byte-level scan across every persistence artifact: neither the
    // payload nor the user string remains; the tombstone keys do.
    for (const char* artifact : {"wal", "wal.snapshot"}) {
      const std::string bytes = env.ReadFileToString(artifact).value();
      EXPECT_EQ(bytes.find(sentinel), std::string::npos) << artifact;
      EXPECT_EQ(bytes.find("alice"), std::string::npos) << artifact;
    }
    EXPECT_NE(env.ReadFileToString("wal.snapshot").value().find("acct:r"),
              std::string::npos);  // evidence survives in the snapshot
    ASSERT_TRUE(store.Close().ok());
  }
  // Evidence survives replay: records gone, tombstones answer for them.
  RelGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  EXPECT_EQ(store.RecordCount(), 6u);  // bob's
  EXPECT_TRUE(store.VerifyDeletion(Actor::Regulator(), "acct:r2").value());
  EXPECT_TRUE(
      store.ReadMetadataByUser(Actor::Controller(), "alice").value().empty());
  EXPECT_TRUE(store.audit_log()->VerifyChain());
}

// ---- cluster ----------------------------------------------------------------

TEST(ErasureCompaction, ClusterCompactAllAndMigrationDoesNotResurrect) {
  MemEnv env;
  cluster::ClusterOptions o;
  o.nodes = 4;
  o.compliance.metadata_indexing = true;
  o.kv.env = &env;
  o.kv.aof_enabled = true;
  o.kv.aof_path = "aof";  // nodes write aof.node0 .. aof.node3
  o.kv.sync_policy = SyncPolicy::kNever;
  const std::string sentinel = "ALICE-CLUSTER-SENTINEL";
  cluster::ClusterGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(store
                    .CreateRecord(Actor::Controller(),
                                  MakeRecord("alice:c" + std::to_string(i),
                                             "alice", sentinel))
                    .ok());
    ASSERT_TRUE(store
                    .CreateRecord(Actor::Controller(),
                                  MakeRecord("bob:c" + std::to_string(i),
                                             "bob", "bob-data"))
                    .ok());
  }
  ASSERT_EQ(store.DeleteRecordsByUser(Actor::Controller(), "alice").value(),
            32u);
  auto stats = store.CompactNow(Actor::Controller());
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats.value().compactions, 4u);  // one rewrite per node
  EXPECT_EQ(stats.value().erasures_pending_compaction, 0u);
  for (int n = 0; n < 4; ++n) {
    const std::string log =
        env.ReadFileToString("aof.node" + std::to_string(n)).value();
    EXPECT_EQ(log.find(sentinel), std::string::npos) << "node " << n;
    for (const auto& key : AofSetKeys(log)) {
      EXPECT_NE(key.find("alice"), 0u) << "node " << n;
    }
  }
  // Slot migration after compaction must not resurrect erased data — and
  // must carry the tombstones.
  ASSERT_TRUE(store.MoveSlots({0, 1, 2, 3, 4, 5, 6, 7}, 2).ok());
  ASSERT_TRUE(store.Rebalance().ok());
  EXPECT_TRUE(
      store.ReadMetadataByUser(Actor::Controller(), "alice").value().empty());
  EXPECT_TRUE(store.VerifyDeletion(Actor::Regulator(), "alice:c5").value());
  // A second pass compacts the migration traffic; still nothing of alice.
  ASSERT_TRUE(store.CompactNow(Actor::Controller()).ok());
  for (int n = 0; n < 4; ++n) {
    const std::string log =
        env.ReadFileToString("aof.node" + std::to_string(n)).value();
    EXPECT_EQ(log.find(sentinel), std::string::npos) << "node " << n;
  }
  EXPECT_EQ(store.RecordCount(), 32u);  // bob intact through all of it
  EXPECT_TRUE(store.VerifyAuditChains());
  ASSERT_TRUE(store.Close().ok());
  // Reopen: per-node replay restores bob, keeps alice gone and evidenced.
  cluster::ClusterGdprStore reopened(o);
  ASSERT_TRUE(reopened.Open().ok());
  EXPECT_EQ(reopened.RecordCount(), 32u);
  EXPECT_TRUE(
      reopened.ReadMetadataByUser(Actor::Controller(), "alice").value().empty());
  EXPECT_EQ(
      reopened.ReadMetadataByUser(Actor::Controller(), "bob").value().size(),
      32u);
}

}  // namespace
}  // namespace gdpr
