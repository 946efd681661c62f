// The audit chain as a durability contract:
//
//   * Sealed groups survive a restart byte-for-byte: reopen replays the
//     segment files, recomputes every group hash, and VerifyChain passes
//     with the pre-restart head.
//   * Kill points: mid-append / mid-seal (torn group frame at the tail),
//     mid-rotation (torn segment header), mid-compaction (stale segments
//     behind the epoch fence) — all reopen to the last durably sealed
//     prefix, never to a chain that fails verification.
//   * Tampering with a fully-written frame is NOT a crash artifact: the
//     group hash stops recomputing and Open refuses with DataLoss.
//   * Retention compaction drops whole aged-out groups behind a re-anchor
//     frame; the surviving chain verifies from the recorded pre-compaction
//     head and the head hash itself never changes.
//   * All three stores: KvGdprStore, RelGdprStore, and a 4-node
//     ClusterGdprStore whose per-node + router chains re-verify
//     independently after a full-cluster restart.
//   * Satellites: statement-log rotation bounds, and the stmt_log_ close
//     race (TSAN food).

#include <gtest/gtest.h>

#include <atomic>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_store.h"
#include "gdpr/audit.h"
#include "gdpr/kv_backend.h"
#include "gdpr/rel_backend.h"
#include "relstore/database.h"
#include "storage/env.h"

namespace gdpr {
namespace {

AuditEntry E(int64_t ts, const std::string& actor, const std::string& op,
             const std::string& key, bool allowed = true) {
  AuditEntry e;
  e.timestamp_micros = ts;
  e.actor_id = actor;
  e.role = Actor::Role::kController;
  e.op = op;
  e.key = key;
  e.allowed = allowed;
  return e;
}

AuditLogOptions Opts(MemEnv* env, const std::string& path,
                     uint64_t rotate_bytes = 4 << 20,
                     int64_t retention_micros = 0) {
  AuditLogOptions o;
  o.env = env;
  o.path = path;
  o.sync_policy = SyncPolicy::kNever;
  o.rotate_bytes = rotate_bytes;
  o.retention_micros = retention_micros;
  return o;
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

// Rewrites a MemEnv file to its first `keep` bytes (a torn trailing write).
void Truncate(MemEnv* env, const std::string& path, size_t cut_bytes) {
  const std::string contents = env->ReadFileToString(path).value();
  ASSERT_GT(contents.size(), cut_bytes);
  auto f = std::move(env->NewWritableFile(path, /*truncate=*/true).value());
  ASSERT_TRUE(
      f->Append(contents.substr(0, contents.size() - cut_bytes)).ok());
}

// ---- AuditLog: the segment files themselves --------------------------------

TEST(AuditDurability, SealedGroupsSurviveReopen) {
  MemEnv env;
  std::string head;
  {
    AuditLog log(8);
    ASSERT_TRUE(log.OpenDurable(Opts(&env, "audit")).ok());
    for (int i = 0; i < 20; ++i) {
      log.Append(E(1000 + i, "ctrl", "CREATE-RECORD", "k" + std::to_string(i)));
    }
    head = log.head_hash();  // seals the pending tail (a durable group)
    EXPECT_TRUE(log.VerifyChain());
    ASSERT_TRUE(log.CloseDurable().ok());
  }
  AuditLog log(8);
  ASSERT_TRUE(log.OpenDurable(Opts(&env, "audit")).ok());
  EXPECT_EQ(log.size(), 20u);
  EXPECT_TRUE(log.VerifyChain());
  EXPECT_EQ(log.head_hash(), head);
  // Entries replay whole, not just hashes: a time-ranged query works.
  const auto window = log.Query(1005, 1009);
  ASSERT_EQ(window.size(), 5u);
  EXPECT_EQ(window[0].key, "k5");
  EXPECT_EQ(window[0].actor_id, "ctrl");
}

TEST(AuditDurability, UnsealedTailIsLostButChainVerifies) {
  MemEnv env;
  {
    AuditLog log(32);
    ASSERT_TRUE(log.OpenDurable(Opts(&env, "audit")).ok());
    // 32 seal into a durable group; 8 stay buffered in memory.
    for (int i = 0; i < 40; ++i) {
      log.Append(E(1000 + i, "ctrl", "CREATE-RECORD", "k" + std::to_string(i)));
    }
    // Kill: no CloseDurable — the object just goes away.
  }
  AuditLog log(32);
  ASSERT_TRUE(log.OpenDurable(Opts(&env, "audit")).ok());
  EXPECT_EQ(log.size(), 32u);  // the sealed prefix, exactly
  EXPECT_TRUE(log.VerifyChain());
}

TEST(AuditDurability, TornTailTruncatesToSealedPrefix) {
  MemEnv env;
  {
    AuditLog log(4);
    ASSERT_TRUE(log.OpenDurable(Opts(&env, "audit")).ok());
    for (int i = 0; i < 12; ++i) {  // three sealed groups
      log.Append(E(1000 + i, "ctrl", "CREATE-RECORD", "k" + std::to_string(i)));
    }
    ASSERT_TRUE(log.CloseDurable().ok());
  }
  // Kill mid-append: the third group's frame is cut short.
  Truncate(&env, "audit.seg1", 5);
  AuditLog log(4);
  ASSERT_TRUE(log.OpenDurable(Opts(&env, "audit")).ok());
  EXPECT_EQ(log.size(), 8u);
  EXPECT_TRUE(log.VerifyChain());
  // The recovered head is the sealed prefix's head: an in-memory chain fed
  // the same first 8 entries lands on the identical hash.
  AuditLog expect(4);
  for (int i = 0; i < 8; ++i) {
    expect.Append(E(1000 + i, "ctrl", "CREATE-RECORD", "k" + std::to_string(i)));
  }
  EXPECT_EQ(log.head_hash(), expect.head_hash());
  // And the torn bytes were truncated away: appending after recovery
  // replays cleanly on the next open.
  log.Append(E(2000, "ctrl", "CREATE-RECORD", "post-crash"));
  ASSERT_TRUE(log.CloseDurable().ok());
  AuditLog again(4);
  ASSERT_TRUE(again.OpenDurable(Opts(&env, "audit")).ok());
  EXPECT_EQ(again.size(), 9u);
  EXPECT_TRUE(again.VerifyChain());
}

TEST(AuditDurability, TamperedFrameIsRefusedAsDataLoss) {
  MemEnv env;
  {
    AuditLog log(4);
    ASSERT_TRUE(log.OpenDurable(Opts(&env, "audit")).ok());
    for (int i = 0; i < 8; ++i) {
      log.Append(E(1000 + i, "tamper-me", "CREATE-RECORD",
                   "k" + std::to_string(i)));
    }
    ASSERT_TRUE(log.CloseDurable().ok());
  }
  // Retroactive edit inside a fully-written frame: flip one byte of the
  // first group's actor id. The frame still parses; the hash must not.
  std::string contents = env.ReadFileToString("audit.seg1").value();
  const size_t at = contents.find("tamper-me");
  ASSERT_NE(at, std::string::npos);
  contents[at] = 'T';
  {
    auto f = std::move(env.NewWritableFile("audit.seg1", true).value());
    ASSERT_TRUE(f->Append(contents).ok());
  }
  AuditLog log(4);
  EXPECT_TRUE(log.OpenDurable(Opts(&env, "audit")).IsDataLoss());
}

TEST(AuditDurability, RotationSpansSegmentsAndSurvivesMidRotationCrash) {
  MemEnv env;
  const AuditLogOptions opts = Opts(&env, "audit", /*rotate_bytes=*/256);
  std::string head;
  {
    AuditLog log(4);
    ASSERT_TRUE(log.OpenDurable(opts).ok());
    for (int i = 0; i < 40; ++i) {
      log.Append(E(1000 + i, "controller", "CREATE-RECORD",
                   "key-" + std::to_string(i)));
    }
    head = log.head_hash();
    EXPECT_GE(log.segment_count(), 2u);
    ASSERT_TRUE(log.CloseDurable().ok());
  }
  uint64_t segments = 0;
  {
    AuditLog log(4);
    ASSERT_TRUE(log.OpenDurable(opts).ok());
    EXPECT_EQ(log.size(), 40u);
    EXPECT_TRUE(log.VerifyChain());
    EXPECT_EQ(log.head_hash(), head);
    segments = log.segment_count();
    ASSERT_TRUE(log.CloseDurable().ok());
  }
  // Kill mid-rotation: the next segment file exists but its header append
  // was torn. Reopen must treat it as the (empty) active segment.
  {
    auto f = std::move(
        env.NewWritableFile("audit.seg" + std::to_string(segments + 1), true)
            .value());
    ASSERT_TRUE(f->Append("A").ok());  // one byte of header, then the crash
  }
  AuditLog log(4);
  ASSERT_TRUE(log.OpenDurable(opts).ok());
  EXPECT_EQ(log.size(), 40u);
  EXPECT_TRUE(log.VerifyChain());
  EXPECT_EQ(log.head_hash(), head);
  log.Append(E(5000, "controller", "CREATE-RECORD", "post-rotation-crash"));
  ASSERT_TRUE(log.CloseDurable().ok());
  AuditLog again(4);
  ASSERT_TRUE(again.OpenDurable(opts).ok());
  EXPECT_EQ(again.size(), 41u);
  EXPECT_TRUE(again.VerifyChain());
}

// ---- retention compaction ---------------------------------------------------

TEST(AuditCompaction, RetentionDropsAgedGroupsBehindReanchor) {
  MemEnv env;
  const int64_t kRetention = 1000000000;  // 1000 s
  const AuditLogOptions opts =
      Opts(&env, "audit", /*rotate_bytes=*/256, kRetention);
  std::string head;
  {
    AuditLog log(4);
    ASSERT_TRUE(log.OpenDurable(opts).ok());
    for (int i = 0; i < 16; ++i) {  // aged: ts ~ 1000
      log.Append(E(1000 + i, "ctrl", "CREATE-RECORD", "old-" + std::to_string(i)));
    }
    const int64_t now = 2500000000;  // cutoff = 1.5e9: all "old" groups age out
    for (int i = 0; i < 8; ++i) {    // recent: ts ~ 2.4e9
      log.Append(E(2400000000 + i, "ctrl", "CREATE-RECORD",
                   "new-" + std::to_string(i)));
    }
    head = log.head_hash();
    EXPECT_EQ(log.anchor_hash(), "audit-chain-genesis");
    auto res = log.Compact(now);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.value().dropped_entries, 16u);
    EXPECT_EQ(res.value().dropped_groups, 4u);
    EXPECT_EQ(res.value().segments_after, 1u);
    // The chain re-anchored at the pre-compaction head of the dropped
    // prefix — but the head itself never moved.
    EXPECT_NE(log.anchor_hash(), "audit-chain-genesis");
    EXPECT_EQ(log.size(), 8u);
    EXPECT_TRUE(log.VerifyChain());
    EXPECT_EQ(log.head_hash(), head);
    EXPECT_FALSE(env.FileExists("audit.compact.tmp"));
    ASSERT_TRUE(log.CloseDurable().ok());
  }
  AuditLog log(4);
  ASSERT_TRUE(log.OpenDurable(opts).ok());
  EXPECT_EQ(log.size(), 8u);
  EXPECT_TRUE(log.VerifyChain());
  EXPECT_EQ(log.head_hash(), head);
  EXPECT_EQ(log.Query(0, 2000000000).size(), 0u);  // the aged entries are gone
}

TEST(AuditCompaction, StaleSegmentsAfterCompactionCrashAreFenced) {
  MemEnv env;
  const AuditLogOptions opts =
      Opts(&env, "audit", /*rotate_bytes=*/192, /*retention=*/1000000000);
  std::string head;
  {
    AuditLog log(4);
    ASSERT_TRUE(log.OpenDurable(opts).ok());
    for (int i = 0; i < 24; ++i) {
      log.Append(E(1000 + i, "ctrl", "CREATE-RECORD", "old-" + std::to_string(i)));
    }
    for (int i = 0; i < 8; ++i) {
      log.Append(E(2400000000 + i, "ctrl", "CREATE-RECORD",
                   "new-" + std::to_string(i)));
    }
    head = log.head_hash();
    ASSERT_GE(log.segment_count(), 2u);
    const uint64_t old_segments = log.segment_count();
    // Save a pre-compaction segment, compact, then resurrect it — exactly
    // the state a crash between the rename and the stale-segment deletes
    // leaves behind.
    const std::string seg2 = env.ReadFileToString("audit.seg2").value();
    auto res = log.Compact(2500000000);
    ASSERT_TRUE(res.ok());
    EXPECT_EQ(res.value().segments_before, old_segments);
    EXPECT_GT(res.value().dropped_entries, 0u);
    ASSERT_TRUE(log.CloseDurable().ok());
    auto f = std::move(env.NewWritableFile("audit.seg2", true).value());
    ASSERT_TRUE(f->Append(seg2).ok());
  }
  AuditLog log(4);
  ASSERT_TRUE(log.OpenDurable(opts).ok());
  // The stale segment carried the old epoch: fenced off and deleted.
  EXPECT_FALSE(env.FileExists("audit.seg2"));
  EXPECT_TRUE(log.VerifyChain());
  EXPECT_EQ(log.head_hash(), head);
}

TEST(AuditCompaction, SetSealIntervalIsLockedAndTakesEffect) {
  AuditLog log(32);
  log.set_seal_interval(1);
  EXPECT_EQ(log.seal_interval(), 1u);
  log.Append(E(1, "c", "OP", "k"));
  log.Append(E(2, "c", "OP", "k"));
  EXPECT_TRUE(log.VerifyChain());
  log.set_seal_interval(0);  // clamps to 1
  EXPECT_EQ(log.seal_interval(), 1u);
}

// ---- stores -----------------------------------------------------------------

KvGdprOptions KvOpts(MemEnv* env) {
  KvGdprOptions o;
  o.compliance.metadata_indexing = true;
  o.kv.env = env;
  o.kv.aof_enabled = true;
  o.kv.aof_path = "aof";
  o.kv.sync_policy = SyncPolicy::kNever;
  o.audit.path = "audit";
  return o;
}

TEST(StoreAuditDurability, KvChainAndEntriesSurviveRestart) {
  MemEnv env;
  KvGdprOptions o = KvOpts(&env);
  std::string head;
  size_t entries = 0;
  {
    KvGdprStore store(o);
    ASSERT_TRUE(store.Open().ok());
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(store
                      .CreateRecord(Actor::Controller(),
                                    MakeRecord("k" + std::to_string(i),
                                               "alice", "payload"))
                      .ok());
    }
    store.ReadDataByKey(Actor::Controller(), "k3").ok();
    ASSERT_TRUE(store.DeleteRecordByKey(Actor::Controller(), "k7").ok());
    store.ReadDataByKey(Actor::Customer("mallory"), "k4").ok();  // denied
    head = store.audit_log()->head_hash();
    entries = store.audit_log()->size();
    ASSERT_TRUE(store.Close().ok());
  }
  KvGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  EXPECT_TRUE(store.audit_log()->VerifyChain());
  EXPECT_EQ(store.audit_log()->head_hash(), head);
  EXPECT_EQ(store.audit_log()->size(), entries);
  // The trail still answers a breach investigation: the denied op is there.
  auto logs = store.GetSystemLogs(Actor::Regulator(), 0,
                                  std::numeric_limits<int64_t>::max());
  ASSERT_TRUE(logs.ok());
  EXPECT_EQ(logs.value().size(), entries);
  bool denied_seen = false;
  for (const auto& e : logs.value()) {
    if (e.actor_id == "mallory" && !e.allowed) denied_seen = true;
  }
  EXPECT_TRUE(denied_seen);
  EXPECT_EQ(store.RecordCount(), 39u);  // data replayed alongside
}

TEST(StoreAuditDurability, KvKilledMidAppendReopensToSealedPrefix) {
  MemEnv env;
  KvGdprOptions o = KvOpts(&env);
  size_t entries = 0;
  {
    KvGdprStore store(o);
    ASSERT_TRUE(store.Open().ok());
    for (int i = 0; i < 70; ++i) {  // two sealed groups + a tail
      ASSERT_TRUE(store
                      .CreateRecord(Actor::Controller(),
                                    MakeRecord("k" + std::to_string(i),
                                               "alice", "payload"))
                      .ok());
    }
    entries = store.audit_log()->size();
    ASSERT_TRUE(store.Close().ok());
  }
  // Kill mid-append: cut into the last durable group frame.
  Truncate(&env, "audit.seg1", 7);
  KvGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  EXPECT_TRUE(store.audit_log()->VerifyChain());
  EXPECT_LT(store.audit_log()->size(), entries);
  EXPECT_GT(store.audit_log()->size(), 0u);
}

TEST(StoreAuditDurability, KvCompactNowCarriesChainAcrossRetention) {
  MemEnv env;
  SimulatedClock clock(1000);
  KvGdprOptions o = KvOpts(&env);
  o.clock = &clock;
  o.audit.retention_micros = 1000000000;
  std::string head;
  {
    KvGdprStore store(o);
    ASSERT_TRUE(store.Open().ok());
    for (int i = 0; i < 40; ++i) {
      ASSERT_TRUE(store
                      .CreateRecord(Actor::Controller(),
                                    MakeRecord("old" + std::to_string(i),
                                               "alice", "payload"))
                      .ok());
      clock.AdvanceMicros(10);
    }
    clock.AdvanceMicros(2400000000);
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(store
                      .CreateRecord(Actor::Controller(),
                                    MakeRecord("new" + std::to_string(i),
                                               "bob", "payload"))
                      .ok());
    }
    auto stats = store.CompactNow(Actor::Controller());
    ASSERT_TRUE(stats.ok());
    EXPECT_GT(stats.value().audit_dropped_entries, 0u);
    EXPECT_TRUE(store.audit_log()->VerifyChain());
    head = store.audit_log()->head_hash();
    ASSERT_TRUE(store.Close().ok());
  }
  KvGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  EXPECT_TRUE(store.audit_log()->VerifyChain());
  EXPECT_EQ(store.audit_log()->head_hash(), head);
}

TEST(StoreAuditDurability, RelChainAndEntriesSurviveRestart) {
  MemEnv env;
  RelGdprOptions o;
  o.compliance.metadata_indexing = true;
  o.rel.env = &env;
  o.rel.wal_enabled = true;
  o.rel.wal_path = "wal";
  o.rel.sync_policy = SyncPolicy::kNever;
  o.audit.path = "audit";
  std::string head;
  size_t entries = 0;
  {
    RelGdprStore store(o);
    ASSERT_TRUE(store.Open().ok());
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(store
                      .CreateRecord(Actor::Controller(),
                                    MakeRecord("r" + std::to_string(i),
                                               "alice", "payload"))
                      .ok());
    }
    ASSERT_TRUE(store.DeleteRecordByKey(Actor::Controller(), "r5").ok());
    head = store.audit_log()->head_hash();
    entries = store.audit_log()->size();
    ASSERT_TRUE(store.Close().ok());
  }
  RelGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  EXPECT_TRUE(store.audit_log()->VerifyChain());
  EXPECT_EQ(store.audit_log()->head_hash(), head);
  EXPECT_EQ(store.audit_log()->size(), entries);
  EXPECT_EQ(store.RecordCount(), 19u);
  EXPECT_TRUE(store.VerifyDeletion(Actor::Regulator(), "r5").value());
}

TEST(StoreAuditDurability, ClusterChainsReverifyAfterFullRestart) {
  MemEnv env;
  cluster::ClusterOptions o;
  o.nodes = 4;
  o.compliance.metadata_indexing = true;
  o.kv.env = &env;
  o.kv.aof_enabled = true;
  o.kv.aof_path = "aof";
  o.kv.sync_policy = SyncPolicy::kNever;
  o.audit.path = "audit";  // nodes: audit.node0..3; router: audit.router
  std::vector<std::string> heads;
  size_t total_entries = 0;
  {
    cluster::ClusterGdprStore store(o);
    ASSERT_TRUE(store.Open().ok());
    for (int i = 0; i < 64; ++i) {
      ASSERT_TRUE(store
                      .CreateRecord(Actor::Controller(),
                                    MakeRecord("c" + std::to_string(i),
                                               i % 2 ? "alice" : "bob",
                                               "payload"))
                      .ok());
    }
    ASSERT_EQ(store.DeleteRecordsByUser(Actor::Controller(), "alice").value(),
              32u);
    // Router-chain traffic: a migration and a cluster-wide compaction.
    ASSERT_TRUE(store.MoveSlots({0, 1, 2, 3}, 2).ok());
    auto stats = store.CompactNow(Actor::Controller());
    ASSERT_TRUE(stats.ok());
    EXPECT_GE(stats.value().audit_segments, 5u);  // 4 nodes + router, durable
    ASSERT_TRUE(store.VerifyAuditChains());
    for (size_t n = 0; n < store.node_count(); ++n) {
      heads.push_back(store.node(n)->audit_log()->head_hash());
      total_entries += store.node(n)->audit_log()->size();
    }
    heads.push_back(store.audit_log()->head_hash());
    ASSERT_TRUE(store.Close().ok());
  }
  for (int n = 0; n < 4; ++n) {
    ASSERT_TRUE(env.FileExists("audit.node" + std::to_string(n) + ".seg1"));
  }
  ASSERT_TRUE(env.FileExists("audit.router.seg1"));
  cluster::ClusterGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  std::vector<bool> per_node;
  EXPECT_TRUE(store.VerifyAuditChains(&per_node));
  ASSERT_EQ(per_node.size(), 5u);  // 4 nodes + the router
  for (const bool ok : per_node) EXPECT_TRUE(ok);
  for (size_t n = 0; n < store.node_count(); ++n) {
    EXPECT_EQ(store.node(n)->audit_log()->head_hash(), heads[n]) << n;
  }
  EXPECT_EQ(store.audit_log()->head_hash(), heads[4]);
  // The merged trail spans the restart and still holds every entry.
  auto logs = store.GetSystemLogs(Actor::Regulator(), 0,
                                  std::numeric_limits<int64_t>::max());
  ASSERT_TRUE(logs.ok());
  EXPECT_GE(logs.value().size(), total_entries);
  EXPECT_EQ(store.RecordCount(), 32u);  // bob's records replayed
}

// ---- statement log satellites ----------------------------------------------

TEST(StatementLog, RotationBoundsRetainedSegments) {
  MemEnv env;
  rel::RelOptions o;
  o.env = &env;
  o.log_statements = true;
  o.statement_log_path = "stmt";
  o.sync_policy = SyncPolicy::kNever;
  o.stmt_log_rotate_bytes = 512;
  o.stmt_log_max_segments = 2;
  rel::Database db(o);
  ASSERT_TRUE(db.Open().ok());
  rel::Table* t =
      db.CreateTable("people", rel::Schema({{"name", rel::ValueType::kString}}))
          .value();
  for (int i = 0; i < 400; ++i) {
    ASSERT_TRUE(db.Insert(t, {rel::Value("p" + std::to_string(i))}).ok());
  }
  ASSERT_TRUE(db.Close().ok());
  // Active log + at most two rotated segments; nothing beyond the window.
  EXPECT_TRUE(env.FileExists("stmt"));
  EXPECT_TRUE(env.FileExists("stmt.1"));
  EXPECT_TRUE(env.FileExists("stmt.2"));
  EXPECT_FALSE(env.FileExists("stmt.3"));
  EXPECT_LT(env.ReadFileToString("stmt").value().size(), 512u + 64u);
}

TEST(StatementLog, CloseRacesSelectWithoutTouchingDeadHandle) {
  // TSAN food for the stmt_log_ pointer race: readers run LogStatement's
  // fast-path gate while Close() resets the handle.
  MemEnv env;
  rel::RelOptions o;
  o.env = &env;
  o.log_statements = true;
  o.statement_log_path = "stmt";
  o.sync_policy = SyncPolicy::kNever;
  rel::Database db(o);
  ASSERT_TRUE(db.Open().ok());
  rel::Table* t =
      db.CreateTable("people", rel::Schema({{"name", rel::ValueType::kString}}))
          .value();
  ASSERT_TRUE(db.Insert(t, {rel::Value("p")}).ok());
  std::atomic<bool> go{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < 4; ++i) {
    readers.emplace_back([&] {
      while (!go.load()) {
      }
      for (int j = 0; j < 500; ++j) {
        db.Select(t, rel::Compare(0, rel::CompareOp::kEq, rel::Value("p")))
            .ok();
      }
    });
  }
  go.store(true);
  db.Close().ok();
  for (auto& th : readers) th.join();
}

}  // namespace
}  // namespace gdpr
