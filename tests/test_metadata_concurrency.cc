// Differential concurrency stress for the GDPR metadata indexes of both
// engines (kv::EpochPostingMap behind KvGdprStore, reldb's indexes and join
// tables behind RelGdprStore) and the cluster fan-out above memkv. The
// harness runs a seeded randomized mixed workload — upserts, point
// deletes, Forget (DeleteRecordsByUser), TTL expiry, CompactNow, metadata
// queries — from several writer threads while dedicated reader threads
// hammer the index query paths, then quiesces and diffs every
// query result against a single-threaded locked reference model built by
// replaying the writers' op logs.
//
// Determinism under concurrency comes from partitioning: each writer owns
// a disjoint key range and a disjoint user set (Forget is only issued by
// the owner), so any cross-thread interleaving reaches the same final
// state and thread-by-thread replay reconstructs it exactly. Purposes and
// sharing partners are deliberately SHARED across threads — their posting
// chains see contended concurrent mutation, which is where the lock-free
// structure earns its keep.
//
// CI runs this suite under ThreadSanitizer (the `tsan` job regex) and
// ASan+UBSan; sizes are chosen to stay fast at TSAN's ~10x slowdown.
// Seeds are printed and overridable via GDPR_STRESS_SEED.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/cluster_store.h"
#include "common/epoch.h"
#include "gdpr/kv_backend.h"
#include "gdpr/rel_backend.h"

namespace gdpr {
namespace {

struct Rng {
  explicit Rng(uint32_t seed) : s(seed ? seed : 1u) {}
  uint32_t Next() {
    s ^= s << 13; s ^= s >> 17; s ^= s << 5;  // xorshift
    return s;
  }
  uint32_t s;
};

const char* const kPurposes[] = {"billing", "ads", "analytics"};
const char* const kPartners[] = {"partner-a", "partner-b"};

constexpr int kWriters = 3;
constexpr int kKeysPerWriter = 40;
constexpr int kUsersPerWriter = 4;
constexpr int kOpsPerWriter = 900;

std::string KeyOf(int t, int i) {
  return "t" + std::to_string(t) + "-k" + std::to_string(i);
}
std::string UserOf(int t, int j) {
  return "u" + std::to_string(t) + "-" + std::to_string(j);
}

// One acked mutation as its issuing writer recorded it; the reference is
// built by replaying these after quiesce.
struct OpRecord {
  enum Kind { kUpsert, kDelete, kForget } kind;
  GdprRecord rec;    // kUpsert
  std::string key;   // kDelete
  std::string user;  // kForget
};

// The single-threaded locked reference: plain maps under a mutex, the same
// op vocabulary, none of the lock-free machinery.
class LockedReference {
 public:
  void Apply(const OpRecord& op) {
    std::lock_guard<std::mutex> l(mu_);
    switch (op.kind) {
      case OpRecord::kUpsert:
        records_[op.rec.key] = op.rec;
        erased_.erase(op.rec.key);
        break;
      case OpRecord::kDelete:
        if (records_.erase(op.key)) erased_.insert(op.key);
        break;
      case OpRecord::kForget:
        for (auto it = records_.begin(); it != records_.end();) {
          if (it->second.metadata.user == op.user) {
            erased_.insert(it->first);
            it = records_.erase(it);
          } else {
            ++it;
          }
        }
        break;
    }
  }

  // Records a query should surface at time `now`.
  std::map<std::string, GdprRecord> Alive(int64_t now) const {
    std::lock_guard<std::mutex> l(mu_);
    std::map<std::string, GdprRecord> out;
    for (const auto& [key, rec] : records_) {
      const int64_t e = rec.metadata.expiry_micros;
      if (e == 0 || e > now) out.emplace(key, rec);
    }
    return out;
  }

  // Keys whose final lifecycle event was an explicit delete/Forget: these
  // must verify as erased (tombstone evidence) on the store side.
  std::set<std::string> ErasedForGood() const {
    std::lock_guard<std::mutex> l(mu_);
    return erased_;
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, GdprRecord> records_;
  std::set<std::string> erased_;
};

GdprRecord MakeRecord(int t, int i, int serial, Rng& rng, int64_t now) {
  GdprRecord rec;
  rec.key = KeyOf(t, i);
  rec.data = "d:" + rec.key + ":" + std::to_string(serial);
  rec.metadata.user = UserOf(t, int(rng.Next() % kUsersPerWriter));
  rec.metadata.origin = "first-party";
  rec.metadata.purposes = {kPurposes[rng.Next() % 3]};
  if (rng.Next() % 2) rec.metadata.purposes.push_back(kPurposes[rng.Next() % 3]);
  if (rec.metadata.purposes.size() == 2 &&
      rec.metadata.purposes[0] == rec.metadata.purposes[1]) {
    rec.metadata.purposes.pop_back();
  }
  const uint32_t share = rng.Next() % 4;
  if (share == 1 || share == 3) rec.metadata.shared_with.push_back(kPartners[0]);
  if (share >= 2) rec.metadata.shared_with.push_back(kPartners[1]);
  // ~15% short-TTL records: the chaos thread's expiry sweeps race the
  // readers and the Forgets; every TTL is comfortably expired by diff time.
  if (rng.Next() % 100 < 15) {
    rec.metadata.expiry_micros = now + 1000 + int64_t(rng.Next() % 3000);
  }
  return rec;
}

// Diffs every query path against the reference at a quiesce point. All
// TTL'd records are expired (and swept) by the time this runs, so the
// alive set is stable on both sides.
void DiffAgainstReference(GdprStore* store, const LockedReference& ref,
                          int64_t now) {
  const Actor ctrl = Actor::Controller();
  const auto alive = ref.Alive(now);

  std::map<std::string, std::set<std::string>> by_user, by_purpose, by_sharing;
  for (const auto& [key, rec] : alive) {
    by_user[rec.metadata.user].insert(key);
    for (const auto& p : rec.metadata.purposes) by_purpose[p].insert(key);
    for (const auto& tp : rec.metadata.shared_with) by_sharing[tp].insert(key);
  }

  // User queries — including users whose expected result is empty (erased
  // or never populated): an erased user reappearing is the index-level
  // no-R-after-T violation.
  for (int t = 0; t < kWriters; ++t) {
    for (int j = 0; j < kUsersPerWriter; ++j) {
      const std::string user = UserOf(t, j);
      auto got = store->ReadMetadataByUser(ctrl, user);
      ASSERT_TRUE(got.ok()) << user << ": " << got.status().ToString();
      std::set<std::string> got_keys;
      for (const auto& rec : got.value()) {
        EXPECT_EQ(rec.metadata.user, user) << rec.key;
        got_keys.insert(rec.key);
        auto it = alive.find(rec.key);
        ASSERT_NE(it, alive.end()) << rec.key;
        EXPECT_EQ(rec.metadata.purposes, it->second.metadata.purposes);
        EXPECT_EQ(rec.metadata.shared_with, it->second.metadata.shared_with);
      }
      EXPECT_EQ(got_keys, by_user[user]) << "user " << user;

      // SAR export path returns full records: data must match too.
      auto full = store->ReadRecordsByUser(ctrl, user);
      ASSERT_TRUE(full.ok()) << user;
      EXPECT_EQ(full.value().size(), by_user[user].size()) << user;
      for (const auto& rec : full.value()) {
        auto it = alive.find(rec.key);
        ASSERT_NE(it, alive.end()) << rec.key;
        EXPECT_EQ(rec.data, it->second.data) << rec.key;
      }
    }
  }

  // Purpose and sharing queries: contended posting chains, shared by every
  // writer thread.
  for (const char* p : kPurposes) {
    auto got = store->ReadMetadataByPurpose(ctrl, p);
    ASSERT_TRUE(got.ok()) << p;
    std::set<std::string> got_keys;
    for (const auto& rec : got.value()) {
      EXPECT_TRUE(rec.metadata.HasPurpose(p)) << rec.key;
      got_keys.insert(rec.key);
    }
    EXPECT_EQ(got_keys, by_purpose[p]) << "purpose " << p;
  }
  for (const char* tp : kPartners) {
    auto got = store->ReadMetadataBySharing(ctrl, tp);
    ASSERT_TRUE(got.ok()) << tp;
    std::set<std::string> got_keys;
    for (const auto& rec : got.value()) {
      EXPECT_TRUE(rec.metadata.SharedWith(tp)) << rec.key;
      got_keys.insert(rec.key);
    }
    EXPECT_EQ(got_keys, by_sharing[tp]) << "sharing " << tp;
  }

  // Index path vs full-scan path: both must surface exactly the reference
  // key set.
  std::set<std::string> via_scan;
  Status scan = store->ScanRecords(ctrl, [&](const GdprRecord& rec) {
    const int64_t e = rec.metadata.expiry_micros;
    if (e == 0 || e > now) via_scan.insert(rec.key);
    return true;
  });
  ASSERT_TRUE(scan.ok()) << scan.ToString();
  std::set<std::string> expected_keys;
  for (const auto& [key, rec] : alive) expected_keys.insert(key);
  EXPECT_EQ(via_scan, expected_keys);

  // Explicitly erased (and never recreated) keys must still verify.
  for (const std::string& key : ref.ErasedForGood()) {
    auto verified = store->VerifyDeletion(ctrl, key);
    ASSERT_TRUE(verified.ok()) << key;
    EXPECT_TRUE(verified.value()) << "no erasure evidence for " << key;
  }
}

// The mixed workload against any GdprStore. Violations observed inside
// threads are counted atomically and asserted on the main thread.
void RunDifferentialRound(GdprStore* store, uint32_t seed) {
  std::printf("differential round seed=0x%x\n", seed);
  const Actor ctrl = Actor::Controller();
  Clock* clock = RealClock::Default();

  std::vector<std::vector<OpRecord>> logs(kWriters);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> predicate_violations{0};
  std::atomic<uint64_t> query_failures{0};
  std::atomic<uint64_t> ack_failures{0};

  std::vector<std::thread> writers;
  for (int t = 0; t < kWriters; ++t) {
    writers.emplace_back([&, t] {
      Rng rng(seed + uint32_t(t) * 0x9e3779b9u);
      auto& log = logs[t];
      log.reserve(kOpsPerWriter);
      int serial = 0;
      for (int op = 0; op < kOpsPerWriter; ++op) {
        const uint32_t c = rng.Next() % 100;
        if (c < 62) {
          GdprRecord rec = MakeRecord(t, int(rng.Next() % kKeysPerWriter),
                                      serial++, rng, clock->NowMicros());
          if (store->CreateRecord(ctrl, rec).ok()) {
            log.push_back({OpRecord::kUpsert, rec, "", ""});
          } else {
            ack_failures.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (c < 78) {
          const std::string key = KeyOf(t, int(rng.Next() % kKeysPerWriter));
          Status s = store->DeleteRecordByKey(ctrl, key);
          if (s.ok()) {
            log.push_back({OpRecord::kDelete, {}, key, ""});
          } else if (!s.IsNotFound()) {
            ack_failures.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (c < 86) {
          const std::string user = UserOf(t, int(rng.Next() % kUsersPerWriter));
          if (store->DeleteRecordsByUser(ctrl, user).ok()) {
            log.push_back({OpRecord::kForget, {}, "", user});
          } else {
            ack_failures.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (c < 93) {
          // Mid-run coherence probe: whatever a query returns must match
          // its own predicate, even while the posting chains churn.
          const std::string user = UserOf(int(rng.Next() % kWriters),
                                          int(rng.Next() % kUsersPerWriter));
          auto got = store->ReadMetadataByUser(ctrl, user);
          if (!got.ok()) {
            query_failures.fetch_add(1, std::memory_order_relaxed);
          } else {
            for (const auto& rec : got.value()) {
              if (rec.metadata.user != user) {
                predicate_violations.fetch_add(1, std::memory_order_relaxed);
              }
            }
          }
        } else {
          const std::string key = KeyOf(t, int(rng.Next() % kKeysPerWriter));
          auto rec = store->ReadDataByKey(ctrl, key);
          if (rec.ok() &&
              rec.value().data.compare(0, key.size() + 3, "d:" + key + ":") !=
                  0) {
            predicate_violations.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  // Dedicated index readers: purpose/sharing chains are shared across all
  // writers, so these walks race adds, unlinks, and generation growth.
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&, t] {
      Rng rng(seed ^ (0xabad1deau + uint32_t(t)));
      while (!done.load(std::memory_order_acquire)) {
        switch (rng.Next() % 3) {
          case 0: {
            const std::string p = kPurposes[rng.Next() % 3];
            auto got = store->ReadMetadataByPurpose(ctrl, p);
            if (!got.ok()) {
              query_failures.fetch_add(1, std::memory_order_relaxed);
              break;
            }
            for (const auto& rec : got.value()) {
              if (!rec.metadata.HasPurpose(p)) {
                predicate_violations.fetch_add(1, std::memory_order_relaxed);
              }
            }
            break;
          }
          case 1: {
            const std::string tp = kPartners[rng.Next() % 2];
            auto got = store->ReadMetadataBySharing(ctrl, tp);
            if (!got.ok()) {
              query_failures.fetch_add(1, std::memory_order_relaxed);
              break;
            }
            for (const auto& rec : got.value()) {
              if (!rec.metadata.SharedWith(tp)) {
                predicate_violations.fetch_add(1, std::memory_order_relaxed);
              }
            }
            break;
          }
          default: {
            const std::string user = UserOf(int(rng.Next() % kWriters),
                                            int(rng.Next() % kUsersPerWriter));
            auto got = store->ReadRecordsByUser(ctrl, user);
            if (!got.ok()) {
              query_failures.fetch_add(1, std::memory_order_relaxed);
              break;
            }
            for (const auto& rec : got.value()) {
              if (rec.metadata.user != user) {
                predicate_violations.fetch_add(1, std::memory_order_relaxed);
              }
            }
            break;
          }
        }
      }
    });
  }

  // Chaos: the expiry cron and compaction, racing everything above.
  std::thread chaos([&] {
    int cycles = 0;
    while (!done.load(std::memory_order_acquire)) {
      if (!store->DeleteExpiredRecords(ctrl).ok()) {
        query_failures.fetch_add(1, std::memory_order_relaxed);
      }
      if (++cycles % 7 == 0) store->CompactNow(ctrl).ok();
      std::this_thread::sleep_for(std::chrono::microseconds(500));
    }
  });

  for (auto& th : writers) th.join();
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  chaos.join();

  EXPECT_EQ(ack_failures.load(), 0u);
  EXPECT_EQ(query_failures.load(), 0u);
  EXPECT_EQ(predicate_violations.load(), 0u)
      << "a query returned a record violating its own predicate";

  // Quiesce: let every TTL lapse, sweep the corpses, then diff.
  std::this_thread::sleep_for(std::chrono::milliseconds(6));
  ASSERT_TRUE(store->DeleteExpiredRecords(ctrl).ok());
  const int64_t now = clock->NowMicros();

  LockedReference ref;
  for (const auto& log : logs) {
    for (const auto& op : log) ref.Apply(op);
  }
  DiffAgainstReference(store, ref, now);
}

uint32_t SeedOverride(uint32_t fallback) {
  const char* s = std::getenv("GDPR_STRESS_SEED");
  return s ? uint32_t(std::strtoul(s, nullptr, 0)) : fallback;
}

// Both engines face the same harness: memkv's lock-free posting maps and
// reldb's B+tree indexes, element indexes on the list columns included,
// each under its own log (AOF / WAL) so CompactNow rewrites it mid-run.
class MetadataConcurrency : public testing::TestWithParam<bool> {
 protected:
  std::unique_ptr<GdprStore> MakeStore(Env* env) const {
    ComplianceFlags flags;
    flags.metadata_indexing = true;
    flags.audit_enabled = false;  // keep TSAN runtime down
    if (GetParam()) {
      RelGdprOptions o;
      o.compliance = flags;
      o.rel.env = env;
      o.rel.wal_enabled = true;
      o.rel.wal_path = "meta-stress.wal";
      o.rel.sync_policy = SyncPolicy::kNever;
      return std::make_unique<RelGdprStore>(o);
    }
    KvGdprOptions o;
    o.compliance = flags;
    o.kv.env = env;
    o.kv.aof_enabled = true;
    o.kv.aof_path = "meta-stress.aof";
    o.kv.sync_policy = SyncPolicy::kNever;
    o.kv.shards = 4;
    return std::make_unique<KvGdprStore>(o);
  }
};

TEST_P(MetadataConcurrency, DifferentialStressAgainstLockedReference) {
  for (uint32_t seed : {SeedOverride(0x5eed0001u), 0x5eed0002u}) {
    MemEnv env;
    auto store = MakeStore(&env);
    ASSERT_TRUE(store->Open().ok());
    RunDifferentialRound(store.get(), seed);
    ASSERT_TRUE(store->Close().ok());
    EpochManager::Global().DrainRetired();
  }
}

INSTANTIATE_TEST_SUITE_P(Engines, MetadataConcurrency, testing::Bool(),
                         [](const testing::TestParamInfo<bool>& info) {
                           return std::string(info.param ? "reldb" : "memkv");
                         });

// Same harness through the router: every metadata query scatter-gathers
// across 3 nodes (one EpochGuard per worker task), Forget fans out, and
// the per-node indexes churn independently.
TEST(MetadataConcurrency, DifferentialStressThroughCluster) {
  cluster::ClusterOptions o;
  o.nodes = 3;
  o.compliance.metadata_indexing = true;
  o.compliance.audit_enabled = false;
  o.kv.shards = 2;
  cluster::ClusterGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  RunDifferentialRound(&store, SeedOverride(0x5eedc105u));
  ASSERT_TRUE(store.Close().ok());
  EpochManager::Global().DrainRetired();
}

}  // namespace
}  // namespace gdpr
