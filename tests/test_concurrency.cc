// Concurrency stress for the epoch-protected lock-free read path: readers,
// writers, the expiry cron, and AOF compaction all running at once, with
// value-integrity assertions strong enough that a torn read, a reclaimed-
// too-early block, or a lost update fails loudly. CI runs this suite under
// ThreadSanitizer (the `tsan` job), where any racy access in the epoch
// machinery is a hard failure — the sizes below are chosen to stay fast at
// TSAN's ~10x slowdown.

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "common/epoch.h"
#include "gdpr/kv_backend.h"
#include "kvstore/db.h"
#include "relstore/database.h"

namespace gdpr::kv {
namespace {

std::string Key(int i) { return "k" + std::to_string(i); }

// Values carry their key so a reader can detect a value served for the
// wrong key (the failure shape of a mis-linked chain or a recycled block).
std::string TaggedValue(int key, int version) {
  return "v" + std::to_string(key) + ":" + std::to_string(version);
}

bool ValueMatchesKey(const std::string& value, int key) {
  const std::string prefix = "v" + std::to_string(key) + ":";
  return value.compare(0, prefix.size(), prefix) == 0;
}

TEST(Concurrency, LockFreeGetsUnderWritersExpiryAndCompaction) {
  MemEnv env;
  Options o;
  o.env = &env;
  o.aof_enabled = true;
  o.aof_path = "stress.aof";
  o.sync_policy = SyncPolicy::kNever;
  o.expiry_mode = ExpiryMode::kStrictScan;
  o.expiry_cycle_micros = 2000;
  o.shards = 4;  // small shard count concentrates reader/writer collisions
  MemKV db(o);
  ASSERT_TRUE(db.Open().ok());
  db.StartExpiryCron();

  constexpr int kKeys = 256;
  constexpr int kWriterOps = 8000;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db.Set(Key(i), TaggedValue(i, 0)).ok());
  }

  std::atomic<bool> writers_done{false};
  std::atomic<uint64_t> bad_reads{0};
  std::atomic<uint64_t> good_reads{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&, t] {
      uint32_t x = 0x9e3779b9u + uint32_t(t);
      while (!writers_done.load(std::memory_order_acquire)) {
        x ^= x << 13; x ^= x >> 17; x ^= x << 5;  // xorshift
        const int k = int(x % kKeys);
        auto v = db.Get(Key(k));
        if (v.ok()) {
          if (ValueMatchesKey(v.value(), k)) {
            good_reads.fetch_add(1, std::memory_order_relaxed);
          } else {
            bad_reads.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }

  std::vector<std::thread> writers;
  for (int t = 0; t < 2; ++t) {
    writers.emplace_back([&, t] {
      uint32_t x = 0xdeadbeefu + uint32_t(t);
      for (int i = 0; i < kWriterOps; ++i) {
        x ^= x << 13; x ^= x >> 17; x ^= x << 5;
        const int k = int(x % kKeys);
        switch (x % 8) {
          case 0:
            db.Delete(Key(k)).ok();
            break;
          case 1:
            // Short TTL: the cron erases these concurrently with readers.
            db.SetWithTtl(Key(k), TaggedValue(k, i), 1000 + x % 4000).ok();
            break;
          default:
            db.Set(Key(k), TaggedValue(k, i)).ok();
            break;
        }
      }
    });
  }

  // Foreground compactions while everything churns: the rewrite swaps the
  // AOF under writers and must never disturb the lock-free readers.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(db.CompactAof().ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }

  for (auto& th : writers) th.join();
  writers_done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  db.StopExpiryCron();

  EXPECT_EQ(bad_reads.load(), 0u);
  EXPECT_GT(good_reads.load(), 0u);
  EXPECT_EQ(db.ScanDecryptFailures(), 0u);

  // The store must still be coherent: every resident value matches its key.
  size_t scanned = 0;
  const size_t decrypt_failures =
      db.Scan([&](const std::string& key, const std::string& value) {
        const int k = atoi(key.c_str() + 1);
        EXPECT_TRUE(ValueMatchesKey(value, k)) << key << " -> " << value;
        ++scanned;
        return true;
      });
  EXPECT_EQ(decrypt_failures, 0u);
  EXPECT_LE(scanned, size_t(kKeys));
  ASSERT_TRUE(db.Close().ok());
  EpochManager::Global().DrainRetired();
}

TEST(Concurrency, EpochScanStaysCoherentWithEncryptionOn) {
  Options o;
  o.encrypt_at_rest = true;
  o.shards = 4;
  MemKV db(o);
  ASSERT_TRUE(db.Open().ok());
  constexpr int kKeys = 128;
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(db.Set(Key(i), TaggedValue(i, 0)).ok());
  }
  std::atomic<bool> done{false};
  std::thread writer([&] {
    uint32_t x = 0xc0ffee11u;
    for (int i = 0; i < 6000; ++i) {
      x ^= x << 13; x ^= x >> 17; x ^= x << 5;
      const int k = int(x % kKeys);
      if (x % 16 == 0) {
        db.Delete(Key(k)).ok();
      } else {
        db.Set(Key(k), TaggedValue(k, i)).ok();
      }
    }
    done.store(true, std::memory_order_release);
  });
  // Scans decrypt every entry while the writer overwrites blocks: an
  // epoch bug shows up as a decrypt failure (freed block) or a mismatched
  // key tag (wrong block).
  size_t total_failures = 0;
  while (!done.load(std::memory_order_acquire)) {
    total_failures +=
        db.Scan([&](const std::string& key, const std::string& value) {
          const int k = atoi(key.c_str() + 1);
          EXPECT_TRUE(ValueMatchesKey(value, k)) << key << " -> " << value;
          return true;
        });
  }
  writer.join();
  EXPECT_EQ(total_failures, 0u);
  EXPECT_EQ(db.ScanDecryptFailures(), 0u);
}

TEST(Concurrency, GdprPointReadsRaceMutationsAndCompaction) {
  MemEnv env;
  KvGdprOptions o;
  o.compliance.metadata_indexing = true;
  o.kv.env = &env;
  o.kv.aof_enabled = true;
  o.kv.aof_path = "gdpr-stress.aof";
  o.kv.sync_policy = SyncPolicy::kNever;
  o.kv.shards = 4;
  gdpr::KvGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  const Actor controller = Actor::Controller();

  constexpr int kKeys = 128;
  auto make = [](int i, int version) {
    GdprRecord rec;
    rec.key = Key(i);
    rec.data = TaggedValue(i, version);
    rec.metadata.user = "user" + std::to_string(i % 8);
    rec.metadata.purposes = {"billing"};
    rec.metadata.origin = "first-party";
    return rec;
  };
  for (int i = 0; i < kKeys; ++i) {
    ASSERT_TRUE(store.CreateRecord(controller, make(i, 0)).ok());
  }

  std::atomic<bool> done{false};
  std::atomic<uint64_t> bad{0};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      uint32_t x = 0xabad1deau + uint32_t(t);
      while (!done.load(std::memory_order_acquire)) {
        x ^= x << 13; x ^= x >> 17; x ^= x << 5;
        const int k = int(x % kKeys);
        auto rec = store.ReadDataByKey(controller, Key(k));
        if (rec.ok() && !ValueMatchesKey(rec.value().data, k)) {
          bad.fetch_add(1);
        }
        if (x % 64 == 0) {
          store.ReadMetadataByUser(controller,
                                   "user" + std::to_string(x % 8)).ok();
        }
      }
    });
  }
  std::thread writer([&] {
    uint32_t x = 0xfeedfaceu;
    for (int i = 0; i < 4000; ++i) {
      x ^= x << 13; x ^= x >> 17; x ^= x << 5;
      const int k = int(x % kKeys);
      if (x % 16 == 0) {
        store.DeleteRecordByKey(controller, Key(k)).ok();
      } else {
        store.CreateRecord(controller, make(k, i)).ok();
      }
      if (i % 1000 == 999) store.CompactNow(controller).ok();
    }
    done.store(true, std::memory_order_release);
  });
  writer.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(bad.load(), 0u);
  // Erasure evidence must have survived the churn: every deleted key
  // verifies, every resident key reads.
  for (int i = 0; i < kKeys; ++i) {
    auto rec = store.ReadDataByKey(controller, Key(i));
    if (!rec.ok()) {
      auto verified = store.VerifyDeletion(controller, Key(i));
      ASSERT_TRUE(verified.ok());
      EXPECT_TRUE(verified.value()) << Key(i);
    }
  }
  ASSERT_TRUE(store.Close().ok());
}

// The index-level analogue of the no-R-after-T contract: once
// DeleteRecordsByUser(u) has returned, no metadata query may ever surface
// user u again — not from a stale posting a concurrent walker copied, not
// from a TTL heap entry the expiry cron pops later, not from a posting
// chain mid-growth. Readers race the erasures and the expiry sweeps the
// whole time; a churn writer keeps the posting structures growing and
// shrinking so erasure never runs against a quiet index.
TEST(Concurrency, ErasedUserNeverReappearsInIndexQueries) {
  MemEnv env;
  KvGdprOptions o;
  o.compliance.metadata_indexing = true;
  o.compliance.audit_enabled = false;
  o.kv.env = &env;
  o.kv.aof_enabled = true;
  o.kv.aof_path = "erase-race.aof";
  o.kv.sync_policy = SyncPolicy::kNever;
  o.kv.shards = 4;
  gdpr::KvGdprStore store(o);
  ASSERT_TRUE(store.Open().ok());
  const Actor controller = Actor::Controller();

  constexpr int kUsers = 6;  // users 0..kUsers-2 get erased; the last churns
  constexpr int kKeysPerUser = 24;
  auto user_of = [](int u) { return "user" + std::to_string(u); };
  auto make = [&](int u, int k, int64_t expiry) {
    GdprRecord rec;
    rec.key = "u" + std::to_string(u) + "-k" + std::to_string(k);
    rec.data = "payload";
    rec.metadata.user = user_of(u);
    rec.metadata.purposes = {"billing"};
    rec.metadata.origin = "first-party";
    rec.metadata.expiry_micros = expiry;
    return rec;
  };
  Clock* clock = RealClock::Default();
  for (int u = 0; u < kUsers; ++u) {
    for (int k = 0; k < kKeysPerUser; ++k) {
      // A third of each user's records carry a short TTL, so erasure
      // tombstoning races the expiry cron over the same keys.
      const int64_t expiry =
          (k % 3 == 0) ? clock->NowMicros() + 500 + 200 * k : 0;
      ASSERT_TRUE(store.CreateRecord(controller, make(u, k, expiry)).ok());
    }
  }

  std::array<std::atomic<bool>, kUsers> erased{};
  std::atomic<bool> done{false};
  std::atomic<uint64_t> resurrections{0};
  std::atomic<uint64_t> mismatches{0};

  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&, t] {
      uint32_t x = 0x51caffeeu + uint32_t(t);
      while (!done.load(std::memory_order_acquire)) {
        x ^= x << 13; x ^= x >> 17; x ^= x << 5;
        const int u = int(x % kUsers);
        // Sample the flag BEFORE the query: if erasure had completed by
        // then, the query that follows must observe the emptiness.
        const bool was_erased = erased[u].load(std::memory_order_acquire);
        auto got = store.ReadMetadataByUser(controller, user_of(u));
        if (!got.ok()) continue;
        if (was_erased && !got.value().empty()) {
          resurrections.fetch_add(1, std::memory_order_relaxed);
        }
        for (const auto& rec : got.value()) {
          if (rec.metadata.user != user_of(u)) {
            mismatches.fetch_add(1, std::memory_order_relaxed);
          }
        }
      }
    });
  }
  std::thread expiry([&] {
    while (!done.load(std::memory_order_acquire)) {
      store.DeleteExpiredRecords(controller).ok();
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  std::thread churn([&] {
    // Upserts confined to the never-erased last user: posting chains keep
    // growing/shrinking under the readers without touching erased users.
    uint32_t x = 0xc0dec0deu;
    int i = 0;
    while (!done.load(std::memory_order_acquire)) {
      x ^= x << 13; x ^= x >> 17; x ^= x << 5;
      const int k = int(x % kKeysPerUser);
      const int64_t expiry =
          (x % 4 == 0) ? clock->NowMicros() + 300 + x % 1500 : 0;
      store.CreateRecord(controller, make(kUsers - 1, k, expiry)).ok();
      if (++i % 200 == 0) store.CompactNow(controller).ok();
    }
  });

  for (int u = 0; u < kUsers - 1; ++u) {
    auto n = store.DeleteRecordsByUser(controller, user_of(u));
    ASSERT_TRUE(n.ok()) << user_of(u);
    erased[u].store(true, std::memory_order_release);
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(3));
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();
  expiry.join();
  churn.join();

  EXPECT_EQ(resurrections.load(), 0u) << "an erased user reappeared";
  EXPECT_EQ(mismatches.load(), 0u);
  // Post-quiesce: every erased user's query is empty and every one of its
  // keys has tombstone evidence (whether erasure or the expiry cron got
  // there first, both paths must leave it).
  for (int u = 0; u < kUsers - 1; ++u) {
    auto got = store.ReadMetadataByUser(controller, user_of(u));
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(got.value().empty()) << user_of(u);
    for (int k = 0; k < kKeysPerUser; ++k) {
      const std::string key = "u" + std::to_string(u) + "-k" + std::to_string(k);
      auto verified = store.VerifyDeletion(controller, key);
      ASSERT_TRUE(verified.ok());
      EXPECT_TRUE(verified.value()) << key;
    }
  }
  ASSERT_TRUE(store.Close().ok());
  EpochManager::Global().DrainRetired();
}

}  // namespace
}  // namespace gdpr::kv

namespace gdpr::rel {
namespace {

// A row image whose cells were written together: key, version, and two
// sealed cells that both repeat them.
Row RowImage(int key, int64_t version) {
  const std::string k = "k" + std::to_string(key);
  const std::string v = std::to_string(version);
  return {Value(k), Value(version), Value(k + ":" + v),
          Value("all|" + k + "|v" + v)};
}

bool WholeImage(const Row& r) {
  if (r.size() != 4) return false;
  const std::string& k = r[0].AsString();
  const std::string v = std::to_string(r[1].AsInt64());
  return r[2].AsString() == k + ":" + v &&
         r[3].AsString() == "all|" + k + "|v" + v;
}

// reldb readers open and decode row images with no table lock held, while
// writers replace and retire those images. Every answered row must be one
// whole image and no read may fail decryption: a reader handed a freed or
// half-written image would fail one of the two. Once the threads are gone,
// every retired image is reclaimed. A checkpointer runs throughout: it
// freezes writers, not readers, and what it cuts plus the WAL tail after it
// must reopen to exactly the rows the store ends with.
TEST(Concurrency, RelReadersRaceImageSwaps) {
  MemEnv env;
  RelOptions o;
  o.env = &env;
  o.wal_enabled = true;
  o.wal_path = "race.wal";
  o.sync_policy = SyncPolicy::kNever;
  o.encrypt_at_rest = true;
  const auto open_rows = [](Database* db) {
    Table* t = db->CreateTable("rows", Schema({{"key", ValueType::kString},
                                                {"version", ValueType::kInt64},
                                                {"note", ValueType::kString},
                                                {"tags", ValueType::kString}}))
                   .value();
    EXPECT_TRUE(db->CreateIndex("rows", "key").ok());
    EXPECT_TRUE(db->CreateIndex("rows", "tags", /*elements=*/true).ok());
    return t;
  };
  const auto scan = [](Database* db, Table* t) {
    std::vector<Row> out;
    EXPECT_TRUE(db->ScanRows(t, [&](const Row& r) {
                    out.push_back(r);
                    return true;
                  }).ok());
    return out;
  };
  Database db(o);
  ASSERT_TRUE(db.Open().ok());
  Table* t = open_rows(&db);
  constexpr int kKeys = 16;
  constexpr int kWriterOps = 1500;
  for (int k = 0; k < kKeys; ++k) {
    ASSERT_TRUE(db.Insert(t, RowImage(k, 0)).ok());
  }
  const auto by_key = [](int k) {
    return Compare(0, CompareOp::kEq, Value("k" + std::to_string(k)));
  };

  std::atomic<int> writers_left{2};
  std::atomic<uint64_t> torn{0}, failed{0}, answered{0};
  const auto check = [&](const Row& r) {
    answered.fetch_add(1, std::memory_order_relaxed);
    if (!WholeImage(r)) torn.fetch_add(1, std::memory_order_relaxed);
    return true;
  };
  const auto reader = [&](int id) {
    for (int i = id; writers_left.load(std::memory_order_acquire) > 0; ++i) {
      const int k = i % kKeys;
      Status s;
      if (i % 8 == 0) {
        s = db.ScanRows(t, check);
      } else {
        const Predicate pred =
            i % 2 ? by_key(k)
                  : Compare(3, CompareOp::kHas,
                            Value("k" + std::to_string(k)));
        auto rows = db.Select(t, pred);
        s = rows.status();
        if (rows.ok()) {
          for (const Row& r : rows.value()) check(r);
        }
      }
      if (!s.ok()) failed.fetch_add(1, std::memory_order_relaxed);
    }
  };
  std::thread updater([&] {
    for (int i = 0; i < kWriterOps; ++i) {
      db.Update(t, by_key(i % kKeys), [](Row* r) {
          const int k = std::stoi((*r)[0].AsString().substr(1));
          *r = RowImage(k, (*r)[1].AsInt64() + 1);
        }).status().ok();
    }
    writers_left.fetch_sub(1, std::memory_order_release);
  });
  std::thread recreator([&] {
    for (int i = 0; i < kWriterOps; ++i) {
      const int k = (i * 7) % kKeys;
      db.Delete(t, by_key(k)).status().ok();
      db.Insert(t, RowImage(k, int64_t(1000000) + i)).ok();
    }
    writers_left.fetch_sub(1, std::memory_order_release);
  });
  std::thread checkpointer([&] {
    while (writers_left.load(std::memory_order_acquire) > 0) {
      if (!db.Checkpoint().ok()) failed.fetch_add(1, std::memory_order_relaxed);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  });
  std::thread r1(reader, 0), r2(reader, 1);
  updater.join();
  recreator.join();
  r1.join();
  r2.join();
  checkpointer.join();

  EXPECT_EQ(torn.load(), 0u);
  EXPECT_EQ(failed.load(), 0u);
  EXPECT_GT(answered.load(), 0u);
  // Each Delete is followed by its Insert: every key ends as one row.
  for (int k = 0; k < kKeys; ++k) {
    auto rows = db.Select(t, by_key(k));
    ASSERT_TRUE(rows.ok());
    EXPECT_EQ(rows.value().size(), 1u);
  }
  EXPECT_GT(db.GetCompactionStats().compactions, 0u);
  const std::vector<Row> live = scan(&db, t);
  ASSERT_TRUE(db.Close().ok());
  {
    Database reopened(o);
    ASSERT_TRUE(reopened.Open().ok());
    EXPECT_EQ(scan(&reopened, open_rows(&reopened)), live);
    ASSERT_TRUE(reopened.Close().ok());
  }
  EpochManager::Global().DrainRetired();
  EXPECT_EQ(EpochManager::Global().RetiredCount(), 0u);
}

}  // namespace
}  // namespace gdpr::rel
