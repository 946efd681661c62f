#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <functional>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/hash.h"
#include "kvstore/db.h"
#include "kvstore/epoch_map.h"
#include "obs/metrics.h"
#include "storage/fault_env.h"

namespace gdpr::kv {
namespace {

TEST(MemKV, SetGetDelete) {
  MemKV db((Options()));
  ASSERT_TRUE(db.Open().ok());
  EXPECT_TRUE(db.Set("a", "1").ok());
  EXPECT_TRUE(db.Set("b", "2").ok());
  EXPECT_EQ(db.Get("a").value(), "1");
  EXPECT_TRUE(db.Set("a", "1'").ok());  // overwrite
  EXPECT_EQ(db.Get("a").value(), "1'");
  EXPECT_EQ(db.Size(), 2u);
  EXPECT_TRUE(db.Delete("a").ok());
  EXPECT_FALSE(db.Get("a").ok());
  EXPECT_FALSE(db.Delete("a").ok());  // already gone
  EXPECT_EQ(db.Size(), 1u);
}

TEST(MemKV, ScanSeesAllLiveEntries) {
  MemKV db((Options()));
  ASSERT_TRUE(db.Open().ok());
  for (int i = 0; i < 100; ++i) {
    db.Set("k" + std::to_string(i), std::to_string(i)).ok();
  }
  size_t seen = 0;
  db.Scan([&](const std::string& k, const std::string& v) {
    EXPECT_EQ("k" + v, k);
    ++seen;
    return true;
  });
  EXPECT_EQ(seen, 100u);
  // Early stop.
  seen = 0;
  db.Scan([&](const std::string&, const std::string&) {
    return ++seen < 10;
  });
  EXPECT_EQ(seen, 10u);
}

TEST(MemKV, StrictExpiryIsOneCycle) {
  SimulatedClock clock(0);
  Options o;
  o.clock = &clock;
  o.expiry_mode = ExpiryMode::kStrictScan;
  MemKV db(o);
  ASSERT_TRUE(db.Open().ok());
  for (int i = 0; i < 1000; ++i) {
    const bool is_short = i < 200;
    db.SetWithTtl("k" + std::to_string(i), "v", is_short ? 1000 : 1000000000)
        .ok();
  }
  EXPECT_EQ(db.Size(), 1000u);
  clock.AdvanceMicros(2000);  // short-term keys now dead
  // Dead keys are invisible to Get even before the cycle runs.
  EXPECT_FALSE(db.Get("k0").ok());
  EXPECT_TRUE(db.Get("k999").ok());
  const size_t erased = db.RunExpiryCycle();
  EXPECT_EQ(erased, 200u);
  EXPECT_EQ(db.Size(), 800u);
  // Second cycle: nothing left to do.
  EXPECT_EQ(db.RunExpiryCycle(), 0u);
}

TEST(MemKV, TtlOverwriteClearsExpiry) {
  SimulatedClock clock(0);
  Options o;
  o.clock = &clock;
  o.expiry_mode = ExpiryMode::kStrictScan;
  MemKV db(o);
  ASSERT_TRUE(db.Open().ok());
  db.SetWithTtl("k", "v", 1000).ok();
  db.Set("k", "v2").ok();  // plain Set removes the TTL
  clock.AdvanceMicros(5000);
  EXPECT_EQ(db.RunExpiryCycle(), 0u);
  EXPECT_EQ(db.Get("k").value(), "v2");
}

TEST(MemKV, LazyExpiryLeavesResidue) {
  SimulatedClock clock(0);
  Options o;
  o.clock = &clock;
  o.expiry_mode = ExpiryMode::kLazySampling;
  MemKV db(o);
  ASSERT_TRUE(db.Open().ok());
  const size_t n = 5000;
  for (size_t i = 0; i < n; ++i) {
    const bool is_short = i < n / 5;
    db.SetWithTtl("k" + std::to_string(i), "v",
                  is_short ? 1000 : 1000000000)
        .ok();
  }
  clock.AdvanceMicros(2000);
  // One lazy cycle samples a handful of keys: most dead keys survive it —
  // that residue is the paper's Fig 3a delay.
  db.RunExpiryCycle();
  EXPECT_GT(db.Size(), n - n / 5);
  // Many cycles eventually converge.
  for (int c = 0; c < 20000 && db.Size() > n - n / 5; ++c) db.RunExpiryCycle();
  EXPECT_EQ(db.Size(), n - n / 5);
}

TEST(MemKV, AofPersistsAcrossReopen) {
  MemEnv env;
  Options o;
  o.env = &env;
  o.aof_enabled = true;
  o.aof_path = "test.aof";
  o.sync_policy = SyncPolicy::kNever;
  {
    MemKV db(o);
    ASSERT_TRUE(db.Open().ok());
    db.Set("persist-me", "42").ok();
    db.Set("delete-me", "x").ok();
    db.Delete("delete-me").ok();
    ASSERT_TRUE(db.Close().ok());
  }
  {
    MemKV db(o);
    ASSERT_TRUE(db.Open().ok());
    EXPECT_EQ(db.Get("persist-me").value(), "42");
    EXPECT_FALSE(db.Get("delete-me").ok());
    EXPECT_EQ(db.Size(), 1u);
  }
}

// An expiry cycle drops the status of its 'D' append on purpose: the
// commit log counts the failure and degrades health, and replay erases an 'S'
// frame whose expiry has passed. So a lost 'D' never resurrects the key.
TEST(MemKV, LostExpiryFrameDoesNotResurrectTheKey) {
  MemEnv mem;
  FaultEnv fenv(&mem);
  SimulatedClock clock(0);
  obs::MetricsRegistry registry;
  Options o;
  o.env = &fenv;
  o.clock = &clock;
  o.metrics = &registry;
  o.expiry_mode = ExpiryMode::kStrictScan;
  o.aof_enabled = true;
  o.aof_path = "expiry.aof";
  o.sync_policy = SyncPolicy::kAlways;
  {
    MemKV db(o);
    ASSERT_TRUE(db.Open().ok());
    ASSERT_TRUE(db.SetWithTtl("doomed", "v", 1000).ok());
    ASSERT_TRUE(db.Set("kept", "w").ok());
    clock.AdvanceMicros(2000);
    // Every append from here on fails: the cycle's 'D' never reaches the
    // log, while both 'S' frames were synced on their acks.
    FaultPlan plan;
    plan.fail_prob[int(FaultOpKind::kAppend)] = 1.0;
    fenv.set_plan(plan);
    EXPECT_EQ(db.RunExpiryCycle(), 1u);
    EXPECT_EQ(registry.Snapshot().CounterValue(
                  "memkv_aof_append_failures_total"),
              1u);
    EXPECT_EQ(db.Health().state, HealthState::kDegradedReadOnly);
    fenv.ClearFaults();
    (void)db.Close();
  }
  auto aof = mem.ReadFileToString("expiry.aof");
  ASSERT_TRUE(aof.ok());
  EXPECT_NE(aof.value().find("doomed"), std::string::npos);

  o.env = &mem;
  o.metrics = nullptr;
  MemKV db(o);
  ASSERT_TRUE(db.Open().ok());
  EXPECT_FALSE(db.Get("doomed").ok());
  EXPECT_EQ(db.Get("kept").value(), "w");
  EXPECT_EQ(db.Size(), 1u);
}

// Log before apply: with the AOF failing, each write returns the error and
// changes nothing — no value, TTL, byte count or tombstone.
TEST(MemKV, FailedAofAppendChangesNothing) {
  MemEnv mem;
  FaultEnv fenv(&mem);
  SimulatedClock clock(0);
  Options o;
  o.env = &fenv;
  o.clock = &clock;
  o.expiry_mode = ExpiryMode::kStrictScan;
  o.aof_enabled = true;
  o.aof_path = "fail.aof";
  o.sync_policy = SyncPolicy::kAlways;
  MemKV db(o);
  ASSERT_TRUE(db.Open().ok());
  ASSERT_TRUE(db.Set("kept", "v").ok());
  ASSERT_TRUE(db.AddTombstone("erased").ok());
  const size_t bytes = db.ApproximateBytes();
  const std::vector<std::pair<const char*, std::function<Status()>>> writes = {
      {"new key", [&] { return db.Set("fresh", "w"); }},
      {"overwrite adding a TTL",
       [&] { return db.SetWithTtl("kept", "a longer value", 1000); }},
      {"delete", [&] { return db.Delete("kept"); }},
      {"clear tombstone", [&] { return db.ClearTombstone("erased"); }},
  };
  for (const auto& [name, write] : writes) {
    SCOPED_TRACE(name);
    FaultPlan plan;
    plan.fail_prob[int(FaultOpKind::kAppend)] = 1.0;
    fenv.set_plan(plan);
    EXPECT_FALSE(write().ok());
    fenv.ClearFaults();
    ASSERT_TRUE(db.CompactAof().ok());  // heals the degraded store
    EXPECT_TRUE(db.Get("fresh").status().IsNotFound());
    EXPECT_EQ(db.Get("kept").value(), "v");
    EXPECT_TRUE(db.HasTombstone("erased"));
    EXPECT_EQ(db.ApproximateBytes(), bytes);
    clock.AdvanceMicros(2000);
    EXPECT_EQ(db.RunExpiryCycle(), 0u);  // no TTL was left behind
    EXPECT_EQ(db.Get("kept").value(), "v");
  }
}

// A store that could not open its AOF append handle must not report
// healthy: every other failed Open marks it failed.
TEST(MemKV, AofHandleOpenFailureFailsHealth) {
  MemEnv mem;
  FaultEnv fenv(&mem);
  FaultPlan plan;
  plan.fail_prob[int(FaultOpKind::kNewFile)] = 1.0;
  fenv.set_plan(plan);
  Options o;
  o.env = &fenv;
  o.aof_enabled = true;
  o.aof_path = "kv.aof";
  MemKV db(o);
  EXPECT_FALSE(db.Open().ok());
  EXPECT_EQ(db.Health().state, HealthState::kFailed);
}

TEST(MemKV, EncryptionAtRestRoundTrip) {
  MemEnv env;
  Options o;
  o.env = &env;
  o.encrypt_at_rest = true;
  o.aof_enabled = true;
  o.aof_path = "enc.aof";
  o.sync_policy = SyncPolicy::kNever;
  MemKV db(o);
  ASSERT_TRUE(db.Open().ok());
  db.Set("secret", "plaintext-value").ok();
  EXPECT_EQ(db.Get("secret").value(), "plaintext-value");
  // Scan decrypts too.
  db.Scan([](const std::string&, const std::string& v) {
    EXPECT_EQ(v, "plaintext-value");
    return true;
  });
  db.Close().ok();
  // The on-disk AOF must not contain the plaintext.
  auto contents = env.ReadFileToString("enc.aof");
  ASSERT_TRUE(contents.ok());
  EXPECT_EQ(contents.value().find("plaintext-value"), std::string::npos);
}

TEST(MemKV, SealSequenceResumesAfterReplay) {
  MemEnv env;
  Options o;
  o.env = &env;
  o.encrypt_at_rest = true;
  o.aof_enabled = true;
  o.aof_path = "seq.aof";
  o.sync_policy = SyncPolicy::kNever;
  {
    MemKV db(o);
    ASSERT_TRUE(db.Open().ok());
    for (int i = 0; i < 5; ++i) {
      db.Set("k" + std::to_string(i), "same-plaintext").ok();
    }
    ASSERT_TRUE(db.Close().ok());
  }
  {
    MemKV db(o);
    ASSERT_TRUE(db.Open().ok());
    db.Set("k-new", "same-plaintext").ok();
    EXPECT_EQ(db.Get("k-new").value(), "same-plaintext");
    ASSERT_TRUE(db.Close().ok());
  }
  // Every sealed value in the AOF leads with its 8-byte seal sequence; a
  // repeat would mean ChaCha20 nonce reuse (keystream recovery).
  auto contents = env.ReadFileToString("seq.aof");
  ASSERT_TRUE(contents.ok());
  std::string_view in(contents.value());
  std::set<uint64_t> seqs;
  size_t sets = 0;
  while (!in.empty()) {
    const char op = in.front();
    in.remove_prefix(1);
    uint64_t klen = 0;
    ASSERT_TRUE(GetVarint64(&in, &klen));
    in.remove_prefix(size_t(klen));
    if (op == 'S') {
      uint64_t vlen = 0;
      ASSERT_TRUE(GetVarint64(&in, &vlen));
      ASSERT_GE(vlen, 8u);
      uint64_t seq = 0;
      for (int i = 0; i < 8; ++i) {
        seq |= uint64_t(uint8_t(in[size_t(i)])) << (8 * i);
      }
      EXPECT_TRUE(seqs.insert(seq).second) << "nonce reused: " << seq;
      ++sets;
      in.remove_prefix(size_t(vlen));
      in.remove_prefix(8);  // expiry
    }
  }
  EXPECT_EQ(sets, 6u);
}

// Minimal AOF frame parser for ordering assertions: returns (op, key) pairs
// in file order, handling every opcode including the keyless 'Q'.
std::vector<std::pair<char, std::string>> ParseAofFrames(
    const std::string& contents) {
  std::vector<std::pair<char, std::string>> frames;
  std::string_view in(contents);
  while (!in.empty()) {
    const char op = in.front();
    in.remove_prefix(1);
    if (op == 'Q') {
      uint64_t seq = 0;
      EXPECT_TRUE(GetFixed64(&in, &seq));
      frames.emplace_back(op, "");
      continue;
    }
    std::string_view key;
    EXPECT_TRUE(GetLengthPrefixed(&in, &key));
    if (op == 'S') {
      std::string_view value;
      uint64_t expiry = 0;
      EXPECT_TRUE(GetLengthPrefixed(&in, &value));
      EXPECT_TRUE(GetFixed64(&in, &expiry));
    }
    frames.emplace_back(op, std::string(key));
  }
  return frames;
}

// Pointers to keys, the form GetBatch reads them in.
std::vector<const std::string*> KeyPointers(
    const std::vector<std::string>& keys) {
  std::vector<const std::string*> out;
  for (const auto& k : keys) out.push_back(&k);
  return out;
}

// GetBatch's answers as Get-shaped results, for comparing the two paths.
std::vector<StatusOr<std::string>> GetBatchResults(
    MemKV& db, const std::vector<std::string>& keys) {
  std::vector<StatusOr<std::string>> out;
  db.GetBatch(KeyPointers(keys), [&](size_t i, const Status& s,
                                     std::string_view value) {
    EXPECT_EQ(i, out.size()) << "batch answers out of order";
    if (s.ok()) out.emplace_back(std::string(value));
    else out.emplace_back(s);
  });
  EXPECT_EQ(out.size(), keys.size());
  return out;
}

TEST(MemKV, NoopDeleteDoesNotAppendDFrame) {
  MemEnv env;
  Options o;
  o.env = &env;
  o.aof_enabled = true;
  o.aof_path = "noop.aof";
  o.sync_policy = SyncPolicy::kNever;
  MemKV db(o);
  ASSERT_TRUE(db.Open().ok());
  db.Set("present", "v").ok();
  const uint64_t bytes_before = db.AofLogBytes();
  EXPECT_FALSE(db.Delete("never-existed").ok());
  // A miss must not grow the log: phantom 'D' frames inflate the
  // compaction-ratio policy and the replay cost for deletes that deleted
  // nothing.
  EXPECT_EQ(db.AofLogBytes(), bytes_before);
  EXPECT_TRUE(db.Delete("present").ok());
  EXPECT_GT(db.AofLogBytes(), bytes_before);
  db.Close().ok();
  auto contents = env.ReadFileToString("noop.aof");
  ASSERT_TRUE(contents.ok());
  size_t d_frames = 0;
  for (const auto& [op, key] : ParseAofFrames(contents.value())) {
    if (op == 'D') {
      ++d_frames;
      EXPECT_EQ(key, "present");
    }
  }
  EXPECT_EQ(d_frames, 1u);
}

TEST(MemKV, ReadLogNeverOrdersAfterErasureTombstone) {
  // Deterministic half of the satellite fix: once the tombstone is
  // registered, a Get that already captured the value must not emit an 'R'
  // frame (which would land after the 'T') — it linearizes after the
  // erasure and reports NotFound instead. GetBatch applies the same rule
  // per key, and logs one 'R' per key it delivers.
  for (const bool batch : {false, true}) {
    SCOPED_TRACE(batch ? "GetBatch" : "Get");
    MemEnv env;
    Options o;
    o.env = &env;
    o.aof_enabled = true;
    o.aof_path = "rlog.aof";
    o.log_reads = true;
    o.sync_policy = SyncPolicy::kNever;
    MemKV db(o);
    ASSERT_TRUE(db.Open().ok());
    db.Set("pii", "v").ok();
    if (batch) {
      // Delivered twice, absent once: two 'R' frames, none for the miss.
      const auto got = GetBatchResults(db, {"pii", "absent", "pii"});
      EXPECT_TRUE(got[0].ok() && got[2].ok());
      EXPECT_TRUE(got[1].status().IsNotFound());
    } else {
      EXPECT_TRUE(db.Get("pii").ok());  // logged: R before any T
    }
    ASSERT_TRUE(db.AddTombstone("pii").ok());
    // Value still resident, but erasure evidence wins.
    EXPECT_FALSE(batch ? GetBatchResults(db, {"pii"})[0].ok()
                       : db.Get("pii").ok());
    db.Close().ok();
    auto contents = env.ReadFileToString("rlog.aof");
    ASSERT_TRUE(contents.ok());
    bool saw_tombstone = false;
    size_t reads_before = 0, reads_after = 0, reads_absent = 0;
    for (const auto& [op, key] : ParseAofFrames(contents.value())) {
      if (op == 'R' && key == "absent") ++reads_absent;
      if (key != "pii") continue;
      if (op == 'T') saw_tombstone = true;
      if (op == 'R') (saw_tombstone ? reads_after : reads_before)++;
    }
    EXPECT_TRUE(saw_tombstone);
    EXPECT_EQ(reads_before, batch ? 2u : 1u);
    EXPECT_EQ(reads_after, 0u);
    EXPECT_EQ(reads_absent, 0u);
  }
}

TEST(MemKV, ReadLogOrderingHoldsUnderGetForgetRaces) {
  // Racing half: readers hammer Gets while the main thread erases key
  // after key (delete + tombstone, the GDPR forget shape). Whatever the
  // interleaving, the audit evidence must never show a read after the
  // tombstone that evidences the erasure.
  MemEnv env;
  Options o;
  o.env = &env;
  o.aof_enabled = true;
  o.aof_path = "race.aof";
  o.log_reads = true;
  o.sync_policy = SyncPolicy::kNever;
  MemKV db(o);
  ASSERT_TRUE(db.Open().ok());
  constexpr int kKeys = 200;
  std::atomic<int> cursor{0};
  std::atomic<bool> stop{false};
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    // Reader 0 reads through GetBatch, the others through Get: both paths
    // share the one read-log rule, and both must keep this ordering.
    readers.emplace_back([&, t] {
      while (!stop.load()) {
        const int i = cursor.load();
        const std::string cur = "k" + std::to_string(i);
        const std::string prev = "k" + std::to_string(i > 0 ? i - 1 : 0);
        if (t == 0) {
          GetBatchResults(db, {cur, prev, cur});
        } else {
          db.Get(cur).ok();
          db.Get(prev).ok();
        }
      }
    });
  }
  for (int i = 0; i < kKeys; ++i) {
    const std::string key = "k" + std::to_string(i);
    db.Set(key, "pii").ok();
    cursor.store(i);
    db.Delete(key).ok();
    ASSERT_TRUE(db.AddTombstone(key).ok());
    // Rewrites race the read log too: the mirror drain and the tombstone
    // snapshot must preserve the no-R-after-T ordering in the NEW log.
    if (i % 50 == 25) ASSERT_TRUE(db.CompactAof().ok());
  }
  stop.store(true);
  for (auto& th : readers) th.join();
  db.Close().ok();
  auto contents = env.ReadFileToString("race.aof");
  ASSERT_TRUE(contents.ok());
  std::set<std::string> tombstoned;
  for (const auto& [op, key] : ParseAofFrames(contents.value())) {
    if (op == 'T') tombstoned.insert(key);
    if (op == 'R') {
      EXPECT_EQ(tombstoned.count(key), 0u)
          << "read-log frame for " << key << " after its erasure tombstone";
    }
  }
  EXPECT_EQ(tombstoned.size(), size_t(kKeys));
}

// Hands each batch a commit log appends to one path to a callback, on the
// batch leader's thread, before the batch is written.
class FrameWatchEnv : public MemEnv {
 public:
  FrameWatchEnv(std::string path, std::function<void(std::string_view)> fn)
      : path_(std::move(path)), fn_(std::move(fn)) {}
  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    auto file = MemEnv::NewWritableFile(path, truncate);
    if (!file.ok() || path != path_) return file;
    return std::unique_ptr<WritableFile>(
        std::make_unique<Watched>(std::move(file.value()), &fn_));
  }

 private:
  struct Watched : WritableFile {
    Watched(std::unique_ptr<WritableFile> f,
            const std::function<void(std::string_view)>* fn)
        : f(std::move(f)), fn(fn) {}
    Status Append(std::string_view data) override {
      (*fn)(data);
      return f->Append(data);
    }
    Status Sync() override { return f->Sync(); }
    Status Close() override { return f->Close(); }
    std::unique_ptr<WritableFile> f;
    const std::function<void(std::string_view)>* fn;
  };
  const std::string path_;
  const std::function<void(std::string_view)> fn_;
};

TEST(MemKV, ClearTombstoneRacingCompactionSurvivesReopen) {
  // Writers add and clear tombstones (the GDPR erase, then re-create shape)
  // while a rewrite loops. The rewrite snapshots the tombstone set after
  // the frames it mirrored, so a 't' frame must never be written while its
  // tombstone is still in memory: checked on every frame as it is written,
  // and end to end by reopening the rewritten log.
  MemKV* live = nullptr;
  std::atomic<int> written_early{0};
  FrameWatchEnv env("clear-race.aof", [&](std::string_view batch) {
    for (const auto& [op, key] : ParseAofFrames(std::string(batch))) {
      if (op == 't' && live->HasTombstone(key)) ++written_early;
    }
  });
  Options o;
  o.env = &env;
  o.aof_enabled = true;
  o.aof_path = "clear-race.aof";
  o.sync_policy = SyncPolicy::kNever;
  constexpr int kWriters = 4, kKeys = 300;
  auto key_of = [](int w, int i) {
    return "w" + std::to_string(w) + "-k" + std::to_string(i);
  };
  {
    MemKV db(o);
    live = &db;
    ASSERT_TRUE(db.Open().ok());
    std::atomic<bool> stop{false};
    std::thread compactor([&] {
      while (!stop.load()) EXPECT_TRUE(db.CompactAof().ok());
    });
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        for (int i = 0; i < kKeys; ++i) {
          const std::string key = key_of(w, i);
          EXPECT_TRUE(db.AddTombstone(key).ok());
          EXPECT_TRUE(db.ClearTombstone(key).ok());
          if (i % 3 == 0) {
            EXPECT_TRUE(db.AddTombstone(key).ok());
          }
        }
      });
    }
    for (auto& th : writers) th.join();
    stop.store(true);
    compactor.join();
    ASSERT_GT(db.GetCompactionStats().compactions, 0u);
    ASSERT_TRUE(db.Close().ok());
  }
  EXPECT_EQ(written_early.load(), 0)
      << "'t' frames written while their tombstone was still in memory";
  MemKV reopened(o);
  live = &reopened;
  ASSERT_TRUE(reopened.Open().ok());
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kKeys; ++i) {
      EXPECT_EQ(reopened.HasTombstone(key_of(w, i)), i % 3 == 0)
          << key_of(w, i);
    }
  }
}

TEST(MemKV, GetBatchAnswersLikeGet) {
  // Present, absent, expired and repeated keys, over several prefetch
  // groups and values long enough to span cache lines: every batch answer
  // is Get's status code and bytes, on plain and at-rest-encrypted stores.
  for (const bool encrypt : {false, true}) {
    SCOPED_TRACE(encrypt ? "encrypt_at_rest" : "plain");
    SimulatedClock clock(1000);
    Options o;
    o.clock = &clock;
    o.encrypt_at_rest = encrypt;
    MemKV db(o);
    ASSERT_TRUE(db.Open().ok());
    std::vector<std::string> keys;
    for (int i = 0; i < 60; ++i) {
      const std::string key = "k" + std::to_string(i);
      const std::string value(size_t(1 + i * 7), char('a' + i % 26));
      ASSERT_TRUE((i % 6 == 0 ? db.SetWithTtl(key, value, 100)
                              : db.Set(key, value))
                      .ok());
      keys.push_back(key);
      if (i % 5 == 0) keys.push_back("absent" + std::to_string(i));
      if (i % 7 == 0) keys.push_back("k" + std::to_string(i / 2));
    }
    clock.AdvanceMicros(200);  // every 6th key is now expired
    keys.push_back("k1");
    keys.push_back("k1");
    ASSERT_GT(keys.size(), 4 * MemKV::kBatchGroup);
    const auto batch = GetBatchResults(db, keys);
    size_t found = 0, missing = 0;
    for (size_t i = 0; i < keys.size(); ++i) {
      const auto point = db.Get(keys[i]);
      ASSERT_EQ(batch[i].status().code(), point.status().code()) << keys[i];
      if (!point.ok()) {
        ++missing;
        continue;
      }
      EXPECT_EQ(batch[i].value(), point.value()) << keys[i];
      ++found;
    }
    EXPECT_GT(found, 40u);
    EXPECT_GT(missing, 20u);  // absent and expired keys both miss
    GetBatchResults(db, {});  // an empty batch calls nothing
  }
}

TEST(MemKV, GetBatchReadersSurviveOverwriteEraseAndGrowth) {
  // Batch readers walk the shard maps while writers overwrite stable keys,
  // erase and re-create churn keys, and keep inserting fresh keys so every
  // shard map grows (retiring whole generations mid-batch). A stable key
  // must always be found, and every delivered value must be one some
  // writer stored under that key. Runs under the TSAN job.
  Options o;
  o.shards = 4;
  MemKV db(o);
  ASSERT_TRUE(db.Open().ok());
  constexpr int kStable = 64, kChurn = 64, kWrites = 3000;
  std::vector<std::string> keys;
  for (int i = 0; i < kStable; ++i) {
    keys.push_back("s" + std::to_string(i));
    ASSERT_TRUE(db.Set(keys.back(), keys.back() + ":0").ok());
  }
  for (int i = 0; i < kChurn; ++i) keys.push_back("c" + std::to_string(i));
  const std::vector<const std::string*> batch = KeyPointers(keys);
  std::atomic<int> writers_left{2};
  std::atomic<size_t> bad{0}, delivered{0};
  std::vector<std::thread> threads;
  threads.emplace_back([&] {  // overwrites + growth
    for (int n = 1; n <= kWrites; ++n) {
      const std::string& key = keys[size_t(n % kStable)];
      db.Set(key, key + ":" + std::to_string(n)).ok();
      db.Set("g" + std::to_string(n), "grow").ok();
    }
    writers_left.fetch_sub(1);
  });
  threads.emplace_back([&] {  // erase + re-create
    for (int n = 0; n < kWrites; ++n) {
      const std::string& key = keys[size_t(kStable + n % kChurn)];
      if (n % 2 == 0) db.Set(key, key + ":" + std::to_string(n)).ok();
      else db.Delete(key).ok();
    }
    writers_left.fetch_sub(1);
  });
  for (int t = 0; t < 2; ++t) {
    threads.emplace_back([&] {
      do {
        db.GetBatch(batch, [&](size_t i, const Status& s,
                               std::string_view value) {
          const bool stable = i < size_t(kStable);
          const std::string prefix = keys[i] + ":";
          if (s.ok() ? value.substr(0, prefix.size()) != prefix
                     : stable || !s.IsNotFound()) {
            bad.fetch_add(1);
          }
          if (s.ok()) delivered.fetch_add(1);
        });
      } while (writers_left.load() > 0);
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(bad.load(), 0u);
  EXPECT_GE(delivered.load(), 2u * kStable);
  EXPECT_EQ(db.Get("g" + std::to_string(kWrites)).value(), "grow");
}

TEST(MemKV, ScanCountsAndSurfacesDecryptFailures) {
  MemEnv env;
  Options o;
  o.env = &env;
  o.encrypt_at_rest = true;
  o.aof_enabled = true;
  o.aof_path = "corrupt.aof";
  o.sync_policy = SyncPolicy::kNever;
  {
    MemKV db(o);
    ASSERT_TRUE(db.Open().ok());
    db.Set("a", "alpha").ok();
    db.Set("b", "beta").ok();
    db.Set("c", "gamma").ok();
    EXPECT_EQ(db.Scan([](const std::string&, const std::string&) {
      return true;
    }), 0u);
    EXPECT_EQ(db.ScanDecryptFailures(), 0u);
    db.Close().ok();
  }
  // Flip one ciphertext bit on disk: the MAC check must fail for exactly
  // that record after replay.
  auto contents = env.ReadFileToString("corrupt.aof");
  ASSERT_TRUE(contents.ok());
  std::string corrupted = contents.value();
  // The file ends with an 'S' frame whose last 8 bytes are the expiry;
  // byte -9 is the tail of the sealed value (the MAC).
  const size_t mac_tail = corrupted.size() - 9;
  corrupted[mac_tail] = char(uint8_t(corrupted[mac_tail]) ^ 0x01);
  {
    auto f = env.NewWritableFile("corrupt.aof", /*truncate=*/true);
    ASSERT_TRUE(f.ok());
    ASSERT_TRUE(f.value()->Append(corrupted).ok());
    ASSERT_TRUE(f.value()->Close().ok());
  }
  {
    MemKV db(o);
    ASSERT_TRUE(db.Open().ok());  // replay stores raw bytes; no decrypt yet
    size_t healthy = 0;
    const size_t failures = db.Scan([&](const std::string&, const std::string&) {
      ++healthy;
      return true;
    });
    EXPECT_EQ(failures, 1u);
    EXPECT_EQ(healthy, 2u);
    EXPECT_EQ(db.ScanDecryptFailures(), 1u);
    db.Close().ok();
  }
}

TEST(MemKV, ConcurrentMixedOps) {
  MemKV db((Options()));
  ASSERT_TRUE(db.Open().ok());
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&db, t] {
      for (int i = 0; i < 2000; ++i) {
        const std::string key = "k" + std::to_string(i % 97);
        if ((i + t) % 3 == 0) db.Set(key, std::to_string(i)).ok();
        else db.Get(key).ok();
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_LE(db.Size(), 97u);
}

// ---- EpochMap: the shard map behind MemKV ----------------------------------

// A 16-shard MemKV routes a key by the low 4 bits of its hash, so one shard's
// map holds only keys that share them. Its buckets must not index by those
// same bits: with `hash & mask` these keys fill 512 of 8,192 buckets and
// chain 21 deep.
TEST(EpochMap, ShardLocalKeysSpreadOverEveryBucket) {
  EpochMap map;
  std::vector<std::pair<std::string, uint64_t>> keys;
  for (size_t i = 0; keys.size() < 6250; ++i) {
    std::string key = "user" + std::to_string(i) + "/record";
    const uint64_t h = Fnv1a(key);
    if ((h & 15) == 5) keys.emplace_back(std::move(key), h);
  }
  for (const auto& [key, h] : keys) {
    ASSERT_TRUE(map.Upsert(key, h, "v", 0, nullptr, nullptr));
  }
  EXPECT_EQ(map.size(), keys.size());
  EXPECT_LE(map.longest_chain(), 8u);
  EpochGuard guard;
  for (const auto& [key, h] : keys) ASSERT_NE(map.Find(key, h), nullptr);
}

// Readers walk and Find while one writer grows the map through ten
// doublings, overwrites and erases. The stable keys are present throughout,
// so every walk and Find sees each of them; every key seen was put; no walk
// yields a key twice. Before each upsert and erase burst the writer stops
// one reader mid-walk, standing on a node, until the burst is done: the
// reader then finishes its walk in a retired generation, which must still
// be intact.
TEST(EpochMap, ReadersSeeStableKeysThroughGrowthAndErase) {
  constexpr size_t kStable = 50;
  constexpr size_t kChurn = 4000;
  const auto key_hash = [](const std::string& key) {
    return std::make_pair(key, Fnv1a(key));
  };
  EpochMap map;
  const auto put_stable = [&](const std::string& value) {
    for (size_t i = 0; i < kStable; ++i) {
      const auto [key, h] = key_hash("stable" + std::to_string(i));
      map.Upsert(key, h, value, 0, nullptr, nullptr);
    }
  };
  put_stable("v0");
  std::atomic<bool> park{false}, parked{false};
  std::atomic<bool> done{false};
  std::atomic<size_t> walks{0}, missing{0}, unknown{0}, twice{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        std::vector<int> seen(kStable, 0);
        size_t found = 0;
        {
          EpochGuard guard;
          map.ForEach([&](const std::string& k, const EntryBlock& e) {
            bool asked = true;
            if (park.compare_exchange_strong(asked, false)) {
              parked.store(true);
              while (parked.load()) std::this_thread::yield();
            }
            if (e.value.empty() || e.value[0] != 'v') unknown.fetch_add(1);
            if (k.rfind("stable", 0) == 0) {
              if (++seen[std::stoul(k.substr(6)) % kStable] > 1) {
                twice.fetch_add(1);
              }
            } else if (k.rfind("churn", 0) != 0 ||
                       std::stoul(k.substr(5)) >= kChurn) {
              unknown.fetch_add(1);
            }
            return true;
          });
          for (size_t i = 0; i < kStable; i += 7) {
            const auto [key, h] = key_hash("stable" + std::to_string(i));
            if (map.Find(key, h) != nullptr) ++found;
          }
        }
        if (std::count(seen.begin(), seen.end(), 1) != kStable) {
          missing.fetch_add(1);
        }
        if (found != (kStable + 6) / 7) missing.fetch_add(1);
        walks.fetch_add(1);
      }
    });
  }
  const auto with_a_reader_parked = [&](auto burst) {
    park.store(true);
    while (!parked.load()) std::this_thread::yield();
    burst();
    parked.store(false);
  };
  size_t refused = 0;  // counted, not asserted: the readers must be joined
  size_t longest = 0;
  for (int round = 1; round <= 3; ++round) {
    with_a_reader_parked([&] {
      // After round 1 the odd keys are still there: those overwrite.
      for (size_t i = 0; i < kChurn; ++i) {
        const auto [key, h] = key_hash("churn" + std::to_string(i));
        const bool inserted = map.Upsert(key, h, "v", 0, nullptr, nullptr);
        if (inserted != (round == 1 || i % 2 == 0)) ++refused;
      }
    });
    longest = std::max(longest, map.longest_chain());
    put_stable("v" + std::to_string(round));  // block swaps, no inserts
    with_a_reader_parked([&] {
      for (size_t i = 0; i < kChurn; i += 2) {
        const auto [key, h] = key_hash("churn" + std::to_string(i));
        if (!map.Erase(key, h, nullptr)) ++refused;
      }
    });
    if (map.size() != kStable + kChurn / 2) ++refused;
  }
  // Let every reader finish at least one walk against the final map.
  const size_t floor = walks.load() + 2;
  while (walks.load() < floor) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(refused, 0u);
  EXPECT_EQ(missing.load(), 0u);
  EXPECT_EQ(unknown.load(), 0u);
  EXPECT_EQ(twice.load(), 0u);
  EXPECT_LE(longest, 10u);
  EXPECT_EQ(map.size(), kStable + kChurn / 2);
}

// ---- EpochPostingMap: the posting sets behind the GDPR indexes ------------

std::set<std::string> KeysOf(const EpochPostingMap& map,
                             const std::string& value) {
  std::set<std::string> keys;
  EpochGuard guard;
  map.ForEachKey(value, [&](const std::string& k) {
    EXPECT_TRUE(keys.insert(k).second) << "key seen twice: " << k;
    return true;
  });
  return keys;
}

TEST(EpochPostingMap, PostingsAreSets) {
  EpochPostingMap map;
  EXPECT_TRUE(map.Add("neo", "k1"));
  EXPECT_FALSE(map.Add("neo", "k1"));  // duplicate pair
  EXPECT_TRUE(map.Add("neo", "k2"));
  EXPECT_TRUE(map.Add("trinity", "k1"));
  EXPECT_EQ(map.entries(), 3u);
  EXPECT_EQ(map.values(), 2u);
  EXPECT_FALSE(map.Remove("neo", "k3"));     // absent key
  EXPECT_FALSE(map.Remove("morpheus", "k1"));  // absent value
  EXPECT_EQ(map.entries(), 3u);
  EXPECT_EQ(KeysOf(map, "neo"), (std::set<std::string>{"k1", "k2"}));

  // Emptying a value drops it; re-adding builds it afresh.
  EXPECT_TRUE(map.Remove("trinity", "k1"));
  EXPECT_FALSE(map.Remove("trinity", "k1"));
  EXPECT_EQ(map.values(), 1u);
  EXPECT_TRUE(KeysOf(map, "trinity").empty());
  EXPECT_TRUE(map.Add("trinity", "k9"));
  EXPECT_EQ(KeysOf(map, "trinity"), (std::set<std::string>{"k9"}));
  EXPECT_EQ(map.entries(), 3u);
  EXPECT_EQ(map.values(), 2u);
}

// Set sizes on both sides of every growth threshold: one bucket holds up to
// kMaxChain keys, then the set doubles.
TEST(EpochPostingMap, ForEachKeyYieldsTheLiveSetAcrossGrowth) {
  for (const size_t n : {size_t{1}, size_t{8}, size_t{9}, size_t{100},
                         size_t{10000}}) {
    SCOPED_TRACE(n);
    EpochPostingMap map;
    std::set<std::string> live;
    for (size_t i = 0; i < n; ++i) {
      const std::string key = "key" + std::to_string(i);
      ASSERT_TRUE(map.Add("purpose", key));
      live.insert(key);
    }
    ASSERT_TRUE(map.Add("other", "key0"));
    for (size_t i = 0; i < n; ++i) {  // every duplicate is still refused
      ASSERT_FALSE(map.Add("purpose", "key" + std::to_string(i)));
    }
    EXPECT_EQ(KeysOf(map, "purpose"), live);
    EXPECT_EQ(map.entries(), n + 1);

    for (size_t i = 0; i < n; i += 3) {
      const std::string key = "key" + std::to_string(i);
      ASSERT_TRUE(map.Remove("purpose", key));
      live.erase(key);
    }
    EXPECT_EQ(KeysOf(map, "purpose"), live);
    EXPECT_EQ(KeysOf(map, "other"), (std::set<std::string>{"key0"}));
    EXPECT_EQ(map.entries(), live.size() + 1);

    size_t visited = 0;  // fn returning false stops the walk
    {
      EpochGuard guard;
      map.ForEachKey("purpose", [&](const std::string&) {
        return ++visited < 2;
      });
    }
    EXPECT_EQ(visited, std::min<size_t>(2, live.size()));

    for (const auto& key : live) ASSERT_TRUE(map.Remove("purpose", key));
    EXPECT_TRUE(KeysOf(map, "purpose").empty());
    EXPECT_EQ(map.values(), 1u);
  }
}

// One writer adds and removes churn keys across many growths while readers
// walk: a key that is never removed is in every walk, and every key a walk
// yields was added at some point.
TEST(EpochPostingMap, ReadersSeeStableKeysWhileTheSetGrows) {
  constexpr size_t kStable = 50;
  constexpr size_t kChurn = 3000;
  EpochPostingMap map;
  for (size_t i = 0; i < kStable; ++i) {
    ASSERT_TRUE(map.Add("purpose", "stable" + std::to_string(i)));
  }
  std::atomic<bool> done{false};
  std::atomic<size_t> walks{0}, missing{0}, unknown{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&] {
      while (!done.load(std::memory_order_acquire)) {
        size_t stable = 0;
        {
          EpochGuard guard;
          map.ForEachKey("purpose", [&](const std::string& k) {
            if (k.rfind("stable", 0) == 0) {
              ++stable;
            } else if (k.rfind("churn", 0) != 0 ||
                       std::stoul(k.substr(5)) >= kChurn) {
              unknown.fetch_add(1);
            }
            return true;
          });
        }
        if (stable != kStable) missing.fetch_add(1);
        walks.fetch_add(1);
      }
    });
  }
  while (walks.load() == 0) std::this_thread::yield();
  size_t refused = 0;  // counted, not asserted: the readers must be joined
  for (int round = 0; round < 3; ++round) {
    for (size_t i = 0; i < kChurn; ++i) {
      if (!map.Add("purpose", "churn" + std::to_string(i))) ++refused;
    }
    for (size_t i = 0; i < kChurn; ++i) {
      if (!map.Remove("purpose", "churn" + std::to_string(i))) ++refused;
    }
  }
  // Let every reader finish at least one walk against the final set.
  const size_t floor = walks.load() + 2;
  while (walks.load() < floor) std::this_thread::yield();
  done.store(true, std::memory_order_release);
  for (auto& t : readers) t.join();
  EXPECT_EQ(refused, 0u);
  EXPECT_EQ(missing.load(), 0u);
  EXPECT_EQ(unknown.load(), 0u);
  EXPECT_EQ(map.entries(), kStable);
}

}  // namespace
}  // namespace gdpr::kv
