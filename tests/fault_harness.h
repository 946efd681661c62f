// Fault-sweep harness (docs/PERSISTENCE.md, "Failure policy").
//
// The shape: run a mixed GDPR workload once over a FaultEnv with no plan to
// learn how many failable I/O ops it issues, then re-run it from scratch
// with a fault injected at each op index, reopen the store from the
// surviving bytes, and machine-check the durability contract:
//
//   * every write acked under SyncPolicy::kAlways (before any crash point)
//     is present after reopen;
//   * erased keys stay erased — the record is gone and VerifyDeletion
//     still answers true from the tombstone;
//   * nothing recovers that was never written;
//   * the audit chain verifies, or the failure was loud (DataLoss on open);
//   * a store that degraded refuses further writes with Unavailable while
//     reads keep serving.
//
// A Ledger records what the workload was *promised* (acks), never what it
// hoped; the checkers compare promises against the reopened store. Sweeps
// accumulate into global injection-point / invariant-check counters that
// the summary test asserts against and emits as a BENCH_RESULT_JSON
// "faults" line for tools/bench_compare.py.
//
// GDPR_FAULT_BUDGET (env var) caps the injection points *per sweep* by
// striding across the op range — CI uses it to bound runtime while keeping
// every region of the workload covered.
//
// Every log (AOF, WAL, statement log, audit chain) commits through its own
// group-commit log. The workload is single-threaded, so each Commit()
// finds its log idle and leads its own batch: the Append/Sync calls the
// sweep counts and fails are issued on the workload thread itself, batches
// are exactly one frame, and the op sequence stays deterministic; the
// multi-frame batch failure paths (one fsync error fanning out to every
// writer in the batch) get their own targeted coverage in
// tests/test_commit_pipeline.cc.

#pragma once

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <map>
#include <set>
#include <string>

#include "gdpr/store.h"
#include "storage/fault_env.h"

namespace gdpr::fault {

// ---- sweep accounting ------------------------------------------------------

inline std::atomic<uint64_t>& InjectionPoints() {
  static std::atomic<uint64_t> v{0};
  return v;
}
inline std::atomic<uint64_t>& InvariantChecks() {
  static std::atomic<uint64_t> v{0};
  return v;
}
inline void CountCheck() {
  InvariantChecks().fetch_add(1, std::memory_order_relaxed);
}

inline uint64_t SweepBudget() {
  static const uint64_t budget = [] {
    const char* s = std::getenv("GDPR_FAULT_BUDGET");
    return s ? std::strtoull(s, nullptr, 10) : 0;  // 0 = unbounded
  }();
  return budget;
}

// Stride so a sweep over n ops lands on at most SweepBudget() indices
// while still touching the whole range (first ops, compaction, close).
inline uint64_t SweepStride(uint64_t n) {
  const uint64_t budget = SweepBudget();
  if (budget == 0 || n <= budget) return 1;
  return (n + budget - 1) / budget;
}

// ---- workload ledger -------------------------------------------------------

// What the store promised. `durable` only admits acks the sync policy
// makes binding (the caller passes ack=false wholesale under kEverySec);
// `acceptable` records every value ever *offered* for a key, because an
// op that failed after its append can still legitimately surface its
// value on reopen (the bytes hit the log before the op's sync failed).
struct Ledger {
  std::map<std::string, std::string> durable;          // key -> acked data
  std::map<std::string, std::set<std::string>> acceptable;  // key -> values
  std::set<std::string> erased;  // acked erasures (record must be gone)
  // Acked erasures of records the store durably held: only these promise
  // tombstone evidence. Erasing a user whose creates were refused is a
  // vacuous success — there is nothing to tombstone.
  std::set<std::string> evidence;
  std::set<std::string> ever;  // every key the workload ever mentioned
};

inline GdprRecord MakeRecord(const std::string& key, const std::string& user,
                             const std::string& data) {
  GdprRecord rec;
  rec.key = key;
  rec.data = data;
  rec.metadata.user = user;
  rec.metadata.purposes = {"billing"};
  rec.metadata.shared_with = {"partner-x"};
  rec.metadata.origin = "first-party";
  return rec;
}

// Mixed GDPR workload: creates across three users, reads, an update, a
// point delete, a full user erasure (the Forget), a compaction (the heal
// path), and a post-compaction create. `strict_acks` = the sync policy
// makes an OK binding (kAlways); under kEverySec pass false and the
// ledger only tracks `ever`/`acceptable`.
//
// Every mutation consults fenv->crashed() *after* it returns: an op that
// straddled the crash point may have been silently abandoned mid-write,
// so its ack is not a durability promise.
inline void RunGdprWorkload(GdprStore* store, FaultEnv* fenv, Ledger* led,
                            bool strict_acks = true) {
  const Actor ctrl = Actor::Controller();
  auto acked = [&](const Status& s) {
    return strict_acks && s.ok() && !fenv->crashed();
  };
  auto offer = [&](const std::string& key, const std::string& data) {
    led->ever.insert(key);
    led->acceptable[key].insert(data);
  };
  // Whether user0-k1's create reached memory, whatever the sync policy: a
  // failed update of it must then leave its value (log before apply).
  bool k1_live = false;
  for (int u = 0; u < 3; ++u) {
    const std::string user = "user" + std::to_string(u);
    for (int k = 0; k < 4; ++k) {
      const std::string key = user + "-k" + std::to_string(k);
      const std::string data = "v0-" + key;
      offer(key, data);
      const Status s = store->CreateRecord(ctrl, MakeRecord(key, user, data));
      if (s.ok() && key == "user0-k1") k1_live = true;
      if (acked(s)) led->durable[key] = data;
    }
  }
  // Reads never touch the ledger; degraded stores must keep serving them.
  (void)store->ReadDataByKey(ctrl, "user0-k0").ok();
  (void)store->ReadMetadataByUser(ctrl, "user1").ok();
  (void)store->ReadMetadataBySharing(ctrl, "partner-x").ok();
  // An update is one atomic write in every engine: a faulted one leaves
  // the old value or the new one, never neither, so an acked old value
  // stays promised (either offered value satisfies it) until the new one
  // acks. Erasure (delete + tombstone) voids the *old* promise the moment
  // it is attempted: a fault mid-op can legitimately persist the delete
  // before failing, so the key drops to "indeterminate" (only the
  // `ever`/`acceptable` checks bind) unless the op acks.
  //
  // A failed update is also checked live, before any reopen: it must
  // leave the record reading as it did. Only the update is checked this
  // way, since it is one engine mutation everywhere while a reldb create
  // is three; a read that itself errs proves nothing and is skipped.
  {
    const std::string key = "user0-k1", data = "v1-" + key;
    offer(key, data);
    const Status s = store->UpdateDataByKey(ctrl, key, data);
    if (acked(s)) led->durable[key] = data;
    if (!s.ok() && !fenv->crashed() && k1_live) {
      auto r = store->ReadDataByKey(ctrl, key);
      if (r.ok()) {
        EXPECT_EQ(r.value().data, "v0-" + key)
            << "failed update changed the served value: " << s.ToString();
        CountCheck();
      }
    }
  }
  {
    const bool held = led->durable.erase("user2-k3") > 0;
    if (acked(store->DeleteRecordByKey(ctrl, "user2-k3"))) {
      led->erased.insert("user2-k3");
      if (held) led->evidence.insert("user2-k3");
    }
  }
  {
    std::set<std::string> held;
    for (int k = 0; k < 4; ++k) {
      const std::string key = "user1-k" + std::to_string(k);
      if (led->durable.erase(key) > 0) held.insert(key);
    }
    auto n = store->DeleteRecordsByUser(ctrl, "user1");
    if (strict_acks && n.ok() && !fenv->crashed()) {
      for (int k = 0; k < 4; ++k) {
        led->erased.insert("user1-k" + std::to_string(k));
      }
      led->evidence.insert(held.begin(), held.end());
    }
  }
  // The heal path: a successful full rewrite re-opens a degraded store.
  (void)store->CompactNow(ctrl).ok();
  {
    const std::string key = "user0-k9", data = "late";
    offer(key, data);
    if (acked(store->CreateRecord(ctrl, MakeRecord(key, "user0", data)))) {
      led->durable[key] = data;
    }
  }
}

// A store that reports degraded must refuse writes with Unavailable while
// still serving reads — probed live, before the reopen.
inline void CheckDegradedContract(GdprStore* store) {
  if (store->GetHealth().state != HealthState::kDegradedReadOnly) return;
  const Actor ctrl = Actor::Controller();
  Status w = store->CreateRecord(
      ctrl, MakeRecord("degraded-probe", "prober", "x"));
  EXPECT_TRUE(w.IsUnavailable())
      << "degraded store accepted a write: " << w.ToString();
  CountCheck();
  // Reads must not be collateral damage (the metadata query is served
  // from memory; a degraded read path returning Unavailable would turn
  // one bad disk into an outage).
  auto r = store->ReadMetadataByUser(ctrl, "user0");
  EXPECT_FALSE(r.ok() ? false : r.status().IsUnavailable())
      << "degraded store refused a read: " << r.status().ToString();
  CountCheck();
}

// Index/scan coherence: with metadata_indexing on, an indexed collection
// and the O(n) scan must name the same keys after every reopen — a crash
// that left the rebuilt index missing (or inventing) postings would make
// SAR answers depend on which code path served them. The honesty signal
// must agree too: one path reporting DataLoss while the other serves a
// clean answer is exactly the divergence this check exists to catch.
inline void CheckIndexMatchesScan(GdprStore* store) {
  const Actor ctrl = Actor::Controller();
  for (int u = 0; u < 3; ++u) {
    const std::string user = "user" + std::to_string(u);
    std::set<std::string> via_scan;
    Status scan = store->ScanRecords(ctrl, [&](const GdprRecord& rec) {
      if (rec.metadata.user == user) via_scan.insert(rec.key);
      return true;
    });
    auto via_index = store->ReadMetadataByUser(ctrl, user);
    EXPECT_EQ(scan.ok(), via_index.ok())
        << user << ": scan=" << scan.ToString()
        << " index=" << via_index.status().ToString();
    CountCheck();
    if (!scan.ok() || !via_index.ok()) continue;
    std::set<std::string> via_idx;
    for (const auto& rec : via_index.value()) via_idx.insert(rec.key);
    EXPECT_EQ(via_idx, via_scan) << "index/scan divergence for " << user;
    CountCheck();
  }
}

// Machine-checks the reopened store against the ledger.
inline void CheckRecovery(AuditedStore* store, const Ledger& led) {
  const Actor ctrl = Actor::Controller();
  for (const auto& [key, data] : led.durable) {
    auto rec = store->ReadDataByKey(ctrl, key);
    ASSERT_TRUE(rec.ok()) << "acked write lost: " << key << ": "
                          << rec.status().ToString();
    const auto& ok_values = led.acceptable.at(key);
    EXPECT_TRUE(ok_values.count(rec.value().data))
        << key << " recovered a value never written: " << rec.value().data;
    CountCheck();
  }
  for (const std::string& key : led.erased) {
    auto rec = store->ReadDataByKey(ctrl, key);
    EXPECT_TRUE(!rec.ok() && rec.status().IsNotFound())
        << "erased key resurrected: " << key;
    CountCheck();
  }
  for (const std::string& key : led.evidence) {
    auto verified = store->VerifyDeletion(Actor::Regulator(), key);
    EXPECT_TRUE(verified.ok() && verified.value())
        << "erasure evidence lost for " << key;
    CountCheck();
  }
  // Nothing recovers that was never written (no frankenstein records out
  // of torn bytes), and the audit chain still verifies end to end.
  Status scan = store->ScanRecords(ctrl, [&](const GdprRecord& rec) {
    EXPECT_TRUE(led.ever.count(rec.key))
        << "recovered a key never written: " << rec.key;
    return true;
  });
  EXPECT_TRUE(scan.ok()) << scan.ToString();
  CountCheck();
  EXPECT_TRUE(store->audit_log()->VerifyChain());
  CountCheck();
  CheckIndexMatchesScan(store);
}

}  // namespace gdpr::fault
