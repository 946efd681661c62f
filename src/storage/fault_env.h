// FaultEnv: deterministic I/O fault injection over any Env.
//
// Wraps a base Env (MemEnv in tests, Posix in principle) and threads every
// failable I/O operation through a seeded, deterministic fault schedule so
// a harness can enumerate and replay every injection point a workload
// exercises (tests/fault_harness.h). Supported faults:
//
//   - fail-the-Nth-op: a global counter numbers every failable op; the
//     plan can fail exactly op N with the kind-appropriate error
//     (ENOSPC-shaped on Append, EIO-shaped on Sync, ...).
//   - per-op-kind probability: seeded xorshift, reproducible run to run.
//   - torn writes: an injected Append failure first persists a
//     pseudo-random prefix of the data, modeling a partial page write.
//   - fsyncgate: an injected Sync failure *poisons the file handle* — the
//     buffered-but-unsynced bytes are dropped (the kernel marked the dirty
//     pages clean) and every later op on the handle fails. Retrying the
//     fsync must never be assumed to have persisted earlier data.
//   - read-back corruption: an injected read flips one byte instead of
//     failing, exercising checksum/hash-chain detection.
//   - crash point: from op N on, the world stops — every pending write
//     buffer is spilled as a pseudo-random prefix (torn tail) and all
//     subsequent writes, deletes and renames are silently abandoned. A
//     rename that no SyncDir of its directory followed is undone: the
//     target gets its old contents back (or goes away) and the source
//     reappears. The base Env then holds the post-crash disk image for
//     reopen tests. (A handle opened on a renamed path before its
//     SyncDir is not modeled: the engine syncs every rename at once.)
//
// Durability model: FaultWritableFile buffers appends in memory ("page
// cache") and only pushes them to the base Env on Sync or Close. Data a
// workload never fsynced is therefore genuinely lost at a crash point,
// which is what lets the harness machine-check "acked writes are durable
// per sync policy" instead of taking it on faith.

#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "storage/env.h"

namespace gdpr {

// Every failable operation kind. FileExists cannot fail and is not
// counted — a sweep index must always map to an op that can be injected.
enum class FaultOpKind {
  kNewFile = 0,
  kAppend,
  kSync,
  kClose,
  kRead,
  kFileSize,
  kDelete,
  kRename,
  kSyncDir,
};
inline constexpr int kNumFaultOpKinds = 10;

const char* FaultOpKindName(FaultOpKind kind);

struct FaultPlan {
  // Fail exactly the Nth failable op (1-based, global counter). 0 = off.
  uint64_t fail_at_op = 0;
  // From the Nth failable op on, simulate a crash (see header comment).
  // 0 = off.
  uint64_t crash_at_op = 0;
  // Per-kind injection probability, drawn from the seeded RNG.
  double fail_prob[kNumFaultOpKinds] = {};
  // Injected Append failures persist a pseudo-random prefix first.
  bool torn_appends = false;
  // Injected Read faults flip one byte instead of returning an error.
  bool corrupt_reads = false;
  // When non-empty, only ops whose path contains this substring are
  // eligible for injection (the op counter still counts every op). Lets a
  // cluster test degrade exactly one node.
  std::string path_filter;
};

class FaultEnv : public Env {
 public:
  explicit FaultEnv(Env* base, uint64_t seed = 0x5eed);

  void set_plan(const FaultPlan& plan);
  FaultPlan plan() const;
  // Drops the fault plan (crashed state, counters and RNG persist).
  void ClearFaults();

  // Global failable-op counter: the sweep runs once to learn the total,
  // then re-runs with fail_at_op = 1..total.
  uint64_t op_count() const {
    return op_count_.load(std::memory_order_relaxed);
  }
  uint64_t faults_injected() const {
    return faults_injected_.load(std::memory_order_relaxed);
  }
  bool crashed() const { return crashed_.load(std::memory_order_acquire); }

  Env* base() const { return base_; }

  // Env interface.
  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override;
  StatusOr<std::string> ReadFileToString(const std::string& path) override;
  StatusOr<uint64_t> FileSize(const std::string& path) override;
  Status DeleteFile(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status SyncDir(const std::string& path) override;

  // Renames a crash undid because no SyncDir of their directory followed.
  uint64_t renames_undone() const {
    return renames_undone_.load(std::memory_order_relaxed);
  }

 private:
  friend class FaultWritableFile;

  enum class Decision { kNone, kFail, kCrash };
  // Counts the op, evaluates the plan, latches crash state. Never called
  // for ops issued after a crash (callers check crashed() first).
  Decision Check(FaultOpKind kind, const std::string& path);
  // Seeded xorshift64*; callers hold mu_.
  uint64_t NextRandLocked();
  // Pseudo-random prefix length in [0, n] for torn writes / crash spills.
  uint64_t TornPrefixLen(uint64_t n);
  // Undoes every rename still waiting for its SyncDir, newest first in
  // each directory. Called once, when the crash latches; callers hold mu_.
  void UndoUnsyncedRenamesLocked();

  // A rename whose directory entry is not yet durable.
  struct UnsyncedRename {
    std::string from;
    std::string to;
    std::optional<std::string> replaced;  // `to`'s contents before, if any
  };

  Env* const base_;
  mutable std::mutex mu_;
  FaultPlan plan_;
  uint64_t rng_;
  std::atomic<uint64_t> op_count_{0};
  std::atomic<uint64_t> faults_injected_{0};
  std::atomic<bool> crashed_{false};
  // By directory, oldest first; guarded by mu_.
  std::map<std::string, std::vector<UnsyncedRename>> unsynced_renames_;
  std::atomic<uint64_t> renames_undone_{0};
};

}  // namespace gdpr
