// Tamper-evident audit trail (G 30 "records of processing"): every operation
// against the store — allowed or denied — is appended under a SHA-256 hash
// chain, so a regulator can detect retroactive edits. Queries are
// time-ranged (G 33 breach investigation).
//
// The chain is sealed in groups: appends buffer into an unsealed tail and
// one SHA-256 covers every `seal_interval` entries (the ablations put the
// per-op hash at ~2.6x on point reads; grouping amortizes it away). Any
// read of the chain itself — head_hash, VerifyChain — seals the tail
// first, so externally the log always behaves as a fully sealed chain;
// Query reads entries, not the chain, and never forces a seal.
//
// Durable backing (OpenDurable): sealed groups are framed into append-only
// segment files `<path>.seg1`, `<path>.seg2`, ... written through
// storage::Env. One frame per sealed group (group hash + serialized
// entries); the unsealed tail stays memory-only until its seal, so a crash
// loses at most the current tail — never a sealed group, and never chain
// integrity. Open replays the segments, recomputing and checking every
// group hash, with torn-tail tolerance on the last segment (a frame cut by
// a crash mid-append truncates cleanly; everything before it verifies).
// Segments rotate at rotate_bytes; Compact() drops whole aged-out groups by
// rewriting the surviving chain behind a re-anchor frame (temp + atomic
// rename), so regulators verify from the recorded pre-compaction head
// instead of genesis. Segment headers carry a compaction epoch: stale
// segments left by a crash mid-compaction are fenced off and deleted on
// the next open, exactly like the WAL's 'E' stamp.
//
// Writes scale two ways: appends stage into per-thread-shard buffers that
// merge into the chain at seal time (concurrent appenders don't serialize
// on the chain mutex), and sealed-group frames reach disk through the
// chain's own group-commit log (storage/commit_log.h).

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/health.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "gdpr/actor.h"
#include "storage/commit_log.h"
#include "storage/env.h"

namespace gdpr {

struct AuditEntry {
  int64_t timestamp_micros = 0;
  std::string actor_id;
  Actor::Role role = Actor::Role::kController;
  std::string op;   // e.g. "READ-DATA-BY-KEY"
  std::string key;  // subject key or query argument
  bool allowed = true;
};

// Persistence knobs for the chain. `path` empty = in-memory only. The
// GDPR stores plumb env, sync_policy and clock from their engine options;
// set path / rotate_bytes / retention_micros freely.
struct AuditLogOptions {
  Env* env = nullptr;  // nullptr => Env::Posix()
  std::string path;    // segments live at <path>.seg<N>
  SyncPolicy sync_policy = SyncPolicy::kEverySec;
  // Rotate the active segment once it passes this size (0 = never rotate).
  uint64_t rotate_bytes = 4 << 20;
  // Compact() drops groups whose newest entry is older than this (0 =
  // retain forever; Compact becomes a no-op).
  int64_t retention_micros = 0;
  // Times the kEverySec syncs of the segment. nullptr =>
  // RealClock::Default().
  Clock* clock = nullptr;
};

// What a retention/compaction pass did (merged into CompactionStats by the
// stores).
struct AuditCompactResult {
  uint64_t dropped_entries = 0;
  uint64_t dropped_groups = 0;
  uint64_t segments_before = 0;
  uint64_t segments_after = 0;
};

class AuditLog {
 public:
  // seal_interval = 1 hashes every append on its own.
  explicit AuditLog(size_t seal_interval = 32);

  // Attaches the chain to segment files at opts.path, replaying and
  // re-verifying whatever a previous incarnation persisted. Replaces the
  // in-memory chain state — call before the first Append. DataLoss when a
  // non-tail frame is unreadable or a group hash does not recompute
  // (tampering / corruption); a torn tail on the last segment is cut off
  // by rewriting the segment (FileRewrite) and tolerated, like the WAL.
  Status OpenDurable(const AuditLogOptions& opts);
  // Seals the pending tail into a final durable group, syncs, and detaches.
  // Returns the first swallowed I/O error if the backing ever failed.
  Status CloseDurable();
  // The durable path's latch: degraded-read-only, caused by the sticky
  // first I/O failure, once an append failed. The log then stops persisting
  // (a gap would break the chain on replay) but the in-memory chain still
  // appends and verifies — the audit log never gates the store's writes
  // itself, it feeds store health reporting. Compact() heals by rewriting
  // the chain from memory.
  HealthReport health() const;

  // Drops whole groups whose newest entry is older than retention (see
  // AuditLogOptions): rewrites the surviving chain into a fresh first
  // segment behind a re-anchor frame recording the pre-compaction head via
  // temp + atomic rename. No-op (success) when not durable, nothing aged
  // out, or retention is 0.
  StatusOr<AuditCompactResult> Compact(int64_t now_micros);

  void Append(AuditEntry entry);
  size_t size() const;

  // Entries with from <= timestamp <= to. Entries are appended in
  // non-decreasing timestamp order, so this is a binary search + copy.
  std::vector<AuditEntry> Query(int64_t from_micros, int64_t to_micros) const;

  // Head of the hash chain after sealing the pending tail.
  std::string head_hash() const;

  // Verifies the chain group-by-group from the anchor (genesis, or the
  // re-anchor recorded by the last retention compaction) — a regulator's
  // integrity check.
  bool VerifyChain() const;

  size_t ApproximateBytes() const;

  size_t seal_interval() const;
  void set_seal_interval(size_t k);

  // Observability (tests, CompactionStats).
  uint64_t segment_count() const;
  uint64_t dropped_entries_total() const;
  std::string anchor_hash() const;

  // Registers audit_* counters on reg; safe to call once after construction.
  // Counters are owned by the registry and outlive this log.
  void AttachMetrics(obs::MetricsRegistry* reg);
  // Entries appended but not yet sealed into a hash group.
  size_t unsealed_tail() const;
  // Timestamp of the oldest unsealed entry, or 0 when the tail is empty.
  // Seal lag = now - this; gauges derived at snapshot time.
  int64_t oldest_unsealed_micros() const;

 private:
  // One hash step covering entries [begin, begin+n) chained onto prev.
  static std::string GroupStep(const std::string& prev, const AuditEntry* begin,
                               size_t n);
  // Same step over pre-encoded entry bytes (the frame payload).
  static std::string GroupStepEncoded(const std::string& prev,
                                      const std::string& payload);
  static void EncodeEntry(std::string* dst, const AuditEntry& e);
  static bool DecodeEntry(std::string_view* in, AuditEntry* e);
  static size_t EntryCost(const AuditEntry& e);

  std::string SegmentPath(uint64_t n) const;
  // Temp of every segment rewrite (torn-tail repair and compaction).
  std::string RewriteTmpPath() const { return opts_.path + ".compact.tmp"; }
  // Deletes segment `first` and every later one, through the active
  // segment or the last on disk, whichever is further.
  void DeleteSegmentsFromLocked(uint64_t first) const;
  // Empties the in-memory chain: stages, entries, groups, anchor and head.
  void ResetChainLocked();
  void SealPendingLocked() const;
  // Appends the just-sealed group's frame through the commit log and
  // rotates when the segment passes rotate_bytes. Errors latch io_status_
  // and stop further persistence.
  void PersistGroupLocked(const std::string& payload, size_t n) const;
  void RotateLocked() const;
  Status WriteSegmentHeaderLocked(WritableFile* f, uint64_t epoch,
                                  const std::string& anchor,
                                  uint64_t* bytes) const;
  // Replays the segments into memory and leaves the last one open for
  // append in `active` (repairing a torn tail first).
  Status ReplayLocked(CommitLog::FileSlot& active);

  // --- per-shard append staging -------------------------------------------
  // Append() pushes into one of kStages slot buffers picked per thread,
  // touching only that slot's mutex — concurrent appenders no longer
  // serialize on mu_ for every entry. Staged entries merge into the chain
  // (timestamp order, per-slot FIFO preserved, clamped monotone) the moment
  // anything needs chain state: a seal, a query, a size probe. Lock order
  // is mu_ -> stage mutex, never the reverse.
  struct Stage {
    std::mutex mu;
    std::vector<AuditEntry> entries;
  };
  static constexpr size_t kStages = 8;
  Stage& StageFor() const;
  // Merges every staged entry into entries_ / pending_. Requires mu_.
  void DrainStagedLocked() const;

  // Read by Append() off-mu_; written under mu_ by set_seal_interval.
  std::atomic<size_t> seal_interval_;
  mutable std::mutex mu_;
  // entries_/bytes_ are mutable because draining the stages — which any
  // const chain reader triggers — materializes staged appends.
  mutable std::vector<AuditEntry> entries_;
  // Chain structure: group_sizes_[i] entries went into hash step i. The
  // last pending_ entries of entries_ are not yet under any group. Sealing
  // mutates only the chain bookkeeping, never the entries, so const readers
  // may seal.
  mutable std::vector<uint32_t> group_sizes_;
  mutable size_t pending_ = 0;
  mutable std::string head_;
  mutable size_t bytes_ = 0;

  mutable std::array<Stage, kStages> stages_;
  // Entries sitting in stage buffers, not yet merged into entries_.
  mutable std::atomic<size_t> staged_{0};

  // Verification anchor: genesis, or the head recorded by the last
  // retention compaction ('A' frame of segment 1).
  std::string anchor_;

  // --- durable backing (all guarded by mu_; mutable because sealing —
  // which persists — happens on const chain reads) ---
  AuditLogOptions opts_;
  bool durable_ = false;
  mutable uint64_t active_bytes_ = 0;
  mutable uint64_t active_seg_ = 1;
  uint64_t epoch_ = 0;
  mutable Status io_status_ = Status::OK();

  // Nullable until AttachMetrics; raw pointers so const seal/persist paths
  // can count without touching registry state.
  obs::Counter* m_appends_ = nullptr;
  obs::Counter* m_sealed_groups_ = nullptr;
  obs::Counter* m_persisted_bytes_ = nullptr;
  obs::Counter* m_persist_fail_ = nullptr;
  obs::MetricsRegistry* metrics_reg_ = nullptr;
  uint64_t dropped_entries_total_ = 0;

  // Group-commit plumbing: frames flow Commit() -> the batch's leader ->
  // the active segment, which log_ owns; replay, rotation and compaction
  // reach it through WithFile, close through CloseFile. nullptr while not
  // durable: each OpenDurable builds a fresh log and CloseDurable drops it.
  std::unique_ptr<CommitLog> log_;
};

}  // namespace gdpr
