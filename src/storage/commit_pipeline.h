// Group-commit pipeline: one batched durability path for every log in the
// system (MemKV AOF, rel WAL, rel statement log, durable audit chain).
//
// Writers enqueue framed records into their target's FIFO and block on a
// completion handle; a single committer thread per pipeline takes queued
// frames, coalesces them into one write() (+ one fsync under kAlways) per
// target file, and signals every waiter in the batch with the batch's
// outcome. Batch failure fans out to ALL waiters in the batch; fsync
// failure keeps the fsyncgate semantics: the target is poisoned (never
// retried), the owning store degrades via its HealthTracker, and only a
// full rewrite-from-memory (compaction / checkpoint) re-establishes the
// log by putting a new file in the target (WithFile).
//
// Each target owns its log file: owners reach it only through WithFile
// (drain, run fn on the file slot, attach what it then holds) and end it
// with CloseFile (drain, sync, close).
//
// Ack contract per sync policy (see docs/PERSISTENCE.md "Group commit"):
//   kAlways   — Commit() returns after the batch's write AND fsync
//               succeeded: an OK ack means bytes are durable.
//   kEverySec — Commit() returns after the batch's write() succeeded. The
//               committer keeps the clock: after a batch, and on every
//               wakeup (at least every 100 ms) while the log is idle, it
//               fsyncs a target holding unsynced bytes once a second has
//               passed since its last sync. A timed-fsync failure cannot be
//               attributed to an acked caller, so it only poisons the
//               target and degrades health.
//   kNever    — Commit() returns after write(); only CloseFile fsyncs.
//
// Ordering contract: each target is one FIFO, and a batch writes its
// frames in enqueue order, so frames reach the file in the order they were
// enqueued. The enqueue `gate` runs under the queue mutex: a gate that
// observes state X enqueues before any later frame whose gate observes X'.
//
// Single-threaded callers see batches of exactly one frame (each Commit
// blocks until its frame is written), so deterministic fault sweeps over
// FaultEnv keep their exact op sequence — the committer thread performs
// the same Append/Sync calls, in the same order, that the caller used to.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/clock.h"
#include "common/health.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/env.h"

namespace gdpr {

class CommitPipeline {
 public:
  struct Options {
    // Max frames coalesced into one write()+fsync. 0 = unbounded (true
    // group commit); 1 = one frame per batch, i.e. the per-write
    // baseline benches compare against.
    size_t max_batch_frames = 0;
    // Metrics sink. nullptr -> a private registry (metrics still kept,
    // just not exported anywhere).
    obs::MetricsRegistry* metrics = nullptr;
    Clock* clock = nullptr;  // nullptr -> RealClock::Default()
  };

  // Opaque per-log handle. Stable for the pipeline's lifetime.
  struct Target;

  CommitPipeline();
  explicit CommitPipeline(Options opts);
  ~CommitPipeline();

  CommitPipeline(const CommitPipeline&) = delete;
  CommitPipeline& operator=(const CommitPipeline&) = delete;

  using FileSlot = std::unique_ptr<WritableFile>;

  // Registers a log. The target starts detached (no file); WithFile puts
  // one in. `health` (optional) is degraded on batch failure with the
  // failing status as cause. `syncs` / `sync_failures` (optional) are
  // bumped per fsync attempt so owners keep their per-log sync counters.
  Target* Attach(std::string name, SyncPolicy sync,
                 HealthTracker* health = nullptr,
                 obs::Counter* syncs = nullptr,
                 obs::Counter* sync_failures = nullptr);

  // Blocking group commit of one framed record. Returns when durability
  // has been decided per the target's sync policy (see header comment).
  //
  // `gate` (optional) runs under the queue mutex immediately before the
  // frame is enqueued; a non-OK gate aborts the commit without enqueuing
  // and its status is returned verbatim. Gates must not block on locks
  // that Commit() callers hold across Commit().
  //
  // A detached target (no file) accepts and acks commits as OK
  // without writing, mirroring the legacy "log disabled" fast path.
  // A poisoned target fails fast with the poisoning status.
  Status Commit(Target* t, std::string frame,
                const std::function<Status()>& gate = nullptr);

  // Drains the target (all queued frames written, none in flight), parks
  // new Commit() calls, and runs `fn` on the calling thread with the
  // target's file slot. fn may write to the file directly (a segment
  // header, an epoch stamp), or close it and put another file — or none —
  // in the slot. When fn returns, whatever the slot holds is attached.
  // A different file is a freshly re-established log, so it clears the
  // poison latch; the same file stays poisoned. Returns fn's status.
  Status WithFile(Target* t, const std::function<Status(FileSlot& file)>& fn);

  // Drains the target, then syncs, closes and drops its file, leaving the
  // target detached. The first failure wins; a poisoned target reports
  // its poisoning status and is not synced again (fsyncgate).
  Status CloseFile(Target* t);

  // Installs a tap that observes every successfully committed batch's
  // bytes, in commit order, on the committer thread. Invoked only AFTER
  // the whole batch's write (and kAlways fsync) succeeded, so a mirror
  // fed by the tee can never resurrect a failed, rolled-back record.
  // Install/remove from within WithFile's fn. nullptr removes.
  void SetTee(Target* t, std::function<void(std::string_view)> tee);

  // Testing/introspection: frames queued and not yet retired — on one
  // target, or on every target (for owners that never see theirs). A batch
  // retires after its write, its acks and its timed-sync check.
  size_t QueuedFrames(Target* t) const;
  size_t QueuedFrames() const;

 private:
  struct Frame;

  void CommitterLoop();
  // Writes `t`'s queued frames batch by batch, then runs its timed sync
  // if one is due.
  void ProcessTarget(Target* t);
  // Clears in_flight under mu_, so a draining WithFile cannot miss it.
  void Settle(Target* t);
  Status PoisonStatus(Target* t) const;  // OK while not poisoned
  // Latches `s` as the target's poisoning status (the first one wins),
  // counts the failure and degrades the target's health.
  void Poison(Target* t, const Status& s);
  // fsyncs the target's file, timing it and bumping the target's counters.
  Status SyncFile(Target* t);
  // kEverySec target with unsynced bytes, not poisoned, whose last sync is
  // a second old. Reads atomics only, so the idle check takes no lock.
  bool SyncDue(const Target* t) const;
  // Issues the kEverySec fsync if one is due. Committer-only, with the
  // target's in_flight set.
  void MaybeTimedSync(Target* t);
  void DrainAllOnShutdown();
  uint64_t NowMicros() const;

  Options opts_;
  Clock* clock_;
  obs::MetricsRegistry owned_metrics_;
  obs::MetricsRegistry* metrics_;

  // Pipeline-wide obs (shared across targets; per-log stalls are
  // per-target histograms created in Attach).
  obs::Histogram* m_batch_frames_;
  obs::Histogram* m_fsync_us_;
  obs::Gauge* m_queue_depth_;
  obs::Counter* m_batches_;
  obs::Counter* m_frames_;
  obs::Counter* m_bytes_;
  obs::Counter* m_failures_;

  // Guards targets_ vector growth, shutdown flag, and committer wakeup.
  mutable std::mutex mu_;
  std::condition_variable cv_work_;   // committer waits here
  std::condition_variable cv_idle_;   // quiesce waits here
  std::vector<std::unique_ptr<Target>> targets_;
  bool shutdown_ = false;
  std::thread committer_;
};

}  // namespace gdpr
