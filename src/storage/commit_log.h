// Group commit for one log: the MemKV AOF, the rel WAL, the rel statement
// log, or a durable audit chain's active segment. The code that owns the
// log's file owns its CommitLog; logs share nothing but the process-wide
// timer that syncs idle kEverySec tails.
//
// A writer that finds the log idle leads, as in the writers' queue of
// LevelDB's DBImpl::Write and RocksDB's WriteThread: on its own thread it
// takes the front of the FIFO (its own frame plus whatever has queued),
// writes it as one write() (+ one fsync under kAlways), acks every frame
// with the batch's outcome, and hands the lead to the front waiter, or
// drops it when none is queued. So a lone writer pays no thread hand-off,
// and writers that arrive during a batch coalesce into the next one. Batch
// failure fans out to ALL waiters in the batch and poisons the log
// (fsyncgate: never retried, and frames queued behind the failed batch
// fail without I/O); the owner's health degrades, and only a new file put
// in by WithFile (a full rewrite-from-memory) re-establishes the log.
//
// Owners reach the log's file only through WithFile (drain, run fn on the
// file slot, attach what it then holds) and end it with CloseFile (drain,
// sync, close).
//
// Ack contract per sync policy (see docs/PERSISTENCE.md "Group commit"):
//   kAlways   — after the batch's write AND fsync: the bytes are durable.
//   kEverySec — after the batch's write(). A leader fsyncs after its batch
//               once a second has passed since the last sync; the one
//               process-wide timer thread does the same for an idle log
//               at least every 100 ms, claiming the lead as a writer does.
//               A timed-fsync failure has no caller to fail: it poisons
//               and degrades.
//   kNever    — after write(); only CloseFile fsyncs.
//
// Ordering: a batch writes its frames in enqueue order. The enqueue `gate`
// runs under the queue mutex, so a gate that observes state X enqueues
// before any later frame whose gate observes X'.
//
// The leader writes, acks and runs the tee on a Commit() caller's thread,
// which may hold its own locks across Commit(): the tee and the leader
// take no lock that a Commit() caller holds across Commit().
//
// A single-threaded caller leads every batch itself, one frame each, so
// deterministic fault sweeps over FaultEnv keep their exact Append/Sync
// sequence.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>

#include "common/clock.h"
#include "common/health.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "storage/env.h"

namespace gdpr {

struct CommitWaiter;

class CommitLog {
 public:
  using FileSlot = std::unique_ptr<WritableFile>;

  // The log starts detached (no file); WithFile puts one in. Its owner
  // lends everything else. `name` labels the commit_stall_us row; `clock`
  // nullptr -> RealClock::Default(); `metrics` nullptr -> a private
  // registry (metrics still kept, just not exported anywhere). `health`
  // (optional) is degraded on batch failure with the failing status as
  // cause. `syncs` / `sync_failures` (optional) are bumped per fsync
  // attempt so owners keep their per-log sync counters.
  // `max_batch_frames` caps the frames coalesced into one write()+fsync:
  // 0 = unbounded (true group commit); 1 = one frame per batch, i.e. the
  // per-write baseline benches compare against.
  CommitLog(std::string name, SyncPolicy sync, Clock* clock,
            obs::MetricsRegistry* metrics, HealthTracker* health = nullptr,
            obs::Counter* syncs = nullptr,
            obs::Counter* sync_failures = nullptr,
            size_t max_batch_frames = 0);
  // Leaves the idle-tail timer, waiting out a sync it is running on this
  // log. A file still attached is dropped unsynced: owners CloseFile first.
  ~CommitLog();

  CommitLog(const CommitLog&) = delete;
  CommitLog& operator=(const CommitLog&) = delete;

  // Blocking group commit of one framed record. Returns when durability
  // has been decided per the log's sync policy (see header comment),
  // having written the batch itself if this caller led it.
  //
  // `gate` (optional) runs under the queue mutex immediately before the
  // frame is enqueued; a non-OK gate aborts the commit without enqueuing
  // and its status is returned verbatim. Gates must not block on locks
  // that Commit() callers hold across Commit().
  //
  // A detached log (no file) accepts and acks commits as OK without
  // writing. A poisoned log fails fast with the poisoning status.
  Status Commit(std::string frame,
                const std::function<Status()>& gate = nullptr);

  // Drains the log (all queued frames written), parks new Commit() calls,
  // takes the lead, and runs `fn` on the calling thread with the log's
  // file slot. fn may write to the file directly (a segment header, an
  // epoch stamp), or close it and put another file — or none — in the
  // slot. When fn returns, whatever the slot holds is attached. A
  // different file is a freshly re-established log, so it clears the
  // poison latch; the same file stays poisoned. Returns fn's status.
  Status WithFile(const std::function<Status(FileSlot& file)>& fn);

  // Drains the log, then syncs, closes and drops its file, leaving the
  // log detached. The first failure wins; a poisoned log reports its
  // poisoning status and is not synced again (fsyncgate).
  Status CloseFile();

  // Installs a tap that observes every successfully committed batch's
  // bytes, in commit order, on the leader's thread. Invoked only AFTER
  // the whole batch's write (and kAlways fsync) succeeded, so a mirror
  // fed by the tee can never resurrect a failed, rolled-back record.
  // Install/remove from within WithFile's fn. nullptr removes.
  void SetTee(std::function<void(std::string_view)> tee);

  // Testing/introspection: frames queued and not yet retired. A batch
  // retires after its write, its acks and its leader's timed-sync check.
  size_t QueuedFrames() const;

 private:
  friend class CommitTimer;
  struct Frame {
    std::string bytes;
    CommitWaiter* waiter = nullptr;
    uint64_t enqueue_us = 0;
  };

  // With the lead held and the caller's frame at the queue's front: writes
  // one batch, acks it, runs a due timed sync, and hands the lead on.
  void Lead();
  // Promotes the front waiter to leader, or drops the lead if none.
  void HandOff();
  // The timer's visit: claims an idle log's lead and runs a due timed sync.
  void IdleSync();
  Status PoisonStatus() const;  // OK while not poisoned
  // Latches `s` as the log's poisoning status (the first one wins), counts
  // the failure and degrades the log's health.
  void Poison(const Status& s);
  // fsyncs the log's file, timing it and bumping the log's counters.
  Status SyncFile();
  // kEverySec log with unsynced bytes, not poisoned, whose last sync is a
  // second old. Reads atomics only, so the idle check takes no lock.
  bool SyncDue() const;
  // Issues the kEverySec fsync if one is due. Only the lead holder calls it.
  void MaybeTimedSync();
  uint64_t NowMicros() const;

  const std::string name_;
  const SyncPolicy sync_;
  const size_t max_batch_frames_;
  Clock* const clock_;
  HealthTracker* const health_;
  obs::Counter* const syncs_;
  obs::Counter* const sync_failures_;
  obs::MetricsRegistry owned_metrics_;

  // Named per registry, so every log an owner builds on its registry
  // shares them; the stall histogram is per log.
  obs::Histogram* m_batch_frames_;
  obs::Histogram* m_fsync_us_;
  obs::Histogram* m_stall_us_;
  obs::Gauge* m_queue_depth_;
  obs::Counter* m_batches_;
  obs::Counter* m_frames_;
  obs::Counter* m_bytes_;
  obs::Counter* m_failures_;

  // Changed only inside WithFile, which holds the lead, so the lead
  // holder reads these without a lock.
  FileSlot file_;
  std::function<void(std::string_view)> tee_;

  // Writers contend on the queue mutex; its own cache line keeps them off
  // the atomics below.
  alignas(64) std::mutex queue_mu_;
  std::deque<Frame> queue_;
  // The lead is held (by a batch, a timed sync or WithFile). Frames queue
  // only behind a held lead, which is dropped only with the queue empty.
  bool in_flight_ = false;
  std::condition_variable lead_dropped_;  // WithFile waits here

  alignas(64) std::atomic<size_t> queued_{0};
  std::atomic<bool> poisoned_{false};
  // Bytes written since the last sync, and when that sync ran. Written by
  // the lead holder; the timer's idle check reads them without claiming
  // the lead.
  std::atomic<bool> unsynced_{false};
  std::atomic<int64_t> last_sync_us_{0};
  mutable std::mutex mu_;  // guards poison_status_
  Status poison_status_;

  // Writers hold shared while enqueuing; WithFile holds unique so a
  // swap/rotation never races an enqueue.
  std::shared_mutex pause_mu_;
};

}  // namespace gdpr
