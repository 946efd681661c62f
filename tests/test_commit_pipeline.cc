// Targeted coverage for group commit (storage/commit_log.h) — the
// behaviors the single-threaded fault
// sweep in test_fault_injection.cc cannot reach because its batches are
// always one frame deep:
//
//   * a lone writer leads its own batch, writing and syncing on its own
//     thread, and multi-writer frames coalesce into one write()+fsync
//     batch behind a leader;
//   * a mid-batch fsync failure fans the error out to EVERY writer in the
//     batch, poisons the log, degrades health, and none of the failed
//     batch's records survive on disk (fsyncgate: dirty pages dropped);
//     frames queued behind the failed batch fail without any I/O;
//   * kEverySec acks at write() return, syncs on its timed cadence (an
//     idle tail too, exactly once), never while a batch is being written,
//     and a timed-sync failure poisons without failing an acked caller;
//   * WithFile swaps (after an in-flight leader, with late writers landing
//     in the new file), detached-log acks, poison kept or cleared by
//     WithFile, CloseFile's sync, and gate aborts;
//   * the one idle-tail timer never visits a log that is gone;
//   * end-to-end over MemKV + FaultEnv: a crash inside the kEverySec
//     window loses at most the unsynced tail, and never a kAlways ack.

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/health.h"
#include "gdpr/audit.h"
#include "kvstore/db.h"
#include "obs/metrics.h"
#include "storage/commit_log.h"
#include "storage/env.h"
#include "storage/fault_env.h"

namespace gdpr {
namespace {

// Polls `pred` for up to ~5s of real time. The idle-tail timer runs on
// real time even when a log's clock is simulated, so tests that wait on
// its effects (idle-tail syncs, poison latching) spin here.
bool WaitFor(const std::function<bool()>& pred) {
  for (int i = 0; i < 5000; ++i) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return pred();
}

// WritableFile that buffers appends and makes Sync controllable, modeling
// a page cache the test owns: the Nth sync can block (to let writers pile
// up behind an in-flight batch) or fail-and-drop (fsyncgate semantics —
// the kernel marked the dirty pages clean on the way to the error, so the
// bytes are gone). Successful syncs flush the buffer to the base file.
class GateSyncFile : public WritableFile {
 public:
  explicit GateSyncFile(std::unique_ptr<WritableFile> base)
      : base_(std::move(base)) {}

  Status Append(std::string_view data) override {
    std::lock_guard<std::mutex> l(mu_);
    buf_.append(data);
    return Status::OK();
  }

  Status Sync() override {
    std::unique_lock<std::mutex> l(mu_);
    const int n = ++sync_calls_;
    if (n == block_sync_no_) {
      in_blocked_sync_ = true;
      cv_.notify_all();
      cv_.wait(l, [&] { return released_; });
      in_blocked_sync_ = false;
    }
    if (n == fail_sync_no_) {
      buf_.clear();  // dirty pages dropped while being marked clean
      return Status::IOError("injected fsync failure");
    }
    Status s = base_->Append(buf_);
    if (!s.ok()) return s;
    buf_.clear();
    return base_->Sync();
  }
  Status Close() override { return base_->Close(); }

  void BlockOnSync(int n) {
    std::lock_guard<std::mutex> l(mu_);
    block_sync_no_ = n;
  }
  void FailOnSync(int n) {
    std::lock_guard<std::mutex> l(mu_);
    fail_sync_no_ = n;
  }
  void WaitUntilBlockedInSync() {
    std::unique_lock<std::mutex> l(mu_);
    cv_.wait(l, [&] { return in_blocked_sync_; });
  }
  void ReleaseBlockedSync() {
    std::lock_guard<std::mutex> l(mu_);
    released_ = true;
    cv_.notify_all();
  }
  int sync_calls() const {
    std::lock_guard<std::mutex> l(mu_);
    return sync_calls_;
  }

 private:
  std::unique_ptr<WritableFile> base_;
  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::string buf_;
  int sync_calls_ = 0;
  int block_sync_no_ = 0;  // 0 = never block
  int fail_sync_no_ = 0;   // 0 = never fail
  bool in_blocked_sync_ = false;
  bool released_ = false;
};

std::unique_ptr<GateSyncFile> OpenGateFile(MemEnv* env,
                                           const std::string& path) {
  auto base = env->NewWritableFile(path, /*truncate=*/true);
  EXPECT_TRUE(base.ok());
  return std::make_unique<GateSyncFile>(std::move(base.value()));
}

// Puts `file` in the log: the log owns it from here on.
void PutFile(CommitLog& log, std::unique_ptr<WritableFile> file) {
  ASSERT_TRUE(log.WithFile([&](CommitLog::FileSlot& slot) {
                  slot = std::move(file);
                  return Status::OK();
                }).ok());
}

// Four writers, the first one's batch held inside its fsync: the three
// late arrivals coalesce into ONE second batch (one write, one fsync).
TEST(CommitLog, ConcurrentWritersCoalesceIntoOneBatch) {
  MemEnv mem;
  auto owned = OpenGateFile(&mem, "log");
  GateSyncFile* file = owned.get();
  file->BlockOnSync(1);
  obs::MetricsRegistry reg;
  CommitLog log("log", SyncPolicy::kAlways, nullptr, &reg);
  PutFile(log, std::move(owned));

  Status sa;
  std::thread wa([&] { sa = log.Commit("A|"); });
  file->WaitUntilBlockedInSync();

  Status sb, sc, sd;
  std::thread wb([&] { sb = log.Commit("B|"); });
  std::thread wc([&] { sc = log.Commit("C|"); });
  std::thread wd([&] { sd = log.Commit("D|"); });
  // A is still counted in `queued` until its batch retires, so 4 = A in
  // flight + B/C/D parked in the queue.
  ASSERT_TRUE(WaitFor([&] { return log.QueuedFrames() == 4; }));
  file->ReleaseBlockedSync();
  wa.join();
  wb.join();
  wc.join();
  wd.join();

  EXPECT_TRUE(sa.ok());
  EXPECT_TRUE(sb.ok());
  EXPECT_TRUE(sc.ok());
  EXPECT_TRUE(sd.ok());
  EXPECT_EQ(reg.GetCounter("commit_frames_total")->Value(), 4u);
  EXPECT_EQ(reg.GetCounter("commit_batches_total")->Value(), 2u);
  EXPECT_EQ(file->sync_calls(), 2);

  std::string bytes = mem.ReadFileToString("log").value();
  EXPECT_EQ(bytes.size(), 8u);
  EXPECT_EQ(bytes.substr(0, 2), "A|");  // first batch wrote first
  for (const char* f : {"B|", "C|", "D|"})
    EXPECT_NE(bytes.find(f), std::string::npos) << f;
}

// Records the thread that issues each Append and Sync.
class ThreadTrackingFile : public WritableFile {
 public:
  Status Append(std::string_view) override {
    std::lock_guard<std::mutex> l(mu_);
    append_thread_ = std::this_thread::get_id();
    return Status::OK();
  }
  Status Sync() override {
    std::lock_guard<std::mutex> l(mu_);
    sync_thread_ = std::this_thread::get_id();
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }

  std::thread::id append_thread() const {
    std::lock_guard<std::mutex> l(mu_);
    return append_thread_;
  }
  std::thread::id sync_thread() const {
    std::lock_guard<std::mutex> l(mu_);
    return sync_thread_;
  }

 private:
  mutable std::mutex mu_;
  std::thread::id append_thread_;
  std::thread::id sync_thread_;
};

// A writer that finds its log idle leads: it writes and fsyncs its own
// frame on its own thread, with no hand-off to another thread.
TEST(CommitLog, LoneWriterWritesOnItsOwnThread) {
  obs::MetricsRegistry reg;
  CommitLog log("log", SyncPolicy::kAlways, nullptr, &reg);
  auto owned = std::make_unique<ThreadTrackingFile>();
  ThreadTrackingFile* file = owned.get();
  PutFile(log, std::move(owned));

  ASSERT_TRUE(log.Commit("solo|").ok());
  EXPECT_EQ(file->append_thread(), std::this_thread::get_id());
  EXPECT_EQ(file->sync_thread(), std::this_thread::get_id());
  EXPECT_EQ(reg.GetCounter("commit_batches_total")->Value(), 1u);
}

// The satellite contract: a mid-batch fsync failure errors ALL writers in
// the batch, and none of their records are on disk afterwards.
TEST(CommitLog, MidBatchFsyncFailureFansOutToAllWriters) {
  MemEnv mem;
  auto owned = OpenGateFile(&mem, "log");
  GateSyncFile* file = owned.get();
  file->BlockOnSync(1);
  file->FailOnSync(2);
  obs::MetricsRegistry reg;
  HealthTracker health;
  CommitLog log("log", SyncPolicy::kAlways, nullptr, &reg, &health);
  PutFile(log, std::move(owned));

  Status sa;
  std::thread wa([&] { sa = log.Commit("A|"); });
  file->WaitUntilBlockedInSync();

  Status sb, sc, sd;
  std::thread wb([&] { sb = log.Commit("B|"); });
  std::thread wc([&] { sc = log.Commit("C|"); });
  std::thread wd([&] { sd = log.Commit("D|"); });
  ASSERT_TRUE(WaitFor([&] { return log.QueuedFrames() == 4; }));
  file->ReleaseBlockedSync();
  wa.join();
  wb.join();
  wc.join();
  wd.join();

  // A's batch synced before the injected failure; B/C/D shared the failed
  // batch and every one of them saw the error.
  EXPECT_TRUE(sa.ok());
  for (const Status* s : {&sb, &sc, &sd}) {
    EXPECT_FALSE(s->ok());
    EXPECT_NE(s->message().find("injected fsync failure"), std::string::npos)
        << s->ToString();
  }
  EXPECT_EQ(reg.GetCounter("commit_failures_total")->Value(), 1u);
  EXPECT_EQ(health.state(), HealthState::kDegradedReadOnly);

  // fsyncgate: poisoned, never retried — later commits fail fast with the
  // poisoning status and issue no further I/O.
  Status again = log.Commit("E|");
  EXPECT_FALSE(again.ok());
  EXPECT_NE(again.message().find("injected fsync failure"), std::string::npos);
  EXPECT_EQ(file->sync_calls(), 2);

  // No resurrection: the surviving bytes are exactly the acked batch.
  EXPECT_EQ(mem.ReadFileToString("log").value(), "A|");
}

// fsyncgate under concurrency: frames that queued behind a batch whose
// fsync failed are never written to, or synced on, the poisoned file. They
// fail with the poisoning status, and the log's failure count stays at
// the one failed batch.
TEST(CommitLog, FramesQueuedBehindAFailedBatchFailWithoutIO) {
  MemEnv mem;
  auto owned = OpenGateFile(&mem, "log");
  GateSyncFile* file = owned.get();
  file->BlockOnSync(1);
  file->FailOnSync(1);
  obs::MetricsRegistry reg;
  CommitLog log("log", SyncPolicy::kAlways, nullptr, &reg);
  PutFile(log, std::move(owned));

  Status sa;
  std::thread wa([&] { sa = log.Commit("A|"); });
  file->WaitUntilBlockedInSync();
  Status sb, sc;
  std::thread wb([&] { sb = log.Commit("B|"); });
  std::thread wc([&] { sc = log.Commit("C|"); });
  ASSERT_TRUE(WaitFor([&] { return log.QueuedFrames() == 3; }));
  file->ReleaseBlockedSync();
  wa.join();
  wb.join();
  wc.join();

  for (const Status* s : {&sa, &sb, &sc}) {
    EXPECT_NE(s->message().find("injected fsync failure"), std::string::npos)
        << s->ToString();
  }
  EXPECT_EQ(file->sync_calls(), 1);
  EXPECT_EQ(reg.GetCounter("commit_failures_total")->Value(), 1u);
  EXPECT_EQ(reg.GetCounter("commit_batches_total")->Value(), 0u);
  EXPECT_EQ(mem.ReadFileToString("log").value(), "");
}

// max_batch_frames=1 is the per-write baseline the benches compare
// against: every frame pays its own write()+fsync, no coalescing ever.
TEST(CommitLog, PerWriteBaselineNeverCoalesces) {
  MemEnv mem;
  obs::MetricsRegistry reg;
  CommitLog log("log", SyncPolicy::kAlways, nullptr, &reg,
                /*health=*/nullptr, /*syncs=*/nullptr,
                /*sync_failures=*/nullptr, /*max_batch_frames=*/1);
  PutFile(log, OpenGateFile(&mem, "log"));

  constexpr size_t kThreads = 4, kFrames = 8;
  std::vector<std::thread> ws;
  std::atomic<size_t> failures{0};
  for (size_t i = 0; i < kThreads; ++i) {
    ws.emplace_back([&] {
      for (size_t j = 0; j < kFrames; ++j)
        if (!log.Commit("x").ok()) failures.fetch_add(1);
    });
  }
  for (auto& w : ws) w.join();

  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(reg.GetCounter("commit_frames_total")->Value(),
            kThreads * kFrames);
  EXPECT_EQ(reg.GetCounter("commit_batches_total")->Value(),
            kThreads * kFrames);
  EXPECT_EQ(mem.ReadFileToString("log").value().size(), kThreads * kFrames);
}

// WithFile drains the log and swaps its file, a detached log acks
// without writing, and a gate abort returns verbatim without
// enqueuing anything.
TEST(CommitLog, WithFileSwapDetachAndGateAbort) {
  MemEnv mem;
  CommitLog log("log", SyncPolicy::kAlways, nullptr, nullptr);
  PutFile(log, OpenGateFile(&mem, "log1"));

  ASSERT_TRUE(log.Commit("one|").ok());

  // Swap to log2; the drain guarantee means log1 holds everything
  // committed before the swap.
  Status qs = log.WithFile([&](CommitLog::FileSlot& file) {
    EXPECT_EQ(log.QueuedFrames(), 0u);
    EXPECT_TRUE(file->Close().ok());
    file = OpenGateFile(&mem, "log2");
    return Status::OK();
  });
  ASSERT_TRUE(qs.ok());
  ASSERT_TRUE(log.Commit("two|").ok());
  EXPECT_EQ(mem.ReadFileToString("log1").value(), "one|");
  EXPECT_EQ(mem.ReadFileToString("log2").value(), "two|");

  // Detached: commits ack OK, nothing is written anywhere.
  ASSERT_TRUE(log.WithFile([&](CommitLog::FileSlot& file) {
                  file.reset();
                  return Status::OK();
                }).ok());
  ASSERT_TRUE(log.Commit("three|").ok());
  EXPECT_EQ(mem.ReadFileToString("log2").value(), "two|");

  // Gate abort: status comes back verbatim, no frame enqueued.
  auto reopened = mem.NewWritableFile("log2", /*truncate=*/false);
  ASSERT_TRUE(reopened.ok());
  PutFile(log, std::move(reopened.value()));
  Status gs = log.Commit("four|", [] {
    return Status::FailedPrecondition("gate says no");
  });
  EXPECT_FALSE(gs.ok());
  EXPECT_EQ(gs.message(), "gate says no");
  EXPECT_EQ(log.QueuedFrames(), 0u);
  EXPECT_EQ(mem.ReadFileToString("log2").value(), "two|");
}

// WithFile drains behind a leader that is still in its fsync: its fn does
// not run until that batch is done, so the old file holds the batch. A
// writer that arrives while fn swaps the file parks, then lands in the new
// file.
TEST(CommitLog, WithFileWaitsForAnInFlightLeader) {
  MemEnv mem;
  CommitLog log("log", SyncPolicy::kAlways, nullptr, nullptr);
  auto owned = OpenGateFile(&mem, "log1");
  GateSyncFile* file = owned.get();
  file->BlockOnSync(1);
  PutFile(log, std::move(owned));

  Status sa;
  std::thread wa([&] { sa = log.Commit("A|"); });
  file->WaitUntilBlockedInSync();

  std::mutex mu;
  std::condition_variable cv;
  bool in_fn = false, release_fn = false;
  Status swap;
  std::thread swapper([&] {
    swap = log.WithFile([&](CommitLog::FileSlot& slot) {
      std::unique_lock<std::mutex> l(mu);
      in_fn = true;
      cv.notify_all();
      cv.wait(l, [&] { return release_fn; });
      Status c = slot->Close();
      slot = OpenGateFile(&mem, "log2");
      return c;
    });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  {
    std::lock_guard<std::mutex> l(mu);
    EXPECT_FALSE(in_fn) << "fn ran while the leader's fsync was in flight";
  }
  file->ReleaseBlockedSync();
  wa.join();
  EXPECT_TRUE(sa.ok());
  {
    std::unique_lock<std::mutex> l(mu);
    cv.wait(l, [&] { return in_fn; });
  }

  std::atomic<bool> b_done{false};
  Status sb;
  std::thread wb([&] {
    sb = log.Commit("B|");
    b_done.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(b_done.load()) << "a commit ran while fn held the file";
  {
    std::lock_guard<std::mutex> l(mu);
    release_fn = true;
    cv.notify_all();
  }
  swapper.join();
  wb.join();
  EXPECT_TRUE(swap.ok());
  EXPECT_TRUE(sb.ok());
  EXPECT_EQ(mem.ReadFileToString("log1").value(), "A|");
  EXPECT_EQ(mem.ReadFileToString("log2").value(), "B|");
}

// The poison latch clears only when WithFile leaves a different file in
// the slot: writing to the poisoned file (or just looking at it) keeps the
// log poisoned, and a replacement re-establishes it.
TEST(CommitLog, PoisonClearsOnlyWhenWithFileReplacesTheFile) {
  MemEnv mem;
  auto owned = OpenGateFile(&mem, "log1");
  owned->FailOnSync(1);
  HealthTracker health;
  CommitLog log("log", SyncPolicy::kAlways, nullptr, nullptr, &health);
  PutFile(log, std::move(owned));
  ASSERT_FALSE(log.Commit("lost|").ok());

  ASSERT_TRUE(log.WithFile([&](CommitLog::FileSlot& file) {
                  return file->Append("direct|");
                }).ok());
  Status still = log.Commit("refused|");
  EXPECT_FALSE(still.ok());
  EXPECT_NE(still.message().find("injected fsync failure"),
            std::string::npos);

  // Free the old file before opening the new one, so the replacement may
  // well reuse its address: it must still count as a new file.
  ASSERT_TRUE(log.WithFile([&](CommitLog::FileSlot& file) {
                  file.reset();
                  file = OpenGateFile(&mem, "log2");
                  return Status::OK();
                }).ok());
  ASSERT_TRUE(log.Commit("healed|").ok());
  EXPECT_EQ(mem.ReadFileToString("log2").value(), "healed|");
}

// CloseFile writes what was queued, syncs, closes and detaches; a failed
// final sync is the close's status, and later commits ack detached.
TEST(CommitLog, CloseFileSyncsAndReportsTheFirstFailure) {
  MemEnv mem;
  CommitLog log("log", SyncPolicy::kNever, nullptr, nullptr);
  auto owned = OpenGateFile(&mem, "log");
  GateSyncFile* file = owned.get();
  PutFile(log, std::move(owned));
  ASSERT_TRUE(log.Commit("kept|").ok());
  EXPECT_EQ(file->sync_calls(), 0);  // kNever: no fsync before close
  ASSERT_TRUE(log.CloseFile().ok());
  EXPECT_EQ(mem.ReadFileToString("log").value(), "kept|");
  ASSERT_TRUE(log.Commit("detached|").ok());
  EXPECT_EQ(mem.ReadFileToString("log").value(), "kept|");

  owned = OpenGateFile(&mem, "log2");
  owned->FailOnSync(1);
  PutFile(log, std::move(owned));
  ASSERT_TRUE(log.Commit("dropped|").ok());
  Status cs = log.CloseFile();
  EXPECT_FALSE(cs.ok());
  EXPECT_NE(cs.message().find("injected fsync failure"), std::string::npos);
}

// kEverySec ack contract: Commit returns once write() succeeded — no
// fsync on the ack path. The log syncs on its own once the interval
// elapses, and a timed-sync failure poisons the log (degrading future
// commits) instead of failing a caller that was already acked. Each clock
// advance is followed by a wait for the sync it makes due: a leader may
// run it after its batch, or the timer thread on its next idle wakeup,
// never both.
TEST(CommitLog, EverySecAcksBeforeSyncAndTimedFailurePoisons) {
  MemEnv mem;
  auto owned = OpenGateFile(&mem, "log");
  GateSyncFile* file = owned.get();
  SimulatedClock clock(0);
  obs::MetricsRegistry reg;
  HealthTracker health;
  CommitLog log("log", SyncPolicy::kEverySec, &clock, &reg, &health);
  PutFile(log, std::move(owned));

  ASSERT_TRUE(log.Commit("a|").ok());
  EXPECT_EQ(file->sync_calls(), 0);  // acked with zero fsyncs issued

  // Interval elapses; the timed sync flushes.
  clock.AdvanceSeconds(2);
  ASSERT_TRUE(WaitFor([&] { return file->sync_calls() == 1; }));
  ASSERT_TRUE(
      WaitFor([&] { return mem.ReadFileToString("log").value() == "a|"; }));
  // The interval restarted at that sync: b| acks with no fsync of its own.
  ASSERT_TRUE(log.Commit("b|").ok());
  EXPECT_EQ(file->sync_calls(), 1);

  // Timed-sync failure: the acked caller still got OK (its write
  // succeeded); the poison surfaces on the NEXT commit, and health
  // degrades so the store stops taking writes.
  file->FailOnSync(2);
  clock.AdvanceSeconds(2);
  ASSERT_TRUE(WaitFor([&] { return !log.Commit("c|").ok(); }));
  Status poisoned = log.Commit("d|");
  EXPECT_NE(poisoned.message().find("injected fsync failure"),
            std::string::npos);
  EXPECT_EQ(health.state(), HealthState::kDegradedReadOnly);
  EXPECT_EQ(reg.GetCounter("commit_failures_total")->Value(), 1u);
  EXPECT_EQ(file->sync_calls(), 2);  // poisoned: never synced again
  EXPECT_EQ(mem.ReadFileToString("log").value(), "a|");  // b| dropped
}

// A log whose writes stop still gets its tail synced: the timer thread's
// idle wakeup runs the timed sync once the interval has passed, exactly
// once, and a later interval with nothing new written syncs nothing.
TEST(CommitLog, EverySecSyncsAnIdleTail) {
  MemEnv mem;
  auto owned = OpenGateFile(&mem, "log");
  GateSyncFile* file = owned.get();
  SimulatedClock clock(0);
  CommitLog log("log", SyncPolicy::kEverySec, &clock, nullptr);
  PutFile(log, std::move(owned));

  ASSERT_TRUE(log.Commit("tail|").ok());
  // The batch retires after its own timed-sync check: once it has, only
  // an idle wakeup can sync the tail.
  ASSERT_TRUE(WaitFor([&] { return log.QueuedFrames() == 0; }));
  clock.AdvanceSeconds(2);
  ASSERT_TRUE(WaitFor([&] { return file->sync_calls() == 1; }));
  EXPECT_EQ(mem.ReadFileToString("log").value(), "tail|");

  // Several idle wakeups (100 ms apiece), then another interval: nothing
  // was written since the sync, so nothing is synced.
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  clock.AdvanceSeconds(2);
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  EXPECT_EQ(file->sync_calls(), 1);
}

// Counts the Append and Sync calls in flight on it, and fails any call
// that starts while another is still running. Each call stays open for a
// while (a sync much longer than an append), so an overlap shows.
class OverlapCheckFile : public WritableFile {
 public:
  Status Append(std::string_view) override {
    return Enter(&appends_, std::chrono::microseconds(20));
  }
  Status Sync() override {
    return Enter(&syncs_, std::chrono::milliseconds(5));
  }
  Status Close() override { return Status::OK(); }

  int overlaps() const { return overlaps_.load(); }
  int syncs() const { return syncs_.load(); }

 private:
  Status Enter(std::atomic<int>* calls, std::chrono::microseconds hold) {
    calls->fetch_add(1);
    const bool overlapped = active_.fetch_add(1) != 0;
    std::this_thread::sleep_for(hold);
    active_.fetch_sub(1);
    if (!overlapped) return Status::OK();
    overlaps_.fetch_add(1);
    return Status::IOError("overlapping file I/O");
  }

  std::atomic<int> active_{0};
  std::atomic<int> overlaps_{0};
  std::atomic<int> appends_{0};
  std::atomic<int> syncs_{0};
};

// A timed sync holds the lead, whether a leader runs it after its batch or
// the timer thread runs it for an idle tail, so it never overlaps a
// batch's write. Four kEverySec writers run while the clock keeps making
// syncs due. Each round first lets leaders sync mid-run, then parks the
// writers so the tail goes idle, and releases them into the timer
// thread's sync of that tail: they must queue behind it.
TEST(CommitLog, TimedSyncNeverOverlapsABatch) {
  SimulatedClock clock(0);
  CommitLog log("log", SyncPolicy::kEverySec, &clock, nullptr);
  auto owned = std::make_unique<OverlapCheckFile>();
  OverlapCheckFile* file = owned.get();
  PutFile(log, std::move(owned));

  std::atomic<bool> stop{false}, hold{false};
  std::atomic<int> parked{0}, failures{0};
  std::vector<std::thread> writers;
  for (int w = 0; w < 4; ++w) {
    writers.emplace_back([&] {
      while (!stop.load()) {
        if (hold.load()) {
          parked.fetch_add(1);
          while (hold.load() && !stop.load())
            std::this_thread::sleep_for(std::chrono::microseconds(50));
          parked.fetch_sub(1);
          continue;
        }
        if (!log.Commit("x").ok()) failures.fetch_add(1);
      }
    });
  }
  int idle_syncs = 0;
  for (int round = 0; round < 5; ++round) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    clock.AdvanceSeconds(2);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    hold.store(true);
    ASSERT_TRUE(WaitFor([&] { return parked.load() == 4; }));
    const int before = file->syncs();
    clock.AdvanceSeconds(2);
    if (WaitFor([&] { return file->syncs() > before; })) ++idle_syncs;
    hold.store(false);
  }
  stop.store(true);
  for (auto& w : writers) w.join();

  EXPECT_EQ(file->overlaps(), 0);
  EXPECT_EQ(failures.load(), 0);
  EXPECT_GT(idle_syncs, 0);
}

// Counts its syncs, each held open for a few milliseconds, so a log that
// is destroyed mid-visit finds the timer inside one.
class SlowSyncFile : public WritableFile {
 public:
  explicit SlowSyncFile(std::atomic<int>* syncs) : syncs_(syncs) {}
  Status Append(std::string_view) override { return Status::OK(); }
  Status Sync() override {
    std::this_thread::sleep_for(std::chrono::milliseconds(3));
    syncs_->fetch_add(1);
    return Status::OK();
  }
  Status Close() override { return Status::OK(); }

 private:
  std::atomic<int>* syncs_;
};

// The one idle-tail timer outlives every log it syncs. Logs are built and
// destroyed, and durable audit chains opened and closed, while it runs:
// one more log lives through the whole test, so the timer's thread does
// too. Each cycle leaves a kEverySec tail due for a sync, then drops the
// log whether or not the timer is inside that sync. A visit to a freed
// log is a use-after-free that TSAN and ASan report; the test also checks
// that the timer did sync some of the doomed logs, so the race was run.
TEST(CommitLog, TimerNeverVisitsADestroyedLog) {
  SimulatedClock clock(0);
  MemEnv mem;
  CommitLog keeps_timer_running("anchor", SyncPolicy::kEverySec, &clock,
                                nullptr);
  std::atomic<int> timer_syncs{0};
  std::mt19937 rng(47);
  const auto pause = [&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(rng() % 12));
  };
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  for (int cycle = 0; cycle < 40 || (timer_syncs.load() < 3 &&
                                     std::chrono::steady_clock::now() <
                                         deadline);
       ++cycle) {
    {
      CommitLog log("log", SyncPolicy::kEverySec, &clock, nullptr);
      PutFile(log, std::make_unique<SlowSyncFile>(&timer_syncs));
      // The lone writer's own timed-sync check finds nothing due; the
      // clock then makes the tail due, and only the timer can sync it.
      ASSERT_TRUE(log.Commit("x").ok());
      clock.AdvanceSeconds(2);
      pause();
    }

    AuditLog audit(/*seal_interval=*/1);
    AuditLogOptions ao;
    ao.env = &mem;
    ao.path = "audit";
    ao.sync_policy = SyncPolicy::kEverySec;
    ao.clock = &clock;
    ASSERT_TRUE(audit.OpenDurable(ao).ok());
    AuditEntry e;
    e.actor_id = "a";
    e.op = "READ-DATA-BY-KEY";
    e.key = std::to_string(cycle);
    audit.Append(e);
    clock.AdvanceSeconds(2);
    pause();
    ASSERT_TRUE(audit.CloseDurable().ok());
  }
  EXPECT_GE(timer_syncs.load(), 3);
}

// ---- end-to-end over MemKV + FaultEnv --------------------------------------

// Crash inside the kEverySec window: everything covered by the last timed
// sync survives; the unsynced tail is the ONLY thing at risk, and a torn
// tail never corrupts what came before it.
TEST(CommitLog, EverySecCrashLosesAtMostTheUnsyncedTail) {
  MemEnv mem;
  FaultEnv fenv(&mem, /*seed=*/0xc0117);
  SimulatedClock clock(0);
  {
    kv::Options o;
    o.env = &fenv;
    o.clock = &clock;
    o.shards = 4;
    o.aof_enabled = true;
    o.aof_path = "kv/aof";
    o.sync_policy = SyncPolicy::kEverySec;
    kv::MemKV db(o);
    ASSERT_TRUE(db.Open().ok());

    // Each write is followed by an interval and a wait for the timed sync
    // it makes due, which flushes it through FaultEnv's write buffer to
    // the base MemEnv.
    const auto synced = [&](const char* payload) {
      return WaitFor([&] {
        auto s = mem.ReadFileToString("kv/aof");
        return s.ok() && s.value().find(payload) != std::string::npos;
      });
    };
    ASSERT_TRUE(db.Set("k1", "alpha-payload-1").ok());
    clock.AdvanceSeconds(2);
    ASSERT_TRUE(synced("alpha-payload-1"));
    ASSERT_TRUE(db.Set("k2", "beta-payload-2").ok());
    clock.AdvanceSeconds(2);
    ASSERT_TRUE(synced("beta-payload-2"));

    // k3 lands in the window: written, acked, NOT yet synced.
    ASSERT_TRUE(db.Set("k3", "gamma-payload-3").ok());

    // Crash at the next failable op: pending buffers spill as a
    // pseudo-random (possibly torn) prefix, later I/O is abandoned.
    FaultPlan plan;
    plan.crash_at_op = fenv.op_count() + 1;
    fenv.set_plan(plan);
    db.Close().ok();
    ASSERT_TRUE(fenv.crashed());
  }

  // Reopen from the surviving bytes (the base env — the crash world).
  kv::Options o2;
  o2.env = &mem;
  o2.shards = 4;
  o2.aof_enabled = true;
  o2.aof_path = "kv/aof";
  kv::MemKV db2(o2);
  ASSERT_TRUE(db2.Open().ok());
  EXPECT_EQ(db2.Get("k1").value(), "alpha-payload-1");
  EXPECT_EQ(db2.Get("k2").value(), "beta-payload-2");
  // Bounded loss: k3 is the unsynced tail — allowed to be gone, but if the
  // torn prefix happened to carry its whole record it must be intact.
  auto g3 = db2.Get("k3");
  if (g3.ok()) {
    EXPECT_EQ(g3.value(), "gamma-payload-3");
  }
}

// The contrast case: a kAlways ack means the group commit fsynced before
// Commit() returned, so no later crash can take the write back.
TEST(CommitLog, AlwaysAckedWriteSurvivesCrash) {
  MemEnv mem;
  FaultEnv fenv(&mem, /*seed=*/0xc0117);
  {
    kv::Options o;
    o.env = &fenv;
    o.shards = 4;
    o.aof_enabled = true;
    o.aof_path = "kv/aof";
    o.sync_policy = SyncPolicy::kAlways;
    kv::MemKV db(o);
    ASSERT_TRUE(db.Open().ok());
    ASSERT_TRUE(db.Set("a1", "acked-payload").ok());  // durable on return

    FaultPlan plan;
    plan.crash_at_op = fenv.op_count() + 1;
    fenv.set_plan(plan);
    db.Set("a2", "doomed").ok();  // post-crash: ack means nothing now
    db.Close().ok();
  }

  kv::Options o2;
  o2.env = &mem;
  o2.shards = 4;
  o2.aof_enabled = true;
  o2.aof_path = "kv/aof";
  kv::MemKV db2(o2);
  ASSERT_TRUE(db2.Open().ok());
  EXPECT_EQ(db2.Get("a1").value(), "acked-payload");
}

}  // namespace
}  // namespace gdpr
