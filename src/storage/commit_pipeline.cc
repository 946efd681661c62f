#include "storage/commit_pipeline.h"

#include <atomic>
#include <chrono>
#include <deque>

namespace gdpr {

namespace {
constexpr int64_t kEverySecIntervalMicros = 1000000;
}  // namespace

// One blocked Commit() call. Lives on the caller's stack; the committer
// must fully publish the outcome before notifying and never touch the
// waiter afterwards.
struct CommitWaiter {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Status status;

  // Notifies under the mutex: the waiter frees its stack slot the moment
  // it observes done, so a notify after unlock would race the condvar's
  // destruction.
  void Finish(const Status& s) {
    std::lock_guard<std::mutex> l(mu);
    status = s;
    done = true;
    cv.notify_one();
  }
};

struct CommitPipeline::Frame {
  std::string bytes;
  CommitWaiter* waiter = nullptr;
  uint64_t enqueue_us = 0;
};

struct CommitPipeline::Target {
  std::string name;
  SyncPolicy sync = SyncPolicy::kAlways;
  HealthTracker* health = nullptr;
  obs::Counter* syncs = nullptr;
  obs::Counter* sync_failures = nullptr;
  obs::Histogram* stall_us = nullptr;

  // Changed only inside WithFile (committer idle, writers parked), so the
  // committer reads these without a lock.
  std::unique_ptr<WritableFile> file;
  std::function<void(std::string_view)> tee;

  // Writers contend on the queue mutex; its own cache line keeps them off
  // the committer's atomics below.
  alignas(64) std::mutex queue_mu;
  std::deque<Frame> queue;

  alignas(64) std::atomic<size_t> queued{0};
  std::atomic<bool> in_flight{false};
  std::atomic<bool> quiescing{false};
  std::atomic<bool> poisoned{false};
  // Bytes written since the last sync, and when that sync ran. Written by
  // the committer (and by WithFile while it is parked); the committer's
  // idle check reads them without the in_flight handshake.
  std::atomic<bool> unsynced{false};
  std::atomic<int64_t> last_sync_us{0};
  Status poison_status;  // guarded by pipeline mu_

  // Writers hold shared while enqueuing; WithFile holds unique so a
  // swap/rotation never races an enqueue.
  std::shared_mutex pause_mu;
};

CommitPipeline::CommitPipeline() : CommitPipeline(Options()) {}

CommitPipeline::CommitPipeline(Options opts)
    : opts_(opts),
      clock_(opts.clock ? opts.clock : RealClock::Default()),
      metrics_(opts.metrics ? opts.metrics : &owned_metrics_) {
  m_batch_frames_ = metrics_->GetHistogram("commit_batch_frames");
  m_fsync_us_ = metrics_->GetHistogram("commit_fsync_us");
  m_queue_depth_ = metrics_->GetGauge("commit_queue_depth");
  m_batches_ = metrics_->GetCounter("commit_batches_total");
  m_frames_ = metrics_->GetCounter("commit_frames_total");
  m_bytes_ = metrics_->GetCounter("commit_bytes_total");
  m_failures_ = metrics_->GetCounter("commit_failures_total");
  committer_ = std::thread([this] { CommitterLoop(); });
}

CommitPipeline::~CommitPipeline() {
  {
    std::lock_guard<std::mutex> l(mu_);
    shutdown_ = true;
  }
  cv_work_.notify_one();
  if (committer_.joinable()) committer_.join();
  DrainAllOnShutdown();
}

uint64_t CommitPipeline::NowMicros() const {
  return static_cast<uint64_t>(clock_->NowMicros());
}

CommitPipeline::Target* CommitPipeline::Attach(std::string name,
                                               SyncPolicy sync,
                                               HealthTracker* health,
                                               obs::Counter* syncs,
                                               obs::Counter* sync_failures) {
  auto t = std::make_unique<Target>();
  t->name = std::move(name);
  t->sync = sync;
  t->health = health;
  t->syncs = syncs;
  t->sync_failures = sync_failures;
  t->stall_us =
      metrics_->GetHistogram("commit_stall_us{log=\"" + t->name + "\"}");
  t->last_sync_us.store(clock_->NowMicros());
  Target* out = t.get();
  std::lock_guard<std::mutex> l(mu_);
  targets_.push_back(std::move(t));
  return out;
}

Status CommitPipeline::Commit(Target* t, std::string frame,
                              const std::function<Status()>& gate) {
  CommitWaiter w;
  {
    std::shared_lock<std::shared_mutex> pause(t->pause_mu);
    if (t->poisoned.load(std::memory_order_acquire)) return PoisonStatus(t);
    std::lock_guard<std::mutex> ql(t->queue_mu);
    // The gate runs under the queue mutex: whatever state it observes is
    // ordered against every other gated enqueue on this target.
    if (gate) {
      Status gs = gate();
      if (!gs.ok()) return gs;
    }
    // Detached log: accept and ack without writing (legacy "log disabled"
    // fast path — e.g. MemKV with aof_enabled=false).
    if (t->file == nullptr) return Status::OK();
    Frame f;
    f.bytes = std::move(frame);
    f.waiter = &w;
    f.enqueue_us = NowMicros();
    t->queue.push_back(std::move(f));
    t->queued.fetch_add(1, std::memory_order_acq_rel);
  }
  // Lock-then-notify so a committer mid-predicate-evaluation cannot miss
  // the wakeup (our enqueue isn't under mu_).
  {
    std::lock_guard<std::mutex> l(mu_);
  }
  cv_work_.notify_one();
  std::unique_lock<std::mutex> wl(w.mu);
  w.cv.wait(wl, [&] { return w.done; });
  return w.status;
}

Status CommitPipeline::WithFile(
    Target* t, const std::function<Status(FileSlot& file)>& fn) {
  std::unique_lock<std::shared_mutex> pause(t->pause_mu);
  t->quiescing.store(true);  // seq_cst: pairs with the committer's
                             // in_flight handshake around timed syncs
  {
    std::unique_lock<std::mutex> l(mu_);
    cv_work_.notify_one();  // kick the committer to drain us
    cv_idle_.wait(l, [&] {
      return t->queued.load() == 0 && !t->in_flight.load();
    });
  }
  // Serials, not addresses: a handle opened after the old one was freed
  // may reuse its address and must still count as a new file.
  const auto serial = [&] { return t->file ? t->file->serial() : 0; };
  const uint64_t before = serial();
  Status s = fn(t->file);
  if (serial() != before) {
    t->last_sync_us.store(clock_->NowMicros());
    t->unsynced.store(false);
    std::lock_guard<std::mutex> l(mu_);
    t->poison_status = Status::OK();
    t->poisoned.store(false, std::memory_order_release);
  }
  t->quiescing.store(false);
  return s;
}

Status CommitPipeline::CloseFile(Target* t) {
  return WithFile(t, [&](FileSlot& file) {
    if (!file) return Status::OK();
    Status s = PoisonStatus(t);  // OK unless poisoned
    if (s.ok()) s = SyncFile(t);
    Status c = file->Close();
    file.reset();
    return s.ok() ? c : s;
  });
}

void CommitPipeline::SetTee(Target* t,
                            std::function<void(std::string_view)> tee) {
  t->tee = std::move(tee);
}

size_t CommitPipeline::QueuedFrames(Target* t) const {
  return t->queued.load();
}

size_t CommitPipeline::QueuedFrames() const {
  std::lock_guard<std::mutex> l(mu_);
  size_t n = 0;
  for (const auto& t : targets_) n += t->queued.load();
  return n;
}

void CommitPipeline::CommitterLoop() {
  std::vector<Target*> ts;
  for (;;) {
    {
      std::unique_lock<std::mutex> l(mu_);
      // The timeout is the kEverySec clock: an idle wakeup still runs
      // ProcessTarget, which syncs a tail that is due.
      cv_work_.wait_for(l, std::chrono::milliseconds(100), [&] {
        if (shutdown_) return true;
        for (const auto& t : targets_)
          if (t->queued.load() > 0) return true;
        return false;
      });
      if (shutdown_) return;
      ts.clear();
      for (const auto& t : targets_) ts.push_back(t.get());
    }
    for (Target* t : ts) ProcessTarget(t);
  }
}

void CommitPipeline::ProcessTarget(Target* t) {
  while (t->queued.load(std::memory_order_acquire) > 0) {
    m_queue_depth_->Set(static_cast<int64_t>(t->queued.load()));
    // Mark in-flight BEFORE decrementing queued so WithFile never
    // observes (queued==0, !in_flight) while a batch is outstanding.
    t->in_flight.store(true);
    std::vector<Frame> batch;
    {
      const size_t maxf = opts_.max_batch_frames;
      std::lock_guard<std::mutex> ql(t->queue_mu);
      while (!t->queue.empty() && (maxf == 0 || batch.size() < maxf)) {
        batch.push_back(std::move(t->queue.front()));
        t->queue.pop_front();
      }
    }
    if (batch.empty()) {
      Settle(t);
      break;
    }

    std::string buf;
    size_t bytes = 0;
    for (const Frame& f : batch) bytes += f.bytes.size();
    buf.reserve(bytes);
    for (const Frame& f : batch) buf.append(f.bytes);

    Status s = t->file->Append(buf);
    if (s.ok()) t->unsynced.store(true, std::memory_order_release);
    if (s.ok() && t->sync == SyncPolicy::kAlways) s = SyncFile(t);

    if (!s.ok()) {
      // fsyncgate: the handle may have dropped dirty pages while marking
      // them clean — poison the target, never retry; only a full
      // rewrite-from-memory (a new file via WithFile) re-establishes it.
      // Every waiter in the batch gets the failure.
      Poison(t, s);
      for (Frame& f : batch) f.waiter->Finish(s);
    } else {
      m_batch_frames_->Record(batch.size());
      m_batches_->Add(1);
      m_frames_->Add(batch.size());
      m_bytes_->Add(bytes);
      // The tee observes only fully committed batches (post-write, and
      // post-fsync under kAlways): a failed batch, whose callers log
      // before they apply and so never changed memory, can never leak
      // into a compaction mirror.
      if (t->tee) t->tee(buf);
      uint64_t now = NowMicros();
      for (Frame& f : batch) {
        t->stall_us->Record(now >= f.enqueue_us ? now - f.enqueue_us : 0);
        f.waiter->Finish(Status::OK());
      }
      // Under sustained load this loop never exits, so the timed sync
      // rides the batches too.
      MaybeTimedSync(t);
    }

    t->queued.fetch_sub(batch.size(), std::memory_order_acq_rel);
    Settle(t);
  }

  // Idle tail: writes stopped with bytes still unsynced. The in_flight
  // handshake keeps us off the file while WithFile swaps it: we set
  // in_flight, THEN check quiescing; the quiescer sets quiescing, THEN
  // waits for !in_flight (both seq_cst, so at most one side proceeds).
  if (SyncDue(t)) {
    t->in_flight.store(true);
    if (!t->quiescing.load()) MaybeTimedSync(t);
    Settle(t);
  }
}

void CommitPipeline::Settle(Target* t) {
  {
    std::lock_guard<std::mutex> l(mu_);
    t->in_flight.store(false);
  }
  cv_idle_.notify_all();
}

Status CommitPipeline::PoisonStatus(Target* t) const {
  std::lock_guard<std::mutex> l(mu_);
  return t->poison_status;
}

void CommitPipeline::Poison(Target* t, const Status& s) {
  m_failures_->Add(1);
  {
    std::lock_guard<std::mutex> l(mu_);
    if (t->poison_status.ok()) t->poison_status = s;
    t->poisoned.store(true, std::memory_order_release);
  }
  if (t->health) t->health->Degrade(s);
}

Status CommitPipeline::SyncFile(Target* t) {
  uint64_t t0 = NowMicros();
  Status s = t->file->Sync();
  m_fsync_us_->Record(NowMicros() - t0);
  if (s.ok()) {
    if (t->syncs) t->syncs->Add(1);
    t->unsynced.store(false, std::memory_order_release);
    t->last_sync_us.store(clock_->NowMicros(), std::memory_order_release);
  } else if (t->sync_failures) {
    t->sync_failures->Add(1);
  }
  return s;
}

bool CommitPipeline::SyncDue(const Target* t) const {
  return t->sync == SyncPolicy::kEverySec &&
         t->unsynced.load(std::memory_order_acquire) &&
         !t->poisoned.load(std::memory_order_acquire) &&
         clock_->NowMicros() -
                 t->last_sync_us.load(std::memory_order_acquire) >=
             kEverySecIntervalMicros;
}

void CommitPipeline::MaybeTimedSync(Target* t) {
  if (t->file == nullptr || !SyncDue(t)) return;
  Status s = SyncFile(t);
  if (s.ok()) return;
  // A timed fsync covers already-acked writes, so there is no caller to
  // fail — poison the target and degrade; future commits fail fast.
  Poison(t, s);
}

void CommitPipeline::DrainAllOnShutdown() {
  // Committer is joined; fail anything still queued so no waiter hangs.
  // Proper shutdown (owners CloseFile before destroying the pipeline)
  // never reaches here with queued frames.
  std::lock_guard<std::mutex> l(mu_);
  for (const auto& t : targets_) {
    std::lock_guard<std::mutex> ql(t->queue_mu);
    for (Frame& f : t->queue) {
      f.waiter->Finish(Status::Unavailable("commit pipeline shut down"));
    }
    t->queued.fetch_sub(t->queue.size());
    t->queue.clear();
  }
}

}  // namespace gdpr
