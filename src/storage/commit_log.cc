#include "storage/commit_log.h"

#include <algorithm>
#include <chrono>
#include <thread>
#include <vector>

namespace gdpr {

namespace {
constexpr int64_t kEverySecIntervalMicros = 1000000;
}  // namespace

// One blocked Commit() call. Lives on the caller's stack; whoever acks or
// promotes it must fully publish the outcome before notifying and never
// touch the waiter afterwards.
struct CommitWaiter {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  bool lead = false;
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

  // Hands this waiter the lead; its frame is the front of the queue.
  void Promote() {
    std::lock_guard<std::mutex> l(mu);
    lead = true;
    cv.notify_one();
  }

  // Blocks until acked (false) or promoted to leader (true).
  bool AwaitLead() {
    std::unique_lock<std::mutex> l(mu);
    cv.wait(l, [&] { return done || lead; });
    return !done;
  }
};

// The one timer that syncs idle kEverySec tails, for every log in the
// process. Every live log registers. A sweep visits a log only while it is
// registered, and Unregister waits out a visit in progress, so the timer
// never touches a destroyed log. The thread runs while any log exists:
// the first log in starts it, the last one out stops and joins it. Built
// like EpochManager::Global(), but never destroyed, so a log with static
// storage can still unregister during exit.
class CommitTimer {
 public:
  static CommitTimer& Global() {
    static CommitTimer* timer = new CommitTimer();
    return *timer;
  }

  void Register(CommitLog* log) {
    std::lock_guard<std::mutex> l(mu_);
    logs_.push_back(log);
    // The last log out moved the previous thread away, so thread_ is free.
    if (logs_.size() == 1) {
      thread_ = std::thread([this, gen = ++generation_] { Loop(gen); });
    }
  }

  void Unregister(CommitLog* log) {
    std::thread stopped;
    {
      std::unique_lock<std::mutex> l(mu_);
      visit_done_.wait(l, [&] { return visiting_ != log; });
      logs_.erase(std::find(logs_.begin(), logs_.end(), log));
      if (!logs_.empty()) return;
      ++generation_;
      stopped = std::move(thread_);
    }
    wake_.notify_all();
    stopped.join();
  }

 private:
  // Sweeps every 100 ms until its generation ends. mu_ is released around
  // each visit, so registration never waits on an fsync; a log registered
  // or unregistered meanwhile may be skipped until the next sweep, which
  // is harmless. A thread whose generation has ended visits nothing more,
  // so it never overlaps its successor.
  void Loop(uint64_t gen) {
    std::unique_lock<std::mutex> l(mu_);
    const auto ended = [&] { return generation_ != gen; };
    while (!wake_.wait_for(l, std::chrono::milliseconds(100), ended)) {
      for (size_t i = 0; i < logs_.size() && !ended(); ++i) {
        CommitLog* log = logs_[i];
        if (!log->SyncDue()) continue;
        visiting_ = log;
        l.unlock();
        log->IdleSync();
        l.lock();
        visiting_ = nullptr;
        visit_done_.notify_all();
      }
    }
  }

  std::mutex mu_;
  std::condition_variable wake_;        // the thread waits here
  std::condition_variable visit_done_;  // Unregister waits here
  std::vector<CommitLog*> logs_;
  CommitLog* visiting_ = nullptr;
  uint64_t generation_ = 0;  // bumped as each thread starts and stops
  std::thread thread_;
};

CommitLog::CommitLog(std::string name, SyncPolicy sync, Clock* clock,
                     obs::MetricsRegistry* metrics, HealthTracker* health,
                     obs::Counter* syncs, obs::Counter* sync_failures,
                     size_t max_batch_frames)
    : name_(std::move(name)),
      sync_(sync),
      max_batch_frames_(max_batch_frames),
      clock_(clock ? clock : RealClock::Default()),
      health_(health),
      syncs_(syncs),
      sync_failures_(sync_failures) {
  if (!metrics) metrics = &owned_metrics_;
  m_batch_frames_ = metrics->GetHistogram("commit_batch_frames");
  m_fsync_us_ = metrics->GetHistogram("commit_fsync_us");
  m_stall_us_ =
      metrics->GetHistogram("commit_stall_us{log=\"" + name_ + "\"}");
  m_queue_depth_ = metrics->GetGauge("commit_queue_depth");
  m_batches_ = metrics->GetCounter("commit_batches_total");
  m_frames_ = metrics->GetCounter("commit_frames_total");
  m_bytes_ = metrics->GetCounter("commit_bytes_total");
  m_failures_ = metrics->GetCounter("commit_failures_total");
  last_sync_us_.store(clock_->NowMicros());
  CommitTimer::Global().Register(this);
}

CommitLog::~CommitLog() { CommitTimer::Global().Unregister(this); }

uint64_t CommitLog::NowMicros() const {
  return static_cast<uint64_t>(clock_->NowMicros());
}

Status CommitLog::Commit(std::string frame,
                         const std::function<Status()>& gate) {
  CommitWaiter w;
  bool lead = false;
  {
    std::shared_lock<std::shared_mutex> pause(pause_mu_);
    if (poisoned_.load(std::memory_order_acquire)) return PoisonStatus();
    std::lock_guard<std::mutex> ql(queue_mu_);
    // The gate runs under the queue mutex: whatever state it observes is
    // ordered against every other gated enqueue on this log.
    if (gate) {
      Status gs = gate();
      if (!gs.ok()) return gs;
    }
    // Detached log: accept and ack without writing (e.g. MemKV with
    // aof_enabled=false).
    if (file_ == nullptr) return Status::OK();
    queue_.push_back(Frame{std::move(frame), &w, NowMicros()});
    queued_.fetch_add(1, std::memory_order_acq_rel);
    // An idle log has an empty queue, so this frame is its front.
    lead = !in_flight_;
    in_flight_ = true;
  }
  if (lead || w.AwaitLead()) Lead();
  return w.status;
}

Status CommitLog::WithFile(const std::function<Status(FileSlot& file)>& fn) {
  std::unique_lock<std::shared_mutex> pause(pause_mu_);
  // New commits are parked, so once the lead drops the queue stays empty.
  // Taking the lead keeps the timer off the file while fn runs.
  {
    std::unique_lock<std::mutex> ql(queue_mu_);
    lead_dropped_.wait(ql, [&] { return !in_flight_; });
    in_flight_ = true;
  }
  // Serials, not addresses: a handle opened after the old one was freed
  // may reuse its address and must still count as a new file.
  const auto serial = [&] { return file_ ? file_->serial() : 0; };
  const uint64_t before = serial();
  Status s = fn(file_);
  if (serial() != before) {
    last_sync_us_.store(clock_->NowMicros());
    unsynced_.store(false);
    std::lock_guard<std::mutex> l(mu_);
    poison_status_ = Status::OK();
    poisoned_.store(false, std::memory_order_release);
  }
  std::lock_guard<std::mutex> ql(queue_mu_);
  in_flight_ = false;
  return s;
}

Status CommitLog::CloseFile() {
  return WithFile([&](FileSlot& file) {
    if (!file) return Status::OK();
    Status s = PoisonStatus();  // OK unless poisoned
    if (s.ok()) s = SyncFile();
    Status c = file->Close();
    file.reset();
    return s.ok() ? c : s;
  });
}

void CommitLog::SetTee(std::function<void(std::string_view)> tee) {
  tee_ = std::move(tee);
}

size_t CommitLog::QueuedFrames() const { return queued_.load(); }

void CommitLog::Lead() {
  m_queue_depth_->Set(static_cast<int64_t>(queued_.load()));
  std::vector<Frame> batch;
  {
    const size_t maxf = max_batch_frames_;
    std::lock_guard<std::mutex> ql(queue_mu_);
    while (!queue_.empty() && (maxf == 0 || batch.size() < maxf)) {
      batch.push_back(std::move(queue_.front()));
      queue_.pop_front();
    }
  }

  std::string buf = std::move(batch.front().bytes);
  for (size_t i = 1; i < batch.size(); ++i) buf.append(batch[i].bytes);

  // A batch queued behind a failed one fails with its status: fsyncgate
  // never writes to, or retries, a poisoned file.
  const bool poisoned = poisoned_.load(std::memory_order_acquire);
  Status s = poisoned ? PoisonStatus() : file_->Append(buf);
  if (s.ok()) unsynced_.store(true, std::memory_order_release);
  if (s.ok() && sync_ == SyncPolicy::kAlways) s = SyncFile();

  if (!s.ok()) {
    // fsyncgate: the handle may have dropped dirty pages while marking
    // them clean — poison the log, never retry; only a full
    // rewrite-from-memory (a new file via WithFile) re-establishes it.
    // Every waiter in the batch gets the failure.
    if (!poisoned) Poison(s);
    for (Frame& f : batch) f.waiter->Finish(s);
  } else {
    m_batch_frames_->Record(batch.size());
    m_batches_->Add(1);
    m_frames_->Add(batch.size());
    m_bytes_->Add(buf.size());
    // The tee observes only fully committed batches (post-write, and
    // post-fsync under kAlways): a failed batch, whose callers log
    // before they apply and so never changed memory, can never leak
    // into a compaction mirror.
    if (tee_) tee_(buf);
    uint64_t now = NowMicros();
    for (Frame& f : batch) {
      m_stall_us_->Record(now >= f.enqueue_us ? now - f.enqueue_us : 0);
      f.waiter->Finish(Status::OK());
    }
    // Under sustained load the log is never idle, so the timed sync
    // rides the batches too.
    MaybeTimedSync();
  }

  queued_.fetch_sub(batch.size(), std::memory_order_acq_rel);
  HandOff();
}

void CommitLog::HandOff() {
  CommitWaiter* next = nullptr;
  {
    std::lock_guard<std::mutex> ql(queue_mu_);
    if (!queue_.empty()) next = queue_.front().waiter;
    in_flight_ = next != nullptr;
  }
  // No one else acks the front waiter while we hold the lead, so it is
  // still blocked on its stack slot.
  if (next)
    next->Promote();
  else
    lead_dropped_.notify_all();
}

void CommitLog::IdleSync() {
  // Claim an idle log's lead as a writer would; a busy log's leader
  // checks the sync after its batch.
  {
    std::lock_guard<std::mutex> ql(queue_mu_);
    if (in_flight_) return;
    in_flight_ = true;
  }
  MaybeTimedSync();
  HandOff();
}

Status CommitLog::PoisonStatus() const {
  std::lock_guard<std::mutex> l(mu_);
  return poison_status_;
}

void CommitLog::Poison(const Status& s) {
  m_failures_->Add(1);
  {
    std::lock_guard<std::mutex> l(mu_);
    if (poison_status_.ok()) poison_status_ = s;
    poisoned_.store(true, std::memory_order_release);
  }
  if (health_) health_->Degrade(s);
}

Status CommitLog::SyncFile() {
  uint64_t t0 = NowMicros();
  Status s = file_->Sync();
  m_fsync_us_->Record(NowMicros() - t0);
  if (s.ok()) {
    if (syncs_) syncs_->Add(1);
    unsynced_.store(false, std::memory_order_release);
    last_sync_us_.store(clock_->NowMicros(), std::memory_order_release);
  } else if (sync_failures_) {
    sync_failures_->Add(1);
  }
  return s;
}

bool CommitLog::SyncDue() const {
  return sync_ == SyncPolicy::kEverySec &&
         unsynced_.load(std::memory_order_acquire) &&
         !poisoned_.load(std::memory_order_acquire) &&
         clock_->NowMicros() - last_sync_us_.load(std::memory_order_acquire) >=
             kEverySecIntervalMicros;
}

void CommitLog::MaybeTimedSync() {
  if (file_ == nullptr || !SyncDue()) return;
  Status s = SyncFile();
  if (s.ok()) return;
  // A timed fsync covers already-acked writes, so there is no caller to
  // fail — poison the log and degrade; future commits fail fast.
  Poison(s);
}

}  // namespace gdpr
