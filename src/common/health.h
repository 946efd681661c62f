// Per-store health machine for I/O failure handling.
//
// Every durability path (AOF, WAL, checkpoint, audit segments, statement
// log) can fail at runtime — ENOSPC, a failed fsync, a failed rename. The
// engine's contract (docs/PERSISTENCE.md, "Failure policy") is that such
// failures are *loud and sticky*: a store whose log can no longer be
// trusted to persist acked writes stops accepting writes instead of
// silently dropping durability, while reads and metadata queries keep
// serving from memory.
//
//   kHealthy           all durability paths live.
//   kDegradedReadOnly  a durability path failed in a way that could lose
//                      acked writes (failed hot-path fsync, torn append,
//                      failed log re-establishment). Mutations and Forget
//                      return Unavailable; reads keep serving. A later
//                      full log rewrite (AOF rewrite, WAL checkpoint,
//                      audit compaction) that succeeds heals the store —
//                      memory is authoritative and the rewrite captured
//                      all of it.
//   kFailed            the in-memory state itself can no longer be
//                      trusted to match any recoverable on-disk state
//                      (replay failure on open). Terminal.
//
// fsyncgate note: after a failed fsync the kernel may have dropped the
// dirty pages while marking them clean — retrying the fsync proves
// nothing about the earlier data. That is why a failed hot-path Sync
// degrades immediately instead of retrying, and why only a *rewrite from
// memory* heals.

#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>

#include "common/status.h"
#include "obs/metrics.h"

namespace gdpr {

enum class HealthState { kHealthy = 0, kDegradedReadOnly = 1, kFailed = 2 };

inline const char* HealthStateName(HealthState s) {
  switch (s) {
    case HealthState::kHealthy: return "healthy";
    case HealthState::kDegradedReadOnly: return "degraded-read-only";
    case HealthState::kFailed: return "failed";
  }
  return "unknown";
}

// A health reading: a state and the cause that explains it (OK exactly
// when healthy), taken together so the two cannot come from different
// moments.
struct HealthReport {
  HealthState state = HealthState::kHealthy;
  Status cause;
};

// The worse of two reports, with its own cause; on a tie, a.
inline HealthReport Worse(HealthReport a, HealthReport b) {
  return a.state < b.state ? std::move(b) : std::move(a);
}

// Monotonic-worsening health latch. The state read is a lock-free atomic
// so hot-path write gates stay cheap; the cause is mutex-guarded, and a
// report reads both under the mutex.
class HealthTracker {
 public:
  HealthState state() const {
    return static_cast<HealthState>(state_.load(std::memory_order_acquire));
  }
  bool writable() const { return state() == HealthState::kHealthy; }

  // Publish this tracker's state to a gauge (current HealthState as 0/1/2)
  // and a monotonic transition counter bumped on every state *change*
  // (including heals). Either may be null. Call before concurrent use.
  void AttachMetrics(obs::Gauge* state_gauge, obs::Counter* transitions) {
    std::lock_guard<std::mutex> l(mu_);
    state_gauge_ = state_gauge;
    transitions_ = transitions;
    if (state_gauge_) state_gauge_->Set(static_cast<int64_t>(state()));
  }

  // Healthy -> degraded. No-op when already degraded or failed (the first
  // cause wins — it is the one that explains the transition).
  void Degrade(const Status& cause) {
    std::lock_guard<std::mutex> l(mu_);
    if (state() != HealthState::kHealthy) return;
    cause_ = cause;
    Transition(HealthState::kDegradedReadOnly);
  }

  // Any state -> failed. Terminal.
  void Fail(const Status& cause) {
    std::lock_guard<std::mutex> l(mu_);
    if (state() == HealthState::kFailed) return;
    cause_ = cause;
    Transition(HealthState::kFailed);
  }

  // Degraded -> healthy, after a successful full rewrite of the failed
  // log re-established durability. Failed stores never heal.
  void Heal() {
    std::lock_guard<std::mutex> l(mu_);
    if (state() == HealthState::kFailed) return;
    cause_ = Status::OK();
    Transition(HealthState::kHealthy);
  }

  // Unconditional return to healthy; only for (re)open paths that rebuild
  // the store's state from disk, where past latches no longer apply.
  void Reset() {
    std::lock_guard<std::mutex> l(mu_);
    cause_ = Status::OK();
    Transition(HealthState::kHealthy);
  }

  // Write gate: OK when healthy, Unavailable(with cause) otherwise.
  Status WriteGate(const char* who) const {
    if (writable()) return Status::OK();
    std::lock_guard<std::mutex> l(mu_);
    return Status::Unavailable(std::string(who) + " " +
                               HealthStateName(state()) + ": " +
                               cause_.ToString());
  }

  HealthReport report() const {
    std::lock_guard<std::mutex> l(mu_);
    return {state(), cause_};
  }

 private:
  // Callers hold mu_. Counts only real state changes (Heal/Reset while
  // already healthy is not a transition).
  void Transition(HealthState next) {
    const bool changed = next != state();
    state_.store(static_cast<int>(next), std::memory_order_release);
    if (state_gauge_) state_gauge_->Set(static_cast<int64_t>(next));
    if (transitions_ && changed) transitions_->Add(1);
  }

  std::atomic<int> state_{static_cast<int>(HealthState::kHealthy)};
  mutable std::mutex mu_;
  Status cause_;
  obs::Gauge* state_gauge_ = nullptr;
  obs::Counter* transitions_ = nullptr;
};

// Transient failures (ENOSPC-style) on *background* paths — compaction,
// rotation, checkpoint — are retried this many times before the store
// degrades, after a backoff that starts here and doubles per attempt.
// Hot-path Sync failures are never retried (fsyncgate).
inline constexpr int kBackgroundIoRetries = 2;
inline constexpr int64_t kIoRetryBackoffMicros = 1000;

// Bounded retry-with-backoff for transient I/O failures on background
// paths. Retries only IOError (ENOSPC-shaped); every other code — and
// exhaustion — returns the last status to the caller, which then decides
// whether to degrade.
inline Status RetryIo(const std::function<Status()>& op) {
  Status s = op();
  int64_t backoff = kIoRetryBackoffMicros;
  for (int attempt = 0; !s.ok() && s.code() == StatusCode::kIOError &&
                        attempt < kBackgroundIoRetries;
       ++attempt) {
    std::this_thread::sleep_for(std::chrono::microseconds(backoff));
    backoff *= 2;
    s = op();
  }
  return s;
}

}  // namespace gdpr
