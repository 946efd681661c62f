// Scatter-gather executor for the cluster router: one metadata query or
// GDPR broadcast becomes N per-node sub-tasks that must all finish before
// the merge. A fixed pool of workers serves every batch; the calling thread
// participates in its own batch, so a zero-worker pool degrades to serial
// execution (never deadlock). A one-task batch runs on the caller with no
// enqueue and no wakeup; a larger one wakes at most one worker per task
// past the first.

#pragma once

#include <atomic>
#include <condition_variable>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace gdpr::cluster {

class ScatterGather {
 public:
  explicit ScatterGather(size_t workers);
  ~ScatterGather();

  ScatterGather(const ScatterGather&) = delete;
  ScatterGather& operator=(const ScatterGather&) = delete;

  size_t workers() const { return threads_.size(); }

  // Runs every task and returns once all have finished. Tasks may run on
  // pool workers or on the calling thread; they must not call Run() on the
  // same executor recursively from a worker.
  void Run(std::vector<std::function<void()>> tasks);

 private:
  struct Batch {
    explicit Batch(std::vector<std::function<void()>> t)
        : tasks(std::move(t)) {}
    std::vector<std::function<void()>> tasks;
    std::atomic<size_t> next{0};  // claim cursor
    std::mutex mu;
    std::condition_variable cv;
    size_t done = 0;  // guarded by mu
  };

  // Claims and runs tasks from the batch until none remain unclaimed.
  static void Drain(Batch* batch);
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::shared_ptr<Batch>> open_batches_;
  bool stop_ = false;
  std::vector<std::thread> threads_;
};

}  // namespace gdpr::cluster
