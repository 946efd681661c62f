#include "cluster/scatter_gather.h"

#include <algorithm>

namespace gdpr::cluster {

ScatterGather::ScatterGather(size_t workers) {
  threads_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { WorkerLoop(); });
  }
}

ScatterGather::~ScatterGather() {
  {
    std::lock_guard<std::mutex> l(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : threads_) t.join();
}

void ScatterGather::Drain(Batch* batch) {
  const size_t n = batch->tasks.size();
  size_t i;
  while ((i = batch->next.fetch_add(1, std::memory_order_relaxed)) < n) {
    batch->tasks[i]();
    std::lock_guard<std::mutex> l(batch->mu);
    if (++batch->done == n) batch->cv.notify_all();
  }
}

void ScatterGather::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Batch> batch;
    {
      std::unique_lock<std::mutex> l(mu_);
      cv_.wait(l, [this] { return stop_ || !open_batches_.empty(); });
      if (stop_) return;
      batch = open_batches_.front();
      if (batch->next.load(std::memory_order_relaxed) >= batch->tasks.size()) {
        // Fully claimed (possibly still running elsewhere); retire it.
        open_batches_.pop_front();
        continue;
      }
    }
    Drain(batch.get());
  }
}

void ScatterGather::Run(std::vector<std::function<void()>> tasks) {
  if (tasks.empty()) return;
  if (tasks.size() == 1) {
    tasks.front()();
    return;
  }
  auto batch = std::make_shared<Batch>(std::move(tasks));
  if (!threads_.empty()) {
    {
      std::lock_guard<std::mutex> l(mu_);
      open_batches_.push_back(batch);
    }
    // The caller drains too, so each task past the first wakes one worker.
    const size_t wake = std::min(batch->tasks.size() - 1, threads_.size());
    for (size_t i = 0; i < wake; ++i) cv_.notify_one();
  }
  // The caller works too: claims whatever the pool has not taken yet, then
  // waits for claimed-but-unfinished tasks.
  Drain(batch.get());
  std::unique_lock<std::mutex> l(batch->mu);
  batch->cv.wait(l, [&] { return batch->done == batch->tasks.size(); });
}

}  // namespace gdpr::cluster
