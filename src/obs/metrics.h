// Always-on observability substrate: lock-free counters, gauges, and
// log-bucketed latency histograms behind a per-store MetricsRegistry.
//
// Design rules, in order:
//   1. The record path may never take a lock or touch a shared cache line
//      under contention. Counters shard across cache-line-padded slots
//      keyed by thread; histograms use relaxed per-bucket atomics.
//   2. Reads (Snapshot) are allowed to be slow and slightly inconsistent:
//      a snapshot taken while writers run sees each atomic at some moment,
//      not a cross-metric cut. Totals are monotonic, never torn.
//   3. Metric OBJECTS always exist and always count, in every build —
//      engine logic (compaction triggers, thin-view accessors) reads
//      them. The GDPR_OBS_OFF compile toggle only removes the hot-path
//      *clock reads* (ScopedTimer/SampledTimer bodies), which are the
//      measurable per-op cost.
//
// Naming convention (see docs/OBSERVABILITY.md): snake_case base name with
// a component prefix (memkv_/reldb_/audit_/gdpr_/cluster_/epoch_), units
// as a suffix (_us, _bytes), optional Prometheus-style labels appended as
// {key="value"}. Counter names end in _total or a plural; gauges are
// instantaneous nouns.

#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/clock.h"

namespace gdpr::obs {

#ifdef GDPR_OBS_OFF
inline constexpr bool kTimersEnabled = false;
#else
inline constexpr bool kTimersEnabled = true;
#endif

// Stable small id for the calling thread, used to pick a counter shard.
// Ids increase monotonically; shard index is id mod kShards, so the first
// kShards threads never collide.
inline size_t ThisThreadOrdinal() {
  static std::atomic<size_t> next{0};
  thread_local size_t ordinal = next.fetch_add(1, std::memory_order_relaxed);
  return ordinal;
}

// Monotonic counter. Add is a relaxed fetch_add on a thread-private shard;
// Value sums the shards (monotone but not linearizable vs racing Adds).
class Counter {
 public:
  static constexpr size_t kShards = 16;  // power of two

  void Add(uint64_t n = 1) {
    shards_[ThisThreadOrdinal() & (kShards - 1)].v.fetch_add(
        n, std::memory_order_relaxed);
  }

  uint64_t Value() const {
    uint64_t sum = 0;
    for (const auto& s : shards_) sum += s.v.load(std::memory_order_relaxed);
    return sum;
  }

 private:
  struct alignas(64) PaddedAtomic {
    std::atomic<uint64_t> v{0};
  };
  std::array<PaddedAtomic, kShards> shards_{};
};

// Instantaneous value (backlog depth, log bytes, health state). Single
// atomic: gauges are written from cold paths (snapshot refresh, state
// transitions, append bookkeeping already serialized by the log mutex).
class Gauge {
 public:
  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

// Fixed-layout log-bucketed histogram for microsecond latencies.
// 64 buckets whose upper bounds grow by ~1.3x: 0, 1, 2, ... ~8.9e6 us,
// +inf. Every histogram shares the same bounds, so snapshots merge and
// subtract bucket-wise — the property the cluster roll-up and the bench
// before/after delta depend on.
class Histogram {
 public:
  static constexpr size_t kBuckets = 64;
  static constexpr double kGrowth = 1.3;

  // bounds[i] is the inclusive upper bound of bucket i; bounds[63] = +inf.
  static const std::array<uint64_t, kBuckets>& Bounds() {
    static const std::array<uint64_t, kBuckets> bounds = [] {
      std::array<uint64_t, kBuckets> b{};
      b[0] = 0;
      double v = 1.0;
      for (size_t i = 1; i + 1 < kBuckets; ++i) {
        b[i] = std::max<uint64_t>(b[i - 1] + 1,
                                  static_cast<uint64_t>(v));
        v *= kGrowth;
      }
      b[kBuckets - 1] = UINT64_MAX;
      return b;
    }();
    return bounds;
  }

  static size_t BucketFor(uint64_t v) {
    const auto& b = Bounds();
    // First bucket whose upper bound >= v. bounds[63] = +inf always hits.
    return static_cast<size_t>(
        std::lower_bound(b.begin(), b.end(), v) - b.begin());
  }

  void Record(uint64_t v) { RecordN(v, 1); }

  // Record `n` observations of value `v` in one shot (sampled timers).
  // Writes land in a thread-keyed shard: concurrent recorders of the SAME
  // latency would otherwise fetch_add the same bucket (and every recorder
  // shares sum), and that cache-line ping-pong costs more than the clock
  // reads the timers are built around.
  void RecordN(uint64_t v, uint64_t n) {
    Shard& s = shards_[ThisThreadOrdinal() & (kShards - 1)];
    s.counts[BucketFor(v)].fetch_add(n, std::memory_order_relaxed);
    s.sum.fetch_add(v * n, std::memory_order_relaxed);
  }

 private:
  friend struct HistogramSnapshot;
  static constexpr size_t kShards = 4;  // power of two
  // One shard spans ~9 cache lines; alignas keeps shard boundaries off
  // shared lines so threads in different shards never collide.
  struct alignas(64) Shard {
    std::array<std::atomic<uint64_t>, kBuckets> counts{};
    std::atomic<uint64_t> sum{0};
  };
  std::array<Shard, kShards> shards_{};
};

// Point-in-time copy of a histogram, plus merge/subtract/percentile math.
struct HistogramSnapshot {
  std::string name;
  std::array<uint64_t, Histogram::kBuckets> counts{};
  uint64_t count = 0;
  uint64_t sum = 0;

  static HistogramSnapshot Of(const std::string& n, const Histogram& h) {
    HistogramSnapshot s;
    s.name = n;
    for (const auto& shard : h.shards_) {
      for (size_t i = 0; i < Histogram::kBuckets; ++i) {
        const uint64_t c = shard.counts[i].load(std::memory_order_relaxed);
        s.counts[i] += c;
        s.count += c;
      }
      s.sum += shard.sum.load(std::memory_order_relaxed);
    }
    return s;
  }

  void MergeFrom(const HistogramSnapshot& o) {
    for (size_t i = 0; i < counts.size(); ++i) counts[i] += o.counts[i];
    count += o.count;
    sum += o.sum;
  }

  // Bucket-wise this - before, clamped at zero (a racing writer can make a
  // "before" bucket momentarily ahead of "after"'s read of it).
  void Subtract(const HistogramSnapshot& before) {
    count = 0;
    for (size_t i = 0; i < counts.size(); ++i) {
      counts[i] = counts[i] >= before.counts[i] ? counts[i] - before.counts[i]
                                                : 0;
      count += counts[i];
    }
    sum = sum >= before.sum ? sum - before.sum : 0;
  }

  double Mean() const {
    return count == 0 ? 0.0
                      : static_cast<double>(sum) / static_cast<double>(count);
  }

  // Estimated value at percentile p (0..100): linear interpolation inside
  // the containing bucket. The error bound is the bucket width (~30%).
  double Percentile(double p) const;
};

// One registry snapshot: every counter/gauge value and histogram copy,
// renderable as Prometheus exposition text or a JSON object, mergeable
// across stores (cluster roll-up) and subtractable (bench deltas).
struct RegistrySnapshot {
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramSnapshot> histograms;

  // Same-name counters/gauges sum, histograms merge bucket-wise; names
  // only in `o` are appended. Used for the cluster-wide roll-up.
  void MergeFrom(const RegistrySnapshot& o);

  // Activity between `before` and this snapshot: counters and histogram
  // buckets subtract (clamped), gauges keep their current value.
  RegistrySnapshot Delta(const RegistrySnapshot& before) const;

  const HistogramSnapshot* FindHistogram(const std::string& name) const;
  uint64_t CounterValue(const std::string& name) const;
  int64_t GaugeValue(const std::string& name) const;

  std::string ToPrometheus() const;
  std::string ToJson() const;
};

// Owns the metrics for one store (or one cluster router). Get* registers
// on first use and returns a stable pointer; lookups take a mutex, so
// resolve pointers once at init, not per operation.
class MetricsRegistry {
 public:
  Counter* GetCounter(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = counters_[name];
    if (!slot) slot = std::make_unique<Counter>();
    return slot.get();
  }

  Gauge* GetGauge(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = gauges_[name];
    if (!slot) slot = std::make_unique<Gauge>();
    return slot.get();
  }

  Histogram* GetHistogram(const std::string& name) {
    std::lock_guard<std::mutex> lock(mu_);
    auto& slot = histograms_[name];
    if (!slot) slot = std::make_unique<Histogram>();
    return slot.get();
  }

  RegistrySnapshot Snapshot() const {
    std::lock_guard<std::mutex> lock(mu_);
    RegistrySnapshot snap;
    snap.counters.reserve(counters_.size());
    for (const auto& [name, c] : counters_)
      snap.counters.emplace_back(name, c->Value());
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, g] : gauges_)
      snap.gauges.emplace_back(name, g->Value());
    snap.histograms.reserve(histograms_.size());
    for (const auto& [name, h] : histograms_)
      snap.histograms.push_back(HistogramSnapshot::Of(name, *h));
    return snap;
  }

 private:
  mutable std::mutex mu_;
  // std::map: stable pointers + deterministic render order.
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

// Times its scope into a histogram. Null histogram or clock = no-op.
// Under GDPR_OBS_OFF the body compiles away entirely (no clock reads).
class ScopedTimer {
 public:
  ScopedTimer([[maybe_unused]] Histogram* h, [[maybe_unused]] Clock* clock)
#ifndef GDPR_OBS_OFF
      : h_(h),
        clock_(clock),
        start_(h && clock ? clock->NowMicros() : 0)
#endif
  {
  }

  ~ScopedTimer() {
#ifndef GDPR_OBS_OFF
    if (h_ && clock_) {
      const int64_t d = clock_->NowMicros() - start_;
      h_->Record(d > 0 ? static_cast<uint64_t>(d) : 0);
    }
#endif
  }

  ScopedTimer(const ScopedTimer&) = delete;
  ScopedTimer& operator=(const ScopedTimer&) = delete;

 private:
#ifndef GDPR_OBS_OFF
  Histogram* h_;
  Clock* clock_;
  int64_t start_;
#endif
};

// Sampled variant for paths where two clock reads would be a measurable
// fraction of the op itself (MemKV point ops run in a few hundred ns).
// Times 1 in kEvery invocations per thread; the sample is unbiased w.r.t.
// latency, so percentile estimates converge with enough ops while the
// amortized cost drops to a thread-local decrement.
class SampledTimer {
 public:
  static constexpr uint32_t kEvery = 32;

  SampledTimer([[maybe_unused]] Histogram* h, [[maybe_unused]] Clock* clock)
#ifndef GDPR_OBS_OFF
      : h_(Due() ? h : nullptr),
        clock_(clock),
        start_(h_ && clock ? clock->NowMicros() : 0)
#endif
  {
  }

  ~SampledTimer() {
#ifndef GDPR_OBS_OFF
    if (h_ && clock_) {
      const int64_t d = clock_->NowMicros() - start_;
      // Each sample stands for kEvery ops so merged engine-side counts
      // stay comparable with client-side totals.
      h_->RecordN(d > 0 ? static_cast<uint64_t>(d) : 0, kEvery);
    }
#endif
  }

  SampledTimer(const SampledTimer&) = delete;
  SampledTimer& operator=(const SampledTimer&) = delete;

 private:
#ifndef GDPR_OBS_OFF
  static bool Due() {
    thread_local uint32_t tick = 0;
    return (tick++ % kEvery) == 0;
  }
  Histogram* h_;
  Clock* clock_;
  int64_t start_;
#endif
};

}  // namespace gdpr::obs
