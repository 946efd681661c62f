// Log compaction as a compliance mechanism. Erasure (G 17) is hollow if the
// erased record's ciphertext keeps living in the AOF / WAL: the store stops
// serving it, but the bytes are still on disk. Each backend therefore
// tracks an ErasureBarrier — the log offset at the moment of the most
// recent erasure — and CompactNow() rewrites the persistence log(s) to live
// state only, guaranteeing no pre-barrier frame for an erased record
// survives. Tombstones and the audit chain are carried across the rewrite:
// the data is forgotten, the evidence of forgetting is not.

#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <mutex>
#include <utility>

namespace gdpr {

// Per-store compaction observability, merged additively across cluster
// nodes by ClusterGdprStore::CompactNow.
struct CompactionStats {
  uint64_t compactions = 0;        // completed compaction passes
  uint64_t log_bytes = 0;          // current on-disk log length
  uint64_t live_bytes = 0;         // resident live data (approximate)
  uint64_t last_bytes_before = 0;  // log length entering the last pass
  uint64_t last_bytes_after = 0;   // ... and leaving it
  int64_t last_compaction_micros = 0;
  // Erasure barrier: log offset recorded at the most recent erasure. Zero
  // pending erasures means every erasure so far has been compacted away.
  uint64_t erasure_barrier = 0;
  uint64_t erasures_pending_compaction = 0;
  // Durable audit chain: segment files currently backing the chain (0 when
  // the chain is in-memory) and entries dropped by retention compaction
  // over the store's lifetime.
  uint64_t audit_segments = 0;
  uint64_t audit_dropped_entries = 0;

  CompactionStats& Merge(const CompactionStats& o) {
    compactions += o.compactions;
    log_bytes += o.log_bytes;
    live_bytes += o.live_bytes;
    last_bytes_before += o.last_bytes_before;
    last_bytes_after += o.last_bytes_after;
    last_compaction_micros =
        std::max(last_compaction_micros, o.last_compaction_micros);
    erasure_barrier = std::max(erasure_barrier, o.erasure_barrier);
    erasures_pending_compaction += o.erasures_pending_compaction;
    audit_segments += o.audit_segments;
    audit_dropped_entries += o.audit_dropped_entries;
    return *this;
  }
};

// Tracks the offset contract between erasure and compaction. Thread-safe;
// one per store.
//
// Coverage is generation-based so it stays correct no matter who runs the
// compaction (explicit CompactNow or the engine's own cron-triggered
// rewrite): each erasure records the number of compaction passes *started*
// at that moment. A pass started before the erasure may already have
// snapshotted the record's frames, so the erasure is only covered once a
// pass numbered strictly after it completes — i.e. once the store's
// completed-pass count exceeds the recorded start count.
class ErasureBarrier {
 public:
  // An erasure just landed: the log is `log_offset` bytes long and the
  // store has started `passes_started` compaction passes so far.
  void RecordErasure(uint64_t log_offset, uint64_t passes_started) {
    std::lock_guard<std::mutex> l(mu_);
    offset_ = std::max(offset_, log_offset);
    if (!gens_.empty() && gens_.back().first == passes_started) {
      ++gens_.back().second;
    } else {
      gens_.emplace_back(passes_started, 1);
    }
  }

  // Erasures not yet covered, given the store's completed-pass count.
  // Prunes covered generations as a side effect.
  uint64_t Pending(uint64_t passes_completed) {
    std::lock_guard<std::mutex> l(mu_);
    while (!gens_.empty() && gens_.front().first < passes_completed) {
      gens_.pop_front();
    }
    uint64_t total = 0;
    for (const auto& [gen, count] : gens_) total += count;
    return total;
  }

  uint64_t offset() const {
    std::lock_guard<std::mutex> l(mu_);
    return offset_;
  }

 private:
  mutable std::mutex mu_;
  uint64_t offset_ = 0;  // high-water log offset of erasures
  // (passes-started-at-erasure, erasure count), oldest first.
  std::deque<std::pair<uint64_t, uint64_t>> gens_;
};

}  // namespace gdpr
