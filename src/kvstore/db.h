// MemKV: a shard-striped in-memory KV store in the spirit of the paper's
// Redis, built for concurrency from day one:
//
//   * N shards; writers contend only within a shard (per-shard writer
//     lock), and point reads are lock-free: an epoch pin plus an
//     acquire-load walk of the shard's EpochMap: the one epoch-protected
//     table, which the GDPR indexes also use, over entry-block nodes (see
//     kvstore/epoch_map.h and common/epoch.h). The shard is picked by the
//     key hash's low bits, so the table's bucket rule folds in the high
//     half. Writers swap immutable entry blocks and retire the displaced
//     ones; readers never stall behind a writer holding the shard. GDPRbench stacks metadata cost on top of every operation, so
//     the base Get must cost what the hardware charges — not what a
//     shared_mutex charges (bench_get_scale measures the difference).
//   * TTL bookkeeping per shard: a min-heap keyed on expiry makes the strict
//     expiry cycle O(expired), not O(n) (the paper's retrofit rescans the
//     whole expire set each cycle); a sampling registry reproduces Redis'
//     lazy probabilistic algorithm for the Fig 3a comparison.
//   * Optional append-only file (AOF) with Redis-like fsync policies, an
//     at-rest AEAD encryption path, and read logging (every read becomes a
//     read + a log append — the paper's audit retrofit). Every write
//     commits its frame before it changes memory (the tombstone set's
//     Add/ClearTombstone excepted).

#pragma once

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/clock.h"
#include "common/epoch.h"
#include "common/health.h"
#include "common/random.h"
#include "common/status.h"
#include "crypto/aead.h"
#include "kvstore/epoch_map.h"
#include "obs/metrics.h"
#include "storage/commit_pipeline.h"
#include "storage/env.h"

namespace gdpr::kv {

// How expired keys get erased:
//   kLazySampling — Redis' probabilistic algorithm: every cycle, sample a
//     handful of TTL'd keys and erase the expired ones; repeat while the
//     expired fraction stays high. Cheap per cycle, but leaves a long tail
//     of logically-dead keys (Fig 3a).
//   kStrictScan — drain the per-shard expiry min-heaps: every key whose
//     deadline has passed is erased in the cycle after it dies. O(expired)
//     per cycle thanks to the heaps.
enum class ExpiryMode { kLazySampling, kStrictScan };

struct Options {
  Clock* clock = nullptr;  // nullptr => RealClock::Default()
  Env* env = nullptr;      // nullptr => Env::Posix()
  size_t shards = 16;      // rounded up to a power of two

  ExpiryMode expiry_mode = ExpiryMode::kStrictScan;
  int64_t expiry_cycle_micros = 100000;  // Redis: 100 ms

  bool aof_enabled = false;
  std::string aof_path;
  SyncPolicy sync_policy = SyncPolicy::kEverySec;

  bool encrypt_at_rest = false;
  std::string encryption_key = "memkv-at-rest-key";

  bool log_reads = false;  // audit retrofit: append every read to the AOF

  // Background AOF rewrite (Redis BGREWRITEAOF shape): the expiry cron
  // triggers CompactAof() once the log passes BOTH floors — an absolute
  // byte minimum and a ratio over resident live bytes. Either floor at 0
  // disables the auto trigger; CompactAof() stays callable explicitly.
  bool aof_auto_compact = false;
  uint64_t aof_compact_min_bytes = 4 << 20;
  double aof_compact_ratio = 2.0;

  // Shared metrics registry (the GDPR layer passes its own so one
  // Snapshot covers every layer). nullptr => the store owns a private one,
  // reachable via metrics_registry().
  obs::MetricsRegistry* metrics = nullptr;

  // Shared group-commit pipeline (the GDPR layer passes one so the KV
  // engine and the audit chain ride the same committer thread). nullptr =>
  // the store owns a private pipeline. See storage/commit_pipeline.h for
  // the ack/ordering contract.
  CommitPipeline* pipeline = nullptr;
  // Max frames coalesced per write()+fsync when the store owns its
  // pipeline (ignored when `pipeline` is supplied). 0 = unbounded group
  // commit; 1 = one batch per record, the per-write baseline
  // bench_put_scale compares against.
  size_t commit_max_batch_frames = 0;
};

// Observability for the AOF rewrite path (surfaced through the GDPR layer
// as gdpr::CompactionStats).
struct AofStats {
  uint64_t rewrites = 0;           // completed CompactAof passes
  uint64_t log_bytes = 0;          // current AOF length
  uint64_t live_bytes = 0;         // resident key+value bytes
  uint64_t last_bytes_before = 0;  // log length entering the last pass
  uint64_t last_bytes_after = 0;   // ... and leaving it
  int64_t last_rewrite_micros = 0;
};

class MemKV {
 public:
  explicit MemKV(const Options& options);
  ~MemKV();

  MemKV(const MemKV&) = delete;
  MemKV& operator=(const MemKV&) = delete;

  // Opens the AOF (replaying any existing contents) when enabled.
  Status Open();
  Status Close();

  Status Set(const std::string& key, const std::string& value);
  // ttl_micros is relative to now; <= 0 means no expiry.
  Status SetWithTtl(const std::string& key, const std::string& value,
                    int64_t ttl_micros);
  StatusOr<std::string> Get(const std::string& key);
  Status Delete(const std::string& key);

  // Batched Get for index collections: one epoch pin for the whole batch,
  // keys walked in groups of kBatchGroup whose bucket, node, entry-block and
  // value loads are each prefetched one stage before they are needed. fn(i,
  // status, value) runs once per key, in order, with what Get(*keys[i])
  // would return — the same per-entry rules, applied once per key. value
  // views the plaintext and is valid only inside the call. The keys are
  // pointers so a caller can pass them where they already live (an index
  // collection passes its posting nodes' keys, under its own pin). With
  // log_reads on, the pin spans the batch's read-log commits.
  static constexpr size_t kBatchGroup = 16;
  using BatchFn = std::function<void(size_t i, const Status& status,
                                     std::string_view value)>;
  void GetBatch(const std::vector<const std::string*>& keys,
                const BatchFn& fn);

  // Number of resident entries (expired-but-not-yet-erased keys count:
  // that residue is exactly what Fig 3a measures).
  size_t Size() const;

  // Resident key+value bytes plus TTL bookkeeping.
  size_t ApproximateBytes() const;

  // Iterates all live entries; fn returns false to stop early. Values are
  // decrypted before the callback sees them. The walk is epoch-pinned, not
  // locked: writers proceed concurrently, and entries mutated mid-scan may
  // show either version (snapshot-per-shard-generation semantics). Returns
  // the number of entries whose at-rest decryption failed during this pass
  // (those entries are skipped); any nonzero return means at-rest
  // corruption and is also accumulated in ScanDecryptFailures().
  size_t Scan(const std::function<bool(const std::string& key,
                                       const std::string& value)>& fn);

  // Cumulative count of AEAD decrypt failures observed by Scan. Zero on a
  // healthy store; tests assert this stays zero. Thin view over the
  // registry counter memkv_scan_decrypt_failures.
  uint64_t ScanDecryptFailures() const {
    return m_scan_decrypt_fail_->Value();
  }

  // One expiry cycle under the configured mode. Returns keys erased.
  size_t RunExpiryCycle();

  // Background cron: RunExpiryCycle every expiry_cycle_micros of real time
  // (also drives the everysec AOF fsync).
  void StartExpiryCron();
  void StopExpiryCron();

  // Drops all entries and tombstones (not the AOF). Used by bench reload
  // paths.
  void Clear();

  // Rewrites the AOF to live state only: snapshot of resident entries +
  // tombstone registry into <aof_path>.compact.tmp, appends whatever raced
  // in during the snapshot, fsyncs, atomically renames over the AOF. A
  // crash anywhere before the rename leaves the old AOF authoritative (the
  // temp file is discarded on the next Open). No-op when the AOF is off.
  Status CompactAof();
  // Log length / auto-trigger decision, for callers building policy above.
  // Thin view over the registry gauge memkv_aof_log_bytes.
  uint64_t AofLogBytes() const {
    const int64_t v = m_aof_log_bytes_->Value();
    return v > 0 ? static_cast<uint64_t>(v) : 0;
  }
  bool AofCompactionDue() const;
  // Runs CompactAof iff the policy says it is due (the cron calls this).
  void MaybeCompactAof();
  AofStats GetAofStats() const;
  // Rewrite passes *started* (>= GetAofStats().rewrites, which counts
  // completions). Lets ErasureBarrier decide which erasures a completed
  // pass is guaranteed to have covered.
  uint64_t AofRewriteStarts() const { return aof_rewrite_starts_.load(); }

  // --- Erasure-tombstone registry ------------------------------------------
  // Evidence that a key was GDPR-erased. Persisted in the AOF ('T' add /
  // 't' clear) so it survives restarts AND compaction — a rewrite carries
  // the registry over even though the erased record's frames are dropped.
  // AddTombstone fails (and rolls the in-memory entry back) when the 'T'
  // frame cannot be appended: evidence that would not survive a restart
  // must not be reported as recorded. It registers before it logs so the
  // read-log gate orders 'R' frames before its 'T'. ClearTombstone erases
  // before it logs, so CompactAof's tombstone snapshot never holds an
  // entry whose 't' is already committed; it re-inserts the entry when the
  // 't' append fails. These two are the only writes that apply first.
  Status AddTombstone(const std::string& key);
  Status ClearTombstone(const std::string& key);
  bool HasTombstone(const std::string& key) const;
  std::vector<std::string> Tombstones(
      const std::function<bool(const std::string&)>& key_pred = nullptr) const;
  size_t TombstoneCount() const;

  const Options& options() const { return options_; }

  // --- Health ---------------------------------------------------------------
  // kHealthy -> kDegradedReadOnly when a durability path fails in a way
  // that could lose acked writes (failed hot-path fsync, torn append,
  // failed log re-establishment): mutations return Unavailable, reads keep
  // serving from memory. A successful CompactAof() heals — the rewrite
  // re-creates the whole log from authoritative memory. kFailed is
  // terminal (replay failure on open).
  HealthReport Health() const { return health_.report(); }

  // --- Observability ---------------------------------------------------------
  // The registry this store records into (options.metrics, or the private
  // one). Gauges that are derived rather than maintained (epoch backlog,
  // resident entries) are refreshed here before the snapshot is taken.
  obs::MetricsRegistry* metrics_registry() const { return metrics_; }
  obs::RegistrySnapshot StatsSnapshot();

 private:
  struct HeapItem {
    int64_t expiry_micros;
    std::string key;
    bool operator>(const HeapItem& o) const {
      return expiry_micros > o.expiry_micros;
    }
  };

  struct Shard {
    // Writer serialization + consistent cold snapshots (Size, CompactAof):
    // mutations hold it exclusive, snapshot walks hold it shared. The hot
    // Get path holds NOTHING here — it pins an epoch and walks `map`
    // lock-free.
    mutable std::shared_mutex mu;
    EpochMap map;
    // Min-heap over (expiry, key); entries are validated against the map
    // when popped, so stale items from overwritten TTLs are skipped.
    std::priority_queue<HeapItem, std::vector<HeapItem>, std::greater<HeapItem>>
        ttl_heap;
    // Sampling registry for the lazy mode: all keys that carry a TTL, in a
    // vector for O(1) random pick, with positions for O(1) swap-removal.
    std::vector<std::string> ttl_keys;
    std::unordered_map<std::string, size_t> ttl_pos;
    size_t bytes = 0;
  };

  // Callers compute the key's hash once (the map probe needs it anyway).
  Shard& ShardFor(uint64_t hash) { return *shards_[hash & shard_mask_]; }
  int64_t NowMicros() { return clock_->NowMicros(); }

  Status SetInternal(const std::string& key, const std::string& value,
                     int64_t expiry_abs_micros);
  // The map, byte-count and TTL-registry change for one stored value,
  // shared by SetInternal and replay. Caller holds s.mu exclusive.
  void UpsertLocked(Shard& s, const std::string& key, uint64_t hash,
                    std::string stored, int64_t expiry_abs_micros);
  void RegisterTtlLocked(Shard& s, const std::string& key, int64_t expiry);
  void UnregisterTtlLocked(Shard& s, const std::string& key);
  // Returns whether the key was resident (and is now erased + retired).
  bool EraseLocked(Shard& s, const std::string& key, uint64_t hash);

  size_t RunLazyCycle(int64_t now);
  size_t RunStrictCycle(int64_t now);

  Status AofAppend(char op, const std::string& key, const std::string& value,
                   int64_t expiry);
  // Group-commits one encoded frame through the pipeline and maintains the
  // append metrics. `gate` runs under the queue mutex before the frame is
  // enqueued — see AppendReadLog.
  Status AofCommit(std::string rec,
                   const std::function<Status()>& gate = nullptr);
  // The per-entry read rules, written once for Get and GetBatch: the
  // expiry check, the read-log frame with its tombstone gate, and the AEAD
  // open. b is the key's block (null when absent), found under the
  // caller's epoch pin; on OK *value views b's bytes, or *scratch when the
  // value is sealed.
  Status ReadEntry(const std::string& key, const EntryBlock* b, int64_t now,
                   std::string* scratch, std::string_view* value);
  // Read-log append for ReadEntry, sequenced against erasure tombstones: the
  // enqueue gate re-checks the tombstone registry, so a tombstoned key
  // yields NotFound (and no 'R' frame) and the log can never show a read
  // *after* the erasure that it actually preceded.
  Status AppendReadLog(const std::string& key);
  // Applies the AOF frame at the front of `*in` and consumes it; false
  // when it does not parse. `now` decides which replayed 'S' frames are
  // already dead.
  bool ReplayAofFrame(std::string_view* in, int64_t now);
  // Starts (on) or drops (off) CompactAof's mirror tee, emptying
  // rewrite_buf_ either way.
  void SetRewriteMirror(bool on);
  static void EncodeAofRecord(std::string* dst, char op, const std::string& key,
                              const std::string& value, int64_t expiry);

  Options options_;
  Clock* clock_;
  Env* env_;
  size_t shard_mask_ = 0;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::unique_ptr<Aead> aead_;
  SealCounter seal_seq_;

  // --- Metrics (registry-backed; see docs/OBSERVABILITY.md) ---------------
  // Resolved once in the constructor; recording is lock-free.
  void InitMetrics();
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Histogram* get_us_ = nullptr;
  obs::Histogram* get_batch_us_ = nullptr;
  obs::Histogram* set_us_ = nullptr;
  obs::Histogram* delete_us_ = nullptr;
  obs::Histogram* expiry_cycle_us_ = nullptr;
  obs::Counter* m_scan_decrypt_fail_ = nullptr;  // memkv_scan_decrypt_failures
  obs::Counter* m_expired_keys_ = nullptr;
  obs::Counter* m_aof_appends_ = nullptr;
  obs::Counter* m_aof_append_bytes_ = nullptr;
  obs::Counter* m_aof_append_fail_ = nullptr;
  obs::Counter* m_aof_syncs_ = nullptr;
  obs::Counter* m_aof_sync_fail_ = nullptr;
  obs::Counter* m_aof_rewrites_ = nullptr;  // memkv_aof_rewrites (AofStats view)
  obs::Gauge* m_aof_log_bytes_ = nullptr;   // memkv_aof_log_bytes (AofStats view)
  obs::Gauge* m_tombstones_ = nullptr;

  // All AOF appends flow through the group-commit pipeline: callers
  // enqueue framed records (Commit blocks until durability is decided per
  // sync policy) and the committer thread batches them into single
  // write()+fsync calls. The AOF file lives in aof_target_; Open, Close
  // and CompactAof phase 3 reach it through WithFile / CloseFile.
  CommitPipeline* pipeline_ = nullptr;
  CommitPipeline::Target* aof_target_ = nullptr;
  std::unique_ptr<CommitPipeline> owned_pipeline_;
  // Checked on hot paths; the pipeline acks detached targets as OK so the
  // flag is advisory, not a correctness gate.
  std::atomic<bool> aof_active_{false};
  // Degraded when the AOF can no longer be trusted to persist acked
  // writes; mutations gate on it, reads do not.
  HealthTracker health_;

  // Rewrite-in-progress state: while a CompactAof snapshot runs, a
  // pipeline tee mirrors every committed batch into rewrite_buf_ so writes
  // that race the snapshot land in the new log too. The tee observes only
  // batches that fully succeeded, so a failed (rolled-back) append can
  // never resurrect through the mirror.
  std::mutex compact_mu_;  // one rewrite at a time
  std::mutex rewrite_mu_;  // guards rewrite_buf_ (the tee runs on the
                           // committer thread)
  std::string rewrite_buf_;
  std::atomic<uint64_t> aof_rewrite_starts_{0};
  std::atomic<uint64_t> last_rewrite_before_{0};
  std::atomic<uint64_t> last_rewrite_after_{0};
  std::atomic<int64_t> last_rewrite_micros_{0};

  mutable std::mutex tomb_mu_;
  std::unordered_set<std::string> tombstones_;

  std::atomic<bool> open_{false};
  std::atomic<bool> cron_running_{false};
  std::thread cron_;
  std::mutex cron_mu_;
  std::condition_variable cron_cv_;

  // Lazy-mode sampling cursor so successive cycles rotate shards.
  std::atomic<size_t> lazy_cursor_{0};
  Random lazy_rng_{0x5eed};
  std::mutex lazy_mu_;
};

}  // namespace gdpr::kv
