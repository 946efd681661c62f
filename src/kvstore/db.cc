#include "kvstore/db.h"

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/coding.h"
#include "common/hash.h"
#include "crypto/sha256.h"
#include "storage/file_rewrite.h"

namespace gdpr::kv {

namespace {

size_t RoundUpPow2(size_t n) {
  size_t p = 1;
  while (p < n) p <<= 1;
  return p;
}

std::string CompactTmpPath(const std::string& aof_path) {
  return aof_path + ".compact.tmp";
}

}  // namespace

MemKV::MemKV(const Options& options) : options_(options) {
  clock_ = options_.clock ? options_.clock : RealClock::Default();
  env_ = options_.env ? options_.env : Env::Posix();
  const size_t n = RoundUpPow2(std::max<size_t>(1, options_.shards));
  shard_mask_ = n - 1;
  shards_.reserve(n);
  for (size_t i = 0; i < n; ++i) shards_.push_back(std::make_unique<Shard>());
  if (options_.encrypt_at_rest) {
    aead_ = std::make_unique<Aead>(options_.encryption_key);
  }
  InitMetrics();
  if (options_.pipeline) {
    pipeline_ = options_.pipeline;
  } else {
    CommitPipeline::Options po;
    po.max_batch_frames = options_.commit_max_batch_frames;
    po.metrics = metrics_;
    po.clock = clock_;
    owned_pipeline_ = std::make_unique<CommitPipeline>(po);
    pipeline_ = owned_pipeline_.get();
  }
  aof_target_ = pipeline_->Attach("kv-aof", options_.sync_policy, &health_,
                                  m_aof_syncs_, m_aof_sync_fail_);
}

void MemKV::InitMetrics() {
  if (options_.metrics) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  get_us_ = metrics_->GetHistogram("memkv_get_us");
  get_batch_us_ = metrics_->GetHistogram("memkv_get_batch_us");
  set_us_ = metrics_->GetHistogram("memkv_set_us");
  delete_us_ = metrics_->GetHistogram("memkv_delete_us");
  expiry_cycle_us_ = metrics_->GetHistogram("memkv_expiry_cycle_us");
  m_scan_decrypt_fail_ = metrics_->GetCounter("memkv_scan_decrypt_failures");
  m_expired_keys_ = metrics_->GetCounter("memkv_expired_keys_total");
  m_aof_appends_ = metrics_->GetCounter("memkv_aof_appends_total");
  m_aof_append_bytes_ = metrics_->GetCounter("memkv_aof_append_bytes_total");
  m_aof_append_fail_ = metrics_->GetCounter("memkv_aof_append_failures_total");
  m_aof_syncs_ = metrics_->GetCounter("memkv_aof_fsyncs_total");
  m_aof_sync_fail_ = metrics_->GetCounter("memkv_aof_fsync_failures_total");
  m_aof_rewrites_ = metrics_->GetCounter("memkv_aof_rewrites_total");
  m_aof_log_bytes_ = metrics_->GetGauge("memkv_aof_log_bytes");
  m_tombstones_ = metrics_->GetGauge("memkv_tombstones");
  health_.AttachMetrics(metrics_->GetGauge("memkv_health_state"),
                        metrics_->GetCounter("memkv_health_transitions_total"));
}

obs::RegistrySnapshot MemKV::StatsSnapshot() {
  // Derived gauges are computed here, not maintained on hot paths: the
  // snapshot is the cold side of the design.
  metrics_->GetGauge("memkv_entries")->Set(static_cast<int64_t>(Size()));
  metrics_->GetGauge("memkv_bytes")
      ->Set(static_cast<int64_t>(ApproximateBytes()));
  auto& epoch = EpochManager::Global();
  metrics_->GetGauge("epoch_retired_backlog")
      ->Set(static_cast<int64_t>(epoch.RetiredCount()));
  metrics_->GetGauge("epoch_global")
      ->Set(static_cast<int64_t>(epoch.GlobalEpoch()));
  metrics_->GetGauge("epoch_pins_total")
      ->Set(static_cast<int64_t>(epoch.TotalPins()));
  return metrics_->Snapshot();
}

MemKV::~MemKV() { WarnIfError(Close(), "MemKV::Close"); }

Status MemKV::Open() {
  if (open_.load()) return Status::OK();
  if (options_.aof_enabled) {
    if (options_.aof_path.empty()) {
      return Status::InvalidArgument("aof_enabled requires aof_path");
    }
    health_.Reset();
    FileRewrite::DiscardLeftover(env_, CompactTmpPath(options_.aof_path));
    // An unreadable existing log must not open as an empty store: the
    // next append would strand everything already on disk.
    auto log = ReadLog(env_, options_.aof_path);
    Status s = log.status();
    CommitPipeline::FileSlot aof;
    if (s.ok()) {
      const int64_t now = NowMicros();
      auto valid = ReadFrames(log.value(), [&](std::string_view* in) {
        return StatusOr<bool>(ReplayAofFrame(in, now));
      });
      auto kept = ReopenLog(env_, options_.io_policy, options_.aof_path,
                            CompactTmpPath(options_.aof_path), log.value(),
                            valid.value(), /*header=*/"", &aof);
      s = kept.status();
      if (s.ok()) m_aof_log_bytes_->Set(static_cast<int64_t>(kept.value()));
    }
    if (!s.ok()) {
      health_.Fail(s);
      return s;
    }
    (void)pipeline_->WithFile(aof_target_, [&](CommitPipeline::FileSlot& f) {
      f = std::move(aof);
      return Status::OK();
    });
    aof_active_.store(true, std::memory_order_release);
  }
  open_.store(true);
  return Status::OK();
}

Status MemKV::Close() {
  if (!open_.exchange(false)) return Status::OK();
  StopExpiryCron();
  // Hygiene, not correctness: push retired map generations out before the
  // handle goes away so short-lived stores (tests, benches) don't stack
  // dead nodes in the global lists.
  EpochManager::Global().DrainRetired();
  aof_active_.store(false, std::memory_order_release);
  // compact_mu_ keeps a racing CompactAof from swapping the file while we
  // close it. Every queued frame is written before the final sync — an
  // acked write never dies in the queue, whatever the sync policy.
  std::lock_guard<std::mutex> compact_lock(compact_mu_);
  return pipeline_->CloseFile(aof_target_);
}

void MemKV::RegisterTtlLocked(Shard& s, const std::string& key,
                              int64_t expiry) {
  s.ttl_heap.push(HeapItem{expiry, key});
  auto it = s.ttl_pos.find(key);
  if (it == s.ttl_pos.end()) {
    s.ttl_pos.emplace(key, s.ttl_keys.size());
    s.ttl_keys.push_back(key);
  }
}

void MemKV::UnregisterTtlLocked(Shard& s, const std::string& key) {
  auto it = s.ttl_pos.find(key);
  if (it == s.ttl_pos.end()) return;
  const size_t pos = it->second;
  const size_t last = s.ttl_keys.size() - 1;
  if (pos != last) {
    s.ttl_keys[pos] = std::move(s.ttl_keys[last]);
    s.ttl_pos[s.ttl_keys[pos]] = pos;
  }
  s.ttl_keys.pop_back();
  s.ttl_pos.erase(it);
  // Heap entries are left stale and skipped on pop.
}

bool MemKV::EraseLocked(Shard& s, const std::string& key, uint64_t hash) {
  size_t old_value_size = 0;
  if (!s.map.Erase(key, hash, &old_value_size)) return false;
  s.bytes -= key.size() + old_value_size;
  UnregisterTtlLocked(s, key);
  return true;
}

void MemKV::UpsertLocked(Shard& s, const std::string& key, uint64_t hash,
                         std::string stored, int64_t expiry_abs) {
  const size_t new_value_size = stored.size();
  int64_t old_expiry = 0;
  size_t old_value_size = 0;
  const bool inserted = s.map.Upsert(key, hash, std::move(stored), expiry_abs,
                                     &old_expiry, &old_value_size);
  if (inserted) {
    s.bytes += key.size();
  } else {
    s.bytes -= old_value_size;
    if (old_expiry != 0 && expiry_abs == 0) UnregisterTtlLocked(s, key);
  }
  s.bytes += new_value_size;
  if (expiry_abs != 0) RegisterTtlLocked(s, key, expiry_abs);
}

Status MemKV::SetInternal(const std::string& key, const std::string& value,
                          int64_t expiry_abs) {
  obs::SampledTimer timer(set_us_, clock_);
  Status gate = health_.WriteGate("memkv");
  if (!gate.ok()) return gate;
  std::string stored = value;
  if (aead_) {
    stored = aead_->Seal(value, seal_seq_.Next());
  }
  const uint64_t h = Fnv1a(key);
  Shard& s = ShardFor(h);
  std::unique_lock<std::shared_mutex> l(s.mu);
  // Log before apply (docs/PERSISTENCE.md, "Failure policy"): a failed
  // append returns before memory changes, so a record can never be
  // resident but absent from the log. Logged under the shard lock: AOF
  // order must match apply order for same-key races, or replay restores
  // the overwritten value. The commit blocks here (the committer thread
  // needs no shard locks), so "AofAppend returned OK" means the frame is
  // on disk per the sync policy. The AOF carries the stored (possibly
  // sealed) value: at-rest bytes never hit disk in plaintext.
  if (aof_active_.load(std::memory_order_acquire)) {
    Status append = AofAppend('S', key, stored, expiry_abs);
    if (!append.ok()) return append;
  }
  UpsertLocked(s, key, h, std::move(stored), expiry_abs);
  return Status::OK();
}

Status MemKV::Set(const std::string& key, const std::string& value) {
  return SetInternal(key, value, 0);
}

Status MemKV::SetWithTtl(const std::string& key, const std::string& value,
                         int64_t ttl_micros) {
  const int64_t expiry = ttl_micros > 0 ? NowMicros() + ttl_micros : 0;
  return SetInternal(key, value, expiry);
}

StatusOr<std::string> MemKV::Get(const std::string& key) {
  // Sampled (1/32): two clock reads per op would be a measurable tax on a
  // path that costs a few hundred ns.
  obs::SampledTimer timer(get_us_, clock_);
  const uint64_t h = Fnv1a(key);
  // Lock-free: pin the epoch and walk the shard map with acquire loads. No
  // shared cache line is written except the thread's own epoch slot, so
  // Gets scale with reader threads and never wait behind a writer holding
  // the shard (bench_get_scale proves both properties).
  EpochGuard guard;
  std::string scratch;
  std::string_view value;
  Status s = ReadEntry(key, ShardFor(h).map.Find(key, h), NowMicros(),
                       &scratch, &value);
  if (!s.ok()) return s;
  return aead_ ? std::move(scratch) : std::string(value);
}

void MemKV::GetBatch(const std::vector<const std::string*>& keys,
                     const BatchFn& fn) {
  // Exact, one sample per batch: a batch costs hundreds of µs, so two
  // clock reads are noise, and memkv_get_us stays a point-read histogram.
  obs::ScopedTimer timer(get_batch_us_, clock_);
  const int64_t now = NowMicros();
  std::string scratch;
  EpochGuard guard;
  for (size_t base = 0; base < keys.size(); base += kBatchGroup) {
    const size_t n = std::min(kBatchGroup, keys.size() - base);
    const std::string* const* key = &keys[base];
    uint64_t hash[kBatchGroup];
    const EntryBlock* block[kBatchGroup];
    // Each stage issues the group's next dependent load while the previous
    // stage's misses are still in flight: bucket slot, head node, entry
    // block, value bytes. Only the Find in stage three is a lookup.
    for (size_t j = 0; j < n; ++j) {
      hash[j] = Fnv1a(*key[j]);
      ShardFor(hash[j]).map.PrefetchBucket(hash[j]);
    }
    for (size_t j = 0; j < n; ++j) ShardFor(hash[j]).map.PrefetchHead(hash[j]);
    for (size_t j = 0; j < n; ++j) {
      block[j] = ShardFor(hash[j]).map.Find(*key[j], hash[j]);
      Prefetch(block[j], sizeof(EntryBlock));
    }
    for (size_t j = 0; j < n; ++j) {
      // A record's bytes fit in a few lines; a long value's tail is left to
      // the hardware prefetcher, since hinting it would evict the group's.
      if (block[j] != nullptr) {
        const std::string& v = block[j]->value;
        Prefetch(v.data(), std::min<size_t>(v.size(), 512));
      }
    }
    for (size_t j = 0; j < n; ++j) {
      std::string_view value;
      const Status s = ReadEntry(*key[j], block[j], now, &scratch, &value);
      fn(base + j, s, value);
    }
  }
}

Status MemKV::ReadEntry(const std::string& key, const EntryBlock* b,
                        int64_t now, std::string* scratch,
                        std::string_view* value) {
  if (b == nullptr) return Status::NotFound(key);
  if (b->expiry_micros != 0 && b->expiry_micros <= now) {
    // Logically dead; erasure happens in the expiry cycle.
    return Status::NotFound(key + " (expired)");
  }
  if (options_.log_reads && aof_active_.load(std::memory_order_acquire) &&
      health_.writable()) {
    // Degraded stores keep serving reads but stop appending 'R' evidence —
    // the AOF handle cannot be trusted (docs/PERSISTENCE.md). The read
    // that *discovers* the failure still errors: the caller must see the
    // transition once, loudly.
    Status s = AppendReadLog(key);
    if (!s.ok()) return s;
  }
  if (!aead_) {
    *value = b->value;
    return Status::OK();
  }
  auto plain = aead_->Open(b->value);
  if (!plain.ok()) return plain.status();
  *scratch = std::move(plain.value());
  *value = *scratch;
  return Status::OK();
}

Status MemKV::Delete(const std::string& key) {
  obs::SampledTimer timer(delete_us_, clock_);
  Status gate = health_.WriteGate("memkv");
  if (!gate.ok()) return gate;
  const uint64_t h = Fnv1a(key);
  Shard& s = ShardFor(h);
  std::unique_lock<std::shared_mutex> l(s.mu);
  // Only a resident key earns a 'D' frame: a miss appending one anyway
  // would inflate the log (and the compaction-ratio policy feeding on
  // it) with no-op deletes.
  if (s.map.Find(key, h) == nullptr) return Status::NotFound(key);
  // Log before apply, as in SetInternal: a failed 'D' leaves the record
  // resident and served, and the caller must not treat the erasure as
  // done. Replay of a torn 'D' tail agrees — the prior 'S' wins.
  if (aof_active_.load(std::memory_order_acquire)) {
    Status append = AofAppend('D', key, "", 0);
    if (!append.ok()) return append;
  }
  EraseLocked(s, key, h);
  return Status::OK();
}

size_t MemKV::Size() const {
  size_t total = 0;
  for (const auto& s : shards_) {
    std::shared_lock<std::shared_mutex> l(s->mu);
    total += s->map.size();
  }
  return total;
}

size_t MemKV::ApproximateBytes() const {
  size_t total = 0;
  for (const auto& s : shards_) {
    std::shared_lock<std::shared_mutex> l(s->mu);
    total += s->bytes + s->ttl_keys.size() * 16;
  }
  return total;
}

size_t MemKV::Scan(const std::function<bool(const std::string&,
                                            const std::string&)>& fn) {
  const int64_t now = NowMicros();
  size_t decrypt_failures = 0;
  for (const auto& s : shards_) {
    // Epoch-pinned, not locked: writers to this shard proceed during the
    // walk. The pin covers the callback too, so keep callbacks short — a
    // long one holds back reclamation process-wide.
    EpochGuard guard;
    const bool keep_going =
        s->map.ForEach([&](const std::string& key, const EntryBlock& e) {
          if (e.expiry_micros != 0 && e.expiry_micros <= now) return true;
          if (aead_) {
            auto plain = aead_->Open(e.value);
            if (!plain.ok()) {
              // At-rest corruption must not vanish into a silent skip: the
              // entry is still omitted (there is no plaintext to hand
              // out), but the failure is counted and surfaced.
              ++decrypt_failures;
              m_scan_decrypt_fail_->Add(1);
              return true;
            }
            return fn(key, plain.value());
          }
          return fn(key, e.value);
        });
    if (!keep_going) break;
  }
  return decrypt_failures;
}

size_t MemKV::RunExpiryCycle() {
  obs::ScopedTimer timer(expiry_cycle_us_, clock_);
  const int64_t now = NowMicros();
  const size_t erased = options_.expiry_mode == ExpiryMode::kStrictScan
                            ? RunStrictCycle(now)
                            : RunLazyCycle(now);
  if (erased > 0) m_expired_keys_->Add(erased);
  // Expiry erasures retire nodes; the cycle doubles as the reclaim tick so
  // retired memory is bounded even when the write paths go quiet.
  EpochManager::Global().TryReclaim();
  return erased;
}

size_t MemKV::RunStrictCycle(int64_t now) {
  size_t erased = 0;
  const bool log = aof_active_.load(std::memory_order_acquire);
  for (const auto& sp : shards_) {
    Shard& s = *sp;
    std::unique_lock<std::shared_mutex> l(s.mu);
    while (!s.ttl_heap.empty() && s.ttl_heap.top().expiry_micros <= now) {
      HeapItem item = s.ttl_heap.top();
      s.ttl_heap.pop();
      const uint64_t h = Fnv1a(item.key);
      const EntryBlock* e = s.map.Find(item.key, h);
      // Skip stale heap entries: key gone, TTL rewritten, or persisted.
      if (e == nullptr || e->expiry_micros == 0 || e->expiry_micros > now ||
          e->expiry_micros != item.expiry_micros) {
        continue;
      }
      // Logged before the erase and under the shard lock, so a racing
      // re-Set of the key cannot be ordered before this 'D' in the AOF.
      // Its status is not needed: a failed append is counted and degrades
      // health in the pipeline, and replay erases an 'S' frame whose
      // expiry has passed, so a lost 'D' never brings the key back.
      if (log) (void)AofAppend('D', item.key, "", 0);
      EraseLocked(s, item.key, h);
      ++erased;
    }
  }
  return erased;
}

size_t MemKV::RunLazyCycle(int64_t now) {
  // Redis ACTIVE_EXPIRE_CYCLE: sample 20 keys from the TTL registry; erase
  // the expired; repeat while >25% of the sample was expired, bounded.
  constexpr size_t kSamplesPerRound = 20;
  constexpr size_t kMaxRounds = 16;
  size_t erased_total = 0;
  std::lock_guard<std::mutex> lazy_lock(lazy_mu_);
  const bool log = aof_active_.load(std::memory_order_acquire);
  for (size_t round = 0; round < kMaxRounds; ++round) {
    size_t sampled = 0, erased = 0;
    for (size_t i = 0; i < kSamplesPerRound; ++i) {
      Shard& s = *shards_[lazy_rng_.Uniform(shards_.size())];
      std::unique_lock<std::shared_mutex> l(s.mu);
      if (s.ttl_keys.empty()) continue;
      const std::string key = s.ttl_keys[lazy_rng_.Uniform(s.ttl_keys.size())];
      ++sampled;
      const uint64_t h = Fnv1a(key);
      const EntryBlock* e = s.map.Find(key, h);
      if (e != nullptr && e->expiry_micros != 0 && e->expiry_micros <= now) {
        // Status not needed, as in RunStrictCycle: replay drops the expired
        // 'S' frame even when this 'D' is lost.
        if (log) (void)AofAppend('D', key, "", 0);
        EraseLocked(s, key, h);
        ++erased;
      }
    }
    erased_total += erased;
    if (sampled == 0 || erased * 4 <= sampled) break;  // < 25% expired
  }
  return erased_total;
}

void MemKV::StartExpiryCron() {
  if (cron_running_.exchange(true)) return;
  cron_ = std::thread([this] {
    const auto period =
        std::chrono::microseconds(options_.expiry_cycle_micros);
    std::unique_lock<std::mutex> l(cron_mu_);
    while (cron_running_.load()) {
      cron_cv_.wait_for(l, period);
      if (!cron_running_.load()) break;
      RunExpiryCycle();
      // Background rewrite rides the same cron (Redis runs BGREWRITEAOF
      // off serverCron the same way).
      MaybeCompactAof();
    }
  });
}

void MemKV::StopExpiryCron() {
  if (!cron_running_.exchange(false)) return;
  {
    std::lock_guard<std::mutex> l(cron_mu_);
    cron_cv_.notify_all();
  }
  if (cron_.joinable()) cron_.join();
}

void MemKV::Clear() {
  for (const auto& sp : shards_) {
    Shard& s = *sp;
    std::unique_lock<std::shared_mutex> l(s.mu);
    s.map.Clear();
    s.ttl_keys.clear();
    s.ttl_pos.clear();
    while (!s.ttl_heap.empty()) s.ttl_heap.pop();
    s.bytes = 0;
  }
  {
    std::lock_guard<std::mutex> l(tomb_mu_);
    tombstones_.clear();
  }
  m_tombstones_->Set(0);
  // The wholesale clear just retired every node; give the reclaimer a push
  // so bench reload loops don't accumulate dead generations.
  EpochManager::Global().TryReclaim();
}

// --- Erasure tombstones ------------------------------------------------------
// Callers serialize per key above this layer (the GDPR key mutexes), so the
// set mutation and its AOF record cannot reorder for one key.

Status MemKV::AddTombstone(const std::string& key) {
  Status gate = health_.WriteGate("memkv");
  if (!gate.ok()) return gate;
  bool inserted;
  {
    std::lock_guard<std::mutex> l(tomb_mu_);
    inserted = tombstones_.insert(key).second;
  }
  if (inserted) m_tombstones_->Add(1);
  if (inserted && aof_active_.load(std::memory_order_acquire)) {
    // One of the two writes that apply before they log (ClearTombstone is
    // the other): AppendReadLog's enqueue gate must see the tombstone
    // before this 'T' is queued, or a racing read could land its 'R' frame
    // after the 'T' in the log (docs/PERSISTENCE.md, "Failure policy"). So
    // a failed append rolls back: unpersisted evidence would vanish on
    // restart, and the caller must not report an erasure it cannot prove
    // later.
    Status s = AofAppend('T', key, "", 0);
    if (!s.ok()) {
      std::lock_guard<std::mutex> l(tomb_mu_);
      tombstones_.erase(key);
      m_tombstones_->Add(-1);
      return s;
    }
  }
  return Status::OK();
}

Status MemKV::ClearTombstone(const std::string& key) {
  bool erased;
  {
    std::lock_guard<std::mutex> l(tomb_mu_);
    erased = tombstones_.erase(key) != 0;
  }
  if (erased) m_tombstones_->Add(-1);
  if (erased && aof_active_.load(std::memory_order_acquire)) {
    // The second write that applies before it logs: CompactAof snapshots
    // the tombstone set after the mirror drain, so it must never find a
    // tombstone whose 't' is already committed, or the rewritten log would
    // read 't' then 'T' and restart with the tombstone back. tomb_mu_
    // cannot be held across the append (AppendReadLog's gate takes it
    // under the queue mutex), so the erase goes first and a failed append
    // re-inserts: the evidence would reappear on restart.
    Status s = AofAppend('t', key, "", 0);
    if (!s.ok()) {
      std::lock_guard<std::mutex> l(tomb_mu_);
      tombstones_.insert(key);
      m_tombstones_->Add(1);
      return s;
    }
  }
  return Status::OK();
}

bool MemKV::HasTombstone(const std::string& key) const {
  std::lock_guard<std::mutex> l(tomb_mu_);
  return tombstones_.count(key) != 0;
}

std::vector<std::string> MemKV::Tombstones(
    const std::function<bool(const std::string&)>& key_pred) const {
  std::vector<std::string> out;
  std::lock_guard<std::mutex> l(tomb_mu_);
  for (const auto& key : tombstones_) {
    if (!key_pred || key_pred(key)) out.push_back(key);
  }
  return out;
}

size_t MemKV::TombstoneCount() const {
  std::lock_guard<std::mutex> l(tomb_mu_);
  return tombstones_.size();
}

void MemKV::EncodeAofRecord(std::string* dst, char op, const std::string& key,
                            const std::string& value, int64_t expiry) {
  dst->push_back(op);
  PutLengthPrefixed(dst, key);
  if (op == 'S') {
    PutLengthPrefixed(dst, value);
    PutFixed64(dst, uint64_t(expiry));
  }
}

Status MemKV::AofAppend(char op, const std::string& key,
                        const std::string& value, int64_t expiry) {
  std::string rec;
  EncodeAofRecord(&rec, op, key, value, expiry);
  // The AOF is one FIFO, so replay order matches enqueue order.
  return AofCommit(std::move(rec));
}

Status MemKV::AofCommit(std::string rec, const std::function<Status()>& gate) {
  const size_t n = rec.size();
  Status s = pipeline_->Commit(aof_target_, std::move(rec), gate);
  if (!s.ok()) {
    // A gate rejection (NotFound on a tombstoned read) is an ordering
    // verdict, not an I/O failure; everything else is. The pipeline has
    // already poisoned the target and degraded health_ — a failed batch
    // may be partially on disk (torn), and only a CompactAof rewrite from
    // authoritative memory heals.
    if (!s.IsNotFound()) m_aof_append_fail_->Add(1);
    return s;
  }
  m_aof_appends_->Add(1);
  m_aof_append_bytes_->Add(n);
  m_aof_log_bytes_->Add(static_cast<int64_t>(n));
  return s;
}

Status MemKV::AppendReadLog(const std::string& key) {
  std::string rec;
  EncodeAofRecord(&rec, 'R', key, "", 0);
  // Ordering contract with erasure evidence ('T' frames): the gate runs
  // under the AOF's queue mutex, and the AOF is one FIFO. So either this
  // gate observes no tombstone — then the racing AddTombstone's 'T' has
  // not been enqueued and lands after this 'R' — or the tombstone is
  // visible and the read linearizes after the erasure: no value, no
  // frame. The lock-free read path captures the value with no lock held,
  // so the order is enforced here, at the log's enqueue point.
  return AofCommit(std::move(rec), [this, &key]() -> Status {
    std::lock_guard<std::mutex> tl(tomb_mu_);
    if (tombstones_.count(key) != 0) {
      return Status::NotFound(key + " (erased)");
    }
    return Status::OK();
  });
}

bool MemKV::ReplayAofFrame(std::string_view* in, int64_t now) {
  // A fully-written bad frame is indistinguishable from a partial one in
  // this unchecksummed format: either way it does not parse, and replay
  // keeps the valid prefix before it.
  const char op = in->front();
  in->remove_prefix(1);
  if (op == 'Q') {
    // Seal-sequence high-water mark, written by CompactAof. The rewrite
    // drops dead sealed frames, so the embedded-seq recovery below can
    // no longer see the true maximum — this frame carries it instead.
    // Resuming lower would reuse ChaCha20 (key, seq) nonces.
    uint64_t seq = 0;
    if (!GetFixed64(in, &seq)) return false;
    seal_seq_.RaiseAbove(seq);
    return true;
  }
  std::string_view key, value;
  uint64_t expiry = 0;
  if (!GetLengthPrefixed(in, &key)) return false;
  if (op == 'S') {
    if (!GetLengthPrefixed(in, &value) || !GetFixed64(in, &expiry)) {
      return false;
    }
    if (aead_) seal_seq_.RaiseAboveSealed(value);
  }
  std::string k(key);
  if (op == 'S' || op == 'D') {
    const uint64_t h = Fnv1a(k);
    Shard& s = ShardFor(h);
    std::unique_lock<std::shared_mutex> l(s.mu);
    if (op == 'S' && (expiry == 0 || int64_t(expiry) > now)) {
      UpsertLocked(s, k, h, std::string(value), int64_t(expiry));
    } else {
      // A delete, or a last write of this key that is already dead: erase
      // any earlier replayed value instead of skipping, or it would be
      // resurrected.
      EraseLocked(s, k, h);
    }
  } else if (op == 'T') {
    std::lock_guard<std::mutex> l(tomb_mu_);
    if (tombstones_.insert(std::move(k)).second) m_tombstones_->Add(1);
  } else if (op == 't') {
    std::lock_guard<std::mutex> l(tomb_mu_);
    if (tombstones_.erase(k) != 0) m_tombstones_->Add(-1);
  } else if (op != 'R') {  // 'R' is a read-log entry: no state change
    return false;          // unknown opcode
  }
  return true;
}

// --- AOF rewrite -------------------------------------------------------------

void MemKV::SetRewriteMirror(bool on) {
  std::function<void(std::string_view)> tee;
  if (on) {
    tee = [this](std::string_view batch) {
      std::lock_guard<std::mutex> rl(rewrite_mu_);
      rewrite_buf_.append(batch);
    };
  }
  (void)pipeline_->WithFile(aof_target_, [&](CommitPipeline::FileSlot&) {
    pipeline_->SetTee(aof_target_, std::move(tee));
    std::lock_guard<std::mutex> rl(rewrite_mu_);
    rewrite_buf_.clear();
    return Status::OK();
  });
}

Status MemKV::CompactAof() {
  if (!options_.aof_enabled) return Status::OK();  // nothing on disk to shrink
  std::lock_guard<std::mutex> compact_lock(compact_mu_);
  const uint64_t bytes_before = AofLogBytes();
  if (!open_.load(std::memory_order_acquire)) {
    return Status::FailedPrecondition("store not open");
  }
  // Phase 1: arm the pipeline tee — from here on every committed batch is
  // mirrored into rewrite_buf_ for the new log as well as the old one.
  // The tee fires only after a batch fully succeeded, so a failed append,
  // whose write never reached memory (log before apply), cannot resurrect
  // via the mirror.
  // A degraded store may have no live handle (failed re-establishment);
  // the rewrite proceeds anyway — memory is authoritative and a
  // successful pass heals it.
  SetRewriteMirror(true);
  aof_rewrite_starts_.fetch_add(1);
  // Phase 2: snapshot live state into the temp file, one shard lock at a
  // time (writers to other shards proceed). Stored values are copied
  // verbatim — sealed bytes never round-trip through plaintext. Expired-
  // but-unreclaimed entries are dropped: replay would erase them anyway.
  FileRewrite rewrite(env_, options_.io_policy,
                      CompactTmpPath(options_.aof_path), options_.aof_path);
  Status st = rewrite.Open();
  const int64_t now = NowMicros();
  uint64_t tmp_bytes = 0;
  std::string buf;
  for (size_t i = 0; st.ok() && i < shards_.size(); ++i) {
    Shard& s = *shards_[i];
    buf.clear();
    {
      // Shared lock: excludes writers for a consistent per-shard snapshot;
      // the lock-free readers are unaffected.
      std::shared_lock<std::shared_mutex> l(s.mu);
      s.map.ForEach([&](const std::string& key, const EntryBlock& e) {
        if (e.expiry_micros == 0 || e.expiry_micros > now) {
          EncodeAofRecord(&buf, 'S', key, e.value, e.expiry_micros);
        }
        return true;
      });
    }
    st = rewrite.file()->Append(buf);
    tmp_bytes += buf.size();
  }
  // Sync the bulk snapshot BEFORE taking aof_mu_: this fsync is
  // proportional to total live data and must not stall writers; the one
  // under the lock covers only the small racing-write tail.
  if (st.ok()) st = rewrite.file()->Sync();
  if (!st.ok()) {
    SetRewriteMirror(false);  // the temp goes away with `rewrite`
    return st;
  }
  // Phase 3: quiesce the pipeline (queued frames drain to the old log and
  // into the mirror, new commits park at the pipeline gate), drain the
  // mirror buffer, emit the tombstone snapshot, fsync the tail, and
  // atomically swap the logs. Writers stall only for this window — the
  // p99 cost bench_compaction measures. A crash before the rename is
  // durable leaves the old AOF authoritative; after, the new one. Never a
  // mix.
  //
  // The tombstone snapshot comes AFTER the mirror drain, not in phase 2:
  // a Get's 'R' frame enqueued only while its key was un-tombstoned (the
  // AppendReadLog gate), the AOF is one FIFO, and the tee preserves
  // commit order — so every mirrored 'R' precedes its key's tombstone
  // registration, and emitting the 'T' snapshot behind the mirror keeps
  // the rewritten log honoring the same no-R-after-T evidence ordering
  // the live log guarantees. A mirrored 't' is safe behind it too:
  // ClearTombstone erases before it logs, so the snapshot cannot still
  // hold a key whose 't' has committed. Tombstones outlive the records
  // they evidence: the erased data's frames are gone from the new log, the
  // proof of erasure is not.
  Status swap = pipeline_->WithFile(aof_target_, [&](CommitPipeline::FileSlot&
                                                         aof) -> Status {
    pipeline_->SetTee(aof_target_, nullptr);
    {
      std::lock_guard<std::mutex> rl(rewrite_mu_);
      if (!rewrite_buf_.empty()) {
        st = rewrite.file()->Append(rewrite_buf_);
        tmp_bytes += rewrite_buf_.size();
      }
      rewrite_buf_.clear();
    }
    if (st.ok()) {
      buf.clear();
      {
        std::lock_guard<std::mutex> tl(tomb_mu_);
        for (const auto& key : tombstones_) {
          EncodeAofRecord(&buf, 'T', key, "", 0);
        }
      }
      st = rewrite.file()->Append(buf);
      tmp_bytes += buf.size();
    }
    if (st.ok() && aead_) {
      // The rewrite dropped dead sealed frames, so the replayer can no
      // longer recover the seal counter from embedded sequences alone:
      // record the allocated high-water mark explicitly ('Q' frame).
      // Every seq allocated after this load lands as a frame behind it.
      std::string seq_frame;
      seq_frame.push_back('Q');
      PutFixed64(&seq_frame, seal_seq_.mark());
      st = rewrite.file()->Append(seq_frame);
      tmp_bytes += seq_frame.size();
    }
    if (st.ok()) st = rewrite.Seal();
    if (!st.ok()) return st;
    if (aof) {
      // Best-effort: a degraded (poisoned) handle errors here, which is
      // fine — the rename below replaces its file wholesale.
      (void)aof->Close().ok();
      aof.reset();
    }
    st = rewrite.Commit(&aof);
    if (!st.ok()) {
      // Memory state is intact but the log handle is gone. Degrade to
      // read-only instead of accepting writes that would silently vanish
      // on the next restart.
      aof_active_.store(false, std::memory_order_release);
      health_.Degrade(st);
      return st;
    }
    // The new file clears the pipeline's poison latch: the whole log was
    // just rebuilt from authoritative memory and fsynced.
    m_aof_log_bytes_->Set(static_cast<int64_t>(tmp_bytes));
    aof_active_.store(true, std::memory_order_release);
    health_.Heal();
    return Status::OK();
  });
  if (!swap.ok()) return swap;
  m_aof_rewrites_->Add(1);
  last_rewrite_before_.store(bytes_before);
  last_rewrite_after_.store(tmp_bytes);
  last_rewrite_micros_.store(RealClock::Default()->NowMicros());
  return Status::OK();
}

bool MemKV::AofCompactionDue() const {
  if (!options_.aof_enabled || !options_.aof_auto_compact) return false;
  if (options_.aof_compact_min_bytes == 0 || options_.aof_compact_ratio <= 0) {
    return false;
  }
  const uint64_t log = AofLogBytes();
  if (log < options_.aof_compact_min_bytes) return false;
  return double(log) > options_.aof_compact_ratio * double(ApproximateBytes());
}

void MemKV::MaybeCompactAof() {
  if (AofCompactionDue()) CompactAof().ok();
}

AofStats MemKV::GetAofStats() const {
  AofStats s;
  s.rewrites = m_aof_rewrites_->Value();
  s.log_bytes = AofLogBytes();
  s.live_bytes = ApproximateBytes();
  s.last_bytes_before = last_rewrite_before_.load();
  s.last_bytes_after = last_rewrite_after_.load();
  s.last_rewrite_micros = last_rewrite_micros_.load();
  return s;
}

}  // namespace gdpr::kv
