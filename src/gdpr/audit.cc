#include "gdpr/audit.h"

#include <algorithm>

#include "common/clock.h"
#include "common/coding.h"
#include "crypto/sha256.h"
#include "storage/file_rewrite.h"

namespace gdpr {

namespace {

constexpr char kGenesis[] = "audit-chain-genesis";
// Segment frame vocabulary:
//   'A' <epoch:varint> <anchor:lenprefixed>   segment header. In segment 1
//       the anchor is the chain's verification anchor (genesis, or the
//       head re-anchored by the last compaction); in later segments it is
//       the running head at the boundary, a cross-check that rotation and
//       replay agree. The epoch fences segments orphaned by a crash
//       mid-compaction (same trick as the WAL's 'E' stamp).
//   'G' <hash:lenprefixed> <n:varint> <entries> one sealed group; hash =
//       SHA256(prev_head || entries) and must recompute on replay.
constexpr char kFrameHeader = 'A';
constexpr char kFrameGroup = 'G';

std::string HeaderFrame(uint64_t epoch, const std::string& anchor) {
  std::string frame(1, kFrameHeader);
  PutVarint64(&frame, epoch);
  PutLengthPrefixed(&frame, anchor);
  return frame;
}

}  // namespace

AuditLog::AuditLog(size_t seal_interval)
    : seal_interval_(seal_interval ? seal_interval : 1),
      head_(kGenesis),
      anchor_(kGenesis) {}

void AuditLog::EncodeEntry(std::string* dst, const AuditEntry& e) {
  PutFixed64(dst, uint64_t(e.timestamp_micros));
  PutLengthPrefixed(dst, e.actor_id);
  dst->push_back(char(e.role));
  PutLengthPrefixed(dst, e.op);
  PutLengthPrefixed(dst, e.key);
  dst->push_back(e.allowed ? 1 : 0);
}

bool AuditLog::DecodeEntry(std::string_view* in, AuditEntry* e) {
  uint64_t ts = 0;
  std::string_view actor, op, key;
  if (!GetFixed64(in, &ts) || !GetLengthPrefixed(in, &actor) || in->empty()) {
    return false;
  }
  const uint8_t role = uint8_t(in->front());
  in->remove_prefix(1);
  if (role > uint8_t(Actor::Role::kRegulator)) return false;
  if (!GetLengthPrefixed(in, &op) || !GetLengthPrefixed(in, &key) ||
      in->empty()) {
    return false;
  }
  const uint8_t allowed = uint8_t(in->front());
  in->remove_prefix(1);
  if (allowed > 1) return false;
  e->timestamp_micros = int64_t(ts);
  e->actor_id = std::string(actor);
  e->role = Actor::Role(role);
  e->op = std::string(op);
  e->key = std::string(key);
  e->allowed = allowed != 0;
  return true;
}

size_t AuditLog::EntryCost(const AuditEntry& e) {
  return 32 + e.actor_id.size() + e.op.size() + e.key.size() + 10;
}

std::string AuditLog::GroupStep(const std::string& prev,
                                const AuditEntry* begin, size_t n) {
  std::string payload;
  for (size_t i = 0; i < n; ++i) EncodeEntry(&payload, begin[i]);
  return GroupStepEncoded(prev, payload);
}

std::string AuditLog::GroupStepEncoded(const std::string& prev,
                                       const std::string& payload) {
  std::string buf = prev;
  buf += payload;
  const Sha256::Digest d = Sha256::Hash(buf);
  return std::string(reinterpret_cast<const char*>(d.data()), d.size());
}

std::string AuditLog::SegmentPath(uint64_t n) const {
  return opts_.path + ".seg" + std::to_string(n);
}

Status AuditLog::WriteSegmentHeaderLocked(WritableFile* f, uint64_t epoch,
                                          const std::string& anchor,
                                          uint64_t* bytes) const {
  const std::string frame = HeaderFrame(epoch, anchor);
  Status s = f->Append(frame);
  // Headers are rare (one per rotation) and anchor the whole segment's
  // meaning: always sync them regardless of policy.
  if (s.ok()) s = f->Sync();
  if (s.ok() && bytes) *bytes = frame.size();
  return s;
}

Status AuditLog::OpenDurable(const AuditLogOptions& opts) {
  std::lock_guard<std::mutex> l(mu_);
  if (durable_) return Status::OK();
  if (opts.path.empty()) {
    return Status::InvalidArgument("durable audit log requires a path");
  }
  opts_ = opts;
  if (!opts_.env) opts_.env = Env::Posix();
  // Disk is authoritative: the replayed chain replaces any in-memory state
  // (a clean CloseDurable sealed everything to disk first, so a reopen on
  // the same object loses nothing).
  ResetChainLocked();
  epoch_ = 0;
  active_seg_ = 1;
  active_bytes_ = 0;
  io_status_ = Status::OK();
  FileRewrite::DiscardLeftover(opts_.env, RewriteTmpPath());
  if (opts_.pipeline) {
    pipeline_ = opts_.pipeline;
  } else {
    if (!owned_pipeline_) {
      CommitPipeline::Options po;
      po.metrics = metrics_reg_;
      owned_pipeline_ = std::make_unique<CommitPipeline>(po);
    }
    pipeline_ = owned_pipeline_.get();
  }
  // No HealthTracker: the chain's health() derives from io_status_, which
  // latches on the first failed Commit.
  target_ = pipeline_->Attach("audit", opts_.sync_policy);
  Status s = pipeline_->WithFile(target_, [&](CommitPipeline::FileSlot& seg) {
    Status rs = ReplayLocked(seg);
    if (!rs.ok()) seg.reset();
    return rs;
  });
  if (!s.ok()) {
    // Don't present the partially-replayed prefix as a healthy chain: a
    // diagnostic VerifyChain() on this object after a refused open would
    // otherwise report "verified" over exactly the bytes the open rejected.
    ResetChainLocked();
    return s;
  }
  durable_ = true;
  return Status::OK();
}

Status AuditLog::ReplayLocked(CommitPipeline::FileSlot& active) {
  Env* env = opts_.env;
  uint64_t seg = 1;
  const auto corrupt = [&seg](const char* what) {
    return Status::DataLoss("audit segment " + std::to_string(seg) + ": " +
                            what);
  };
  bool stale = false;
  // A segment's first frame is its header.
  const auto decode_header = [&](std::string_view* in) -> StatusOr<bool> {
    uint64_t epoch = 0;
    std::string_view anchor;
    if (in->front() != kFrameHeader) return false;
    in->remove_prefix(1);
    if (!GetVarint64(in, &epoch) || !GetLengthPrefixed(in, &anchor)) {
      return false;
    }
    if (seg == 1) {
      epoch_ = epoch;
      anchor_ = std::string(anchor);
      head_ = anchor_;
    } else if (epoch != epoch_) {
      // Stale leftovers of an interrupted compaction (segment 1 was
      // rewritten with a bumped epoch; these were about to be deleted).
      stale = true;
      return false;
    } else if (anchor != head_) {
      return corrupt("boundary anchor does not match the chain");
    }
    return true;
  };
  const auto decode_group = [&](std::string_view* in) -> StatusOr<bool> {
    std::string_view hash;
    uint64_t n = 0;
    if (in->front() != kFrameGroup) return false;
    in->remove_prefix(1);
    if (!GetLengthPrefixed(in, &hash) || !GetVarint64(in, &n) || n == 0) {
      return false;
    }
    const char* payload_begin = in->data();
    std::vector<AuditEntry> decoded;
    decoded.reserve(size_t(std::min<uint64_t>(n, in->size())));
    for (uint64_t i = 0; i < n; ++i) {
      AuditEntry e;
      if (!DecodeEntry(in, &e)) return false;
      decoded.push_back(std::move(e));
    }
    // The hash is the tamper evidence: a fully-written frame that does
    // not recompute is corruption, not a crash artifact.
    const std::string expect = GroupStepEncoded(
        head_, std::string(payload_begin, size_t(in->data() - payload_begin)));
    if (hash != expect) {
      return corrupt("group hash mismatch (tamper/corruption)");
    }
    head_ = expect;
    group_sizes_.push_back(uint32_t(n));
    for (auto& e : decoded) {
      bytes_ += EntryCost(e);
      entries_.push_back(std::move(e));
    }
    return true;
  };
  std::string contents;  // the active segment's bytes
  size_t valid = 0;      // ... and the length of their valid prefix
  for (; env->FileExists(SegmentPath(seg)); ++seg) {
    auto read = env->ReadFileToString(SegmentPath(seg));
    if (!read.ok()) return read.status();
    const std::string_view bytes(read.value());
    auto frames = ReadFrames(bytes, [&](std::string_view* in) {
      return in->data() == bytes.data() ? decode_header(in)
                                        : decode_group(in);
    });
    if (!frames.ok()) return frames.status();
    if (stale) {
      // Finish the interrupted compaction and stop: the compacted chain,
      // through the previous segment, is complete.
      DeleteSegmentsFromLocked(seg);
      break;
    }
    if (env->FileExists(SegmentPath(seg + 1)) &&
        (frames.value() == 0 || frames.value() < bytes.size())) {
      // Only the last segment may end torn: a rotation or crash there is
      // a crash artifact, anywhere else it is lost evidence.
      return corrupt(frames.value() == 0
                         ? "unreadable header"
                         : "torn frame before the final segment");
    }
    contents = std::move(read.value());
    valid = frames.value();
    active_seg_ = seg;
  }
  // A missing header (a fresh chain, or a rotation that crashed
  // mid-header) is written fresh for the current chain: segment 1 anchors
  // at genesis.
  auto kept = ReopenLog(env, opts_.io_policy, SegmentPath(active_seg_),
                        RewriteTmpPath(), contents, valid,
                        HeaderFrame(epoch_, head_), &active);
  if (!kept.ok()) return kept.status();
  active_bytes_ = kept.value();
  return Status::OK();
}

Status AuditLog::CloseDurable() {
  std::lock_guard<std::mutex> l(mu_);
  if (!durable_) return Status::OK();
  DrainStagedLocked();
  SealPendingLocked();  // the tail becomes a durable group
  Status out = io_status_;
  Status qs = pipeline_->CloseFile(target_);
  if (out.ok() && !qs.ok()) out = qs;
  // The (now detached) target stays parked in the pipeline; a reopen
  // attaches a fresh one.
  target_ = nullptr;
  pipeline_ = nullptr;
  durable_ = false;
  return out;
}

bool AuditLog::durable() const {
  std::lock_guard<std::mutex> l(mu_);
  return durable_;
}

HealthReport AuditLog::health() const {
  std::lock_guard<std::mutex> l(mu_);
  if (io_status_.ok()) return {};
  return {HealthState::kDegradedReadOnly, io_status_};
}

void AuditLog::PersistGroupLocked(const std::string& payload, size_t n) const {
  if (!io_status_.ok()) {
    // After one failed group the disk chain is a strict prefix; writing a
    // later group would leave a hash gap that replay must reject. Stay
    // offline until a compaction rewrites the full chain from memory.
    return;
  }
  std::string frame(1, kFrameGroup);
  PutLengthPrefixed(&frame, head_);
  PutVarint64(&frame, n);
  frame += payload;
  const size_t frame_bytes = frame.size();
  // Seals happen under mu_ and the target is one FIFO, so frames land in
  // chain order. A kEverySec timed-sync failure poisons the target, so
  // the NEXT group latches io_status_ here before a hash gap reaches disk.
  Status s = pipeline_->Commit(target_, std::move(frame));
  if (!s.ok()) {
    if (m_persist_fail_) m_persist_fail_->Add(1);
    io_status_ = s;
    return;
  }
  if (m_persisted_bytes_) m_persisted_bytes_->Add(frame_bytes);
  active_bytes_ += frame_bytes;
  if (opts_.rotate_bytes != 0 && active_bytes_ >= opts_.rotate_bytes) {
    RotateLocked();
  }
}

void AuditLog::RotateLocked() const {
  // All commits to this target happen under mu_ (held here), so the
  // pipeline drains instantly and no writer can observe the swap.
  Status qs = pipeline_->WithFile(target_, [&](CommitPipeline::FileSlot&
                                                    seg) -> Status {
    Status s = seg->Sync();
    if (s.ok()) s = seg->Close();
    if (!s.ok()) return s;
    seg.reset();
    ++active_seg_;
    // truncate=true: a stale same-numbered file (fenced leftover of an old
    // incarnation) must not leak frames ahead of ours. Rotation is a
    // background path and the truncating create is idempotent, so transient
    // failures get a bounded retry before the latch trips.
    Status fs = OpenWithRetry(opts_.env, opts_.io_policy,
                              SegmentPath(active_seg_), /*truncate=*/true,
                              &seg);
    if (!fs.ok()) {
      --active_seg_;
      return fs;
    }
    // The header goes straight to the file: the segment joins the commit
    // stream only when WithFile attaches it.
    return WriteSegmentHeaderLocked(seg.get(), epoch_, head_, &active_bytes_);
  });
  if (!qs.ok()) io_status_ = qs;
}

StatusOr<AuditCompactResult> AuditLog::Compact(int64_t now_micros) {
  std::lock_guard<std::mutex> l(mu_);
  AuditCompactResult res;
  if (!durable_) return res;
  res.segments_before = active_seg_;
  res.segments_after = active_seg_;
  DrainStagedLocked();
  SealPendingLocked();
  // A latched append failure means the disk chain is a stale prefix of the
  // in-memory one; the rewrite below re-persists the whole chain from
  // memory, so it must run even when retention is unset or nothing aged
  // out — otherwise the documented "compaction heals the backing" promise
  // would silently depend on the retention knob.
  const bool heal = !io_status_.ok();
  // Droppable = maximal prefix of whole groups entirely older than the
  // cutoff (the chain is group-granular; a half-dropped group could never
  // re-verify). Entries are in timestamp order, so checking each group's
  // newest entry suffices.
  size_t drop_groups = 0, drop_entries = 0;
  if (opts_.retention_micros > 0) {
    const int64_t cutoff = now_micros - opts_.retention_micros;
    for (const uint32_t n : group_sizes_) {
      const AuditEntry& newest = entries_[drop_entries + n - 1];
      if (newest.timestamp_micros > cutoff) break;
      ++drop_groups;
      drop_entries += n;
    }
  }
  if (drop_groups == 0 && !heal) return res;
  // New anchor = chain head at the drop boundary (the pre-compaction head
  // of everything dropped). Surviving group hashes are unchanged: their
  // prev-links never referenced the dropped bytes, only this hash.
  std::string new_anchor = anchor_;
  {
    size_t at = 0;
    for (size_t g = 0; g < drop_groups; ++g) {
      new_anchor = GroupStep(new_anchor, entries_.data() + at, group_sizes_[g]);
      at += group_sizes_[g];
    }
  }
  Env* env = opts_.env;
  // The whole rewrite runs inside WithFile: the pipeline must not touch
  // the segment being replaced, and the new file it ends with re-
  // establishes the log (clearing any poison from the failure being healed).
  Status cs = pipeline_->WithFile(target_, [&](CommitPipeline::FileSlot&
                                                   seg) -> Status {
    if (seg) {
      seg->Sync().ok();
      seg->Close().ok();
      seg.reset();
    }
    FileRewrite rewrite(env, opts_.io_policy, RewriteTmpPath(),
                        SegmentPath(1));
    const uint64_t next_epoch = epoch_ + 1;
    uint64_t new_bytes = 0;
    Status s = rewrite.Open();
    if (s.ok()) {
      s = WriteSegmentHeaderLocked(rewrite.file(), next_epoch, new_anchor,
                                   &new_bytes);
    }
    std::string chain = new_anchor;
    size_t at = drop_entries;
    for (size_t g = drop_groups; s.ok() && g < group_sizes_.size(); ++g) {
      const uint32_t n = group_sizes_[g];
      std::string payload;
      for (uint32_t i = 0; i < n; ++i) EncodeEntry(&payload, entries_[at + i]);
      chain = GroupStepEncoded(chain, payload);
      std::string frame(1, kFrameGroup);
      PutLengthPrefixed(&frame, chain);
      PutVarint64(&frame, n);
      frame += payload;
      s = rewrite.file()->Append(frame);
      new_bytes += frame.size();
      at += n;
    }
    // Commit point. A crash before the rename is durable leaves the old
    // segments authoritative (the temp is discarded on the next open);
    // after it, the epoch bump fences the not-yet-deleted old ones off.
    if (s.ok()) s = rewrite.Commit(&seg);
    if (!rewrite.committed()) {
      auto f =
          env->NewWritableFile(SegmentPath(active_seg_), /*truncate=*/false);
      if (f.ok()) {
        seg = std::move(f.value());
      } else {
        io_status_ = f.status();
      }
      return s;
    }
    // A failed commit may have renamed without a durable directory entry:
    // the old segments stay until a crash can no longer bring the old
    // segment 1 back (replay drops them as stale leftovers meanwhile).
    if (s.ok()) DeleteSegmentsFromLocked(2);
    epoch_ = next_epoch;
    entries_.erase(entries_.begin(), entries_.begin() + drop_entries);
    group_sizes_.erase(group_sizes_.begin(),
                       group_sizes_.begin() + drop_groups);
    bytes_ = 0;
    for (const AuditEntry& e : entries_) bytes_ += EntryCost(e);
    anchor_ = new_anchor;
    dropped_entries_total_ += drop_entries;
    active_seg_ = 1;
    active_bytes_ = new_bytes;
    // The rewrite re-persisted the entire surviving chain from memory, so a
    // previously latched append failure is healed — unless segment 1 could
    // not be reopened for append.
    io_status_ = s;
    if (!s.ok()) return s;
    res.dropped_entries = drop_entries;
    res.dropped_groups = drop_groups;
    res.segments_after = 1;
    return Status::OK();
  });
  if (!cs.ok()) return cs;
  return res;
}

void AuditLog::SealPendingLocked() const {
  if (pending_ == 0) return;
  const size_t n = pending_;
  std::string payload;
  const AuditEntry* begin = entries_.data() + (entries_.size() - n);
  for (size_t i = 0; i < n; ++i) EncodeEntry(&payload, begin[i]);
  head_ = GroupStepEncoded(head_, payload);
  group_sizes_.push_back(uint32_t(n));
  pending_ = 0;
  if (m_sealed_groups_) m_sealed_groups_->Add(1);
  if (durable_) PersistGroupLocked(payload, n);
}

AuditLog::Stage& AuditLog::StageFor() const {
  // Threads take stages round-robin in the order they first append, so any
  // kStages threads that start appending in turn share no stage mutex, the
  // same on every run.
  static std::atomic<size_t> next{0};
  thread_local const size_t index =
      next.fetch_add(1, std::memory_order_relaxed) % kStages;
  return stages_[index];
}

void AuditLog::DrainStagedLocked() const {
  if (staged_.load(std::memory_order_acquire) == 0) return;
  std::array<std::vector<AuditEntry>, kStages> grabbed;
  size_t total = 0;
  for (size_t i = 0; i < kStages; ++i) {
    std::lock_guard<std::mutex> sl(stages_[i].mu);
    grabbed[i] = std::move(stages_[i].entries);
    stages_[i].entries.clear();
    total += grabbed[i].size();
  }
  if (total == 0) return;
  staged_.fetch_sub(total, std::memory_order_acq_rel);
  // k-way merge by timestamp, preserving each stage's push order (one
  // appender always lands in one stage, so a single-threaded caller gets
  // exactly its append order back). The clamp then keeps the chain's
  // non-decreasing-timestamp invariant through clock weirdness, as the
  // locked Append always did.
  std::array<size_t, kStages> at{};
  for (size_t done = 0; done < total; ++done) {
    size_t best = kStages;
    for (size_t i = 0; i < kStages; ++i) {
      if (at[i] >= grabbed[i].size()) continue;
      if (best == kStages || grabbed[i][at[i]].timestamp_micros <
                                 grabbed[best][at[best]].timestamp_micros) {
        best = i;
      }
    }
    AuditEntry e = std::move(grabbed[best][at[best]++]);
    if (!entries_.empty() &&
        e.timestamp_micros < entries_.back().timestamp_micros) {
      e.timestamp_micros = entries_.back().timestamp_micros;
    }
    bytes_ += EntryCost(e);
    entries_.push_back(std::move(e));
    ++pending_;
  }
}

void AuditLog::Append(AuditEntry entry) {
  size_t staged;
  {
    Stage& st = StageFor();
    std::lock_guard<std::mutex> sl(st.mu);
    st.entries.push_back(std::move(entry));
    staged = staged_.fetch_add(1, std::memory_order_acq_rel) + 1;
  }
  if (m_appends_) m_appends_->Add(1);
  if (staged >= seal_interval_.load(std::memory_order_relaxed)) {
    std::lock_guard<std::mutex> l(mu_);
    DrainStagedLocked();
    if (pending_ >= seal_interval_.load(std::memory_order_relaxed)) {
      SealPendingLocked();
    }
  }
}

void AuditLog::AttachMetrics(obs::MetricsRegistry* reg) {
  std::lock_guard<std::mutex> l(mu_);
  metrics_reg_ = reg;
  m_appends_ = reg->GetCounter("audit_appends_total");
  m_sealed_groups_ = reg->GetCounter("audit_sealed_groups_total");
  m_persisted_bytes_ = reg->GetCounter("audit_persisted_bytes_total");
  m_persist_fail_ = reg->GetCounter("audit_persist_failures_total");
}

size_t AuditLog::unsealed_tail() const {
  std::lock_guard<std::mutex> l(mu_);
  DrainStagedLocked();
  return pending_;
}

int64_t AuditLog::oldest_unsealed_micros() const {
  std::lock_guard<std::mutex> l(mu_);
  DrainStagedLocked();
  if (pending_ == 0) return 0;
  return entries_[entries_.size() - pending_].timestamp_micros;
}

size_t AuditLog::size() const {
  std::lock_guard<std::mutex> l(mu_);
  DrainStagedLocked();
  return entries_.size();
}

std::vector<AuditEntry> AuditLog::Query(int64_t from_micros,
                                        int64_t to_micros) const {
  // Drain (so staged appends are visible) but no seal: the unsealed tail
  // lives in entries_, and sealing here would make group boundaries depend
  // on query timing.
  std::lock_guard<std::mutex> l(mu_);
  DrainStagedLocked();
  auto lo = std::lower_bound(entries_.begin(), entries_.end(), from_micros,
                             [](const AuditEntry& e, int64_t t) {
                               return e.timestamp_micros < t;
                             });
  auto hi = std::upper_bound(lo, entries_.end(), to_micros,
                             [](int64_t t, const AuditEntry& e) {
                               return t < e.timestamp_micros;
                             });
  return std::vector<AuditEntry>(lo, hi);
}

std::string AuditLog::head_hash() const {
  std::lock_guard<std::mutex> l(mu_);
  DrainStagedLocked();
  SealPendingLocked();
  return head_;
}

bool AuditLog::VerifyChain() const {
  std::lock_guard<std::mutex> l(mu_);
  DrainStagedLocked();
  SealPendingLocked();
  std::string h = anchor_;
  size_t at = 0;
  for (const uint32_t n : group_sizes_) {
    if (at + n > entries_.size()) return false;
    h = GroupStep(h, entries_.data() + at, n);
    at += n;
  }
  return at == entries_.size() && h == head_;
}

size_t AuditLog::ApproximateBytes() const {
  std::lock_guard<std::mutex> l(mu_);
  DrainStagedLocked();
  return bytes_;
}

void AuditLog::ResetChainLocked() {
  for (Stage& st : stages_) {
    std::lock_guard<std::mutex> sl(st.mu);
    staged_.fetch_sub(st.entries.size(), std::memory_order_acq_rel);
    st.entries.clear();
  }
  entries_.clear();
  group_sizes_.clear();
  pending_ = 0;
  head_ = kGenesis;
  anchor_ = kGenesis;
  bytes_ = 0;
}

void AuditLog::DeleteSegmentsFromLocked(uint64_t first) const {
  for (uint64_t seg = first;
       seg <= active_seg_ || opts_.env->FileExists(SegmentPath(seg)); ++seg) {
    opts_.env->DeleteFile(SegmentPath(seg)).ok();
  }
}

void AuditLog::Clear() {
  std::lock_guard<std::mutex> l(mu_);
  ResetChainLocked();
  if (!durable_) return;
  // Destroy the backing too: a cleared chain whose disk still held the old
  // one would resurrect it on the next open. Delete the higher segments
  // first (a crash mid-clear then leaves the old segment 1, i.e. simply an
  // unfinished clear, never a fenced-off mix).
  // Fresh backing: the new segment 1 clears any poison too.
  io_status_ = pipeline_->WithFile(target_, [&](CommitPipeline::FileSlot&
                                                    active) -> Status {
    if (active) {
      active->Close().ok();
      active.reset();
    }
    DeleteSegmentsFromLocked(2);
    ++epoch_;
    active_seg_ = 1;
    auto f = opts_.env->NewWritableFile(SegmentPath(1), /*truncate=*/true);
    if (!f.ok()) return f.status();
    active = std::move(f.value());
    return WriteSegmentHeaderLocked(active.get(), epoch_, anchor_,
                                    &active_bytes_);
  });
}

size_t AuditLog::seal_interval() const {
  return seal_interval_.load(std::memory_order_relaxed);
}

void AuditLog::set_seal_interval(size_t k) {
  // mu_ serializes against a concurrent drain's threshold check; the store
  // itself is atomic so Append's off-mu_ read stays race-free.
  std::lock_guard<std::mutex> l(mu_);
  seal_interval_.store(k ? k : 1, std::memory_order_relaxed);
}

uint64_t AuditLog::segment_count() const {
  std::lock_guard<std::mutex> l(mu_);
  return durable_ ? active_seg_ : 0;
}

uint64_t AuditLog::compaction_epoch() const {
  std::lock_guard<std::mutex> l(mu_);
  return epoch_;
}

uint64_t AuditLog::dropped_entries_total() const {
  std::lock_guard<std::mutex> l(mu_);
  return dropped_entries_total_;
}

std::string AuditLog::anchor_hash() const {
  std::lock_guard<std::mutex> l(mu_);
  return anchor_;
}

}  // namespace gdpr
