#include "storage/fault_env.h"

#include <utility>

namespace gdpr {

const char* FaultOpKindName(FaultOpKind kind) {
  switch (kind) {
    case FaultOpKind::kNewFile: return "new-file";
    case FaultOpKind::kAppend: return "append";
    case FaultOpKind::kSync: return "sync";
    case FaultOpKind::kClose: return "close";
    case FaultOpKind::kRead: return "read";
    case FaultOpKind::kFileSize: return "file-size";
    case FaultOpKind::kDelete: return "delete";
    case FaultOpKind::kRename: return "rename";
    case FaultOpKind::kSyncDir: return "sync-dir";
  }
  return "unknown";
}

namespace {

// The directory part of `path` ("" for a bare name).
std::string DirOf(const std::string& path) {
  const size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

Status InjectedError(FaultOpKind kind, const std::string& path) {
  // Kind-appropriate errno flavor: Append fails like ENOSPC (transient,
  // retryable), Sync fails like EIO (fsyncgate), the rest generic EIO.
  const char* flavor =
      kind == FaultOpKind::kAppend || kind == FaultOpKind::kNewFile
          ? "No space left on device (injected ENOSPC)"
          : "Input/output error (injected EIO)";
  return Status::IOError(path + ": " + FaultOpKindName(kind) + ": " + flavor);
}

}  // namespace

// Buffers appends until Sync/Close ("page cache"); see fault_env.h for the
// durability model and the crash / poison semantics.
class FaultWritableFile : public WritableFile {
 public:
  FaultWritableFile(FaultEnv* env, std::unique_ptr<WritableFile> base,
                    std::string path)
      : env_(env), base_(std::move(base)), path_(std::move(path)) {}

  ~FaultWritableFile() override {
    // Destruction without Close models eventual page-cache writeback —
    // unless the world crashed or the handle is poisoned.
    std::lock_guard<std::mutex> l(mu_);
    if (ObserveCrashLocked()) return;
    if (!poisoned_ && !buffer_.empty()) {
      (void)base_->Append(buffer_).ok();
      buffer_.clear();
    }
  }

  Status Append(std::string_view data) override {
    std::lock_guard<std::mutex> l(mu_);
    if (ObserveCrashLocked()) return Status::OK();
    if (poisoned_) return PoisonError();
    switch (env_->Check(FaultOpKind::kAppend, path_)) {
      case FaultEnv::Decision::kCrash:
        (void)ObserveCrashLocked();
        return Status::OK();
      case FaultEnv::Decision::kFail: {
        if (env_->plan().torn_appends && !data.empty()) {
          // Torn write: a prefix reaches the page cache before the error.
          buffer_.append(data.substr(0, env_->TornPrefixLen(data.size())));
        }
        return InjectedError(FaultOpKind::kAppend, path_);
      }
      case FaultEnv::Decision::kNone: break;
    }
    buffer_.append(data);
    return Status::OK();
  }

  Status Sync() override {
    std::lock_guard<std::mutex> l(mu_);
    if (ObserveCrashLocked()) return Status::OK();
    if (poisoned_) return PoisonError();
    switch (env_->Check(FaultOpKind::kSync, path_)) {
      case FaultEnv::Decision::kCrash:
        (void)ObserveCrashLocked();
        return Status::OK();
      case FaultEnv::Decision::kFail:
        // fsyncgate: the kernel dropped the dirty pages and marked them
        // clean. The unsynced bytes are gone and the handle is poisoned —
        // a retried fsync would report success while having synced
        // nothing.
        poisoned_ = true;
        buffer_.clear();
        return InjectedError(FaultOpKind::kSync, path_);
      case FaultEnv::Decision::kNone: break;
    }
    Status s = FlushBufferLocked();
    if (!s.ok()) return s;
    return base_->Sync();
  }

  Status Close() override {
    std::lock_guard<std::mutex> l(mu_);
    if (ObserveCrashLocked()) return Status::OK();
    if (poisoned_) return PoisonError();
    switch (env_->Check(FaultOpKind::kClose, path_)) {
      case FaultEnv::Decision::kCrash:
        (void)ObserveCrashLocked();
        return Status::OK();
      case FaultEnv::Decision::kFail:
        // A failed close loses whatever had not reached the page cache.
        buffer_.clear();
        return InjectedError(FaultOpKind::kClose, path_);
      case FaultEnv::Decision::kNone: break;
    }
    Status s = FlushBufferLocked();
    if (!s.ok()) return s;
    return base_->Close();
  }

 private:
  Status PoisonError() const {
    return Status::IOError(path_ +
                           ": poisoned after failed fsync (injected)");
  }

  Status FlushBufferLocked() {
    if (buffer_.empty()) return Status::OK();
    Status s = base_->Append(buffer_);
    if (s.ok()) buffer_.clear();
    return s;
  }

  // On the first op after the crash point, spill a pseudo-random prefix of
  // the unsynced buffer (torn writeback) and drop the rest. Returns true
  // when the world has crashed — the caller then pretends success.
  bool ObserveCrashLocked() {
    if (!env_->crashed()) return false;
    if (!crash_spilled_) {
      crash_spilled_ = true;
      if (!poisoned_ && !buffer_.empty()) {
        (void)base_->Append(
                  std::string_view(buffer_).substr(
                      0, env_->TornPrefixLen(buffer_.size())))
            .ok();
      }
      buffer_.clear();
    }
    return true;
  }

  FaultEnv* const env_;
  std::unique_ptr<WritableFile> base_;
  const std::string path_;
  std::mutex mu_;
  std::string buffer_;
  bool poisoned_ = false;
  bool crash_spilled_ = false;
};

FaultEnv::FaultEnv(Env* base, uint64_t seed)
    : base_(base), rng_(seed ? seed : 0x9e3779b97f4a7c15ULL) {}

void FaultEnv::set_plan(const FaultPlan& plan) {
  std::lock_guard<std::mutex> l(mu_);
  plan_ = plan;
}

FaultPlan FaultEnv::plan() const {
  std::lock_guard<std::mutex> l(mu_);
  return plan_;
}

void FaultEnv::ClearFaults() {
  std::lock_guard<std::mutex> l(mu_);
  plan_ = FaultPlan();
}

uint64_t FaultEnv::NextRandLocked() {
  // xorshift64*: deterministic, seedable, good enough for schedules.
  rng_ ^= rng_ >> 12;
  rng_ ^= rng_ << 25;
  rng_ ^= rng_ >> 27;
  return rng_ * 0x2545F4914F6CDD1DULL;
}

uint64_t FaultEnv::TornPrefixLen(uint64_t n) {
  std::lock_guard<std::mutex> l(mu_);
  return n == 0 ? 0 : NextRandLocked() % (n + 1);
}

FaultEnv::Decision FaultEnv::Check(FaultOpKind kind, const std::string& path) {
  std::lock_guard<std::mutex> l(mu_);
  const uint64_t n = op_count_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (plan_.crash_at_op != 0 && n >= plan_.crash_at_op) {
    if (!crashed_.exchange(true, std::memory_order_acq_rel)) {
      UndoUnsyncedRenamesLocked();
    }
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
    return Decision::kCrash;
  }
  const bool eligible = plan_.path_filter.empty() ||
                        path.find(plan_.path_filter) != std::string::npos;
  if (!eligible) return Decision::kNone;
  if (plan_.fail_at_op != 0 && n == plan_.fail_at_op) {
    faults_injected_.fetch_add(1, std::memory_order_relaxed);
    return Decision::kFail;
  }
  const double p = plan_.fail_prob[static_cast<int>(kind)];
  if (p > 0.0) {
    const double draw =
        double(NextRandLocked() >> 11) / double(1ULL << 53);
    if (draw < p) {
      faults_injected_.fetch_add(1, std::memory_order_relaxed);
      return Decision::kFail;
    }
  }
  return Decision::kNone;
}

StatusOr<std::unique_ptr<WritableFile>> FaultEnv::NewWritableFile(
    const std::string& path, bool truncate) {
  if (crashed()) {
    // Post-crash the store may still "open" files; nothing persists. Hand
    // out a writer over a discarding base so the disk image stays frozen.
    class NullFile : public WritableFile {
     public:
      Status Append(std::string_view) override { return Status::OK(); }
      Status Sync() override { return Status::OK(); }
      Status Close() override { return Status::OK(); }
    };
    return std::unique_ptr<WritableFile>(new NullFile());
  }
  switch (Check(FaultOpKind::kNewFile, path)) {
    case Decision::kCrash:
      return NewWritableFile(path, truncate);  // crashed() now true
    case Decision::kFail:
      return InjectedError(FaultOpKind::kNewFile, path);
    case Decision::kNone: break;
  }
  auto base_file = base_->NewWritableFile(path, truncate);
  if (!base_file.ok()) return base_file.status();
  return std::unique_ptr<WritableFile>(new FaultWritableFile(
      this, std::move(base_file.value()), path));
}

StatusOr<std::string> FaultEnv::ReadFileToString(const std::string& path) {
  if (crashed()) return base_->ReadFileToString(path);
  switch (Check(FaultOpKind::kRead, path)) {
    case Decision::kCrash:
      return base_->ReadFileToString(path);
    case Decision::kFail: {
      if (!plan().corrupt_reads) {
        return InjectedError(FaultOpKind::kRead, path);
      }
      auto r = base_->ReadFileToString(path);
      if (!r.ok() || r.value().empty()) return r;
      // Read-back corruption: flip one byte, report success. Checksums
      // and hash chains are supposed to catch this, not the caller.
      std::string data = std::move(r.value());
      data[TornPrefixLen(data.size() - 1)] ^= 0x40;
      return data;
    }
    case Decision::kNone: break;
  }
  return base_->ReadFileToString(path);
}

StatusOr<uint64_t> FaultEnv::FileSize(const std::string& path) {
  if (crashed()) return base_->FileSize(path);
  switch (Check(FaultOpKind::kFileSize, path)) {
    case Decision::kCrash:
      return base_->FileSize(path);
    case Decision::kFail:
      return InjectedError(FaultOpKind::kFileSize, path);
    case Decision::kNone: break;
  }
  return base_->FileSize(path);
}

Status FaultEnv::DeleteFile(const std::string& path) {
  if (crashed()) return Status::OK();  // abandoned
  switch (Check(FaultOpKind::kDelete, path)) {
    case Decision::kCrash: return Status::OK();
    case Decision::kFail: return InjectedError(FaultOpKind::kDelete, path);
    case Decision::kNone: break;
  }
  return base_->DeleteFile(path);
}

bool FaultEnv::FileExists(const std::string& path) {
  return base_->FileExists(path);
}

Status FaultEnv::RenameFile(const std::string& from, const std::string& to) {
  if (crashed()) return Status::OK();  // abandoned
  switch (Check(FaultOpKind::kRename, from)) {
    case Decision::kCrash: return Status::OK();
    case Decision::kFail: return InjectedError(FaultOpKind::kRename, from);
    case Decision::kNone: break;
  }
  // Under mu_, so a crash latching on another thread sees the rename
  // either not yet made or already recorded for undo.
  std::lock_guard<std::mutex> l(mu_);
  UnsyncedRename r{from, to, std::nullopt};
  auto old = base_->ReadFileToString(to);  // not found: nothing replaced
  if (old.ok()) r.replaced = std::move(old.value());
  Status s = base_->RenameFile(from, to);
  if (s.ok()) unsynced_renames_[DirOf(to)].push_back(std::move(r));
  return s;
}

Status FaultEnv::SyncDir(const std::string& path) {
  if (crashed()) return Status::OK();  // abandoned
  switch (Check(FaultOpKind::kSyncDir, path)) {
    case Decision::kCrash: return Status::OK();
    case Decision::kFail: return InjectedError(FaultOpKind::kSyncDir, path);
    case Decision::kNone: break;
  }
  Status s = base_->SyncDir(path);
  std::lock_guard<std::mutex> l(mu_);
  if (s.ok()) unsynced_renames_.erase(DirOf(path));
  return s;
}

void FaultEnv::UndoUnsyncedRenamesLocked() {
  for (auto& [dir, renames] : unsynced_renames_) {
    for (auto r = renames.rbegin(); r != renames.rend(); ++r) {
      (void)base_->RenameFile(r->to, r->from).ok();
      if (r->replaced) {
        auto f = base_->NewWritableFile(r->to, /*truncate=*/true);
        if (f.ok()) (void)f.value()->Append(*r->replaced).ok();
      }
      renames_undone_.fetch_add(1, std::memory_order_relaxed);
    }
  }
  unsynced_renames_.clear();
}

}  // namespace gdpr
