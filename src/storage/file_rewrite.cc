#include "storage/file_rewrite.h"

namespace gdpr {

Status OpenWithRetry(Env* env, const IoFailurePolicy& policy,
                     const std::string& path, bool truncate,
                     std::unique_ptr<WritableFile>* file) {
  return RetryIo(policy, [&] {
    auto f = env->NewWritableFile(path, truncate);
    if (!f.ok()) return f.status();
    *file = std::move(f.value());
    return Status::OK();
  });
}

void FileRewrite::DiscardLeftover(Env* env, const std::string& tmp_path) {
  if (env->FileExists(tmp_path)) (void)env->DeleteFile(tmp_path).ok();
}

FileRewrite::~FileRewrite() {
  if (!committed_) (void)Abandon(Status::OK());
}

Status FileRewrite::Open() {
  opened_ = true;
  Status s = OpenWithRetry(env_, policy_, tmp_path_, /*truncate=*/true, &tmp_);
  return s.ok() ? s : Abandon(s);
}

Status FileRewrite::Seal() {
  if (!tmp_) return Status::FailedPrecondition(tmp_path_ + ": not open");
  Status s = tmp_->Sync();
  if (s.ok()) s = tmp_->Close();
  if (!s.ok()) return Abandon(s);
  tmp_.reset();
  return s;
}

Status FileRewrite::Commit(std::unique_ptr<WritableFile>* reopened) {
  Status s = tmp_ ? Seal() : Status::OK();
  // The commit point: before the rename the target is untouched, after it
  // the target is the complete, synced new file.
  if (s.ok()) {
    s = RetryIo(policy_,
                [&] { return env_->RenameFile(tmp_path_, target_path_); });
  }
  if (!s.ok()) return Abandon(s);
  committed_ = true;
  s = env_->SyncDir(target_path_);
  if (!s.ok() || reopened == nullptr) return s;
  return OpenWithRetry(env_, policy_, target_path_, /*truncate=*/false,
                       reopened);
}

Status FileRewrite::Abandon(Status cause) {
  tmp_.reset();
  if (opened_) (void)env_->DeleteFile(tmp_path_).ok();
  opened_ = false;
  return cause;
}

}  // namespace gdpr
