#include "storage/file_rewrite.h"

namespace gdpr {

Status OpenWithRetry(Env* env, const std::string& path, bool truncate,
                     std::unique_ptr<WritableFile>* file) {
  return RetryIo([&] {
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
  Status s = OpenWithRetry(env_, tmp_path_, /*truncate=*/true, &tmp_);
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
    s = RetryIo([&] { return env_->RenameFile(tmp_path_, target_path_); });
  }
  if (!s.ok()) return Abandon(s);
  committed_ = true;
  s = env_->SyncDir(target_path_);
  if (!s.ok() || reopened == nullptr) return s;
  return OpenWithRetry(env_, target_path_, /*truncate=*/false, reopened);
}

Status FileRewrite::Abandon(Status cause) {
  tmp_.reset();
  if (opened_) (void)env_->DeleteFile(tmp_path_).ok();
  opened_ = false;
  return cause;
}

// ---- log recovery ----------------------------------------------------------

StatusOr<std::string> ReadLog(Env* env, const std::string& path) {
  if (!env->FileExists(path)) return std::string();
  return env->ReadFileToString(path);
}

StatusOr<size_t> ReadFrames(std::string_view contents,
                            const FrameDecoder& decode) {
  std::string_view in = contents;
  while (!in.empty()) {
    std::string_view frame = in;
    StatusOr<bool> parsed = decode(&frame);
    if (!parsed.ok()) return parsed.status();
    if (!parsed.value()) break;
    in = frame;
  }
  return contents.size() - in.size();
}

StatusOr<size_t> ReopenLog(Env* env, const std::string& path,
                           const std::string& tmp_path,
                           std::string_view contents, size_t valid,
                           std::string_view header,
                           std::unique_ptr<WritableFile>* file) {
  const std::string_view keep = valid > 0 ? contents.substr(0, valid) : header;
  Status s;
  if (valid < contents.size()) {
    FileRewrite fix(env, tmp_path, path);
    s = fix.Open();
    if (s.ok()) s = fix.file()->Append(keep);
    if (s.ok()) s = fix.Commit(file);
  } else {
    // A whole log is opened as it is. An empty one holds no frame a crash
    // could lose, so it gets its header in place.
    const bool stamp = valid == 0 && !header.empty();
    s = OpenWithRetry(env, path, /*truncate=*/false, file);
    if (s.ok() && stamp) s = (*file)->Append(header);
    if (s.ok() && stamp) s = (*file)->Sync();
  }
  if (!s.ok()) {
    file->reset();
    return s;
  }
  return keep.size();
}

}  // namespace gdpr
