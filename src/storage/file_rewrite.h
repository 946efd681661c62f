// Crash-safe whole-file replacement, the one way a durable file (AOF, WAL,
// checkpoint snapshot, audit segment) is replaced: the new contents go to a
// temp that is synced, closed and renamed over the target, and the
// directory is synced so the rename survives a crash. A crash leaves the
// old file or the new one, never a mix or a truncated original. An
// uncommitted temp is deleted on every failure path and when the object
// goes away.
//
// Log recovery is built on it, written once for every append-only log
// (AOF, WAL, audit segments): replay stops at the first frame that does
// not parse, and the log is replaced with the valid prefix before it, so
// no later frame is stranded behind torn bytes and a crash mid-repair
// cannot take synced frames with it. Each log keeps its own frame decoder.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "common/health.h"
#include "common/status.h"
#include "storage/env.h"

namespace gdpr {

// Opens `path` for append into `*file` (truncating it when asked), with the
// policy's bounded retry; `*file` is untouched on failure.
Status OpenWithRetry(Env* env, const IoFailurePolicy& policy,
                     const std::string& path, bool truncate,
                     std::unique_ptr<WritableFile>* file);

class FileRewrite {
 public:
  // Deletes a temp that a crash left before its rename: the target is
  // still authoritative.
  static void DiscardLeftover(Env* env, const std::string& tmp_path);

  FileRewrite(Env* env, const IoFailurePolicy& policy, std::string tmp_path,
              std::string target_path)
      : env_(env), policy_(policy), tmp_path_(std::move(tmp_path)),
        target_path_(std::move(target_path)) {}
  ~FileRewrite();
  FileRewrite(const FileRewrite&) = delete;
  FileRewrite& operator=(const FileRewrite&) = delete;

  // Creates (truncating) the temp, with the policy's bounded retry.
  Status Open();
  WritableFile* file() const { return tmp_.get(); }
  // Syncs and closes the temp. Commit() does it when the caller has not; a
  // caller seals first when it must close its own handle on the target
  // before the rename.
  Status Seal();
  // Renames the temp over the target (bounded retry) and syncs the
  // directory, then, unless `reopened` is null, reopens the target for
  // append into it (bounded retry). committed() says whether the rename
  // landed: if not, the target is untouched. A failed directory sync fails
  // the commit with the rename landed but maybe not durable.
  Status Commit(std::unique_ptr<WritableFile>* reopened);
  bool committed() const { return committed_; }

 private:
  Status Abandon(Status cause);  // drops the handle, deletes the temp

  Env* const env_;
  const IoFailurePolicy policy_;
  const std::string tmp_path_;
  const std::string target_path_;
  std::unique_ptr<WritableFile> tmp_;
  bool opened_ = false;  // a temp may exist on disk
  bool committed_ = false;
};

// ---- log recovery ----------------------------------------------------------

// Decodes and applies the frame at the front of `*in`, consuming it.
// Returns false when the frame does not parse, or an error that aborts the
// read (the audit chain's hash mismatch).
using FrameDecoder = std::function<StatusOr<bool>(std::string_view* in)>;

// The bytes of the log at `path`; empty when it does not exist yet.
StatusOr<std::string> ReadLog(Env* env, const std::string& path);

// Feeds `contents` to `decode` until the input ends or a frame does not
// parse; returns the length of the parsed prefix, or the decoder's error.
StatusOr<size_t> ReadFrames(std::string_view contents,
                            const FrameDecoder& decode);

// Leaves `path` open for append in `*file`, holding the first `valid`
// bytes of `contents`: a log that parsed in full is opened as it is, any
// other is replaced (temp `tmp_path`) with that prefix. An empty prefix
// gets `header` instead, written in place when the log was empty or
// missing. Returns the log's length.
StatusOr<size_t> ReopenLog(Env* env, const IoFailurePolicy& policy,
                           const std::string& path,
                           const std::string& tmp_path,
                           std::string_view contents, size_t valid,
                           std::string_view header,
                           std::unique_ptr<WritableFile>* file);

}  // namespace gdpr
