// Filesystem abstraction for the durability paths (AOF, WAL, statement
// logs). Env::Posix() hits the real filesystem; MemEnv keeps files in memory
// so ablations can isolate CPU cost from disk cost.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>

#include "common/status.h"

namespace gdpr {

// fsync cadence for append-only logs (the Redis appendfsync knob).
enum class SyncPolicy { kNever, kEverySec, kAlways };

class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(std::string_view data) = 0;
  virtual Status Flush() = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

class Env {
 public:
  virtual ~Env() = default;
  // Opens for appending; creates if missing; truncates when `truncate`.
  virtual StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) = 0;
  virtual StatusOr<std::string> ReadFileToString(const std::string& path) = 0;
  // Length in bytes without reading the contents; NotFound when absent.
  virtual StatusOr<uint64_t> FileSize(const std::string& path) = 0;
  virtual Status DeleteFile(const std::string& path) = 0;
  virtual bool FileExists(const std::string& path) = 0;
  // Atomically replaces `to` with `from` (FileRewrite's commit point: a
  // crash leaves either the old file or the new one, never a mix).
  virtual Status RenameFile(const std::string& from, const std::string& to) = 0;

  static Env* Posix();
};

// In-memory Env: files are strings in a map. Sync is a no-op.
class MemEnv : public Env {
 public:
  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override;
  StatusOr<std::string> ReadFileToString(const std::string& path) override;
  StatusOr<uint64_t> FileSize(const std::string& path) override;
  Status DeleteFile(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;

 private:
  friend class MemWritableFile;
  std::mutex mu_;
  std::map<std::string, std::string> files_;
};

}  // namespace gdpr
