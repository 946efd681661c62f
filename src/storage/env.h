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
  WritableFile();
  virtual ~WritableFile() = default;
  virtual Status Append(std::string_view data) = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;

  // Process-unique and never reused, unlike the object's address: tells a
  // newly opened handle from the one it replaced.
  uint64_t serial() const { return serial_; }

 private:
  uint64_t serial_;
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
  // fsyncs the directory holding `path`, making the renames into it
  // durable: until then a crash may bring back the directory's old entries.
  virtual Status SyncDir(const std::string& path) = 0;

  static Env* Posix();
};

// In-memory Env: files are strings in a map. Sync and SyncDir are no-ops.
class MemEnv : public Env {
 public:
  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override;
  StatusOr<std::string> ReadFileToString(const std::string& path) override;
  StatusOr<uint64_t> FileSize(const std::string& path) override;
  Status DeleteFile(const std::string& path) override;
  bool FileExists(const std::string& path) override;
  Status RenameFile(const std::string& from, const std::string& to) override;
  Status SyncDir(const std::string&) override { return Status::OK(); }

 private:
  friend class MemWritableFile;
  std::mutex mu_;
  std::map<std::string, std::string> files_;
};

}  // namespace gdpr
