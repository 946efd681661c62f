#include "storage/env.h"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace gdpr {

namespace {

class PosixWritableFile : public WritableFile {
 public:
  PosixWritableFile(FILE* f, std::string path)
      : f_(f), path_(std::move(path)) {}
  ~PosixWritableFile() override {
    if (f_) fclose(f_);
  }

  Status Append(std::string_view data) override {
    if (!f_) return Status::IOError(path_ + ": append: file closed");
    if (fwrite(data.data(), 1, data.size(), f_) != data.size()) {
      return Status::IOError(path_ + ": append: " + strerror(errno));
    }
    return Status::OK();
  }

  Status Sync() override {
    if (!f_) return Status::IOError(path_ + ": sync: file closed");
    if (fflush(f_) != 0) {
      return Status::IOError(path_ + ": sync/flush: " + strerror(errno));
    }
    if (fdatasync(fileno(f_)) != 0) {
      return Status::IOError(path_ + ": fdatasync: " + strerror(errno));
    }
    return Status::OK();
  }

  Status Close() override {
    if (!f_) return Status::OK();
    const int rc = fclose(f_);
    const int saved_errno = errno;
    f_ = nullptr;
    return rc == 0 ? Status::OK()
                   : Status::IOError(path_ + ": close: " +
                                     strerror(saved_errno));
  }

 private:
  FILE* f_;
  std::string path_;
};

class PosixEnv : public Env {
 public:
  StatusOr<std::unique_ptr<WritableFile>> NewWritableFile(
      const std::string& path, bool truncate) override {
    FILE* f = fopen(path.c_str(), truncate ? "wb" : "ab");
    if (!f) {
      return Status::IOError(path + ": open: " + strerror(errno));
    }
    return std::unique_ptr<WritableFile>(new PosixWritableFile(f, path));
  }

  StatusOr<std::string> ReadFileToString(const std::string& path) override {
    errno = 0;
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      return errno == ENOENT
                 ? Status::NotFound(path + ": " + strerror(ENOENT))
                 : Status::IOError(path + ": open: " +
                                   (errno ? strerror(errno) : "cannot open"));
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
  }

  StatusOr<uint64_t> FileSize(const std::string& path) override {
    struct stat st;
    if (stat(path.c_str(), &st) != 0) {
      return errno == ENOENT ? Status::NotFound(path)
                             : Status::IOError(path + ": " + strerror(errno));
    }
    return uint64_t(st.st_size);
  }

  Status DeleteFile(const std::string& path) override {
    if (unlink(path.c_str()) != 0 && errno != ENOENT) {
      return Status::IOError(path + ": " + strerror(errno));
    }
    return Status::OK();
  }

  bool FileExists(const std::string& path) override {
    struct stat st;
    return stat(path.c_str(), &st) == 0;
  }

  Status RenameFile(const std::string& from, const std::string& to) override {
    if (rename(from.c_str(), to.c_str()) != 0) {
      return Status::IOError(from + " -> " + to + ": " + strerror(errno));
    }
    return Status::OK();
  }

  Status SyncDir(const std::string& path) override {
    const size_t slash = path.find_last_of('/');
    const std::string dir = slash == std::string::npos
                                ? "."
                                : path.substr(0, std::max<size_t>(slash, 1));
    const int fd = open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) return Status::IOError(dir + ": open: " + strerror(errno));
    Status s = fsync(fd) == 0 ? Status::OK()
                              : Status::IOError(dir + ": fsync: " +
                                                strerror(errno));
    close(fd);
    return s;
  }
};

}  // namespace

WritableFile::WritableFile() {
  static std::atomic<uint64_t> next{1};
  serial_ = next.fetch_add(1, std::memory_order_relaxed);
}

Env* Env::Posix() {
  static PosixEnv env;
  return &env;
}

class MemWritableFile : public WritableFile {
 public:
  MemWritableFile(MemEnv* env, std::string path)
      : env_(env), path_(std::move(path)) {}

  Status Append(std::string_view data) override {
    std::lock_guard<std::mutex> l(env_->mu_);
    env_->files_[path_].append(data.data(), data.size());
    return Status::OK();
  }
  Status Sync() override { return Status::OK(); }
  Status Close() override { return Status::OK(); }

 private:
  MemEnv* env_;
  std::string path_;
};

StatusOr<std::unique_ptr<WritableFile>> MemEnv::NewWritableFile(
    const std::string& path, bool truncate) {
  {
    std::lock_guard<std::mutex> l(mu_);
    if (truncate) files_[path].clear();
    else files_.try_emplace(path);
  }
  return std::unique_ptr<WritableFile>(new MemWritableFile(this, path));
}

StatusOr<std::string> MemEnv::ReadFileToString(const std::string& path) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(path);
  return it->second;
}

StatusOr<uint64_t> MemEnv::FileSize(const std::string& path) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = files_.find(path);
  if (it == files_.end()) return Status::NotFound(path);
  return uint64_t(it->second.size());
}

Status MemEnv::DeleteFile(const std::string& path) {
  std::lock_guard<std::mutex> l(mu_);
  files_.erase(path);
  return Status::OK();
}

bool MemEnv::FileExists(const std::string& path) {
  std::lock_guard<std::mutex> l(mu_);
  return files_.count(path) != 0;
}

Status MemEnv::RenameFile(const std::string& from, const std::string& to) {
  std::lock_guard<std::mutex> l(mu_);
  auto it = files_.find(from);
  if (it == files_.end()) return Status::NotFound(from);
  files_[to] = std::move(it->second);
  files_.erase(it);
  return Status::OK();
}

}  // namespace gdpr
