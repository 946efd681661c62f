// Shared helpers for the paper-reproduction bench binaries: flag parsing
// (--paper-scale, --records=N, --ops=N, --threads=N) and store factories.

#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>

#include "gdpr/kv_backend.h"
#include "gdpr/rel_backend.h"

namespace gdpr::bench {

/// Scale knobs shared by all bench binaries. Defaults are laptop-scale;
/// --paper-scale selects the paper's configuration (longer runtimes).
struct BenchArgs {
  size_t records = 0;  // 0 = binary-specific default
  size_t ops = 0;
  size_t threads = 8;
  bool paper_scale = false;

  static BenchArgs Parse(int argc, char** argv) {
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
      const char* a = argv[i];
      if (strcmp(a, "--paper-scale") == 0) {
        args.paper_scale = true;
      } else if (strncmp(a, "--records=", 10) == 0) {
        args.records = static_cast<size_t>(atoll(a + 10));
      } else if (strncmp(a, "--ops=", 6) == 0) {
        args.ops = static_cast<size_t>(atoll(a + 6));
      } else if (strncmp(a, "--threads=", 10) == 0) {
        args.threads = static_cast<size_t>(atoll(a + 10));
      } else if (strcmp(a, "--help") == 0) {
        printf("flags: --paper-scale --records=N --ops=N --threads=N\n");
        exit(0);
      }
    }
    return args;
  }
};

/// A GDPR-compliant KV store (the paper's modified Redis).
inline std::unique_ptr<KvGdprStore> MakeKvStore(Clock* clock = nullptr) {
  KvGdprOptions o;
  o.clock = clock;
  auto s = std::make_unique<KvGdprStore>(o);
  if (!s->Open().ok()) {
    fprintf(stderr, "failed to open kv store\n");
    exit(1);
  }
  return s;
}

/// A GDPR-compliant relational store (the paper's modified PostgreSQL).
inline std::unique_ptr<RelGdprStore> MakeRelStore(bool metadata_indexing,
                                                  Clock* clock = nullptr) {
  RelGdprOptions o;
  o.clock = clock;
  o.compliance.metadata_indexing = metadata_indexing;
  auto s = std::make_unique<RelGdprStore>(o);
  if (!s->Open().ok()) {
    fprintf(stderr, "failed to open rel store\n");
    exit(1);
  }
  return s;
}

}  // namespace gdpr::bench
