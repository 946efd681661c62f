// Compliance configuration and the GET-SYSTEM-FEATURES surface: Table 1's
// GDPR-article -> database-attribute/action map rendered against what a
// concrete store configuration actually supports.

#pragma once

#include <string>
#include <vector>

namespace gdpr {

struct ComplianceFlags {
  bool enforce_access_control = true;   // per-op role/purpose checks
  bool audit_enabled = true;            // G 30 trail, denied ops included
  bool encrypt_at_rest = false;         // G 32 security of processing
  // The perf headline: maintain secondary metadata indexes (user, purpose,
  // sharing, TTL) so metadata queries are indexed lookups instead of O(n)
  // scan-parse-filter passes.
  bool metadata_indexing = false;
};

struct FeatureRow {
  std::string article;      // "G 17" etc.
  std::string requirement;  // what the regulation asks of the store
  std::string mechanism;    // how this engine provides it
  bool supported = false;
};

struct Features {
  std::string backend;  // "memkv" / "reldb"
  std::vector<FeatureRow> rows;

  bool Supports(const std::string& article) const {
    for (const auto& r : rows) {
      if (r.article == article) return r.supported;
    }
    return false;
  }
};

// The flags a store applies: it seals at rest when either the compliance
// flag or its engine's own encrypt_at_rest is set.
inline ComplianceFlags WithEngineEncryption(ComplianceFlags f,
                                            bool engine_encrypts) {
  f.encrypt_at_rest = f.encrypt_at_rest || engine_encrypts;
  return f;
}

// Builds the Table 1 matrix for a backend under the given flags.
Features BuildFeatures(const std::string& backend, const ComplianceFlags& f);

std::string RenderComplianceMatrix(const Features& features);

}  // namespace gdpr
