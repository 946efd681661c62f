#include "gdpr/compliance.h"

#include "common/string_util.h"

namespace gdpr {

Features BuildFeatures(const std::string& backend, const ComplianceFlags& f) {
  Features out;
  out.backend = backend;
  auto add = [&](const char* article, const char* requirement,
                 const char* mechanism, bool supported) {
    out.rows.push_back(FeatureRow{article, requirement, mechanism, supported});
  };
  add("G 5(1e)", "storage limitation (TTL)", "per-record expiry + strict cycle",
      true);
  add("G 13/14", "disclose sharing & purposes", "metadata on every record",
      true);
  add("G 15", "right of access", "READ-METADATA-BY-USER / READ-DATA-BY-KEY",
      true);
  add("G 17", "right to be forgotten", "DELETE-RECORDS-BY-USER + tombstones",
      true);
  add("G 20", "data portability", "signed structured export bundle", true);
  add("G 21", "objection to processing", "objections honored on read path",
      f.enforce_access_control);
  add("G 25/32", "security of processing", "AEAD encryption at rest",
      f.encrypt_at_rest);
  add("G 28/29", "processor access control", "role+purpose checks per op",
      f.enforce_access_control);
  add("G 30", "records of processing", "hash-chained audit of all ops",
      f.audit_enabled);
  add("G 33/34", "breach notification", "time-ranged GET-SYSTEM-LOGS",
      f.audit_enabled);
  add("Table 2", "indexed metadata queries", "user/purpose/sharing indexes",
      f.metadata_indexing);
  return out;
}

std::string RenderComplianceMatrix(const Features& features) {
  std::string out =
      StringPrintf("compliance matrix [%s]\n", features.backend.c_str());
  size_t w_article = 8, w_req = 12;
  for (const auto& r : features.rows) {
    w_article = std::max(w_article, r.article.size());
    w_req = std::max(w_req, r.requirement.size());
  }
  for (const auto& r : features.rows) {
    out += StringPrintf("  %-*s  %-*s  %-3s  %s\n", int(w_article),
                        r.article.c_str(), int(w_req), r.requirement.c_str(),
                        r.supported ? "yes" : "NO", r.mechanism.c_str());
  }
  return out;
}

}  // namespace gdpr
