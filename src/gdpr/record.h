// The paper's GDPR record (§4.2.1): a personal datum plus the metadata GDPR
// requires the store to track — owner, purposes, objections, origin, third
// parties it is shared with, and a time to live. Serialization is a compact
// length-prefixed binary layout (not text) so the KV backend's scan-parse
// path measures parsing, not printf.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"

namespace gdpr {

struct GdprMetadata {
  std::string user;                       // data subject
  std::vector<std::string> purposes;      // why the datum is held
  std::vector<std::string> objections;    // purposes the subject objected to
  std::string origin;                     // provenance (e.g. first-party)
  std::vector<std::string> shared_with;   // third parties
  int64_t expiry_micros = 0;              // absolute deadline; 0 = none
  int64_t created_micros = 0;

  bool HasPurpose(const std::string& p) const {
    for (const auto& x : purposes) if (x == p) return true;
    return false;
  }
  bool HasObjection(const std::string& p) const {
    for (const auto& x : objections) if (x == p) return true;
    return false;
  }
  bool SharedWith(const std::string& tp) const {
    for (const auto& x : shared_with) if (x == tp) return true;
    return false;
  }
};

struct GdprRecord {
  std::string key;
  std::string data;
  GdprMetadata metadata;

  // Appends this record's serialization to *out; Serialize returns it.
  void SerializeTo(std::string* out) const;
  std::string Serialize() const;
  // Decodes wire into *rec, overwriting every field, so a caller can fill
  // the slot that keeps the record instead of moving a temporary into it.
  // with_data = false leaves data empty without copying it: a masked
  // metadata query parses straight from the engine's bytes. On DataLoss
  // *rec holds a partial decode. Parse is the same decode into a new record.
  static Status ParseInto(std::string_view wire, bool with_data,
                          GdprRecord* rec);
  static StatusOr<GdprRecord> Parse(std::string_view wire,
                                    bool with_data = true);

  size_t ApproximateBytes() const;
};

}  // namespace gdpr
