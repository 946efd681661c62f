// The paper's GDPR record (§4.2.1): a personal datum plus the metadata GDPR
// requires the store to track — owner, purposes, objections, origin, third
// parties it is shared with, and a time to live. Serialization is a compact
// length-prefixed binary layout (not text) so the KV backend's scan-parse
// path measures parsing, not printf.
//
// A record's *image* is its bytes in that layout: what MemKV stores (sealed
// when encrypted) and what each wire record carries. RecordView reads an
// image's fields where they lie, so a collection read can check, filter,
// mask and forward records without building a GdprRecord.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/coding.h"
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

  // Appends this record's image to *out; Serialize returns it.
  void SerializeTo(std::string* out) const;
  std::string Serialize() const;
  // Decodes wire into *rec, overwriting every field, so a caller can fill
  // the slot that keeps the record instead of moving a temporary into it:
  // RecordView::Read with a copy. with_data = false leaves data empty
  // without copying it. On DataLoss *rec holds a partial decode. Parse is
  // the same decode into a new record.
  static Status ParseInto(std::string_view wire, bool with_data,
                          GdprRecord* rec);
  static StatusOr<GdprRecord> Parse(std::string_view wire,
                                    bool with_data = true);

  size_t ApproximateBytes() const;
};

// One record image read in place. Every field is a view into the bytes Read
// was given, so a view is valid only while they are; the lists stay encoded
// and the membership tests scan them.
class RecordView {
 public:
  // The layout's one decoder. DataLoss on a bad magic or version byte or a
  // truncated field; bytes after the last field are not part of the image.
  // With copy set, each field is also copied into *copy as it is read, the
  // datum only when with_data, overwriting every field; on DataLoss *copy
  // holds a partial copy.
  Status Read(std::string_view wire, GdprRecord* copy = nullptr,
              bool with_data = true);

  std::string_view key() const { return key_; }
  // Empty once masked.
  std::string_view data() const { return masked_ ? std::string_view() : data_; }
  std::string_view user() const { return user_; }
  std::string_view origin() const { return origin_; }
  int64_t expiry_micros() const { return expiry_micros_; }
  int64_t created_micros() const { return created_micros_; }

  bool HasPurpose(std::string_view p) const { return ListHas(purposes_, p); }
  bool HasObjection(std::string_view p) const {
    return ListHas(objections_, p);
  }
  bool SharedWith(std::string_view tp) const { return ListHas(shared_, tp); }

  // Drops the personal datum: data() reads empty and the image is written
  // with an empty data field.
  void Mask() { masked_ = true; }

  // The image's length, and the image appended to *out: the bytes Read was
  // given, or with an empty data field when masked — byte for byte what
  // SerializeTo writes for the decoded record.
  size_t ImageSize() const;
  void AppendImage(std::string* out) const;
  // Overwrites every field of *rec with this view's.
  void CopyTo(GdprRecord* rec) const;

 private:
  // Read checked every list, so each element of one decodes.
  static bool ListHas(std::string_view list, std::string_view x) {
    uint64_t n = 0;
    GetVarint64(&list, &n);
    for (std::string_view s; n > 0 && GetLengthPrefixed(&list, &s); --n) {
      if (s == x) return true;
    }
    return false;
  }

  std::string_view image_;  // magic byte through the created timestamp
  std::string_view key_, data_, user_, origin_;
  std::string_view purposes_, objections_, shared_;  // count + elements
  int64_t expiry_micros_ = 0;
  int64_t created_micros_ = 0;
  bool masked_ = false;
};

}  // namespace gdpr
