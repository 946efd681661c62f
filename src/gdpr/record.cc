#include "gdpr/record.h"

#include "common/coding.h"

namespace gdpr {

namespace {

constexpr char kMagic = '\x47';  // 'G'
constexpr char kVersion = 1;

}  // namespace

void GdprRecord::SerializeTo(std::string* out) const {
  out->reserve(out->size() + 32 + key.size() + data.size());
  out->push_back(kMagic);
  out->push_back(kVersion);
  PutLengthPrefixed(out, key);
  PutLengthPrefixed(out, data);
  PutLengthPrefixed(out, metadata.user);
  PutLengthPrefixed(out, metadata.origin);
  PutStringList(out, metadata.purposes);
  PutStringList(out, metadata.objections);
  PutStringList(out, metadata.shared_with);
  PutFixed64(out, uint64_t(metadata.expiry_micros));
  PutFixed64(out, uint64_t(metadata.created_micros));
}

std::string GdprRecord::Serialize() const {
  std::string out;
  SerializeTo(&out);
  return out;
}

Status GdprRecord::ParseInto(std::string_view wire, bool with_data,
                             GdprRecord* rec) {
  if (wire.size() < 2 || wire[0] != kMagic) {
    return Status::DataLoss("bad record magic");
  }
  if (wire[1] != kVersion) return Status::DataLoss("bad record version");
  wire.remove_prefix(2);
  std::string_view key, data, user, origin;
  if (!GetLengthPrefixed(&wire, &key) || !GetLengthPrefixed(&wire, &data) ||
      !GetLengthPrefixed(&wire, &user) || !GetLengthPrefixed(&wire, &origin)) {
    return Status::DataLoss("truncated record header");
  }
  rec->key.assign(key);
  if (with_data) {
    rec->data.assign(data);
  } else {
    rec->data.clear();
  }
  GdprMetadata& m = rec->metadata;
  m.user.assign(user);
  m.origin.assign(origin);
  if (!GetStringList(&wire, &m.purposes) ||
      !GetStringList(&wire, &m.objections) ||
      !GetStringList(&wire, &m.shared_with)) {
    return Status::DataLoss("truncated record lists");
  }
  uint64_t expiry = 0, created = 0;
  if (!GetFixed64(&wire, &expiry) || !GetFixed64(&wire, &created)) {
    return Status::DataLoss("truncated record timestamps");
  }
  m.expiry_micros = int64_t(expiry);
  m.created_micros = int64_t(created);
  return Status::OK();
}

StatusOr<GdprRecord> GdprRecord::Parse(std::string_view wire,
                                       bool with_data) {
  GdprRecord rec;
  Status s = ParseInto(wire, with_data, &rec);
  if (!s.ok()) return s;
  return rec;
}

size_t GdprRecord::ApproximateBytes() const {
  size_t n = key.size() + data.size() + metadata.user.size() +
             metadata.origin.size() + 16;
  for (const auto& s : metadata.purposes) n += s.size() + 1;
  for (const auto& s : metadata.objections) n += s.size() + 1;
  for (const auto& s : metadata.shared_with) n += s.size() + 1;
  return n;
}

}  // namespace gdpr
