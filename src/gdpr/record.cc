#include "gdpr/record.h"


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
  RecordView view;
  return view.Read(wire, rec, with_data);
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

// Copying while the fields are read, rather than after, lets the copies
// overlap the walk from one length prefix to the next.
Status RecordView::Read(std::string_view wire, GdprRecord* copy,
                        bool with_data) {
  if (wire.size() < 2 || wire[0] != kMagic) {
    return Status::DataLoss("bad record magic");
  }
  if (wire[1] != kVersion) return Status::DataLoss("bad record version");
  std::string_view in = wire.substr(2);
  if (!GetLengthPrefixed(&in, &key_) || !GetLengthPrefixed(&in, &data_) ||
      !GetLengthPrefixed(&in, &user_) || !GetLengthPrefixed(&in, &origin_)) {
    return Status::DataLoss("truncated record header");
  }
  GdprMetadata* const m = copy ? &copy->metadata : nullptr;
  if (copy) {
    copy->key.assign(key_);
    copy->data.assign(with_data ? data_ : std::string_view());
    m->user.assign(user_);
    m->origin.assign(origin_);
  }
  if (!GetStringList(&in, &purposes_, m ? &m->purposes : nullptr) ||
      !GetStringList(&in, &objections_, m ? &m->objections : nullptr) ||
      !GetStringList(&in, &shared_, m ? &m->shared_with : nullptr)) {
    return Status::DataLoss("truncated record lists");
  }
  uint64_t expiry = 0, created = 0;
  if (!GetFixed64(&in, &expiry) || !GetFixed64(&in, &created)) {
    return Status::DataLoss("truncated record timestamps");
  }
  expiry_micros_ = int64_t(expiry);
  created_micros_ = int64_t(created);
  if (m) {
    m->expiry_micros = expiry_micros_;
    m->created_micros = created_micros_;
  }
  image_ = wire.substr(0, wire.size() - in.size());
  masked_ = false;
  return Status::OK();
}

// A masked image is the head through the key, an empty data field (one
// zero byte), then everything after the data: two copies, no re-encode.
size_t RecordView::ImageSize() const {
  if (!masked_) return image_.size();
  const char* const field = key_.data() + key_.size();
  return image_.size() - size_t(data_.data() + data_.size() - field) + 1;
}

void RecordView::AppendImage(std::string* out) const {
  if (!masked_) {
    out->append(image_);
    return;
  }
  const char* const field = key_.data() + key_.size();
  const char* const tail = data_.data() + data_.size();
  out->append(image_.data(), size_t(field - image_.data()));
  out->push_back('\0');
  out->append(tail, size_t(image_.data() + image_.size() - tail));
}

void RecordView::CopyTo(GdprRecord* rec) const {
  // image_ read once already, so it reads again.
  (void)RecordView().Read(image_, rec, !masked_);
}

}  // namespace gdpr
