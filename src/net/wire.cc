#include "net/wire.h"

#include "common/coding.h"

namespace gdpr::net {

namespace {

// ---- primitive codecs ------------------------------------------------------
// Every Get* returns false on truncation/overflow; the top-level decoders
// turn that into one DataLoss with the failing op's name, which is all a
// caller can act on anyway.

void PutFixed32(std::string* dst, uint32_t v) {
  for (int i = 0; i < 4; ++i) dst->push_back(char(uint8_t(v >> (8 * i))));
}

uint32_t ReadFixed32(const char* p) {
  uint32_t out = 0;
  for (int i = 0; i < 4; ++i) out |= uint32_t(uint8_t(p[i])) << (8 * i);
  return out;
}

bool GetByte(std::string_view* in, uint8_t* v) {
  if (in->empty()) return false;
  *v = uint8_t(in->front());
  in->remove_prefix(1);
  return true;
}

void PutString(std::string* dst, std::string_view s) {
  PutLengthPrefixed(dst, s);
}

bool GetString(std::string_view* in, std::string* out) {
  std::string_view s;
  if (!GetLengthPrefixed(in, &s)) return false;
  out->assign(s);
  return true;
}

void PutStringList(std::string* dst, const std::vector<std::string>& v) {
  PutVarint64(dst, v.size());
  for (const auto& s : v) PutString(dst, s);
}

bool GetStringList(std::string_view* in, std::vector<std::string>* out) {
  uint64_t n = 0;
  if (!GetVarint64(in, &n) || n > in->size()) return false;
  out->clear();
  out->reserve(size_t(n));
  for (uint64_t i = 0; i < n; ++i) {
    std::string s;
    if (!GetString(in, &s)) return false;
    out->push_back(std::move(s));
  }
  return true;
}

// ---- domain codecs ---------------------------------------------------------

void PutStatus(std::string* dst, const Status& s) {
  dst->push_back(char(uint8_t(s.code())));
  PutString(dst, s.message());
}

bool GetStatus(std::string_view* in, Status* out) {
  uint8_t code = 0;
  std::string message;
  if (!GetByte(in, &code) || !GetString(in, &message)) return false;
  if (code > uint8_t(StatusCode::kUnavailable)) return false;
  *out = Status(StatusCode(code), std::move(message));
  return true;
}

void PutActor(std::string* dst, const Actor& a) {
  dst->push_back(char(uint8_t(a.role)));
  PutString(dst, a.id);
  PutString(dst, a.purpose);
}

bool GetActor(std::string_view* in, Actor* out) {
  uint8_t role = 0;
  if (!GetByte(in, &role) ||
      role > uint8_t(Actor::Role::kRegulator)) {
    return false;
  }
  out->role = Actor::Role(role);
  return GetString(in, &out->id) && GetString(in, &out->purpose);
}

// Records ride as their existing compact serialization (gdpr/record.cc) —
// the one codec the AOF, migration, and now the wire all share, so a
// record that round-trips the log round-trips the network by construction.
void PutRecord(std::string* dst, const GdprRecord& rec) {
  PutString(dst, rec.Serialize());
}

bool GetRecord(std::string_view* in, GdprRecord* out) {
  std::string_view blob;
  if (!GetLengthPrefixed(in, &blob)) return false;
  auto rec = GdprRecord::Parse(blob);
  if (!rec.ok()) return false;
  *out = std::move(rec.value());
  return true;
}

// Metadata reuses the record codec with empty key/data; a second layout
// would just be a second set of truncation bugs.
void PutMetadata(std::string* dst, const GdprMetadata& m) {
  GdprRecord shell;
  shell.metadata = m;
  PutRecord(dst, shell);
}

bool GetMetadata(std::string_view* in, GdprMetadata* out) {
  GdprRecord shell;
  if (!GetRecord(in, &shell)) return false;
  *out = std::move(shell.metadata);
  return true;
}

void PutRecordVector(std::string* dst, const std::vector<GdprRecord>& v) {
  PutVarint64(dst, v.size());
  for (const auto& rec : v) PutRecord(dst, rec);
}

bool GetRecordVector(std::string_view* in, std::vector<GdprRecord>* out) {
  uint64_t n = 0;
  if (!GetVarint64(in, &n) || n > in->size()) return false;
  out->clear();
  out->reserve(size_t(n));
  for (uint64_t i = 0; i < n; ++i) {
    GdprRecord rec;
    if (!GetRecord(in, &rec)) return false;
    out->push_back(std::move(rec));
  }
  return true;
}

// MetadataUpdate: presence bitmap, then only the set fields.
enum UpdateBits : uint8_t {
  kHasUser = 1 << 0,
  kHasPurposes = 1 << 1,
  kHasObjections = 1 << 2,
  kHasSharedWith = 1 << 3,
  kHasOrigin = 1 << 4,
  kHasExpiry = 1 << 5,
};

void PutUpdate(std::string* dst, const MetadataUpdate& u) {
  uint8_t bits = 0;
  if (u.user) bits |= kHasUser;
  if (u.purposes) bits |= kHasPurposes;
  if (u.objections) bits |= kHasObjections;
  if (u.shared_with) bits |= kHasSharedWith;
  if (u.origin) bits |= kHasOrigin;
  if (u.expiry_micros) bits |= kHasExpiry;
  dst->push_back(char(bits));
  if (u.user) PutString(dst, *u.user);
  if (u.purposes) PutStringList(dst, *u.purposes);
  if (u.objections) PutStringList(dst, *u.objections);
  if (u.shared_with) PutStringList(dst, *u.shared_with);
  if (u.origin) PutString(dst, *u.origin);
  if (u.expiry_micros) PutFixed64(dst, uint64_t(*u.expiry_micros));
}

bool GetUpdate(std::string_view* in, MetadataUpdate* out) {
  uint8_t bits = 0;
  if (!GetByte(in, &bits)) return false;
  *out = MetadataUpdate{};
  if (bits & kHasUser) {
    out->user.emplace();
    if (!GetString(in, &*out->user)) return false;
  }
  if (bits & kHasPurposes) {
    out->purposes.emplace();
    if (!GetStringList(in, &*out->purposes)) return false;
  }
  if (bits & kHasObjections) {
    out->objections.emplace();
    if (!GetStringList(in, &*out->objections)) return false;
  }
  if (bits & kHasSharedWith) {
    out->shared_with.emplace();
    if (!GetStringList(in, &*out->shared_with)) return false;
  }
  if (bits & kHasOrigin) {
    out->origin.emplace();
    if (!GetString(in, &*out->origin)) return false;
  }
  if (bits & kHasExpiry) {
    uint64_t v = 0;
    if (!GetFixed64(in, &v)) return false;
    out->expiry_micros = int64_t(v);
  }
  return true;
}

void PutAuditEntry(std::string* dst, const AuditEntry& e) {
  PutFixed64(dst, uint64_t(e.timestamp_micros));
  PutString(dst, e.actor_id);
  dst->push_back(char(uint8_t(e.role)));
  PutString(dst, e.op);
  PutString(dst, e.key);
  dst->push_back(e.allowed ? char(1) : char(0));
}

bool GetAuditEntry(std::string_view* in, AuditEntry* e) {
  uint64_t ts = 0;
  uint8_t role = 0, allowed = 0;
  if (!GetFixed64(in, &ts) || !GetString(in, &e->actor_id) ||
      !GetByte(in, &role) || role > uint8_t(Actor::Role::kRegulator) ||
      !GetString(in, &e->op) || !GetString(in, &e->key) ||
      !GetByte(in, &allowed)) {
    return false;
  }
  e->timestamp_micros = int64_t(ts);
  e->role = Actor::Role(role);
  e->allowed = allowed != 0;
  return true;
}

void PutFeatures(std::string* dst, const Features& f) {
  PutString(dst, f.backend);
  PutVarint64(dst, f.rows.size());
  for (const auto& row : f.rows) {
    PutString(dst, row.article);
    PutString(dst, row.requirement);
    PutString(dst, row.mechanism);
    dst->push_back(row.supported ? char(1) : char(0));
  }
}

bool GetFeatures(std::string_view* in, Features* f) {
  if (!GetString(in, &f->backend)) return false;
  uint64_t n = 0;
  if (!GetVarint64(in, &n) || n > in->size()) return false;
  f->rows.clear();
  f->rows.reserve(size_t(n));
  for (uint64_t i = 0; i < n; ++i) {
    FeatureRow row;
    uint8_t supported = 0;
    if (!GetString(in, &row.article) || !GetString(in, &row.requirement) ||
        !GetString(in, &row.mechanism) || !GetByte(in, &supported)) {
      return false;
    }
    row.supported = supported != 0;
    f->rows.push_back(std::move(row));
  }
  return true;
}

void PutCompactionStats(std::string* dst, const CompactionStats& s) {
  PutFixed64(dst, s.compactions);
  PutFixed64(dst, s.log_bytes);
  PutFixed64(dst, s.live_bytes);
  PutFixed64(dst, s.last_bytes_before);
  PutFixed64(dst, s.last_bytes_after);
  PutFixed64(dst, uint64_t(s.last_compaction_micros));
  PutFixed64(dst, s.erasure_barrier);
  PutFixed64(dst, s.erasures_pending_compaction);
  PutFixed64(dst, s.audit_segments);
  PutFixed64(dst, s.audit_dropped_entries);
}

bool GetCompactionStats(std::string_view* in, CompactionStats* s) {
  uint64_t last_micros = 0;
  if (!GetFixed64(in, &s->compactions) || !GetFixed64(in, &s->log_bytes) ||
      !GetFixed64(in, &s->live_bytes) ||
      !GetFixed64(in, &s->last_bytes_before) ||
      !GetFixed64(in, &s->last_bytes_after) || !GetFixed64(in, &last_micros) ||
      !GetFixed64(in, &s->erasure_barrier) ||
      !GetFixed64(in, &s->erasures_pending_compaction) ||
      !GetFixed64(in, &s->audit_segments) ||
      !GetFixed64(in, &s->audit_dropped_entries)) {
    return false;
  }
  s->last_compaction_micros = int64_t(last_micros);
  return true;
}

void PutSnapshot(std::string* dst, const obs::RegistrySnapshot& snap) {
  PutVarint64(dst, snap.counters.size());
  for (const auto& [name, v] : snap.counters) {
    PutString(dst, name);
    PutFixed64(dst, v);
  }
  PutVarint64(dst, snap.gauges.size());
  for (const auto& [name, v] : snap.gauges) {
    PutString(dst, name);
    PutFixed64(dst, uint64_t(v));
  }
  PutVarint64(dst, snap.histograms.size());
  for (const auto& h : snap.histograms) {
    PutString(dst, h.name);
    for (const uint64_t c : h.counts) PutVarint64(dst, c);
    PutFixed64(dst, h.sum);
  }
}

bool GetSnapshot(std::string_view* in, obs::RegistrySnapshot* snap) {
  uint64_t n = 0;
  if (!GetVarint64(in, &n) || n > in->size()) return false;
  snap->counters.clear();
  snap->counters.reserve(size_t(n));
  for (uint64_t i = 0; i < n; ++i) {
    std::string name;
    uint64_t v = 0;
    if (!GetString(in, &name) || !GetFixed64(in, &v)) return false;
    snap->counters.emplace_back(std::move(name), v);
  }
  if (!GetVarint64(in, &n) || n > in->size()) return false;
  snap->gauges.clear();
  snap->gauges.reserve(size_t(n));
  for (uint64_t i = 0; i < n; ++i) {
    std::string name;
    uint64_t v = 0;
    if (!GetString(in, &name) || !GetFixed64(in, &v)) return false;
    snap->gauges.emplace_back(std::move(name), int64_t(v));
  }
  if (!GetVarint64(in, &n) || n > in->size()) return false;
  snap->histograms.clear();
  snap->histograms.reserve(size_t(n));
  for (uint64_t i = 0; i < n; ++i) {
    obs::HistogramSnapshot h;
    if (!GetString(in, &h.name)) return false;
    h.count = 0;
    for (size_t b = 0; b < obs::Histogram::kBuckets; ++b) {
      if (!GetVarint64(in, &h.counts[b])) return false;
      h.count += h.counts[b];
    }
    if (!GetFixed64(in, &h.sum)) return false;
    snap->histograms.push_back(std::move(h));
  }
  return true;
}

Status Malformed(const char* what, WireOp op) {
  return Status::DataLoss(std::string("malformed wire ") + what + " for " +
                          WireOpName(op));
}

}  // namespace

bool ValidWireOp(uint8_t tag) {
  // WireOpName names exactly the defined tags.
  return std::string_view(WireOpName(WireOp(tag))) != "UNKNOWN";
}

const char* WireOpName(WireOp op) {
  switch (op) {
    case WireOp::kPing: return "PING";
    case WireOp::kOpen: return "OPEN";
    case WireOp::kClose: return "CLOSE";
    case WireOp::kCreateRecord: return ops::kCreate;
    case WireOp::kReadData: return ops::kReadData;
    case WireOp::kReadMeta: return ops::kReadMeta;
    case WireOp::kReadMetaUser: return ops::kReadMetaUser;
    case WireOp::kReadMetaPurpose: return ops::kReadMetaPurpose;
    case WireOp::kReadMetaSharing: return ops::kReadMetaSharing;
    case WireOp::kReadRecordsUser: return ops::kReadRecordsUser;
    case WireOp::kUpdateMeta: return ops::kUpdateMeta;
    case WireOp::kUpdateData: return ops::kUpdateData;
    case WireOp::kDeleteKey: return ops::kDeleteKey;
    case WireOp::kDeleteUser: return ops::kDeleteUser;
    case WireOp::kDeleteExpired: return ops::kDeleteExpired;
    case WireOp::kVerifyDeletion: return ops::kVerifyDeletion;
    case WireOp::kGetLogs: return ops::kGetLogs;
    case WireOp::kGetFeatures: return ops::kGetFeatures;
    case WireOp::kScanRecords: return ops::kScanRecords;
    case WireOp::kRecordCount: return "RECORD-COUNT";
    case WireOp::kTotalBytes: return "TOTAL-BYTES";
    case WireOp::kReset: return "RESET";
    case WireOp::kHealth: return "HEALTH";
    case WireOp::kStatsSnapshot: return "STATS-SNAPSHOT";
    case WireOp::kCompactNow: return ops::kCompact;
    case WireOp::kCompactionStats: return "COMPACTION-STATS";
    case WireOp::kExportRecords: return "EXPORT-RECORDS";
    case WireOp::kExportTombstones: return "EXPORT-TOMBSTONES";
    case WireOp::kImportRecord: return "IMPORT-RECORD";
    case WireOp::kAdoptTombstone: return "ADOPT-TOMBSTONE";
    case WireOp::kEvictRecord: return "EVICT-RECORD";
    case WireOp::kClearTombstone: return "CLEAR-TOMBSTONE";
    case WireOp::kVerifyAuditChain: return "VERIFY-AUDIT-CHAIN";
  }
  return "UNKNOWN";
}

std::string EncodeRequest(const WireRequest& req) {
  std::string out;
  out.push_back(char(kWireVersion));
  out.push_back(char(uint8_t(req.op)));
  PutActor(&out, req.actor);
  switch (req.op) {
    case WireOp::kReadData:
    case WireOp::kReadMeta:
    case WireOp::kDeleteKey:
    case WireOp::kVerifyDeletion:
    case WireOp::kReadMetaUser:
    case WireOp::kReadMetaPurpose:
    case WireOp::kReadMetaSharing:
    case WireOp::kReadRecordsUser:
    case WireOp::kDeleteUser:
    case WireOp::kAdoptTombstone:
    case WireOp::kEvictRecord:
    case WireOp::kClearTombstone:
      PutString(&out, req.key);
      break;
    case WireOp::kCreateRecord:
    case WireOp::kImportRecord:
      PutRecord(&out, req.record);
      break;
    case WireOp::kUpdateData:
      PutString(&out, req.key);
      PutString(&out, req.data);
      break;
    case WireOp::kUpdateMeta:
      PutString(&out, req.key);
      PutUpdate(&out, req.update);
      break;
    case WireOp::kGetLogs:
      PutFixed64(&out, uint64_t(req.from_micros));
      PutFixed64(&out, uint64_t(req.to_micros));
      break;
    case WireOp::kExportRecords:
    case WireOp::kExportTombstones:
      PutVarint64(&out, req.slot);
      PutVarint64(&out, req.num_slots);
      break;
    default:
      break;  // actor-only request
  }
  return out;
}

Status DecodeRequest(std::string_view payload, WireRequest* req) {
  uint8_t version = 0, tag = 0;
  if (!GetByte(&payload, &version) || !GetByte(&payload, &tag)) {
    return Status::DataLoss("truncated wire request header");
  }
  if (version != kWireVersion) {
    return Status::InvalidArgument(
        "unsupported wire version " + std::to_string(version) +
        " (this node speaks " + std::to_string(kWireVersion) + ")");
  }
  if (!ValidWireOp(tag)) {
    return Status::InvalidArgument("unknown wire op tag " +
                                   std::to_string(tag));
  }
  *req = WireRequest{};
  req->op = WireOp(tag);
  if (!GetActor(&payload, &req->actor)) {
    return Malformed("actor", req->op);
  }
  switch (req->op) {
    case WireOp::kReadData:
    case WireOp::kReadMeta:
    case WireOp::kDeleteKey:
    case WireOp::kVerifyDeletion:
    case WireOp::kReadMetaUser:
    case WireOp::kReadMetaPurpose:
    case WireOp::kReadMetaSharing:
    case WireOp::kReadRecordsUser:
    case WireOp::kDeleteUser:
    case WireOp::kAdoptTombstone:
    case WireOp::kEvictRecord:
    case WireOp::kClearTombstone:
      if (!GetString(&payload, &req->key)) return Malformed("key", req->op);
      break;
    case WireOp::kCreateRecord:
    case WireOp::kImportRecord:
      if (!GetRecord(&payload, &req->record)) {
        return Malformed("record", req->op);
      }
      break;
    case WireOp::kUpdateData:
      if (!GetString(&payload, &req->key) ||
          !GetString(&payload, &req->data)) {
        return Malformed("key/data", req->op);
      }
      break;
    case WireOp::kUpdateMeta:
      if (!GetString(&payload, &req->key) ||
          !GetUpdate(&payload, &req->update)) {
        return Malformed("metadata update", req->op);
      }
      break;
    case WireOp::kGetLogs: {
      uint64_t from = 0, to = 0;
      if (!GetFixed64(&payload, &from) || !GetFixed64(&payload, &to)) {
        return Malformed("time range", req->op);
      }
      req->from_micros = int64_t(from);
      req->to_micros = int64_t(to);
      break;
    }
    case WireOp::kExportRecords:
    case WireOp::kExportTombstones: {
      uint64_t slot = 0, num_slots = 0;
      if (!GetVarint64(&payload, &slot) ||
          !GetVarint64(&payload, &num_slots) || num_slots == 0 ||
          num_slots >= (uint64_t(1) << 32) || slot >= num_slots) {
        return Malformed("slot spec", req->op);
      }
      req->slot = uint32_t(slot);
      req->num_slots = uint32_t(num_slots);
      break;
    }
    default:
      break;
  }
  if (!payload.empty()) return Malformed("trailing bytes", req->op);
  return Status::OK();
}

std::string EncodeResponse(const WireResponse& resp) {
  std::string out;
  out.push_back(char(kWireVersion));
  out.push_back(char(uint8_t(resp.op)));
  PutStatus(&out, resp.status);
  switch (resp.op) {
    case WireOp::kReadData:
      PutRecord(&out, resp.record);
      break;
    case WireOp::kReadMeta:
      PutMetadata(&out, resp.metadata);
      break;
    case WireOp::kReadMetaUser:
    case WireOp::kReadMetaPurpose:
    case WireOp::kReadMetaSharing:
    case WireOp::kReadRecordsUser:
    case WireOp::kScanRecords:
    case WireOp::kExportRecords:
      PutRecordVector(&out, resp.records);
      break;
    case WireOp::kDeleteUser:
    case WireOp::kDeleteExpired:
    case WireOp::kRecordCount:
    case WireOp::kTotalBytes:
      PutVarint64(&out, resp.count);
      break;
    case WireOp::kVerifyDeletion:
      out.push_back(resp.flag ? char(1) : char(0));
      break;
    case WireOp::kGetLogs:
      PutVarint64(&out, resp.entries.size());
      for (const auto& e : resp.entries) PutAuditEntry(&out, e);
      break;
    case WireOp::kGetFeatures:
      PutFeatures(&out, resp.features);
      break;
    case WireOp::kHealth:
      out.push_back(char(uint8_t(resp.health)));
      PutStatus(&out, resp.health_cause);
      break;
    case WireOp::kCompactNow:
    case WireOp::kCompactionStats:
      PutCompactionStats(&out, resp.stats);
      break;
    case WireOp::kStatsSnapshot:
      PutSnapshot(&out, resp.snapshot);
      break;
    case WireOp::kExportTombstones:
      PutStringList(&out, resp.keys);
      break;
    case WireOp::kVerifyAuditChain:
      out.push_back(resp.flag ? char(1) : char(0));
      PutString(&out, resp.head_hash);
      break;
    default:
      break;  // status-only response
  }
  return out;
}

Status DecodeResponse(std::string_view payload, WireResponse* resp) {
  uint8_t version = 0, tag = 0;
  if (!GetByte(&payload, &version) || !GetByte(&payload, &tag)) {
    return Status::DataLoss("truncated wire response header");
  }
  if (version != kWireVersion) {
    return Status::InvalidArgument("unsupported wire response version " +
                                   std::to_string(version));
  }
  if (!ValidWireOp(tag)) {
    return Status::InvalidArgument("unknown wire response op tag " +
                                   std::to_string(tag));
  }
  *resp = WireResponse{};
  resp->op = WireOp(tag);
  if (!GetStatus(&payload, &resp->status)) {
    return Malformed("status", resp->op);
  }
  switch (resp->op) {
    case WireOp::kReadData:
      if (!GetRecord(&payload, &resp->record)) {
        return Malformed("record", resp->op);
      }
      break;
    case WireOp::kReadMeta:
      if (!GetMetadata(&payload, &resp->metadata)) {
        return Malformed("metadata", resp->op);
      }
      break;
    case WireOp::kReadMetaUser:
    case WireOp::kReadMetaPurpose:
    case WireOp::kReadMetaSharing:
    case WireOp::kReadRecordsUser:
    case WireOp::kScanRecords:
    case WireOp::kExportRecords:
      if (!GetRecordVector(&payload, &resp->records)) {
        return Malformed("record vector", resp->op);
      }
      break;
    case WireOp::kDeleteUser:
    case WireOp::kDeleteExpired:
    case WireOp::kRecordCount:
    case WireOp::kTotalBytes:
      if (!GetVarint64(&payload, &resp->count)) {
        return Malformed("count", resp->op);
      }
      break;
    case WireOp::kVerifyDeletion: {
      uint8_t flag = 0;
      if (!GetByte(&payload, &flag)) return Malformed("flag", resp->op);
      resp->flag = flag != 0;
      break;
    }
    case WireOp::kGetLogs: {
      uint64_t n = 0;
      if (!GetVarint64(&payload, &n) || n > payload.size()) {
        return Malformed("entry count", resp->op);
      }
      resp->entries.clear();
      resp->entries.reserve(size_t(n));
      for (uint64_t i = 0; i < n; ++i) {
        AuditEntry e;
        if (!GetAuditEntry(&payload, &e)) {
          return Malformed("audit entry", resp->op);
        }
        resp->entries.push_back(std::move(e));
      }
      break;
    }
    case WireOp::kGetFeatures:
      if (!GetFeatures(&payload, &resp->features)) {
        return Malformed("features", resp->op);
      }
      break;
    case WireOp::kHealth: {
      uint8_t h = 0;
      if (!GetByte(&payload, &h) ||
          h > uint8_t(HealthState::kFailed) ||
          !GetStatus(&payload, &resp->health_cause)) {
        return Malformed("health", resp->op);
      }
      resp->health = HealthState(h);
      break;
    }
    case WireOp::kCompactNow:
    case WireOp::kCompactionStats:
      if (!GetCompactionStats(&payload, &resp->stats)) {
        return Malformed("compaction stats", resp->op);
      }
      break;
    case WireOp::kStatsSnapshot:
      if (!GetSnapshot(&payload, &resp->snapshot)) {
        return Malformed("registry snapshot", resp->op);
      }
      break;
    case WireOp::kExportTombstones:
      if (!GetStringList(&payload, &resp->keys)) {
        return Malformed("tombstone keys", resp->op);
      }
      break;
    case WireOp::kVerifyAuditChain: {
      uint8_t flag = 0;
      if (!GetByte(&payload, &flag) ||
          !GetString(&payload, &resp->head_hash)) {
        return Malformed("chain verdict", resp->op);
      }
      resp->flag = flag != 0;
      break;
    }
    default:
      break;
  }
  if (!payload.empty()) return Malformed("trailing bytes", resp->op);
  return Status::OK();
}

std::string FrameHeader(size_t payload_bytes) {
  std::string out;
  PutFixed32(&out, uint32_t(payload_bytes));
  return out;
}

Status FrameBuffer::Next(std::string* payload, bool* have) {
  *have = false;
  if (poisoned_) {
    return Status::DataLoss("frame stream poisoned by oversized frame");
  }
  if (buf_.size() < kFrameHeaderBytes) return Status::OK();
  const uint32_t len = ReadFixed32(buf_.data());
  if (len > kMaxFrameBytes) {
    // The reader has no way to find the next frame boundary after a bogus
    // length: poison, and let the transport drop the connection.
    poisoned_ = true;
    return Status::DataLoss("frame length " + std::to_string(len) +
                            " exceeds limit " +
                            std::to_string(kMaxFrameBytes));
  }
  if (buf_.size() < kFrameHeaderBytes + len) return Status::OK();
  if (buf_.size() == kFrameHeaderBytes + len) {
    // Exactly one frame buffered, the common case with one request in
    // flight per connection: hand it over and keep no memory behind.
    buf_.erase(0, kFrameHeaderBytes);
    payload->swap(buf_);
    std::string().swap(buf_);
  } else {
    payload->assign(buf_, kFrameHeaderBytes, len);
    buf_.erase(0, kFrameHeaderBytes + len);
  }
  *have = true;
  return Status::OK();
}

}  // namespace gdpr::net
