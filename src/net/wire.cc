#include "net/wire.h"

#include <algorithm>
#include <array>
#include <iterator>
#include <numeric>
#include <optional>
#include <type_traits>

#include "common/coding.h"

namespace gdpr::net {

namespace {

// ---- the op table ----------------------------------------------------------

// Request body layouts, after the version, the op tag and the actor, with
// the name a malformed one gets in the decode error.
enum class ReqBody : uint8_t {
  kNone, kKey, kRecord, kKeyData, kKeyUpdate, kTimeRange, kSlotSpec,
  kContents, kKeys
};
constexpr const char* kReqBodyName[] = {
    "", "key", "record", "key/data", "metadata update", "time range",
    "slot spec", "slot contents", "key list"};
static_assert(std::size(kReqBodyName) == size_t(ReqBody::kKeys) + 1);

// Response body layouts, after the version, the op tag echo and the status.
enum class RespBody : uint8_t {
  kNone, kRecord, kMetadata, kRecords, kCount, kFlag, kEntries, kFeatures,
  kHealth, kCompaction, kSnapshot, kContents, kVerdict
};
constexpr const char* kRespBodyName[] = {
    "", "record", "metadata", "record vector", "count", "flag",
    "audit entries", "features", "health", "compaction stats",
    "registry snapshot", "slot contents", "chain verdict"};
static_assert(std::size(kRespBodyName) == size_t(RespBody::kVerdict) + 1);

struct OpSpec {
  WireOp op;
  const char* name;
  ReqBody req;
  RespBody resp;
};

// Every op the wire carries, declared once; docs/WIRE_PROTOCOL.md mirrors
// it row for row. The codecs switch on the body shapes, never on the op.
// clang-format off
constexpr OpSpec kOps[] = {
    {WireOp::kPing,             "PING",                 ReqBody::kNone,      RespBody::kNone},
    {WireOp::kOpen,             "OPEN",                 ReqBody::kNone,      RespBody::kNone},
    {WireOp::kClose,            "CLOSE",                ReqBody::kNone,      RespBody::kNone},
    {WireOp::kCreateRecord,     ops::kCreate,           ReqBody::kRecord,    RespBody::kNone},
    {WireOp::kReadData,         ops::kReadData,         ReqBody::kKey,       RespBody::kRecord},
    {WireOp::kReadMeta,         ops::kReadMeta,         ReqBody::kKey,       RespBody::kMetadata},
    {WireOp::kReadMetaUser,     ops::kReadMetaUser,     ReqBody::kKey,       RespBody::kRecords},
    {WireOp::kReadMetaPurpose,  ops::kReadMetaPurpose,  ReqBody::kKey,       RespBody::kRecords},
    {WireOp::kReadMetaSharing,  ops::kReadMetaSharing,  ReqBody::kKey,       RespBody::kRecords},
    {WireOp::kReadRecordsUser,  ops::kReadRecordsUser,  ReqBody::kKey,       RespBody::kRecords},
    {WireOp::kUpdateMeta,       ops::kUpdateMeta,       ReqBody::kKeyUpdate, RespBody::kNone},
    {WireOp::kUpdateData,       ops::kUpdateData,       ReqBody::kKeyData,   RespBody::kNone},
    {WireOp::kDeleteKey,        ops::kDeleteKey,        ReqBody::kKey,       RespBody::kNone},
    {WireOp::kDeleteUser,       ops::kDeleteUser,       ReqBody::kKey,       RespBody::kCount},
    {WireOp::kDeleteExpired,    ops::kDeleteExpired,    ReqBody::kNone,      RespBody::kCount},
    {WireOp::kVerifyDeletion,   ops::kVerifyDeletion,   ReqBody::kKey,       RespBody::kFlag},
    {WireOp::kGetLogs,          ops::kGetLogs,          ReqBody::kTimeRange, RespBody::kEntries},
    {WireOp::kGetFeatures,      ops::kGetFeatures,      ReqBody::kNone,      RespBody::kFeatures},
    {WireOp::kScanRecords,      ops::kScanRecords,      ReqBody::kNone,      RespBody::kRecords},
    {WireOp::kRecordCount,      "RECORD-COUNT",         ReqBody::kNone,      RespBody::kCount},
    {WireOp::kTotalBytes,       "TOTAL-BYTES",          ReqBody::kNone,      RespBody::kCount},
    {WireOp::kHealth,           "HEALTH",               ReqBody::kNone,      RespBody::kHealth},
    {WireOp::kStatsSnapshot,    "STATS-SNAPSHOT",       ReqBody::kNone,      RespBody::kSnapshot},
    {WireOp::kCompactNow,       ops::kCompact,          ReqBody::kNone,      RespBody::kCompaction},
    {WireOp::kCompactionStats,  "COMPACTION-STATS",     ReqBody::kNone,      RespBody::kCompaction},
    {WireOp::kExportSlot,       "EXPORT-SLOT",          ReqBody::kSlotSpec,  RespBody::kContents},
    {WireOp::kImportSlot,       "IMPORT-SLOT",          ReqBody::kContents,  RespBody::kNone},
    {WireOp::kEvictRecords,     "EVICT-RECORDS",        ReqBody::kKeys,      RespBody::kNone},
    {WireOp::kVerifyAuditChain, "VERIFY-AUDIT-CHAIN",   ReqBody::kNone,      RespBody::kVerdict},
};
// clang-format on

constexpr OpSpec kUnknownOp = {WireOp(0), "UNKNOWN", ReqBody::kNone,
                               RespBody::kNone};

// The kOps row of each tag, plus one; 0 marks a tag no op uses.
constexpr auto kRowOfTag = [] {
  std::array<uint8_t, 256> rows{};
  for (size_t i = 0; i < std::size(kOps); ++i) {
    rows[uint8_t(kOps[i].op)] = uint8_t(i + 1);
  }
  return rows;
}();

const OpSpec& Spec(uint8_t tag) {
  const uint8_t row = kRowOfTag[tag];
  return row ? kOps[row - 1] : kUnknownOp;
}

// The tag of each CollectionKind, in enum order.
constexpr WireOp kCollectionOps[] = {
    WireOp::kReadMetaUser, WireOp::kReadMetaPurpose, WireOp::kReadMetaSharing,
    WireOp::kReadRecordsUser, WireOp::kScanRecords};
static_assert(std::size(kCollectionOps) == size_t(CollectionKind::kAll) + 1);

// ---- primitives ------------------------------------------------------------
// Writer and Reader have the same calls, so each layout below is written
// once, as a template over either: encoding passes const fields in, decoding
// fills them. Every Reader call returns false on truncation, on an enum
// byte past its last value, or on a list count larger than the bytes left;
// the top-level decoders turn that into one DataLoss naming the op, which is
// all a caller can act on anyway.

class Writer {
 public:
  explicit Writer(std::string* out) : out_(out) {}

  bool Byte(uint8_t v) {
    out_->push_back(char(v));
    return true;
  }
  bool Bool(bool v) { return Byte(v ? 1 : 0); }
  template <class E>
  bool Enum(E v, E /*last*/) {
    return Byte(uint8_t(v));
  }
  bool Fixed(uint64_t v) {
    PutFixed64(out_, v);
    return true;
  }
  bool Fixed(int64_t v) { return Fixed(uint64_t(v)); }
  bool Varint(uint64_t v) {
    PutVarint64(out_, v);
    return true;
  }
  bool Str(std::string_view s) {
    PutLengthPrefixed(out_, s);
    return true;
  }
  bool Strs(const std::vector<std::string>& v) {
    PutStringList(out_, v);
    return true;
  }
  bool Stat(const Status& s) {
    return Byte(uint8_t(s.code())) && Str(s.message());
  }
  // Records ride as their own compact serialization (gdpr/record.cc), the
  // one codec the AOF, migration and the wire share: a record that
  // round-trips the log round-trips the network by construction. One
  // scratch buffer serves the whole frame, not a heap string per record.
  bool Record(const GdprRecord& rec) {
    record_.clear();
    rec.SerializeTo(&record_);
    return Str(record_);
  }
  // Metadata reuses the record codec with empty key and data; a second
  // layout would just be a second set of truncation bugs.
  bool Meta(const GdprMetadata& m) {
    GdprRecord shell;
    shell.metadata = m;
    return Record(shell);
  }
  template <class T, class F>
  bool List(const std::vector<T>& v, F each) {
    Varint(v.size());
    for (const T& x : v) each(*this, x);
    return true;
  }
  // A collection answer: the records, then the images a node appended, as
  // one list. The images are already in the list's element layout.
  bool Records(const std::vector<GdprRecord>& recs,
               const RecordImages& images) {
    Varint(recs.size() + images.count);
    for (const GdprRecord& rec : recs) Record(rec);
    out_->append(images.bytes);
    return true;
  }
  template <class T, class F>
  bool Opt(bool present, const std::optional<T>& v, F each) {
    return !present || each(*this, *v);
  }

 private:
  std::string* out_;
  std::string record_;  // Record's scratch
};

class Reader {
 public:
  explicit Reader(std::string_view in) : in_(in) {}

  bool done() const { return in_.empty(); }

  bool Byte(uint8_t& v) {
    if (in_.empty()) return false;
    v = uint8_t(in_.front());
    in_.remove_prefix(1);
    return true;
  }
  bool Bool(bool& v) {
    uint8_t b = 0;
    if (!Byte(b)) return false;
    v = b != 0;
    return true;
  }
  template <class E>
  bool Enum(E& v, E last) {
    uint8_t b = 0;
    if (!Byte(b) || b > uint8_t(last)) return false;
    v = E(b);
    return true;
  }
  bool Fixed(uint64_t& v) { return GetFixed64(&in_, &v); }
  bool Fixed(int64_t& v) {
    uint64_t u = 0;
    if (!Fixed(u)) return false;
    v = int64_t(u);
    return true;
  }
  bool Varint(uint64_t& v) { return GetVarint64(&in_, &v); }
  bool Varint(uint32_t& v) {
    uint64_t u = 0;
    if (!Varint(u) || u > UINT32_MAX) return false;
    v = uint32_t(u);
    return true;
  }
  bool Str(std::string& s) {
    std::string_view v;
    if (!GetLengthPrefixed(&in_, &v)) return false;
    s.assign(v);
    return true;
  }
  bool Strs(std::vector<std::string>& v) { return GetStringList(&in_, &v); }
  bool Stat(Status& s) {
    StatusCode code = StatusCode::kOk;
    std::string message;
    if (!Enum(code, StatusCode::kUnavailable) || !Str(message)) return false;
    s = Status(code, std::move(message));
    return true;
  }
  // Decodes in place: a list's records parse straight into their slots.
  bool Record(GdprRecord& rec) {
    std::string_view blob;
    return GetLengthPrefixed(&in_, &blob) &&
           GdprRecord::ParseInto(blob, /*with_data=*/true, &rec).ok();
  }
  bool Meta(GdprMetadata& m) {
    GdprRecord shell;
    if (!Record(shell)) return false;
    m = std::move(shell.metadata);
    return true;
  }
  template <class T, class F>
  bool List(std::vector<T>& v, F each) {
    uint64_t n = 0;
    if (!Varint(n) || n > in_.size()) return false;
    v.clear();
    v.reserve(size_t(n));
    for (uint64_t i = 0; i < n; ++i) {
      if (!each(*this, v.emplace_back())) return false;
    }
    return true;
  }
  template <class T, class F>
  bool Opt(bool present, std::optional<T>& v, F each) {
    return !present || each(*this, v.emplace());
  }
  // Every element of the list decodes into recs, whichever side built it.
  bool Records(std::vector<GdprRecord>& recs, RecordImages& /*images*/) {
    return List(recs,
                [](Reader& io, GdprRecord& rec) { return io.Record(rec); });
  }

 private:
  std::string_view in_;
};

template <class Io>
constexpr bool kDecoding = std::is_same_v<std::decay_t<Io>, Reader>;

// ---- layouts ---------------------------------------------------------------

constexpr auto kActor = [](auto& io, auto& a) {
  return io.Enum(a.role, Actor::Role::kRegulator) && io.Str(a.id) &&
         io.Str(a.purpose);
};

// MetadataUpdate: a presence bitmap, then only the set fields. A decode
// starts from an empty update, so its bitmap is the one it reads.
enum UpdateBits : uint8_t {
  kHasUser = 1 << 0,
  kHasPurposes = 1 << 1,
  kHasObjections = 1 << 2,
  kHasSharedWith = 1 << 3,
  kHasOrigin = 1 << 4,
  kHasExpiry = 1 << 5,
};

constexpr auto kUpdate = [](auto& io, auto& u) {
  uint8_t bits = uint8_t(
      (u.user ? kHasUser : 0) | (u.purposes ? kHasPurposes : 0) |
      (u.objections ? kHasObjections : 0) |
      (u.shared_with ? kHasSharedWith : 0) | (u.origin ? kHasOrigin : 0) |
      (u.expiry_micros ? kHasExpiry : 0));
  const auto str = [](auto& io, auto& s) { return io.Str(s); };
  const auto strs = [](auto& io, auto& v) { return io.Strs(v); };
  const auto fixed = [](auto& io, auto& t) { return io.Fixed(t); };
  return io.Byte(bits) && io.Opt(bits & kHasUser, u.user, str) &&
         io.Opt(bits & kHasPurposes, u.purposes, strs) &&
         io.Opt(bits & kHasObjections, u.objections, strs) &&
         io.Opt(bits & kHasSharedWith, u.shared_with, strs) &&
         io.Opt(bits & kHasOrigin, u.origin, str) &&
         io.Opt(bits & kHasExpiry, u.expiry_micros, fixed);
};

constexpr auto kAuditEntry = [](auto& io, auto& e) {
  return io.Fixed(e.timestamp_micros) && io.Str(e.actor_id) &&
         io.Enum(e.role, Actor::Role::kRegulator) && io.Str(e.op) &&
         io.Str(e.key) && io.Bool(e.allowed);
};

constexpr auto kFeatures = [](auto& io, auto& f) {
  return io.Str(f.backend) && io.List(f.rows, [](auto& io, auto& row) {
    return io.Str(row.article) && io.Str(row.requirement) &&
           io.Str(row.mechanism) && io.Bool(row.supported);
  });
};

constexpr auto kCompactionStats = [](auto& io, auto& s) {
  return io.Fixed(s.compactions) && io.Fixed(s.log_bytes) &&
         io.Fixed(s.live_bytes) && io.Fixed(s.last_bytes_before) &&
         io.Fixed(s.last_bytes_after) && io.Fixed(s.last_compaction_micros) &&
         io.Fixed(s.erasure_barrier) &&
         io.Fixed(s.erasures_pending_compaction) &&
         io.Fixed(s.audit_segments) && io.Fixed(s.audit_dropped_entries);
};

constexpr auto kSnapshot = [](auto& io, auto& snap) {
  const auto named = [](auto& io, auto& nv) {
    return io.Str(nv.first) && io.Fixed(nv.second);
  };
  return io.List(snap.counters, named) && io.List(snap.gauges, named) &&
         io.List(snap.histograms, [](auto& io, auto& h) {
           if (!io.Str(h.name)) return false;
           for (auto& c : h.counts) {
             if (!io.Varint(c)) return false;
           }
           // The total is not on the wire: the decoder recounts it.
           if constexpr (kDecoding<decltype(io)>) {
             h.count = std::accumulate(h.counts.begin(), h.counts.end(),
                                       uint64_t{0});
           }
           return io.Fixed(h.sum);
         });
};

constexpr auto kRecordList = [](auto& io, auto& v) {
  return io.List(v, [](auto& io, auto& rec) { return io.Record(rec); });
};

// A slot's records, then its tombstone keys: kImportSlot's request body and
// kExportSlot's response body.
constexpr auto kSlotContents = [](auto& io, auto& c) {
  return kRecordList(io, c.records) && io.Strs(c.tombstones);
};

template <class Io, class R>
bool RequestBody(Io& io, ReqBody shape, R& r) {
  switch (shape) {
    case ReqBody::kNone: return true;
    case ReqBody::kKey: return io.Str(r.key);
    case ReqBody::kRecord: return io.Record(r.record);
    case ReqBody::kKeyData: return io.Str(r.key) && io.Str(r.data);
    case ReqBody::kKeyUpdate: return io.Str(r.key) && kUpdate(io, r.update);
    case ReqBody::kTimeRange:
      return io.Fixed(r.from_micros) && io.Fixed(r.to_micros);
    case ReqBody::kSlotSpec: return io.Varint(r.slot) && io.Varint(r.num_slots);
    case ReqBody::kContents: return kSlotContents(io, r.contents);
    case ReqBody::kKeys: return io.Strs(r.keys);
  }
  return false;
}

template <class Io, class R>
bool ResponseBody(Io& io, RespBody shape, R& r) {
  switch (shape) {
    case RespBody::kNone: return true;
    case RespBody::kRecord: return io.Record(r.record);
    case RespBody::kMetadata: return io.Meta(r.metadata);
    case RespBody::kRecords: return io.Records(r.records, r.images);
    case RespBody::kCount: return io.Varint(r.count);
    case RespBody::kFlag: return io.Bool(r.flag);
    case RespBody::kEntries: return io.List(r.entries, kAuditEntry);
    case RespBody::kFeatures: return kFeatures(io, r.features);
    case RespBody::kHealth:
      return io.Enum(r.health.state, HealthState::kFailed) &&
             io.Stat(r.health.cause);
    case RespBody::kCompaction: return kCompactionStats(io, r.stats);
    case RespBody::kSnapshot: return kSnapshot(io, r.snapshot);
    case RespBody::kContents: return kSlotContents(io, r.contents);
    case RespBody::kVerdict: return io.Bool(r.flag) && io.Str(r.head_hash);
  }
  return false;
}

// Reads the version byte and op tag that lead every payload.
Status DecodeHeader(Reader* in, const char* what, WireOp* op) {
  uint8_t version = 0, tag = 0;
  if (!in->Byte(version) || !in->Byte(tag)) {
    return Status::DataLoss(std::string("truncated wire ") + what +
                            " header");
  }
  if (version != kWireVersion) {
    return Status::InvalidArgument(
        std::string("unsupported wire ") + what + " version " +
        std::to_string(version) + " (this node speaks " +
        std::to_string(kWireVersion) + ")");
  }
  if (!ValidWireOp(tag)) {
    return Status::InvalidArgument(std::string("unknown wire ") + what +
                                   " op tag " + std::to_string(tag));
  }
  *op = WireOp(tag);
  return Status::OK();
}

Status Malformed(const char* what, const OpSpec& spec) {
  return Status::DataLoss(std::string("malformed wire ") + what + " for " +
                          spec.name);
}

}  // namespace

bool ValidWireOp(uint8_t tag) { return kRowOfTag[tag] != 0; }

const char* WireOpName(WireOp op) { return Spec(uint8_t(op)).name; }

WireOp CollectionWireOp(CollectionKind kind) {
  return kCollectionOps[size_t(kind)];
}

CollectionKind CollectionKindOf(WireOp op) {
  const auto* it = std::find(std::begin(kCollectionOps),
                             std::end(kCollectionOps), op);
  return CollectionKind(it - std::begin(kCollectionOps));
}

std::string EncodeRequest(const WireRequest& req) {
  std::string out;
  Writer w(&out);
  w.Byte(kWireVersion);
  w.Byte(uint8_t(req.op));
  kActor(w, req.actor);
  RequestBody(w, Spec(uint8_t(req.op)).req, req);
  return out;
}

Status DecodeRequest(std::string_view payload, WireRequest* req) {
  Reader in(payload);
  WireOp op = WireOp::kPing;
  Status s = DecodeHeader(&in, "request", &op);
  if (!s.ok()) return s;
  *req = WireRequest{};
  req->op = op;
  const OpSpec& spec = Spec(uint8_t(op));
  if (!kActor(in, req->actor)) return Malformed("actor", spec);
  if (!RequestBody(in, spec.req, *req)) {
    return Malformed(kReqBodyName[size_t(spec.req)], spec);
  }
  if (!in.done()) return Malformed("trailing bytes", spec);
  if (spec.req == ReqBody::kSlotSpec) {
    return CheckSlot(req->slot, req->num_slots);
  }
  return Status::OK();
}

std::string EncodeResponse(const WireResponse& resp) {
  std::string out;
  Writer w(&out);
  w.Byte(kWireVersion);
  w.Byte(uint8_t(resp.op));
  w.Stat(resp.status);
  ResponseBody(w, Spec(uint8_t(resp.op)).resp, resp);
  return out;
}

Status DecodeResponse(std::string_view payload, WireResponse* resp) {
  Reader in(payload);
  WireOp op = WireOp::kPing;
  Status s = DecodeHeader(&in, "response", &op);
  if (!s.ok()) return s;
  *resp = WireResponse{};
  resp->op = op;
  const OpSpec& spec = Spec(uint8_t(op));
  if (!in.Stat(resp->status)) return Malformed("status", spec);
  if (!ResponseBody(in, spec.resp, *resp)) {
    return Malformed(kRespBodyName[size_t(spec.resp)], spec);
  }
  if (!in.done()) return Malformed("trailing bytes", spec);
  return Status::OK();
}

std::string FrameHeader(size_t payload_bytes) {
  std::string out;
  for (int i = 0; i < 4; ++i) {
    out.push_back(char(uint8_t(payload_bytes >> (8 * i))));
  }
  return out;
}

}  // namespace gdpr::net
