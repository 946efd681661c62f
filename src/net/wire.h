// The cluster wire protocol: a compact length-framed binary codec covering
// the full src/gdpr/ops.h vocabulary plus the cluster-only surface
// (migration, compaction, stats, audit verification). This is the seam that
// lets a node live in-process, behind a socketpair on another thread, or on
// another machine: the router speaks NodeHandle, NodeHandle speaks frames,
// and nothing above this layer knows which transport carried them.
//
// Frame layout (docs/WIRE_PROTOCOL.md is the normative description):
//
//   [u32 length LE][payload: length bytes]
//   request  payload = [u8 version][u8 op tag][actor][op-specific body]
//   response payload = [u8 version][u8 op tag echo][status][op-specific body]
//
// Design rules:
//   * Lossless Status round-tripping — DataLoss, Unavailable (degraded-
//     health refusals), PermissionDenied and their messages survive the
//     seam byte-for-byte, so the router's merge logic (name Unavailable
//     nodes, surface DataLoss) behaves identically over any transport.
//   * Every decode failure is a clean DataLoss/InvalidArgument, never a
//     crash, a hang, or an over-read: length prefixes are bounded by
//     kMaxFrameBytes, list counts are validated against remaining bytes,
//     enum bytes are range-checked, and a slot spec must name one of its
//     slots (test_wire fuzzes this).
//   * A version byte leads every payload for forward compatibility: a
//     server refuses versions it does not speak with InvalidArgument
//     instead of misparsing.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"  // SlotForKey, CheckSlot: slot-scoped exports
#include "common/status.h"
#include "gdpr/actor.h"
#include "gdpr/audit.h"
#include "gdpr/compliance.h"
#include "gdpr/record.h"
#include "gdpr/store.h"
#include "net/node_handle.h"  // SlotContents
#include "obs/metrics.h"
#include "storage/compaction.h"

namespace gdpr::net {

inline constexpr uint8_t kWireVersion = 1;
// Upper bound on a single frame. Large enough for a full-node scan response
// at bench scale, small enough that a corrupt length prefix is caught.
// WriteFrame refuses a larger payload before sending it; ReadFrame refuses
// a larger prefix before sizing anything, and sizes a smaller one only as
// its bytes arrive, so no prefix can drive an allocation bomb
// (net/socket_io.h).
inline constexpr uint32_t kMaxFrameBytes = 64u << 20;
inline constexpr size_t kFrameHeaderBytes = 4;

// Operation tags. Values are wire format — append only, never renumber,
// and never reuse a retired tag (32 carried RESET, a bench-only wipe of a
// node's records; 50–55 carried the per-record migration ops that the
// slot-scoped ones below replaced).
enum class WireOp : uint8_t {
  kPing = 1,
  kOpen = 2,
  kClose = 3,
  // The gdpr/ops.h vocabulary.
  kCreateRecord = 10,
  kReadData = 11,
  kReadMeta = 12,
  kReadMetaUser = 13,
  kReadMetaPurpose = 14,
  kReadMetaSharing = 15,
  kReadRecordsUser = 16,
  kUpdateMeta = 17,
  kUpdateData = 18,
  kDeleteKey = 19,
  kDeleteUser = 20,
  kDeleteExpired = 21,
  kVerifyDeletion = 22,
  kGetLogs = 23,
  kGetFeatures = 24,
  kScanRecords = 25,
  // Store introspection.
  kRecordCount = 30,
  kTotalBytes = 31,
  kHealth = 33,
  kStatsSnapshot = 34,
  // Erasure-aware compaction.
  kCompactNow = 40,
  kCompactionStats = 41,
  // Slot migration (router-to-node only; never audited node-side).
  kExportSlot = 56,
  kImportSlot = 57,
  kEvictRecords = 58,
  // Per-node audit chain verification (returns ok + head hash).
  kVerifyAuditChain = 60,
};

// Both read the one op table in wire.cc, which also gives each op its
// request and response body layout.
bool ValidWireOp(uint8_t tag);
const char* WireOpName(WireOp op);

// The tag that carries each collection read, and back; every kind keeps the
// tag its named read had. CollectionKindOf requires a collection tag
// (13–16, 25).
WireOp CollectionWireOp(CollectionKind kind);
CollectionKind CollectionKindOf(WireOp op);

// A collection answer as the wire carries it: count records, each image
// length-prefixed, back to back in bytes (the record list's body after its
// count). A node's dispatch fills it from PolicyStore::AppendImages.
struct RecordImages {
  uint64_t count = 0;
  std::string bytes;
};

// One decoded request. Only the fields the op uses are meaningful; the
// codec encodes exactly those, so an unused vector costs nothing on the
// wire.
struct WireRequest {
  WireOp op = WireOp::kPing;
  Actor actor;
  std::string key;    // key / user / purpose / third-party argument
  std::string data;   // kUpdateData payload
  GdprRecord record;  // kCreateRecord
  MetadataUpdate update;
  int64_t from_micros = 0;  // kGetLogs
  int64_t to_micros = 0;
  uint32_t slot = 0;  // kExportSlot
  uint32_t num_slots = 0;
  SlotContents contents;           // kImportSlot
  std::vector<std::string> keys;  // kEvictRecords
};

// One decoded response. `status` is the op-level Status (always present);
// result fields ride alongside so a collection read can deliver every
// readable record AND a DataLoss verdict in one frame.
struct WireResponse {
  WireOp op = WireOp::kPing;  // echoes the request tag
  Status status = Status::OK();
  GdprRecord record;                   // kReadData
  GdprMetadata metadata;               // kReadMeta
  std::vector<GdprRecord> records;     // collection reads
  // A node's collection answer, encoded after `records` under one count;
  // a decode fills `records` alone.
  RecordImages images;
  SlotContents contents;               // kExportSlot
  std::vector<AuditEntry> entries;     // kGetLogs
  Features features;                   // kGetFeatures
  CompactionStats stats;               // kCompactNow / kCompactionStats
  obs::RegistrySnapshot snapshot;      // kStatsSnapshot
  uint64_t count = 0;                  // counts / byte totals
  bool flag = false;                   // kVerifyDeletion / kVerifyAuditChain
  HealthReport health;                 // kHealth
  std::string head_hash;               // kVerifyAuditChain
};

// Payload codecs (no frame header — see FrameHeader()).
std::string EncodeRequest(const WireRequest& req);
Status DecodeRequest(std::string_view payload, WireRequest* req);
std::string EncodeResponse(const WireResponse& resp);
Status DecodeResponse(std::string_view payload, WireResponse* resp);

// The length prefix of a frame carrying payload_bytes.
std::string FrameHeader(size_t payload_bytes);

}  // namespace gdpr::net
