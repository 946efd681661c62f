// Wire-protocol robustness: every op round-trips losslessly (including
// Status codes and messages — the router's merge logic depends on
// Unavailable and DataLoss surviving the seam byte-for-byte), and every
// malformed input — truncation, oversized length prefixes, unknown tags,
// bad versions, trailing bytes, random byte flips — decodes to a clean
// DataLoss/InvalidArgument. Never a crash, a hang, or an over-read (the CI
// asan job runs this suite under AddressSanitizer). Framing is checked
// over a socket pair: ReadFrame takes exactly one frame per call, however
// the bytes arrive, and WriteFrame refuses an oversized payload.

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <iterator>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "common/coding.h"
#include "common/random.h"
#include "net/socket_io.h"
#include "net/wire.h"

namespace gdpr::net {
namespace {

GdprRecord SampleRecord(const std::string& key) {
  GdprRecord rec;
  rec.key = key;
  rec.data = "payload-bytes \x01\x02\xff for " + key;
  rec.metadata.user = "user-000042";
  rec.metadata.purposes = {"ads", "analytics"};
  rec.metadata.objections = {"ads"};
  rec.metadata.origin = "first-party";
  rec.metadata.shared_with = {"partner-a", "partner-b"};
  rec.metadata.expiry_micros = 1723455678901234;
  rec.metadata.created_micros = 1713455678901234;
  return rec;
}

void ExpectSameRecord(const GdprRecord& a, const GdprRecord& b) {
  EXPECT_EQ(a.key, b.key);
  EXPECT_EQ(a.data, b.data);
  EXPECT_EQ(a.metadata.user, b.metadata.user);
  EXPECT_EQ(a.metadata.purposes, b.metadata.purposes);
  EXPECT_EQ(a.metadata.objections, b.metadata.objections);
  EXPECT_EQ(a.metadata.origin, b.metadata.origin);
  EXPECT_EQ(a.metadata.shared_with, b.metadata.shared_with);
  EXPECT_EQ(a.metadata.expiry_micros, b.metadata.expiry_micros);
  EXPECT_EQ(a.metadata.created_micros, b.metadata.created_micros);
}

// Every request op with its full argument surface, for reuse by the
// truncation and fuzz tests below.
std::vector<WireRequest> AllRequests() {
  std::vector<WireRequest> reqs;
  const Actor actors[] = {Actor::Controller(), Actor::Customer("user-000001"),
                          Actor::Processor("proc-7", "analytics"),
                          Actor::Regulator()};
  size_t a = 0;
  const auto with = [&](WireOp op) -> WireRequest& {
    WireRequest r;
    r.op = op;
    r.actor = actors[a++ % 4];
    reqs.push_back(std::move(r));
    return reqs.back();
  };
  with(WireOp::kPing);
  with(WireOp::kOpen);
  with(WireOp::kClose);
  with(WireOp::kCreateRecord).record = SampleRecord("key-create");
  with(WireOp::kReadData).key = "key-read";
  with(WireOp::kReadMeta).key = "key-meta";
  with(WireOp::kReadMetaUser).key = "user-000042";
  with(WireOp::kReadMetaPurpose).key = "ads";
  with(WireOp::kReadMetaSharing).key = "partner-a";
  with(WireOp::kReadRecordsUser).key = "user-000042";
  {
    WireRequest& r = with(WireOp::kUpdateMeta);
    r.key = "key-update";
    r.update.user = "user-000099";
    r.update.purposes = std::vector<std::string>{"billing"};
    r.update.objections = std::vector<std::string>{};
    r.update.shared_with = std::vector<std::string>{"partner-c"};
    r.update.origin = "third-party";
    r.update.expiry_micros = 42;
  }
  {
    WireRequest& r = with(WireOp::kUpdateData);
    r.key = "key-data";
    r.data = std::string("new\0data", 8);
  }
  with(WireOp::kDeleteKey).key = "key-del";
  with(WireOp::kDeleteUser).key = "user-000042";
  with(WireOp::kDeleteExpired);
  with(WireOp::kVerifyDeletion).key = "key-verify";
  {
    WireRequest& r = with(WireOp::kGetLogs);
    r.from_micros = -5;
    r.to_micros = 9999999999999;
  }
  with(WireOp::kGetFeatures);
  with(WireOp::kScanRecords);
  with(WireOp::kRecordCount);
  with(WireOp::kTotalBytes);
  ++a;  // retired tag 32's actor: the rows below keep their pinned bytes
  with(WireOp::kHealth);
  with(WireOp::kStatsSnapshot);
  with(WireOp::kCompactNow);
  with(WireOp::kCompactionStats);
  {
    WireRequest& r = with(WireOp::kExportSlot);
    r.slot = 1023;
    r.num_slots = 1024;
  }
  {
    WireRequest& r = with(WireOp::kImportSlot);
    r.contents.records = {SampleRecord("key-import"), SampleRecord("k2")};
    r.contents.tombstones = {"key-tomb", std::string("k\x00\x03", 3)};
  }
  with(WireOp::kEvictRecords).keys = {"key-evict", "key-clear"};
  // Pinned with this actor before the rows above changed.
  with(WireOp::kVerifyAuditChain).actor = Actor::Controller();
  return reqs;
}

TEST(WireRequests, EveryOpRoundTrips) {
  for (const WireRequest& req : AllRequests()) {
    const std::string payload = EncodeRequest(req);
    WireRequest back;
    ASSERT_TRUE(DecodeRequest(payload, &back).ok())
        << WireOpName(req.op);
    EXPECT_EQ(back.op, req.op) << WireOpName(req.op);
    EXPECT_EQ(back.actor.role, req.actor.role);
    EXPECT_EQ(back.actor.id, req.actor.id);
    EXPECT_EQ(back.actor.purpose, req.actor.purpose);
    EXPECT_EQ(back.key, req.key);
    EXPECT_EQ(back.data, req.data);
    EXPECT_EQ(back.from_micros, req.from_micros);
    EXPECT_EQ(back.to_micros, req.to_micros);
    EXPECT_EQ(back.slot, req.slot);
    EXPECT_EQ(back.num_slots, req.num_slots);
    EXPECT_EQ(back.keys, req.keys);
    if (req.op == WireOp::kCreateRecord) {
      ExpectSameRecord(back.record, req.record);
    }
    ASSERT_EQ(back.contents.records.size(), req.contents.records.size());
    for (size_t i = 0; i < req.contents.records.size(); ++i) {
      ExpectSameRecord(back.contents.records[i], req.contents.records[i]);
    }
    EXPECT_EQ(back.contents.tombstones, req.contents.tombstones);
    if (req.op == WireOp::kUpdateMeta) {
      EXPECT_EQ(back.update.user, req.update.user);
      EXPECT_EQ(back.update.purposes, req.update.purposes);
      EXPECT_EQ(back.update.objections, req.update.objections);
      EXPECT_EQ(back.update.shared_with, req.update.shared_with);
      EXPECT_EQ(back.update.origin, req.update.origin);
      EXPECT_EQ(back.update.expiry_micros, req.update.expiry_micros);
    }
  }
}

TEST(WireRequests, PartialMetadataUpdateKeepsAbsentFieldsAbsent) {
  WireRequest req;
  req.op = WireOp::kUpdateMeta;
  req.actor = Actor::Controller();
  req.key = "k";
  req.update.objections = std::vector<std::string>{"ads"};
  WireRequest back;
  ASSERT_TRUE(DecodeRequest(EncodeRequest(req), &back).ok());
  EXPECT_FALSE(back.update.user.has_value());
  EXPECT_FALSE(back.update.purposes.has_value());
  ASSERT_TRUE(back.update.objections.has_value());
  EXPECT_EQ(*back.update.objections, std::vector<std::string>{"ads"});
  EXPECT_FALSE(back.update.shared_with.has_value());
  EXPECT_FALSE(back.update.origin.has_value());
  EXPECT_FALSE(back.update.expiry_micros.has_value());
}

// Every Status code — and its message — survives the seam. The router's
// merge logic branches on Unavailable and DataLoss specifically.
TEST(WireResponses, StatusRoundTripsLosslessly) {
  const Status statuses[] = {
      Status::OK(),
      Status::NotFound("no such key: abc"),
      Status::AlreadyExists("key exists"),
      Status::InvalidArgument("bad request"),
      Status::PermissionDenied("customer may not read another subject"),
      Status::FailedPrecondition("store not open"),
      Status::IOError("fsync failed: EIO"),
      Status::DataLoss("aof frame 17 corrupt"),
      Status::Unimplemented("not here"),
      Status::Internal("bug"),
      Status::Unavailable("degraded read-only: audit log lost"),
  };
  for (const Status& s : statuses) {
    WireResponse resp;
    resp.op = WireOp::kReadData;
    resp.status = s;
    if (s.ok()) resp.record = SampleRecord("k");
    WireResponse back;
    ASSERT_TRUE(DecodeResponse(EncodeResponse(resp), &back).ok());
    EXPECT_EQ(back.status.code(), s.code());
    EXPECT_EQ(back.status.message(), s.message());
  }
}

TEST(WireResponses, ResultPayloadsRoundTrip) {
  {  // record vectors (scan / metadata queries / exports)
    WireResponse resp;
    resp.op = WireOp::kScanRecords;
    resp.status = Status::DataLoss("2 records unreadable");  // partial scan
    resp.records = {SampleRecord("a"), SampleRecord("b"), SampleRecord("c")};
    WireResponse back;
    ASSERT_TRUE(DecodeResponse(EncodeResponse(resp), &back).ok());
    EXPECT_TRUE(back.status.IsDataLoss());
    ASSERT_EQ(back.records.size(), 3u);
    for (size_t i = 0; i < 3; ++i) {
      ExpectSameRecord(back.records[i], resp.records[i]);
    }
  }
  {  // metadata
    WireResponse resp;
    resp.op = WireOp::kReadMeta;
    resp.metadata = SampleRecord("x").metadata;
    WireResponse back;
    ASSERT_TRUE(DecodeResponse(EncodeResponse(resp), &back).ok());
    EXPECT_EQ(back.metadata.user, resp.metadata.user);
    EXPECT_EQ(back.metadata.purposes, resp.metadata.purposes);
    EXPECT_EQ(back.metadata.shared_with, resp.metadata.shared_with);
    EXPECT_EQ(back.metadata.expiry_micros, resp.metadata.expiry_micros);
  }
  {  // slot contents
    WireResponse resp;
    resp.op = WireOp::kExportSlot;
    resp.contents.records = {SampleRecord("a")};
    resp.contents.tombstones = {"k1", "k2", std::string("k\x00\x03", 4)};
    WireResponse back;
    ASSERT_TRUE(DecodeResponse(EncodeResponse(resp), &back).ok());
    ASSERT_EQ(back.contents.records.size(), 1u);
    ExpectSameRecord(back.contents.records[0], resp.contents.records[0]);
    EXPECT_EQ(back.contents.tombstones, resp.contents.tombstones);
  }
  {  // audit entries
    WireResponse resp;
    resp.op = WireOp::kGetLogs;
    AuditEntry e;
    e.timestamp_micros = 123456789;
    e.actor_id = "controller";
    e.role = Actor::Role::kRegulator;
    e.op = "READ-DATA";
    e.key = "k";
    e.allowed = true;
    resp.entries = {e, e};
    resp.entries[1].allowed = false;
    WireResponse back;
    ASSERT_TRUE(DecodeResponse(EncodeResponse(resp), &back).ok());
    ASSERT_EQ(back.entries.size(), 2u);
    EXPECT_EQ(back.entries[0].timestamp_micros, e.timestamp_micros);
    EXPECT_EQ(back.entries[0].actor_id, e.actor_id);
    EXPECT_EQ(back.entries[0].role, e.role);
    EXPECT_EQ(back.entries[0].op, e.op);
    EXPECT_EQ(back.entries[0].key, e.key);
    EXPECT_TRUE(back.entries[0].allowed);
    EXPECT_FALSE(back.entries[1].allowed);
  }
  {  // counts, flags, health, head hash
    WireResponse resp;
    resp.op = WireOp::kVerifyAuditChain;
    resp.flag = true;
    resp.head_hash = std::string("\x01\x02\x03\xff", 4);
    WireResponse back;
    ASSERT_TRUE(DecodeResponse(EncodeResponse(resp), &back).ok());
    EXPECT_TRUE(back.flag);
    EXPECT_EQ(back.head_hash, resp.head_hash);

    WireResponse h;
    h.op = WireOp::kHealth;
    h.health.state = HealthState::kDegradedReadOnly;
    h.health.cause = Status::IOError("audit fsync failed");
    WireResponse hback;
    ASSERT_TRUE(DecodeResponse(EncodeResponse(h), &hback).ok());
    EXPECT_EQ(hback.health.state, HealthState::kDegradedReadOnly);
    EXPECT_EQ(hback.health.cause.code(), StatusCode::kIOError);

    WireResponse c;
    c.op = WireOp::kRecordCount;
    c.count = 0xFFFFFFFFFFFFull;
    WireResponse cback;
    ASSERT_TRUE(DecodeResponse(EncodeResponse(c), &cback).ok());
    EXPECT_EQ(cback.count, c.count);
  }
  {  // compaction stats
    WireResponse resp;
    resp.op = WireOp::kCompactNow;
    resp.stats.compactions = 3;
    resp.stats.log_bytes = 4096;
    resp.stats.live_bytes = 2048;
    resp.stats.last_bytes_before = 8192;
    resp.stats.last_bytes_after = 4096;
    resp.stats.last_compaction_micros = 1700000000000000;
    resp.stats.erasure_barrier = 777;
    resp.stats.erasures_pending_compaction = 2;
    resp.stats.audit_segments = 5;
    resp.stats.audit_dropped_entries = 11;
    WireResponse back;
    ASSERT_TRUE(DecodeResponse(EncodeResponse(resp), &back).ok());
    EXPECT_EQ(back.stats.compactions, resp.stats.compactions);
    EXPECT_EQ(back.stats.log_bytes, resp.stats.log_bytes);
    EXPECT_EQ(back.stats.live_bytes, resp.stats.live_bytes);
    EXPECT_EQ(back.stats.last_bytes_before, resp.stats.last_bytes_before);
    EXPECT_EQ(back.stats.last_bytes_after, resp.stats.last_bytes_after);
    EXPECT_EQ(back.stats.last_compaction_micros,
              resp.stats.last_compaction_micros);
    EXPECT_EQ(back.stats.erasure_barrier, resp.stats.erasure_barrier);
    EXPECT_EQ(back.stats.erasures_pending_compaction,
              resp.stats.erasures_pending_compaction);
    EXPECT_EQ(back.stats.audit_segments, resp.stats.audit_segments);
    EXPECT_EQ(back.stats.audit_dropped_entries,
              resp.stats.audit_dropped_entries);
  }
  {  // metrics snapshot
    WireResponse resp;
    resp.op = WireOp::kStatsSnapshot;
    obs::MetricsRegistry reg;
    reg.GetCounter("ops_total")->Add(7);
    reg.GetGauge("health")->Set(-2);
    obs::Histogram* h = reg.GetHistogram("lat_us");
    h->Record(3);
    h->Record(70000);
    resp.snapshot = reg.Snapshot();
    WireResponse back;
    ASSERT_TRUE(DecodeResponse(EncodeResponse(resp), &back).ok());
    ASSERT_EQ(back.snapshot.counters.size(), 1u);
    EXPECT_EQ(back.snapshot.counters[0].first, "ops_total");
    EXPECT_EQ(back.snapshot.counters[0].second, 7u);
    ASSERT_EQ(back.snapshot.gauges.size(), 1u);
    EXPECT_EQ(back.snapshot.gauges[0].second, -2);
    ASSERT_EQ(back.snapshot.histograms.size(), 1u);
    EXPECT_EQ(back.snapshot.histograms[0].count, 2u);
    EXPECT_EQ(back.snapshot.histograms[0].sum, 70003u);
    EXPECT_EQ(back.snapshot.histograms[0].counts,
              resp.snapshot.histograms[0].counts);
  }
}

// ---- golden bytes ---------------------------------------------------------
// The exact payload of every request in AllRequests() and of one populated
// response per response body layout. The round trips above would still pass
// if the encoder and the decoder drifted together; these literals pin the
// format itself. A change to the bytes of an existing tag is a wire-format
// change and needs a kWireVersion bump; a new tag only adds rows, since a
// peer that lacks it refuses it as unknown.

std::string Hex(std::string_view bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    out.push_back(kDigits[uint8_t(c) >> 4]);
    out.push_back(kDigits[uint8_t(c) & 0xf]);
  }
  return out;
}

// One response per body layout, every field of the layout set.
std::vector<WireResponse> GoldenResponses() {
  std::vector<WireResponse> resps;
  const auto with = [&](WireOp op) -> WireResponse& {
    WireResponse r;
    r.op = op;
    resps.push_back(std::move(r));
    return resps.back();
  };
  // No body; a refusal carries its code and message.
  with(WireOp::kCreateRecord).status = Status::AlreadyExists("key exists: k");
  with(WireOp::kReadData).record = SampleRecord("key-read");
  with(WireOp::kReadMeta).metadata = SampleRecord("key-meta").metadata;
  {
    WireResponse& r = with(WireOp::kScanRecords);
    r.status = Status::DataLoss("1 record unreadable");
    r.records = {SampleRecord("a"), SampleRecord("b")};
  }
  with(WireOp::kDeleteUser).count = 300;
  with(WireOp::kVerifyDeletion).flag = true;
  {
    WireResponse& r = with(WireOp::kGetLogs);
    AuditEntry e;
    e.timestamp_micros = 123456789;
    e.actor_id = "controller";
    e.role = Actor::Role::kRegulator;
    e.op = "READ-DATA";
    e.key = "k";
    e.allowed = true;
    r.entries = {e, e};
    r.entries[1].role = Actor::Role::kCustomer;
    r.entries[1].allowed = false;
  }
  {
    WireResponse& r = with(WireOp::kGetFeatures);
    r.features.backend = "memkv";
    r.features.rows = {{"G 17", "erase on request", "tombstone", true},
                       {"G 32", "encrypt at rest", "aead", false}};
  }
  {
    WireResponse& r = with(WireOp::kHealth);
    r.health.state = HealthState::kDegradedReadOnly;
    r.health.cause = Status::IOError("audit fsync failed");
  }
  {
    WireResponse& r = with(WireOp::kCompactionStats);
    r.stats.compactions = 3;
    r.stats.log_bytes = 4096;
    r.stats.live_bytes = 2048;
    r.stats.last_bytes_before = 8192;
    r.stats.last_bytes_after = 4096;
    r.stats.last_compaction_micros = 1700000000000000;
    r.stats.erasure_barrier = 777;
    r.stats.erasures_pending_compaction = 2;
    r.stats.audit_segments = 5;
    r.stats.audit_dropped_entries = 11;
  }
  {
    WireResponse& r = with(WireOp::kStatsSnapshot);
    r.snapshot.counters = {{"ops_total", 7}};
    r.snapshot.gauges = {{"health", -2}};
    obs::HistogramSnapshot h;
    h.name = "lat_us";
    h.counts[0] = 1;
    h.counts[17] = 200;
    h.sum = 70003;
    r.snapshot.histograms = {h};
  }
  {
    WireResponse& r = with(WireOp::kExportSlot);
    r.contents.records = {SampleRecord("a")};
    r.contents.tombstones = {"k1", std::string("k\x00\x03", 3)};
  }
  {
    WireResponse& r = with(WireOp::kVerifyAuditChain);
    r.flag = true;
    r.head_hash = std::string("\x01\x02\x03\xff", 4);
  }
  return resps;
}

const char* const kGoldenRequests[] = {
    "0101000a636f6e74726f6c6c657200",
    "0102010b757365722d30303030303100",
    "0103020670726f632d3709616e616c7974696373",
    "010a0309726567756c61746f72007f47010a6b65792d63726561746520706179"
    "6c6f61642d6279746573200102ff20666f72206b65792d6372656174650b7573"
    "65722d3030303034320b66697273742d7061727479020361647309616e616c79"
    "7469637301036164730209706172746e65722d6109706172746e65722d62f2eb"
    "864b791f0600f24b14fd60160600",
    "010b000a636f6e74726f6c6c657200086b65792d72656164",
    "010c010b757365722d30303030303100086b65792d6d657461",
    "010d020670726f632d3709616e616c79746963730b757365722d303030303432",
    "010e0309726567756c61746f720003616473",
    "010f000a636f6e74726f6c6c65720009706172746e65722d61",
    "0110010b757365722d303030303031000b757365722d303030303432",
    "0111020670726f632d3709616e616c79746963730a6b65792d7570646174653f"
    "0b757365722d303030303939010762696c6c696e67000109706172746e65722d"
    "630b74686972642d70617274792a00000000000000",
    "01120309726567756c61746f7200086b65792d64617461086e65770064617461",
    "0113000a636f6e74726f6c6c657200076b65792d64656c",
    "0114010b757365722d303030303031000b757365722d303030303432",
    "0115020670726f632d3709616e616c7974696373",
    "01160309726567756c61746f72000a6b65792d766572696679",
    "0117000a636f6e74726f6c6c657200fbffffffffffffffff9f724e18090000",
    "0118010b757365722d30303030303100",
    "0119020670726f632d3709616e616c7974696373",
    "011e0309726567756c61746f7200",
    "011f000a636f6e74726f6c6c657200",
    "0121020670726f632d3709616e616c7974696373",
    "01220309726567756c61746f7200",
    "0128000a636f6e74726f6c6c657200",
    "0129010b757365722d30303030303100",
    "0138020670726f632d3709616e616c7974696373ff078008",
    "01390309726567756c61746f7200027f47010a6b65792d696d706f7274207061"
    "796c6f61642d6279746573200102ff20666f72206b65792d696d706f72740b75"
    "7365722d3030303034320b66697273742d7061727479020361647309616e616c"
    "797469637301036164730209706172746e65722d6109706172746e65722d62f2"
    "eb864b791f0600f24b14fd601606006f4701026b32187061796c6f61642d6279"
    "746573200102ff20666f72206b320b757365722d3030303034320b6669727374"
    "2d7061727479020361647309616e616c79746963730103616473020970617274"
    "6e65722d6109706172746e65722d62f2eb864b791f0600f24b14fd6016060002"
    "086b65792d746f6d62036b0003",
    "013a000a636f6e74726f6c6c65720002096b65792d6576696374096b65792d63"
    "6c656172",
    "013c000a636f6e74726f6c6c657200",
};

const char* const kGoldenResponses[] = {
    "010a020d6b6579206578697374733a206b",
    "010b00007b4701086b65792d726561641e7061796c6f61642d62797465732001"
    "02ff20666f72206b65792d726561640b757365722d3030303034320b66697273"
    "742d7061727479020361647309616e616c797469637301036164730209706172"
    "746e65722d6109706172746e65722d62f2eb864b791f0600f24b14fd60160600",
    "010c000055470100000b757365722d3030303034320b66697273742d70617274"
    "79020361647309616e616c797469637301036164730209706172746e65722d61"
    "09706172746e65722d62f2eb864b791f0600f24b14fd60160600",
    "0119071331207265636f726420756e7265616461626c65026d47010161177061"
    "796c6f61642d6279746573200102ff20666f7220610b757365722d3030303034"
    "320b66697273742d7061727479020361647309616e616c797469637301036164"
    "730209706172746e65722d6109706172746e65722d62f2eb864b791f0600f24b"
    "14fd601606006d47010162177061796c6f61642d6279746573200102ff20666f"
    "7220620b757365722d3030303034320b66697273742d70617274790203616473"
    "09616e616c797469637301036164730209706172746e65722d6109706172746e"
    "65722d62f2eb864b791f0600f24b14fd60160600",
    "01140000ac02",
    "0116000001",
    "011700000215cd5b07000000000a636f6e74726f6c6c65720309524541442d44"
    "415441016b0115cd5b07000000000a636f6e74726f6c6c65720109524541442d"
    "44415441016b00",
    "01180000056d656d6b76020447203137106572617365206f6e20726571756573"
    "7409746f6d6273746f6e650104472033320f656e637279707420617420726573"
    "74046165616400",
    "012100000106126175646974206673796e63206661696c6564",
    "0129000003000000000000000010000000000000000800000000000000200000"
    "00000000001000000000000000401e18240a0600090300000000000002000000"
    "0000000005000000000000000b00000000000000",
    "0122000001096f70735f746f74616c070000000000000001066865616c7468fe"
    "ffffffffffffff01066c61745f75730100000000000000000000000000000000"
    "c801000000000000000000000000000000000000000000000000000000000000"
    "000000000000000000000000000000007311010000000000",
    "01380000016d47010161177061796c6f61642d6279746573200102ff20666f72"
    "20610b757365722d3030303034320b66697273742d7061727479020361647309"
    "616e616c797469637301036164730209706172746e65722d6109706172746e65"
    "722d62f2eb864b791f0600f24b14fd6016060002026b31036b0003",
    "013c00000104010203ff",
};

TEST(WireGolden, EveryRequestEncodesToItsPinnedBytes) {
  const std::vector<WireRequest> reqs = AllRequests();
  ASSERT_EQ(reqs.size(), std::size(kGoldenRequests));
  for (size_t i = 0; i < reqs.size(); ++i) {
    EXPECT_EQ(Hex(EncodeRequest(reqs[i])), kGoldenRequests[i])
        << WireOpName(reqs[i].op);
  }
}

TEST(WireGolden, EveryResponseLayoutEncodesToItsPinnedBytes) {
  const std::vector<WireResponse> resps = GoldenResponses();
  ASSERT_EQ(resps.size(), std::size(kGoldenResponses));
  for (size_t i = 0; i < resps.size(); ++i) {
    EXPECT_EQ(Hex(EncodeResponse(resps[i])), kGoldenResponses[i])
        << WireOpName(resps[i].op);
  }
}

TEST(WireOps, ExactlyTheDefinedTagsAreValidEachWithADistinctName) {
  std::set<WireOp> defined;
  for (const WireRequest& req : AllRequests()) defined.insert(req.op);
  ASSERT_EQ(defined.size(), 29u);
  std::set<std::string> names;
  for (int tag = 0; tag < 256; ++tag) {
    const bool valid = ValidWireOp(uint8_t(tag));
    EXPECT_EQ(valid, defined.count(WireOp(tag)) == 1) << "tag " << tag;
    if (valid) {
      EXPECT_TRUE(names.insert(WireOpName(WireOp(tag))).second)
          << "duplicate name " << WireOpName(WireOp(tag));
    }
  }
  EXPECT_EQ(names.size(), 29u);
}

// ---- framing --------------------------------------------------------------

std::string Frame(std::string_view payload) {
  return FrameHeader(payload.size()).append(payload);
}

// Writes raw bytes to fd, as a peer that frames by hand would.
void WriteRaw(int fd, std::string_view bytes) {
  while (!bytes.empty()) {
    const ssize_t n = write(fd, bytes.data(), bytes.size());
    ASSERT_GT(n, 0);
    bytes.remove_prefix(size_t(n));
  }
}

// Bytes queued on fd and not yet read.
size_t Queued(int fd) {
  char buf[4096];
  const ssize_t n = recv(fd, buf, sizeof(buf), MSG_PEEK | MSG_DONTWAIT);
  return n > 0 ? size_t(n) : 0;
}

// A connected pair whose ends give up after 5 s, so a broken read or
// write fails the test instead of hanging it.
std::pair<int, int> ReaderWriterPair() {
  auto [reader, writer] = StreamPair();
  EXPECT_GE(reader, 0);
  EXPECT_TRUE(SetDeadline(reader, 5000, 5000));
  EXPECT_TRUE(SetDeadline(writer, 5000, 5000));
  return {reader, writer};
}

TEST(ReadFrameTest, ReassemblesFramesWrittenByteByByte) {
  const std::string p1 = EncodeRequest(AllRequests()[3]);  // kCreateRecord
  const std::string p2 = "x";
  const std::string stream = Frame(p1) + Frame(p2) + Frame("");
  auto [reader, writer] = ReaderWriterPair();
  std::thread feed([&, writer = writer] {
    for (const char c : stream) WriteRaw(writer, std::string_view(&c, 1));
  });
  std::vector<std::string> out(3);
  for (std::string& payload : out) {
    EXPECT_TRUE(ReadFrame(reader, &payload).ok());
  }
  feed.join();
  EXPECT_EQ(out[0], p1);
  EXPECT_EQ(out[1], p2);
  EXPECT_EQ(out[2], "");
  EXPECT_EQ(Queued(reader), 0u);
  CloseFd(reader);
  CloseFd(writer);
}

TEST(ReadFrameTest, BackToBackFramesSplitAtEveryOffset) {
  // Three frames in one stream, written in two pieces cut at every offset:
  // a piece can end mid-header, mid-payload, or hold the tail of one frame
  // and the head of the next. Each read takes exactly one frame, so the
  // head of the next one is still queued after it. The payload string is
  // reused across reads, as a caller may, so a frame must never keep
  // bytes of an earlier one.
  const std::string p1 = EncodeRequest(AllRequests()[3]);  // kCreateRecord
  const std::string p2 = std::string(300, 'y');
  const std::string p3 = "z";
  const std::vector<std::string> frames = {Frame(p1), Frame(p2), Frame(p3)};
  const std::string stream = frames[0] + frames[1] + frames[2];
  for (size_t cut = 0; cut <= stream.size(); ++cut) {
    auto [reader, writer] = ReaderWriterPair();
    std::vector<std::string> out;
    std::string payload = "stale";
    size_t written = 0;
    size_t end = 0;  // where the frames read so far end in the stream
    for (const size_t upto : {cut, stream.size()}) {
      WriteRaw(writer,
               std::string_view(stream).substr(written, upto - written));
      written = upto;
      while (out.size() < frames.size() &&
             end + frames[out.size()].size() <= written) {
        ASSERT_TRUE(ReadFrame(reader, &payload).ok()) << "cut at " << cut;
        end += frames[out.size()].size();
        out.push_back(payload);
        EXPECT_EQ(Queued(reader), written - end) << "cut at " << cut;
      }
    }
    ASSERT_EQ(out.size(), 3u) << "cut at " << cut;
    EXPECT_EQ(out[0], p1) << "cut at " << cut;
    EXPECT_EQ(out[1], p2) << "cut at " << cut;
    EXPECT_EQ(out[2], p3) << "cut at " << cut;
    CloseFd(reader);
    CloseFd(writer);
  }
}

TEST(ReadFrameTest, OversizedLengthPrefixIsDataLossWithNothingSized) {
  // 0xFFFFFFFF little-endian: far over kMaxFrameBytes. The read must
  // refuse before sizing anything (allocating it would be a bomb); no
  // later frame boundary can be trusted, so the caller drops the
  // connection.
  auto [reader, writer] = ReaderWriterPair();
  WriteRaw(writer, std::string(4, '\xff') + Frame("hello"));
  std::string payload;
  EXPECT_TRUE(ReadFrame(reader, &payload).IsDataLoss());
  EXPECT_TRUE(payload.empty());
  EXPECT_LT(payload.capacity(), 64u);
  CloseFd(reader);
  CloseFd(writer);
}

TEST(ReadFrameTest, LargeFrameGrowsAsItArrivesAndReadsWhole) {
  // Several MiB: the payload grows over several steps while a writer
  // thread feeds the socket, and the frame behind it stays queued.
  std::string big(size_t(3) << 20, '\0');
  for (size_t i = 0; i < big.size(); ++i) big[i] = char(i * 131 + i / 7);
  big += "tail";
  auto [reader, writer] = ReaderWriterPair();
  std::thread feed([&, writer = writer] {
    WriteRaw(writer, Frame(big) + Frame("next"));
  });
  std::string payload;
  EXPECT_TRUE(ReadFrame(reader, &payload).ok());
  EXPECT_TRUE(payload == big) << "payload of " << payload.size() << " bytes";
  EXPECT_TRUE(ReadFrame(reader, &payload).ok());
  EXPECT_EQ(payload, "next");
  feed.join();
  CloseFd(reader);
  CloseFd(writer);
}

TEST(ReadFrameTest, StalledMaxLengthFrameHoldsOnlyWhatArrived) {
  // A valid prefix claiming kMaxFrameBytes, then 100 KiB of body, then
  // EOF. The payload is sized as bytes arrive, so a peer that sends a
  // header and stalls cannot make the reader hold the claimed length.
  auto [reader, writer] = ReaderWriterPair();
  std::thread feed([&, writer = writer] {
    WriteRaw(writer, FrameHeader(kMaxFrameBytes));
    WriteRaw(writer, std::string(100 << 10, 'b'));
    CloseFd(writer);
  });
  std::string payload;
  const Status s = ReadFrame(reader, &payload);
  feed.join();
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_LT(payload.capacity(), size_t(1) << 20);
  CloseFd(reader);
}

TEST(ReadFrameTest, TruncatedFrameWaitsThenCompletes) {
  const std::string p = EncodeRequest(AllRequests()[0]);
  const std::string framed = Frame(p);
  auto [reader, writer] = ReaderWriterPair();
  WriteRaw(writer, std::string_view(framed).substr(0, framed.size() - 1));
  // Incomplete is not corrupt: the read waits for the last byte, which
  // the writer sends only after a pause.
  std::atomic<bool> sent_last{false};
  std::thread finish([&, writer = writer] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    sent_last = true;
    WriteRaw(writer, std::string_view(framed).substr(framed.size() - 1));
  });
  std::string payload;
  EXPECT_TRUE(ReadFrame(reader, &payload).ok());
  EXPECT_TRUE(sent_last);
  finish.join();
  EXPECT_EQ(payload, p);
  CloseFd(reader);
  CloseFd(writer);
}

TEST(ReadFrameTest, TruncatedFrameThenEofIsUnavailable) {
  const std::string framed = Frame(EncodeRequest(AllRequests()[0]));
  auto [reader, writer] = ReaderWriterPair();
  WriteRaw(writer, std::string_view(framed).substr(0, framed.size() - 1));
  CloseFd(writer);
  std::string payload;
  const Status s = ReadFrame(reader, &payload);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  CloseFd(reader);
}

TEST(WriteFrameTest, OversizedPayloadIsRefusedBeforeAnyByteIsSent) {
  auto [reader, writer] = ReaderWriterPair();
  const std::string big(size_t(kMaxFrameBytes) + 1, 'b');
  const Status s = WriteFrame(writer, big);
  EXPECT_TRUE(s.IsUnavailable()) << s.ToString();
  EXPECT_NE(s.message().find(std::to_string(big.size())), std::string::npos)
      << s.ToString();
  EXPECT_NE(s.message().find(std::to_string(kMaxFrameBytes)),
            std::string::npos)
      << s.ToString();
  EXPECT_EQ(Queued(reader), 0u);
  CloseFd(reader);
  CloseFd(writer);
}

// ---- malformed payloads ---------------------------------------------------

TEST(WireMalformed, UnknownOpTagIsInvalidArgument) {
  std::string payload;
  payload.push_back(char(kWireVersion));
  payload.push_back(char(200));  // no such op
  WireRequest req;
  EXPECT_TRUE(DecodeRequest(payload, &req).code() == StatusCode::kInvalidArgument);
  WireResponse resp;
  EXPECT_TRUE(DecodeResponse(payload, &resp).code() == StatusCode::kInvalidArgument);
}

TEST(WireMalformed, RetiredMigrationTagsAreRefusedNotMisparsed) {
  // Tags 50-55 carried the per-record migration ops, and tag 32 the bench
  // reload's RESET. A peer still sending one (here IMPORT-RECORD's old
  // layout) gets an unknown-op refusal.
  WireRequest create = AllRequests()[3];  // kCreateRecord: same body shape
  for (uint8_t tag : {32, 50, 51, 52, 53, 54, 55}) {
    std::string payload = EncodeRequest(create);
    payload[1] = char(tag);
    WireRequest req;
    EXPECT_EQ(DecodeRequest(payload, &req).code(),
              StatusCode::kInvalidArgument)
        << "tag " << int(tag);
    WireResponse resp;
    EXPECT_EQ(DecodeResponse(payload, &resp).code(),
              StatusCode::kInvalidArgument)
        << "tag " << int(tag);
  }
}

TEST(WireMalformed, UnsupportedVersionIsRefusedNotMisparsed) {
  std::string payload = EncodeRequest(AllRequests()[3]);
  payload[0] = char(kWireVersion + 1);
  WireRequest req;
  EXPECT_TRUE(DecodeRequest(payload, &req).code() == StatusCode::kInvalidArgument);
}

TEST(WireMalformed, EveryTruncationDecodesCleanly) {
  // Chop every valid payload at every length. Within its own schema a
  // strict prefix must decode to a clean error — a request missing its
  // last byte is never a shorter valid request. The opposite-schema
  // decoder just has to return without crashing or over-reading: requests
  // and responses share no discriminator, so response bytes occasionally
  // parse as a (different) valid request, and that is fine.
  std::vector<std::string> request_payloads;
  for (const WireRequest& req : AllRequests()) {
    request_payloads.push_back(EncodeRequest(req));
  }
  std::vector<std::string> response_payloads;
  {
    WireResponse resp;
    resp.op = WireOp::kScanRecords;
    resp.records = {SampleRecord("a"), SampleRecord("b")};
    response_payloads.push_back(EncodeResponse(resp));
    WireResponse logs;
    logs.op = WireOp::kGetLogs;
    AuditEntry e;
    e.actor_id = "x";
    e.op = "OP";
    logs.entries = {e};
    response_payloads.push_back(EncodeResponse(logs));
  }
  for (const std::string& payload : request_payloads) {
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      const std::string_view prefix(payload.data(), cut);
      WireRequest req;
      EXPECT_FALSE(DecodeRequest(prefix, &req).ok())
          << "request prefix of length " << cut << "/" << payload.size()
          << " decoded as op " << static_cast<int>(req.op);
      WireResponse resp;
      (void)DecodeResponse(prefix, &resp);  // must return, any verdict
    }
  }
  for (const std::string& payload : response_payloads) {
    for (size_t cut = 0; cut < payload.size(); ++cut) {
      const std::string_view prefix(payload.data(), cut);
      WireResponse resp;
      EXPECT_FALSE(DecodeResponse(prefix, &resp).ok())
          << "response prefix of length " << cut << "/" << payload.size()
          << " decoded OK";
      WireRequest req;
      (void)DecodeRequest(prefix, &req);  // must return, any verdict
    }
  }
}

// A node's answer carries record images, not records: the frame is byte
// for byte the one its records would encode to, a strict prefix of it never
// decodes, and records and images mix under one count.
TEST(WireResponses, RecordImagesEncodeAsTheirRecords) {
  WireResponse from_records;
  from_records.op = WireOp::kReadMetaPurpose;
  from_records.status = Status::DataLoss("1 record unreadable");
  from_records.records = {SampleRecord("a"), SampleRecord("b"),
                          SampleRecord("c")};
  from_records.records[1].data = std::string(200, 'x');  // 2-byte varint
  WireResponse from_images;
  from_images.op = from_records.op;
  from_images.status = from_records.status;
  for (const GdprRecord& rec : from_records.records) {
    PutLengthPrefixed(&from_images.images.bytes, rec.Serialize());
    ++from_images.images.count;
  }
  const std::string payload = EncodeResponse(from_images);
  EXPECT_EQ(payload, EncodeResponse(from_records));
  WireResponse back;
  ASSERT_TRUE(DecodeResponse(payload, &back).ok());
  ASSERT_EQ(back.records.size(), 3u);
  for (size_t i = 0; i < 3; ++i) {
    ExpectSameRecord(back.records[i], from_records.records[i]);
  }
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    WireResponse resp;
    EXPECT_FALSE(DecodeResponse(payload.substr(0, cut), &resp).ok()) << cut;
  }
  WireResponse mixed = from_images;
  mixed.records = {SampleRecord("z")};
  ASSERT_TRUE(DecodeResponse(EncodeResponse(mixed), &back).ok());
  ASSERT_EQ(back.records.size(), 4u);
  ExpectSameRecord(back.records[0], mixed.records[0]);
  ExpectSameRecord(back.records[3], from_records.records[2]);
}

TEST(WireMalformed, TrailingBytesAreRejected) {
  for (const WireRequest& req : AllRequests()) {
    std::string payload = EncodeRequest(req);
    payload.push_back('\0');
    WireRequest back;
    EXPECT_FALSE(DecodeRequest(payload, &back).ok()) << WireOpName(req.op);
  }
}

TEST(WireMalformed, ByteFlipFuzzNeverCrashes) {
  // Seeded, deterministic: flip 1-3 bytes of a valid payload and decode.
  // The decoder may accept (the flip hit a don't-care byte) or reject, but
  // must always return — no crash, no hang, no over-read under asan.
  Random rng(20260808);
  const std::vector<WireRequest> reqs = AllRequests();
  std::vector<std::string> payloads;
  for (const WireRequest& req : reqs) payloads.push_back(EncodeRequest(req));
  {
    WireResponse resp;
    resp.op = WireOp::kScanRecords;
    resp.status = Status::Unavailable("degraded");
    resp.records = {SampleRecord("fuzz-a"), SampleRecord("fuzz-b")};
    payloads.push_back(EncodeResponse(resp));
  }
  for (int iter = 0; iter < 4000; ++iter) {
    std::string p = payloads[rng.Uniform(payloads.size())];
    const size_t flips = 1 + rng.Uniform(3);
    for (size_t f = 0; f < flips && !p.empty(); ++f) {
      p[rng.Uniform(p.size())] ^= char(1 + rng.Uniform(255));
    }
    WireRequest req;
    (void)DecodeRequest(p, &req);
    WireResponse resp;
    (void)DecodeResponse(p, &resp);
  }
  // Pure garbage too.
  for (int iter = 0; iter < 2000; ++iter) {
    std::string p;
    const size_t n = rng.Uniform(64);
    for (size_t i = 0; i < n; ++i) p.push_back(char(rng.Uniform(256)));
    WireRequest req;
    (void)DecodeRequest(p, &req);
    WireResponse resp;
    (void)DecodeResponse(p, &resp);
  }
}

// ---- slot hash ------------------------------------------------------------

TEST(SlotHash, DeterministicBoundedAndSpread) {
  EXPECT_EQ(SlotForKey("some-key", 1024), SlotForKey("some-key", 1024));
  std::vector<int> hits(16, 0);
  for (int i = 0; i < 4096; ++i) {
    const uint32_t s = SlotForKey("key-" + std::to_string(i), 16);
    ASSERT_LT(s, 16u);
    ++hits[s];
  }
  for (const int h : hits) EXPECT_GT(h, 0);  // no empty slot at 256x load
}

}  // namespace
}  // namespace gdpr::net
