#include "net/rpc_client.h"

#include <utility>

#include "common/clock.h"
#include "net/socket_io.h"

namespace gdpr::net {

namespace {

Status Unreachable(const std::string& label, const Status& cause) {
  std::string msg = "node unreachable";
  if (!label.empty()) msg += " (" + label + ")";
  if (!cause.message().empty()) msg += ": " + cause.message();
  return Status::Unavailable(std::move(msg));
}

// Gives an fd the handle did not dial (its constructor's, reconnect_fn's)
// the deadline Dial gives. -1, with fd closed, when the socket refuses it.
int WithDeadline(int fd, int timeout_ms) {
  if (fd < 0 || SetDeadline(fd, timeout_ms, timeout_ms)) return fd;
  CloseFd(fd);
  return -1;
}

// A request with the fields most ops carry; ops that need more set them on
// the result.
WireRequest Req(WireOp op, const Actor& actor = Actor(),
                const std::string& key = std::string()) {
  WireRequest req;
  req.op = op;
  req.actor = actor;
  req.key = key;
  return req;
}

}  // namespace

RemoteHandle::RemoteHandle(int fd, RemoteHandleOptions opts)
    : opts_(std::move(opts)) {
  if (opts_.metrics) {
    const std::string label = "{node=\"" + opts_.node_label + "\"}";
    rpc_us_ = opts_.metrics->GetHistogram("cluster_rpc_us" + label);
    connections_ = opts_.metrics->GetGauge("cluster_rpc_connections" + label);
    rpc_bytes_ = opts_.metrics->GetCounter("cluster_rpc_bytes_total");
    reconnects_ = opts_.metrics->GetCounter("cluster_rpc_reconnects_total");
  }
  fd = WithDeadline(fd, opts_.timeout_ms);
  if (fd >= 0) {
    idle_.push_back(fd);
    if (connections_) connections_->Add(1);
  }
}

RemoteHandle::~RemoteHandle() {
  std::lock_guard<std::mutex> lock(mu_);
  DropIdleLocked();
}

void RemoteHandle::CloseLocked(int fd) {
  CloseFd(fd);
  ++dropped_;
  if (connections_) connections_->Add(-1);
}

void RemoteHandle::DropIdleLocked() {
  for (const int fd : idle_) CloseLocked(fd);
  idle_.clear();
}

Status RemoteHandle::Acquire(int* fd, uint64_t* gen) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    *gen = generation_;
    if (!idle_.empty()) {
      *fd = idle_.back();
      idle_.pop_back();
      return Status::OK();
    }
  }
  // Dial unlocked: other callers keep taking and returning connections.
  std::string err = "no reconnect path configured";
  if (opts_.reconnect_fn) {
    *fd = WithDeadline(opts_.reconnect_fn(), opts_.timeout_ms);
    if (*fd < 0) err = "reconnect callback failed";
  } else if (!opts_.dial_addr.empty()) {
    *fd = Dial(opts_.dial_addr, opts_.timeout_ms, &err);
  }
  if (*fd < 0) {
    return Unreachable(opts_.node_label, Status::Unavailable(err));
  }
  if (connections_) connections_->Add(1);
  std::lock_guard<std::mutex> lock(mu_);
  if (dropped_ > 0) {
    --dropped_;
    if (reconnects_) reconnects_->Add(1);
  }
  return Status::OK();
}

void RemoteHandle::Return(int fd, uint64_t gen, bool healthy) {
  std::lock_guard<std::mutex> lock(mu_);
  if (healthy && gen == generation_) {
    idle_.push_back(fd);
    return;
  }
  CloseLocked(fd);
  if (!healthy) DropIdleLocked();
}

Status RemoteHandle::Call(const WireRequest& req, WireResponse* resp) {
  // RPC latency is wall time regardless of the store's (possibly
  // simulated) clock — and reading a real clock here keeps transport
  // metrics from perturbing deterministic simulated-time tests.
  obs::ScopedTimer timer(rpc_us_, RealClock::Default());
  const std::string request = EncodeRequest(req);
  // WriteFrame would refuse it before a byte left; refused here, no
  // connection is touched, so none is dropped.
  Status s = CheckFrameSize(request.size());
  if (!s.ok()) return s;
  int fd = -1;
  uint64_t gen = 0;
  s = Acquire(&fd, &gen);
  if (!s.ok()) return s;
  s = RoundTrip(fd, req.op, request, resp);
  // A failed round trip leaves the connection's byte position untrusted.
  Return(fd, gen, s.ok());
  return s;
}

Status RemoteHandle::RoundTrip(int fd, WireOp op, const std::string& request,
                               WireResponse* resp) {
  Status s = WriteFrame(fd, request);
  if (!s.ok()) return Unreachable(opts_.node_label, s);
  std::string payload;
  s = ReadFrame(fd, &payload);
  // Timeout, peer death, or an unframeable stream (DataLoss).
  if (!s.ok()) return s.IsDataLoss() ? s : Unreachable(opts_.node_label, s);
  if (rpc_bytes_) {
    rpc_bytes_->Add(kFrameHeaderBytes + request.size() + payload.size());
  }
  s = DecodeResponse(payload, resp);
  if (!s.ok()) return s;
  if (resp->op != op) {
    // A stray or reordered frame — one request in flight per connection
    // means the stream is corrupt, not merely slow.
    return Status::DataLoss("rpc response op mismatch: sent " +
                            std::string(WireOpName(op)) + ", got " +
                            WireOpName(resp->op));
  }
  return Status::OK();
}

Status RemoteHandle::Rpc(const WireRequest& req) {
  WireResponse resp;
  Status s = Call(req, &resp);
  return s.ok() ? resp.status : s;
}

// ---- vocabulary ------------------------------------------------------------

Status RemoteHandle::Open() { return Rpc(Req(WireOp::kOpen)); }

Status RemoteHandle::Close() { return Rpc(Req(WireOp::kClose)); }

Status RemoteHandle::CreateRecord(const Actor& actor,
                                  const GdprRecord& record) {
  WireRequest req = Req(WireOp::kCreateRecord, actor);
  req.record = record;
  return Rpc(req);
}

StatusOr<GdprRecord> RemoteHandle::ReadDataByKey(const Actor& actor,
                                                 const std::string& key) {
  return Rpc(Req(WireOp::kReadData, actor, key), &WireResponse::record);
}

StatusOr<GdprMetadata> RemoteHandle::ReadMetadataByKey(const Actor& actor,
                                                       const std::string& key) {
  return Rpc(Req(WireOp::kReadMeta, actor, key), &WireResponse::metadata);
}

Status RemoteHandle::ReadCollection(const Actor& actor, CollectionKind kind,
                                    const std::string& value,
                                    const RecordSink& sink) {
  WireResponse resp;
  Status s = Call(Req(CollectionWireOp(kind), actor, value), &resp);
  if (!s.ok()) return s;
  // The node read in full; an early stop here only stops the replay.
  Deliver(sink, std::move(resp.records));
  return resp.status;
}

Status RemoteHandle::UpdateMetadataByKey(const Actor& actor,
                                         const std::string& key,
                                         const MetadataUpdate& update) {
  WireRequest req = Req(WireOp::kUpdateMeta, actor, key);
  req.update = update;
  return Rpc(req);
}

Status RemoteHandle::UpdateDataByKey(const Actor& actor,
                                     const std::string& key,
                                     const std::string& data) {
  WireRequest req = Req(WireOp::kUpdateData, actor, key);
  req.data = data;
  return Rpc(req);
}

Status RemoteHandle::DeleteRecordByKey(const Actor& actor,
                                       const std::string& key) {
  return Rpc(Req(WireOp::kDeleteKey, actor, key));
}

StatusOr<size_t> RemoteHandle::DeleteRecordsByUser(const Actor& actor,
                                                   const std::string& user) {
  // The response frame only exists once the remote store call returned,
  // i.e. once its tombstones were decided durable — so a transport failure
  // here (no frame) correctly reads as "erasure not acked on this node".
  return Rpc(Req(WireOp::kDeleteUser, actor, user), &WireResponse::count);
}

StatusOr<size_t> RemoteHandle::DeleteExpiredRecords(const Actor& actor) {
  return Rpc(Req(WireOp::kDeleteExpired, actor), &WireResponse::count);
}

StatusOr<bool> RemoteHandle::VerifyDeletion(const Actor& actor,
                                            const std::string& key) {
  return Rpc(Req(WireOp::kVerifyDeletion, actor, key), &WireResponse::flag);
}

StatusOr<std::vector<AuditEntry>> RemoteHandle::GetSystemLogs(
    const Actor& actor, int64_t from_micros, int64_t to_micros) {
  WireRequest req = Req(WireOp::kGetLogs, actor);
  req.from_micros = from_micros;
  req.to_micros = to_micros;
  return Rpc(req, &WireResponse::entries);
}

StatusOr<Features> RemoteHandle::GetFeatures(const Actor& actor) {
  return Rpc(Req(WireOp::kGetFeatures, actor), &WireResponse::features);
}

// ---- introspection ---------------------------------------------------------
// Statusless: an unreachable node reads as zero / empty.

size_t RemoteHandle::RecordCount() {
  return Rpc(Req(WireOp::kRecordCount), &WireResponse::count).value_or(0);
}

size_t RemoteHandle::TotalBytes() {
  return Rpc(Req(WireOp::kTotalBytes), &WireResponse::count).value_or(0);
}

Status RemoteHandle::Reset() { return Rpc(Req(WireOp::kReset)); }

HealthReport RemoteHandle::GetHealth() {
  WireResponse resp;
  Status s = Call(Req(WireOp::kHealth), &resp);
  if (s.ok()) return std::move(resp.health);
  // Unreachable != data lost: the node may be fine behind a dead link.
  // Degraded is the conservative report: it flags the node without
  // declaring its state unrecoverable.
  return {HealthState::kDegradedReadOnly, s};
}

obs::RegistrySnapshot RemoteHandle::StatsSnapshot() {
  auto snap = Rpc(Req(WireOp::kStatsSnapshot), &WireResponse::snapshot);
  return snap.ok() ? std::move(snap.value()) : obs::RegistrySnapshot{};
}

StatusOr<CompactionStats> RemoteHandle::CompactNow(const Actor& actor) {
  return Rpc(Req(WireOp::kCompactNow, actor), &WireResponse::stats);
}

CompactionStats RemoteHandle::GetCompactionStats() {
  return Rpc(Req(WireOp::kCompactionStats), &WireResponse::stats)
      .value_or(CompactionStats{});
}

// ---- migration -------------------------------------------------------------

StatusOr<SlotContents> RemoteHandle::ExportSlot(uint32_t slot,
                                                uint32_t num_slots) {
  WireRequest req = Req(WireOp::kExportSlot);
  req.slot = slot;
  req.num_slots = num_slots;
  return Rpc(req, &WireResponse::contents);
}

Status RemoteHandle::ImportSlot(const SlotContents& contents) {
  WireRequest req = Req(WireOp::kImportSlot);
  req.contents = contents;
  return Rpc(req);
}

Status RemoteHandle::EvictRecords(const std::vector<std::string>& keys) {
  WireRequest req = Req(WireOp::kEvictRecords);
  req.keys = keys;
  return Rpc(req);
}

StatusOr<AuditChainVerdict> RemoteHandle::VerifyAuditChain() {
  WireResponse resp;
  Status s = Call(Req(WireOp::kVerifyAuditChain), &resp);
  if (s.ok()) s = resp.status;
  if (!s.ok()) return s;
  AuditChainVerdict v;
  v.chain_ok = resp.flag;
  v.head_hash = std::move(resp.head_hash);
  return v;
}

void RemoteHandle::InjectDisconnect() {
  std::lock_guard<std::mutex> lock(mu_);
  ++generation_;  // in-flight connections close when they come back
  DropIdleLocked();
}

}  // namespace gdpr::net
