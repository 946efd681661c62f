#include "net/rpc_server.h"

#include <sys/socket.h>

#include <utility>

#include "net/socket_io.h"

namespace gdpr::net {

namespace {

// Each connection's send deadline: a peer that accepts no byte of a
// response for this long is treated as dead.
constexpr int kWriteTimeoutMs = 10'000;

template <typename T>
void TakeStatusOr(StatusOr<T> r, Status* status, T* out) {
  if (r.ok()) {
    *out = std::move(r.value());
  } else {
    *status = r.status();
  }
}

}  // namespace

WireResponse DispatchRequest(KvGdprStore* store, const WireRequest& req) {
  WireResponse resp;
  resp.op = req.op;
  switch (req.op) {
    case WireOp::kPing:
      break;
    case WireOp::kOpen:
      resp.status = store->Open();
      break;
    case WireOp::kClose:
      resp.status = store->Close();
      break;
    case WireOp::kCreateRecord:
      resp.status = store->CreateRecord(req.actor, req.record);
      break;
    case WireOp::kReadData:
      TakeStatusOr(store->ReadDataByKey(req.actor, req.key), &resp.status,
                   &resp.record);
      break;
    case WireOp::kReadMeta:
      TakeStatusOr(store->ReadMetadataByKey(req.actor, req.key), &resp.status,
                   &resp.metadata);
      break;
    case WireOp::kReadMetaUser:
    case WireOp::kReadMetaPurpose:
    case WireOp::kReadMetaSharing:
    case WireOp::kReadRecordsUser:
    case WireOp::kScanRecords:
      // Ship every record that passes as the image the store holds; the
      // handle decodes them once. The op status (a DataLoss verdict
      // included) rides alongside.
      resp.status =
          store->AppendImages(req.actor, CollectionKindOf(req.op), req.key,
                              &resp.images.bytes, &resp.images.count);
      break;
    case WireOp::kUpdateMeta:
      resp.status = store->UpdateMetadataByKey(req.actor, req.key, req.update);
      break;
    case WireOp::kUpdateData:
      resp.status = store->UpdateDataByKey(req.actor, req.key, req.data);
      break;
    case WireOp::kDeleteKey:
      resp.status = store->DeleteRecordByKey(req.actor, req.key);
      break;
    case WireOp::kDeleteUser: {
      // This call returns only once the node's tombstones are decided
      // durable (the erasure path blocks in the AOF's commit log), so the
      // response frame below IS the durable-tombstone ack.
      size_t n = 0;
      TakeStatusOr(store->DeleteRecordsByUser(req.actor, req.key),
                   &resp.status, &n);
      resp.count = n;
      break;
    }
    case WireOp::kDeleteExpired: {
      size_t n = 0;
      TakeStatusOr(store->DeleteExpiredRecords(req.actor), &resp.status, &n);
      resp.count = n;
      break;
    }
    case WireOp::kVerifyDeletion: {
      bool gone = false;
      TakeStatusOr(store->VerifyDeletion(req.actor, req.key), &resp.status,
                   &gone);
      resp.flag = gone;
      break;
    }
    case WireOp::kGetLogs:
      TakeStatusOr(
          store->GetSystemLogs(req.actor, req.from_micros, req.to_micros),
          &resp.status, &resp.entries);
      break;
    case WireOp::kGetFeatures:
      TakeStatusOr(store->GetFeatures(req.actor), &resp.status,
                   &resp.features);
      break;
    case WireOp::kRecordCount:
      resp.count = store->RecordCount();
      break;
    case WireOp::kTotalBytes:
      resp.count = store->TotalBytes();
      break;
    case WireOp::kHealth:
      resp.health = store->GetHealth();
      break;
    case WireOp::kStatsSnapshot:
      resp.snapshot = store->StatsSnapshot();
      break;
    case WireOp::kCompactNow:
      TakeStatusOr(store->CompactNow(req.actor), &resp.status, &resp.stats);
      break;
    case WireOp::kCompactionStats:
      resp.stats = store->GetCompactionStats();
      break;
    case WireOp::kExportSlot:
      TakeStatusOr(store->ExportSlot(req.slot, req.num_slots), &resp.status,
                   &resp.contents);
      break;
    case WireOp::kImportSlot:
      resp.status = store->ImportSlot(req.contents);
      break;
    case WireOp::kEvictRecords:
      resp.status = store->EvictRecords(req.keys);
      break;
    case WireOp::kVerifyAuditChain: {
      AuditChainVerdict v;
      TakeStatusOr(store->VerifyAuditChain(), &resp.status, &v);
      resp.flag = v.chain_ok;
      resp.head_hash = std::move(v.head_hash);
      break;
    }
  }
  return resp;
}

RpcServer::RpcServer(KvGdprStore* store) : store_(store) {}

RpcServer::~RpcServer() { Stop(); }

Status RpcServer::Start(const std::string& listen_addr) {
  if (running()) return Status::FailedPrecondition("rpc server already running");
  if (!listen_addr.empty()) {
    std::string err;
    listen_fd_ = net::Listen(listen_addr, &err);
    if (listen_fd_ < 0) return Status::IOError(err);
    listen_addr_ = listen_addr;
  }
  running_.store(true, std::memory_order_release);
  if (listen_fd_ >= 0) accept_ = std::thread([this] { AcceptLoop(); });
  return Status::OK();
}

void RpcServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  std::list<Conn> conns;
  {
    // Adopt() checks running_ under mu_, so no connection joins after
    // this pass. shutdown() wakes each blocked read (and the accept) with
    // EOF; the serving threads then close their own fds.
    std::lock_guard<std::mutex> lock(mu_);
    if (listen_fd_ >= 0) shutdown(listen_fd_, SHUT_RDWR);
    for (Conn& c : conns_) {
      if (c.fd >= 0) shutdown(c.fd, SHUT_RDWR);
    }
    conns.swap(conns_);
  }
  if (accept_.joinable()) accept_.join();
  for (Conn& c : conns) c.thread.join();
  CloseFd(listen_fd_);
  listen_fd_ = -1;
}

int RpcServer::CreateLoopbackConnection() {
  auto [server_fd, client_fd] = StreamPair();
  if (server_fd < 0) return -1;
  if (!Adopt(server_fd)) {
    CloseFd(client_fd);
    return -1;
  }
  return client_fd;
}

bool RpcServer::Adopt(int fd) {
  std::lock_guard<std::mutex> lock(mu_);
  if (!running() || !SetDeadline(fd, kWriteTimeoutMs, /*recv_ms=*/0)) {
    CloseFd(fd);
    return false;
  }
  for (auto it = conns_.begin(); it != conns_.end();) {
    if (it->done) {
      it->thread.join();
      it = conns_.erase(it);
    } else {
      ++it;
    }
  }
  Conn& c = conns_.emplace_back();
  c.fd = fd;
  c.thread = std::thread([this, &c] { Serve(&c); });
  return true;
}

void RpcServer::Serve(Conn* conn) {
  const int fd = conn->fd;  // only this thread closes it
  for (;;) {
    WireRequest req;
    WireResponse resp;
    {
      std::string payload;
      // No deadline: an idle pooled connection waits here until its next
      // request, EOF, or Stop()'s shutdown().
      if (!ReadFrame(fd, &payload).ok()) break;
      const Status ds = DecodeRequest(payload, &req);
      if (ds.ok()) {
        resp = DispatchRequest(store_, req);
      } else {
        // Malformed payload: answer with the decode error so the client
        // sees exactly why, and keep the connection — the framing is
        // still sound. Once the header decoded, req.op is the request's
        // own tag, so the caller matches the answer to its call.
        resp.op = req.op;
        resp.status = ds;
      }
    }
    std::string out = EncodeResponse(resp);
    if (Status fs = CheckFrameSize(out.size()); !fs.ok()) {
      // WriteFrame would refuse it: the op gets the refusal as its answer
      // and the connection stays in step.
      WireResponse refusal;
      refusal.op = resp.op;
      refusal.status = fs;
      out = EncodeResponse(refusal);
    }
    if (!WriteFrame(fd, out).ok()) break;
  }
  std::lock_guard<std::mutex> lock(mu_);
  CloseFd(fd);
  conn->fd = -1;
  conn->done = true;
}

void RpcServer::AcceptLoop() {
  // Stop() shuts the listener down, which fails the blocked accept().
  while (running()) {
    const int fd = accept(listen_fd_, nullptr, nullptr);
    if (fd >= 0) Adopt(fd);
  }
}

}  // namespace gdpr::net
