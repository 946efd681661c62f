#include "net/rpc_server.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <utility>

#include "net/socket_io.h"

namespace gdpr::net {

namespace {

// The loop never hangs on a slow reader: a peer that cannot drain a
// response within this budget is treated as dead.
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

WireResponse DispatchRequest(NodeHandle* store, const WireRequest& req) {
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
      TakeStatusOr(store->ReadMetadataByUser(req.actor, req.key),
                   &resp.status, &resp.records);
      break;
    case WireOp::kReadMetaPurpose:
      TakeStatusOr(store->ReadMetadataByPurpose(req.actor, req.key),
                   &resp.status, &resp.records);
      break;
    case WireOp::kReadMetaSharing:
      TakeStatusOr(store->ReadMetadataBySharing(req.actor, req.key),
                   &resp.status, &resp.records);
      break;
    case WireOp::kReadRecordsUser:
      TakeStatusOr(store->ReadRecordsByUser(req.actor, req.key), &resp.status,
                   &resp.records);
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
      // durable (the erasure path blocks in the commit pipeline), so the
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
    case WireOp::kScanRecords:
      // The callback cannot cross the wire: ship every readable record and
      // let the handle replay the caller's callback locally. The op Status
      // (DataLoss partial-scan verdicts included) rides alongside.
      resp.status = store->ScanRecords(req.actor, [&](const GdprRecord& rec) {
        resp.records.push_back(rec);
        return true;
      });
      break;
    case WireOp::kRecordCount:
      resp.count = store->RecordCount();
      break;
    case WireOp::kTotalBytes:
      resp.count = store->TotalBytes();
      break;
    case WireOp::kReset:
      resp.status = store->Reset();
      break;
    case WireOp::kHealth:
      resp.health = store->GetHealth();
      resp.health_cause = store->GetHealthCause();
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
    case WireOp::kExportRecords:
      TakeStatusOr(store->ExportSlotRecords(req.slot, req.num_slots),
                   &resp.status, &resp.records);
      break;
    case WireOp::kExportTombstones:
      TakeStatusOr(store->ExportSlotTombstones(req.slot, req.num_slots),
                   &resp.status, &resp.keys);
      break;
    case WireOp::kImportRecord:
      resp.status = store->ImportRecord(req.record);
      break;
    case WireOp::kAdoptTombstone:
      resp.status = store->AdoptTombstone(req.key);
      break;
    case WireOp::kEvictRecord:
      resp.status = store->EvictRecord(req.key);
      break;
    case WireOp::kClearTombstone:
      resp.status = store->ClearTombstone(req.key);
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

RpcServer::RpcServer(NodeHandle* store) : store_(store) {}

RpcServer::~RpcServer() { Stop(); }

Status RpcServer::Start(const std::string& listen_addr) {
  if (running()) return Status::FailedPrecondition("rpc server already running");
  if (!listen_addr.empty()) {
    std::string err;
    listen_fd_ = net::Listen(listen_addr, &err);
    if (listen_fd_ < 0) return Status::IOError(err);
    listen_addr_ = listen_addr;
  }
  int pipefd[2];
  if (pipe(pipefd) != 0) {
    CloseFd(listen_fd_);
    listen_fd_ = -1;
    return Status::IOError("rpc server wake pipe");
  }
  wake_rd_ = pipefd[0];
  wake_wr_ = pipefd[1];
  stop_.store(false, std::memory_order_release);
  running_.store(true, std::memory_order_release);
  loop_ = std::thread([this] { Loop(); });
  return Status::OK();
}

void RpcServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  stop_.store(true, std::memory_order_release);
  Wake();
  if (loop_.joinable()) loop_.join();
  for (Conn& c : conns_) CloseFd(c.fd);
  conns_.clear();
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    for (int fd : pending_fds_) CloseFd(fd);
    pending_fds_.clear();
  }
  CloseFd(listen_fd_);
  listen_fd_ = -1;
  CloseFd(wake_rd_);
  CloseFd(wake_wr_);
  wake_rd_ = wake_wr_ = -1;
}

void RpcServer::Wake() {
  if (wake_wr_ >= 0) {
    const char b = 1;
    [[maybe_unused]] ssize_t n = write(wake_wr_, &b, 1);
  }
}

int RpcServer::CreateLoopbackConnection() {
  if (!running()) return -1;
  auto [server_fd, client_fd] = StreamPair();
  if (server_fd < 0) return -1;
  {
    std::lock_guard<std::mutex> lock(pending_mu_);
    pending_fds_.push_back(server_fd);
  }
  Wake();
  return client_fd;
}

bool RpcServer::ServeBuffered(size_t i) {
  Conn& c = conns_[i];
  for (;;) {
    std::string payload;
    bool have = false;
    Status fs = c.buf.Next(&payload, &have);
    if (!fs.ok()) return false;  // unframeable stream: drop the connection
    if (!have) return true;
    WireRequest req;
    WireResponse resp;
    Status ds = DecodeRequest(payload, &req);
    if (ds.ok()) {
      resp = DispatchRequest(store_, req);
    } else {
      // Malformed payload: answer with the decode error so the client sees
      // exactly why, and keep the connection — the framing is still sound.
      resp.op = WireOp::kPing;
      resp.status = ds;
    }
    const std::string frame = Frame(EncodeResponse(resp));
    if (!WriteAll(c.fd, frame, kWriteTimeoutMs).ok()) return false;
  }
}

void RpcServer::Loop() {
  while (!stop_.load(std::memory_order_acquire)) {
    {
      std::lock_guard<std::mutex> lock(pending_mu_);
      for (int fd : pending_fds_) conns_.push_back(Conn{fd, {}});
      pending_fds_.clear();
    }
    std::vector<pollfd> fds;
    fds.reserve(conns_.size() + 2);
    fds.push_back(pollfd{wake_rd_, POLLIN, 0});
    if (listen_fd_ >= 0) fds.push_back(pollfd{listen_fd_, POLLIN, 0});
    const size_t conn_base = fds.size();
    for (const Conn& c : conns_) fds.push_back(pollfd{c.fd, POLLIN, 0});
    // A connection accept() adds below joins conns_ but has no pollfd this
    // round — only walk the entries that were actually polled.
    const size_t polled = conns_.size();
    const int rc = poll(fds.data(), nfds_t(fds.size()), 500);
    if (rc <= 0) continue;
    if (fds[0].revents & POLLIN) {
      char drain[64];
      [[maybe_unused]] ssize_t n = read(wake_rd_, drain, sizeof(drain));
    }
    if (listen_fd_ >= 0 && (fds[1].revents & POLLIN)) {
      const int fd = accept(listen_fd_, nullptr, nullptr);
      if (fd >= 0) conns_.push_back(Conn{fd, {}});
    }
    // Walk backwards so dropping connection i cannot shift unprocessed
    // entries under the iteration.
    for (size_t i = polled; i-- > 0;) {
      const short rev = fds[conn_base + i].revents;
      if (!(rev & (POLLIN | POLLHUP | POLLERR))) continue;
      bool alive = true;
      if (rev & POLLIN) {
        char chunk[16 * 1024];
        const ssize_t n = recv(conns_[i].fd, chunk, sizeof(chunk), 0);
        if (n > 0) {
          conns_[i].buf.Feed(chunk, size_t(n));
          alive = ServeBuffered(i);
        } else if (n == 0 || (n < 0 && errno != EINTR && errno != EAGAIN &&
                              errno != EWOULDBLOCK)) {
          alive = false;
        }
      } else {
        alive = false;  // hangup/error with nothing readable
      }
      if (!alive) {
        CloseFd(conns_[i].fd);
        conns_.erase(conns_.begin() + long(i));
      }
    }
  }
}

}  // namespace gdpr::net
