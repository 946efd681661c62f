// RemoteHandle: the framed-socket NodeHandle. One connection per handle,
// serialized by a mutex (the router's fan-out runs one sub-query per node
// at a time, so a single in-flight request per node is the natural shape).
//
// Failure model:
//   * Every request runs under a per-request poll timeout. A node that
//     stops answering surfaces Unavailable — the same code a degraded
//     store's own refusals use — so the router's existing merge logic
//     (skip Unavailable parts, name failed nodes in Forget) covers dead
//     transports with no new cases.
//   * An I/O failure marks the connection dead; the NEXT call re-dials
//     (dial_addr) or re-establishes through reconnect_fn (loopback). The
//     failing call itself is never retried: a mutation whose response was
//     lost may have applied, and blind replay would double-apply it.
//   * Statusless introspection (RecordCount, TotalBytes, compaction stats,
//     StatsSnapshot) degrades to zero/empty on an unreachable node;
//     GetHealth reports kDegradedReadOnly with an Unavailable cause.

#pragma once

#include <functional>
#include <mutex>
#include <string>
#include <utility>

#include "common/clock.h"
#include "net/node_handle.h"
#include "net/wire.h"

namespace gdpr::net {

struct RemoteHandleOptions {
  // Per-request budget covering write + server execution + response read.
  int timeout_ms = 10'000;
  // Reconnection: dial_addr (unix:/tcp:) or a callback producing a fresh
  // connected fd (-1 on failure) — e.g. RpcServer::CreateLoopbackConnection.
  // With neither, a dead connection stays dead.
  std::string dial_addr;
  std::function<int()> reconnect_fn;
  // Per-handle RPC metrics land here when set: cluster_rpc_us{node=label},
  // cluster_rpc_bytes_total, cluster_rpc_reconnects_total.
  obs::MetricsRegistry* metrics = nullptr;
  std::string node_label;
};

class RemoteHandle final : public NodeHandle {
 public:
  // fd: a connected socket, or -1 to connect lazily on first use.
  RemoteHandle(int fd, RemoteHandleOptions opts);
  ~RemoteHandle() override;

  RemoteHandle(const RemoteHandle&) = delete;
  RemoteHandle& operator=(const RemoteHandle&) = delete;

  Status Open() override;
  Status Close() override;

  Status CreateRecord(const Actor& actor, const GdprRecord& record) override;
  StatusOr<GdprRecord> ReadDataByKey(const Actor& actor,
                                     const std::string& key) override;
  StatusOr<GdprMetadata> ReadMetadataByKey(const Actor& actor,
                                           const std::string& key) override;
  StatusOr<std::vector<GdprRecord>> ReadMetadataByUser(
      const Actor& actor, const std::string& user) override;
  StatusOr<std::vector<GdprRecord>> ReadMetadataByPurpose(
      const Actor& actor, const std::string& purpose) override;
  StatusOr<std::vector<GdprRecord>> ReadMetadataBySharing(
      const Actor& actor, const std::string& third_party) override;
  StatusOr<std::vector<GdprRecord>> ReadRecordsByUser(
      const Actor& actor, const std::string& user) override;
  Status UpdateMetadataByKey(const Actor& actor, const std::string& key,
                             const MetadataUpdate& update) override;
  Status UpdateDataByKey(const Actor& actor, const std::string& key,
                         const std::string& data) override;
  Status DeleteRecordByKey(const Actor& actor, const std::string& key) override;
  StatusOr<size_t> DeleteRecordsByUser(const Actor& actor,
                                       const std::string& user) override;
  StatusOr<size_t> DeleteExpiredRecords(const Actor& actor) override;
  StatusOr<bool> VerifyDeletion(const Actor& actor,
                                const std::string& key) override;
  StatusOr<std::vector<AuditEntry>> GetSystemLogs(const Actor& actor,
                                                  int64_t from_micros,
                                                  int64_t to_micros) override;
  StatusOr<Features> GetFeatures(const Actor& actor) override;
  Status ScanRecords(
      const Actor& actor,
      const std::function<bool(const GdprRecord&)>& fn) override;

  size_t RecordCount() override;
  size_t TotalBytes() override;
  Status Reset() override;
  HealthState GetHealth() override;
  Status GetHealthCause() override;
  obs::RegistrySnapshot StatsSnapshot() override;

  StatusOr<CompactionStats> CompactNow(const Actor& actor) override;
  CompactionStats GetCompactionStats() override;

  StatusOr<std::vector<GdprRecord>> ExportSlotRecords(
      uint32_t slot, uint32_t num_slots) override;
  StatusOr<std::vector<std::string>> ExportSlotTombstones(
      uint32_t slot, uint32_t num_slots) override;
  Status ImportRecord(const GdprRecord& record) override;
  Status AdoptTombstone(const std::string& key) override;
  Status EvictRecord(const std::string& key) override;
  Status ClearTombstone(const std::string& key) override;

  StatusOr<AuditChainVerdict> VerifyAuditChain() override;

  // The wall clock RPC latencies are timed with; the node's own clock
  // stays on the node.
  Clock* clock() override { return RealClock::Default(); }

  // Severs the connection as if the peer died (tests: a killed node).
  void InjectDisconnect();

 private:
  // One round trip. Locks, (re)connects if needed, writes the framed
  // request, reads exactly one response frame, validates the op echo.
  Status Call(const WireRequest& req, WireResponse* resp);
  // The shape of every op with a status: one Call, a transport failure
  // winning over the op status, then the op's result moved out of `field`.
  Status Rpc(const WireRequest& req);
  template <typename T>
  StatusOr<T> Rpc(const WireRequest& req, T WireResponse::*field) {
    WireResponse resp;
    Status s = Call(req, &resp);
    if (s.ok()) s = resp.status;
    if (!s.ok()) return s;
    return std::move(resp.*field);
  }
  // Requires mu_. Marks the connection dead.
  void DropConnLocked();
  // Requires mu_. Ensures fd_ is a live connection; Unavailable otherwise.
  Status EnsureConnectedLocked();

  std::mutex mu_;
  int fd_;
  FrameBuffer buf_;  // guarded by mu_
  RemoteHandleOptions opts_;
  obs::Histogram* rpc_us_ = nullptr;
  obs::Counter* rpc_bytes_ = nullptr;
  obs::Counter* reconnects_ = nullptr;
};

}  // namespace gdpr::net
