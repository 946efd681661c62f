// RemoteHandle: the framed-socket NodeHandle. Each handle pools connections
// with one request in flight on each: a call takes an idle connection (or
// dials one), runs its round trip with no handle-wide lock held, and puts
// it back, so a point read never waits behind another caller's fan-out.
// The pool is uncapped; it grows to the handle's peak concurrency.
//
// Failure model:
//   * Every request runs under a per-request poll timeout. A node that
//     stops answering surfaces Unavailable — the same code a degraded
//     store's own refusals use — so the router's fan-out rules (name the
//     missing nodes of a collection read, name failed nodes in Forget)
//     cover dead transports with no new cases.
//   * An I/O failure closes the pool's connections; the NEXT call re-dials
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
#include <vector>

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
  // cluster_rpc_connections{node=label}, cluster_rpc_bytes_total,
  // cluster_rpc_reconnects_total.
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
  // The node ships every readable record in one response, alongside the
  // op status; the handle replays them into sink, stopping when it does.
  Status ReadCollection(const Actor& actor, CollectionKind kind,
                        const std::string& value,
                        const RecordSink& sink) override;
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

  size_t RecordCount() override;
  size_t TotalBytes() override;
  Status Reset() override;
  HealthReport GetHealth() override;
  obs::RegistrySnapshot StatsSnapshot() override;

  StatusOr<CompactionStats> CompactNow(const Actor& actor) override;
  CompactionStats GetCompactionStats() override;

  StatusOr<SlotContents> ExportSlot(uint32_t slot,
                                    uint32_t num_slots) override;
  Status ImportSlot(const SlotContents& contents) override;
  Status EvictRecords(const std::vector<std::string>& keys) override;

  StatusOr<AuditChainVerdict> VerifyAuditChain() override;

  // The wall clock RPC latencies are timed with; the node's own clock
  // stays on the node.
  Clock* clock() override { return RealClock::Default(); }

  // Severs every connection as if the peer died (tests: a killed node):
  // idle ones close now, in-flight ones close when their call returns.
  void InjectDisconnect();

 private:
  struct Conn {
    int fd = -1;
    FrameBuffer buf;  // a fresh connection starts at a frame boundary
  };

  // One RPC: takes a pooled connection, runs RoundTrip on it, returns it.
  Status Call(const WireRequest& req, WireResponse* resp);
  // Writes the framed request, reads exactly one response frame, validates
  // the op echo.
  Status RoundTrip(Conn* conn, const WireRequest& req, WireResponse* resp);
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
  // Pops an idle connection or dials one; *gen is the pool generation.
  Status Acquire(Conn* conn, uint64_t* gen);
  // Pools a healthy connection of the current generation. Otherwise closes
  // it, and after a failure the idle ones too: the peer is probably gone.
  void Return(Conn conn, uint64_t gen, bool healthy);
  // Require mu_. Close one / every idle connection, counting it dropped.
  void CloseLocked(const Conn& conn);
  void DropIdleLocked();

  const RemoteHandleOptions opts_;
  std::mutex mu_;
  std::vector<Conn> idle_;   // guarded by mu_
  uint64_t generation_ = 0;  // guarded by mu_; InjectDisconnect bumps it
  // Connections lost and not yet replaced; a dial while this is nonzero
  // counts as a reconnect, any other dial is pool growth. Guarded by mu_.
  size_t dropped_ = 0;
  obs::Histogram* rpc_us_ = nullptr;
  obs::Gauge* connections_ = nullptr;
  obs::Counter* rpc_bytes_ = nullptr;
  obs::Counter* reconnects_ = nullptr;
};

}  // namespace gdpr::net
