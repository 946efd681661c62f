// ClusterGdprStore: a slot-partitioned multi-node GDPR store. N homogeneous
// nodes, each a full KvGdprStore (records, secondary indexes, TTL heap,
// tombstones, and its own hash-chained audit log), fronted by a router that
// implements gdpr::GdprStore — every bench, example, and test that takes a
// GdprStore runs unmodified against a cluster.
//
// The router is transport-agnostic: every routed, fanned-out, migrated, or
// merged operation goes through net::NodeHandle (src/net/node_handle.h) —
// the router never touches a KvGdprStore* outside node construction and
// ownership, and cluster_store.cc is grep-gated to keep it that way.
// ClusterOptions::transport picks the handle type per cluster:
//
//   kInProcess       the node's KvGdprStore is its handle — one direct
//                    virtual call, zero copies.
//   kLoopbackSocket  one RpcServer per node plus a RemoteHandle over an
//                    AF_UNIX socketpair — every operation is encoded,
//                    framed, decoded, dispatched, and framed back, i.e.
//                    the full wire protocol exercised in-process. The
//                    transport-equivalence suites run the same workloads
//                    over both and assert identical results, audit head
//                    hashes, and health states.
//
//   * Point ops (create / read / update / delete / verify by key) route by
//     key slot under a per-slot read fence.
//   * Collection reads (by user / purpose / sharing, the export, the scan)
//     and GDPR broadcasts (user erasure, TTL sweep, log pulls) scatter to
//     every node and gather: per-node records are merged, keeping each
//     record only from the node that owns its slot. A read that misses a
//     node says so (Unavailable, naming it). Who runs the node parts is
//     decided in FanOut: an in-process fan-out that overlaps another runs
//     them on its caller, in node order; a lone one and every socket
//     fan-out hand them to a worker pool.
//   * MoveSlots rebalances live: one slot at a time is write-fenced, its
//     records (and erasure tombstones) are copied to the destination node
//     through slot-scoped handle exports, ownership flips, and the source
//     copy is evicted.
//   * Forget (DeleteRecordsByUser) acks only when every node acked its
//     tombstones durable. It and the other broadcasts (TTL sweep, log
//     pull, compaction) name failed or unreachable nodes in a
//     partial-failure status; a denial is returned as is.

#pragma once

#include <atomic>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "cluster/scatter_gather.h"
#include "cluster/slot_map.h"
#include "gdpr/kv_backend.h"
#include "gdpr/store.h"
#include "net/node_handle.h"
#include "net/rpc_server.h"

namespace gdpr::cluster {

// How the router reaches its nodes. kInProcess is direct calls;
// kLoopbackSocket puts the full wire protocol (and an RpcServer per node)
// between router and store.
enum class ClusterTransport { kInProcess, kLoopbackSocket };

struct ClusterOptions {
  size_t nodes = 4;
  uint32_t slots = SlotMap::kDefaultSlots;
  Clock* clock = nullptr;
  ComplianceFlags compliance;
  // Per-node inner KV template. When an AOF path is set, node i appends
  // ".node<i>" so logs do not collide.
  kv::Options kv;
  // Durable audit-chain template. When audit.path is set, node i persists
  // its chain at "<path>.node<i>" and the router's own chain (MOVE-SLOTS /
  // COMPACT-ALL trail) at "<path>.router", so every chain re-verifies
  // independently after a full-cluster restart.
  AuditLogOptions audit;
  // Node transport (see ClusterTransport above).
  ClusterTransport transport = ClusterTransport::kInProcess;
  // Per-request budget for socket transports; an overrun surfaces as
  // Unavailable on that node, not a hang.
  int rpc_timeout_ms = 10'000;
};

class ClusterGdprStore : public AuditedStore {
 public:
  explicit ClusterGdprStore(const ClusterOptions& options);
  ~ClusterGdprStore() override;

  Status Open() override;

  Status CreateRecord(const Actor& actor, const GdprRecord& record) override;
  StatusOr<GdprRecord> ReadDataByKey(const Actor& actor,
                                     const std::string& key) override;
  StatusOr<GdprMetadata> ReadMetadataByKey(const Actor& actor,
                                           const std::string& key) override;
  // Scatter-gather over every node, then a merge that delivers node i's
  // records only where node i owns their slot. A denial from any node wins
  // and delivers nothing. Otherwise, when some node did not answer, the
  // answering nodes' records are delivered and the read fails Unavailable,
  // naming the missing nodes in the status and in an allowed=false entry
  // on the router's chain. Otherwise the first DataLoss, or OK.
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
  Status Reset() override;

  // Per-node view (handle order) for operators deciding what to drain.
  HealthState NodeHealth(size_t i) { return nodes_[i]->GetHealth().state; }

  // Fans the erasure-aware compaction out to every node and merges the
  // per-node stats; audited once on the router chain as COMPACT-ALL, which
  // a partial failure logs as denied, naming the failed nodes.
  StatusOr<CompactionStats> CompactNow(const Actor& actor) override;

  // --- Cluster surface -----------------------------------------------------

  size_t node_count() const { return nodes_.size(); }
  // Direct access to the node's backing store — tests and tools peeking at
  // per-node state (record counts, audit chains). Router code paths never
  // use this; they go through handle(i).
  KvGdprStore* node(size_t i) { return stores_[i].get(); }
  // The node's transport-facing face: the store itself in process, else
  // its RemoteHandle.
  net::NodeHandle* handle(size_t i) { return nodes_[i]; }
  // The node's RPC server, or nullptr for in-process transports. Tests
  // stop one to simulate a killed node.
  net::RpcServer* node_server(size_t i) {
    return i < servers_.size() ? servers_[i].get() : nullptr;
  }
  const SlotMap& slot_map() const { return slot_map_; }

  // Moves the given slots to dst_node, live: point traffic to other slots
  // is untouched; traffic to a moving slot waits only for that slot's copy.
  Status MoveSlots(const std::vector<uint32_t>& slots, uint32_t dst_node);
  // Levels slot ownership across all nodes (see SlotMap::PlanRebalance).
  Status Rebalance();

  // Verifies every node's audit chain plus the router's own (MOVE-SLOTS
  // trail). per_node, when given, receives handle order then the router.
  // An unreachable node verifies as false.
  bool VerifyAuditChains(std::vector<bool>* per_node = nullptr);

  // Cluster-wide view: the router's own metrics (per-node fan-out
  // latencies, per-node RPC latencies and bytes on socket transports,
  // degraded-node skips, slot-migration progress, cluster health) merged
  // with every node's StatsSnapshot — same-name counters and histogram
  // buckets sum across nodes.
  obs::RegistrySnapshot StatsSnapshot() override;

  const ClusterOptions& options() const { return options_; }

 protected:
  // The shell's body is the nodes: Close closes each (the first failure
  // wins), and bytes and compaction stats sum over them.
  Status CloseEngine() override;
  size_t EngineBytes() override;
  // Worst health across every node, the cause prefixed "node i: " (the
  // shell adds the router's chain). A degraded (read-only) node degrades
  // the cluster *report* but still answers reads, and point ops to healthy
  // nodes' slots are unaffected. Over a socket transport an unreachable
  // node reports kDegradedReadOnly with an Unavailable cause; collection
  // reads then fail Unavailable, naming it, after delivering the other
  // nodes' records.
  HealthReport EngineHealth() override;
  CompactionStats LogCompactionStats() override;

 private:
  // Builds node i's backing store from the cluster template. Lives in the
  // header so cluster_store.cc — the routing logic — stays free of any
  // KvGdprStore mention (the grep gate in CI).
  static std::unique_ptr<KvGdprStore> MakeNodeStore(
      const ClusterOptions& options, Clock* clock, size_t i) {
    KvGdprOptions o;
    o.clock = clock;
    o.compliance = options.compliance;
    o.kv = options.kv;
    o.audit = options.audit;
    if (!o.kv.aof_path.empty()) {
      o.kv.aof_path += ".node" + std::to_string(i);
    }
    if (!o.audit.path.empty()) {
      o.audit.path += ".node" + std::to_string(i);
    }
    return std::make_unique<KvGdprStore>(o);
  }

  uint32_t SlotOf(const std::string& key) const {
    return slot_map_.SlotOf(key);
  }
  net::NodeHandle* OwnerNode(uint32_t slot) {
    return nodes_[slot_map_.OwnerOf(slot)];
  }

  // Runs fn(handle) for every node; results land in a node-indexed vector
  // so the merge is deterministic. An in-process fan-out runs the node
  // parts on the caller when another one is in flight, else they go to
  // the pool (see the body for why).
  template <typename T>
  std::vector<T> FanOut(const std::function<T(net::NodeHandle*)>& fn);

  ClusterOptions options_;
  SlotMap slot_map_;
  // Router-level metrics only (cluster_*, plus the router audit chain's
  // audit_* counters); per-op latencies live in the nodes' registries and
  // merge in at StatsSnapshot. Declared before the stores/handles so
  // everything recording into it dies first.
  obs::MetricsRegistry registry_;
  std::vector<obs::Histogram*> fanout_hist_;  // cluster_node_fanout_us{node=i}
  obs::Counter* m_degraded_skips_ = nullptr;
  obs::Counter* m_fanout_caller_ = nullptr;  // node parts run by the caller
  obs::Counter* m_fanout_pool_ = nullptr;    // node parts handed to pool_
  obs::Counter* m_slots_moved_ = nullptr;
  obs::Counter* m_records_migrated_ = nullptr;
  obs::Gauge* m_migration_active_ = nullptr;
  // Ownership vs. routing, deliberately split: stores_ owns the node
  // engines; on socket transports servers_ owns one RpcServer per store and
  // remotes_ the RemoteHandles to them. nodes_ is what the router talks
  // through: the stores themselves in process, else remotes_. Declaration
  // order is destruction-order-critical: remote handles die first (they
  // hold fds into the servers), then servers stop their loops, then the
  // stores they wrap go down.
  std::vector<std::unique_ptr<KvGdprStore>> stores_;
  std::vector<std::unique_ptr<net::RpcServer>> servers_;
  std::vector<std::unique_ptr<net::NodeHandle>> remotes_;
  std::vector<net::NodeHandle*> nodes_;
  std::unique_ptr<ScatterGather> pool_;
  // In-process fan-outs inside FanOut right now.
  std::atomic<size_t> fanouts_in_flight_{0};

  // Per-slot write fence: point ops hold it shared, MoveSlots holds the
  // moving slot's exclusively. shared_mutex is non-movable, hence the
  // unique_ptr indirection.
  std::vector<std::unique_ptr<std::shared_mutex>> slot_fence_;

  // Fan-out ops (metadata queries, user erasure, TTL sweep, scans, reset)
  // run node-local without slot fences; they hold this shared against
  // MoveSlots (exclusive) so a record can't be erased on the source after
  // its copy reached the destination, and a scatter-gather read can't miss
  // a record that is mid-flight between nodes.
  std::shared_mutex migrate_mu_;
};

}  // namespace gdpr::cluster
