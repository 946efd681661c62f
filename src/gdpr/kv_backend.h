// KvGdprStore: the memkv engine under the GDPR policy layer (the paper's
// modified Redis). Records live as compact serialized blobs under their key;
// every Table 2 rule — access, audit, masking, erasure loops — is
// PolicyStore's. This class supplies the engine hooks, and is itself an
// in-process cluster node (net::NodeHandle): the unaudited slot-migration
// surface the router moves records with, and the audit-chain verdict.
//
// Metadata collections are O(n) scan-parse-filter passes on a plain KV
// store — the linear walls in Fig 5a/7b. With compliance.metadata_indexing
// the engine maintains secondary indexes (user -> keys, purpose -> keys,
// sharing -> keys, and a TTL min-heap), turning the same collections into
// indexed lookups; bench_index_fastpath measures the gap.
//
// Read fast path: the secondary indexes are epoch-protected posting maps
// (kv::EpochPostingMap: an attribute table and per-attribute key sets, two
// node types of the table behind MemKV's shard map). A collection pins one
// epoch for the whole read and, without any index lock, collects pointers
// to one attribute's keys where the posting nodes hold them. One
// MemKV::GetBatch reads those keys — prefetched lookups in groups of 16,
// and Get's per-entry rules — and each record is decoded once, straight
// from the engine's bytes into the answer slot that keeps it, skipping the
// payload when the query is masked. Point fetches (GetRaw) are MemKV's
// lock-free Get.
//
// Write path: each attribute's keys form a small hashed set that grows
// copy-on-grow, and an upsert diffs the old and new metadata, touching only
// the (value, key) pairs that changed and pushing a TTL item only when the
// expiry moved. A sharing rotation therefore costs two O(1) set operations,
// not a walk of the record's purpose and sharing postings. Index writers
// (upsert/erasure/expiry) serialize on a narrow mutex that no read path
// touches, so metadata queries scale with reader threads. Scan paths report
// at-rest decrypt failures as DataLoss instead of skipping them silently.

#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <queue>
#include <string>
#include <vector>

#include "gdpr/policy_store.h"
#include "kvstore/db.h"
#include "kvstore/epoch_map.h"
#include "net/node_handle.h"

namespace gdpr {

struct KvGdprOptions {
  Clock* clock = nullptr;
  ComplianceFlags compliance;
  // Inner KV knobs (AOF, shards, ...). clock/encryption are plumbed from
  // the fields above; set the rest freely.
  kv::Options kv;
  // Durable audit chain: with audit.path set, the hash chain persists to
  // <path>.seg<N> and re-verifies across restarts. env and sync_policy are
  // plumbed from the kv options; set path / rotate_bytes / retention_micros
  // freely. Empty path = in-memory chain (the pre-PR-5 behavior).
  AuditLogOptions audit;
};

class KvGdprStore : public PolicyStore, public net::NodeHandle {
 public:
  explicit KvGdprStore(const KvGdprOptions& options);
  ~KvGdprStore() override;

  Status Open() override;
  size_t RecordCount() override;
  Status Reset() override;

  kv::MemKV* raw() { return db_.get(); }
  const KvGdprOptions& options() const { return options_; }

  // --- The cluster-node surface (net/node_handle.h) -------------------------
  StatusOr<net::SlotContents> ExportSlot(uint32_t slot,
                                         uint32_t num_slots) override;
  Status ImportSlot(const net::SlotContents& contents) override;
  Status EvictRecords(const std::vector<std::string>& keys) override;
  StatusOr<net::AuditChainVerdict> VerifyAuditChain() override;

 protected:
  StatusOr<GdprRecord> GetRaw(const std::string& key) override;
  Status Put(const GdprRecord& rec, const GdprRecord* prev) override;
  Status Erase(const GdprRecord& rec) override;
  Status Collect(Attr attr, const std::string& value, bool mask,
                 std::vector<GdprRecord>* out) override;
  Status ForEachExpired(
      int64_t now,
      const std::function<Status(const std::string&)>& fn) override;
  Status Scan(const std::function<bool(GdprRecord&)>& fn) override;
  StatusOr<bool> HasTombstone(const std::string& key) override;
  size_t TombstoneCount() override;
  Status CompactLog() override;
  CompactionStats LogCompactionStats() override;
  HealthReport EngineHealth() override;
  size_t EngineBytes() override;
  obs::RegistrySnapshot EngineSnapshot() override;
  Status CloseEngine() override;

 private:
  struct TtlItem {
    int64_t expiry_micros;
    std::string key;
    bool operator>(const TtlItem& o) const {
      return expiry_micros > o.expiry_micros;
    }
  };

  void IndexUpdate(const GdprRecord* prev, const GdprRecord* next);
  // Removes key's record, if resident, and unindexes it; writes no
  // tombstone. Caller holds KeyMutex(key).
  Status EvictLocked(const std::string& key);
  // Caller holds idx_writer_mu_.
  void AdjustIndexBytes(size_t added, size_t dropped);
  void PushTtl(TtlItem item);

  KvGdprOptions options_;
  std::unique_ptr<kv::MemKV> db_;

  // Secondary indexes, readable with no lock at all: readers pin an epoch
  // and walk the posting sets. This narrow mutex serializes only index
  // *mutation* (IndexUpdate, TTL-heap pushes and pops, Reset) —
  // no read path acquires it. The per-key mutexes already order same-key
  // index updates against each other; this one orders cross-key writers
  // inside the shared posting structures.
  std::mutex idx_writer_mu_;
  kv::EpochPostingMap by_user_;
  kv::EpochPostingMap by_purpose_;
  kv::EpochPostingMap by_sharing_;
  std::priority_queue<TtlItem, std::vector<TtlItem>, std::greater<TtlItem>>
      ttl_heap_;  // guarded by idx_writer_mu_
  // Mirrors of writer-side accounting, atomically readable by gauges and
  // EngineBytes without touching idx_writer_mu_.
  std::atomic<size_t> ttl_backlog_{0};
  std::atomic<size_t> index_bytes_{0};

  // Tombstones live in MemKV (persisted in the AOF, carried across
  // rewrites); this layer only tracks the erasure/compaction contract.
  ErasureBarrier barrier_;

  // Records found unreadable (decrypt/parse failure) during the Open-time
  // index rebuild: they are resident but in no index, so indexed
  // collections report them as read failures rather than silently missing
  // them. Sticky until Reset/clean reopen — conservative by design.
  // Atomic because lock-free collections read it mid-flight.
  std::atomic<size_t> index_unreadable_records_{0};
};

}  // namespace gdpr
