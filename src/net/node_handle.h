// NodeHandle: the transport-agnostic face of one cluster node. The router
// (src/cluster/cluster_store.cc) routes, fans out, migrates slots, verifies
// audit chains, and merges metrics exclusively through this interface — it
// never touches a KvGdprStore* — so a node can live in-process today and
// behind a socket (RemoteHandle, src/net/rpc_client.h) or on another
// machine tomorrow without the router changing.
//
// Surface notes vs. GdprStore:
//   * ScanRecords keeps the callback signature, but a remote node ships the
//     full readable record set in one response and the handle replays the
//     callback locally — op status (including DataLoss partial-scan
//     verdicts) rides alongside the records.
//   * Migration exports are slot-scoped (slot, num_slots) instead of
//     predicate-scoped: a predicate cannot cross the wire, and both sides
//     computing membership with net::SlotForKey — the exact function the
//     router routes by — means they can never disagree about a slot's keys.
//   * ExportTombstones gains a Status (the in-process call cannot fail; a
//     remote one can).
//   * VerifyAuditChain returns verdict + head hash so transport-equivalence
//     tests can compare evidence across handle types byte-for-byte.

#pragma once

#include <functional>
#include <string>
#include <vector>

#include "gdpr/kv_backend.h"
#include "gdpr/store.h"
#include "net/wire.h"

namespace gdpr::net {

struct AuditChainVerdict {
  bool chain_ok = false;
  std::string head_hash;
};

class NodeHandle {
 public:
  virtual ~NodeHandle() = default;

  virtual Status Open() = 0;
  virtual Status Close() = 0;

  // The Table 2 vocabulary.
  virtual Status CreateRecord(const Actor& actor,
                              const GdprRecord& record) = 0;
  virtual StatusOr<GdprRecord> ReadDataByKey(const Actor& actor,
                                             const std::string& key) = 0;
  virtual StatusOr<GdprMetadata> ReadMetadataByKey(const Actor& actor,
                                                   const std::string& key) = 0;
  virtual StatusOr<std::vector<GdprRecord>> ReadMetadataByUser(
      const Actor& actor, const std::string& user) = 0;
  virtual StatusOr<std::vector<GdprRecord>> ReadMetadataByPurpose(
      const Actor& actor, const std::string& purpose) = 0;
  virtual StatusOr<std::vector<GdprRecord>> ReadMetadataBySharing(
      const Actor& actor, const std::string& third_party) = 0;
  virtual StatusOr<std::vector<GdprRecord>> ReadRecordsByUser(
      const Actor& actor, const std::string& user) = 0;
  virtual Status UpdateMetadataByKey(const Actor& actor,
                                     const std::string& key,
                                     const MetadataUpdate& update) = 0;
  virtual Status UpdateDataByKey(const Actor& actor, const std::string& key,
                                 const std::string& data) = 0;
  virtual Status DeleteRecordByKey(const Actor& actor,
                                   const std::string& key) = 0;
  // Acks only once the node's tombstones are decided durable: in-process
  // that is the store's own commit-pipeline blocking, remote it is the
  // response frame the server only sends after that same call returns.
  virtual StatusOr<size_t> DeleteRecordsByUser(const Actor& actor,
                                               const std::string& user) = 0;
  virtual StatusOr<size_t> DeleteExpiredRecords(const Actor& actor) = 0;
  virtual StatusOr<bool> VerifyDeletion(const Actor& actor,
                                        const std::string& key) = 0;
  virtual StatusOr<std::vector<AuditEntry>> GetSystemLogs(
      const Actor& actor, int64_t from_micros, int64_t to_micros) = 0;
  virtual StatusOr<Features> GetFeatures(const Actor& actor) = 0;
  virtual Status ScanRecords(
      const Actor& actor,
      const std::function<bool(const GdprRecord&)>& fn) = 0;

  // Introspection.
  virtual size_t RecordCount() = 0;
  virtual size_t TotalBytes() = 0;
  virtual Status Reset() = 0;
  virtual HealthState GetHealth() = 0;
  virtual Status GetHealthCause() = 0;
  virtual obs::RegistrySnapshot StatsSnapshot() = 0;

  // Erasure-aware compaction.
  virtual StatusOr<CompactionStats> CompactNow(const Actor& actor) = 0;
  virtual CompactionStats GetCompactionStats() = 0;

  // Slot migration (router-driven; not GDPR-audited node-side).
  virtual StatusOr<std::vector<GdprRecord>> ExportSlotRecords(
      uint32_t slot, uint32_t num_slots) = 0;
  virtual StatusOr<std::vector<std::string>> ExportSlotTombstones(
      uint32_t slot, uint32_t num_slots) = 0;
  virtual Status ImportRecord(const GdprRecord& record) = 0;
  virtual Status AdoptTombstone(const std::string& key) = 0;
  virtual Status EvictRecord(const std::string& key) = 0;
  virtual Status ClearTombstone(const std::string& key) = 0;

  // Audit evidence.
  virtual StatusOr<AuditChainVerdict> VerifyAuditChain() = 0;
};

// Direct-call handle: zero copies, zero frames — exactly the pre-seam
// behavior and performance. Does not own the store.
class InProcessHandle final : public NodeHandle {
 public:
  explicit InProcessHandle(KvGdprStore* store) : store_(store) {}

  Status Open() override { return store_->Open(); }
  Status Close() override { return store_->Close(); }

  Status CreateRecord(const Actor& actor, const GdprRecord& record) override {
    return store_->CreateRecord(actor, record);
  }
  StatusOr<GdprRecord> ReadDataByKey(const Actor& actor,
                                     const std::string& key) override {
    return store_->ReadDataByKey(actor, key);
  }
  StatusOr<GdprMetadata> ReadMetadataByKey(const Actor& actor,
                                           const std::string& key) override {
    return store_->ReadMetadataByKey(actor, key);
  }
  StatusOr<std::vector<GdprRecord>> ReadMetadataByUser(
      const Actor& actor, const std::string& user) override {
    return store_->ReadMetadataByUser(actor, user);
  }
  StatusOr<std::vector<GdprRecord>> ReadMetadataByPurpose(
      const Actor& actor, const std::string& purpose) override {
    return store_->ReadMetadataByPurpose(actor, purpose);
  }
  StatusOr<std::vector<GdprRecord>> ReadMetadataBySharing(
      const Actor& actor, const std::string& third_party) override {
    return store_->ReadMetadataBySharing(actor, third_party);
  }
  StatusOr<std::vector<GdprRecord>> ReadRecordsByUser(
      const Actor& actor, const std::string& user) override {
    return store_->ReadRecordsByUser(actor, user);
  }
  Status UpdateMetadataByKey(const Actor& actor, const std::string& key,
                             const MetadataUpdate& update) override {
    return store_->UpdateMetadataByKey(actor, key, update);
  }
  Status UpdateDataByKey(const Actor& actor, const std::string& key,
                         const std::string& data) override {
    return store_->UpdateDataByKey(actor, key, data);
  }
  Status DeleteRecordByKey(const Actor& actor,
                           const std::string& key) override {
    return store_->DeleteRecordByKey(actor, key);
  }
  StatusOr<size_t> DeleteRecordsByUser(const Actor& actor,
                                       const std::string& user) override {
    return store_->DeleteRecordsByUser(actor, user);
  }
  StatusOr<size_t> DeleteExpiredRecords(const Actor& actor) override {
    return store_->DeleteExpiredRecords(actor);
  }
  StatusOr<bool> VerifyDeletion(const Actor& actor,
                                const std::string& key) override {
    return store_->VerifyDeletion(actor, key);
  }
  StatusOr<std::vector<AuditEntry>> GetSystemLogs(const Actor& actor,
                                                  int64_t from_micros,
                                                  int64_t to_micros) override {
    return store_->GetSystemLogs(actor, from_micros, to_micros);
  }
  StatusOr<Features> GetFeatures(const Actor& actor) override {
    return store_->GetFeatures(actor);
  }
  Status ScanRecords(
      const Actor& actor,
      const std::function<bool(const GdprRecord&)>& fn) override {
    return store_->ScanRecords(actor, fn);
  }

  size_t RecordCount() override { return store_->RecordCount(); }
  size_t TotalBytes() override { return store_->TotalBytes(); }
  Status Reset() override { return store_->Reset(); }
  HealthState GetHealth() override { return store_->GetHealth(); }
  Status GetHealthCause() override { return store_->GetHealthCause(); }
  obs::RegistrySnapshot StatsSnapshot() override {
    return store_->StatsSnapshot();
  }

  StatusOr<CompactionStats> CompactNow(const Actor& actor) override {
    return store_->CompactNow(actor);
  }
  CompactionStats GetCompactionStats() override {
    return store_->GetCompactionStats();
  }

  StatusOr<std::vector<GdprRecord>> ExportSlotRecords(
      uint32_t slot, uint32_t num_slots) override {
    return store_->ExportRecords([slot, num_slots](const std::string& key) {
      return SlotForKey(key, num_slots) == slot;
    });
  }
  StatusOr<std::vector<std::string>> ExportSlotTombstones(
      uint32_t slot, uint32_t num_slots) override {
    return store_->ExportTombstones(
        [slot, num_slots](const std::string& key) {
          return SlotForKey(key, num_slots) == slot;
        });
  }
  Status ImportRecord(const GdprRecord& record) override {
    return store_->ImportRecord(record);
  }
  Status AdoptTombstone(const std::string& key) override {
    return store_->AdoptTombstone(key);
  }
  Status EvictRecord(const std::string& key) override {
    return store_->EvictRecord(key);
  }
  Status ClearTombstone(const std::string& key) override {
    return store_->ClearTombstone(key);
  }

  StatusOr<AuditChainVerdict> VerifyAuditChain() override {
    AuditChainVerdict v;
    v.chain_ok = store_->audit_log()->VerifyChain();
    v.head_hash = store_->audit_log()->head_hash();
    return v;
  }

 private:
  KvGdprStore* store_;
};

}  // namespace gdpr::net
