// RelGdprStore: the reldb engine under the GDPR policy layer (the paper's
// modified PostgreSQL). Records are rows in a gdpr_records table with a
// B+tree primary index on the key; every Table 2 rule is PolicyStore's, and
// this class supplies only the engine hooks. With
// compliance.metadata_indexing the engine adds a user index, an expiry
// index, and element indexes on the purposes and shared list columns (one
// entry per element), so collections are index probes — the Fig 5c / Fig 8
// configuration. Without it the same Select is a sequential scan. A row
// that fails at-rest decryption makes the collection that met it return
// DataLoss.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gdpr/policy_store.h"
#include "relstore/database.h"

namespace gdpr {

struct RelGdprOptions {
  Clock* clock = nullptr;
  ComplianceFlags compliance;
  // Inner engine knobs (WAL, statement log, ...). clock/encryption are
  // plumbed from the fields above.
  rel::RelOptions rel;
  // Durable audit chain: with audit.path set, the hash chain persists to
  // <path>.seg<N> and re-verifies across restarts. env and sync_policy are
  // plumbed from the rel options; set path / rotate_bytes / retention_micros
  // freely. Empty path = in-memory chain.
  AuditLogOptions audit;
};

class RelGdprStore : public PolicyStore {
 public:
  explicit RelGdprStore(const RelGdprOptions& options);
  ~RelGdprStore() override;

  Status Open() override;
  size_t RecordCount() override;
  Status Reset() override;

  rel::Database* raw() { return db_.get(); }
  const RelGdprOptions& options() const { return options_; }

 protected:
  StatusOr<GdprRecord> GetRaw(const std::string& key) override;
  // Upsert: an Update of the live row, or delete + insert without one.
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
  // Erasure-aware checkpoint: snapshot table heaps (tombstone table
  // included), truncate the WAL.
  Status CompactLog() override;
  CompactionStats LogCompactionStats() override;
  HealthReport EngineHealth() override;
  size_t EngineBytes() override;
  obs::RegistrySnapshot EngineSnapshot() override;
  Status CloseEngine() override;

 private:
  rel::Row ToRow(const GdprRecord& rec) const;
  // The one row decoder: fills *rec, overwriting every field; with_data =
  // false leaves data empty without copying the payload.
  void FromRow(const rel::Row& row, bool with_data, GdprRecord* rec) const;

  RelGdprOptions options_;
  std::unique_ptr<rel::Database> db_;
  rel::Table* records_ = nullptr;
  // Erasure evidence as rows: WAL-replayed and checkpoint-serialized like
  // any other table, so tombstones survive restarts AND compaction.
  rel::Table* tombstones_ = nullptr;

  ErasureBarrier barrier_;
};

}  // namespace gdpr
