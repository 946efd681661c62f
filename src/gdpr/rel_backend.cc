#include "gdpr/rel_backend.h"

#include <limits>

#include "common/string_util.h"

namespace gdpr {

namespace {

// Column order in gdpr_records.
enum Col : size_t {
  kKey = 0,
  kUser,
  kData,
  kOrigin,
  kPurposes,
  kObjections,
  kShared,
  kExpiry,
  kCreated,
};

// "No expiry" sorts last so an indexed range probe (expiry <= now) touches
// only truly expired rows.
constexpr int64_t kNoExpiry = std::numeric_limits<int64_t>::max();

// Both tables keep the key in column 0.
rel::Predicate ByKey(const std::string& key) {
  return rel::Compare(kKey, rel::CompareOp::kEq, rel::Value(key));
}

}  // namespace

RelGdprStore::RelGdprStore(const RelGdprOptions& options)
    : PolicyStore(options.clock, options.compliance, options.rel.metrics,
                  "reldb"),
      options_(options) {
  rel::RelOptions ro = options_.rel;
  ro.clock = clock_;
  ro.encrypt_at_rest =
      ro.encrypt_at_rest || options_.compliance.encrypt_at_rest;
  ro.metrics = metrics_;
  // One committer thread serves the WAL, the statement log, and the audit
  // chain: frames from all three batch into shared write+fsync calls.
  ro.pipeline = pipeline_.get();
  db_ = std::make_unique<rel::Database>(ro);
}

RelGdprStore::~RelGdprStore() {
  WarnIfError(Close(), "RelGdprStore::Close");
}

Status RelGdprStore::Open() {
  Status s = db_->Open();
  if (!s.ok()) return s;
  s = OpenDurableAudit(options_.audit, options_.rel.env,
                       options_.rel.sync_policy, pipeline_.get());
  if (!s.ok()) return s;
  using rel::Schema;
  using rel::ValueType;
  auto t = db_->CreateTable(
      "gdpr_records", Schema({{"key", ValueType::kString},
                              {"user", ValueType::kString},
                              {"data", ValueType::kString},
                              {"origin", ValueType::kString},
                              {"purposes", ValueType::kString},
                              {"objections", ValueType::kString},
                              {"shared", ValueType::kString},
                              {"expiry", ValueType::kInt64},
                              {"created", ValueType::kInt64}}));
  if (!t.ok()) return t.status();
  records_ = t.value();
  Status si = db_->CreateIndex("gdpr_records", "key");
  if (!si.ok()) return si;
  // Erasure evidence rides the same WAL/checkpoint machinery as the data:
  // created unconditionally so replay always has a home for its rows.
  auto tomb = db_->CreateTable("gdpr_tombstones",
                               Schema({{"key", ValueType::kString}}));
  if (!tomb.ok()) return tomb.status();
  tombstones_ = tomb.value();
  si = db_->CreateIndex("gdpr_tombstones", "key");
  if (!si.ok()) return si;
  // Older stores also logged every purpose and sharing party as a row of a
  // join table. gdpr_records holds the same lists, so replay drops those
  // rows and the next checkpoint leaves them off disk.
  db_->DiscardPending("gdpr_purpose_idx");
  db_->DiscardPending("gdpr_sharing_idx");
  if (indexing()) {
    si = db_->CreateIndex("gdpr_records", "user");
    if (si.ok()) si = db_->CreateIndex("gdpr_records", "expiry");
    // The multi-valued metadata: one entry per purpose or sharing party.
    if (si.ok()) si = db_->CreateIndex("gdpr_records", "purposes", true);
    if (si.ok()) si = db_->CreateIndex("gdpr_records", "shared", true);
  }
  return si;
}

Status RelGdprStore::CloseEngine() { return db_->Close(); }

rel::Row RelGdprStore::ToRow(const GdprRecord& rec) const {
  const GdprMetadata& m = rec.metadata;
  return rel::Row{rel::Value(rec.key),
                  rel::Value(m.user),
                  rel::Value(rec.data),
                  rel::Value(m.origin),
                  rel::Value(JoinStrings(m.purposes, '|')),
                  rel::Value(JoinStrings(m.objections, '|')),
                  rel::Value(JoinStrings(m.shared_with, '|')),
                  rel::Value(m.expiry_micros == 0 ? kNoExpiry
                                                  : m.expiry_micros),
                  rel::Value(m.created_micros)};
}

void RelGdprStore::FromRow(const rel::Row& row, bool with_data,
                           GdprRecord* rec) const {
  rec->key = row[kKey].AsString();
  if (with_data) {
    rec->data = row[kData].AsString();
  } else {
    rec->data.clear();
  }
  GdprMetadata& m = rec->metadata;
  m.user = row[kUser].AsString();
  m.origin = row[kOrigin].AsString();
  m.purposes = SplitString(row[kPurposes].AsString(), '|');
  m.objections = SplitString(row[kObjections].AsString(), '|');
  m.shared_with = SplitString(row[kShared].AsString(), '|');
  const int64_t expiry = row[kExpiry].AsInt64();
  m.expiry_micros = expiry == kNoExpiry ? 0 : expiry;
  m.created_micros = row[kCreated].AsInt64();
}

StatusOr<GdprRecord> RelGdprStore::GetRaw(const std::string& key) {
  auto rows = db_->Select(records_, ByKey(key), 1);
  if (!rows.ok()) return rows.status();
  if (rows.value().empty()) return Status::NotFound(key);
  GdprRecord rec;
  FromRow(rows.value()[0], /*with_data=*/true, &rec);
  return rec;
}

Status RelGdprStore::Put(const GdprRecord& rec, const GdprRecord* prev) {
  if (prev) {
    // The live row changes in place: one 'U' frame, so a failure or a crash
    // leaves the old record or the new one, never neither.
    auto updated = db_->Update(records_, ByKey(rec.key),
                               [&](rel::Row* row) { *row = ToRow(rec); });
    if (!updated.ok() || updated.value() != 0) return updated.status();
  }
  // No live row known: retire any prior incarnation, insert, and clear the
  // key's tombstone.
  Status s = db_->Delete(records_, ByKey(rec.key)).status();
  if (s.ok()) s = db_->Insert(records_, ToRow(rec));
  if (s.ok()) s = db_->Delete(tombstones_, ByKey(rec.key)).status();
  return s;
}

Status RelGdprStore::Erase(const GdprRecord& rec) {
  Status s = db_->Delete(records_, ByKey(rec.key)).status();
  if (!s.ok()) return s;
  auto evidenced = HasTombstone(rec.key);
  if (!evidenced.ok()) return evidenced.status();
  // Data gone but evidence unwritable: surface it — VerifyDeletion would
  // deny the erasure ever happened.
  if (!evidenced.value()) s = db_->Insert(tombstones_, {rel::Value(rec.key)});
  if (!s.ok()) return s;
  // The erased record's frames sit in the WAL below this offset until the
  // next checkpoint rewrites them away.
  if (options_.rel.wal_enabled) {
    barrier_.RecordErasure(db_->WalBytes(), db_->CheckpointStarts());
  }
  return Status::OK();
}

// One Select: MatchRowIds probes the column's index when indexing() built
// one and scans otherwise. Each row decodes once, into the slot that keeps
// it; a masked query's payload is never copied.
Status RelGdprStore::Collect(Attr attr, const std::string& value, bool mask,
                             std::vector<GdprRecord>* out) {
  const rel::Predicate pred =
      attr == Attr::kUser
          ? rel::Compare(kUser, rel::CompareOp::kEq, rel::Value(value))
          : rel::Compare(attr == Attr::kPurpose ? kPurposes : kShared,
                         rel::CompareOp::kHas, rel::Value(value));
  // The visiting Select: the readable rows arrive before a DataLoss.
  return db_->Select(records_, pred, 0, [this, mask, out](rel::Row& row) {
    FromRow(row, /*with_data=*/!mask, &out->emplace_back());
    return true;
  });
}

Status RelGdprStore::ForEachExpired(
    int64_t now, const std::function<Status(const std::string&)>& fn) {
  // Indexed: a range probe over the expiry B+tree, O(expired) — rows with
  // kNoExpiry sort above `now` and are never touched. Unindexed: a scan.
  auto rows = db_->Select(records_, rel::Compare(kExpiry, rel::CompareOp::kLe,
                                                 rel::Value(now)));
  if (!rows.ok()) return rows.status();
  for (const auto& row : rows.value()) {
    Status s = fn(row[kKey].AsString());
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status RelGdprStore::Scan(const std::function<bool(GdprRecord&)>& fn) {
  return db_->ScanRows(records_, [&](const rel::Row& row) {
    GdprRecord rec;
    FromRow(row, /*with_data=*/true, &rec);
    return fn(rec);
  });
}

StatusOr<bool> RelGdprStore::HasTombstone(const std::string& key) {
  auto rows = db_->Select(tombstones_, ByKey(key), 1);
  if (!rows.ok()) return rows.status();
  return !rows.value().empty();
}

size_t RelGdprStore::TombstoneCount() {
  return tombstones_ ? tombstones_->live_rows() : 0;
}

size_t RelGdprStore::RecordCount() {
  return records_ ? records_->live_rows() : 0;
}

size_t RelGdprStore::EngineBytes() { return db_->ApproximateBytes(); }

Status RelGdprStore::Reset() {
  for (rel::Table* t : {records_, tombstones_}) {
    if (!t) continue;
    auto deleted = db_->DeleteWhere(t, [](const rel::Row&) { return true; });
    if (!deleted.ok()) return deleted.status();
  }
  return Status::OK();
}

Status RelGdprStore::CompactLog() { return db_->Checkpoint(); }

CompactionStats RelGdprStore::LogCompactionStats() {
  const rel::CheckpointStats ck = db_->GetCheckpointStats();
  CompactionStats out;
  out.compactions = ck.checkpoints;
  // The durable footprint after a checkpoint is snapshot + WAL tail.
  out.log_bytes = ck.wal_bytes + ck.last_snapshot_bytes;
  out.live_bytes = db_->ApproximateBytes();
  out.last_bytes_before = ck.last_wal_bytes_before;
  out.last_bytes_after = ck.last_wal_bytes_after + ck.last_snapshot_bytes;
  out.last_compaction_micros = ck.last_checkpoint_micros;
  out.erasure_barrier = barrier_.offset();
  out.erasures_pending_compaction =
      options_.rel.wal_enabled ? barrier_.Pending(ck.checkpoints) : 0;
  return out;
}

// Mutations are gated inside rel::Database on WAL/statement-log health.
HealthReport RelGdprStore::EngineHealth() { return db_->Health(); }

obs::RegistrySnapshot RelGdprStore::EngineSnapshot() {
  // db_ shares metrics_; its snapshot carries the whole stack and also
  // refreshes the engine-side derived gauges.
  return db_->StatsSnapshot();
}

}  // namespace gdpr
