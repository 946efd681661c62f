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

}  // namespace

RelGdprStore::RelGdprStore(const RelGdprOptions& options)
    : PolicyStore(options.clock, options.compliance, options.rel.metrics,
                  /*commit_max_batch_frames=*/0, "reldb",
                  /*secondary_indexes=*/true),
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
  // Normalized join tables for the multi-valued metadata columns. Created
  // unconditionally — even with indexing off — so WAL/snapshot replay from
  // an indexing-on incarnation always has a home for its rows (a pending
  // table would otherwise block Checkpoint forever). Rows are only
  // *maintained* when indexing() is on.
  auto p = db_->CreateTable("gdpr_purpose_idx",
                            Schema({{"purpose", ValueType::kString},
                                    {"key", ValueType::kString}}));
  if (!p.ok()) return p.status();
  purpose_idx_ = p.value();
  db_->CreateIndex("gdpr_purpose_idx", "purpose").ok();
  db_->CreateIndex("gdpr_purpose_idx", "key").ok();
  auto sh = db_->CreateTable("gdpr_sharing_idx",
                             Schema({{"party", ValueType::kString},
                                     {"key", ValueType::kString}}));
  if (!sh.ok()) return sh.status();
  sharing_idx_ = sh.value();
  db_->CreateIndex("gdpr_sharing_idx", "party").ok();
  db_->CreateIndex("gdpr_sharing_idx", "key").ok();
  if (indexing()) {
    si = db_->CreateIndex("gdpr_records", "user");
    if (!si.ok()) return si;
    si = db_->CreateIndex("gdpr_records", "expiry");
    if (!si.ok()) return si;
  }
  return Status::OK();
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

GdprRecord RelGdprStore::FromRow(const rel::Row& row) const {
  GdprRecord rec;
  rec.key = row[kKey].AsString();
  rec.data = row[kData].AsString();
  rec.metadata.user = row[kUser].AsString();
  rec.metadata.origin = row[kOrigin].AsString();
  rec.metadata.purposes = SplitString(row[kPurposes].AsString(), '|');
  rec.metadata.objections = SplitString(row[kObjections].AsString(), '|');
  rec.metadata.shared_with = SplitString(row[kShared].AsString(), '|');
  const int64_t expiry = row[kExpiry].AsInt64();
  rec.metadata.expiry_micros = expiry == kNoExpiry ? 0 : expiry;
  rec.metadata.created_micros = row[kCreated].AsInt64();
  return rec;
}

StatusOr<GdprRecord> RelGdprStore::GetRaw(const std::string& key) {
  auto rows = db_->Select(records_,
                          rel::Compare(kKey, rel::CompareOp::kEq,
                                       rel::Value(key), "key"),
                          1);
  if (!rows.ok()) return rows.status();
  if (rows.value().empty()) return Status::NotFound(key);
  return FromRow(rows.value()[0]);
}

Status RelGdprStore::DeleteRows(const std::string& key) {
  const rel::Value kv(key);
  for (rel::Table* t : {records_, purpose_idx_, sharing_idx_}) {
    const size_t key_col = t == records_ ? size_t(kKey) : 1;
    auto deleted =
        db_->Delete(t, rel::Compare(key_col, rel::CompareOp::kEq, kv, "key"));
    if (!deleted.ok()) return deleted.status();
  }
  return Status::OK();
}

Status RelGdprStore::Put(const GdprRecord& rec, const GdprRecord* prev) {
  Status s = DeleteRows(rec.key);
  if (s.ok()) s = db_->Insert(records_, ToRow(rec));
  // Join rows are an indexing cost (the Fig 3b effect): only paid when the
  // flag is on. The tables themselves always exist (see Open). A join row
  // that failed to land would hide the record from purpose and sharing
  // queries, so its status fails the upsert.
  if (indexing()) {
    for (const auto& p : rec.metadata.purposes) {
      if (!s.ok()) break;
      s = db_->Insert(purpose_idx_, {rel::Value(p), rel::Value(rec.key)});
    }
    for (const auto& tp : rec.metadata.shared_with) {
      if (!s.ok()) break;
      s = db_->Insert(sharing_idx_, {rel::Value(tp), rel::Value(rec.key)});
    }
  }
  if (s.ok() && !prev) {
    s = db_->Delete(tombstones_, rel::Compare(0, rel::CompareOp::kEq,
                                              rel::Value(rec.key), "key"))
            .status();
  }
  return s;
}

Status RelGdprStore::Erase(const GdprRecord& rec) {
  Status s = DeleteRows(rec.key);
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

// Rows decode whole, so mask saves nothing here and is ignored.
Status RelGdprStore::Collect(Attr attr, const std::string& value,
                             bool /*mask*/, std::vector<GdprRecord>* out) {
  if (!indexing()) return ScanCollect(attr, value, out);
  if (attr == Attr::kUser) {
    auto rows = db_->Select(records_,
                            rel::Compare(kUser, rel::CompareOp::kEq,
                                         rel::Value(value), "user"));
    if (!rows.ok()) return rows.status();
    out->reserve(out->size() + rows.value().size());
    for (const auto& row : rows.value()) out->push_back(FromRow(row));
    return Status::OK();
  }
  rel::Table* join = attr == Attr::kPurpose ? purpose_idx_ : sharing_idx_;
  auto rows = db_->Select(
      join, rel::Compare(0, rel::CompareOp::kEq, rel::Value(value), ""));
  if (!rows.ok()) return rows.status();
  for (const auto& row : rows.value()) {
    auto rec = GetRaw(row[1].AsString());
    if (rec.ok()) {
      out->push_back(std::move(rec.value()));
    } else if (!rec.status().IsNotFound()) {
      return rec.status();
    }
  }
  return Status::OK();
}

Status RelGdprStore::ForEachExpired(
    int64_t now, const std::function<Status(const std::string&)>& fn) {
  // Indexed: a range probe over the expiry B+tree, O(expired) — rows with
  // kNoExpiry sort above `now` and are never touched. Unindexed: a scan.
  auto rows = db_->Select(records_, rel::Compare(kExpiry, rel::CompareOp::kLe,
                                                 rel::Value(now), "expiry"));
  if (!rows.ok()) return rows.status();
  for (const auto& row : rows.value()) {
    Status s = fn(row[kKey].AsString());
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status RelGdprStore::Scan(const std::function<bool(GdprRecord&)>& fn) {
  return db_->ScanRows(records_, [&](const rel::Row& row) {
    GdprRecord rec = FromRow(row);
    return fn(rec);
  });
}

StatusOr<bool> RelGdprStore::HasTombstone(const std::string& key) {
  auto rows = db_->Select(
      tombstones_,
      rel::Compare(0, rel::CompareOp::kEq, rel::Value(key), "key"), 1);
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
  for (rel::Table* t : {records_, purpose_idx_, sharing_idx_, tombstones_}) {
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
HealthState RelGdprStore::EngineHealth() { return db_->Health(); }

Status RelGdprStore::EngineHealthCause() { return db_->HealthCause(); }

obs::RegistrySnapshot RelGdprStore::EngineSnapshot() {
  // db_ shares metrics_; its snapshot carries the whole stack and also
  // refreshes the engine-side derived gauges.
  return db_->StatsSnapshot();
}

}  // namespace gdpr
