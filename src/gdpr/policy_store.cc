#include "gdpr/policy_store.h"

#include <algorithm>

#include "gdpr/access.h"

namespace gdpr {

namespace {

bool Expired(const GdprMetadata& m, int64_t now) {
  return m.expiry_micros != 0 && m.expiry_micros <= now;
}

}  // namespace

PolicyStore::PolicyStore(Clock* clock, const ComplianceFlags& flags,
                         obs::MetricsRegistry* metrics,
                         const char* engine_name)
    : AuditedStore(clock, flags),
      metrics_(metrics ? metrics : &registry_),
      engine_name_(engine_name) {
  for (int i = 0; i < static_cast<int>(ops::OpClass::kCount); ++i) {
    std::string name = "gdpr_op_us{op=\"";
    name += ops::OpClassName(static_cast<ops::OpClass>(i));
    name += "\"}";
    op_hist_[i] = metrics_->GetHistogram(name);
  }
  denied_ = metrics_->GetCounter("gdpr_denied_total");
  forget_us_ = metrics_->GetHistogram("gdpr_forget_e2e_us");
  export_us_ = metrics_->GetHistogram("gdpr_export_us");
  audit_log_.AttachMetrics(metrics_);
  CommitPipeline::Options po;
  po.metrics = metrics_;
  po.clock = clock_;
  pipeline_ = std::make_unique<CommitPipeline>(po);
}

void PolicyStore::Audit(const Actor& actor, const char* op,
                        const std::string& key, bool allowed) {
  // Denials count even with auditing off: the counter is an operational
  // signal, the audit entry is compliance evidence.
  if (!allowed) denied_->Add(1);
  AuditedStore::Audit(actor, op, key, allowed);
}

bool PolicyStore::Matches(Attr attr, const std::string& value,
                          const GdprMetadata& m) {
  switch (attr) {
    case Attr::kUser: return m.user == value;
    case Attr::kPurpose: return m.HasPurpose(value);
    case Attr::kSharing: return m.SharedWith(value);
  }
  return false;
}

Status PolicyStore::CollectionStatus(size_t unreadable) {
  if (unreadable == 0) return Status::OK();
  return Status::DataLoss(std::to_string(unreadable) +
                          " record(s) failed at-rest decryption");
}

Status PolicyStore::ScanCollect(Attr attr, const std::string& value,
                                std::vector<GdprRecord>* out) {
  // The O(n) path the paper measures: walk every record, parse, filter.
  return Scan([&](GdprRecord& rec) {
    if (Matches(attr, value, rec.metadata)) out->push_back(std::move(rec));
    return true;
  });
}

StatusOr<GdprRecord> PolicyStore::FetchForOp(const Actor& actor,
                                             const char* op,
                                             const std::string& key,
                                             bool include_expired) {
  auto rec = GetRaw(key);
  if (rec.ok() && !include_expired &&
      Expired(rec.value().metadata, NowMicros())) {
    rec = Status::NotFound(key + " (expired)");
  }
  Status s = rec.ok() ? CheckGdprAccess(flags_, actor, op, &rec.value())
                      : rec.status();
  if (!s.ok()) {
    Audit(actor, op, key, false);
    return s;
  }
  return rec;
}

// Timer split across the op vocabulary: point ops (create / by-key reads
// and updates) run in well under a microsecond on memkv, where two clock
// reads per op are a measurable tax, so they use the 1-in-32 SampledTimer.
// The compliance ops (erasure, user/purpose/sharing queries, exports, logs)
// cost microseconds-plus and carry regulatory meaning per event, so every
// invocation is timed and their histogram counts are exact.
Status PolicyStore::CreateRecord(const Actor& actor,
                                 const GdprRecord& record) {
  obs::SampledTimer op_timer(op_hist(ops::OpClass::kCreate), clock_);
  Status access = CheckGdprAccess(flags_, actor, ops::kCreate, &record);
  if (!access.ok()) {
    Audit(actor, ops::kCreate, record.key, false);
    return access;
  }
  GdprRecord rec = record;
  if (rec.metadata.created_micros == 0) {
    rec.metadata.created_micros = NowMicros();
  }
  std::lock_guard<std::mutex> key_lock(KeyMutex(rec.key));
  Status s = Put(rec, nullptr);
  Audit(actor, ops::kCreate, rec.key, s.ok());
  return s;
}

StatusOr<GdprRecord> PolicyStore::ReadDataByKey(const Actor& actor,
                                                const std::string& key) {
  obs::SampledTimer op_timer(op_hist(ops::OpClass::kReadData), clock_);
  auto rec = FetchForOp(actor, ops::kReadData, key, false);
  if (rec.ok()) Audit(actor, ops::kReadData, key, true);
  return rec;
}

StatusOr<GdprMetadata> PolicyStore::ReadMetadataByKey(const Actor& actor,
                                                      const std::string& key) {
  obs::SampledTimer op_timer(op_hist(ops::OpClass::kReadMeta), clock_);
  auto rec = FetchForOp(actor, ops::kReadMeta, key, false);
  if (!rec.ok()) return rec.status();
  Audit(actor, ops::kReadMeta, key, true);
  return std::move(rec.value().metadata);
}

Status PolicyStore::ReadCollection(const Actor& actor, CollectionKind kind,
                                   const std::string& value,
                                   const RecordSink& sink) {
  // The attribute each kind selects on, and whether it masks personal data.
  // kAll selects nothing.
  struct Spec {
    Attr attr;
    bool mask;
  };
  static constexpr Spec kSpecs[] = {
      {Attr::kUser, true},      // kMetaByUser
      {Attr::kPurpose, true},   // kMetaByPurpose
      {Attr::kSharing, true},   // kMetaBySharing
      {Attr::kUser, false},     // kRecordsByUser
      {Attr::kUser, false},     // kAll
  };
  const Spec& spec = kSpecs[static_cast<size_t>(kind)];
  const ops::OpClass op_class = CollectionOpClass(kind);
  const char* const op = ops::OpClassName(op_class);
  obs::ScopedTimer op_timer(op_hist(op_class), clock_);
  obs::ScopedTimer export_timer(
      kind == CollectionKind::kRecordsByUser ? export_us_ : nullptr, clock_);
  Status access = CheckGdprAccess(flags_, actor, op, nullptr, &value);
  Audit(actor, op, value, access.ok());
  if (!access.ok()) return access;
  if (kind == CollectionKind::kAll) {
    const int64_t now = NowMicros();
    // At-rest corruption surfaces as DataLoss: the skipped records are
    // personal data this store can no longer produce — a compliance
    // incident, not a detail to swallow.
    return Scan([&](GdprRecord& rec) {
      return Expired(rec.metadata, now) || sink(rec);
    });
  }
  std::vector<GdprRecord> recs;
  const Status collected = Collect(spec.attr, value, spec.mask, &recs);
  // Collections are hints: a concurrent upsert may have re-attributed a key
  // since the index probe, and serving it under the old attribute would hand
  // subject A a record that now belongs to subject B.
  const int64_t now = NowMicros();
  recs.erase(std::remove_if(recs.begin(), recs.end(),
                            [&](const GdprRecord& r) {
                              return Expired(r.metadata, now) ||
                                     !Matches(spec.attr, value, r.metadata);
                            }),
             recs.end());
  if (spec.mask) {
    // An engine may already have left data empty; the rule is this one.
    for (auto& r : recs) r.data.clear();
  }
  Deliver(sink, std::move(recs));
  return collected;
}

Status PolicyStore::UpdateMetadataByKey(const Actor& actor,
                                        const std::string& key,
                                        const MetadataUpdate& update) {
  obs::SampledTimer op_timer(op_hist(ops::OpClass::kUpdateMeta), clock_);
  std::lock_guard<std::mutex> key_lock(KeyMutex(key));
  auto rec = FetchForOp(actor, ops::kUpdateMeta, key, false);
  if (!rec.ok()) return rec.status();
  GdprRecord updated = rec.value();
  GdprMetadata& m = updated.metadata;
  if (update.user) m.user = *update.user;
  if (update.purposes) m.purposes = *update.purposes;
  if (update.objections) m.objections = *update.objections;
  if (update.shared_with) m.shared_with = *update.shared_with;
  if (update.origin) m.origin = *update.origin;
  if (update.expiry_micros) m.expiry_micros = *update.expiry_micros;
  Status s = Put(updated, &rec.value());
  Audit(actor, ops::kUpdateMeta, key, s.ok());
  return s;
}

Status PolicyStore::UpdateDataByKey(const Actor& actor, const std::string& key,
                                    const std::string& data) {
  obs::SampledTimer op_timer(op_hist(ops::OpClass::kUpdateData), clock_);
  std::lock_guard<std::mutex> key_lock(KeyMutex(key));
  auto rec = FetchForOp(actor, ops::kUpdateData, key, false);
  if (!rec.ok()) return rec.status();
  GdprRecord updated = rec.value();
  updated.data = data;
  Status s = Put(updated, &rec.value());
  Audit(actor, ops::kUpdateData, key, s.ok());
  return s;
}

Status PolicyStore::DeleteRecordByKey(const Actor& actor,
                                      const std::string& key) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kDeleteKey), clock_);
  obs::ScopedTimer forget_timer(forget_us_, clock_);
  std::lock_guard<std::mutex> key_lock(KeyMutex(key));
  // Expired-but-unreclaimed records included: the right to be forgotten
  // applies to them too — their bytes and index entries must go now, with
  // evidence.
  auto rec = FetchForOp(actor, ops::kDeleteKey, key, true);
  if (!rec.ok()) return rec.status();
  Status s = Erase(rec.value());
  Audit(actor, ops::kDeleteKey, key, s.ok());
  return s;
}

StatusOr<size_t> PolicyStore::DeleteRecordsByUser(const Actor& actor,
                                                  const std::string& user) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kDeleteUser), clock_);
  obs::ScopedTimer forget_timer(forget_us_, clock_);
  Status access =
      CheckGdprAccess(flags_, actor, ops::kDeleteUser, nullptr, &user);
  if (!access.ok()) {
    Audit(actor, ops::kDeleteUser, user, false);
    return access;
  }
  // Only the victims' keys are read: each is re-fetched under its lock.
  std::vector<GdprRecord> victims;
  const Status collected = Collect(Attr::kUser, user, /*mask=*/true, &victims);
  size_t erased = 0;
  for (const auto& victim : victims) {
    std::lock_guard<std::mutex> key_lock(KeyMutex(victim.key));
    // Revalidate under the key lock: a concurrent upsert may have handed
    // the key to another subject since collection.
    auto cur = GetRaw(victim.key);
    Status s = cur.status();
    if (cur.ok()) {
      if (cur.value().metadata.user != user) continue;
      s = Erase(cur.value());
    } else if (s.IsNotFound()) {
      continue;  // erased concurrently
    }
    if (!s.ok()) {
      // A resident record left unreadable or unerased: partial erasure
      // must not read as success.
      Audit(actor, ops::kDeleteUser, user, false);
      return s;
    }
    ++erased;
  }
  // An unreadable record may belong to this user: the readable ones are
  // gone, but claiming complete erasure would be false.
  Audit(actor, ops::kDeleteUser, user, collected.ok());
  if (!collected.ok()) return collected;
  return erased;
}

StatusOr<size_t> PolicyStore::DeleteExpiredRecords(const Actor& actor) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kDeleteExpired), clock_);
  Status s = CheckGdprAccess(flags_, actor, ops::kDeleteExpired, nullptr);
  size_t reclaimed = 0;
  if (s.ok()) {
    const int64_t now = NowMicros();
    s = ForEachExpired(now, [&](const std::string& key) {
      std::lock_guard<std::mutex> key_lock(KeyMutex(key));
      auto rec = GetRaw(key);
      if (!rec.ok()) {
        // Already reclaimed, or resident but unreadable — which this sweep
        // cannot honestly claim.
        return rec.status().IsNotFound() ? Status::OK() : rec.status();
      }
      // Re-created or TTL extended since the engine listed it.
      if (!Expired(rec.value().metadata, now)) return Status::OK();
      Status es = Erase(rec.value());
      if (es.ok()) ++reclaimed;
      return es;
    });
  }
  Audit(actor, ops::kDeleteExpired, "", s.ok());
  if (!s.ok()) return s;
  return reclaimed;
}

StatusOr<bool> PolicyStore::VerifyDeletion(const Actor& actor,
                                           const std::string& key) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kVerifyDeletion), clock_);
  Status access = CheckGdprAccess(flags_, actor, ops::kVerifyDeletion, nullptr);
  Audit(actor, ops::kVerifyDeletion, key, access.ok());
  if (!access.ok()) return access;
  auto rec = GetRaw(key);
  if (rec.ok()) return false;
  // An unreadable record is not a deleted one.
  if (!rec.status().IsNotFound()) return rec.status();
  return HasTombstone(key);
}

StatusOr<std::vector<AuditEntry>> PolicyStore::GetSystemLogs(
    const Actor& actor, int64_t from_micros, int64_t to_micros) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kGetLogs), clock_);
  Status access = CheckGdprAccess(flags_, actor, ops::kGetLogs, nullptr);
  if (!access.ok()) {
    Audit(actor, ops::kGetLogs, "", false);
    return access;
  }
  std::vector<AuditEntry> out = audit_log_.Query(from_micros, to_micros);
  Audit(actor, ops::kGetLogs, "", true);
  return out;
}

StatusOr<Features> PolicyStore::GetFeatures(const Actor& actor) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kGetFeatures), clock_);
  Audit(actor, ops::kGetFeatures, "", true);
  return BuildFeatures(engine_name_, flags_);
}

StatusOr<CompactionStats> PolicyStore::CompactNow(const Actor& actor) {
  obs::ScopedTimer op_timer(op_hist(ops::OpClass::kCompactLogs), clock_);
  Status s = CheckGdprAccess(flags_, actor, ops::kCompact, nullptr);
  if (s.ok()) s = CompactLog();
  if (!s.ok()) {
    Audit(actor, ops::kCompact, "", false);
    return s;
  }
  StatusOr<CompactionStats> out = CompactAuditChain(LogCompactionStats());
  Audit(actor, ops::kCompact, "", out.ok());
  return out;
}

obs::RegistrySnapshot PolicyStore::StatsSnapshot() {
  metrics_->GetGauge("gdpr_records")->Set(static_cast<int64_t>(RecordCount()));
  metrics_->GetGauge("gdpr_tombstones")
      ->Set(static_cast<int64_t>(TombstoneCount()));
  metrics_->GetGauge("gdpr_store_health")
      ->Set(static_cast<int64_t>(GetHealth().state));
  metrics_->GetGauge("gdpr_audit_unsealed_tail")
      ->Set(static_cast<int64_t>(audit_log_.unsealed_tail()));
  const int64_t oldest = audit_log_.oldest_unsealed_micros();
  metrics_->GetGauge("gdpr_audit_seal_lag_us")
      ->Set(oldest == 0 ? 0 : std::max<int64_t>(0, NowMicros() - oldest));
  return EngineSnapshot();
}

}  // namespace gdpr
