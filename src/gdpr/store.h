// GdprStore: the paper's GDPR query API (Table 2), a pure interface
// implemented once by the policy layer (gdpr/policy_store.h) over the KV and
// relational engines, by the cluster router over its nodes, and by the
// socket handle to a remote node (net/rpc_client.h). All operations carry
// the acting party; access control and auditing happen inside the store,
// not in the caller. A collection read has one answer shape on every
// layer: the records, appended to the caller's vector.

#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "common/clock.h"
#include "common/health.h"
#include "common/status.h"
#include "gdpr/actor.h"
#include "gdpr/audit.h"
#include "gdpr/compliance.h"
#include "gdpr/ops.h"
#include "gdpr/record.h"
#include "obs/metrics.h"
#include "storage/compaction.h"

namespace gdpr {

// Partial metadata update: only the fields that are set change.
struct MetadataUpdate {
  std::optional<std::string> user;
  std::optional<std::vector<std::string>> purposes;
  std::optional<std::vector<std::string>> objections;
  std::optional<std::vector<std::string>> shared_with;
  std::optional<std::string> origin;
  std::optional<int64_t> expiry_micros;
};

// The collection a ReadCollection call reads: the records of one subject,
// purpose or third party, with data masked (the three metadata queries) or
// not (kRecordsByUser, the export path); or every record (kAll, the scan).
enum class CollectionKind : uint8_t {
  kMetaByUser,
  kMetaByPurpose,
  kMetaBySharing,
  kRecordsByUser,
  kAll,
};

// The op a collection read is audited and timed as.
inline ops::OpClass CollectionOpClass(CollectionKind kind) {
  static constexpr ops::OpClass kClass[] = {
      ops::OpClass::kReadMetaUser, ops::OpClass::kReadMetaPurpose,
      ops::OpClass::kReadMetaSharing, ops::OpClass::kReadRecordsUser,
      ops::OpClass::kScanRecords};
  return kClass[static_cast<size_t>(kind)];
}

class GdprStore {
 public:
  virtual ~GdprStore() = default;

  virtual Status Open() = 0;
  virtual Status Close() = 0;

  // CREATE-RECORD (upsert).
  virtual Status CreateRecord(const Actor& actor, const GdprRecord& record) = 0;

  // READ-DATA-BY-KEY: the personal datum plus metadata.
  virtual StatusOr<GdprRecord> ReadDataByKey(const Actor& actor,
                                             const std::string& key) = 0;
  // READ-METADATA-BY-KEY.
  virtual StatusOr<GdprMetadata> ReadMetadataByKey(const Actor& actor,
                                                   const std::string& key) = 0;
  // The collection reads: READ-METADATA-BY-USER / -PURPOSE / -SHR (personal
  // data masked), the G 15/20 export (full records for a user) and the
  // controller's scan over every record (retention audits). One virtual
  // serves all five; the named wrappers below are the paper's API.
  //
  // Appends every readable record that matches to *out, after what it
  // already holds. A non-OK status does not mean nothing was appended:
  // DataLoss (records that failed at-rest decryption) and a cluster's
  // Unavailable (a node that did not answer) both follow the readable
  // records. A denial appends nothing.
  virtual Status ReadCollection(const Actor& actor, CollectionKind kind,
                                const std::string& value,
                                std::vector<GdprRecord>* out) = 0;

  StatusOr<std::vector<GdprRecord>> ReadMetadataByUser(
      const Actor& actor, const std::string& user) {
    return CollectAll(actor, CollectionKind::kMetaByUser, user);
  }
  StatusOr<std::vector<GdprRecord>> ReadMetadataByPurpose(
      const Actor& actor, const std::string& purpose) {
    return CollectAll(actor, CollectionKind::kMetaByPurpose, purpose);
  }
  StatusOr<std::vector<GdprRecord>> ReadMetadataBySharing(
      const Actor& actor, const std::string& third_party) {
    return CollectAll(actor, CollectionKind::kMetaBySharing, third_party);
  }
  StatusOr<std::vector<GdprRecord>> ReadRecordsByUser(
      const Actor& actor, const std::string& user) {
    return CollectAll(actor, CollectionKind::kRecordsByUser, user);
  }
  // Reads the whole scan, then replays it into fn until fn returns false.
  Status ScanRecords(const Actor& actor,
                     const std::function<bool(const GdprRecord&)>& fn) {
    std::vector<GdprRecord> recs;
    const Status s =
        ReadCollection(actor, CollectionKind::kAll, std::string(), &recs);
    for (const GdprRecord& rec : recs) {
      if (!fn(rec)) break;
    }
    return s;
  }

  // UPDATE-METADATA-BY-KEY (G 16/18/21: rectification, consent, objection).
  virtual Status UpdateMetadataByKey(const Actor& actor, const std::string& key,
                                     const MetadataUpdate& update) = 0;
  // UPDATE-DATA-BY-KEY.
  virtual Status UpdateDataByKey(const Actor& actor, const std::string& key,
                                 const std::string& data) = 0;

  // DELETE-RECORD-BY-KEY / DELETE-RECORDS-BY-USER (G 17).
  virtual Status DeleteRecordByKey(const Actor& actor,
                                   const std::string& key) = 0;
  virtual StatusOr<size_t> DeleteRecordsByUser(const Actor& actor,
                                               const std::string& user) = 0;
  // Timely-deletion sweep (G 5(1e)); returns records reclaimed.
  virtual StatusOr<size_t> DeleteExpiredRecords(const Actor& actor) = 0;

  // Regulator verification that a key is gone and its erasure is evidenced.
  virtual StatusOr<bool> VerifyDeletion(const Actor& actor,
                                        const std::string& key) = 0;

  // GET-SYSTEM-LOGS over [from, to] (G 30/33).
  virtual StatusOr<std::vector<AuditEntry>> GetSystemLogs(
      const Actor& actor, int64_t from_micros, int64_t to_micros) = 0;

  // GET-SYSTEM-FEATURES (Table 1 compliance matrix).
  virtual StatusOr<Features> GetFeatures(const Actor& actor) = 0;

  // Erasure-aware log compaction: rewrites the persistence log(s) so no
  // pre-barrier frame of an erased record remains on disk (tombstones and
  // audit evidence survive). Controller-only; returns post-pass stats.
  // No-op success when the store has no on-disk log.
  virtual StatusOr<CompactionStats> CompactNow(const Actor& actor) = 0;
  virtual CompactionStats GetCompactionStats() = 0;

  // Live record count / resident bytes (Table 3 space factor).
  virtual size_t RecordCount() = 0;
  virtual size_t TotalBytes() = 0;

  // Store health (docs/PERSISTENCE.md, "Failure policy"): kHealthy, or
  // kDegradedReadOnly once a durability path failed — mutations and Forget
  // return Unavailable while reads and metadata queries keep serving from
  // memory — or kFailed when replay-on-open could not rebuild memory. One
  // report: the state with the cause that explains it (OK when healthy).
  virtual HealthReport GetHealth() = 0;

  // Uniform metrics view: counters, gauges, and latency histograms for this
  // store and every layer beneath it (engine, logs, audit chain; for the
  // cluster router, merged across all nodes). Derived gauges (backlogs,
  // seal lag, health) are refreshed at call time.
  virtual obs::RegistrySnapshot StatsSnapshot() = 0;

  // The clock audit entries, expiry checks and op timers read.
  virtual Clock* clock() = 0;

 private:
  // The named reads: every record read, or the status when it is not OK.
  StatusOr<std::vector<GdprRecord>> CollectAll(const Actor& actor,
                                               CollectionKind kind,
                                               const std::string& value) {
    std::vector<GdprRecord> out;
    Status s = ReadCollection(actor, kind, value, &out);
    if (!s.ok()) return s;
    return out;
  }
};

// AuditedStore: the compliance shell of the stores that keep a local G 30
// hash chain — the policy layer over each engine, and the cluster router
// for its own MOVE-SLOTS / COMPACT-ALL trail. It builds every audit entry
// and folds the chain into the store's close, bytes, compaction account
// and health; what lies under the shell (an engine, or the cluster's
// nodes) plugs in through the four body hooks below. A remote node handle
// keeps none: its chain lives on the node.
//
// Destructors call Close() from the most-derived class: from here the body
// hooks would be pure.
class AuditedStore : public virtual GdprStore {
 public:
  // Seals and syncs the audit tail first — the close itself is the last
  // event the chain can evidence — then closes the body. The body's first
  // failure wins; otherwise the chain's.
  Status Close() final {
    Status audit = audit_log_.CloseDurable();
    Status body = CloseEngine();
    return body.ok() ? audit : body;
  }
  size_t TotalBytes() final {
    return EngineBytes() + audit_log_.ApproximateBytes();
  }
  // The worse of the body's report and the chain's persistence latch (the
  // chain contributes to *reporting* only; it never gates the body's
  // writes itself).
  HealthReport GetHealth() final {
    return Worse(EngineHealth(), audit_log_.health());
  }
  CompactionStats GetCompactionStats() final {
    return WithChainAccount(LogCompactionStats());
  }

  AuditLog* audit_log() { return &audit_log_; }
  Clock* clock() final { return clock_; }

 protected:
  // clock: nullptr for the wall clock.
  AuditedStore(Clock* clock, const ComplianceFlags& flags)
      : flags_(flags), clock_(clock ? clock : RealClock::Default()) {}

  // ---- Body hooks ----------------------------------------------------------
  virtual Status CloseEngine() = 0;
  // Resident bytes of records and indexes, audit trail excluded.
  virtual size_t EngineBytes() = 0;
  virtual HealthReport EngineHealth() = 0;
  // Log-side compaction stats; the shell adds the chain's.
  virtual CompactionStats LogCompactionStats() = 0;

  // One audit entry, when auditing is on.
  void Audit(const Actor& actor, const char* op, const std::string& key,
             bool allowed) {
    if (!flags_.audit_enabled) return;
    AuditEntry e;
    e.timestamp_micros = clock_->NowMicros();
    e.actor_id = actor.id;
    e.role = actor.role;
    e.op = op;
    e.key = key;
    e.allowed = allowed;
    audit_log_.Append(std::move(e));
  }

  // CompactNow's last step, after the body's pass: carries the chain across
  // it (retention drops aged-out groups and re-anchors, leaving the
  // surviving chain verifiable), then adds the chain's account to the
  // body's post-pass stats.
  StatusOr<CompactionStats> CompactAuditChain(CompactionStats body) {
    auto ac = audit_log_.Compact(clock_->NowMicros());
    if (!ac.ok()) return ac.status();
    return WithChainAccount(body);
  }

  // Shared open plumbing for the durable chain: resolves the env and sync
  // policy from the backend's engine options (the chain persists with the
  // store's sync policy), times its syncs on the store's clock, and
  // attaches the segment files. No-op with no path configured.
  Status OpenDurableAudit(AuditLogOptions audit, Env* engine_env,
                          SyncPolicy engine_sync_policy) {
    if (audit.path.empty()) return Status::OK();
    if (!audit.env) audit.env = engine_env ? engine_env : Env::Posix();
    audit.sync_policy = engine_sync_policy;
    audit.clock = clock_;
    return audit_log_.OpenDurable(audit);
  }

  // The G 30 hash chain. Backends with a durable-audit path configured
  // attach it to segment files in their Open() (AuditLog::OpenDurable), so
  // the tamper-evidence chain survives restarts alongside the data it
  // audits; CompactNow carries it across log compaction via the re-anchor
  // contract (docs/PERSISTENCE.md, "Audit chain durability").
  AuditLog audit_log_;
  const ComplianceFlags flags_;
  Clock* const clock_;

 private:
  CompactionStats WithChainAccount(CompactionStats stats) {
    stats.audit_segments += audit_log_.segment_count();
    stats.audit_dropped_entries += audit_log_.dropped_entries_total();
    return stats;
  }
};

}  // namespace gdpr
