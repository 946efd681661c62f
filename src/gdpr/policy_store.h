// PolicyStore: the GDPR policy layer, written once over a narrow engine
// seam. Every Table 2 op body lives here — role and purpose access checks
// (gdpr/access.h), an audit entry on every exit, the per-op timers, the
// striped key locks, MetadataUpdate application, expiry filtering, masking,
// the predicate re-match of index hits, and the revalidate-under-key-lock
// erasure loops — so the rules cannot drift between engines.
//
// Engines (KvGdprStore over MemKV, RelGdprStore over reldb) plug in through
// the protected hooks below: they store, fetch, index, tombstone and scan
// records, and never decide who may do what. Index hits are hints: a
// collection may return records that no longer match (or have expired), and
// this layer re-checks every one against the fetched record before serving
// or erasing it.
//
// A collection read is one walk over record images (gdpr/record.h): the
// engine yields plaintext images, and each is read once as a RecordView and
// checked there. ReadCollection copies the records that pass into the
// caller's vector; AppendImages, a cluster node's wire answer, appends
// their images and builds no record at all.

#pragma once

#include <array>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"
#include "gdpr/store.h"

namespace gdpr {

class PolicyStore : public AuditedStore {
 public:
  Status CreateRecord(const Actor& actor, const GdprRecord& record) final;
  StatusOr<GdprRecord> ReadDataByKey(const Actor& actor,
                                     const std::string& key) final;
  StatusOr<GdprMetadata> ReadMetadataByKey(const Actor& actor,
                                           const std::string& key) final;
  // The collection walk (see AppendImages), reading each image into the
  // next slot of *out and giving the slot back when the record does not
  // pass. DataLoss when unreadable records were met; *out then holds every
  // readable one.
  Status ReadCollection(const Actor& actor, CollectionKind kind,
                        const std::string& value,
                        std::vector<GdprRecord>* out) final;
  Status UpdateMetadataByKey(const Actor& actor, const std::string& key,
                             const MetadataUpdate& update) final;
  Status UpdateDataByKey(const Actor& actor, const std::string& key,
                         const std::string& data) final;
  Status DeleteRecordByKey(const Actor& actor, const std::string& key) final;
  StatusOr<size_t> DeleteRecordsByUser(const Actor& actor,
                                       const std::string& user) final;
  StatusOr<size_t> DeleteExpiredRecords(const Actor& actor) final;
  StatusOr<bool> VerifyDeletion(const Actor& actor,
                                const std::string& key) final;
  StatusOr<std::vector<AuditEntry>> GetSystemLogs(const Actor& actor,
                                                  int64_t from_micros,
                                                  int64_t to_micros) final;
  StatusOr<Features> GetFeatures(const Actor& actor) final;

  // The same walk as ReadCollection: check and audit, then every record the
  // engine yields is read once as a view and must pass expiry, the
  // attribute re-match and the processor objection filter (G 21); the
  // metadata kinds mask it. Each record that passes is appended to *images
  // as the wire's record list carries it — its image, length-prefixed, with
  // an empty data field when masked — and counted in *count. No GdprRecord
  // is built.
  Status AppendImages(const Actor& actor, CollectionKind kind,
                      const std::string& value, std::string* images,
                      uint64_t* count);

  // Engine log compaction, then the audit chain's retention pass.
  StatusOr<CompactionStats> CompactNow(const Actor& actor) final;

  // Refreshes the common gdpr_* gauges, then the engine's, and snapshots
  // the one registry both record into.
  obs::RegistrySnapshot StatsSnapshot() final;

 protected:
  // The metadata attribute a collection selects on.
  enum class Attr { kUser, kPurpose, kSharing };
  // Receives one plaintext record image, valid only during the call.
  using ImageFn = std::function<void(std::string_view image)>;
  // Receives one readable record as a view, valid only during the call.
  using ViewFn = std::function<void(RecordView& view)>;

  // metrics: the caller-supplied registry, or nullptr for the store's own.
  // engine_name feeds GET-SYSTEM-FEATURES.
  PolicyStore(Clock* clock, const ComplianceFlags& flags,
              obs::MetricsRegistry* metrics, const char* engine_name);

  // ---- Engine hooks (beside AuditedStore's body hooks) ---------------------
  // The stored record, expired or not. NotFound when absent.
  virtual StatusOr<GdprRecord> GetRaw(const std::string& key) = 0;
  // Upsert under the caller's key lock. prev is the record stored under
  // rec.key when the caller already fetched it (the key is live, so it
  // carries no tombstone); nullptr when unknown, in which case the engine
  // retires any prior incarnation itself and clears the key's tombstone.
  virtual Status Put(const GdprRecord& rec, const GdprRecord* prev) = 0;
  // Delete + unindex + durable tombstone + the engine's erasure note, under
  // the caller's key lock. Fails without recording evidence when the erasure
  // cannot be made durable.
  virtual Status Erase(const GdprRecord& rec) = 0;
  // Feeds fn the image of every record whose attr may equal value — hints,
  // expired records included; the engine picks index or scan, and an index
  // first calls expect(n) with how many keys it is about to fetch. Returns
  // DataLoss when it met records it could not read; fn has then seen the
  // readable ones.
  virtual Status Collect(Attr attr, const std::string& value,
                         const std::function<void(size_t n)>& expect,
                         const ImageFn& fn) = 0;
  // Calls fn(key) for every record that may have expired by now, stopping
  // at (and returning) the first failure. DataLoss when unreadable records
  // may hide expired ones; fn has then not run.
  virtual Status ForEachExpired(
      int64_t now, const std::function<Status(const std::string&)>& fn) = 0;
  // Feeds fn the image of every stored record, expired included. DataLoss
  // when some were unreadable.
  virtual Status Scan(const ImageFn& fn) = 0;
  virtual StatusOr<bool> HasTombstone(const std::string& key) = 0;
  virtual size_t TombstoneCount() = 0;
  virtual Status CompactLog() = 0;
  // Refreshes engine gauges and snapshots the shared registry.
  virtual obs::RegistrySnapshot EngineSnapshot() = 0;

  // ---- Shared helpers ------------------------------------------------------
  bool indexing() const { return flags_.metadata_indexing; }
  int64_t NowMicros() { return clock_->NowMicros(); }
  // Same-key writers serialize here: every mutation is a read-modify-write
  // across the record and its index entries.
  std::mutex& KeyMutex(const std::string& key) {
    return key_mu_[Fnv1a(key) % key_mu_.size()];
  }
  // Scan with fn seeing each image as a view (see ReadViews).
  Status ScanViews(const ViewFn& fn);
  // DataLoss naming how many records could not be read; OK for zero.
  static Status CollectionStatus(size_t unreadable);

  // One registry for the whole stack, declared before the engine the
  // subclass owns so it outlives it; metrics_ points at the caller's
  // registry when one was supplied, else at registry_.
  obs::MetricsRegistry registry_;
  obs::MetricsRegistry* metrics_;

 private:
  static bool Matches(Attr attr, const std::string& value,
                      const RecordView& v);
  // Runs hook, an engine hook that feeds images (Collect or Scan), with fn
  // seeing each as a view: an image that does not read counts as
  // unreadable, and the verdict is the hook's, or DataLoss naming that
  // count.
  static Status ReadViews(const std::function<Status(const ImageFn&)>& hook,
                          const ViewFn& fn);
  // The body of ReadCollection and AppendImages, handing records to
  // answer: Slot() names the record the next image is copied into as it is
  // read (nullptr for none), Take(view) takes a record that passed every
  // rule, and Drop() gives back the slot of one that did not read or did
  // not pass. expect is handed to Collect.
  template <class Answer>
  Status WalkCollection(const Actor& actor, CollectionKind kind,
                        const std::string& value,
                        const std::function<void(size_t n)>& expect,
                        Answer& answer);
  // AuditedStore::Audit, counting every refusal in denied_ first.
  void Audit(const Actor& actor, const char* op, const std::string& key,
             bool allowed);
  // Fetches key for a by-key op and checks access; audits any refusal.
  StatusOr<GdprRecord> FetchForOp(const Actor& actor, const char* op,
                                  const std::string& key,
                                  bool include_expired);
  obs::Histogram* op_hist(ops::OpClass c) {
    return op_hist_[static_cast<int>(c)];
  }

  const char* const engine_name_;
  obs::Histogram* op_hist_[static_cast<int>(ops::OpClass::kCount)] = {};
  // gdpr_denied_total.
  obs::Counter* denied_ = nullptr;
  // Forget (G 17) end-to-end and SAR/portability export latencies, recorded
  // in addition to the per-op-class histogram.
  obs::Histogram* forget_us_ = nullptr;
  obs::Histogram* export_us_ = nullptr;
  std::array<std::mutex, 64> key_mu_;
};

}  // namespace gdpr
