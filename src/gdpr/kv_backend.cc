#include "gdpr/kv_backend.h"

#include <algorithm>
#include <optional>

#include "common/hash.h"

namespace gdpr {

namespace {

// Slot membership, for both slot exports: the router's own slot hash.
auto InSlot(uint32_t slot, uint32_t num_slots) {
  return [slot, num_slots](std::string_view key) {
    return SlotForKey(key, num_slots) == slot;
  };
}

}  // namespace

KvGdprStore::KvGdprStore(const KvGdprOptions& options)
    : PolicyStore(options.clock,
                  WithEngineEncryption(options.compliance,
                                       options.kv.encrypt_at_rest),
                  options.kv.metrics, "memkv"),
      options_(options) {
  kv::Options kvo = options_.kv;
  kvo.clock = clock_;
  kvo.encrypt_at_rest = flags_.encrypt_at_rest;
  kvo.metrics = metrics_;
  db_ = std::make_unique<kv::MemKV>(kvo);
}

KvGdprStore::~KvGdprStore() { WarnIfError(Close(), "KvGdprStore::Close"); }

Status KvGdprStore::Open() {
  Status s = db_->Open();
  if (!s.ok()) return s;
  // Audit evidence is a durability responsibility like the data it
  // audits: replay + re-verify the chain before serving a single op.
  s = OpenDurableAudit(options_.audit, options_.kv.env,
                       options_.kv.sync_policy);
  if (!s.ok()) return s;
  if (indexing() && db_->Size() > 0) {
    // AOF replay restored records below us; rebuild the secondary indexes
    // (including entries for expired-but-unreclaimed records, so erasure
    // and upserts can still unindex them).
    size_t parse_failures = 0;
    const size_t decrypt_failures =
        db_->Scan([&](const std::string&, const std::string& value) {
          auto rec = GdprRecord::Parse(value);
          if (rec.ok()) IndexUpdate(nullptr, &rec.value());
          else ++parse_failures;
          return true;
        });
    // A record that would not decrypt or parse is resident but in NO
    // index: every indexed collection would silently miss it. Open stays
    // permissive (the operator needs a live store to remediate), but the
    // count poisons indexed collections with DataLoss until the store is
    // reset or reopened clean — the same honesty the scan paths have.
    index_unreadable_records_ = decrypt_failures + parse_failures;
  }
  return Status::OK();
}

Status KvGdprStore::CloseEngine() { return db_->Close(); }

StatusOr<GdprRecord> KvGdprStore::GetRaw(const std::string& key) {
  auto raw = db_->Get(key);
  if (!raw.ok()) return raw.status();
  return GdprRecord::Parse(raw.value());
}

// Index mutation serializes on idx_writer_mu_ (readers never touch it —
// they walk the posting sets under an epoch pin). index_bytes_ is only
// ever written under the mutex, so plain load/adjust/store is race-free;
// the atomic exists for lock-free readers.
void KvGdprStore::AdjustIndexBytes(size_t added, size_t dropped) {
  const size_t cur = index_bytes_.load(std::memory_order_relaxed) + added;
  index_bytes_.store(cur - std::min(cur, dropped), std::memory_order_relaxed);
}

void KvGdprStore::PushTtl(TtlItem item) {
  AdjustIndexBytes(item.key.size() + 16, 0);
  ttl_heap_.push(std::move(item));
  ttl_backlog_.store(ttl_heap_.size(), std::memory_order_relaxed);
}

// Touches only the (value, key) pairs that differ between prev and next:
// an update that rotates shared_with costs two posting-set operations,
// whatever the record's user and purposes. A null prev indexes next from
// scratch; a null next unindexes prev. Stale TTL items of prev stay in the
// heap and are skipped (and uncharged) when they pop.
void KvGdprStore::IndexUpdate(const GdprRecord* prev, const GdprRecord* next) {
  static const std::vector<std::string> kNone;
  const GdprMetadata* from = prev ? &prev->metadata : nullptr;
  const GdprMetadata* to = next ? &next->metadata : nullptr;
  const std::string& key = next ? next->key : prev->key;
  const auto charge = [&](const std::string& v) {
    return v.size() + key.size() + 16;
  };
  size_t added = 0, dropped = 0;
  const auto diff = [&](kv::EpochPostingMap& index,
                        const std::vector<std::string>& old_values,
                        const std::vector<std::string>& new_values) {
    const auto has = [](const std::vector<std::string>& v,
                        const std::string& x) {
      return std::find(v.begin(), v.end(), x) != v.end();
    };
    for (const auto& v : old_values) {
      if (!has(new_values, v) && index.Remove(v, key)) dropped += charge(v);
    }
    for (const auto& v : new_values) {
      if (!has(old_values, v) && index.Add(v, key)) added += charge(v);
    }
  };
  std::lock_guard<std::mutex> l(idx_writer_mu_);
  if (!from || !to || from->user != to->user) {
    if (from && by_user_.Remove(from->user, key)) dropped += charge(from->user);
    if (to && by_user_.Add(to->user, key)) added += charge(to->user);
  }
  diff(by_purpose_, from ? from->purposes : kNone, to ? to->purposes : kNone);
  diff(by_sharing_, from ? from->shared_with : kNone,
       to ? to->shared_with : kNone);
  AdjustIndexBytes(added, dropped);
  const int64_t expiry = to ? to->expiry_micros : 0;
  if (expiry != 0 && expiry != (from ? from->expiry_micros : 0)) {
    PushTtl(TtlItem{expiry, key});
  }
}

Status KvGdprStore::Put(const GdprRecord& rec, const GdprRecord* prev) {
  const bool live = prev != nullptr;
  std::optional<GdprRecord> old;
  if (!live && indexing()) {
    // Fetch raw, expired included: an expired-but-unreclaimed incarnation
    // must still be unindexed or its stale entries would misattribute rec.
    auto fetched = GetRaw(rec.key);
    if (fetched.ok()) prev = &old.emplace(std::move(fetched.value()));
  }
  Status s = db_->Set(rec.key, rec.Serialize());
  if (!s.ok()) return s;
  if (indexing()) IndexUpdate(prev, &rec);
  return live ? Status::OK() : db_->ClearTombstone(rec.key);
}

Status KvGdprStore::Erase(const GdprRecord& rec) {
  Status s = db_->Delete(rec.key);
  if (!s.ok() && !s.IsNotFound()) {
    // The record is still resident and still served: do NOT record
    // tombstone evidence for an erasure that did not happen.
    return s;
  }
  if (indexing()) IndexUpdate(&rec, nullptr);
  // Data gone but evidence unwritable: surface it — VerifyDeletion would
  // deny the erasure ever happened after a restart.
  s = db_->AddTombstone(rec.key);
  if (s.ok()) db_->NoteErasure();
  return s;
}

Status KvGdprStore::Collect(Attr attr, const std::string& value,
                            const std::function<void(size_t)>& expect,
                            const ImageFn& fn) {
  // The O(n) path the paper measures: every record is a hint, and the
  // policy layer's re-match filters them.
  if (!indexing()) return Scan(fn);
  const kv::EpochPostingMap& index = attr == Attr::kUser      ? by_user_
                                     : attr == Attr::kPurpose ? by_purpose_
                                                              : by_sharing_;
  size_t unreadable = index_unreadable_records_.load(std::memory_order_relaxed);
  // Lock-free probe: one pin covers the posting walk and the fetch, so the
  // batch reads each key where its posting node holds it — a posting key is
  // immutable and is freed only through the epoch manager. Index writers
  // (upserts, erasure, expiry) proceed concurrently throughout.
  EpochGuard guard;
  std::vector<const std::string*> keys;
  index.ForEachKey(value, [&](const std::string& k) {
    keys.push_back(&k);
    return true;
  });
  expect(keys.size());
  db_->GetBatch(keys, [&](size_t, const Status& s, std::string_view raw) {
    // raw is the stored image, or its plaintext in GetBatch's scratch when
    // sealed: fn reads it before the next key overwrites it.
    if (s.ok()) {
      fn(raw);
    } else if (!s.IsNotFound()) {  // not found: erased since the probe
      ++unreadable;  // the record exists but cannot be read back
    }
  });
  return CollectionStatus(unreadable);
}

Status KvGdprStore::ForEachExpired(
    int64_t now, const std::function<Status(const std::string&)>& fn) {
  if (!indexing()) {
    // O(n) sweep: read every record's expiry to find the dead ones. An
    // unreadable record's TTL is unknowable — fail before claiming a clean
    // sweep.
    std::vector<std::string> dead;
    Status s = ScanViews([&](RecordView& v) {
      const int64_t expiry = v.expiry_micros();
      if (expiry != 0 && expiry <= now) dead.emplace_back(v.key());
    });
    for (size_t i = 0; s.ok() && i < dead.size(); ++i) s = fn(dead[i]);
    return s;
  }
  // An unreadable record never made it into the TTL heap; its expiry is
  // unknowable and this sweep cannot honestly claim completeness.
  Status s = CollectionStatus(index_unreadable_records_);
  // O(expired): drain the TTL heap; fn revalidates and skips stale entries.
  while (s.ok()) {
    TtlItem item;
    {
      std::lock_guard<std::mutex> l(idx_writer_mu_);
      if (ttl_heap_.empty() || ttl_heap_.top().expiry_micros > now) break;
      item = ttl_heap_.top();
      ttl_heap_.pop();
      ttl_backlog_.store(ttl_heap_.size(), std::memory_order_relaxed);
      AdjustIndexBytes(0, item.key.size() + 16);
    }
    s = fn(item.key);
    if (!s.ok()) {
      // Still resident: keep it queued for the next sweep.
      std::lock_guard<std::mutex> l(idx_writer_mu_);
      PushTtl(std::move(item));
    }
  }
  return s;
}

Status KvGdprStore::Scan(const ImageFn& fn) {
  return CollectionStatus(
      db_->Scan([&](const std::string&, const std::string& value) {
        fn(value);
        return true;
      }));
}

StatusOr<bool> KvGdprStore::HasTombstone(const std::string& key) {
  return db_->HasTombstone(key);
}

size_t KvGdprStore::TombstoneCount() { return db_->TombstoneCount(); }

StatusOr<net::SlotContents> KvGdprStore::ExportSlot(uint32_t slot,
                                                    uint32_t num_slots) {
  if (Status s = CheckSlot(slot, num_slots); !s.ok()) return s;
  const auto in_slot = InSlot(slot, num_slots);
  net::SlotContents out;
  // A partial export would migrate a slot minus its unreadable records —
  // the copy would silently drop data the source still legally holds.
  Status s = ScanViews([&](RecordView& v) {
    if (in_slot(v.key())) v.CopyTo(&out.records.emplace_back());
  });
  if (!s.ok()) return s;
  out.tombstones = db_->Tombstones(in_slot);
  return out;
}

Status KvGdprStore::ImportSlot(const net::SlotContents& contents) {
  for (const GdprRecord& rec : contents.records) {
    std::lock_guard<std::mutex> key_lock(KeyMutex(rec.key));
    Status s = Put(rec, nullptr);
    if (!s.ok()) return s;
  }
  for (const std::string& key : contents.tombstones) {
    std::lock_guard<std::mutex> key_lock(KeyMutex(key));
    Status s = EvictLocked(key);
    if (s.ok()) s = db_->AddTombstone(key);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

Status KvGdprStore::EvictRecords(const std::vector<std::string>& keys) {
  Status first = Status::OK();
  for (const std::string& key : keys) {
    std::lock_guard<std::mutex> key_lock(KeyMutex(key));
    Status s = EvictLocked(key);
    if (first.ok()) first = s;
  }
  return first;
}

Status KvGdprStore::EvictLocked(const std::string& key) {
  auto rec = GetRaw(key);
  if (rec.status().IsNotFound()) return Status::OK();
  if (!rec.ok()) return rec.status();
  Status s = db_->Delete(key);
  if (!s.ok() && !s.IsNotFound()) return s;  // still resident: don't unindex
  if (indexing()) IndexUpdate(&rec.value(), nullptr);
  return Status::OK();
}

StatusOr<net::AuditChainVerdict> KvGdprStore::VerifyAuditChain() {
  net::AuditChainVerdict v;
  v.chain_ok = audit_log_.VerifyChain();
  v.head_hash = audit_log_.head_hash();
  return v;
}

size_t KvGdprStore::RecordCount() { return db_->Size(); }

size_t KvGdprStore::EngineBytes() {
  return db_->ApproximateBytes() +
         index_bytes_.load(std::memory_order_relaxed);
}

Status KvGdprStore::CompactLog() { return db_->CompactAof(); }

CompactionStats KvGdprStore::LogCompactionStats() {
  return db_->GetCompactionStats();
}

// Mutations are gated inside MemKV, so a degraded report here always comes
// with Unavailable on the write paths.
HealthReport KvGdprStore::EngineHealth() { return db_->Health(); }

obs::RegistrySnapshot KvGdprStore::EngineSnapshot() {
  metrics_->GetGauge("gdpr_ttl_backlog")
      ->Set(static_cast<int64_t>(ttl_backlog_.load(std::memory_order_relaxed)));
  metrics_->GetGauge("gdpr_index_bytes")
      ->Set(static_cast<int64_t>(index_bytes_.load(std::memory_order_relaxed)));
  metrics_->GetGauge("gdpr_index_entries{index=\"user\"}")
      ->Set(static_cast<int64_t>(by_user_.entries()));
  metrics_->GetGauge("gdpr_index_entries{index=\"purpose\"}")
      ->Set(static_cast<int64_t>(by_purpose_.entries()));
  metrics_->GetGauge("gdpr_index_entries{index=\"sharing\"}")
      ->Set(static_cast<int64_t>(by_sharing_.entries()));
  metrics_->GetGauge("gdpr_index_retired_nodes")
      ->Set(static_cast<int64_t>(by_user_.retired_nodes() +
                                 by_purpose_.retired_nodes() +
                                 by_sharing_.retired_nodes()));
  // db_ shares metrics_, so its snapshot carries the whole stack; it also
  // refreshes the engine-side derived gauges (entries, bytes, epoch).
  return db_->StatsSnapshot();
}

}  // namespace gdpr
