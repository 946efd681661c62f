// The cluster router. Everything below routes, fans out, migrates, merges,
// and verifies exclusively through net::NodeHandle — this file never names
// a node's concrete store type (CI greps to keep it that way), which is
// what lets ClusterOptions::transport swap direct calls for framed sockets
// without touching a single routing path.

#include "cluster/cluster_store.h"

#include <algorithm>
#include <optional>

#include "common/epoch.h"
#include "common/string_util.h"
#include "gdpr/ops.h"
#include "net/rpc_client.h"

namespace gdpr::cluster {

namespace {

// "node 1, node 3": the nodes a fan-out op could not finish on.
std::string NodeNames(const std::vector<size_t>& nodes) {
  std::string names;
  for (size_t i = 0; i < nodes.size(); ++i) {
    if (i) names += ", ";
    names += "node " + std::to_string(nodes[i]);
  }
  return names;
}

// The partial-failure status of a fan-out op: names the failed nodes (the
// operator's retry targets) and says what the others did get done.
Status Incomplete(const char* what, const std::vector<size_t>& failed,
                  size_t nodes, const std::string& done, const Status& cause) {
  return Status(cause.code(),
                StringPrintf("%s incomplete: %zu of %zu nodes failed (", what,
                             failed.size(), nodes) +
                    done + "; failed: " + NodeNames(failed) +
                    "): " + cause.message());
}

// The status of a broadcast's parts. A denial is returned as is: access
// depends only on the actor and the flags, so it is every node's verdict.
// Otherwise failed parts make it Incomplete, naming the nodes (`*failed`)
// and saying what the others did (`done`).
template <typename T>
Status BroadcastStatus(const std::vector<StatusOr<T>>& parts,
                       const char* what, const std::string& done,
                       std::vector<size_t>* failed) {
  Status cause = Status::OK();
  for (size_t i = 0; i < parts.size(); ++i) {
    const Status& s = parts[i].status();
    if (s.IsPermissionDenied()) return s;
    if (s.ok()) continue;
    failed->push_back(i);
    if (cause.ok()) cause = s;
  }
  if (cause.ok()) return cause;
  return Incomplete(what, *failed, parts.size(), done, cause);
}

// The total of a counting broadcast; a partial failure says "<total>
// <done>" of the nodes that answered.
StatusOr<size_t> SumParts(const std::vector<StatusOr<size_t>>& parts,
                          const char* what, const char* done) {
  size_t total = 0;
  for (const auto& part : parts) total += part.value_or(0);
  std::vector<size_t> failed;
  const Status s = BroadcastStatus(parts, what,
                                   std::to_string(total) + " " + done, &failed);
  if (!s.ok()) return s;
  return total;
}

}  // namespace

ClusterGdprStore::ClusterGdprStore(const ClusterOptions& options)
    : AuditedStore(options.clock, options.compliance),
      options_(options),
      slot_map_(options.slots, uint32_t(options.nodes ? options.nodes : 1)) {
  const size_t n = options_.nodes ? options_.nodes : 1;
  stores_.reserve(n);
  nodes_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    stores_.push_back(MakeNodeStore(options_, clock_, i));
  }
  if (options_.transport == ClusterTransport::kLoopbackSocket) {
    // Every node gets its own RPC server and the router talks to it over a
    // connected socket pair: the full wire protocol — encode, frame,
    // decode, dispatch, frame back — sits between router and store, same
    // as it would across machines.
    servers_.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      servers_.push_back(std::make_unique<net::RpcServer>(stores_[i].get()));
      net::RpcServer* srv = servers_.back().get();
      const Status started = srv->Start();
      net::RemoteHandleOptions ro;
      ro.timeout_ms = options_.rpc_timeout_ms;
      ro.reconnect_fn = [srv] { return srv->CreateLoopbackConnection(); };
      ro.metrics = &registry_;
      ro.node_label = std::to_string(i);
      // A server that failed to start hands out no connections; the handle
      // starts dead and every call on it surfaces Unavailable — the same
      // shape as a node that died later, so no special construction path.
      const int fd = started.ok() ? srv->CreateLoopbackConnection() : -1;
      remotes_.push_back(
          std::make_unique<net::RemoteHandle>(fd, std::move(ro)));
      nodes_.push_back(remotes_.back().get());
    }
  } else {
    // In process, each node store is its own handle: direct calls.
    for (auto& store : stores_) nodes_.push_back(store.get());
  }
  slot_fence_.reserve(slot_map_.num_slots());
  for (uint32_t s = 0; s < slot_map_.num_slots(); ++s) {
    slot_fence_.push_back(std::make_unique<std::shared_mutex>());
  }
  fanout_hist_.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    fanout_hist_.push_back(registry_.GetHistogram(
        StringPrintf("cluster_node_fanout_us{node=\"%zu\"}", i)));
  }
  m_degraded_skips_ = registry_.GetCounter("cluster_degraded_skips_total");
  m_fanout_caller_ = registry_.GetCounter("cluster_fanout_caller_total");
  m_fanout_pool_ = registry_.GetCounter("cluster_fanout_pool_total");
  m_slots_moved_ = registry_.GetCounter("cluster_slots_moved_total");
  m_records_migrated_ =
      registry_.GetCounter("cluster_records_migrated_total");
  m_migration_active_ = registry_.GetGauge("cluster_migration_active");
  audit_log_.AttachMetrics(&registry_);
  // One fan-out worker per node, for the fan-outs FanOut hands off: a lone
  // in-process fan-out and every socket fan-out. Overlapping in-process
  // fan-outs run on their callers instead.
  pool_ = std::make_unique<ScatterGather>(n);
}

ClusterGdprStore::~ClusterGdprStore() {
  WarnIfError(Close(), "ClusterGdprStore::Close");
}

Status ClusterGdprStore::Open() {
  for (auto& node : nodes_) {
    Status s = node->Open();
    if (!s.ok()) return s;
  }
  // The router's own trail (MOVE-SLOTS, COMPACT-ALL) is evidence too. No
  // shared pipeline to ride here — the nodes each run their own — so the
  // chain spins up a private one.
  AuditLogOptions router_audit = options_.audit;
  if (!router_audit.path.empty()) router_audit.path += ".router";
  return OpenDurableAudit(router_audit, options_.kv.env,
                          options_.kv.sync_policy);
}

Status ClusterGdprStore::CloseEngine() {
  Status out = Status::OK();
  for (auto& node : nodes_) {
    Status s = node->Close();
    if (out.ok()) out = s;
  }
  return out;
}

template <typename T>
std::vector<T> ClusterGdprStore::FanOut(
    const std::function<T(net::NodeHandle*)>& fn) {
  std::vector<std::optional<T>> staged(nodes_.size());
  auto run_node = [this, &staged, &fn](size_t i) {
    // Per-node sub-query execution time: a slow or degraded node shows up
    // as a fat tail on its own label, not smeared across the gather. Over
    // a socket transport this wraps the whole RPC; the handle's own
    // cluster_rpc_us{node=i} isolates the wire share of it.
    obs::ScopedTimer fanout_timer(fanout_hist_[i], clock_);
    staged[i].emplace(fn(nodes_[i]));
  };
  // An in-process fan-out runs its node parts on the caller while another
  // one is in flight: each overlapping caller already keeps a core busy,
  // and handing its parts to the pool only adds runnable threads. A lone
  // fan-out still spreads over the pool. Socket node parts block on I/O
  // while the servers work, so those always go to the pool.
  const bool counted = options_.transport == ClusterTransport::kInProcess;
  if (counted &&
      fanouts_in_flight_.fetch_add(1, std::memory_order_relaxed) > 0) {
    for (size_t i = 0; i < nodes_.size(); ++i) run_node(i);
    m_fanout_caller_->Add(1);
  } else {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(nodes_.size());
    for (size_t i = 0; i < nodes_.size(); ++i) {
      tasks.push_back([&run_node, i] { run_node(i); });
    }
    pool_->Run(std::move(tasks));
    m_fanout_pool_->Add(1);
  }
  if (counted) fanouts_in_flight_.fetch_sub(1, std::memory_order_relaxed);
  std::vector<T> out;
  out.reserve(staged.size());
  for (auto& s : staged) out.push_back(std::move(*s));
  return out;
}

// ---- point ops: route by key slot -----------------------------------------

Status ClusterGdprStore::CreateRecord(const Actor& actor,
                                      const GdprRecord& record) {
  const uint32_t slot = SlotOf(record.key);
  std::shared_lock<std::shared_mutex> fence(*slot_fence_[slot]);
  return OwnerNode(slot)->CreateRecord(actor, record);
}

StatusOr<GdprRecord> ClusterGdprStore::ReadDataByKey(const Actor& actor,
                                                     const std::string& key) {
  const uint32_t slot = SlotOf(key);
  std::shared_lock<std::shared_mutex> fence(*slot_fence_[slot]);
  return OwnerNode(slot)->ReadDataByKey(actor, key);
}

StatusOr<GdprMetadata> ClusterGdprStore::ReadMetadataByKey(
    const Actor& actor, const std::string& key) {
  const uint32_t slot = SlotOf(key);
  std::shared_lock<std::shared_mutex> fence(*slot_fence_[slot]);
  return OwnerNode(slot)->ReadMetadataByKey(actor, key);
}

Status ClusterGdprStore::UpdateMetadataByKey(const Actor& actor,
                                             const std::string& key,
                                             const MetadataUpdate& update) {
  const uint32_t slot = SlotOf(key);
  std::shared_lock<std::shared_mutex> fence(*slot_fence_[slot]);
  return OwnerNode(slot)->UpdateMetadataByKey(actor, key, update);
}

Status ClusterGdprStore::UpdateDataByKey(const Actor& actor,
                                         const std::string& key,
                                         const std::string& data) {
  const uint32_t slot = SlotOf(key);
  std::shared_lock<std::shared_mutex> fence(*slot_fence_[slot]);
  return OwnerNode(slot)->UpdateDataByKey(actor, key, data);
}

Status ClusterGdprStore::DeleteRecordByKey(const Actor& actor,
                                           const std::string& key) {
  const uint32_t slot = SlotOf(key);
  std::shared_lock<std::shared_mutex> fence(*slot_fence_[slot]);
  return OwnerNode(slot)->DeleteRecordByKey(actor, key);
}

StatusOr<bool> ClusterGdprStore::VerifyDeletion(const Actor& actor,
                                                const std::string& key) {
  const uint32_t slot = SlotOf(key);
  std::shared_lock<std::shared_mutex> fence(*slot_fence_[slot]);
  return OwnerNode(slot)->VerifyDeletion(actor, key);
}

// ---- collection reads and broadcasts: scatter-gather ----------------------

Status ClusterGdprStore::ReadCollection(const Actor& actor,
                                        CollectionKind kind,
                                        const std::string& value,
                                        const RecordSink& sink) {
  std::shared_lock<std::shared_mutex> no_migration(migrate_mu_);
  struct Part {
    Status status;
    std::vector<GdprRecord> records;
  };
  auto parts = FanOut<Part>([&](net::NodeHandle* node) {
    // One epoch pin per node part: guards are reentrant, so an in-process
    // node's index probe and every per-key fetch under it ride this pin
    // instead of re-pinning. A remote node's store runs on the server's
    // thread; there the pin costs one announce. Erasure fan-outs do not
    // pin: an epoch held across fsyncs would stall reclamation.
    EpochGuard epoch;
    Part part;
    part.status =
        node->ReadCollection(actor, kind, value, AppendTo{&part.records});
    return part;
  });
  // Access decisions depend only on (actor, flags), so every node returns
  // the same verdict: the first denial (or any other hard error) wins, and
  // nothing is delivered.
  std::vector<size_t> missing;
  Status first_missing = Status::OK();
  Status first_loss = Status::OK();
  for (size_t i = 0; i < parts.size(); ++i) {
    const Status& s = parts[i].status;
    if (s.ok()) continue;
    if (s.IsDataLoss()) {
      if (first_loss.ok()) first_loss = s;
    } else if (s.IsUnavailable()) {
      // A node that did not answer: a dead link, or a store refusing
      // reads. Its records are a partition no other node holds.
      missing.push_back(i);
      m_degraded_skips_->Add(1);
      if (first_missing.ok()) first_missing = s;
    } else {
      return s;
    }
  }
  // Node i's records are kept only where node i owns their slot, so a slot
  // left on two nodes by a failed rollback or eviction serves the owner's
  // copy, exactly once. migrate_mu_ is held shared, so ownership cannot
  // flip mid-merge.
  size_t staged = 0;
  for (const Part& part : parts) staged += part.records.size();
  std::vector<GdprRecord> merged;
  merged.reserve(staged);
  for (size_t i = 0; i < parts.size(); ++i) {
    for (GdprRecord& rec : parts[i].records) {
      if (slot_map_.OwnerOf(SlotOf(rec.key)) == i) {
        merged.push_back(std::move(rec));
      }
    }
  }
  const size_t answered = merged.size();
  Deliver(sink, std::move(merged));
  if (missing.empty()) return first_loss;
  // An answer without some nodes' partitions must not read as complete, to
  // the caller or in the evidence.
  const char* op = ops::OpClassName(CollectionOpClass(kind));
  Audit(actor, op,
        (value.empty() ? "" : value + "; ") + "failed: " + NodeNames(missing),
        false);
  return Incomplete("collection read", missing, parts.size(),
                    StringPrintf("%zu records from the others", answered),
                    first_missing);
}

StatusOr<size_t> ClusterGdprStore::DeleteRecordsByUser(
    const Actor& actor, const std::string& user) {
  std::shared_lock<std::shared_mutex> no_migration(migrate_mu_);
  auto parts = FanOut<StatusOr<size_t>>([&](net::NodeHandle* node) {
    return node->DeleteRecordsByUser(actor, user);
  });
  // Forget must be durable on *every* node before it reads as success: a
  // degraded node that cannot tombstone keeps its copies, so report the
  // partial failure with what did get erased elsewhere — the caller (or a
  // retry after the node heals) finishes the job. The handle's durability
  // contract makes this transport-proof: in-process, an OK part returns
  // only after the node's group-commit pipeline decided its tombstone
  // frame durable; remote, only after the response frame the server sends
  // once that same call returned — a node killed or timing out mid-erasure
  // therefore lands in the failed list below, never in `erased`.
  return SumParts(parts, "user erasure", "records erased elsewhere");
}

StatusOr<size_t> ClusterGdprStore::DeleteExpiredRecords(const Actor& actor) {
  std::shared_lock<std::shared_mutex> no_migration(migrate_mu_);
  auto parts = FanOut<StatusOr<size_t>>([&](net::NodeHandle* node) {
    return node->DeleteExpiredRecords(actor);
  });
  return SumParts(parts, "expiry sweep", "records reclaimed elsewhere");
}

StatusOr<std::vector<AuditEntry>> ClusterGdprStore::GetSystemLogs(
    const Actor& actor, int64_t from_micros, int64_t to_micros) {
  auto parts =
      FanOut<StatusOr<std::vector<AuditEntry>>>([&](net::NodeHandle* node) {
        return node->GetSystemLogs(actor, from_micros, to_micros);
      });
  std::vector<size_t> failed;
  const Status s = BroadcastStatus(parts, "system-log read",
                                   "no entries returned", &failed);
  if (!s.ok()) return s;
  std::vector<AuditEntry> merged;
  for (const auto& part : parts) {
    merged.insert(merged.end(), part.value().begin(), part.value().end());
  }
  const std::vector<AuditEntry> router =
      audit_log_.Query(from_micros, to_micros);
  merged.insert(merged.end(), router.begin(), router.end());
  std::stable_sort(merged.begin(), merged.end(),
                   [](const AuditEntry& a, const AuditEntry& b) {
                     return a.timestamp_micros < b.timestamp_micros;
                   });
  return merged;
}

StatusOr<Features> ClusterGdprStore::GetFeatures(const Actor& actor) {
  Audit(actor, ops::kGetFeatures, "", true);
  return BuildFeatures("cluster-memkv", options_.compliance);
}

size_t ClusterGdprStore::RecordCount() {
  size_t total = 0;
  for (auto& node : nodes_) total += node->RecordCount();
  return total;
}

size_t ClusterGdprStore::EngineBytes() {
  size_t total = 0;
  for (auto& node : nodes_) total += node->TotalBytes();
  return total;
}

Status ClusterGdprStore::Reset() {
  std::unique_lock<std::shared_mutex> no_migration(migrate_mu_);
  for (auto& node : nodes_) {
    Status s = node->Reset();
    if (!s.ok()) return s;
  }
  return Status::OK();
}

StatusOr<CompactionStats> ClusterGdprStore::CompactNow(const Actor& actor) {
  // Held shared against MoveSlots: a slot migrating mid-compaction could
  // otherwise land its records on a node whose rewrite already passed,
  // resurrecting log frames the source just compacted away.
  std::shared_lock<std::shared_mutex> no_migration(migrate_mu_);
  auto parts = FanOut<StatusOr<CompactionStats>>([&](net::NodeHandle* node) {
    return node->CompactNow(actor);
  });
  std::vector<size_t> failed;
  const Status s =
      BroadcastStatus(parts, "compaction", "the others compacted", &failed);
  if (!s.ok()) {
    Audit(actor, ops::kCompactAll,
          s.IsPermissionDenied() ? "" : "failed: " + NodeNames(failed), false);
    return s;
  }
  CompactionStats merged;
  for (const auto& part : parts) merged.Merge(part.value());
  // Per-node chains were carried over inside each node's CompactNow; carry
  // the router's own chain too.
  auto out = CompactAuditChain(merged);
  Audit(actor, ops::kCompactAll,
        out.ok() ? StringPrintf("%zu nodes", nodes_.size()) : "", out.ok());
  return out;
}

CompactionStats ClusterGdprStore::LogCompactionStats() {
  auto parts = FanOut<CompactionStats>([&](net::NodeHandle* node) {
    return node->GetCompactionStats();
  });
  CompactionStats merged;
  for (const auto& part : parts) merged.Merge(part);
  return merged;
}

// ---- slot migration -------------------------------------------------------

Status ClusterGdprStore::MoveSlots(const std::vector<uint32_t>& slots,
                                   uint32_t dst_node) {
  if (dst_node >= nodes_.size()) {
    return Status::InvalidArgument("no such node");
  }
  std::unique_lock<std::shared_mutex> migration(migrate_mu_);
  // The gauge is 1 for the duration of the rebalance regardless of exit
  // path; the counters advance per slot so an operator can watch progress.
  struct ActiveGuard {
    obs::Gauge* g;
    explicit ActiveGuard(obs::Gauge* gauge) : g(gauge) { g->Set(1); }
    ~ActiveGuard() { g->Set(0); }
  } migration_active(m_migration_active_);
  size_t moved_records = 0;
  size_t moved_slots = 0;
  for (const uint32_t slot : slots) {
    if (slot >= slot_map_.num_slots()) {
      return Status::InvalidArgument("no such slot");
    }
    // Write-fence this one slot: point ops to it wait, point ops on every
    // other slot proceed (fan-outs are already held off by migrate_mu_).
    std::unique_lock<std::shared_mutex> fence(*slot_fence_[slot]);
    const uint32_t src_idx = slot_map_.OwnerOf(slot);
    if (src_idx == dst_node) continue;
    net::NodeHandle* src = nodes_[src_idx];
    net::NodeHandle* dst = nodes_[dst_node];
    // A slot-scoped export: the node computes membership with the same
    // SlotForKey the router routes by, so no predicate crosses the
    // transport and the two sides cannot disagree about the slot's keys.
    auto exported = src->ExportSlot(slot, slot_map_.num_slots());
    if (!exported.ok()) {
      // An unreadable record on the source: migrating would silently drop
      // it from the destination copy. Leave the slot where it is.
      Audit(Actor::Controller(), ops::kMoveSlots,
            StringPrintf("slot %u -> node %u (export failed)", slot, dst_node),
            false);
      return exported.status();
    }
    const std::vector<GdprRecord>& records = exported.value().records;
    std::vector<std::string> keys;
    keys.reserve(records.size());
    for (const GdprRecord& rec : records) keys.push_back(rec.key);
    // Tombstones move with their slot, or VerifyDeletion turns false on the
    // new owner.
    Status imported = dst->ImportSlot(exported.value());
    if (!imported.ok()) {
      // Ownership never flipped; undo the partial copy on the destination.
      // Tombstones it adopted may stay: the source keeps its own too, and
      // routing consults only the owner. An undo that itself fails (dst's
      // log is poisoned) leaves the slot double-resident — escalate, don't
      // pretend it's clean.
      const bool clean = dst->EvictRecords(keys).ok();
      Audit(Actor::Controller(), ops::kMoveSlots,
            StringPrintf("slot %u -> node %u%s", slot, dst_node,
                         clean ? "" : " (rollback incomplete)"),
            false);
      if (!clean) {
        return Status::Internal(
            "slot copy rollback incomplete; records resident on node " +
            std::to_string(dst_node) + " after: " + imported.ToString());
      }
      return imported;
    }
    slot_map_.SetOwner(slot, dst_node);
    if (!src->EvictRecords(keys).ok()) {
      // Ownership flipped (dst serves the slot correctly), but the source
      // still holds resident copies it could not evict — stale ciphertext
      // that a later compaction on src must not be assumed to have purged.
      Audit(Actor::Controller(), ops::kMoveSlots,
            StringPrintf("slot %u -> node %u (source eviction incomplete)",
                         slot, dst_node),
            false);
      return Status::Internal(
          "slot moved but source eviction incomplete on node " +
          std::to_string(src_idx));
    }
    moved_records += records.size();
    ++moved_slots;
    m_slots_moved_->Add(1);
    m_records_migrated_->Add(records.size());
  }
  Audit(Actor::Controller(), ops::kMoveSlots,
        StringPrintf("%zu slots (%zu records) -> node %u", moved_slots,
                     moved_records, dst_node),
        true);
  return Status::OK();
}

Status ClusterGdprStore::Rebalance() {
  // Group the plan by destination so each MoveSlots call audits once.
  std::vector<std::vector<uint32_t>> by_dst(nodes_.size());
  for (const auto& [slot, dst] : slot_map_.PlanRebalance()) {
    by_dst[dst].push_back(slot);
  }
  for (uint32_t dst = 0; dst < by_dst.size(); ++dst) {
    if (by_dst[dst].empty()) continue;
    Status s = MoveSlots(by_dst[dst], dst);
    if (!s.ok()) return s;
  }
  return Status::OK();
}

HealthReport ClusterGdprStore::EngineHealth() {
  HealthReport worst;
  for (size_t i = 0; i < nodes_.size(); ++i) {
    HealthReport h = nodes_[i]->GetHealth();
    if (!h.cause.ok()) {
      h.cause = Status(h.cause.code(),
                       StringPrintf("node %zu: ", i) + h.cause.message());
    }
    worst = Worse(std::move(worst), std::move(h));
  }
  return worst;
}

obs::RegistrySnapshot ClusterGdprStore::StatsSnapshot() {
  registry_.GetGauge("cluster_health")
      ->Set(static_cast<int64_t>(GetHealth().state));
  registry_.GetGauge("cluster_nodes")
      ->Set(static_cast<int64_t>(nodes_.size()));
  registry_.GetGauge("cluster_audit_unsealed_tail")
      ->Set(static_cast<int64_t>(audit_log_.unsealed_tail()));
  obs::RegistrySnapshot snap = registry_.Snapshot();
  // Same-name metrics sum across nodes (counters and histogram buckets);
  // per-node detail stays visible through the node="i" fan-out labels. An
  // unreachable remote node contributes an empty snapshot, never a stall.
  for (auto& node : nodes_) snap.MergeFrom(node->StatsSnapshot());
  return snap;
}

bool ClusterGdprStore::VerifyAuditChains(std::vector<bool>* per_node) {
  bool all_ok = true;
  if (per_node) per_node->clear();
  for (auto& node : nodes_) {
    const auto verdict = node->VerifyAuditChain();
    // A chain that cannot be fetched cannot be trusted: an unreachable
    // node verifies as false rather than vacuously true.
    const bool ok = verdict.ok() && verdict.value().chain_ok;
    if (per_node) per_node->push_back(ok);
    all_ok = all_ok && ok;
  }
  const bool router_ok = audit_log_.VerifyChain();
  if (per_node) per_node->push_back(router_ok);
  return all_ok && router_ok;
}

}  // namespace gdpr::cluster
