#include "relstore/database.h"

#include <algorithm>

#include "common/coding.h"
#include "common/epoch.h"
#include "common/string_util.h"
#include "storage/file_rewrite.h"

namespace gdpr::rel {

namespace {

// The 'E' epoch frame a checkpointed WAL leads with.
std::string EpochFrame(uint64_t epoch) {
  std::string frame(1, 'E');
  PutVarint64(&frame, epoch);
  return frame;
}

bool DecodeEpochFrame(std::string_view* in, uint64_t* epoch) {
  if (in->empty() || in->front() != 'E') return false;
  in->remove_prefix(1);
  return GetVarint64(in, epoch);
}

constexpr char kInt64 = char(ValueType::kInt64);
constexpr char kString = char(ValueType::kString);
// The marker of a string cell whose bytes are in the row's sealed block.
constexpr char kSealedString = 3;

// Walks the row image at the front of *in and consumes it: cell(col, tag,
// payload) sees each cell in column order (payload: an int's 8 bytes, a
// null's or string's bytes, nothing for a sealed string), and *block gets
// the sealed block, empty when no cell is sealed. False when the image
// does not parse.
template <typename CellFn>
bool WalkImage(std::string_view* in, std::string_view* block, CellFn&& cell) {
  uint64_t ncells = 0;
  if (!GetVarint64(in, &ncells)) return false;
  bool sealed = false;
  for (uint64_t col = 0; col < ncells; ++col) {
    if (in->empty()) return false;
    const char tag = in->front();
    in->remove_prefix(1);
    std::string_view payload;
    if (tag == kInt64) {
      if (in->size() < 8) return false;
      payload = in->substr(0, 8);
      in->remove_prefix(8);
    } else if (tag == kSealedString) {
      sealed = true;
    } else if ((tag != char(ValueType::kNull) && tag != kString) ||
               !GetLengthPrefixed(in, &payload)) {
      return false;
    }
    cell(size_t(col), tag, payload);
  }
  *block = {};
  return !sealed || GetLengthPrefixed(in, block);
}

// The cell count an image leads with.
uint64_t CellCount(std::string_view image) {
  uint64_t ncells = 0;
  GetVarint64(&image, &ncells);
  return ncells;
}

int64_t IntOf(std::string_view payload) {
  uint64_t v = 0;
  GetFixed64(&payload, &v);
  return int64_t(v);
}

}  // namespace

Database::Database(const RelOptions& options) : options_(options) {
  clock_ = options_.clock ? options_.clock : RealClock::Default();
  env_ = options_.env ? options_.env : Env::Posix();
  if (options_.encrypt_at_rest) {
    aead_ = std::make_unique<Aead>(options_.encryption_key);
  }
  InitMetrics();
  if (options_.pipeline) {
    pipeline_ = options_.pipeline;
  } else {
    CommitPipeline::Options po;
    po.metrics = metrics_;
    po.clock = clock_;
    owned_pipeline_ = std::make_unique<CommitPipeline>(po);
    pipeline_ = owned_pipeline_.get();
  }
  wal_target_ =
      pipeline_->Attach("rel-wal", options_.sync_policy, &wal_health_);
  stmt_target_ =
      pipeline_->Attach("rel-stmt", options_.sync_policy, &stmt_health_);
}

void Database::InitMetrics() {
  if (options_.metrics) {
    metrics_ = options_.metrics;
  } else {
    owned_metrics_ = std::make_unique<obs::MetricsRegistry>();
    metrics_ = owned_metrics_.get();
  }
  insert_us_ = metrics_->GetHistogram("reldb_insert_us");
  select_us_ = metrics_->GetHistogram("reldb_select_us");
  update_us_ = metrics_->GetHistogram("reldb_update_us");
  delete_us_ = metrics_->GetHistogram("reldb_delete_us");
  checkpoint_us_ = metrics_->GetHistogram("reldb_checkpoint_us");
  write_wait_us_ = metrics_->GetHistogram("reldb_write_wait_us");
  m_wal_appends_ = metrics_->GetCounter("reldb_wal_appends_total");
  m_wal_append_bytes_ = metrics_->GetCounter("reldb_wal_append_bytes_total");
  m_wal_failures_ = metrics_->GetCounter("reldb_wal_failures_total");
  m_stmt_statements_ = metrics_->GetCounter("reldb_stmt_statements_total");
  m_stmt_bytes_total_ = metrics_->GetCounter("reldb_stmt_bytes_total");
  m_checkpoints_ = metrics_->GetCounter("reldb_checkpoints_total");
  m_rows_sealed_ = metrics_->GetCounter("reldb_rows_sealed_total");
  m_rows_opened_ = metrics_->GetCounter("reldb_rows_opened_total");
  m_write_rebuilds_ = metrics_->GetCounter("reldb_write_rebuilds_total");
  m_wal_log_bytes_ = metrics_->GetGauge("reldb_wal_log_bytes");
  m_stmt_log_bytes_ = metrics_->GetGauge("reldb_stmt_log_bytes");
  wal_health_.AttachMetrics(
      metrics_->GetGauge("reldb_wal_health_state"),
      metrics_->GetCounter("reldb_wal_health_transitions_total"));
  stmt_health_.AttachMetrics(
      metrics_->GetGauge("reldb_stmt_health_state"),
      metrics_->GetCounter("reldb_stmt_health_transitions_total"));
}

obs::RegistrySnapshot Database::StatsSnapshot() {
  metrics_->GetGauge("reldb_bytes")
      ->Set(static_cast<int64_t>(ApproximateBytes()));
  return metrics_->Snapshot();
}

Database::~Database() { WarnIfError(Close(), "Database::Close"); }

Status Database::Open() {
  if (open_) return Status::OK();
  wal_health_.Reset();
  stmt_health_.Reset();
  // Open-time failures below mark the store kFailed, not degraded: if the
  // on-disk state cannot be read back into memory, there is no authoritative
  // copy left to rewrite from, so no later compaction can heal it.
  if (options_.wal_enabled) {
    if (options_.wal_path.empty()) {
      return Status::InvalidArgument("wal_enabled requires wal_path");
    }
    const std::string snap_path = SnapshotPath(options_.wal_path);
    // Both rewrites here (checkpoint snapshot, WAL repair) use the temp
    // "<target>.tmp".
    FileRewrite::DiscardLeftover(env_, snap_path + ".tmp");
    FileRewrite::DiscardLeftover(env_, options_.wal_path + ".tmp");
    bool has_snapshot = false;
    if (env_->FileExists(snap_path)) {
      auto snap = env_->ReadFileToString(snap_path);
      if (!snap.ok()) {
        wal_health_.Fail(snap.status());
        return snap.status();
      }
      Status s = ParseSnapshot(snap.value());
      if (!s.ok()) {
        wal_health_.Fail(s);
        return s;
      }
      has_snapshot = true;
      replay_stats_.from_snapshot = true;
    }
    auto log = ReadLog(env_, options_.wal_path);
    if (!log.ok()) {
      wal_health_.Fail(log.status());
      return log.status();
    }
    const std::string& contents = log.value();
    // A checkpointed WAL leads with an 'E' epoch frame; a never-checkpointed
    // log starts straight at the first mutation (epoch 0), and so does a
    // log whose stamp is torn.
    std::string_view stamp(contents);
    uint64_t wal_epoch = 0;
    const bool stamped = DecodeEpochFrame(&stamp, &wal_epoch);
    size_t valid = 0;
    if (has_snapshot && wal_epoch != epoch_) {
      // A log from before the snapshot (the crash hit between the snapshot
      // rename and the WAL truncate), or none: every byte of it is already
      // inside the snapshot. Keep none; a torn stamp is a torn tail.
      replay_stats_.truncated_tail =
          !stamped && !contents.empty() && contents.front() == 'E';
    } else {
      valid = ReadFrames(contents, [&](std::string_view* in) {
                if (stamped && in->data() == contents.data()) {
                  *in = stamp;  // decoded above; only ever the first frame
                  return StatusOr<bool>(true);
                }
                return StatusOr<bool>(ParseWalFrame(in));
              }).value();
      replay_stats_.truncated_tail = valid < contents.size();
    }
    // Next to a snapshot an empty log gets the epoch stamp, or the next
    // Open would misread the appends after it as a stale pre-snapshot log.
    CommitPipeline::FileSlot wal;
    auto kept = ReopenLog(env_, options_.io_policy, options_.wal_path,
                          options_.wal_path + ".tmp", contents, valid,
                          has_snapshot ? EpochFrame(epoch_) : "", &wal);
    if (!kept.ok()) {
      wal_health_.Fail(kept.status());
      return kept.status();
    }
    m_wal_log_bytes_->Set(static_cast<int64_t>(kept.value()));
    (void)pipeline_->WithFile(wal_target_, [&](CommitPipeline::FileSlot& f) {
      f = std::move(wal);
      return Status::OK();
    });
  }
  if (options_.log_statements) {
    if (options_.statement_log_path.empty()) {
      return Status::InvalidArgument(
          "log_statements requires statement_log_path");
    }
    Status s = pipeline_->WithFile(stmt_target_, [&](CommitPipeline::FileSlot&
                                                         log) {
      auto f = env_->NewWritableFile(options_.statement_log_path,
                                     /*truncate=*/false);
      if (f.ok()) log = std::move(f.value());
      return f.status();
    });
    if (!s.ok()) {
      stmt_health_.Fail(s);
      return s;
    }
    stmt_bytes_ = 0;
    if (options_.stmt_log_rotate_bytes != 0) {
      // Resume the rotation threshold across restarts: a reopened log is
      // as long as whatever survived the last incarnation.
      auto existing = env_->FileSize(options_.statement_log_path);
      if (existing.ok()) stmt_bytes_ = existing.value();
    }
    m_stmt_log_bytes_->Set(static_cast<int64_t>(stmt_bytes_));
    stmt_active_.store(true, std::memory_order_release);
  }
  open_ = true;
  return Status::OK();
}

Status Database::Close() {
  if (!open_) return Status::OK();
  open_ = false;
  // First failure wins: a lost final sync must not read as a clean
  // shutdown — the recovery story depends on knowing the tail is suspect.
  // checkpoint_mu_ keeps a racing Checkpoint() from swapping the WAL
  // while we close it. Every queued frame is written before each log's
  // final sync.
  std::lock_guard<std::mutex> ck(checkpoint_mu_);
  Status wal = pipeline_->CloseFile(wal_target_);
  stmt_active_.store(false, std::memory_order_release);
  std::lock_guard<std::mutex> l(stmt_mu_);
  Status stmt = pipeline_->CloseFile(stmt_target_);
  return wal.ok() ? stmt : wal;
}

bool Database::ReadImage(std::string_view* in, std::string* image) {
  const std::string_view start = *in;
  std::string_view block;
  // Any string of at least 8 bytes counts, sealed or not: a resume that is
  // too high only skips seqs. With no key nothing is sealed from now on.
  const auto raise = [&](std::string_view sealed) {
    if (aead_) seal_seq_.RaiseAboveSealed(sealed);
  };
  if (!WalkImage(in, &block, [&](size_t, char tag, std::string_view payload) {
        if (tag == kString) raise(payload);
      })) {
    return false;
  }
  if (!block.empty()) raise(block);
  image->assign(start.data(), start.size() - in->size());
  return true;
}

bool Database::ParseWalFrame(std::string_view* in) {
  const char op = in->front();
  in->remove_prefix(1);
  std::string_view table;
  WalOp wal_op;
  wal_op.op = op;
  bool ok = (op == 'I' || op == 'U' || op == 'D') &&
            GetLengthPrefixed(in, &table);
  if (ok && (op == 'U' || op == 'D')) ok = GetVarint64(in, &wal_op.rid);
  if (ok && (op == 'I' || op == 'U')) ok = ReadImage(in, &wal_op.stored);
  if (!ok) return false;
  pending_replay_[std::string(table)].push_back(std::move(wal_op));
  return true;
}

void Database::EncodeWalOp(std::string* dst, std::string_view table,
                            const WalOp& op) {
  // Length-prefixed binary framing: sealed blocks contain arbitrary bytes,
  // so a text format would be unparseable on replay.
  dst->push_back(op.op);
  PutLengthPrefixed(dst, table);
  if (op.op != 'I') PutVarint64(dst, op.rid);
  if (op.op != 'D') dst->append(op.stored);
}

namespace {
constexpr char kSnapshotMagic[] = "RSNP1";
constexpr size_t kSnapshotMagicLen = 5;
}  // namespace

Status Database::ParseSnapshot(std::string_view contents) {
  std::string_view in = contents;
  if (in.size() < kSnapshotMagicLen ||
      in.substr(0, kSnapshotMagicLen) != kSnapshotMagic) {
    return Status::DataLoss("bad snapshot magic");
  }
  in.remove_prefix(kSnapshotMagicLen);
  uint64_t epoch = 0, seal_seq = 0, ntables = 0;
  // Unlike the WAL, the snapshot is written whole behind an atomic rename:
  // any parse failure here is corruption, not a torn tail.
  if (!GetVarint64(&in, &epoch) || !GetFixed64(&in, &seal_seq) ||
      !GetVarint64(&in, &ntables)) {
    return Status::DataLoss("truncated snapshot header");
  }
  seal_seq_.RaiseAbove(seal_seq);
  for (uint64_t ti = 0; ti < ntables; ++ti) {
    std::string_view name;
    uint64_t nslots = 0;
    if (!GetLengthPrefixed(&in, &name) || !GetVarint64(&in, &nslots)) {
      return Status::DataLoss("truncated snapshot table header");
    }
    std::vector<std::optional<std::string>> slots;
    slots.reserve(size_t(nslots));
    for (uint64_t si = 0; si < nslots; ++si) {
      if (in.empty()) return Status::DataLoss("truncated snapshot slot");
      const char flag = in.front();
      in.remove_prefix(1);
      if (flag == 0) {
        // Deleted slot: kept so row ids in the WAL tail and in index
        // leaves keep pointing at the right rows.
        slots.emplace_back(std::nullopt);
        continue;
      }
      std::string stored;
      if (!ReadImage(&in, &stored)) {
        return Status::DataLoss("truncated snapshot row");
      }
      slots.emplace_back(std::move(stored));
    }
    pending_snapshot_[std::string(name)] = std::move(slots);
  }
  epoch_ = epoch;
  return Status::OK();
}

void Database::Migrate(std::string* image) {
  if (!aead_) return;
  std::string_view in = *image, block;
  bool legacy = false;
  WalkImage(&in, &block, [&](size_t, char tag, std::string_view) {
    legacy |= tag == kString;
  });
  if (!legacy) return;
  bool intact = true;
  Row plain = DecodeRow(*image, &intact);
  if (intact) *image = EncodeRow(plain);
}

uint64_t Database::ApplyOp(Table* t, WalOp op) {
  // An 'I' takes the next slot even when its row is unusable: skipping it
  // would shift every later rid in the log onto a neighboring row.
  if (op.op == 'I') t->slots_.emplace_back();
  const uint64_t rid = op.op == 'I' ? uint64_t(t->slots_.size()) : op.rid;
  if (rid == 0 || rid > t->slots_.size()) return 0;
  std::unique_ptr<const std::string>& slot = t->slots_[rid - 1];
  if (op.op != 'I' && !slot) return 0;  // U/D of a deleted row
  if (op.op != 'D' && CellCount(op.stored) != t->schema().num_columns()) {
    return 0;  // arity mismatch (schema drift): the row is unusable
  }
  if (slot) {
    t->row_bytes_ -= slot->size();
    // A reader may still be decoding the displaced image after dropping
    // the table lock; the epoch retire frees it once none can be.
    EpochManager::Global().Retire(const_cast<std::string*>(slot.release()));
  }
  if (op.op == 'D') {
    if (--t->live_rows_ == 0) t->index_unreadable_.clear();
  } else {
    if (op.op == 'I') ++t->live_rows_;
    t->row_bytes_ += op.stored.size();
    slot = std::make_unique<const std::string>(std::move(op.stored));
  }
  return rid;
}

void Database::ApplySnapshot(Table* t,
                             std::vector<std::optional<std::string>> slots) {
  for (auto& slot : slots) {
    if (!slot) {
      t->slots_.emplace_back();  // deleted: kept so later rids don't shift
      continue;
    }
    Migrate(&*slot);
    if (ApplyOp(t, {'I', 0, std::move(*slot)}) != 0) {
      ++replay_stats_.snapshot_rows;
    }
  }
}

void Database::ApplyReplay(Table* t, std::vector<WalOp> ops) {
  for (WalOp& op : ops) {
    const char kind = op.op;
    Migrate(&op.stored);
    if (ApplyOp(t, std::move(op)) == 0) continue;
    ++(kind == 'I'   ? replay_stats_.inserts
       : kind == 'U' ? replay_stats_.updates
                     : replay_stats_.deletes);
  }
}

StatusOr<Table*> Database::CreateTable(const std::string& name,
                                       Schema schema) {
  std::lock_guard<std::mutex> l(tables_mu_);
  auto [it, inserted] =
      tables_.emplace(name, std::make_unique<Table>(name, std::move(schema)));
  if (!inserted) return Status::AlreadyExists("table " + name);
  // Snapshot rows first, then the WAL tail on top — replay order must
  // match write order or rids reconstruct wrong.
  auto snap = pending_snapshot_.find(name);
  if (snap != pending_snapshot_.end()) {
    ApplySnapshot(it->second.get(), std::move(snap->second));
    pending_snapshot_.erase(snap);
  }
  auto pending = pending_replay_.find(name);
  if (pending != pending_replay_.end()) {
    ApplyReplay(it->second.get(), std::move(pending->second));
    pending_replay_.erase(pending);
  }
  return it->second.get();
}

Table* Database::GetTable(const std::string& name) {
  std::lock_guard<std::mutex> l(tables_mu_);
  auto it = tables_.find(name);
  return it == tables_.end() ? nullptr : it->second.get();
}

Status Database::CreateIndex(const std::string& table,
                             const std::string& column, bool elements) {
  Table* t = GetTable(table);
  if (!t) return Status::NotFound("table " + table);
  const int col = t->schema().FindColumn(column);
  if (col < 0) return Status::NotFound("column " + column);
  std::unique_lock<std::shared_mutex> l(t->mu_);
  auto [it, inserted] = t->indexes_.try_emplace(size_t(col));
  if (!inserted) return Status::AlreadyExists("index on " + column);
  Table::Index& index = it->second;
  index.elements = elements;
  size_t unreadable = 0;
  for (size_t slot = 0; slot < t->slots_.size(); ++slot) {
    if (!t->slots_[slot]) continue;
    Value plain;
    if (CellOf(*t->slots_[slot], size_t(col), &plain)) {
      index.Insert(plain, uint64_t(slot) + 1);
    } else {
      ++unreadable;
    }
  }
  if (unreadable != 0) t->index_unreadable_[size_t(col)] = unreadable;
  return Status::OK();
}

void Database::DiscardPending(const std::string& table) {
  std::lock_guard<std::mutex> l(tables_mu_);
  pending_replay_.erase(table);
  pending_snapshot_.erase(table);
}

std::string Database::EncodeRow(const Row& plain) {
  std::string image, block;
  PutVarint64(&image, plain.size());
  for (const Value& v : plain) {
    if (aead_ && v.type() == ValueType::kString) {
      image.push_back(kSealedString);
      PutLengthPrefixed(&block, v.AsString());
    } else if (v.type() == ValueType::kInt64) {
      image.push_back(kInt64);
      PutFixed64(&image, uint64_t(v.AsInt64()));
    } else {
      image.push_back(char(v.type()));
      PutLengthPrefixed(&image, v.AsString());
    }
  }
  if (!block.empty()) {
    m_rows_sealed_->Add(1);
    PutLengthPrefixed(&image, aead_->Seal(block, seal_seq_.Next()));
  }
  image.shrink_to_fit();  // a slot keeps it for the row's lifetime
  return image;
}

Row Database::DecodeRow(std::string_view image, bool* intact) const {
  bool readable = true;
  // Opens one sealed blob: the row's block or, while Migrate decodes a
  // legacy row, one cell. Without a key nothing opens.
  const auto open = [&](std::string_view sealed) {
    if (aead_) {
      m_rows_opened_->Add(1);
      auto plain = aead_->Open(sealed);
      if (plain.ok()) return Value(std::move(plain.value()));
    }
    readable = false;
    return Value();
  };
  // Every image in a slot parses: ReadImage or EncodeRow made it.
  Row out;
  out.reserve(CellCount(image));
  std::string_view in = image, block;
  WalkImage(&in, &block, [&](size_t, char tag, std::string_view payload) {
    if (tag == kInt64) {
      out.emplace_back(IntOf(payload));
    } else if (tag == kString) {
      out.push_back(aead_ ? open(payload) : Value(std::string(payload)));
    } else {
      out.emplace_back();  // null, or a sealed string filled in below
    }
  });
  if (!block.empty()) {
    const Value strings = open(block);
    std::string_view next = strings.AsString(), cell;
    in = image;
    WalkImage(&in, &block, [&](size_t col, char tag, std::string_view) {
      if (tag != kSealedString) return;
      if (GetLengthPrefixed(&next, &cell)) {
        out[col] = Value(std::string(cell));
      } else {
        readable = false;  // left null
      }
    });
  }
  if (intact && !readable) *intact = false;
  return out;
}

bool Database::CellOf(std::string_view image, size_t col, Value* out) const {
  std::string_view in = image, block, payload;
  char tag = char(ValueType::kNull);
  WalkImage(&in, &block, [&](size_t i, char t, std::string_view p) {
    if (i != col) return;
    tag = t;
    payload = p;
  });
  if (tag == kInt64) {
    *out = Value(IntOf(payload));
  } else if (tag == char(ValueType::kNull)) {
    *out = Value();
  } else if (tag == kString && !aead_) {
    *out = Value(std::string(payload));
  } else {
    bool intact = true;
    Row row = DecodeRow(image, &intact);
    if (!intact) return false;
    *out = std::move(row[col]);
  }
  return true;
}

Status Database::Unreadable(const Table* t, size_t rows) {
  return Status::DataLoss(std::to_string(rows) + " row(s) of " + t->name() +
                          " failed at-rest decryption");
}

Status Database::ApplyChanges(Table* t, std::vector<RowChange>* changes) {
  // Log before apply (docs/PERSISTENCE.md, "Failure policy"): a failed
  // append returns before the table changes, and the exclusive lock is
  // taken only once the frame is acked, so readers neither wait for the
  // commit nor see a write before it. The caller's writer mutex keeps
  // WAL order equal to apply order, or replayed rids would point at the
  // wrong rows. The WAL carries the row image (sealed strings): with
  // encryption on, personal data must not reach disk in plaintext. Gate
  // on the option, not the handle: the WAL file lives in the pipeline and
  // Checkpoint swaps it there.
  if (options_.wal_enabled && !changes->empty()) {
    std::string wal_blob;
    for (const RowChange& c : *changes) EncodeWalOp(&wal_blob, t->name(), c.op);
    Status s = WalAppend(wal_blob);
    if (!s.ok()) return s;
  }
  std::unique_lock<std::shared_mutex> l(t->mu_);
  for (RowChange& c : *changes) {
    const uint64_t rid = ApplyOp(t, std::move(c.op));
    // Index maintenance on changed columns only — the Fig 3b write cost.
    const bool had = !c.before.empty(), has = !c.after.empty();
    for (auto& [col, index] : t->indexes_) {
      if (had && has && c.before[col] == c.after[col]) continue;
      if (had) index.Erase(c.before[col], rid);
      if (has) index.Insert(c.after[col], rid);
    }
  }
  return Status::OK();
}

StatusOr<size_t> Database::Mutate(Table* t, const char* verb,
                                  const char* where, const Predicate* pred,
                                  const BuildFn& build) {
  if (!t) return Status::InvalidArgument("null table");
  Status s = WalHealthy();
  // Logged as received, before the table lock (PostgreSQL's
  // log_statement does the same): a failed append refuses the write
  // before anything changes.
  if (s.ok() && stmt_logging()) s = LogStatement(verb + t->name() + where);
  if (!s.ok()) return s;
  // Pins every image the first match saw until the second one compares
  // them, so an equal pointer is the same image, never a new image at a
  // reused address.
  EpochGuard guard;
  Matched seen;
  std::vector<RowChange> changes;
  if (pred) {
    {
      std::shared_lock<std::shared_mutex> l(t->mu_);
      seen = MatchRowIds(t, pred, 0);
    }
    if (seen.rows.empty() && seen.unreadable == 0) return size_t(0);
    s = build(seen, &changes);
    if (!s.ok()) return s;
  }
  std::unique_lock<std::mutex> writer = LockWriter(t);
  {
    // Only writers change slots_, and they hold the writer mutex: this
    // match and build stay valid through the apply, while readers share
    // the table.
    std::shared_lock<std::shared_mutex> l(t->mu_);
    if (pred) {
      Matched now = MatchRowIds(t, pred, 0);
      if (!(now == seen)) {  // a write overtook the build
        m_write_rebuilds_->Add(1);
        changes.clear();
        s = build(now, &changes);
      }
    } else {
      s = build(seen, &changes);
    }
  }
  if (s.ok()) s = ApplyChanges(t, &changes);
  if (!s.ok()) return s;
  return changes.size();
}

std::unique_lock<std::mutex> Database::LockWriter(Table* t) {
#ifndef GDPR_OBS_OFF
  // Sampled on a tick of its own: every write already runs an op
  // SampledTimer on this thread, and sharing its tick would fix this wait
  // at one phase of it, never sampled on a thread that only writes.
  thread_local uint32_t tick = 0;
  if (tick++ % obs::SampledTimer::kEvery == 0) {
    const int64_t start = clock_->NowMicros();
    std::unique_lock<std::mutex> writer(t->write_mu_);
    const int64_t d = clock_->NowMicros() - start;
    write_wait_us_->RecordN(d > 0 ? uint64_t(d) : 0,
                            obs::SampledTimer::kEvery);
    return writer;
  }
#endif
  return std::unique_lock<std::mutex>(t->write_mu_);
}

Status Database::Insert(Table* t, Row row) {
  obs::SampledTimer timer(insert_us_, clock_);
  if (t && row.size() != t->schema().num_columns()) {
    return Status::InvalidArgument("row arity mismatch");
  }
  RowChange c;  // sealed outside the table lock
  c.op.stored = EncodeRow(row);
  c.after = std::move(row);
  return Mutate(t, "INSERT INTO ", "", nullptr,
                [&](const Matched&, std::vector<RowChange>* changes) {
                  changes->push_back(std::move(c));
                  return Status::OK();
                })
      .status();
}

Database::Matched Database::MatchRowIds(const Table* t, const Predicate* pred,
                                        size_t limit) const {
  // Caller holds t->mu_ (shared or exclusive).
  Matched m;
  const auto add = [&](uint64_t rid) {
    if (const std::string* image = t->slots_[rid - 1].get()) {
      m.rows.emplace_back(rid, image);
    }
    return limit == 0 || m.rows.size() < limit;
  };
  auto it = pred ? t->indexes_.find(pred->col) : t->indexes_.end();
  // An element index serves only kHas; a whole-cell one all but kNe/kHas.
  const bool has = pred && pred->op == CompareOp::kHas;
  if (it != t->indexes_.end() && pred->op != CompareOp::kNe &&
      has == it->second.elements) {
    const BPlusTree* tree = &it->second.tree;
    if (pred->op == CompareOp::kEq || has) {
      tree->ScanEqual(pred->value, add);
    } else {  // up from the bound, or from -inf (null sorts first) to it
      const bool up = pred->op == CompareOp::kGe || pred->op == CompareOp::kGt;
      tree->ScanRange(up ? pred->value : Value(), up ? nullptr : &pred->value,
                      [&](const Value& k, uint64_t rid) {
                        return !k.Matches(pred->op, pred->value) || add(rid);
                      });
    }
    const auto missed = t->index_unreadable_.find(pred->col);
    if (missed != t->index_unreadable_.end()) m.unreadable += missed->second;
    return m;
  }
  // Sequential scan. Only the predicate column needs decoding, though a
  // sealed one opens its whole row.
  for (size_t slot = 0; slot < t->slots_.size(); ++slot) {
    if (!t->slots_[slot]) continue;
    if (pred) {
      Value plain;
      if (!CellOf(*t->slots_[slot], pred->col, &plain)) {
        ++m.unreadable;
        continue;
      }
      if (!plain.Matches(pred->op, pred->value)) continue;
    }
    if (!add(uint64_t(slot) + 1)) break;
  }
  return m;
}

Status Database::VisitRows(Table* t, const Predicate* pred, size_t limit,
                           const std::function<bool(Row&)>& fn) {
  if (!t) return Status::InvalidArgument("null table");
  size_t unreadable = 0;
  {
    // The matched images stay allocated while the guard lives, so they are
    // opened and visited after the lock drops: writers wait for the match
    // only.
    EpochGuard guard;
    Matched m;
    {
      std::shared_lock<std::shared_mutex> l(t->mu_);
      m = MatchRowIds(t, pred, limit);
    }
    unreadable = m.unreadable;
    for (const auto& [rid, image] : m.rows) {
      bool intact = true;
      Row row = DecodeRow(*image, &intact);
      if (!intact) {
        ++unreadable;
      } else if (!fn(row)) {
        break;
      }
    }
  }
  if (stmt_logging()) {
    Status s = LogStatement(
        "SELECT FROM " + t->name() + " WHERE " +
        (pred ? t->schema().column(pred->col).name + " " +
                    pred->value.ToString()
              : "<scan>"));
    if (!s.ok()) return s;
  }
  if (unreadable != 0) return Unreadable(t, unreadable);
  return Status::OK();
}

StatusOr<std::vector<Row>> Database::Select(Table* t, const Predicate& pred,
                                            size_t limit) {
  obs::SampledTimer timer(select_us_, clock_);
  std::vector<Row> out;
  Status s = VisitRows(t, &pred, limit, [&](Row& row) {
    out.push_back(std::move(row));
    return true;
  });
  if (!s.ok()) return s;
  return out;
}

Status Database::ScanRows(Table* t,
                          const std::function<bool(const Row&)>& fn) {
  return VisitRows(t, nullptr, 0, fn);
}

StatusOr<size_t> Database::Update(Table* t, const Predicate& pred,
                                  const std::function<void(Row*)>& mutate) {
  obs::SampledTimer timer(update_us_, clock_);
  const auto build = [&](const Matched& m, std::vector<RowChange>* changes) {
    size_t unreadable = m.unreadable;
    // Every new image is built and checked before anything changes, so a
    // failure on any matched row applies none of them.
    for (const auto& [rid, image] : m.rows) {
      bool intact = true;
      Row before = DecodeRow(*image, &intact);
      if (!intact) {  // sealing it again would lose the cells it cannot read
        ++unreadable;
        continue;
      }
      RowChange c{{'U', rid, {}}, std::move(before), {}};
      c.after = c.before;
      mutate(&c.after);
      if (c.after.size() != c.before.size()) {
        return Status::InvalidArgument("update changed row arity");
      }
      c.op.stored = EncodeRow(c.after);
      changes->push_back(std::move(c));
    }
    return unreadable == 0 ? Status::OK() : Unreadable(t, unreadable);
  };
  return Mutate(t, "UPDATE ", "", &pred, build);
}

StatusOr<size_t> Database::Delete(Table* t, const Predicate& pred) {
  obs::SampledTimer timer(delete_us_, clock_);
  const auto build = [&](const Matched& m, std::vector<RowChange>* changes) {
    if (m.unreadable != 0) return Unreadable(t, m.unreadable);
    // An unreadable row decodes with null string cells. CreateIndex's
    // backfill never filed it under a string column, so those erases find
    // nothing; its int cells are in the clear and erase as usual.
    for (const auto& [rid, image] : m.rows) {
      Row before = DecodeRow(*image);
      changes->push_back({{'D', rid, {}}, std::move(before), {}});
    }
    return Status::OK();
  };
  return Mutate(t, "DELETE FROM ", "", &pred, build);
}

StatusOr<size_t> Database::DeleteWhere(
    Table* t, const std::function<bool(const Row&)>& pred) {
  obs::SampledTimer timer(delete_us_, clock_);
  const auto scan = [&](const Matched&, std::vector<RowChange>* changes) {
    for (size_t i = 0; i < t->slots_.size(); ++i) {
      if (!t->slots_[i]) continue;
      Row plain = DecodeRow(*t->slots_[i]);
      if (pred(plain)) {
        changes->push_back({{'D', uint64_t(i) + 1, {}}, std::move(plain), {}});
      }
    }
    return Status::OK();
  };
  return Mutate(t, "DELETE FROM ", " WHERE <scan>", nullptr, scan);
}

size_t Database::ApproximateBytes() const {
  size_t total = 0;
  std::lock_guard<std::mutex> l(tables_mu_);
  for (const auto& [name, t] : tables_) {
    std::shared_lock<std::shared_mutex> tl(t->mu_);
    total += t->row_bytes_ + t->slots_.size() * 16;
    for (const auto& [col, index] : t->indexes_) {
      total += index.tree.ApproximateBytes();
    }
  }
  return total;
}

Status Database::WalHealthy() {
  // Mutations need both durability paths: a broken WAL could lose the
  // write itself, a broken statement log its processing evidence.
  Status s = wal_health_.WriteGate("reldb-wal");
  if (!s.ok()) return s;
  return stmt_health_.WriteGate("reldb-stmt");
}

Status Database::WalAppend(const std::string& text) {
  Status gate = wal_health_.WriteGate("reldb-wal");
  if (!gate.ok()) return gate;
  // The commit blocks until the batch is written (and fsynced under
  // kAlways); the WAL is one FIFO, so log order is enqueue order.
  Status s = pipeline_->Commit(wal_target_, text);
  if (s.ok()) {
    m_wal_appends_->Add(1);
    m_wal_append_bytes_->Add(text.size());
    m_wal_log_bytes_->Add(static_cast<int64_t>(text.size()));
  } else {
    // Torn append or failed fsync: the tail is suspect and the acked
    // prefix may not be durable. The pipeline has poisoned the target and
    // degraded wal_health_; no retry (fsyncgate) — only the next
    // successful Checkpoint(), a full rewrite from memory, heals.
    m_wal_failures_->Add(1);
  }
  return s;
}

Status Database::Checkpoint() {
  if (!options_.wal_enabled) return Status::OK();  // nothing on disk to bound
  obs::ScopedTimer timer(checkpoint_us_, clock_);
  std::lock_guard<std::mutex> ck(checkpoint_mu_);
  std::lock_guard<std::mutex> tl(tables_mu_);
  if (!open_) return Status::FailedPrecondition("database not open");
  if (!pending_replay_.empty() || !pending_snapshot_.empty()) {
    // Recovered rows still waiting for their CreateTable would not make it
    // into the snapshot, and the WAL truncation would destroy the only
    // copy. Refuse rather than silently drop another table's data.
    return Status::FailedPrecondition(
        "checkpoint with unclaimed replay state: create all logged tables "
        "before compacting");
  }
  checkpoint_starts_.fetch_add(1);
  // Freeze writers, not readers: a writer holds its table's writer mutex
  // from its re-match through its WAL ack and its apply, so holding every
  // one stops the log from advancing and leaves no acked frame unapplied
  // while the snapshot is cut. A shared table lock would not: it lets in
  // a writer between its ack and its apply, whose write would then be in
  // neither the snapshot nor the truncated WAL. Selects and point reads
  // proceed throughout. (Lock order tables_mu_ -> write_mu_ -> wal
  // matches every writer.)
  std::vector<std::unique_lock<std::mutex>> frozen;
  frozen.reserve(tables_.size());
  for (auto& [name, t] : tables_) frozen.emplace_back(t->write_mu_);
  const uint64_t next_epoch = epoch_ + 1;
  const std::string snap_path = SnapshotPath(options_.wal_path);
  FileRewrite snapshot(env_, options_.io_policy, snap_path + ".tmp",
                       snap_path);
  Status s = snapshot.Open();
  if (!s.ok()) return s;
  WritableFile* tmp = snapshot.file();
  // Stream one table at a time: the transient buffer stays bounded by the
  // largest table instead of doubling the whole database in memory.
  uint64_t snapshot_bytes = 0;
  std::string blob;
  blob.append(kSnapshotMagic, kSnapshotMagicLen);
  PutVarint64(&blob, next_epoch);
  PutFixed64(&blob, seal_seq_.mark());
  PutVarint64(&blob, tables_.size());
  s = tmp->Append(blob);
  snapshot_bytes += blob.size();
  for (auto& [name, t] : tables_) {
    if (!s.ok()) break;
    blob.clear();
    PutLengthPrefixed(&blob, name);
    PutVarint64(&blob, t->slots_.size());
    for (const auto& slot : t->slots_) {
      if (!slot) {
        blob.push_back(char(0));
        continue;
      }
      blob.push_back(char(1));
      // The row image goes to disk verbatim — the snapshot never holds
      // personal data in plaintext when encryption is on.
      blob.append(*slot);
    }
    s = tmp->Append(blob);
    snapshot_bytes += blob.size();
  }
  // Commit point. A failure before the rename only touched the temp: the
  // old snapshot and the full WAL are still authoritative, so the store
  // stays healthy and the caller may simply try again later. After the
  // rename, the new snapshot makes the old WAL redundant (recovery drops
  // an epoch-mismatched log). A rename whose directory sync failed is
  // visible but maybe not durable: the WAL may neither be truncated (a
  // crash can bring the old snapshot back) nor take more writes (recovery
  // would drop them with the old WAL), so it degrades until a checkpoint
  // succeeds.
  if (s.ok()) s = snapshot.Commit(/*reopened=*/nullptr);
  if (!s.ok()) {
    if (snapshot.committed()) wal_health_.Degrade(s);
    return s;
  }
  const uint64_t wal_before = WalBytes();
  // Quiesce the pipeline for the swap. Every writer mutex is held, so no
  // mutator is mid-commit; the quiesce drains whatever the committer
  // had in flight and parks new commits until the stamped WAL is in.
  Status ws = pipeline_->WithFile(wal_target_, [&](CommitPipeline::FileSlot&
                                                        wal) -> Status {
    // Closed before the truncating reopen, so no buffered tail of the old
    // handle can land in the new file.
    if (wal) (void)wal->Close().ok();
    Status fs = StampWal(wal, next_epoch);
    if (!fs.ok()) {
      // The snapshot committed but the WAL could not be re-established.
      // Writes from here on would either be lost silently (no handle) or
      // discarded on the next recovery (no epoch stamp), so degrade:
      // every later mutation returns Unavailable instead of lying, while
      // reads keep serving from memory.
      wal_health_.Degrade(fs);
      return fs;
    }
    // The new file clears the pipeline's poison latch: a freshly stamped
    // WAL next to a snapshot of all of memory is exactly the full rewrite
    // a previously degraded WAL was waiting for.
    wal_health_.Heal();
    return Status::OK();
  });
  if (!ws.ok()) return ws;
  epoch_ = next_epoch;
  m_checkpoints_->Add(1);
  last_ckpt_wal_before_.store(wal_before);
  last_ckpt_wal_after_.store(WalBytes());
  last_ckpt_snapshot_bytes_.store(snapshot_bytes);
  last_ckpt_micros_.store(RealClock::Default()->NowMicros());
  return Status::OK();
}

Status Database::StampWal(CommitPipeline::FileSlot& wal, uint64_t epoch) {
  Status s = OpenWithRetry(env_, options_.io_policy, options_.wal_path,
                           /*truncate=*/true, &wal);
  const std::string frame = EpochFrame(epoch);
  if (s.ok()) s = wal->Append(frame);
  if (s.ok()) s = wal->Sync();
  if (!s.ok()) {
    wal.reset();
    return s;
  }
  m_wal_log_bytes_->Set(static_cast<int64_t>(frame.size()));
  return s;
}

CheckpointStats Database::GetCheckpointStats() const {
  CheckpointStats s;
  s.checkpoints = m_checkpoints_->Value();
  s.wal_bytes = WalBytes();
  s.last_wal_bytes_before = last_ckpt_wal_before_.load();
  s.last_wal_bytes_after = last_ckpt_wal_after_.load();
  s.last_snapshot_bytes = last_ckpt_snapshot_bytes_.load();
  s.last_checkpoint_micros = last_ckpt_micros_.load();
  return s;
}

Status Database::LogStatement(const std::string& text) {
  // The unlocked gate reads the atomic flag: Close() drops the statement
  // log under stmt_mu_, which this path does not hold.
  if (!stmt_logging()) return Status::OK();
  // Degraded statement logging suspends silently for reads: mutations are
  // already refused at WalHealthy(), and failing every SELECT would turn
  // one bad disk into a full outage. Health() reports the suspension.
  if (!stmt_health_.writable()) return Status::OK();
  // The commit happens OUTSIDE stmt_mu_ — the group fsync must never run
  // under a mutex the read paths contend on. Rotation bookkeeping below
  // retakes the lock.
  Status s = pipeline_->Commit(stmt_target_, text + "\n");
  if (!s.ok()) {
    // The discovering statement sees the error once, loudly (the pipeline
    // degraded stmt_health_); later ones serve unlogged under the latch.
    return s;
  }
  std::lock_guard<std::mutex> l(stmt_mu_);
  stmt_bytes_ += text.size() + 1;
  m_stmt_statements_->Add(1);
  m_stmt_bytes_total_->Add(text.size() + 1);
  m_stmt_log_bytes_->Set(static_cast<int64_t>(stmt_bytes_));
  if (options_.stmt_log_rotate_bytes != 0 &&
      stmt_bytes_ >= options_.stmt_log_rotate_bytes) {
    return RotateStatementLogLocked();
  }
  return Status::OK();
}

Status Database::RotateStatementLogLocked() {
  // Quiesce the pipeline for the handle swap: queued statement frames
  // drain into the old segment (they logically precede the rotation),
  // racing commits park at the pipeline gate until the fresh log is in.
  return pipeline_->WithFile(stmt_target_, [&](CommitPipeline::FileSlot&
                                                  log) -> Status {
    Status s = log->Sync();
    if (s.ok()) s = log->Close();
    log.reset();
    const std::string& base = options_.statement_log_path;
    const size_t max = std::max<size_t>(options_.stmt_log_max_segments, 1);
    if (s.ok()) {
      // Shift the retained window up; the oldest segment falls off the end.
      env_->DeleteFile(base + "." + std::to_string(max)).ok();
      for (size_t i = max; i-- > 1;) {
        const std::string from = base + "." + std::to_string(i);
        if (env_->FileExists(from)) {
          s = env_->RenameFile(from, base + "." + std::to_string(i + 1));
          if (!s.ok()) break;
        }
      }
    }
    if (s.ok()) s = env_->RenameFile(base, base + ".1");
    if (s.ok()) s = env_->SyncDir(base);
    if (s.ok()) {
      // Background path: bounded retry on transient failure — re-creating
      // the truncated fresh log is idempotent.
      s = OpenWithRetry(env_, options_.io_policy, base, /*truncate=*/true,
                        &log);
      if (s.ok()) {
        stmt_bytes_ = 0;
        m_stmt_log_bytes_->Set(0);
      }
    }
    if (!s.ok()) {
      // Statements from here would vanish silently; degrade instead —
      // mutations refuse (their evidence would be incomplete), reads serve
      // unlogged, and only a reopen heals.
      stmt_health_.Degrade(s);
    }
    return s;
  });
}

}  // namespace gdpr::rel
