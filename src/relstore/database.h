// A small relational engine in the spirit of the paper's PostgreSQL:
// schema'd tables, B+tree secondary indices (maintained on every write —
// the Fig 3b cost), a replayable WAL, a statement log (log_statement=all
// retrofit), and optional at-rest encryption of string cells.
//
// Each row is one immutable image, the bytes its WAL frame and snapshot
// slot carry: a cell count, then per cell a type byte and its payload
// (docs/PERSISTENCE.md, "WAL framing"). With encrypt_at_rest each string
// cell is the marker byte 3 and one AEAD blob after the cells seals them
// all: one seal per write, one open per decoded row. Int cells stay in the
// clear, so an int predicate or index never opens a row. Logs that sealed
// each string cell alone still replay, and CreateTable seals such a row
// again as one.
//
// Predicates on an indexed column use the index (point or range probe);
// everything else falls back to a sequential scan. An element index files a
// list cell under each of its distinct elements (value.h) and serves only
// kHas; kEq on that column still means the whole cell, so it scans. Index
// entries are derived from the rows and never logged.
//
// WAL format: one self-framing binary record per mutation, committed before
// the table changes and carrying the row image, so personal data never
// reaches disk in plaintext when encryption is on:
//   'I' <table> <image>                   insert (row id = arrival order)
//   'U' <table> <rid> <image>             full new row image for rid
//   'D' <table> <rid>                     delete of rid
//   'E' <epoch>                           checkpoint stamp (first record
//                                         after a WAL truncation)
// Open() parses the log up front (a torn tail from a crash truncates the
// replay cleanly) and CreateTable applies the queued ops for that table, so
// row ids reconstruct exactly and index backfill sees the replayed rows.
//
// Checkpoint() bounds the log: it serializes every table heap (row images,
// deleted slots included so row ids stay stable) to
// <wal_path>.snapshot via write-temp + atomic rename, then truncates the
// WAL and stamps it with the snapshot's epoch. Recovery = snapshot load +
// WAL tail; an epoch mismatch (crash between the snapshot rename and the
// WAL truncate) marks the whole WAL as pre-snapshot and it is dropped —
// its every byte is already inside the snapshot. GetCompactionStats is the
// WAL's compaction account, erasure barrier included (storage/compaction.h).

#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/clock.h"
#include "common/health.h"
#include "common/status.h"
#include "crypto/aead.h"
#include "obs/metrics.h"
#include "relstore/bptree.h"
#include "relstore/value.h"
#include "storage/commit_log.h"
#include "storage/compaction.h"
#include "storage/env.h"

namespace gdpr::rel {

struct RelOptions {
  Clock* clock = nullptr;  // nullptr => RealClock::Default()
  Env* env = nullptr;      // nullptr => Env::Posix()

  bool wal_enabled = false;
  std::string wal_path;
  SyncPolicy sync_policy = SyncPolicy::kEverySec;

  bool log_statements = false;  // log every statement, reads included
  std::string statement_log_path;
  // Statement-log rotation (logrotate shape): once the active log passes
  // stmt_log_rotate_bytes it is shifted to <path>.1 (existing .1 -> .2,
  // ...) and a fresh log opened; at most stmt_log_max_segments rotated
  // files are kept, the oldest deleted. 0 = never rotate (the unbounded
  // retrofit behavior).
  uint64_t stmt_log_rotate_bytes = 0;
  size_t stmt_log_max_segments = 4;

  bool encrypt_at_rest = false;
  std::string encryption_key = "reldb-at-rest-key";

  // Shared metrics registry (the GDPR layer passes its own so one
  // Snapshot covers every layer). nullptr => the database owns a private
  // one, reachable via metrics_registry().
  obs::MetricsRegistry* metrics = nullptr;
};

struct ColumnSpec {
  std::string name;
  ValueType type;
};

class Schema {
 public:
  Schema() = default;
  Schema(std::initializer_list<ColumnSpec> cols) : columns_(cols) {}
  explicit Schema(std::vector<ColumnSpec> cols) : columns_(std::move(cols)) {}

  size_t num_columns() const { return columns_.size(); }
  const ColumnSpec& column(size_t i) const { return columns_[i]; }
  int FindColumn(const std::string& name) const {
    for (size_t i = 0; i < columns_.size(); ++i) {
      if (columns_[i].name == name) return int(i);
    }
    return -1;
  }

 private:
  std::vector<ColumnSpec> columns_;
};

using Row = std::vector<Value>;

struct Predicate {
  size_t col = 0;
  CompareOp op = CompareOp::kEq;
  Value value;
};

inline Predicate Compare(size_t col, CompareOp op, Value value) {
  Predicate p;
  p.col = col;
  p.op = op;
  p.value = std::move(value);
  return p;
}

class Table {
 public:
  Table(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t live_rows() const { return live_rows_; }

 private:
  friend class Database;

  std::string name_;
  Schema schema_;
  // Writers, one at a time from their re-match through their WAL ack and
  // apply, so WAL order equals apply order; Checkpoint takes it to freeze
  // them. Only its holder changes slots_, so what it matched under a
  // shared mu_ stays valid until it applies. Lock order:
  // Database::tables_mu_ -> write_mu_ -> mu_ -> the WAL's commit log.
  std::mutex write_mu_;
  // Readers hold it shared. Held exclusive only by CreateIndex and by the
  // apply of changes whose WAL frame is already acked, never through the
  // commit wait, so a reader never sees or waits for an unacked write.
  mutable std::shared_mutex mu_;
  // Row id = slot index + 1. A live slot owns an immutable row image (see
  // the top of this file): a write installs a new image and epoch-retires
  // the one it displaces (ApplyOp), never changes one in place, so a reader
  // that took an image under mu_ may decode it after unlocking while an
  // EpochGuard pins it. A deleted row leaves a null slot so ids in index
  // leaves stay stable.
  std::vector<std::unique_ptr<const std::string>> slots_;
  size_t live_rows_ = 0;
  size_t row_bytes_ = 0;  // the live images' lengths
  // A B+tree over one column, keyed by the whole cell or, for an element
  // index, by each of the cell's distinct elements.
  struct Index {
    BPlusTree tree;
    bool elements = false;
    void Insert(const Value& cell, uint64_t rid) {
      if (!elements) return tree.Insert(cell, rid);
      for (const Value& e : cell.Elements()) tree.Insert(e, rid);
    }
    void Erase(const Value& cell, uint64_t rid) {
      if (!elements) return (void)tree.Erase(cell, rid);
      for (const Value& e : cell.Elements()) tree.Erase(e, rid);
    }
  };
  std::map<size_t, Index> indexes_;  // by column
  // Per indexed column: rows CreateIndex's backfill could not decrypt. They
  // are in no index on a string column, so every probe of that index
  // reports them as unreadable. Sticky until the table empties or is
  // reopened.
  std::map<size_t, size_t> index_unreadable_;
};

// What recovery restored on Open (observability + tests).
struct ReplayStats {
  size_t inserts = 0;
  size_t updates = 0;
  size_t deletes = 0;
  size_t snapshot_rows = 0;     // live rows loaded from the checkpoint
  bool from_snapshot = false;   // a checkpoint snapshot was loaded
  bool truncated_tail = false;  // log ended mid-record (torn write)
};

class Database {
 public:
  explicit Database(const RelOptions& options);
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  Status Open();
  Status Close();

  StatusOr<Table*> CreateTable(const std::string& name, Schema schema);
  Table* GetTable(const std::string& name);
  // Builds a B+tree over the column, backfilling existing rows; with
  // `elements`, an element index (one entry per distinct list element).
  Status CreateIndex(const std::string& table, const std::string& column,
                     bool elements = false);
  // Drops the recovered rows of a table that will not be created again
  // (its rows are derivable from another table's), so Checkpoint stops
  // refusing and the next one leaves them out. A created table is kept.
  void DiscardPending(const std::string& table);

  Status Insert(Table* t, Row row);
  // A row whose sealed string cells fail at-rest decryption is unreadable
  // as a whole: it is never answered with its sealed bytes, and never
  // silently left out. Its int cells stay readable.
  // - Select and ScanRows return DataLoss after visiting every readable
  //   row they met.
  // - Update and Delete return DataLoss and change nothing when they cannot
  //   tell whether an unreadable row matches: the predicate is on a string
  //   column, or the probed index could not hold the row (see
  //   Table::index_unreadable_).
  // - Update also refuses a matched unreadable row, rather than seal
  //   cells it cannot read; Delete removes it.
  StatusOr<std::vector<Row>> Select(Table* t, const Predicate& pred,
                                    size_t limit = 0);
  // Visits every matching row (decoded), at most `limit` when nonzero; fn
  // returns false to stop.
  Status Select(Table* t, const Predicate& pred, size_t limit,
                const std::function<bool(Row&)>& fn);
  // Visits every live row (decoded); fn returns false to stop the scan. fn
  // sees every readable row before an unreadable one turns into DataLoss.
  Status ScanRows(Table* t, const std::function<bool(const Row&)>& fn);
  // Applies `mutate` to each matching row, maintaining indices on changed
  // columns. All or nothing: every new row image is built and checked
  // before any slot, index or WAL frame changes. Returns rows updated.
  // `mutate` runs with no table lock held, and may run twice for one row:
  // when a concurrent write overtook the build, it is discarded and run
  // again under the writer mutex (see Mutate). It must only change the row
  // given.
  StatusOr<size_t> Update(Table* t, const Predicate& pred,
                          const std::function<void(Row*)>& mutate);
  StatusOr<size_t> Delete(Table* t, const Predicate& pred);
  // The expiry path (TtlDaemon): a sequential scan whose predicate also
  // sees unreadable rows, their string cells null, so it can remove a
  // corrupt row; it never returns DataLoss.
  StatusOr<size_t> DeleteWhere(Table* t,
                               const std::function<bool(const Row&)>& pred);

  // Resident bytes across rows + index structures (Table 3's space factor).
  size_t ApproximateBytes() const;
  Clock* clock() { return clock_; }

  const ReplayStats& replay_stats() const { return replay_stats_; }

  // Serializes every table heap to <wal_path>.snapshot (temp + atomic
  // rename) and truncates the WAL. Writers are frozen for the duration
  // (each holds its table's writer mutex from its WAL append through its
  // apply, and Checkpoint holds them all); readers are not. No-op success
  // when the WAL is disabled.
  Status Checkpoint();
  // Thin view over the registry gauge reldb_wal_log_bytes.
  uint64_t WalBytes() const {
    const int64_t v = m_wal_log_bytes_->Value();
    return v > 0 ? static_cast<uint64_t>(v) : 0;
  }
  // No-op without a WAL; else the row just erased stays pending until a
  // checkpoint started after this call completes.
  void NoteErasure();
  CompactionStats GetCompactionStats();
  // Checkpoint passes *started* (>= GetCompactionStats().compactions).
  uint64_t CheckpointStarts() const { return checkpoint_starts_.load(); }

  static std::string SnapshotPath(const std::string& wal_path) {
    return wal_path + ".snapshot";
  }

  // --- Health ---------------------------------------------------------------
  // Worst of the two durability paths. A WAL failure degrades mutations
  // (Unavailable) while reads keep serving; a statement-log failure also
  // refuses mutations (their evidence would be incomplete) but suspends
  // read logging instead of failing reads. A successful Checkpoint() heals
  // the WAL side — it rewrites the whole persistent state from memory; the
  // statement log only heals on reopen.
  HealthReport Health() const {
    return Worse(wal_health_.report(), stmt_health_.report());
  }

  // --- Observability ---------------------------------------------------------
  obs::MetricsRegistry* metrics_registry() const { return metrics_; }
  obs::RegistrySnapshot StatsSnapshot();

 private:
  // One row mutation: parsed from the WAL awaiting its table, or built by
  // a live write on its way to the WAL and the heap.
  struct WalOp {
    char op = 'I';       // 'I' / 'U' / 'D'
    uint64_t rid = 0;    // U/D target row id
    std::string stored;  // I/U row image
  };
  // A live write's change to one row: its op plus the plain images the
  // indexes need (`before` empty on insert, `after` empty on delete).
  struct RowChange {
    WalOp op;
    Row before;
    Row after;
  };
  // What a predicate matched: each live row's id with the image the match
  // saw, and how many rows it could not tell about (unreadable).
  struct Matched {
    std::vector<std::pair<uint64_t, const std::string*>> rows;
    size_t unreadable = 0;
    bool operator==(const Matched& o) const {
      return unreadable == o.unreadable && rows == o.rows;
    }
  };
  using BuildFn =
      std::function<Status(const Matched&, std::vector<RowChange>*)>;

  // Parses the mutation frame at the front of `*in` into pending_replay_
  // and consumes it; false when it does not parse.
  bool ParseWalFrame(std::string_view* in);
  // Appends one frame; the inverse of ParseWalFrame.
  static void EncodeWalOp(std::string* dst, std::string_view table,
                          const WalOp& op);
  // Parses a checkpoint snapshot into pending_snapshot_ + epoch_.
  Status ParseSnapshot(std::string_view contents);
  // Parses the row image at the front of `*in` into *image and consumes
  // it; false when it does not parse. Resumes the seal counter above the
  // seq its sealed block, or each legacy sealed cell, leads with. Recovery
  // reads every row through it and raises the counter above the
  // snapshot's recorded mark, so no (key, seq) pair on disk is sealed
  // again, including seqs a discarded build burned without writing a byte.
  bool ReadImage(std::string_view* in, std::string* image);
  // Replay's one-way format step, run once every log is read (so the
  // counter is above every replayed seq): a legacy image, each string cell
  // sealed alone, is opened and sealed again as one row. One that does not
  // open stays as it is, unreadable.
  void Migrate(std::string* image);
  // The one heap change for an I/U/D op, shared by live writes and
  // replay: the slot, live_rows_ and row_bytes_. An I/U installs a new
  // image; U/D retire the displaced one to the EpochManager. Returns the
  // row id it changed, 0 when the op does not fit the table (a missing
  // row, schema drift); an 'I' that does not fit still takes its slot.
  uint64_t ApplyOp(Table* t, WalOp op);
  // Applies queued ops for a freshly created table (no locks needed: the
  // table is not yet visible to other threads).
  void ApplyReplay(Table* t, std::vector<WalOp> ops);
  void ApplySnapshot(Table* t, std::vector<std::optional<std::string>> slots);
  // Caller holds t->write_mu_, not t->mu_, and has checked every change:
  // logs them as one WAL append and waits for its ack, then takes t->mu_
  // exclusive and applies each to the indexes and the heap; a failed append
  // changes nothing.
  Status ApplyChanges(Table* t, std::vector<RowChange>* changes);
  // The one place that picks an index probe or a scan (every live row
  // when pred is null). Caller holds t->mu_, shared or exclusive; the
  // images it returns outlive the lock only under an EpochGuard taken
  // before it. A scanned predicate cell that fails decryption counts as
  // unreadable, as do an index's unindexed unreadable rows when the index
  // serves the probe.
  Matched MatchRowIds(const Table* t, const Predicate* pred,
                      size_t limit) const;
  // The read loop behind Select (pred set) and ScanRows (every row): the
  // match runs under t->mu_ (shared), then the lock drops and each
  // readable matched row is decoded and handed to fn, which returns false
  // to stop.
  Status VisitRows(Table* t, const Predicate* pred, size_t limit,
                   const std::function<bool(Row&)>& fn);
  // The one write path behind Insert, Update, Delete and DeleteWhere: the
  // statement `verb <table> where` is logged as received, then `build`
  // lists every row change, which ApplyChanges logs and applies only if
  // it returns OK. Returns the number of changes.
  // - With no `pred` (Insert, DeleteWhere), build runs once, under the
  //   writer mutex and the shared lock, and is given an empty match.
  // - With a `pred` (Update, Delete), the match runs under the shared lock
  //   and build runs on it with no lock held, so AEAD and row decoding do
  //   not block the table. A match of nothing returns 0 there, and a
  //   failed build its error, with no writer mutex and no WAL frame.
  //   Under the writer mutex and the shared lock the match runs again: if
  //   its rows or images changed, the build is discarded
  //   (reldb_write_rebuilds_total) and run again there.
  StatusOr<size_t> Mutate(Table* t, const char* verb, const char* where,
                          const Predicate* pred, const BuildFn& build);
  // Takes t->write_mu_, sampling the wait into reldb_write_wait_us.
  std::unique_lock<std::mutex> LockWriter(Table* t);
  // The one row decoder and its one AEAD open. A row that fails to open
  // clears *intact and decodes with its int cells and null string cells.
  Row DecodeRow(std::string_view image, bool* intact = nullptr) const;
  // Cell `col` of an image; false when the row is unreadable. Only a
  // string cell under encryption opens the row.
  bool CellOf(std::string_view image, size_t col, Value* out) const;
  static Status Unreadable(const Table* t, size_t rows);
  // The one row encoder: with encryption, one seal over every string cell.
  std::string EncodeRow(const Row& plain);

  Status LogStatement(const std::string& text);
  // Shifts <path>.i -> <path>.i+1, the active log to <path>.1, and opens a
  // fresh one (the log quiesced for the handle swap). Caller holds
  // stmt_mu_. Failure (after bounded retry) degrades the store: mutations
  // refuse, reads serve unlogged.
  Status RotateStatementLogLocked();
  // Hot-path gate for "is statement logging on": Close() drops the
  // statement log under stmt_mu_, so this flag is what the fast paths read.
  bool stmt_logging() const {
    return stmt_active_.load(std::memory_order_acquire);
  }
  Status WalAppend(const std::string& text);
  // Truncates the WAL into a fresh file in `wal` stamped with `epoch` (a
  // synced 'E' frame); `wal` is left empty on failure. Only for a WAL
  // already inside the snapshot: the truncation loses nothing. The caller
  // decides what a failure does to health.
  Status StampWal(CommitLog::FileSlot& wal, uint64_t epoch);
  // Pre-mutation gate, run before the statement is logged: refuses a write
  // up front when either log is degraded. A degraded statement log means
  // the write's evidence would be missing; a checkpoint can degrade the
  // WAL without poisoning its commit log, so the log alone would still
  // take the frame.
  Status WalHealthy();

  RelOptions options_;
  Clock* clock_;
  Env* env_;
  std::unique_ptr<Aead> aead_;
  SealCounter seal_seq_;

  // --- Metrics (registry-backed; see docs/OBSERVABILITY.md) ---------------
  void InitMetrics();
  std::unique_ptr<obs::MetricsRegistry> owned_metrics_;
  obs::MetricsRegistry* metrics_ = nullptr;
  obs::Histogram* insert_us_ = nullptr;
  obs::Histogram* select_us_ = nullptr;
  obs::Histogram* update_us_ = nullptr;
  obs::Histogram* delete_us_ = nullptr;
  obs::Histogram* checkpoint_us_ = nullptr;
  obs::Histogram* write_wait_us_ = nullptr;  // Mutate's wait for write_mu_
  obs::Counter* m_wal_appends_ = nullptr;
  obs::Counter* m_wal_append_bytes_ = nullptr;
  obs::Counter* m_wal_failures_ = nullptr;
  obs::Counter* m_stmt_statements_ = nullptr;
  obs::Counter* m_stmt_bytes_total_ = nullptr;
  obs::Counter* m_checkpoints_ = nullptr;   // reldb_checkpoints_total (view)
  obs::Counter* m_rows_sealed_ = nullptr;   // AEAD seals (encrypt_at_rest)
  obs::Counter* m_rows_opened_ = nullptr;   // AEAD opens (encrypt_at_rest)
  obs::Counter* m_write_rebuilds_ = nullptr;  // discarded optimistic builds
  obs::Gauge* m_wal_log_bytes_ = nullptr;   // reldb_wal_log_bytes (view)
  obs::Gauge* m_stmt_log_bytes_ = nullptr;  // active statement log length

  mutable std::mutex tables_mu_;
  std::map<std::string, std::unique_ptr<Table>> tables_;

  std::map<std::string, std::vector<WalOp>> pending_replay_;
  std::map<std::string, std::vector<std::optional<std::string>>>
      pending_snapshot_;
  ReplayStats replay_stats_;

  // Checkpoint epoch: bumped on every Checkpoint(), stamped into both the
  // snapshot header and the truncated WAL's leading 'E' frame so recovery
  // can tell a post-checkpoint WAL tail from a stale pre-checkpoint log.
  uint64_t epoch_ = 0;
  std::mutex checkpoint_mu_;
  std::atomic<uint64_t> checkpoint_starts_{0};
  std::atomic<uint64_t> last_ckpt_wal_before_{0};
  std::atomic<uint64_t> last_ckpt_wal_after_{0};
  std::atomic<uint64_t> last_ckpt_snapshot_bytes_{0};
  std::atomic<int64_t> last_ckpt_micros_{0};
  ErasureBarrier erasures_;

  // Degraded when the WAL can no longer be trusted to persist acked
  // mutations (failed hot-path append/sync, failed re-establishment after
  // a checkpoint). Healed by the next successful Checkpoint().
  HealthTracker wal_health_;
  std::mutex stmt_mu_;
  uint64_t stmt_bytes_ = 0;  // active statement log length; under stmt_mu_
  // Degraded when statement logging failed (append or rotation): evidence
  // of later statements would be lost, so mutations refuse and read
  // logging suspends. Only reopen heals.
  HealthTracker stmt_health_;
  std::atomic<bool> stmt_active_{false};

  // Both log files live in their group-commit logs: each batch's leader
  // writes them, and Open, Close, Checkpoint and statement-log rotation
  // reach them through WithFile / CloseFile. Declared after the health
  // trackers they degrade, so they go first.
  std::unique_ptr<CommitLog> wal_log_;
  std::unique_ptr<CommitLog> stmt_log_;

  bool open_ = false;
};

}  // namespace gdpr::rel
