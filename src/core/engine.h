// Public facade: a single-node storage engine with a Deuteronomy-style
// TC/DC split and pluggable crash recovery. The API is built around
// first-class handles (core/txn.h): an RAII Txn from Begin(), a Table
// resolved once from the catalog, snapshot Scan cursors, and atomic
// WriteBatch application. Typical lifecycle:
//
//   std::unique_ptr<Engine> db;
//   Engine::Open(options, &db);                 // bulk-loads num_rows rows
//   Table t;
//   db->OpenTable(kDefaultTableId, &t);
//   Txn txn;
//   db->Begin(&txn);
//   txn.Update(t, key, value); txn.Delete(t, old_key); txn.Commit();
//   WriteBatch batch;                           // atomic multi-op unit
//   batch.Insert(k1, v1); batch.Delete(k2);
//   db->Apply(t, batch);                        // one txn, one commit flush
//   db->Checkpoint();
//   db->SimulateCrash();                        // drop volatile state
//   RecoveryStats st;
//   db->Recover(RecoveryMethod::kLog2, &st);    // logical recovery, optimized
//
// Txn is the only transaction API: every write, commit and abort goes
// through a handle.
//
// All time is simulated (see sim/clock.h); experiments snapshot/restore the
// stable state to replay one crash under every recovery method side by side
// (paper §5.1).
#pragma once

#include <memory>
#include <string>

#include "common/mutex.h"

#include "common/options.h"
#include "common/status.h"
#include "common/types.h"
#include "concurrency/group_commit.h"
#include "core/txn.h"
#include "dc/data_component.h"
#include "recovery/page_repairer.h"
#include "recovery/stats.h"
#include "sim/clock.h"
#include "tc/transaction_component.h"
#include "wal/log_manager.h"

namespace deutero {

/// One-stop counters for the concurrent front end, aggregated across the
/// lock manager, the group-commit pipeline, and the log. Snapshot values;
/// safe to call from any thread.
struct EngineStats {
  uint64_t lock_acquires = 0;
  uint64_t lock_waits = 0;            ///< acquires that blocked at least once
  uint64_t lock_shard_collisions = 0; ///< shard mutex was contended on entry
  uint64_t wait_die_aborts = 0;       ///< younger requester killed (wait-die)
  uint64_t commits_enqueued = 0;      ///< durability waits through group commit
  uint64_t commit_batches = 0;        ///< flushes issued by the batcher
  uint64_t log_flushes = 0;           ///< physical log forces (all paths)
  uint64_t committed = 0;
  uint64_t aborted = 0;

  // Per-phase simulated timings of the last successful Recover() — zero if
  // the engine never recovered. `recovery_analysis_ms` covers DPT
  // construction (the DC pass for logical methods, Algorithm 3 for the SQL
  // family); redo and undo are the other two passes.
  double recovery_analysis_ms = 0;
  double recovery_redo_ms = 0;
  double recovery_undo_ms = 0;
  double recovery_total_ms = 0;
};

class Engine {
 public:
  /// Create a fresh database per `options` (bulk-loads options.num_rows
  /// rows with version-0 payloads) and take the initial checkpoint.
  static Status Open(const EngineOptions& options,
                     std::unique_ptr<Engine>* out);

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  // ---- DDL / catalog ----

  /// Create an additional table (the default table exists from Open).
  /// Logged as a DC system transaction and replayed by crash recovery.
  Status CreateTable(TableId table, uint32_t value_size);

  /// Resolve a table handle from the catalog (NotFound if absent).
  Status OpenTable(TableId table, Table* out);
  /// Handle for the default table (the paper's single-table workloads).
  Status OpenDefaultTable(Table* out) {
    return OpenTable(options_.table_id, out);
  }

  // ---- transactions (handle API) ----

  /// Start a transaction. The returned handle aborts itself if it leaves
  /// scope without Commit().
  Status Begin(Txn* txn);

  /// Apply every batch operation atomically: one transaction, one commit
  /// record, one log flush. On any failure the partial effects are rolled
  /// back (logical undo) and the error is returned.
  Status Apply(const Table& table, const WriteBatch& batch);

  // ---- reads (lock-free snapshot) ----
  Status Read(Key key, std::string* value);  ///< Default table.
  Status Read(TableId table, Key key, std::string* value);
  /// Snapshot range scan over [lo, hi] (inclusive) of `table`.
  Status Scan(TableId table, Key lo, Key hi, ScanCursor* out);

  // ---- checkpointing / crash / recovery ----
  Status Checkpoint(uint64_t* pages_flushed = nullptr);

  /// Drop every piece of volatile state (cache, monitors, live txns, the
  /// unflushed log tail) and reset the measurement clock.
  void SimulateCrash();

  /// Recover with the given method; the engine must be crashed. A media
  /// failure (checksum mismatch the archive could not repair in place)
  /// aborts the pass; the engine then tries the attached RepairSource and
  /// re-runs recovery from the top (every pass is idempotent), up to 3
  /// times. When the page stays broken the engine opens DEGRADED — reads
  /// are served best-effort, writes are refused — and Status::Degraded is
  /// returned.
  Status Recover(RecoveryMethod method, RecoveryStats* stats);

  bool running() const { return running_; }

  // ---- media-failure resilience (PR 7) ----

  /// Attach a remote row source (a hot standby; see StandbyRepairSource in
  /// core/replica.h) used when a corrupt page cannot be rebuilt from the
  /// local archive. Not owned; clear with nullptr before the source dies.
  void SetRepairSource(RepairSource* source) { repair_source_ = source; }

  /// True after an unrepairable page was hit: the engine serves reads but
  /// refuses new transactions and DDL (Status::Degraded).
  bool degraded() const { return degraded_; }

  PageRepairer& repairer() { return *repairer_; }

  /// Standby mode (core/replica.h): a read-only engine refuses external
  /// writes (Begin/Apply/CreateTable) while reads and scans keep working.
  /// The replication applier writes through the TC directly; Promote()
  /// clears the flag when the standby becomes the primary.
  void SetReadOnly(bool read_only) { read_only_ = read_only; }
  bool read_only() const { return read_only_; }

  // ---- stable-state snapshots (side-by-side experiments) ----
  /// The disk image and the archive share pages with the device, so taking
  /// or restoring one copies a pointer per page; the log is copied.
  struct StableSnapshot {
    DiskImage disk_image;
    LogManager::Snapshot log;
    /// The media archive is stable storage too (conceptually a separate
    /// backup device), so side-by-side experiments restore it with the rest.
    PageRepairer::ArchiveSnapshot archive;
  };
  /// Capture the crash image. Engine must be crashed.
  Status TakeStableSnapshot(StableSnapshot* out) const;
  /// Reinstall a crash image. Engine must be crashed.
  Status RestoreStableSnapshot(const StableSnapshot& snap);

  /// Aggregated concurrency counters (lock manager + group commit + log).
  EngineStats Stats() const;

  // ---- component access (tests, experiments, examples) ----
  TransactionComponent& tc() { return *tc_; }
  DataComponent& dc() { return *dc_; }
  LogManager& wal() { return *log_; }
  SimClock& clock() { return clock_; }
  const EngineOptions& options() const { return options_; }

 private:
  friend class Txn;

  explicit Engine(const EngineOptions& options);

  // Txn's backends.
  /// One write of `op` (kUpdate, kInsert or kDelete; a delete ignores
  /// `value`).
  Status TxnWrite(LogRecordType op, TxnId txn, TableId table, Key key,
                  Slice value);
  Status TxnRead(TxnId txn, TableId table, Key key, std::string* value);
  Status TxnCommit(TxnId txn);
  /// Runtime rollback: recovery's undo pass run on this one loser.
  Status TxnAbort(TxnId txn);

  /// Shared tail of Read/Scan corruption handling: try the remote source
  /// for the pool's last corrupt page; flip to degraded when that fails.
  /// Returns OK when the caller should retry the failed operation once.
  Status TryRemoteRepair(const Status& failure);

  EngineOptions options_;
  SimClock clock_;
  std::unique_ptr<LogManager> log_;
  std::unique_ptr<DataComponent> dc_;
  std::unique_ptr<TransactionComponent> tc_;
  std::unique_ptr<PageRepairer> repairer_;
  RepairSource* repair_source_ = nullptr;
  bool running_ = false;
  bool read_only_ = false;
  bool degraded_ = false;
  /// Phase breakdown of the last successful Recover(), surfaced by Stats().
  RecoveryStats last_recovery_;

  /// Forward-path gate. Writes, commits, aborts, checkpoints, DDL, crash,
  /// and media repair hold it exclusively; Read/Scan/TxnRead hold it
  /// shared, so concurrent readers run in parallel against the (sharded)
  /// buffer pool while log-appending work is serialized — log order must
  /// equal apply order for page LSNs and delta records to be meaningful.
  /// Lock waits never happen under the gate: Txn operations pre-acquire
  /// their logical lock OUTSIDE it (a blocked waiter must not hold the
  /// gate its lock holder needs in order to commit and release).
  mutable SharedMutex forward_mu_;
  /// Declared last so the batcher thread (which calls back into the
  /// engine) is stopped and destroyed before any component it touches.
  std::unique_ptr<GroupCommit> group_commit_;
};

}  // namespace deutero
