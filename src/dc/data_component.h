// Deuteronomy data component (DC): owns data placement (the table catalog
// and one B-tree per table), the database cache, and the dirty/flush
// monitoring that makes optimized logical recovery possible. The TC talks
// to it through a logical interface — (table, key, value) operations plus
// the two control operations of paper §4.1:
//
//   EOSL: the TC's end-of-stable-log notification; gates page flushes (the
//         write-ahead-log contract) and supplies FW-LSN / TC-LSN values.
//   RSSP: the TC's checkpoint: the DC flushes every page dirtied by
//         operations at or before the redo-scan start point and records the
//         rsspLSN on the log (kRsspAck) so DC recovery knows where its own
//         log scan starts.
//
// DDL is a DC system transaction: CreateTable appends a kCreateTable record
// (root page image + catalog facts + allocator mark) that DC recovery
// replays exactly like an SMO, so tables created after the last checkpoint
// survive a crash.
//
// The DC never sees transaction semantics; it applies single-record
// operations identified by key and stamps pages with the TC-supplied LSN.
// Forward writes and undo reach a leaf through one call, Apply, which
// takes the logged operation itself (type, key, after-image) — the same
// step logical redo re-submits (LeafApplyRecord).
#pragma once

#include <atomic>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "btree/btree.h"
#include "common/options.h"
#include "common/status.h"
#include "common/types.h"
#include "dc/dirty_monitor.h"
#include "sim/clock.h"
#include "sim/sim_disk.h"
#include "storage/allocator.h"
#include "storage/buffer_pool.h"
#include "storage/catalog.h"
#include "wal/log_manager.h"

namespace deutero {

class DataComponent {
 public:
  DataComponent(SimClock* clock, LogManager* log, const EngineOptions& opts);

  /// Create the database: catalog + the default table bulk-loaded with
  /// `num_rows` dense keys (paper §5.2 table: "key", fixed-size "data").
  Status CreateDatabase(const std::function<void(Key, uint8_t*)>& value_gen);

  /// Attach to an existing database (after a crash): read the catalog and
  /// rebuild the per-table B-tree objects.
  Status OpenDatabase();

  /// DDL: create an empty table (logged; replayed by recovery).
  Status CreateTable(TableId table, uint32_t value_size);

  /// The table's tree; nullptr if unknown.
  BTree* FindTable(TableId table);

  /// Schema check: does `table` exist and accept values of this size?
  /// The TC calls this BEFORE logging an operation — a record must never
  /// reach the log if the DC would refuse to apply it.
  Status ValidateValue(TableId table, size_t value_size);

  // ---- logical data operations (TC-facing) ----

  /// Map (table, key) to the owning leaf WITHOUT touching it (index
  /// traversal only — the logical recovery primitive).
  Status FindLeaf(TableId table, Key key, PageId* pid);

  /// FindLeaf that also reports the leaf's key range [*lo, *hi) (*hi valid
  /// only when *bounded) — the logical-redo memoization primitive.
  Status FindLeafRanged(TableId table, Key key, PageId* pid, Key* lo,
                        Key* hi, bool* bounded);

  /// Map (table, key) to the owning leaf and return the current value
  /// (before-image for the TC's undo logging).
  Status LocateForUpdate(TableId table, Key key, PageId* pid,
                         std::string* before);

  /// Ensure leaf space for an insert (may run logged SMOs); returns the pid.
  Status PrepareInsert(TableId table, Key key, PageId* pid);

  /// Whether leaf `pid` of `table` holds `key` (the TC's pre-logging
  /// duplicate check for inserts).
  Status LeafContains(TableId table, PageId pid, Key key, bool* contains);

  /// Apply one logged data operation (kUpdate, kInsert, kDelete or kClr)
  /// to leaf `pid` of `table` and stamp pLSN = lsn (BTree::Apply): the one
  /// write of forward operation and undo. `underfull` (optional) reports
  /// whether the op removed a row and left the leaf below the merge
  /// threshold — the caller's cue to call MaybeMergeLeaf.
  Status Apply(TableId table, PageId pid, LogRecordType type, Key key,
               Slice after, Lsn lsn, bool* underfull = nullptr);
  /// Delete-side SMO (normal operation / undo): merge the underfull leaf
  /// owning `key` into a same-parent sibling as a logged system
  /// transaction (see BTree::MaybeMergeLeaf).
  Status MaybeMergeLeaf(TableId table, Key key, bool* merged = nullptr);
  Status Read(TableId table, Key key, std::string* value);
  /// Open a cursor over [lo, hi] (inclusive) of `table`.
  Status Scan(TableId table, Key lo, Key hi, ScanCursor* out);

  /// Background work performed after each operation (lazy writer). A
  /// non-OK status means a dirty page could not be written even with
  /// retries — the caller must surface it, not drop it.
  Status Tick() { return pool_->LazyWriterTick(); }

  // ---- control operations (paper §4.1) ----

  /// EOSL: the end of the TC's stable log; operations with LSN < elsn are
  /// on it.
  /// CAS-max because reader threads reach here too: a shared-gate read
  /// that evicts a dirty page runs the WAL-force hook, which refreshes
  /// the eLSN concurrently with other forces.
  void Eosl(Lsn elsn) {
    Lsn cur = elsn_.load(std::memory_order_relaxed);
    while (elsn > cur && !elsn_.compare_exchange_weak(
                             cur, elsn, std::memory_order_relaxed)) {
    }
  }
  Lsn elsn() const { return elsn_.load(std::memory_order_relaxed); }

  /// RSSP: flush all pages dirtied by operations with LSN <= rssp_lsn
  /// (penultimate-checkpoint bit-flip flush), then log the RSSP ack.
  Status Rssp(Lsn rssp_lsn, uint64_t* pages_flushed);

  // ---- crash / recovery plumbing ----

  /// Drop all volatile DC state (cache, monitor arrays, eLSN, catalog).
  void SimulateCrash();

  /// Physical redo of an SMO record's page images (idempotent). Accepts
  /// either record representation (recovery scans pass zero-copy views).
  /// `install` filters the images per page (see RedoPhysicalImages); the
  /// allocator bookkeeping covers every page regardless.
  template <typename RecordT, typename InstallFilter = InstallEveryImage>
  Status RedoSmo(const RecordT& rec, InstallFilter install = {}) {
    return RedoPhysicalImages(pool_.get(), disk_.get(), &allocator_,
                              options_.page_size, rec, install);
  }

  /// Replay a kSmoMerge record: install the survivors' after-images,
  /// discard any cached frame of the freed victim (mirroring the run-time
  /// discard — its content is dead, so it is neither materialized nor ever
  /// flushed), and return the victim to the allocator free-list.
  /// Idempotent on every front (pLSN test; Discard/Free tolerate repeats).
  template <typename RecordT>
  Status RedoSmoMerge(const RecordT& rec) {
    DEUTERO_RETURN_NOT_OK(RedoPhysicalImages(
        pool_.get(), disk_.get(), &allocator_, options_.page_size, rec,
        [&rec](PageId pid) { return pid != rec.pid; }));
    pool_->Discard(rec.pid);
    allocator_.Free(rec.pid);
    return Status::OK();
  }

  /// Allocator bookkeeping of an SMO/DDL record whose page-image install
  /// was skipped by the DPT test: the high-water mark, the index extent
  /// cursor and the free-list must advance regardless, or a post-recovery
  /// Allocate() or AllocateIndex() could hand out a live page. The same
  /// PageAllocator::Replay call RedoPhysicalImages makes. (kSmoMerge replay
  /// is never skipped, so it has no analog.)
  template <typename RecordT>
  void NoteSmoAllocation(const RecordT& rec) {
    allocator_.Replay(rec);
  }

  /// Replay a kCreateTable record: register the table (if unknown) and
  /// install its root image (idempotent). Instantiated for LogRecord and
  /// LogRecordView in data_component.cc.
  template <typename RecordT>
  Status RedoCreateTable(const RecordT& rec);

  /// Load every internal index page of every table (paper App. A.1).
  Status PreloadIndex();

  /// Scan-side row accounting: fold one record's delta into its table's
  /// counter (clamped at zero, like the apply-side sequence it replaces).
  /// Per-record hot path: updates (delta 0) must not pay the table lookup.
  void AdjustTableRowCount(TableId table, int64_t delta) {
    if (delta == 0) return;
    BTree* tree = FindTable(table);
    if (tree != nullptr) tree->AdjustRowCount(delta);
  }

  /// Persist the catalog (roots, heights, allocator high-water mark);
  /// called at checkpoint completion and end of recovery.
  void PersistCatalog();

  /// Default table's tree (single-table convenience used by most tests and
  /// the paper's experiments).
  BTree& btree() { return *tables_.at(options_.table_id); }
  BufferPool& pool() { return *pool_; }
  DirtyPageMonitor& monitor() { return *monitor_; }
  SimDisk& disk() { return *disk_; }
  SimClock& clock() { return *clock_; }
  PageAllocator& allocator() { return allocator_; }
  const Catalog& catalog() const { return catalog_; }

  /// Wire the WAL-force path (engine glue): must make the integrated log
  /// stable at least up to the given LSN and send EOSL back.
  void set_wal_force(std::function<void(Lsn)> f);

  /// Hook fired after every PersistCatalog (checkpoint completion, end of
  /// recovery): the engine uses it to capture the media archive at a
  /// moment the stable image is self-consistent.
  void set_catalog_persisted(std::function<void()> f) {
    catalog_persisted_ = std::move(f);
  }

  const EngineOptions& options() const { return options_; }

 private:
  std::unique_ptr<BTree> MakeTree(const TableInfo& info) const;

  EngineOptions options_;
  SimClock* clock_;
  LogManager* log_;
  std::unique_ptr<SimDisk> disk_;
  std::unique_ptr<BufferPool> pool_;
  PageAllocator allocator_;
  Catalog catalog_;
  std::map<TableId, std::unique_ptr<BTree>> tables_;
  std::unique_ptr<DirtyPageMonitor> monitor_;
  std::function<void()> catalog_persisted_;
  std::atomic<Lsn> elsn_{kInvalidLsn};
};

}  // namespace deutero
