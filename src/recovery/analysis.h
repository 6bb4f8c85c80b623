// Analysis passes that build the DPT:
//
//  * RunSqlAnalysis — Algorithm 3: SQL Server's integrated analysis, driven
//    by update-record PIDs and pruned by BW-records. Also builds the active
//    transaction table for undo.
//  * RunDcRecovery — the DC redo/analysis pass of logical recovery (§4.2,
//    Algorithm 4): constructs the DPT purely from Δ-records (standard /
//    perfect / reduced modes, App. D), with the claim stamps that order the
//    PF-list (App. A.2; BuildPfList in prefetch.h), redoes SMOs so the
//    B-tree is well-formed, and optionally preloads the index (App. A.1)
//    under its own scan. With a DPT (Log1/Log2) the pass runs in two
//    phases: the scan builds the DPT and only collects the LSNs of the
//    structure records; the replay then re-reads them in LSN order and
//    installs only the SMO images Algorithm 5's test cannot prove durable.
//    Log2's pass also lists the pages of the log's tail beside the DPT,
//    for its PF-list (DcRecoveryResult::tail_pages).
//
// Shape. Each pass is one serial scan of the log on its caller's thread:
// it applies every DPT mutation (add, seed, prune probe, remove) to the
// result DPT in scan order, and keeps the
// ActiveTxnTable and max_txn_id (in LSN order, as undo requires),
// redo_start_lsn and the prev-Δ chain beside it. The DC pass's structure
// replay runs once the scan ends, so it filters by the final DPT, and
// Log2's index preload is stepped by the scan and the replay. The passes
// are not partitioned: a DPT mutation costs tens of nanoseconds, so shard
// workers fed over rings only added wall time, and the one CPU term they
// could overlap in simulated time is the DPT's (README, "One recovery
// thread").
//
// Claim stamps (the PF-list's order, App. A.2). The DC pass numbers every
// DirtySet entry in scan order, and each upsert carries its number: a
// first mention stamps the new entry with it. A WrittenSet prune that
// raises a page's rLSN to FW-LSN takes the number of its Δ-record's first
// DirtySet entry naming the page with a proxy >= FW-LSN, and restamps the
// entry. So a stamp always names the entry that set the final rLSN, which
// is where redo will claim the page (prefetch.h says why App. A.2's
// first-mention order is not).
//
// Simulated time. cpu_per_dpt_update_us is charged per DPT mutation
// event: every add, seed (of a page already present too), prune probe
// (hit or miss) and remove, counted in dpt_updates. Nothing in the scan
// depends on absolute time between records, so the charge goes where it
// hides the most I/O. The SQL analysis pass and the DC pass without the
// preload (Log0, Log1) have no read in flight and charge it all at pass
// end. Log2's DC pass charges the scan's events when the scan ends, while
// the preload's and the install pages' reads are in flight, and the
// free-list purge's events after the purge. Log-page read I/O is charged
// by the pass's iterator (charge_io).
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/options.h"
#include "common/status.h"
#include "common/types.h"
#include "dc/data_component.h"
#include "recovery/dpt.h"
#include "sim/clock.h"
#include "wal/log_manager.h"

namespace deutero {

/// Loser-candidate table: txn id -> LSN of its last logged record.
///
/// Storage: a flat vector of (txn, lsn) pairs with linear probes instead of
/// unordered_map. Active-transaction counts are small (tens at most — every
/// live txn holds locks), so a contiguous scan beats hashing: no node
/// allocations per insert, no pointer chasing per record during analysis and
/// the logical redo scan, and erase is a swap-with-back. Iteration order is
/// unspecified (as it was with unordered_map); undo's loser heap orders by
/// LSN, which is unique, so recovery output does not depend on it.
class ActiveTxnTable {
 public:
  using value_type = std::pair<TxnId, Lsn>;
  using iterator = std::vector<value_type>::iterator;
  using const_iterator = std::vector<value_type>::const_iterator;

  iterator begin() { return entries_.begin(); }
  iterator end() { return entries_.end(); }
  const_iterator begin() const { return entries_.begin(); }
  const_iterator end() const { return entries_.end(); }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  void clear() { entries_.clear(); }

  iterator find(TxnId txn) {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == txn) return it;
    }
    return entries_.end();
  }
  const_iterator find(TxnId txn) const {
    for (auto it = entries_.begin(); it != entries_.end(); ++it) {
      if (it->first == txn) return it;
    }
    return entries_.end();
  }

  size_t count(TxnId txn) const { return find(txn) == end() ? 0 : 1; }

  /// Mapped LSN of `txn`. Unlike map::at this does not throw on a missing
  /// key: it asserts in debug builds and returns kInvalidLsn in release.
  Lsn at(TxnId txn) const {
    const const_iterator it = find(txn);
    assert(it != end() && "ActiveTxnTable::at on missing txn");
    return it == end() ? kInvalidLsn : it->second;
  }

  Lsn& operator[](TxnId txn) {
    const iterator it = find(txn);
    if (it != entries_.end()) return it->second;
    entries_.emplace_back(txn, kInvalidLsn);
    return entries_.back().second;
  }

  std::pair<iterator, bool> try_emplace(TxnId txn, Lsn lsn) {
    const iterator it = find(txn);
    if (it != entries_.end()) return {it, false};
    entries_.emplace_back(txn, lsn);
    return {entries_.end() - 1, true};
  }

  size_t erase(TxnId txn) {
    const iterator it = find(txn);
    if (it == entries_.end()) return 0;
    *it = entries_.back();
    entries_.pop_back();
    return 1;
  }

 private:
  std::vector<value_type> entries_;
};

/// RAII: quiesce normal-operation instrumentation (dirty monitor, pool
/// callbacks) for the duration of a recovery pass, restoring the previous
/// state on exit. RecoveryManager already does this globally, but the pass
/// functions must be safe when driven directly (tests, tools): a live
/// monitor would react to redo-time MarkDirty by APPENDING Δ/BW records to
/// the very log being scanned — corrupting the recovery log and, since the
/// scan holds zero-copy LogRecordViews into the log buffer, potentially
/// invalidating the view mid-record when the append reallocates it.
class RecoveryPassQuiescence {
 public:
  explicit RecoveryPassQuiescence(DataComponent* dc)
      : dc_(dc),
        monitor_was_(dc->monitor().enabled()),
        callbacks_were_(dc->pool().callbacks_enabled()) {
    dc_->monitor().set_enabled(false);
    dc_->pool().set_callbacks_enabled(false);
  }
  ~RecoveryPassQuiescence() {
    dc_->pool().set_callbacks_enabled(callbacks_were_);
    dc_->monitor().set_enabled(monitor_was_);
  }
  RecoveryPassQuiescence(const RecoveryPassQuiescence&) = delete;
  RecoveryPassQuiescence& operator=(const RecoveryPassQuiescence&) = delete;

 private:
  DataComponent* dc_;
  bool monitor_was_;
  bool callbacks_were_;
};

/// Row-count effect of one redoable data-op record: +1 insert, -1 delete,
/// a CLR's carried compensation delta, 0 otherwise. Summed over the redo
/// scan (clamped per record) this reproduces the runtime counter exactly.
template <typename RecordT>
int64_t RecordRowDelta(const RecordT& rec) {
  switch (rec.type) {
    case LogRecordType::kInsert:
      return 1;
    case LogRecordType::kDelete:
      return -1;
    case LogRecordType::kClr:
      return rec.clr_row_delta;
    default:
      return 0;
  }
}

/// Maintain the ATT incrementally from a scanned record. Templated over the
/// record representation so the zero-copy LogRecordView of recovery scans
/// and the owning LogRecord of tests both work without conversion.
template <typename RecordT>
void ObserveForAtt(const RecordT& rec, ActiveTxnTable* att,
                   TxnId* max_txn_id) {
  switch (rec.type) {
    case LogRecordType::kTxnBegin:
    case LogRecordType::kUpdate:
    case LogRecordType::kInsert:
    case LogRecordType::kDelete:
    case LogRecordType::kClr:
      (*att)[rec.txn_id] = rec.lsn;
      if (max_txn_id != nullptr && rec.txn_id > *max_txn_id) {
        *max_txn_id = rec.txn_id;
      }
      break;
    case LogRecordType::kTxnCommit:
    case LogRecordType::kTxnAbort:
      att->erase(rec.txn_id);
      if (max_txn_id != nullptr && rec.txn_id > *max_txn_id) {
        *max_txn_id = rec.txn_id;
      }
      break;
    case LogRecordType::kBeginCheckpoint:
      // The checkpoint's captured ATT seeds transactions whose records all
      // precede the redo scan start point (idle losers).
      for (size_t i = 0; i < rec.att_txn_ids.size(); i++) {
        const TxnId txn = rec.att_txn_ids[i];
        auto [it, inserted] = att->try_emplace(txn, rec.att_last_lsns[i]);
        if (!inserted && it->second < rec.att_last_lsns[i]) {
          it->second = rec.att_last_lsns[i];
        }
        if (max_txn_id != nullptr && txn > *max_txn_id) *max_txn_id = txn;
      }
      break;
    default:
      break;
  }
}

struct SqlAnalysisResult {
  DirtyPageTable dpt;
  ActiveTxnTable att;
  TxnId max_txn_id = 0;
  uint64_t bw_records_seen = 0;
  uint64_t delta_records_seen = 0;  ///< Present on the common log; ignored.
  uint64_t records_scanned = 0;
  uint64_t log_pages = 0;
  /// DPT mutation events performed (adds/seeds/prune probes/removals) —
  /// the unit cpu_per_dpt_update_us is charged per.
  uint64_t dpt_updates = 0;
  /// Where redo must start. Equal to the analysis start under penultimate
  /// checkpointing; under ARIES checkpointing (§3.1) it reaches back to the
  /// oldest rLSN of the DPT captured in the checkpoint record.
  Lsn redo_start_lsn = kInvalidLsn;
};

/// Algorithm 3 over [bckpt_lsn, stable end). When `clock` is non-null,
/// DPT mutation CPU (`cpu_per_dpt_update_us` per event) is charged to it
/// at pass end. RecoveryManager passes the engine clock; direct callers
/// that only care about the tables may omit it.
Status RunSqlAnalysis(LogManager* log, Lsn bckpt_lsn, SqlAnalysisResult* out,
                      SimClock* clock = nullptr,
                      double cpu_per_dpt_update_us = 0);

struct DcRecoveryResult {
  DirtyPageTable dpt;  ///< Entries carry their claim stamps.
  Lsn last_delta_tc_lsn = kInvalidLsn;  ///< Tail-mode boundary (§4.3).
  /// Log2: the leaves that the data-op records at or after
  /// last_delta_tc_lsn (the whole window, with no Δ-record in it) update
  /// and the DPT does not name, each once, in the order the tail first
  /// updates them. Redo fetches every one of them (§4.3), so its PF-list
  /// lists them after the DPT pages (prefetch.h). They are never DPT
  /// entries: dpt_size and the redo tests do not see them. Empty for
  /// every other method.
  std::vector<PageId> tail_pages;
  uint64_t delta_records_seen = 0;
  uint64_t bw_records_seen = 0;  ///< Seen on the common log; ignored.
  /// Structure records (kSmo, kSmoMerge, kCreateTable) replayed with at
  /// least one image install candidate.
  uint64_t smo_redone = 0;
  /// SMO page images the DPT proved durable, so the replay never fetched
  /// their pages (allocator bookkeeping only).
  uint64_t smo_pages_skipped = 0;
  uint64_t records_scanned = 0;
  /// Scan pages plus the replay's: each log page a replayed record spans,
  /// once across the replay.
  uint64_t log_pages = 0;
  uint64_t dpt_updates = 0;  ///< DPT mutation events (see SqlAnalysisResult).
};

/// DC recovery over [bckpt_lsn, stable end). `build_dpt` is false for
/// Log0 (which still needs SMO redo for a well-formed tree, and replays it
/// inline during the scan); `preload_index` corresponds to Log2.
///
/// With a DPT the pass has two phases. The scan builds the DPT and
/// collects the LSNs of the structure records; once the DPT is final, the
/// replay re-reads them in LSN order (through one cursor that charges each
/// log page a record spans once across the replay) and installs only what
/// Algorithm 5's test cannot prove durable: a kSmo record below the last
/// Δ-record installs the images of pages in the DPT with record LSN >=
/// rLSN. Tail SMOs (§4.3), merges (the free-list must converge) and DDL
/// replay unconditionally.
///
/// With `preload_index` the index preload overlaps the pass. One
/// no-wait descent per table of the stable catalog starts with the pass
/// and is stepped at every log page the scan reads and every record the
/// replay handles, so each level's span Prefetch goes out as soon as the
/// level above it has arrived (BTree::Descent). The replay's install
/// pages go out as one span Prefetch once the DPT is final, and the
/// waiting PreloadIndex after the replay reads whatever the descents have
/// not. Without it the pass issues no prefetch.
///
/// With `preload_index` the scan also keeps the (table, key) of every
/// data-op record at or after the latest Δ-record's TC-LSN it has met,
/// dropping the older ones at each Δ-record. TC-LSN need not be a record
/// boundary, so the scan collects them rather than a second iterator
/// seeking there. After the PreloadIndex the pass resolves them on the
/// final tree with FindLeaf (no I/O: the index is loaded; its per-level
/// CPU is charged) into `tail_pages`.
Status RunDcRecovery(LogManager* log, DataComponent* dc, Lsn bckpt_lsn,
                     DptMode mode, bool build_dpt, bool preload_index,
                     DcRecoveryResult* out);

}  // namespace deutero
