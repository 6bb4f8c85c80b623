// The five redo engines of the paper's evaluation (§5.2):
//
//   RunLogicalRedo covers Log0 (Algorithm 2: basic logical redo), Log1
//   (Algorithm 5: DPT-assisted with the tail-of-log fallback) and Log2
//   (Algorithm 5 + PF-list prefetch). Log2's index preload is done before
//   redo starts: it ran under the DC pass's scan and structure replay, and
//   the pass ended once every internal page of the final tree was loaded
//   (analysis.h). Log2 builds the PF-list from the final DPT in claim
//   order, then the log tail's pages the DC pass listed (prefetch.h), and
//   charges cpu_per_dpt_update_us per listed page.
//
//   RunSqlRedo covers SQL1 (Algorithm 1: physiological redo with DPT and
//   rLSN test) and SQL2 (+ log-driven prefetch).
//
// Both also maintain the active-transaction table for the logical families
// (the SQL family gets it from analysis) and replay CLRs (redo-only, ARIES).
//
// Shape. Each is one serial scan of the log on its caller's thread, as
// the paper's redo is (Algorithms 1, 2 and 5). It maps each data record to
// the leaf it applies to — the PID the record names (physiological), or the
// PID its fence-memoized index traversal finds (logical; the tree's
// structure is frozen during the pass) — runs the DPT tests, fetches the
// page, and re-executes the record if the pLSN test says it must. One page
// is pinned per record and released before the next. The SQL family
// replays SMO and DDL records at their log positions. The simulated clock
// is charged where the paper's serial pass charges it: the log iterator
// its pages, each record its scan CPU, each re-execution its apply CPU.
//
// Read-ahead is the paper's own prefetcher (prefetch.h: the PF-list for
// Log2, the log-driven window for SQL2), pumped as the pass scans: it is
// how redo hides I/O stall (App. A.2). No pass is partitioned, and
// recovery_threads changes nothing here: on the one-head disk every
// bench/e2e workload recovers on, redo is nearly all stall, so apply
// workers only added wall time (README, "One recovery thread").
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "common/options.h"
#include "common/status.h"
#include "common/types.h"
#include "dc/data_component.h"
#include "recovery/analysis.h"
#include "recovery/dpt.h"
#include "recovery/stats.h"
#include "wal/log_manager.h"

namespace deutero {

struct RedoResult {
  uint64_t records_scanned = 0;
  uint64_t log_pages = 0;
  uint64_t examined = 0;
  uint64_t applied = 0;
  uint64_t skipped_dpt = 0;
  uint64_t skipped_rlsn = 0;
  uint64_t skipped_plsn = 0;
  uint64_t tail_ops = 0;
  uint64_t smo_redone = 0;  ///< SQL family only (logical did them earlier).
  /// Logical family: index traversals skipped by the last-leaf memo.
  uint64_t leaf_memo_hits = 0;
  ActiveTxnTable att;       ///< Filled by the logical families.
  TxnId max_txn_id = 0;
};

/// Memo of the last logical-redo traversal: consecutive records whose keys
/// land inside the same leaf's fence range skip the index walk entirely.
/// Valid for a whole redo pass — the tree's structure is frozen then (all
/// SMOs were replayed by the DC pass; redo applies record ops only).
struct RedoLeafMemo {
  TableId table = kInvalidTableId;
  PageId pid = kInvalidPageId;
  Key lo = 0;
  Key hi = 0;
  bool bounded = false;
  bool valid = false;

  bool Hit(TableId t, Key key) const {
    return valid && t == table && key >= lo && (!bounded || key < hi);
  }
};

/// The data-prefetch window both redo families use, throttled by cache
/// size: read-ahead that fills the cache faster than redo consumes it
/// evicts pages before their use (the paper's "prefetching proceeds too
/// quickly" hazard, App. A.2).
inline uint32_t RedoPrefetchWindow(const BufferPool& pool,
                                   const EngineOptions& options) {
  return std::min<uint32_t>(
      options.prefetch_window,
      std::max<uint32_t>(4, static_cast<uint32_t>(pool.capacity() / 8)));
}

/// TC redo pass for the logical family.
///   use_dpt=false  -> Log0 semantics (every op fetches its page).
///   use_dpt=true   -> Algorithm 5; `dpt` and `last_delta_tc_lsn` required.
///   prefetch=true  -> Log2 read-ahead (with `dpt`): the PF-list.
/// `count_rows_from` bounds the scan-complete row-count accounting (see
/// RunSqlRedo); it defaults to the scan start. `tail_pages`
/// (DcRecoveryResult::tail_pages) go at the end of the PF-list.
Status RunLogicalRedo(LogManager* log, DataComponent* dc, Lsn bckpt_lsn,
                      bool use_dpt, const DirtyPageTable* dpt,
                      Lsn last_delta_tc_lsn, bool prefetch,
                      const EngineOptions& options, RedoResult* out,
                      Lsn count_rows_from = kInvalidLsn,
                      std::span<const PageId> tail_pages = {});

/// Redo pass for the SQL family (Algorithm 1), optionally with log-driven
/// prefetch (SQL2). `count_rows_from` bounds
/// the scan-complete row-count accounting: records below it are already
/// reflected in the catalog's persisted counters (ARIES checkpointing
/// starts the scan before the bCkpt; penultimate starts at it). Defaults
/// to the scan start.
Status RunSqlRedo(LogManager* log, DataComponent* dc, Lsn bckpt_lsn,
                  const DirtyPageTable* dpt, bool prefetch,
                  const EngineOptions& options, RedoResult* out,
                  Lsn count_rows_from = kInvalidLsn);

}  // namespace deutero
