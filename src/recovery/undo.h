// Transactional undo pass — the last pass of every recovery variant, and
// deliberately identical across them ("all variants also perform logical
// undo as the last pass of recovery, and hence this performance is constant
// in all methods", paper §2.1). Losers are rolled back logically: each
// update is compensated by locating the record through the B-tree (it may
// have moved) and restoring the before-image under a CLR. Runtime rollback
// (Engine's Txn abort) is the same pass run on one loser.
//
// The pass runs on its caller's thread. It is not partitioned: it charges
// no CPU that partitions could overlap, and its demand reads serialize on
// the one shared SimClock, so apply workers would only add wall time
// (README, "One recovery thread").
//
// SQL redo is page-addressed and never reads the index, so after it those
// key traversals find the internal pages on the losers' paths cold, and
// would demand-read them one seek at a time. Crash recovery's undo reads
// the paths ahead instead (see RunUndo); a runtime rollback does not: its
// records may not be stable yet, and its pages are already cached.
#pragma once

#include <cstdint>

#include "common/status.h"
#include "dc/data_component.h"
#include "recovery/analysis.h"
#include "wal/log_manager.h"

namespace deutero {

/// Who runs the undo pass: crash recovery reads its losers' paths ahead,
/// a runtime rollback does not (see RunUndo).
enum class UndoKind : uint8_t { kRecovery, kRollback };

struct UndoResult {
  uint64_t txns_undone = 0;
  uint64_t ops_undone = 0;
  uint64_t clrs_written = 0;
  /// Backchain records read.
  uint64_t records_read = 0;
  /// Log pages those reads charged: the pass charges a page the crash
  /// left on the device once while consecutive reads stay on it
  /// (LogManager::PageMemo); a runtime rollback's records are free.
  uint64_t log_pages = 0;
};

/// Roll back every transaction in `att` (losers), interleaved in descending
/// LSN order as ARIES prescribes. Appends CLRs and final abort records,
/// then forces the log.
///
/// Every restore runs under the caller's dirty monitor, so a runtime
/// rollback reports the pages its CLRs dirty. An update or insert undo
/// reads its leaf before it logs the CLR; a delete undo first makes room
/// in the leaf (PrepareInsert may split). The restore itself is the
/// inverse write through the forward path.
///
/// With UndoKind::kRecovery the pass also reads ahead. A second heap of the
/// losers' next LSNs walks their backchains in the pass's own order with
/// LogManager::ViewRecordAt, which charges nothing (undo's ReadRecordAt
/// still charges each record once). It copies each data op's (table, key)
/// out of the view before the pass appends anything, and hands the keys to
/// BTree::PrefetchPaths grouped by table, in batches of at most
/// capacity / 8 keys: the next batch is read when undo reaches its first
/// key. The read-ahead moves only I/O timing and cache content: the undo
/// log stream, the CLRs, UndoResult and the recovered bytes do not change.
///
/// `max_ops_for_test` (tests only): stop after that many undo operations,
/// mimicking a crash in the middle of the undo pass; the CLRs written so
/// far are flushed, abort records are not. 0 = run to completion.
Status RunUndo(LogManager* log, DataComponent* dc, const ActiveTxnTable& att,
               UndoResult* out, UndoKind kind = UndoKind::kRecovery,
               uint64_t max_ops_for_test = 0);

}  // namespace deutero
