#include "recovery/undo.h"

#include <algorithm>
#include <optional>
#include <queue>
#include <utility>
#include <vector>

#include "btree/btree.h"

namespace deutero {

namespace {

struct UndoCursor {
  Lsn next = kInvalidLsn;  ///< Next record of this loser to examine.
  TxnId txn = kInvalidTxnId;
  Lsn last_lsn = kInvalidLsn;  ///< Tail of the txn's chain (CLRs included).
  bool operator<(const UndoCursor& other) const {
    return next < other.next;  // max-heap: highest LSN first
  }
};

bool IsDataOp(LogRecordType type) {
  return type == LogRecordType::kUpdate || type == LogRecordType::kInsert ||
         type == LogRecordType::kDelete;
}

/// The record a loser's backchain reaches after one of `type`, or
/// kInvalidLsn at the chain's end: a CLR jumps over the prefix it already
/// compensated, a begin record ends the chain, any other record goes to
/// its predecessor. The undo pass and its read-ahead both walk by this
/// rule, so the read-ahead meets the data ops in the order undo undoes
/// them.
Lsn NextInChain(LogRecordType type, Lsn prev_lsn, Lsn undo_next_lsn) {
  switch (type) {
    case LogRecordType::kClr:
      return undo_next_lsn;
    case LogRecordType::kTxnBegin:
      return kInvalidLsn;
    default:
      return prev_lsn;
  }
}

/// Crash recovery's read-ahead of the losers' B-tree paths (see RunUndo).
/// Its heap of next LSNs follows the backchains by NextInChain, as the
/// undo heap does.
class UndoReadAhead {
 public:
  UndoReadAhead(LogManager* log, DataComponent* dc, const ActiveTxnTable& att)
      : log_(log),
        dc_(dc),
        batch_(std::max<uint64_t>(1, dc->pool().capacity() / 8)) {
    for (const auto& entry : att) heap_.push(entry.second);
  }

  /// Undo is about to undo its next data op: when it has reached every key
  /// of the last batch, read the next batch's paths ahead.
  Status Advance() {
    if (left_ == 0) DEUTERO_RETURN_NOT_OK(ReadBatch());
    if (left_ > 0) left_--;
    return Status::OK();
  }

 private:
  Status ReadBatch() {
    keys_.clear();
    while (!heap_.empty() && keys_.size() < batch_) {
      const Lsn lsn = heap_.top();
      heap_.pop();
      // Best effort: a record that does not decode ends its loser's walk;
      // undo's own read of it reports the error.
      if (!log_->ViewRecordAt(lsn, &view_).ok()) continue;
      if (IsDataOp(view_.type)) keys_.emplace_back(view_.table_id, view_.key);
      const Lsn next =
          NextInChain(view_.type, view_.prev_lsn, view_.undo_next_lsn);
      if (next != kInvalidLsn) heap_.push(next);
    }
    left_ = keys_.size();
    std::sort(keys_.begin(), keys_.end());
    for (size_t i = 0, j = 0; i < keys_.size(); i = j) {
      const TableId table = keys_[i].first;
      table_keys_.clear();
      for (j = i; j < keys_.size() && keys_[j].first == table; j++) {
        table_keys_.push_back(keys_[j].second);
      }
      BTree* tree = dc_->FindTable(table);
      if (tree != nullptr) {  // an unknown table is undo's error to report
        DEUTERO_RETURN_NOT_OK(tree->PrefetchPaths(table_keys_));
      }
    }
    return Status::OK();
  }

  LogManager* const log_;
  DataComponent* const dc_;
  const uint64_t batch_;  ///< Most keys one batch reads ahead.
  std::priority_queue<Lsn> heap_;
  uint64_t left_ = 0;  ///< Keys of the last batch undo has not reached.
  LogRecordView view_;
  std::vector<std::pair<TableId, Key>> keys_;
  std::vector<Key> table_keys_;
};

}  // namespace

Status RunUndo(LogManager* log, DataComponent* dc, const ActiveTxnTable& att,
               UndoResult* out, UndoKind kind, uint64_t max_ops_for_test) {
  *out = UndoResult();
  std::optional<UndoReadAhead> ahead;
  if (kind == UndoKind::kRecovery) ahead.emplace(log, dc, att);

  std::priority_queue<UndoCursor> heap;
  for (const auto& [txn, last] : att) {
    heap.push(UndoCursor{last, txn, last});
  }
  // Scratch records hoisted out of the loop: ReadRecordAt copy-assigns
  // into `rec` (LogRecordView::CopyTo reuses string capacity) and the
  // CLR/abort fields below are fully re-assigned per use, so steady-state
  // rollback performs zero heap allocations per record
  // (hotpath_alloc_test).
  LogRecord rec;
  LogRecord clr;
  LogRecord abort;
  // The pass reads its backchains in descending LSN order, so a log page
  // its reads stay on is charged once.
  LogManager::PageMemo log_page;
  abort.type = LogRecordType::kTxnAbort;

  auto finish_txn = [&](const UndoCursor& cur) {
    abort.txn_id = cur.txn;
    abort.prev_lsn = cur.last_lsn;
    log->Append(abort);
    out->txns_undone++;
  };

  while (!heap.empty()) {
    if (max_ops_for_test != 0 && out->ops_undone >= max_ops_for_test) {
      break;  // mid-undo crash point; the CLRs so far are flushed below
    }
    UndoCursor cur = heap.top();
    heap.pop();
    if (cur.next == kInvalidLsn) {
      finish_txn(cur);
      continue;
    }
    DEUTERO_RETURN_NOT_OK(log->ReadRecordAt(cur.next, &rec, &log_page));
    out->records_read++;
    out->log_pages = log_page.pages_charged;
    if (IsDataOp(rec.type)) {
      if (ahead.has_value()) DEUTERO_RETURN_NOT_OK(ahead->Advance());
      // Logical undo (§1.2): rediscover the record's page by key. The
      // undo of a delete re-inserts the before-image, so it must ensure
      // leaf space first (PrepareInsert splits — and logs SMOs — if the
      // leaf filled up since the delete).
      PageId pid = kInvalidPageId;
      if (rec.type == LogRecordType::kDelete) {
        DEUTERO_RETURN_NOT_OK(dc->PrepareInsert(rec.table_id, rec.key, &pid));
      } else {
        DEUTERO_RETURN_NOT_OK(dc->FindLeaf(rec.table_id, rec.key, &pid));
        // Read the leaf before its CLR is logged (the restore below then
        // finds it cached): a read that fails leaves no CLR whose restore
        // never happened, so a runtime rollback's caller can keep the
        // loser's chain whole.
        PageHandle leaf;
        DEUTERO_RETURN_NOT_OK(dc->pool().Get(pid, PageClass::kData, &leaf));
      }
      clr.type = LogRecordType::kClr;
      clr.txn_id = cur.txn;
      clr.table_id = rec.table_id;
      clr.key = rec.key;
      if (rec.type == LogRecordType::kInsert) {
        clr.after.clear();
      } else {
        clr.after = rec.before;
      }
      clr.pid = pid;
      clr.undo_next_lsn = rec.prev_lsn;
      // Row-count effect of the compensation, carried on the record so a
      // later recovery's scan-complete row accounting replays it.
      clr.clr_row_delta = rec.type == LogRecordType::kInsert  ? -1
                          : rec.type == LogRecordType::kDelete ? 1
                                                               : 0;
      const Lsn clr_lsn = log->Append(clr);
      // The inverse write, through the forward path. Not a blanket kClr:
      // an update's undo of a missing key must stay NotFound. An insert's
      // undo deletes and may merge (a logged SMO, like the splits
      // PrepareInsert logs for a delete's undo; the same for every method,
      // since undo runs identically after redo). A delete's undo restores
      // the row as an upsert.
      const LogRecordType inverse =
          rec.type == LogRecordType::kUpdate   ? LogRecordType::kUpdate
          : rec.type == LogRecordType::kInsert ? LogRecordType::kDelete
                                               : LogRecordType::kClr;
      bool underfull = false;
      DEUTERO_RETURN_NOT_OK(dc->Apply(rec.table_id, pid, inverse, rec.key,
                                      clr.after, clr_lsn, &underfull));
      if (underfull) {
        DEUTERO_RETURN_NOT_OK(dc->MaybeMergeLeaf(rec.table_id, rec.key));
      }
      out->ops_undone++;
      out->clrs_written++;
      cur.last_lsn = clr_lsn;
    }
    // A CLR jumps over the already-compensated prefix. Commit/abort
    // records cannot appear for losers; anything else in the chain is
    // skipped through its backchain.
    cur.next = NextInChain(rec.type, rec.prev_lsn, rec.undo_next_lsn);
    if (cur.next == kInvalidLsn) {
      finish_txn(cur);
    } else {
      heap.push(cur);
    }
  }
  log->Flush();
  return Status::OK();
}

}  // namespace deutero
