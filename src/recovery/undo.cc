#include "recovery/undo.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <queue>
#include <string>
#include <utility>
#include <vector>

#include "btree/btree.h"
#include "common/mutex.h"
#include "recovery/apply_worker.h"

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

/// One routed update-undo: restore `value` at `key` on leaf `pid` and stamp
/// `lsn` (the CLR's LSN). The before-image is OWNED — the dispatcher keeps
/// appending CLRs, which can realloc the log buffer, so unlike redo no
/// Slice may alias it across threads here. Ring slots persist, so the
/// string assignment on push reuses slot capacity. pid == kInvalidPageId is
/// the control token: release pins (barriers, end of pass).
struct UndoWorkItem {
  PageId pid = kInvalidPageId;
  TableId table_id = kInvalidTableId;
  Key key = 0;
  Lsn lsn = kInvalidLsn;
  std::string value;
};

/// The apply body of one undo partition: the leaf restore of an
/// update-undo. No skip tests (every restore touches its page) and no
/// apply CPU (the undo pass charges none: its cost is I/O, which the
/// shared clock already accounts under the gate).
class UndoApplier {
 public:
  using Item = UndoWorkItem;

  explicit UndoApplier(const TableRegistry* tables) : tables_(tables) {}

  Status Apply(const Item& item, PinCache* pins) {
    PinCache::Pin* pin = nullptr;
    DEUTERO_RETURN_NOT_OK(pins->FindOrPin(item.pid, &pin));
    uint32_t value_size = 0;
    if (!tables_->Lookup(item.table_id, &value_size)) {
      return Status::NotFound("undo of op on unknown table");
    }
    int64_t delta = 0;  // an update moves no row
    DEUTERO_RETURN_NOT_OK(LeafApplyRecord(pin->handle.view(), value_size,
                                          LogRecordType::kUpdate, item.key,
                                          Slice(item.value), &delta));
    pins->Stamp(pin, item.lsn);
    return Status::OK();
  }

 private:
  const TableRegistry* tables_;
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
  UndoReadAhead(LogManager* log, DataComponent* dc, const ActiveTxnTable& att,
                Mutex* gate)
      : log_(log),
        dc_(dc),
        gate_(gate),
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
    GateLock lock(gate_);
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
  Mutex* const gate_;
  const uint64_t batch_;  ///< Most keys one batch reads ahead.
  std::priority_queue<Lsn> heap_;
  uint64_t left_ = 0;  ///< Keys of the last batch undo has not reached.
  LogRecordView view_;
  std::vector<std::pair<TableId, Key>> keys_;
  std::vector<Key> table_keys_;
};

}  // namespace

Status RunUndo(LogManager* log, DataComponent* dc, const ActiveTxnTable& att,
               uint32_t threads, UndoResult* out, UndoKind kind,
               uint64_t max_ops_for_test) {
  *out = UndoResult();

  // Undo cannot create tables (DDL is a system transaction, never a
  // loser), so the registry is fixed for the whole pass.
  TableRegistry tables;
  Mutex gate;  ///< Serializes EVERY pool/disk touch beside workers.
  // Workers run with the dirty monitor and pool callbacks off: a live
  // monitor would react to a worker's MarkDirty by appending Δ/BW records
  // from worker threads, racing the dispatcher's CLR appends. One
  // partition applies on the caller's thread and leaves the monitor as it
  // is, so a runtime rollback reports the pages its CLRs dirty. Row counts
  // stay apply-side (BTree::Apply) either way.
  std::optional<RecoveryPassQuiescence> quiesce;  // outlives the crew
  std::unique_ptr<ApplyCrew<UndoApplier>> crew;
  if (threads >= 2) {
    quiesce.emplace(dc);
    tables.Refresh(dc);
    crew = std::make_unique<ApplyCrew<UndoApplier>>(
        std::vector<UndoApplier>(threads, UndoApplier(&tables)), &dc->pool(),
        &gate);
    out->threads_used = threads;
  }
  Mutex* const pool_gate = crew == nullptr ? nullptr : &gate;
  std::optional<UndoReadAhead> ahead;
  if (kind == UndoKind::kRecovery) ahead.emplace(log, dc, att, pool_gate);

  const Status st = [&]() -> Status {
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
    UndoWorkItem item;

    auto finish_txn = [&](const UndoCursor& cur) {
      abort.txn_id = cur.txn;
      abort.prev_lsn = cur.last_lsn;
      log->Append(abort);
      out->txns_undone++;
    };

    // The dispatcher is the only appender, so the heap order, backchain
    // reads and CLR/abort append sequence — the undo log stream — are the
    // same for every `threads`. Only the leaf restore of an update-undo
    // ever leaves this thread.
    while (!heap.empty()) {
      if (crew != nullptr && crew->AnyFailed()) {
        return Status::OK();  // a worker failed; the epilogue surfaces it
      }
      if (max_ops_for_test != 0 && out->ops_undone >= max_ops_for_test) {
        return Status::OK();  // mid-undo crash point; the epilogue flushes
      }
      UndoCursor cur = heap.top();
      heap.pop();
      if (cur.next == kInvalidLsn) {
        finish_txn(cur);
        continue;
      }
      // No gate: the log buffer is dispatcher-only (workers never touch
      // it) and the clock's log-read charge is atomic.
      DEUTERO_RETURN_NOT_OK(log->ReadRecordAt(cur.next, &rec, &log_page));
      out->records_read++;
      out->log_pages = log_page.pages_charged;
      if (IsDataOp(rec.type)) {
        if (ahead.has_value()) DEUTERO_RETURN_NOT_OK(ahead->Advance());
        // Logical undo (§1.2): rediscover the record's page by key. An
        // insert or delete undo changes tree structure: the undo of a
        // delete re-inserts the before-image, so it must ensure leaf
        // space first (PrepareInsert splits — and logs SMOs — if the leaf
        // filled up since the delete), and the undo of an insert may
        // merge after its CLR. Both need the tree to themselves, so the
        // workers drain to a barrier first. An update-undo's traversal
        // is stable against in-flight restores: updates never change
        // structure.
        if (crew != nullptr && rec.type != LogRecordType::kUpdate) {
          crew->DrainBarrier();
        }
        PageId pid = kInvalidPageId;
        if (rec.type == LogRecordType::kDelete) {
          DEUTERO_RETURN_NOT_OK(
              dc->PrepareInsert(rec.table_id, rec.key, &pid));
        } else {
          GateLock lock(pool_gate);
          DEUTERO_RETURN_NOT_OK(dc->FindLeaf(rec.table_id, rec.key, &pid));
        }
        if (crew == nullptr && rec.type != LogRecordType::kDelete) {
          // Inline, read the leaf before its CLR is logged (the restore
          // below then finds it cached): a read that fails leaves no CLR
          // whose restore never happened, so a runtime rollback's caller
          // can keep the loser's chain whole.
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
        // Row-count effect of the compensation, carried on the record so
        // a later recovery's scan-complete row accounting replays it.
        clr.clr_row_delta = rec.type == LogRecordType::kInsert  ? -1
                            : rec.type == LogRecordType::kDelete ? 1
                                                                 : 0;
        const Lsn clr_lsn = log->Append(clr);
        if (crew != nullptr && rec.type == LogRecordType::kUpdate) {
          item.pid = pid;
          item.table_id = rec.table_id;
          item.key = rec.key;
          item.lsn = clr_lsn;
          item.value = rec.before;
          crew->Route(item);
        } else {
          // The inverse write, through the forward path. Not a blanket
          // kClr: an update's undo of a missing key must stay NotFound.
          // An insert's undo deletes and may merge (a logged SMO, like
          // the splits PrepareInsert logs for a delete's undo; the same
          // for every method, since undo runs identically after redo).
          // A delete's undo restores the row as an upsert.
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
    return Status::OK();
  }();

  // Epilogue: routed restores are applied, never discarded — an op whose
  // CLR was appended must take effect.
  const Status worker_status = crew == nullptr ? Status::OK() : crew->Finish();
  DEUTERO_RETURN_NOT_OK(st);
  DEUTERO_RETURN_NOT_OK(worker_status);
  log->Flush();
  return Status::OK();
}

}  // namespace deutero
