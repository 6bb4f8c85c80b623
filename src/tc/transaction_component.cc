#include "tc/transaction_component.h"

#include <cassert>

namespace deutero {

TransactionComponent::TransactionComponent(LogManager* log, DataComponent* dc,
                                           const EngineOptions& options)
    : log_(log), dc_(dc), options_(options), locks_(options.lock_shards) {}

TransactionComponent::ActiveTxn* TransactionComponent::FindActive(TxnId txn) {
  for (ActiveTxn& t : active_) {
    if (t.id == txn) return &t;
  }
  return nullptr;
}

void TransactionComponent::EraseActive(ActiveTxn* t) {
  *t = active_.back();
  active_.pop_back();
}

Status TransactionComponent::Begin(TxnId* txn) {
  const TxnId id = next_txn_++;
  LogRecord rec;
  rec.type = LogRecordType::kTxnBegin;
  rec.txn_id = id;
  rec.prev_lsn = kInvalidLsn;
  const Lsn lsn = log_->Append(rec);
  active_.push_back(ActiveTxn{id, lsn, lsn});
  stats_.begun++;
  *txn = id;
  return Status::OK();
}

Status TransactionComponent::Write(LogRecordType op, TxnId txn,
                                   TableId table, Key key, Slice value) {
  if (op != LogRecordType::kUpdate && op != LogRecordType::kInsert &&
      op != LogRecordType::kDelete) {
    return Status::InvalidArgument("not a data op");
  }
  ActiveTxn* t = FindActive(txn);
  if (t == nullptr) return Status::InvalidArgument("unknown txn");
  if (op == LogRecordType::kDelete) {
    value = Slice();  // a delete logs no after-image
  } else {
    DEUTERO_RETURN_NOT_OK(dc_->ValidateValue(table, value.size()));
  }
  DEUTERO_RETURN_NOT_OK(
      locks_.Acquire(txn, table, key, ShardedLockManager::LockMode::kExclusive));

  PageId pid = kInvalidPageId;
  if (op == LogRecordType::kInsert) {
    // PrepareInsert may run (and log) SMO system transactions; their
    // records precede this insert's record, preserving LSN order for
    // physiological replay. It never mutates the active list (SMOs are
    // DC-side system transactions), which is why `t` stays valid.
    DEUTERO_RETURN_NOT_OK(dc_->PrepareInsert(table, key, &pid));
    // Duplicate check BEFORE logging: if the kInsert record reached the
    // log and the apply then failed, rollback would "compensate" an
    // operation that never happened — deleting the committed row — and
    // redo would replay the orphan record into a permanent recovery
    // failure.
    bool exists = false;
    DEUTERO_RETURN_NOT_OK(dc_->LeafContains(table, pid, key, &exists));
    if (exists) return Status::InvalidArgument("duplicate key");
    scratch_.before.clear();
  } else {
    // The before-image rides on the record so undo can restore the row.
    DEUTERO_RETURN_NOT_OK(
        dc_->LocateForUpdate(table, key, &pid, &scratch_.before));
  }
  const Lsn lsn = AppendDataOp(t, op, table, key, value, pid);

  // A delete that leaves the leaf underfull triggers the delete-side SMO:
  // a logged DC system transaction whose record follows this delete's, so
  // physiological replay reproduces the same order.
  bool underfull = false;
  DEUTERO_RETURN_NOT_OK(
      dc_->Apply(table, pid, op, key, value, lsn, &underfull));
  if (underfull) DEUTERO_RETURN_NOT_OK(dc_->MaybeMergeLeaf(table, key));
  DEUTERO_RETURN_NOT_OK(dc_->Tick());
  CountOp(op);
  return Status::OK();
}

Status TransactionComponent::Read(TxnId txn, TableId table, Key key,
                                  std::string* value) {
  if (txn != kInvalidTxnId) {
    DEUTERO_RETURN_NOT_OK(
        locks_.Acquire(txn, table, key, ShardedLockManager::LockMode::kShared));
  }
  return dc_->Read(table, key, value);
}

Status TransactionComponent::CommitRequest(TxnId txn, Lsn* durable_point) {
  ActiveTxn* t = FindActive(txn);
  if (t == nullptr) return Status::InvalidArgument("unknown txn");
  LogRecord rec;
  rec.type = LogRecordType::kTxnCommit;
  rec.txn_id = txn;
  rec.prev_lsn = t->last_lsn;
  Lsn end = kInvalidLsn;
  log_->Append(rec, &end);
  if (durable_point != nullptr) *durable_point = end;
  locks_.ReleaseAll(txn);
  EraseActive(t);
  stats_.committed++;
  return Status::OK();
}

Status TransactionComponent::Commit(TxnId txn) {
  DEUTERO_RETURN_NOT_OK(CommitRequest(txn, nullptr));
  ForceLog();  // group commit boundary: commit is durable
  return Status::OK();
}

Status TransactionComponent::LogReplayOp(TxnId txn, LogRecordType type,
                                         TableId table, Key key, Slice before,
                                         Slice after, PageId pid, Lsn* lsn) {
  ActiveTxn* t = FindActive(txn);
  if (t == nullptr) return Status::InvalidArgument("unknown txn");
  if (type != LogRecordType::kUpdate && type != LogRecordType::kInsert &&
      type != LogRecordType::kDelete) {
    return Status::InvalidArgument("not a replayable data op");
  }
  scratch_.before.assign(before.data(), before.size());
  const Lsn rec_lsn = AppendDataOp(t, type, table, key, after, pid);
  CountOp(type);
  if (lsn != nullptr) *lsn = rec_lsn;
  return Status::OK();
}

void TransactionComponent::CountOp(LogRecordType type) {
  switch (type) {
    case LogRecordType::kUpdate: stats_.updates++; break;
    case LogRecordType::kInsert: stats_.inserts++; break;
    default: stats_.deletes++; break;
  }
}

Lsn TransactionComponent::AppendDataOp(ActiveTxn* t, LogRecordType type,
                                       TableId table, Key key, Slice after,
                                       PageId pid) {
  LogRecord& rec = scratch_;
  rec.type = type;
  rec.txn_id = t->id;
  rec.table_id = table;
  rec.key = key;
  rec.after.assign(after.data(), after.size());
  rec.pid = pid;  // physiological hint; ignored by logical recovery
  rec.prev_lsn = t->last_lsn;
  t->last_lsn = log_->Append(rec);
  return t->last_lsn;
}

Status TransactionComponent::LastLsn(TxnId txn, Lsn* last) {
  const ActiveTxn* t = FindActive(txn);
  if (t == nullptr) return Status::InvalidArgument("unknown txn");
  *last = t->last_lsn;
  return Status::OK();
}

void TransactionComponent::SetLastLsn(TxnId txn, Lsn last) {
  ActiveTxn* t = FindActive(txn);
  if (t != nullptr) t->last_lsn = last;
}

Status TransactionComponent::FinishAbort(TxnId txn) {
  ActiveTxn* t = FindActive(txn);
  if (t == nullptr) return Status::InvalidArgument("unknown txn");
  ForceLog();
  locks_.ReleaseAll(txn);
  EraseActive(t);
  stats_.aborted++;
  return Status::OK();
}

void TransactionComponent::ForceLog() {
  log_->Flush();
  dc_->Eosl(log_->stable_end());
}

void TransactionComponent::ForceLogUpTo(Lsn lsn) {
  if (log_->stable_end() <= lsn) {
    stats_.log_forces++;
    log_->Flush();
  }
  // Published even without a force: the undo pass and a page repair force
  // the log themselves and leave the eLSN to the TC.
  dc_->Eosl(log_->stable_end());
}

Status TransactionComponent::Checkpoint(uint64_t* pages_flushed) {
  LogRecord bckpt;
  bckpt.type = LogRecordType::kBeginCheckpoint;
  // Capture the active transaction table: a loser idle across this
  // checkpoint must still reach the undo pass (classic ARIES; both
  // checkpoint schemes need it).
  for (const ActiveTxn& t : active_) {
    bckpt.att_txn_ids.push_back(t.id);
    bckpt.att_last_lsns.push_back(t.last_lsn);
  }
  if (options_.checkpoint_scheme == CheckpointScheme::kAries) {
    // §3.1: capture the runtime DPT in the checkpoint record; flush nothing.
    std::vector<std::pair<PageId, Lsn>> dirty;
    dc_->pool().CollectDirtyPages(&dirty);
    for (const auto& [pid, rlsn] : dirty) {
      bckpt.ckpt_dpt_pids.push_back(pid);
      bckpt.ckpt_dpt_rlsns.push_back(rlsn);
    }
  }
  const Lsn bckpt_lsn = log_->Append(bckpt);
  ForceLog();
  if (options_.crash_points.after_begin_checkpoint) {
    return Status::Aborted("crash injected after bCkpt");
  }

  uint64_t flushed = 0;
  if (options_.checkpoint_scheme == CheckpointScheme::kPenultimate) {
    // RSSP: DC flushes everything dirtied at or before the bCkpt (§3.2).
    DEUTERO_RETURN_NOT_OK(dc_->Rssp(bckpt_lsn, &flushed));
  }
  if (pages_flushed != nullptr) *pages_flushed = flushed;
  if (options_.crash_points.after_rssp) {
    return Status::Aborted("crash injected after RSSP");
  }

  LogRecord eckpt;
  eckpt.type = LogRecordType::kEndCheckpoint;
  eckpt.bckpt_lsn = bckpt_lsn;
  const Lsn eckpt_lsn = log_->Append(eckpt);
  ForceLog();

  MasterRecord master = log_->master();
  master.bckpt_lsn = bckpt_lsn;
  master.eckpt_lsn = eckpt_lsn;
  master.checkpoint_count++;
  log_->WriteMaster(master);
  dc_->PersistCatalog();
  stats_.checkpoints++;
  return Status::OK();
}

void TransactionComponent::SimulateCrash() {
  active_.clear();
  locks_.Reset();
}

}  // namespace deutero
