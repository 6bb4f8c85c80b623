#include "core/engine.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/value_codec.h"
#include "recovery/recovery_manager.h"

namespace deutero {

Engine::Engine(const EngineOptions& options) : options_(options) {
  // Sanitize the redo parallelism degree once, here, so every downstream
  // consumer (RecoveryManager, benches, tests driving passes directly
  // through options()) sees a value in [1, 64]. 0 means "serial", same as
  // 1; the upper clamp bounds thread/queue footprint on absurd inputs.
  if (options_.recovery_threads == 0) options_.recovery_threads = 1;
  if (options_.recovery_threads > 64) options_.recovery_threads = 64;
  if (options_.lock_shards == 0) options_.lock_shards = 1;
  if (options_.lock_shards > 256) options_.lock_shards = 256;
  if (options_.io.io_channels == 0) options_.io.io_channels = 1;
  if (options_.io.io_channels > 64) options_.io.io_channels = 64;
  log_ = std::make_unique<LogManager>(&clock_, options_.log_page_size,
                                      options_.io.log_page_read_ms);
  dc_ = std::make_unique<DataComponent>(&clock_, log_.get(), options_);
  tc_ = std::make_unique<TransactionComponent>(&clock_, log_.get(), dc_.get(),
                                               options_);
  dc_->set_wal_force([this](Lsn lsn) { tc_->ForceLogUpTo(lsn); });
  repairer_ = std::make_unique<PageRepairer>(log_.get(), dc_.get(),
                                             options_.page_size);
  // Every checksum failure the pool detects first tries an in-place
  // archive rebuild; the archive itself refreshes at each completed
  // checkpoint (opt-in: it doubles stable storage).
  dc_->pool().set_repair_callback([this](PageId pid, uint8_t* frame_data) {
    return repairer_->RepairFrame(pid, frame_data);
  });
  if (options_.media_archive) {
    dc_->set_catalog_persisted([this] { repairer_->CaptureArchive(); });
  }
  if (options_.GroupCommitEnabled()) {
    group_commit_ = std::make_unique<GroupCommit>(
        /*flush=*/[this] {
          // The batcher is the one thread forcing the log on behalf of a
          // whole batch; it takes the write gate like any appender.
          WriterLock g(&forward_mu_);
          tc_->ForceLog();
          return log_->stable_end();
        },
        /*stable=*/[this] { return log_->stable_end(); },
        options_.group_commit_window_us, options_.group_commit_max_batch);
  }
}

Status Engine::Open(const EngineOptions& options,
                    std::unique_ptr<Engine>* out) {
  std::unique_ptr<Engine> e(new Engine(options));
  const uint32_t vsize = options.value_size;
  DEUTERO_RETURN_NOT_OK(e->dc_->CreateDatabase(
      [vsize](Key key, uint8_t* dst) { SynthesizeValue(key, 0, vsize, dst); }));
  e->running_ = true;
  DEUTERO_RETURN_NOT_OK(e->tc_->Checkpoint());
  if (e->group_commit_) e->group_commit_->Start();
  *out = std::move(e);
  return Status::OK();
}

Status Engine::CreateTable(TableId table, uint32_t value_size) {
  WriterLock g(&forward_mu_);
  if (!running_) return Status::InvalidArgument("engine is crashed");
  if (degraded_) return Status::Degraded("engine is read-only (media)");
  if (read_only_) return Status::InvalidArgument("engine is read-only");
  return dc_->CreateTable(table, value_size);
}

Status Engine::OpenTable(TableId table, Table* out) {
  ReaderLock g(&forward_mu_);
  if (!running_) return Status::InvalidArgument("engine is crashed");
  BTree* tree = dc_->FindTable(table);
  if (tree == nullptr) return Status::NotFound("unknown table");
  *out = Table(this, table, tree->value_size());
  return Status::OK();
}

Status Engine::Begin(Txn* txn) {
  WriterLock g(&forward_mu_);
  if (!running_) return Status::InvalidArgument("engine is crashed");
  if (degraded_) return Status::Degraded("engine is read-only (media)");
  if (read_only_) return Status::InvalidArgument("engine is read-only");
  TxnId id = kInvalidTxnId;
  DEUTERO_RETURN_NOT_OK(tc_->Begin(&id));
  *txn = Txn(this, id);
  return Status::OK();
}

Status Engine::Apply(const Table& table, const WriteBatch& batch) {
  // No gate here: Begin and every per-op backend take it themselves.
  if (!table.valid()) return Status::InvalidArgument("invalid table handle");
  if (table.engine_ != this) {
    return Status::InvalidArgument("table handle from a different engine");
  }
  Txn txn;
  DEUTERO_RETURN_NOT_OK(Begin(&txn));
  const Status st = txn.Apply(table, batch);
  if (!st.ok()) {
    (void)txn.Abort();  // roll back the partial prefix
    return st;
  }
  return txn.Commit();  // the batch's single log flush
}

Status Engine::Read(Key key, std::string* value) {
  return Read(options_.table_id, key, value);
}

Status Engine::Read(TableId table, Key key, std::string* value) {
  {
    ReaderLock g(&forward_mu_);
    if (!running_) return Status::InvalidArgument("engine is crashed");
    const Status s = tc_->Read(kInvalidTxnId, table, key, value);
    if (!s.IsCorruption()) return s;
  }
  // Media path: page repair mutates the pool and possibly degraded_, so
  // re-run the read under the write gate.
  WriterLock g(&forward_mu_);
  if (!running_) return Status::InvalidArgument("engine is crashed");
  Status s = tc_->Read(kInvalidTxnId, table, key, value);
  if (s.IsCorruption()) {
    s = TryRemoteRepair(s);
    if (s.ok()) s = tc_->Read(kInvalidTxnId, table, key, value);
  }
  return s;
}

Status Engine::Scan(TableId table, Key lo, Key hi, ScanCursor* out) {
  {
    ReaderLock g(&forward_mu_);
    if (!running_) return Status::InvalidArgument("engine is crashed");
    const Status s = dc_->Scan(table, lo, hi, out);
    if (!s.IsCorruption()) return s;
  }
  WriterLock g(&forward_mu_);
  if (!running_) return Status::InvalidArgument("engine is crashed");
  Status s = dc_->Scan(table, lo, hi, out);
  if (s.IsCorruption()) {
    s = TryRemoteRepair(s);
    if (s.ok()) s = dc_->Scan(table, lo, hi, out);
  }
  return s;
}

Status Engine::TryRemoteRepair(const Status& failure) {
  const PageId bad = dc_->pool().TakeCorruptPage();
  if (bad == kInvalidPageId) return failure;  // structural, not media
  if (repair_source_ != nullptr &&
      repairer_->RepairFromSource(bad, repair_source_).ok()) {
    return Status::OK();
  }
  degraded_ = true;
  return Status::Degraded("unrepairable media corruption on page " +
                          std::to_string(bad));
}

// ---- handle-API backends ----

// Each write backend pre-acquires its logical lock OUTSIDE the gate (a
// blocked waiter must not hold the gate its lock holder needs to commit),
// then performs the logged operation under the exclusive gate; the TC's
// own acquire re-grants instantly. If the gated operation rejects the
// transaction (unknown/crashed), the pre-acquired lock is dropped so
// nothing leaks.

Status Engine::TxnUpdate(TxnId txn, TableId table, Key key, Slice value) {
  DEUTERO_RETURN_NOT_OK(tc_->AcquireLock(txn, table, key, /*exclusive=*/true));
  WriterLock g(&forward_mu_);
  if (!running_) {
    tc_->ReleaseLocksIfInactive(txn);
    return Status::InvalidArgument("engine is crashed");
  }
  const Status st = tc_->Update(txn, table, key, value);
  if (st.IsInvalidArgument()) tc_->ReleaseLocksIfInactive(txn);
  return st;
}

Status Engine::TxnInsert(TxnId txn, TableId table, Key key, Slice value) {
  DEUTERO_RETURN_NOT_OK(tc_->AcquireLock(txn, table, key, /*exclusive=*/true));
  WriterLock g(&forward_mu_);
  if (!running_) {
    tc_->ReleaseLocksIfInactive(txn);
    return Status::InvalidArgument("engine is crashed");
  }
  const Status st = tc_->Insert(txn, table, key, value);
  if (st.IsInvalidArgument()) tc_->ReleaseLocksIfInactive(txn);
  return st;
}

Status Engine::TxnDelete(TxnId txn, TableId table, Key key) {
  DEUTERO_RETURN_NOT_OK(tc_->AcquireLock(txn, table, key, /*exclusive=*/true));
  WriterLock g(&forward_mu_);
  if (!running_) {
    tc_->ReleaseLocksIfInactive(txn);
    return Status::InvalidArgument("engine is crashed");
  }
  const Status st = tc_->Delete(txn, table, key);
  if (st.IsInvalidArgument()) tc_->ReleaseLocksIfInactive(txn);
  return st;
}

Status Engine::TxnRead(TxnId txn, TableId table, Key key,
                       std::string* value) {
  if (txn != kInvalidTxnId) {
    DEUTERO_RETURN_NOT_OK(
        tc_->AcquireLock(txn, table, key, /*exclusive=*/false));
  }
  ReaderLock g(&forward_mu_);
  if (!running_) {
    if (txn != kInvalidTxnId) tc_->ReleaseLocksIfInactive(txn);
    return Status::InvalidArgument("engine is crashed");
  }
  return tc_->Read(txn, table, key, value);
}

Status Engine::TxnCommit(TxnId txn) {
  if (group_commit_) {
    // Group-commit path: append the commit record and release locks under
    // the gate, then wait for durability OUTSIDE it so the batcher can
    // amortize one force over the whole batch.
    Lsn durable = kInvalidLsn;
    {
      WriterLock g(&forward_mu_);
      if (!running_) return Status::InvalidArgument("engine is crashed");
      DEUTERO_RETURN_NOT_OK(tc_->CommitRequest(txn, &durable));
    }
    return group_commit_->WaitDurable(durable);
  }
  WriterLock g(&forward_mu_);
  if (!running_) return Status::InvalidArgument("engine is crashed");
  return tc_->Commit(txn);
}

Status Engine::TxnAbort(TxnId txn) {
  WriterLock g(&forward_mu_);
  if (!running_) return Status::InvalidArgument("engine is crashed");
  return tc_->Abort(txn);
}

// ---- deprecated raw-TxnId shims ----

Status Engine::Begin(TxnId* txn) {
  WriterLock g(&forward_mu_);
  if (!running_) return Status::InvalidArgument("engine is crashed");
  if (degraded_) return Status::Degraded("engine is read-only (media)");
  if (read_only_) return Status::InvalidArgument("engine is read-only");
  return tc_->Begin(txn);
}

Status Engine::Update(TxnId txn, Key key, Slice value) {
  return TxnUpdate(txn, options_.table_id, key, value);
}

Status Engine::Insert(TxnId txn, Key key, Slice value) {
  return TxnInsert(txn, options_.table_id, key, value);
}

Status Engine::Update(TxnId txn, TableId table, Key key, Slice value) {
  return TxnUpdate(txn, table, key, value);
}

Status Engine::Insert(TxnId txn, TableId table, Key key, Slice value) {
  return TxnInsert(txn, table, key, value);
}

Status Engine::Commit(TxnId txn) { return TxnCommit(txn); }

Status Engine::Abort(TxnId txn) { return TxnAbort(txn); }

// ---- checkpoint / crash / recovery ----

Status Engine::Checkpoint(uint64_t* pages_flushed) {
  WriterLock g(&forward_mu_);
  if (!running_) return Status::InvalidArgument("engine is crashed");
  return tc_->Checkpoint(pages_flushed);
}

void Engine::SimulateCrash() {
  // Halt the batcher BEFORE taking the gate: its flush callback takes the
  // gate, so joining it underneath would deadlock. Pending committers fail
  // with Aborted — their commits were never acknowledged, and after
  // recovery they may legitimately be present or absent (the oracle
  // treats them as uncertain).
  if (group_commit_) group_commit_->CrashHalt();
  WriterLock g(&forward_mu_);
  log_->Crash();
  dc_->SimulateCrash();
  tc_->SimulateCrash();
  clock_.Reset();
  dc_->disk().ResetTime();
  running_ = false;
}

Status Engine::Recover(RecoveryMethod method, RecoveryStats* stats) {
  if (running_) return Status::InvalidArgument("engine is not crashed");
  // Callers that don't care about the phase breakdown may pass nullptr;
  // RecoveryManager::Recover writes through the pointer unconditionally.
  RecoveryStats local;
  if (stats == nullptr) stats = &local;
  const uint32_t attempts = std::max(1u, options_.media_repair_attempts);
  Status s;
  for (uint32_t attempt = 0; attempt < attempts; attempt++) {
    RecoveryManager rm(&clock_, log_.get(), dc_.get(), tc_.get(), options_);
    s = rm.Recover(method, stats);
    if (s.ok()) {
      // The monitor was off during recovery, so the pages redo and undo
      // left dirty are in no DirtySet. Captured later, after a new op
      // re-dirties one, such a page would get a proxy rLSN past the update
      // recovery re-applied, and the next Log1/Log2 recovery would skip
      // it. Report them all now, in one scope so no Δ-record splits them.
      std::vector<std::pair<PageId, Lsn>> dirty;
      dc_->pool().CollectDirtyPages(&dirty);
      {
        DirtyPageMonitor::AtomicScope scope(&dc_->monitor());
        for (const auto& [pid, lsn] : dirty) {
          dc_->monitor().OnPageDirtied(pid, lsn);
        }
      }
      running_ = true;
      degraded_ = false;
      last_recovery_ = *stats;
      if (group_commit_) group_commit_->Start();
      return Status::OK();
    }
    if (!s.IsCorruption() && !s.IsIOError()) return s;
    // A media failure stopped the pass: the in-place archive repair
    // already failed inside the pool, so this is the remote source's
    // turn. Recovery passes are idempotent — after a successful repair
    // the whole recovery simply reruns.
    const PageId bad = dc_->pool().TakeCorruptPage();
    if (bad == kInvalidPageId || repair_source_ == nullptr ||
        !repairer_->RepairFromSource(bad, repair_source_).ok()) {
      break;
    }
  }
  // Unrepairable: open for reads only. Pages the aborted pass did not
  // reach may serve pre-crash versions — degraded means best-effort.
  running_ = true;
  degraded_ = true;
  if (group_commit_) group_commit_->Start();  // invariant: batcher iff running
  return Status::Degraded("unrepairable media corruption during recovery: " +
                          s.ToString());
}

EngineStats Engine::Stats() const {
  EngineStats s;
  const ShardedLockManager::Stats ls = tc_->locks().StatsSnapshot();
  s.lock_acquires = ls.acquires;
  s.lock_waits = ls.lock_waits;
  s.lock_shard_collisions = ls.lock_shard_collisions;
  s.wait_die_aborts = ls.wait_die_aborts;
  if (group_commit_) {
    const GroupCommit::Stats gs = group_commit_->stats();
    s.commits_enqueued = gs.enqueued;
    s.commit_batches = gs.batches;
  }
  s.log_flushes = log_->StatsSnapshot().flushes;
  const TransactionComponent::Stats& ts = tc_->stats();
  s.committed = ts.committed;
  s.aborted = ts.aborted;
  // The DPT-construction phase is the DC pass for logical methods and the
  // SQL analysis pass otherwise; exactly one of the two is nonzero.
  s.recovery_analysis_ms = last_recovery_.dc_pass.ms + last_recovery_.analysis.ms;
  s.recovery_redo_ms = last_recovery_.redo.ms;
  s.recovery_undo_ms = last_recovery_.undo.ms;
  s.recovery_total_ms = last_recovery_.total_ms;
  return s;
}

Status Engine::TakeStableSnapshot(StableSnapshot* out) const {
  if (running_) return Status::InvalidArgument("snapshot requires a crash");
  out->disk_image = dc_->disk().SnapshotImage();
  out->log = log_->TakeSnapshot();
  out->archive = repairer_->TakeArchive();
  return Status::OK();
}

Status Engine::RestoreStableSnapshot(const StableSnapshot& snap) {
  if (running_) return Status::InvalidArgument("restore requires a crash");
  dc_->disk().RestoreImage(snap.disk_image);
  log_->RestoreSnapshot(snap.log);
  repairer_->RestoreArchive(snap.archive);
  degraded_ = false;
  return Status::OK();
}

}  // namespace deutero
